"""LMI stability conditions, nonlinear-matrix-inequality checks, and the
constructive witness conversions between them.

Builders return :class:`~ids_stability.lmi_core.LmiProblem` instances.
single, th2-lmi and laa take their start from one closed form
(``_closed_forms``): X = (I - Psi)^-1 (I) for the positive map Psi(T) =
sum_i tau_i^2 / alpha_i A_i.T T A_i, PD exactly when rho(Psi) < 1
(Schneider, Numer. Math. 1965).  single takes alpha_i = 1/N, where Psi is
Phi(T) = N sum_i tau_i^2 A_i.T T A_i; where X is not PD, ``_farkas`` gives
Farkas multipliers.  The solver checks either one against the compiled
blocks and decides the problem with no barrier run; one that does not
certify falls through to the run.  th2-lmi and laa take
``optimize_weights``' alpha, so their start exists exactly where the
weighted spectral test passes, and ``weights_below`` skips it where a
bound proves that it fails; a start that certifies skips the run, and one
that does not starts it.  The run alone reaches the same verdicts: cold
amc is feasible at tau = (0.3, 0.0474), 5e-6 inside the exact margin.

amc and th2-coupled hold exactly when single does, so ``margin`` decides
them by solving single and maps a strict Q, with S = Q - Phi(Q) > 0, to a
witness that is checked against their own blocks, where it makes block i
-S (``witness_amc_from_single``) or -S/N
(``witness_th2_coupled_from_single``).  Conversely, P + sum_j tau_j Q_j of
an amc witness and sum_j Q_j of a th2-coupled one are single witnesses:
sum the blocks, weighted by tau_i for amc.

th1 accepts exactly the systems th2-lmi does, in three steps:
(1) LMI th1 <=> NMI th1: Q_i = R^-T Qhat_i R^-1 makes block i's Schur
complement the first family (``recover_nmi_th1``), and with P = sum Q_i
block 0 is sum S_i < R + R.T - R.T P R = P^-1 - (R - P^-1).T P (R - P^-1),
best at R = P^-1 (complete the square); (2) NMI th1 <=> NMI th2: sum the
first family, or split th2's slack back over the S_i
(``witness_th1_from_th2``); (3) NMI th2 <=> th2-lmi by a Schur complement
(Boyd, El Ghaoui, Feron & Balakrishnan, 1994).  So ``margin`` decides th1
by solving th2-lmi and maps a feasible Q to th1's witness
(``witness_th1_lmi_from_th2``), checked against ``build_th1``'s blocks.

:data:`LMI_CRITERIA` only maps the LMI criterion ids to their builders;
``margin.CRITERIA`` looks them up there at call time and does the dispatch.
"""

from __future__ import annotations

import numpy as np

from .criteria_spectral import dominant_index, kron_operator, optimize_weights, weights_below
from .lmi_core import (
    AffineBlock,
    BlockTerm,
    LmiProblem,
    MatrixVariable,
    eig_max,
    eig_min,
    is_pd,
    sym,
)
from .model import DiscreteIds, IdsSystem
from .simulator import FunctionalWitness

__all__ = [
    "build_amc",
    "build_th2_coupled",
    "build_single",
    "build_th1",
    "build_th2_lmi",
    "build_laa",
    "laa_convert_X_to_Q",
    "verify_nmi_th1",
    "verify_nmi_th2",
    "recover_nmi_th1",
    "witness_th1_from_th2coupled",
    "witness_th1_from_th2",
    "witness_th1_lmi_from_th2",
    "witness_th2_coupled_from_single",
    "witness_amc_from_single",
    "th2_functional_params",
    "ConversionError",
    "IllConditionedError",
    "LMI_CRITERIA",
]

_COND_LIMIT = 1e12


class ConversionError(ValueError):
    """A witness conversion's precondition fails (no slack, wrong ordering, ...)."""


class IllConditionedError(ValueError):
    """A matrix that must be inverted has condition number above 1e12."""


def _inv_guarded(M: np.ndarray, what: str) -> np.ndarray:
    c = np.linalg.cond(M)
    if not np.isfinite(c) or c > _COND_LIMIT:
        raise IllConditionedError(f"{what} has condition number {c:.3e} > 1e12")
    return np.linalg.inv(M)


def _require_pd_list(mats, what: str) -> list[np.ndarray]:
    out = []
    for i, M in enumerate(mats):
        M = np.asarray(M, dtype=float)
        if not is_pd(M):
            raise ValueError(f"{what}[{i}] must be symmetric positive definite")
        out.append(M)
    return out


# -- start construction -------------------------------------------------------


def _perron_matrix(op: np.ndarray, n: int) -> np.ndarray | None:
    """Dominant eigenmatrix of a linear map on symmetric matrices.

    ``op`` is the n^2 x n^2 matrix of the map in row-major vec coordinates.
    For the positive operators arising here the dominant eigenvalue is real
    with a PSD eigenmatrix; returns its trace-normalized PSD projection, or
    None when the dominant eigenvalue is not real.
    """
    w, V = np.linalg.eig(op)
    i = dominant_index(w)
    if i is None:
        return None
    T = V[:, i].real.reshape(n, n)
    T = sym(T)
    if np.trace(T) < 0:
        T = -T
    ew, U = np.linalg.eigh(T)
    T = (U * np.clip(ew, 0.0, None)) @ U.T
    tr = np.trace(T)
    if tr <= 1e-14:
        return None
    return T / tr


def _neumann(M: np.ndarray, n: int) -> np.ndarray | None:
    """Y with M vec(Y) = vec(I), or None unless Y is PD.  For M = I - Psi, Psi
    PSD-cone-preserving, Y = sum_k Psi^k (I) is PD exactly when rho(Psi) < 1
    (the Neumann series; Schneider, Numer. Math. 1965), and Y = I + Psi(Y)."""
    try:
        Y = sym(np.linalg.solve(M, np.eye(n).ravel()).reshape(n, n))
    except np.linalg.LinAlgError:
        return None
    return Y if is_pd(Y) else None


def _closed_forms(sys: IdsSystem, alpha, witness) -> tuple[tuple, np.ndarray]:
    """(starts, op) for the vec matrix op of Psi(T) = sum_i tau_i^2 / alpha_i
    A_i.T T A_i.  Where ``_neumann`` gives X = (I - Psi)^-1 (I),
    ``witness(X)`` is the one start: X = I + Psi(X) makes single's block -I,
    and th2-lmi's Q_i = alpha_i X^-1 meet the inverse-weighted condition
    with residual -I (sum_i tau_i^2 A_i.T Q_i^-1 A_i = X - I = (sum_i Q_i)^-1 - I).
    """
    op, n = kron_operator(sys.A, [t * t / a for t, a in zip(sys.tau, alpha)]).T, sys.n
    X = _neumann(np.eye(n * n) - op, n)
    return ((witness(X),) if X is not None else ()), op


def _farkas(op: np.ndarray, n: int) -> tuple:
    """single's Farkas multipliers for Phi of vec matrix ``op``: Y on its
    block and R - c I on Q's, where R = Phi*(Y) - Y.  Y is (Phi* - I)^-1 (I)
    where that is PD, so R = I, mirroring X; else the Perron eigenmatrix of
    Phi* (PSD by Krein-Rutman; Berman & Plemmons) plus 1e-12 I, so R is
    about (rho - 1) Y.  The adjoint is then c I, which weak duality makes a
    bound on f growing with c; c stays a tenth and a rounding margin below
    lambda_min(R), so both are PD.  The solver checks them on the blocks.
    """
    Y = _neumann(op.T - np.eye(n * n), n)
    if Y is None:
        Y = _perron_matrix(op.T, n)
        if Y is None:
            return ()
        Y = Y + 1e-12 * np.eye(n)
    R = (op.T @ Y.ravel()).reshape(n, n) - Y
    m = eig_min(R)
    c = m - 0.1 * abs(m) - 1e-12 * np.abs(R).max()
    return (Y, R - c * np.eye(n))


# -- builders -----------------------------------------------------------------


def build_amc(sys: IdsSystem) -> LmiProblem:
    """Coupled condition with an extra free matrix P:

        N tau_i A_i.T (P + sum_j tau_j Q_j) A_i - Q_i < 0,  i = 1..N

    in PD variables P, Q_1..Q_N: a checker, as ``margin`` decides it by single.
    """
    n, N = sys.n, sys.N
    I = np.eye(n)
    variables = [MatrixVariable("P", n, require_pd=True)] + [
        MatrixVariable(f"Q{i+1}", n, require_pd=True) for i in range(N)
    ]
    blocks = []
    for i, (Ai, ti) in enumerate(zip(sys.A, sys.tau)):
        terms = [BlockTerm("P", N * ti * Ai.T, Ai)]
        for j, tj in enumerate(sys.tau):
            terms.append(BlockTerm(f"Q{j+1}", N * ti * tj * Ai.T, Ai))
        terms.append(BlockTerm(f"Q{i+1}", -I, I))
        blocks.append(AffineBlock(dim=n, terms=tuple(terms)))
    return LmiProblem(tuple(variables), tuple(blocks))


def build_th2_coupled(sys: IdsSystem) -> LmiProblem:
    """Coupled condition N tau_i^2 A_i.T (sum_j Q_j) A_i - Q_i < 0 in PD Q_i (a checker)."""
    n, N = sys.n, sys.N
    I = np.eye(n)
    variables = [MatrixVariable(f"Q{i+1}", n, require_pd=True) for i in range(N)]
    blocks = []
    for i, (Ai, ti) in enumerate(zip(sys.A, sys.tau)):
        terms = [
            BlockTerm(f"Q{j+1}", N * ti * ti * Ai.T, Ai) for j in range(N)
        ]
        terms.append(BlockTerm(f"Q{i+1}", -I, I))
        blocks.append(AffineBlock(dim=n, terms=tuple(terms)))
    return LmiProblem(tuple(variables), tuple(blocks))


def build_single(sys: IdsSystem) -> LmiProblem:
    """Single-variable condition sum_i N tau_i^2 A_i.T Q A_i - Q < 0."""
    n, N = sys.n, sys.N
    I = np.eye(n)
    variables = [MatrixVariable("Q", n, require_pd=True)]
    terms = [BlockTerm("Q", N * ti * ti * Ai.T, Ai) for Ai, ti in zip(sys.A, sys.tau)]
    terms.append(BlockTerm("Q", -I, I))
    blocks = [AffineBlock(dim=n, terms=tuple(terms))]

    starts, op = _closed_forms(sys, [1.0 / N] * N, lambda X: {"Q": X})
    return LmiProblem(tuple(variables), tuple(blocks), starts, () if starts else _farkas(op, n))


def build_th1(sys: IdsSystem) -> LmiProblem:
    """Linearized two-family condition in PD Q_i, S_i and a general matrix R:

        sum_i Q_i + sum_i S_i - (R.T + R) < 0
        [[-S_i, tau_i A_i.T R], [tau_i R.T A_i, -Q_i]] < 0,  i = 1..N

    Each block is symmetrized, so the pairs R, R.T are single terms with
    factor 2: sym(-2R) = -(R + R.T), and sym(2X) = X + X.T for the
    off-diagonal X = U tau_i A_i.T R W.T.  The solver does not take it (R is
    not PD); ``margin`` decides th1 through th2-lmi and checks the mapped
    witness against these blocks.
    """
    n, N = sys.n, sys.N
    I = np.eye(n)
    U = np.vstack([I, np.zeros((n, n))])  # embeds the top block row
    W = np.vstack([np.zeros((n, n)), I])  # embeds the bottom block row
    variables = (
        [MatrixVariable(f"Q{i+1}", n, require_pd=True) for i in range(N)]
        + [MatrixVariable(f"S{i+1}", n, require_pd=True) for i in range(N)]
        + [MatrixVariable("R", n)]
    )
    terms0 = [BlockTerm(f"Q{i+1}", I, I) for i in range(N)]
    terms0 += [BlockTerm(f"S{i+1}", I, I) for i in range(N)]
    terms0.append(BlockTerm("R", -2.0 * I, I))
    blocks = [AffineBlock(dim=n, terms=tuple(terms0))]
    for i, (Ai, ti) in enumerate(zip(sys.A, sys.tau)):
        terms = [
            BlockTerm(f"S{i+1}", -U, U.T),
            BlockTerm(f"Q{i+1}", -W, W.T),
            BlockTerm("R", U @ (2.0 * ti * Ai.T), W.T),
        ]
        blocks.append(AffineBlock(dim=2 * n, terms=tuple(terms)))

    return LmiProblem(tuple(variables), tuple(blocks))


def _stacked_lmi(sys: IdsSystem) -> LmiProblem:
    """Single stacked block of size nN in PD Q_i:

        sum_i [tau_1 A_1; ...; tau_N A_N] Q_i [.]^T - blockdiag(Q_1..Q_N) < 0

    with the start of ``_closed_forms`` at ``optimize_weights``' alpha.  That
    start exists only where phi(alpha) < 1, so where ``weights_below`` proves
    that no weights pass, the problem gets no start and neither the full
    weight search nor the closed form runs.
    """
    n, N = sys.n, sys.N
    T = np.vstack([t * A for A, t in zip(sys.A, sys.tau)])
    variables = [MatrixVariable(f"Q{i+1}", n, require_pd=True) for i in range(N)]
    terms = []
    for i in range(N):
        E = np.zeros((n * N, n))
        E[i * n : (i + 1) * n, :] = np.eye(n)
        terms.append(BlockTerm(f"Q{i+1}", T, T.T))
        terms.append(BlockTerm(f"Q{i+1}", -E, E.T))

    block = AffineBlock(dim=n * N, terms=tuple(terms))
    if weights_below(sys, 1.0)[0] is None:
        return LmiProblem(tuple(variables), (block,))
    alpha, _rho = optimize_weights(sys)

    def witness(X):
        Xinv = sym(np.linalg.inv(X))
        return {f"Q{i+1}": a * Xinv for i, a in enumerate(alpha)}

    return LmiProblem(tuple(variables), (block,), _closed_forms(sys, alpha, witness)[0])


def build_th2_lmi(sys: IdsSystem) -> LmiProblem:
    """The stacked block of Theorem 2 (see _stacked_lmi)."""
    return _stacked_lmi(sys)


def build_laa(sys: DiscreteIds) -> LmiProblem:
    """Delay-independent variant of the stacked block (all delay factors 1)."""
    if not isinstance(sys, DiscreteIds):
        raise TypeError("build_laa expects a DiscreteIds system")
    return _stacked_lmi(IdsSystem(A=sys.A, tau=tuple(1.0 for _ in sys.A)))


def laa_convert_X_to_Q(X) -> list[np.ndarray]:
    """Convert a decreasing PD chain X_1 > ... > X_N > 0 into the stacked-LMI
    variables: Q_N = X_N and Q_i = X_i - X_i+1.  Telescoping gives
    sum_i Q_i = X_1."""
    X = _require_pd_list(X, "X")
    N = len(X)
    Q = []
    for i in range(N - 1):
        D = X[i] - X[i + 1]
        if eig_min(D) <= 0:
            raise ConversionError(
                f"ordering violated: X[{i}] - X[{i+1}] is not positive definite"
            )
        Q.append(D)
    Q.append(X[N - 1])
    return Q


# -- nonlinear matrix inequality checks and conversions -----------------------


def verify_nmi_th1(sys: IdsSystem, S, Q) -> bool:
    """Direct check of the two-family nonlinear inequalities

        tau_i^2 A_i.T Q_i^-1 A_i - S_i < 0   and   sum_i S_i < (sum_i Q_i)^-1.
    """
    S = _require_pd_list(S, "S")
    Q = _require_pd_list(Q, "Q")
    if len(S) != sys.N or len(Q) != sys.N:
        raise ValueError(f"expected {sys.N} matrices in each family")
    for Ai, ti, Qi, Si in zip(sys.A, sys.tau, Q, S):
        Qinv = _inv_guarded(Qi, "Q_i")
        if eig_max(ti * ti * Ai.T @ Qinv @ Ai - Si) >= 0:
            return False
    return eig_max(sum(S) - _inv_guarded(sum(Q), "sum(Q)")) < 0


def _th2_parts(sys: IdsSystem, Q) -> tuple[list, list, np.ndarray]:
    """(Q_i, tau_i^2 A_i.T Q_i^-1 A_i, (sum_i Q_i)^-1) of N PD matrices Q_i,
    each inverse guarded."""
    Q = _require_pd_list(Q, "Q")
    if len(Q) != sys.N:
        raise ValueError(f"expected {sys.N} matrices")
    terms = [ti * ti * Ai.T @ _inv_guarded(Qi, "Q_i") @ Ai for Ai, ti, Qi in zip(sys.A, sys.tau, Q)]
    return Q, terms, _inv_guarded(sum(Q), "sum(Q)")


def verify_nmi_th2(sys: IdsSystem, Q) -> bool:
    """Direct check of sum_i tau_i^2 A_i.T Q_i^-1 A_i - (sum_i Q_i)^-1 < 0."""
    _, terms, Pinv = _th2_parts(sys, Q)
    return eig_max(sum(terms) - Pinv) < 0


def recover_nmi_th1(lmi_witness: dict) -> dict:
    """Undo the congruence substitution of the linearized condition.

    Given the LMI witness {Q: [Qhat_i], S: [S_i], R}, returns the nonlinear
    witness with Q_i = R^-T Qhat_i R^-1 (S passes through unchanged).
    """
    Rinv = _inv_guarded(np.asarray(lmi_witness["R"], dtype=float), "R")
    Q = [sym(Rinv.T @ np.asarray(Qh, dtype=float) @ Rinv) for Qh in lmi_witness["Q"]]
    return {"Q": Q, "S": [np.asarray(Si, dtype=float) for Si in lmi_witness["S"]]}


def witness_th1_from_th2coupled(sys: IdsSystem, Q) -> dict:
    """Construct a two-family nonlinear witness from a coupled-condition one.

    Given Q_1..Q_N strictly satisfying the coupled inequalities with slack,
    returns {P: [P_i], R: [R_i]} with P_i = (N sum_j Q_j)^-1 and
    R_i = Q_i - eps I, eps = min(slack, min_i lambda_min(Q_i)) / 2.  The pair
    passes verify_nmi_th1 with (S, Q) = (R list, P list).
    """
    Q = _require_pd_list(Q, "Q")
    N = sys.N
    Qsum = sum(Q)
    slack = -max(
        eig_max(N * ti * ti * Ai.T @ Qsum @ Ai - Qi)
        for Ai, ti, Qi in zip(sys.A, sys.tau, Q)
    )
    lam = min(eig_min(Qi) for Qi in Q)
    eps = 0.5 * min(slack, lam)
    if eps <= 1e-14 * max(1.0, eig_max(Qsum)):
        raise ConversionError(
            f"slack too small for the construction: slack={slack:.3e}, "
            f"min eigenvalue={lam:.3e}"
        )
    P = _inv_guarded(N * Qsum, "N * sum(Q)")
    return {
        "P": [P.copy() for _ in range(N)],
        "R": [Qi - eps * np.eye(sys.n) for Qi in Q],
    }


def _th1_split(sys: IdsSystem, Q) -> tuple[list, list, np.ndarray]:
    """(Q, S, (sum_i Q_i)^-1) with the S_i of ``witness_th1_from_th2``."""
    Q, terms, Pinv = _th2_parts(sys, Q)
    if not eig_max(sum(terms) - Pinv) < 0:
        raise ConversionError("Q does not satisfy the inverse-weighted inequality")
    Omega = (Pinv - sum(terms)) / (2.0 * sys.N)
    return Q, [sym(T + Omega) for T in terms], Pinv


def witness_th1_from_th2(sys: IdsSystem, Q) -> list[np.ndarray]:
    """Split the summed inverse-weighted inequality into the two-family form.

    With Omega = (1/2N) ((sum Q_i)^-1 - sum tau_i^2 A_i.T Q_i^-1 A_i) > 0,
    returns S_i = tau_i^2 A_i.T Q_i^-1 A_i + Omega, which together with the
    given Q passes verify_nmi_th1.
    """
    return _th1_split(sys, Q)[1]


def witness_th1_lmi_from_th2(sys: IdsSystem, Q) -> dict:
    """th1's LMI witness from a strict th2 one: with P = sum Q_i, R = P^-1,
    Qhat_i = P^-1 Q_i P^-1 and the S_i of ``witness_th1_from_th2``.  Block
    i's Schur complement is then -Omega, and block 0 is (sum_i tau_i^2
    A_i.T Q_i^-1 A_i - P^-1) / 2."""
    Q, S, Pinv = _th1_split(sys, Q)
    R = sym(Pinv)
    w = {f"Q{i+1}": sym(R @ Qi @ R) for i, Qi in enumerate(Q)}
    return {**w, **{f"S{i+1}": Si for i, Si in enumerate(S)}, "R": R}


def witness_th2_coupled_from_single(sys: IdsSystem, Q) -> dict:
    """th2-coupled's witness Q_i = N tau_i^2 A_i.T Q A_i + S/N from a strict
    single one Q, S = Q - Phi(Q) > 0: they sum to Q, so block i is -S/N."""
    T = [sys.N * t * t * A.T @ Q @ A for A, t in zip(sys.A, sys.tau)]
    S = Q - sum(T)
    return {f"Q{i+1}": Ti + S / sys.N for i, Ti in enumerate(T)}


def witness_amc_from_single(sys: IdsSystem, Q) -> dict:
    """amc's witness P = S and Q_i = N tau_i A_i.T Q' A_i + S, with Q' = (1 +
    sum_j tau_j) Q, from a strict single one Q: P + sum_j tau_j Q_j = Q', so
    block i is -S."""
    S = Q - sum(sys.N * t * t * A.T @ Q @ A for A, t in zip(sys.A, sys.tau))
    Qp = (1.0 + sum(sys.tau)) * Q
    return {"P": S, **{f"Q{i+1}": sys.N * t * A.T @ Qp @ A + S for i, (A, t) in enumerate(zip(sys.A, sys.tau))}}


def th2_functional_params(sys: IdsSystem, Q) -> FunctionalWitness:
    """Parameters of the two-part history functional certified by a Q witness.

    Returns the th2 :class:`~ids_stability.simulator.FunctionalWitness`
    {R: (R_i), Q: (Q_i), delta, eps} with R_i = (sum Q_j)^-1 / N and
    positive constants delta, eps chosen so the combined functional
    eps*V1 + V2 is nonincreasing along solutions:

        sum_i (tau_i^2 A_i.T Q_i^-1 A_i + tau_i delta I) <= (1 - eps) (sum Q_j)^-1.

    The value holds read-only copies, so later changes to the caller's Q_i
    do not reach it, and it caches its folded matrices for
    ``simulator.eval_functional``.
    """
    Q, terms, Rm = _th2_parts(sys, Q)
    G = Rm - sum(terms)
    g = eig_min(G)
    if g <= 0:
        raise ConversionError("witness has no slack in the inverse-weighted inequality")
    tsum = sum(sys.tau)
    delta = 0.5 * g / tsum
    eps = min(eig_min(G - delta * tsum * np.eye(sys.n)) / eig_max(Rm), 0.9)
    if eps <= 0:
        raise ConversionError("witness slack too small to derive functional constants")
    return FunctionalWitness(
        "th2", {"R": [Rm / sys.N] * sys.N, "Q": Q, "delta": float(delta), "eps": float(eps)}
    )


LMI_CRITERIA = {
    "amc": build_amc,
    "th2-coupled": build_th2_coupled,
    "single": build_single,
    "th1": build_th1,
    "th2-lmi": build_th2_lmi,
    "laa": build_laa,
}
