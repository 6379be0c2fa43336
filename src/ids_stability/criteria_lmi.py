"""LMI stability conditions, nonlinear-matrix-inequality checks, and the
constructive witness conversions between them.

Builders return :class:`~ids_stability.lmi_core.LmiProblem` instances.  Where
the condition is equivalent to a positive-operator spectral test, the builder
also attaches closed-form solver starts derived from the dominant eigenmatrix
of the operator.  A start that already certifies skips the barrier run and
the best one starts it.  The run alone reaches the same verdicts: cold amc
is feasible at tau = (0.3, 0.0474), 5e-6 inside the exact margin.

:data:`LMI_CRITERIA` only maps the LMI criterion ids to their builders;
``margin.CRITERIA`` looks them up there at call time and does the dispatch.
"""

from __future__ import annotations

import numpy as np

from .criteria_spectral import kron_operator, optimize_weights
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
    "th1_start_from_th2",
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
    r = np.max(np.abs(w))
    idx = [i for i in range(w.size) if abs(w[i]) >= r * (1 - 1e-9) and abs(w[i].imag) <= 1e-9 * (1 + r)]
    if not idx:
        return None
    i = max(idx, key=lambda j: w[j].real)
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


def _blend_candidates(base: dict, pd_names: list[str], thetas=(0.0, 1e-6, 1e-3, 1e-1)) -> list[dict]:
    """Identity blends of the PD variables; cures singular Perron factors."""
    out = []
    for th in thetas:
        cand = dict(base)
        for name in pd_names:
            M = np.asarray(base[name], dtype=float)
            scale = max(np.trace(M) / M.shape[0], 1e-30)
            cand[name] = M + th * scale * np.eye(M.shape[0])
        out.append(cand)
    return out


def _coupled_operator(sys: IdsSystem) -> np.ndarray:
    """Row-major vec matrix of T -> N * sum_i tau_i^2 A_i.T T A_i."""
    return sys.N * kron_operator(sys.A, [t * t for t in sys.tau]).T


def _coupled_perron_starts(sys: IdsSystem) -> tuple[np.ndarray | None, list[np.ndarray] | None]:
    """Fixed-point pair (T*, [Qhat_i]) of the coupled positive operator."""
    T = _perron_matrix(_coupled_operator(sys), sys.n)
    if T is None:
        return None, None
    Qhat = [sys.N * t * t * (A.T @ T @ A) for A, t in zip(sys.A, sys.tau)]
    return T, Qhat


def _eq44_candidates(sys: IdsSystem) -> list[list[np.ndarray]]:
    """Closed-form candidate lists Q_1..Q_N for the inverse-weighted condition

        sum_i tau_i^2 A_i.T Q_i^-1 A_i < (sum_i Q_i)^-1.

    Drawn from the optimally weighted spectral construction (Q_i proportional
    to a common inverse Perron matrix) and from the coupled-operator fixed
    point.  Only candidates that verify are returned.
    """
    n, N = sys.n, sys.N
    cands: list[list[np.ndarray]] = []

    alpha, rho_w = optimize_weights(sys)
    if rho_w < 1.0:
        op = kron_operator(sys.A, [t * t / a for t, a in zip(sys.tau, alpha)]).T
        Qw = _perron_matrix(op, n)
        if Qw is not None:
            for th in (1e-9, 1e-6, 1e-3):
                M = Qw + th * np.eye(n) * (np.trace(Qw) / n)
                try:
                    Minv = np.linalg.inv(M)
                except np.linalg.LinAlgError:
                    continue
                cands.append([a * Minv for a in alpha])

    T, Qhat = _coupled_perron_starts(sys)
    if Qhat is not None:
        Qsum = sum(Qhat)
        if is_pd(Qsum):
            try:
                P = np.linalg.inv(N * Qsum)
                cands.append([P.copy() for _ in range(N)])
            except np.linalg.LinAlgError:
                pass

    good = []
    for Q in cands:
        if all(is_pd(Qi, tol=1e-300) for Qi in Q):
            try:
                M = sum(t * t * A.T @ np.linalg.inv(Qi) @ A for A, t, Qi in zip(sys.A, sys.tau, Q))
                if eig_max(M - np.linalg.inv(sum(Q))) < 0:
                    good.append(Q)
            except np.linalg.LinAlgError:
                continue
    return good


# -- builders -----------------------------------------------------------------


def build_amc(sys: IdsSystem) -> LmiProblem:
    """Coupled condition with an extra free matrix P:

        N tau_i A_i.T (P + sum_j tau_j Q_j) A_i - Q_i < 0,  i = 1..N

    in positive definite variables P, Q_1..Q_N.
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

    starts: list[dict] = []
    _, Qhat = _coupled_perron_starts(sys)
    if Qhat is not None:
        base = {f"Q{i+1}": Qhat[i] / sys.tau[i] for i in range(N)}
        slack0 = -max(
            eig_max(
                N * ti * sys.A[i].T @ sum(tj * base[f"Q{j+1}"] for j, tj in enumerate(sys.tau)) @ sys.A[i]
                - base[f"Q{i+1}"]
            )
            for i, ti in enumerate(sys.tau)
        )
        gain = 1.0 + max(
            N * ti * np.linalg.norm(Ai, 2) ** 2 for Ai, ti in zip(sys.A, sys.tau)
        )
        eps = max(slack0, 0.0) / (2.0 * gain) + 1e-12
        base["P"] = eps * I
        starts.extend(_blend_candidates(base, [f"Q{i+1}" for i in range(N)]))
    return LmiProblem(tuple(variables), tuple(blocks), tuple(starts))


def build_th2_coupled(sys: IdsSystem) -> LmiProblem:
    """Coupled condition N tau_i^2 A_i.T (sum_j Q_j) A_i - Q_i < 0 in PD Q_i."""
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

    starts: list[dict] = []
    _, Qhat = _coupled_perron_starts(sys)
    if Qhat is not None:
        base = {f"Q{i+1}": Qhat[i] for i in range(N)}
        starts.extend(_blend_candidates(base, list(base)))
    return LmiProblem(tuple(variables), tuple(blocks), tuple(starts))


def build_single(sys: IdsSystem) -> LmiProblem:
    """Single-variable condition sum_i N tau_i^2 A_i.T Q A_i - Q < 0."""
    n, N = sys.n, sys.N
    I = np.eye(n)
    variables = [MatrixVariable("Q", n, require_pd=True)]
    terms = [BlockTerm("Q", N * ti * ti * Ai.T, Ai) for Ai, ti in zip(sys.A, sys.tau)]
    terms.append(BlockTerm("Q", -I, I))
    blocks = [AffineBlock(dim=n, terms=tuple(terms))]

    starts: list[dict] = []
    T = _perron_matrix(_coupled_operator(sys), sys.n)
    if T is not None:
        starts.extend(_blend_candidates({"Q": T}, ["Q"]))
    return LmiProblem(tuple(variables), tuple(blocks), tuple(starts))


def build_th1(sys: IdsSystem) -> LmiProblem:
    """Linearized two-family condition in PD Q_i, S_i and a general matrix R:

        sum_i Q_i + sum_i S_i - (R.T + R) < 0
        [[-S_i, tau_i A_i.T R], [tau_i R.T A_i, -Q_i]] < 0,  i = 1..N
    """
    n, N = sys.n, sys.N
    I = np.eye(n)
    U = np.vstack([I, np.zeros((n, n))])  # embeds the top block row
    W = np.vstack([np.zeros((n, n)), I])  # embeds the bottom block row
    variables = (
        [MatrixVariable(f"Q{i+1}", n, require_pd=True) for i in range(N)]
        + [MatrixVariable(f"S{i+1}", n, require_pd=True) for i in range(N)]
        + [MatrixVariable("R", n, kind="general")]
    )
    terms0 = [BlockTerm(f"Q{i+1}", I, I) for i in range(N)]
    terms0 += [BlockTerm(f"S{i+1}", I, I) for i in range(N)]
    terms0 += [BlockTerm("R", -I, I, transpose=False), BlockTerm("R", -I, I, transpose=True)]
    blocks = [AffineBlock(dim=n, terms=tuple(terms0))]
    for i, (Ai, ti) in enumerate(zip(sys.A, sys.tau)):
        terms = [
            BlockTerm(f"S{i+1}", -U, U.T),
            BlockTerm(f"Q{i+1}", -W, W.T),
            # the two halves of the symmetric off-diagonal pair
            BlockTerm("R", U @ (ti * Ai.T), W.T, transpose=False),
            BlockTerm("R", ti * W, Ai @ U.T, transpose=True),
        ]
        blocks.append(AffineBlock(dim=2 * n, terms=tuple(terms)))

    starts: list[dict] = []
    for Q in _eq44_candidates(sys):
        try:
            base = th1_start_from_th2(sys, Q)
        except ValueError:  # the conversion's and the inverse guard's errors
            continue
        starts.extend(_blend_candidates(base, [k for k in base if k != "R"], thetas=(0.0, 1e-6)))
    return LmiProblem(tuple(variables), tuple(blocks), tuple(starts))


def _stacked_lmi(sys: IdsSystem) -> LmiProblem:
    """Single stacked block of size nN in PD Q_i:

        sum_i [tau_1 A_1; ...; tau_N A_N] Q_i [.]^T - blockdiag(Q_1..Q_N) < 0

    with the inverse-weighted candidates as starts.
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
    starts: list[dict] = []
    for Q in _eq44_candidates(sys):
        base = {f"Q{i+1}": Q[i] for i in range(N)}
        starts.extend(_blend_candidates(base, list(base), thetas=(0.0, 1e-6)))
    block = AffineBlock(dim=n * N, terms=tuple(terms))
    return LmiProblem(tuple(variables), (block,), tuple(starts))


def build_th2_lmi(sys: IdsSystem) -> LmiProblem:
    """The stacked block of Theorem 2 (see _stacked_lmi)."""
    return _stacked_lmi(sys)


def build_laa(sys: DiscreteIds) -> LmiProblem:
    """Delay-independent variant of the stacked block (all delay factors 1)."""
    if not isinstance(sys, DiscreteIds):
        raise TypeError("build_laa expects a DiscreteIds system")
    return _stacked_lmi(IdsSystem(A=sys.A, tau=tuple(1.0 for _ in sys.A), tau_max=1.0))


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


def verify_nmi_th2(sys: IdsSystem, Q) -> bool:
    """Direct check of sum_i tau_i^2 A_i.T Q_i^-1 A_i - (sum_i Q_i)^-1 < 0."""
    Q = _require_pd_list(Q, "Q")
    if len(Q) != sys.N:
        raise ValueError(f"expected {sys.N} matrices")
    M = sum(
        ti * ti * Ai.T @ _inv_guarded(Qi, "Q_i") @ Ai
        for Ai, ti, Qi in zip(sys.A, sys.tau, Q)
    )
    return eig_max(M - _inv_guarded(sum(Q), "sum(Q)")) < 0


def recover_nmi_th1(lmi_witness: dict) -> dict:
    """Undo the congruence substitution of the linearized condition.

    Given the LMI witness {Q: [Qhat_i], S: [S_i], R}, returns the nonlinear
    witness with Q_i = R^-T Qhat_i R^-1 (S passes through unchanged).
    """
    R = np.asarray(lmi_witness["R"], dtype=float)
    c = np.linalg.cond(R)
    if not np.isfinite(c) or c > _COND_LIMIT:
        raise IllConditionedError(f"R has condition number {c:.3e} > 1e12")
    Rinv = np.linalg.inv(R)
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


def witness_th1_from_th2(sys: IdsSystem, Q) -> list[np.ndarray]:
    """Split the summed inverse-weighted inequality into the two-family form.

    With Omega = (1/2N) ((sum Q_i)^-1 - sum tau_i^2 A_i.T Q_i^-1 A_i) > 0,
    returns S_i = tau_i^2 A_i.T Q_i^-1 A_i + Omega, which together with the
    given Q passes verify_nmi_th1.
    """
    Q = _require_pd_list(Q, "Q")
    if not verify_nmi_th2(sys, Q):
        raise ConversionError("Q does not satisfy the inverse-weighted inequality")
    N = sys.N
    terms = [
        ti * ti * Ai.T @ _inv_guarded(Qi, "Q_i") @ Ai
        for Ai, ti, Qi in zip(sys.A, sys.tau, Q)
    ]
    Omega = (_inv_guarded(sum(Q), "sum(Q)") - sum(terms)) / (2.0 * N)
    return [sym(T + Omega) for T in terms]


def th1_start_from_th2(sys: IdsSystem, Q) -> dict:
    """Linearized two-family assignment {S_i, Q_i: R Q_i R, R = sum_i S_i}
    from an inverse-weighted witness Q, with S from witness_th1_from_th2."""
    S = witness_th1_from_th2(sys, Q)
    R = sum(S)
    start = {f"S{i+1}": S[i] for i in range(sys.N)}
    start.update({f"Q{i+1}": R @ Q[i] @ R for i in range(sys.N)})
    start["R"] = R
    return start


def th2_functional_params(sys: IdsSystem, Q) -> dict:
    """Parameters of the two-part history functional certified by a Q witness.

    Returns {R: [R_i], Q: [Q_i], delta, eps} with R_i = (sum Q_j)^-1 / N and
    positive constants delta, eps chosen so the combined functional
    eps*V1 + V2 is nonincreasing along solutions:

        sum_i (tau_i^2 A_i.T Q_i^-1 A_i + tau_i delta I) <= (1 - eps) (sum Q_j)^-1.
    """
    Q = _require_pd_list(Q, "Q")
    Rm = _inv_guarded(sum(Q), "sum(Q)")
    M = sum(
        ti * ti * Ai.T @ _inv_guarded(Qi, "Q_i") @ Ai
        for Ai, ti, Qi in zip(sys.A, sys.tau, Q)
    )
    G = Rm - M
    g = eig_min(G)
    if g <= 0:
        raise ConversionError("witness has no slack in the inverse-weighted inequality")
    tsum = sum(sys.tau)
    delta = 0.5 * g / tsum
    eps = min(eig_min(G - delta * tsum * np.eye(sys.n)) / eig_max(Rm), 0.9)
    if eps <= 0:
        raise ConversionError("witness slack too small to derive functional constants")
    return {
        "R": [Rm / sys.N for _ in range(sys.N)],
        "Q": list(Q),
        "delta": float(delta),
        "eps": float(eps),
    }


LMI_CRITERIA = {
    "amc": build_amc,
    "th2-coupled": build_th2_coupled,
    "single": build_single,
    "th1": build_th1,
    "th2-lmi": build_th2_lmi,
    "laa": build_laa,
}
