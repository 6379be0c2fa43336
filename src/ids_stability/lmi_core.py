"""Homogeneous strict-LMI containers and a self-contained feasibility solver.

A problem is a set of symmetric-matrix-valued blocks, each affine and
homogeneous in named matrix variables, required strictly negative definite.
Every variable flagged ``require_pd`` implicitly contributes an extra block
``-V`` so positivity is part of the same objective.  Each block compiles to
a matrix M_k with vec(B_k) = M_k x (a term L V R contributes L kron R^T
times the variable's basis matrix).  Feasibility is decided by minimizing

    f(x) = max over blocks of lambda_max(B_k(x))

over the affine slice trace(sum of PD variables) = 1 (homogeneity makes the
normalization lossless), that is by max t s.t. B_k(x) + t I < 0 for every
block.  One path-following barrier run solves it (Vandenberghe & Boyd,
SIAM Review 1996): damped Newton steps on -s t - sum log det(-B_k - t I)
over a null-space basis of the slice (within a ball around the start when
a variable is not required PD), with s growing tenfold per centring.  At a
centre, theta / s (theta the barrier parameter) bounds the distance of t
to its optimum, so the run stops once f <= -10 * eps_feas (a depth that
settles the verdict), once no witness can reach -eps_feas, or once the gap
has closed.  A negative certificate is "feasible", anything else is
"not_found".  Because every block is linear, each
eigenvector row h = (u kron u)^T M_k satisfies h.x <= f(x) everywhere, and
Kelley's cutting-plane LP over the rows of the last centres bounds f from
below on the slice: when a run ends without a value below 10 * eps_feas
and the bound is at least that, no witness exists and the report carries
it as ``lower_bound``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

__all__ = [
    "MatrixVariable",
    "BlockTerm",
    "AffineBlock",
    "LmiProblem",
    "SolverConfig",
    "FeasReport",
    "ProblemError",
    "evaluate",
    "check_witness",
    "solve_feasibility",
    "linearize_inverse_bound",
    "sym",
    "is_pd",
]

# the barrier weight s grows by _GROWTH after each centring; a centring ends
# once the squared Newton decrement is below _CENTRED; the proof LP uses the
# eigenvector rows of the last _PROOF_CENTRES centres; a problem with a
# variable that is not required PD keeps the run within distance _RADIUS of
# its start on the slice
_GROWTH = 10.0
_CENTRED = 1e-6
_PROOF_CENTRES = 3
_RADIUS = 1e3


class ProblemError(ValueError):
    """Malformed problem or witness (missing variable, bad dimension, ...)."""


def sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def eig_max(M: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric matrix."""
    return float(np.linalg.eigvalsh(sym(M))[-1])


def eig_min(M: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(sym(M))[0])


def is_pd(M: np.ndarray, tol: float = 0.0) -> bool:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        return False
    if not np.allclose(M, M.T, atol=1e-10 * (1.0 + abs(M).max())):
        return False
    return eig_min(M) > tol


@dataclass(frozen=True)
class MatrixVariable:
    """A named decision matrix.

    ``symmetric`` variables carry dim*(dim+1)/2 scalar unknowns, ``general``
    ones dim**2.  ``require_pd`` appends the implicit block ``-V < 0``.
    """

    name: str
    dim: int
    kind: str = "symmetric"  # "symmetric" | "general"
    require_pd: bool = False

    def __post_init__(self):
        if self.kind not in ("symmetric", "general"):
            raise ProblemError(f"unknown variable kind {self.kind!r}")
        if self.kind == "general" and self.require_pd:
            raise ProblemError("require_pd only applies to symmetric variables")
        if self.dim < 1:
            raise ProblemError("variable dimension must be positive")

    @property
    def n_params(self) -> int:
        d = self.dim
        return d * (d + 1) // 2 if self.kind == "symmetric" else d * d


@dataclass(frozen=True)
class BlockTerm:
    """One contribution ``left @ V @ right`` (or ``left @ V.T @ right``)."""

    var: str
    left: np.ndarray
    right: np.ndarray
    transpose: bool = False


@dataclass(frozen=True)
class AffineBlock:
    """Symmetric-matrix-valued affine form; evaluation symmetrizes the sum."""

    dim: int
    terms: tuple[BlockTerm, ...]


@dataclass(frozen=True)
class LmiProblem:
    """Blocks required strictly negative definite, in the given variables.

    ``starts`` are optional deterministic start assignments (builders
    attach closed-form candidates when the problem structure provides them);
    the best of them starts the barrier run, and they never change the
    verdict semantics.
    """

    variables: tuple[MatrixVariable, ...]
    blocks: tuple[AffineBlock, ...]
    starts: tuple[dict, ...] = ()

    def variable(self, name: str) -> MatrixVariable:
        for v in self.variables:
            if v.name == name:
                return v
        raise ProblemError(f"unknown variable {name!r}")


@dataclass(frozen=True)
class SolverConfig:
    # one barrier run: it stops at the settling depth -10 * eps_feas or
    # after max_iters Newton steps
    max_iters: int = 5000
    eps_feas: float = 1e-7

    def __post_init__(self):
        if not (isinstance(self.max_iters, int) and self.max_iters >= 1):
            raise ValueError(f"max_iters must be an integer >= 1 (got {self.max_iters!r})")
        if not (np.isfinite(self.eps_feas) and self.eps_feas > 0):
            raise ValueError(f"eps_feas must be finite and positive (got {self.eps_feas!r})")


@dataclass(frozen=True)
class FeasReport:
    status: str  # "feasible" | "not_found"
    lambda_star: float
    witness: dict
    iterations: int  # start evaluations plus Newton steps
    restarts: int  # 0 when a start certified, else 1 (the run)
    # a proven lower bound on f over the normalization slice (not_found only)
    lower_bound: float | None = None

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


# -- parametrization ---------------------------------------------------------


def _basis(v: MatrixVariable) -> np.ndarray:
    """The d^2 x n_params matrix taking a variable's parameters to vec(V),
    row-major: for symmetric variables the Frobenius-orthonormal basis (the
    diagonal units, then (E_ij + E_ji) / sqrt(2) for i < j in row order)."""
    d = v.dim
    if v.kind == "general":
        return np.eye(d * d)
    B = np.zeros((d, d, v.n_params))
    k = np.arange(d)
    B[k, k, k] = 1.0
    i, j = np.triu_indices(d, 1)
    c = np.arange(d, v.n_params)
    B[i, j, c] = B[j, i, c] = 1.0 / np.sqrt(2.0)
    return B.reshape(d * d, -1)


class _Compiled:
    """Flattened affine maps vec(B_k) = M_k x for fast repeated evaluation;
    each M_k x is exactly symmetric."""

    def __init__(self, problem: LmiProblem):
        self.problem = problem
        # name -> (variable, offset of its parameters in x, its basis matrix)
        self.vars: dict[str, tuple[MatrixVariable, int, np.ndarray]] = {}
        off = 0
        for v in problem.variables:
            self.vars[v.name] = (v, off, _basis(v))
            off += v.n_params
        self.nx = off

        # declared blocks, then the implicit positivity blocks -V < 0
        blocks = list(problem.blocks) + [
            AffineBlock(dim=v.dim, terms=(BlockTerm(v.name, -np.eye(v.dim), np.eye(v.dim)),))
            for v in problem.variables
            if v.require_pd
        ]
        # blocks of one dimension share one stacked map, so an evaluation
        # costs one matvec and one batched eigensolve per distinct dimension
        by_dim: dict[int, list[int]] = {}
        for k, blk in enumerate(blocks):
            by_dim.setdefault(blk.dim, []).append(k)
        # groups: (block size m, number of blocks K, stacked K m^2 x nx map)
        self.groups: list[tuple[int, int, np.ndarray]] = [
            (m, len(ks), np.vstack([self._compile_block(blocks[k]) for k in ks]))
            for m, ks in by_dim.items()
        ]

        # trace functional over PD variables (the normalization slice a.x = 1)
        a = np.zeros(self.nx)
        for v, off, _ in self.vars.values():
            if v.require_pd:
                a[off : off + v.dim] = 1.0
        self.trace_vec = a

    def _compile_block(self, blk: AffineBlock) -> np.ndarray:
        """vec(sym(sum of L V R)) = M x, from vec(L V R) = (L kron R^T) vec(V)."""
        m = blk.dim
        M = np.zeros((m * m, self.nx))
        for term in blk.terms:
            v, off, B = self.vars[self.problem.variable(term.var).name]
            L = np.asarray(term.left, dtype=float)
            R = np.asarray(term.right, dtype=float)
            if L.shape != (m, v.dim) or R.shape != (v.dim, m):
                raise ProblemError(
                    f"term for {term.var!r} has factors {L.shape} and {R.shape}; "
                    f"block is {m}x{m}, variable {v.dim}x{v.dim}"
                )
            if term.transpose:  # vec(V^T) permutes the rows of vec(V)
                B = B.reshape(v.dim, v.dim, -1).transpose(1, 0, 2).reshape(B.shape)
            M[:, off : off + v.n_params] += np.kron(L, R.T) @ B
        M = M.reshape(m, m, -1)
        return (0.5 * (M + M.transpose(1, 0, 2))).reshape(m * m, -1)

    def to_vector(self, witness: dict) -> np.ndarray:
        x = np.zeros(self.nx)
        for v, off, B in self.vars.values():
            if v.name not in witness:
                raise ProblemError(f"witness missing variable {v.name!r}")
            W = np.asarray(witness[v.name], dtype=float)
            if W.shape != (v.dim, v.dim):
                raise ProblemError(
                    f"witness for {v.name!r} has shape {W.shape}, expected "
                    f"({v.dim}, {v.dim})"
                )
            x[off : off + v.n_params] = B.T @ W.reshape(-1)
        return x

    def to_witness(self, x: np.ndarray) -> dict:
        return {
            v.name: (B @ x[off : off + v.n_params]).reshape(v.dim, v.dim)
            for v, off, B in self.vars.values()
        }

    def eig_rows(self, x: np.ndarray) -> np.ndarray:
        """The rows (u (x) u)^T M_k for every eigenvector u of every block at
        x; each satisfies h.y <= f(y) for all y."""
        rows = []
        for m, K, M in self.groups:
            _, V = np.linalg.eigh((M @ x).reshape(K, m, m))
            R = np.einsum("jpc,jqc,jpqn->jcn", V, V, M.reshape(K, m, m, -1))
            rows.append(R.reshape(-1, self.nx))
        return np.vstack(rows)

    def f_only(self, x: np.ndarray) -> float:
        return max(
            float(np.linalg.eigvalsh((M @ x).reshape(K, m, m))[:, -1].max())
            for m, K, M in self.groups
        )


# -- public operations -------------------------------------------------------


def evaluate(problem: LmiProblem, witness: dict) -> tuple[list[np.ndarray], float]:
    """Evaluate every block at a witness.

    Returns the list of declared block values (symmetrized) and the worst
    largest-eigenvalue over the declared blocks *and* the implicit ``-V``
    positivity blocks, which is the solver objective.
    """
    values = []
    worst = -np.inf
    for blk in problem.blocks:
        B = np.zeros((blk.dim, blk.dim))
        for term in blk.terms:
            var = problem.variable(term.var)
            if term.var not in witness:
                raise ProblemError(f"witness missing variable {term.var!r}")
            V = np.asarray(witness[term.var], dtype=float)
            if V.shape != (var.dim, var.dim):
                raise ProblemError(
                    f"witness for {term.var!r} has shape {V.shape}, expected "
                    f"({var.dim}, {var.dim})"
                )
            V = V.T if term.transpose else V
            B += np.asarray(term.left) @ V @ np.asarray(term.right)
        B = sym(B)
        values.append(B)
        worst = max(worst, eig_max(B))
    for v in problem.variables:
        if v.require_pd:
            worst = max(worst, eig_max(-np.asarray(witness[v.name], dtype=float)))
    return values, worst


def _pd_trace(problem: LmiProblem, witness: dict) -> float:
    return float(
        sum(np.trace(np.asarray(witness[v.name])) for v in problem.variables if v.require_pd)
    )


def normalize_witness(problem: LmiProblem, witness: dict) -> dict | None:
    """Scale a witness so the PD-variable traces sum to one; None if impossible."""
    t = _pd_trace(problem, witness)
    if not np.isfinite(t) or t <= 0.0:
        return None
    return {k: np.asarray(v, dtype=float) / t for k, v in witness.items()}


def check_witness(problem: LmiProblem, witness: dict, tol: float) -> bool:
    """True iff, after trace normalization, every block has lambda_max <= -tol
    and every PD variable has lambda_min >= tol."""
    w = normalize_witness(problem, witness)
    if w is None:
        return False
    values, _ = evaluate(problem, w)
    if any(eig_max(B) > -tol for B in values):
        return False
    for v in problem.variables:
        if v.require_pd and eig_min(w[v.name]) < tol:
            return False
    return True


def _cut_lp(comp: _Compiled, rows: np.ndarray) -> float | None:
    """t* of Kelley's cutting-plane LP: min t s.t. h.x <= t for every row h
    and a.x = 1, with x free.

    Every row is a global minorant of f through the origin, so t* bounds f
    below on the slice.  Returns None when the LP has no solution,
    including when the rows leave it unbounded.
    """
    c = np.zeros(comp.nx + 1)
    c[-1] = 1.0
    res = linprog(
        c, A_ub=np.hstack((rows, -np.ones((len(rows), 1)))), b_ub=np.zeros(len(rows)),
        A_eq=np.append(comp.trace_vec, 0.0)[None, :], b_eq=[1.0], bounds=(None, None),
        method="highs",
    )
    return float(res.x[-1]) if res.status == 0 else None


def _prove_no_witness(comp: _Compiled, rows: np.ndarray, cfg: SolverConfig) -> float | None:
    """t* of the cut LP when it is at least 10 * eps_feas (no witness
    exists), else None."""
    t = _cut_lp(comp, rows)
    return t if t is not None and t >= 10.0 * cfg.eps_feas else None


class _Barrier:
    """The log-barrier of max t s.t. B_k(x) + t I < 0 for every compiled
    block, on the slice x = x0 + Z z (Z an orthonormal basis of a's null
    space), in the variables w = (z, t).

    The slack S_k(w) = -B_k(x) - t I of each group is affine, C + G w; the
    barrier is -s t - sum log det S_k.  A direction that widens every slack
    sends it to -inf, and then no centre exists (th1's R = v v^T when every
    A_i has the left null vector v).  Such a direction moves only variables
    without require_pd, as the trace pins the PD ones, so problems with such
    a variable add -log(_RADIUS^2 - |z|^2): the run stays in a ball.
    """

    def __init__(self, comp: _Compiled, x0: np.ndarray):
        self.x0 = x0
        self.Z = np.linalg.qr(comp.trace_vec[:, None], mode="complete")[0][:, 1:]
        self.nw = self.Z.shape[1] + 1
        self.groups = [
            (m, K, -(M @ x0), -np.hstack((M @ self.Z, np.tile(np.eye(m).ravel(), K)[:, None])))
            for m, K, M in comp.groups
        ]
        self.ball = not all(v.require_pd for v in comp.problem.variables)
        self.theta = sum(m * K for m, K, _, _ in self.groups) + self.ball  # the ball adds 1

    def x(self, w: np.ndarray) -> np.ndarray:
        return self.x0 + self.Z @ w[:-1]

    def spectra(self, w: np.ndarray) -> list:
        """eigh of every slack, one batched call per block size."""
        return [np.linalg.eigh((C + G @ w).reshape(K, m, m)) for m, K, C, G in self.groups]

    def newton(self, w: np.ndarray, spectra: list, s: float) -> tuple[np.ndarray, np.ndarray]:
        """(gradient, Newton step) of the barrier at w and weight s.  The
        slacks' Hessian is sum T^T T with T = (S^-1/2 kron S^-1/2) G, whose
        columns W^T G_p W (W = U diag(lam)^-1/2) also give the gradient
        -tr(S^-1 G_p) on their diagonals."""
        nw = self.nw
        g = np.zeros(nw)
        g[-1] = -s
        H = np.zeros((nw, nw))
        if self.ball:
            z = w[:-1]
            room = _RADIUS**2 - z @ z
            g[:-1] = 2.0 * z / room
            H[:-1, :-1] = (2.0 / room) * np.eye(nw - 1) + (4.0 / room**2) * np.outer(z, z)
        for (m, K, _, G), (lam, U) in zip(self.groups, spectra):
            W = U / np.sqrt(lam)[:, None, :]
            T = (W.transpose(0, 2, 1) @ G.reshape(K, m, m * nw)).reshape(K, m, m, nw)
            T = (T.transpose(0, 1, 3, 2).reshape(K, m * nw, m) @ W).reshape(K, m, nw, m)
            g -= np.einsum("kipi->p", T)
            T = T.transpose(0, 1, 3, 2).reshape(-1, nw)
            H += T.T @ T
        # least squares: a variable that no block uses leaves H singular
        # (or, under the ball, singular to working precision)
        return g, np.linalg.lstsq(H, -g, rcond=None)[0]

    def value(self, w: np.ndarray, spectra: list, s: float) -> float:
        """The barrier at weight s, or inf outside its domain."""
        lam = np.concatenate([l.ravel() for l, _ in spectra])
        room = _RADIUS**2 - w[:-1] @ w[:-1] if self.ball else 1.0
        ok = lam.min() > 0.0 and room > 0.0
        return -s * w[-1] - float(np.log(lam).sum() + np.log(room)) if ok else np.inf


def _worst(w: np.ndarray, spectra: list) -> float:
    """f at the point of w: lambda_min(S_k) = -lambda_max(B_k) - t."""
    return -w[-1] - min(float(l[:, 0].min()) for l, _ in spectra)


def _barrier_run(comp: _Compiled, x0: np.ndarray, f0: float, cfg: SolverConfig):
    """Path following from (x0, t0 = -f(x0) - 1): damped Newton steps with
    Armijo backtracking centre the barrier, and s grows by _GROWTH after
    each centring.  At a centre, t* <= t + theta / s (theta the sum of the
    block dimensions, plus 1 for the ball, whose points alone count in t*).
    Returns the least f seen, its point, the Newton steps taken and the
    centres."""
    bar = _Barrier(comp, x0)
    settled = -10.0 * cfg.eps_feas
    w = np.zeros(bar.nw)
    w[-1] = -f0 - 1.0
    s = 1.0
    spectra = bar.spectra(w)
    phi = bar.value(w, spectra, s)
    best_f, best_x = f0, x0
    steps = 0
    centres: list[np.ndarray] = []
    while best_f > settled and steps < cfg.max_iters:
        g, dw = bar.newton(w, spectra, s)
        lam2 = float(-g @ dw)
        if lam2 < _CENTRED:
            centres.append(bar.x(w))
            gap = bar.theta / s
            if w[-1] + gap < cfg.eps_feas or gap < 0.1 * cfg.eps_feas:
                break  # no witness reaches the threshold / the gap has closed
            s *= _GROWTH
            phi = bar.value(w, spectra, s)
            continue
        step = 1.0
        while step > 1e-12:
            trial = w + step * dw
            trial_spectra = bar.spectra(trial)
            trial_phi = bar.value(trial, trial_spectra, s)
            if trial_phi <= phi - 0.25 * step * lam2:
                break
            step *= 0.5
        else:
            break  # rounding stalls the centring
        w, spectra, phi = trial, trial_spectra, trial_phi
        steps += 1
        f = _worst(w, spectra)
        if f < best_f:
            best_f, best_x = f, bar.x(w)
    return best_f, best_x, steps, centres or [bar.x(w)]


def solve_feasibility(problem: LmiProblem, cfg: SolverConfig | None = None) -> FeasReport:
    """Search for a strictly feasible witness of a homogeneous problem.

    Deterministic: starts attached to the problem are tried first; a
    start that already certifies feasibility at ``eps_feas`` short-circuits
    the search.  Otherwise one barrier run from the best start (or from the
    normalized identities) follows the central path until the verdict is
    settled, and a run that ends without a value below ``10 * eps_feas``
    tries the proof LP on the eigenvector rows of its last centres.
    """
    cfg = cfg or SolverConfig()
    if not any(v.require_pd for v in problem.variables):
        raise ProblemError("no positive-definite variable to normalize against")
    comp = _Compiled(problem)
    a = comp.trace_vec

    best_f, best_x = np.inf, None
    iterations = 0

    for start in problem.starts:
        w = normalize_witness(problem, start)
        if w is None:
            continue
        x = comp.to_vector(w)
        f = comp.f_only(x)
        iterations += 1
        if f < best_f:
            best_f, best_x = f, x
        if f <= -cfg.eps_feas:
            witness = comp.to_witness(x)
            return FeasReport("feasible", f, witness, iterations, 0)

    if best_x is None:
        best_x = a / (a @ a)  # scaled identities
        best_f = comp.f_only(best_x)
    best_f, best_x, steps, centres = _barrier_run(comp, best_x, best_f, cfg)
    iterations += steps

    lower_bound = None
    if best_f >= 10.0 * cfg.eps_feas:
        rows = np.vstack([comp.eig_rows(x) for x in centres[-_PROOF_CENTRES:]])
        lower_bound = _prove_no_witness(comp, rows, cfg)

    witness = comp.to_witness(best_x)
    lambda_star = comp.f_only(best_x)
    status = "feasible" if lambda_star <= -cfg.eps_feas else "not_found"
    return FeasReport(status, lambda_star, witness, iterations, 1, lower_bound)


def linearize_inverse_bound(Q: np.ndarray, S: np.ndarray) -> np.ndarray | None:
    """Linearize the inverse bound Q < S^-1.

    For symmetric positive definite Q, S of equal dimension: if
    lambda_max(Q - S^-1) < 0, returns R = S, which satisfies

        R.T Q R + S - (R + R.T) < 0

    (the congruence S(Q - S^-1)S of the assumed bound).  Returns None when
    the bound fails, including the non-strict boundary.
    """
    Q = np.asarray(Q, dtype=float)
    S = np.asarray(S, dtype=float)
    if Q.shape != S.shape or Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ProblemError("Q and S must be square with equal dimension")
    if not is_pd(Q) or not is_pd(S):
        raise ProblemError("Q and S must be symmetric positive definite")
    if eig_max(Q - np.linalg.inv(S)) < 0.0:
        return S.copy()
    return None
