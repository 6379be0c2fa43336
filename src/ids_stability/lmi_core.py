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
block.  A start attached to the problem that certifies, or an attached dual
candidate (one multiplier per compiled block) whose checked weak-duality
bound on f exceeds -eps_feas, decides the problem with no barrier run.
Otherwise one path-following barrier run solves it (Vandenberghe & Boyd,
SIAM Review 1996): Newton steps on -s t - sum log det(-B_k - t I) over a
null-space basis of the slice, each as long as minimises the barrier along
it, with s growing tenfold once the Newton decrement is at most 1/2.
Every variable must be required PD, so the trace bounds the slice's
feasible part and the barrier has a centre.  Every Newton step dw bounds
the optimum t* from above.  With mu the eigenvalues of every D_k =
S_k^-1/2 (G dw)_k S_k^-1/2, max mu <= 1 makes the step's dual point Z =
(S^-1 - S^-1 (G dw) S^-1) / s positive semidefinite, and then t* <= t +
(theta - sum mu) / s, with theta the barrier parameter.  So the run stops
at the first Newton step after which f <= -10 * eps_feas (a depth that
settles the verdict), whose bound shows that no witness can reach
-eps_feas, or whose gap has closed.  A negative certificate is
"feasible", anything else is "not_found".  When a run ends without a
value below 10 * eps_feas, weak duality turns the last step's Z into a
lower bound on f over the whole slice, and a bound of at least
10 * eps_feas proves that no witness exists (the report carries it as
``lower_bound``).  Where that proof falls short (Z is not PSD, or the
bound is weaker), Kelley's cutting-plane LP tries instead: every block is
linear, so each eigenvector row h = (u kron u)^T M_k satisfies
h.x <= f(x) everywhere, and the LP over the rows of the run's centres and
last point bounds f from below on the slice.  The LP is solved by its dual
(``linprog``, numpy only), and its value counts only for a dual point
y >= 0 that is checked against the dual equations, so a bound it returns
never exceeds f on the slice.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

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

# the barrier weight s grows by _GROWTH after each centring
_GROWTH = 10.0
# the most predictor-corrector steps of the proof LP
_LP_STEPS = 100


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
    """A named dim x dim decision matrix.

    ``require_pd`` appends the implicit block ``-V < 0``; ``solve_feasibility``
    takes only variables that require it, each symmetric with dim*(dim+1)/2
    scalar unknowns.  ``evaluate`` and ``check_witness`` take any variable's
    matrix as given, symmetric or not.
    """

    name: str
    dim: int
    require_pd: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise ProblemError("variable dimension must be positive")

    @property
    def n_params(self) -> int:
        return self.dim * (self.dim + 1) // 2


@dataclass(frozen=True)
class BlockTerm:
    """One contribution ``left @ V @ right``; a block symmetrizes its sum, so
    a term and its transpose together are one term with twice the factor."""

    var: str
    left: np.ndarray
    right: np.ndarray


@dataclass(frozen=True)
class AffineBlock:
    """Symmetric-matrix-valued affine form; evaluation symmetrizes the sum."""

    dim: int
    terms: tuple[BlockTerm, ...]


@dataclass(frozen=True)
class LmiProblem:
    """Blocks required strictly negative definite, in the given variables.

    ``starts`` are optional deterministic start assignments (the builders
    attach at most one, a closed-form witness where the problem structure
    provides one); a start that certifies decides the problem, one that
    does not starts the barrier run, and they never change the verdict
    semantics.  ``dual`` is an optional Farkas candidate: one PSD
    multiplier per compiled block (the declared blocks, then the positivity
    block of each PD variable in variable order).  The solver checks it
    against the blocks, and a bound it proves decides the problem with no
    barrier run; one that fails its check is ignored.
    """

    variables: tuple[MatrixVariable, ...]
    blocks: tuple[AffineBlock, ...]
    starts: tuple[dict, ...] = ()
    dual: tuple[np.ndarray, ...] = ()

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
    restarts: int  # 0 when a start or the dual candidate decided, else 1 (the run)
    # a proven finite lower bound >= 10 * eps_feas on f over the slice
    # (not_found only), from the problem's checked dual candidate, the last
    # Newton step's dual point or the cut LP
    lower_bound: float | None = None

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


# -- parametrization ---------------------------------------------------------


@functools.cache
def _sym_basis(d: int) -> np.ndarray:
    """The d^2 x d(d+1)/2 matrix taking a symmetric d x d variable's
    parameters to vec(V), row-major: the Frobenius-orthonormal basis (the
    diagonal units, then (E_ij + E_ji) / sqrt(2) for i < j in row order).
    Built once per size and read-only, as every problem shares it."""
    p = d * (d + 1) // 2
    B = np.zeros((d, d, p))
    k = np.arange(d)
    B[k, k, k] = 1.0
    i, j = np.triu_indices(d, 1)
    c = np.arange(d, p)
    B[i, j, c] = B[j, i, c] = 1.0 / np.sqrt(2.0)
    B = B.reshape(d * d, -1)
    B.flags.writeable = False
    return B


class _Compiled:
    """Flattened affine maps vec(B_k) = M_k x for fast repeated evaluation;
    each M_k x is exactly symmetric."""

    def __init__(self, problem: LmiProblem):
        if not problem.variables or not all(v.require_pd for v in problem.variables):
            raise ProblemError("every variable must be required positive-definite: the trace normalizes them")
        self.problem = problem
        # name -> (variable, offset of its parameters in x, its basis matrix)
        self.vars: dict[str, tuple[MatrixVariable, int, np.ndarray]] = {}
        off = 0
        for v in problem.variables:
            self.vars[v.name] = (v, off, _sym_basis(v.dim))
            off += v.n_params
        self.nx = off

        # declared blocks, then the implicit positivity blocks -V < 0
        blocks = list(problem.blocks) + [
            AffineBlock(dim=v.dim, terms=(BlockTerm(v.name, -np.eye(v.dim), np.eye(v.dim)),))
            for v in problem.variables
        ]
        # blocks of one dimension share one stacked map, so an evaluation
        # costs one matvec and one batched eigensolve per distinct dimension
        by_dim: dict[int, list[int]] = {}
        for k, blk in enumerate(blocks):
            by_dim.setdefault(blk.dim, []).append(k)
        self.dims = [blk.dim for blk in blocks]
        self.order = [k for ks in by_dim.values() for k in ks]  # blocks in group order
        # groups: (block size m, number of blocks K, stacked K m^2 x nx map)
        self.groups: list[tuple[int, int, np.ndarray]] = [
            (m, len(ks), np.vstack([self._compile_block(blocks[k]) for k in ks]))
            for m, ks in by_dim.items()
        ]

        # trace functional (the normalization slice a.x = 1)
        a = np.zeros(self.nx)
        for v, off, _ in self.vars.values():
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
            LR = (L[:, None, :, None] * R.T[None, :, None, :]).reshape(m * m, -1)  # np.kron(L, R.T)
            M[:, off : off + v.n_params] += LR @ B
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


def _null_basis(a: np.ndarray) -> np.ndarray:
    """An orthonormal basis of the null space of the row a."""
    return np.linalg.qr(a[:, None], mode="complete")[0][:, 1:]


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


def linprog(c: np.ndarray, A: np.ndarray, b: np.ndarray) -> float | None:
    """A certified lower bound on max c.y s.t. A y = b, y >= 0: the value
    c.y of a point y that is checked to satisfy the constraints.

    An SVD gives A orthonormal rows that span the same affine set, and
    Mehrotra's predictor-corrector steps (SIAM J. Optim. 1992) on the
    normal equations solve the LP and its dual min b.l s.t. A^T l >= c,
    with slack s = A^T l - c.  Entries of y at most a thousandth of their
    slack tend to 0 and are dropped; the rest are scaled by 1 - u, with u
    the least-norm solution of A (y u) = A y - b, which puts y back on the
    affine set and moves each small entry by as little as a large one,
    relative to its size.  The value is returned only if that y is
    nonnegative and on the set to rounding; otherwise (no feasible y, or
    the steps did not converge) None.
    """
    U, sv, Vt = np.linalg.svd(A, full_matrices=False)
    r = sv > 1e-12 * sv[0]
    Ar, br = Vt[r], (U[:, r].T @ b) / sv[r]
    scale = 1.0 + np.abs(c).max()
    # Mehrotra's start for min -c.y, each shift at least a tenth of the
    # scale: s is 0 when c lies in the row space of A
    y, l = Ar.T @ br, -(Ar @ c)
    s = -c - Ar.T @ l
    y = y + max(-1.5 * y.min(), 0.1 * (1.0 + np.abs(y).max()))
    s = s + max(-1.5 * s.min(), 0.1 * scale)
    gap = 0.5 * (y @ s)
    y, s = y + gap / s.sum(), s + gap / y.sum()
    for _ in range(_LP_STEPS):
        rb, rc, gap = Ar @ y - br, Ar.T @ l + s + c, y @ s
        if np.abs(rc).max() <= 1e-9 * scale and gap <= 1e-13 * (1.0 + abs(c @ y)):
            break
        d = y / s
        M = (Ar * d) @ Ar.T

        def step(rys):
            # A dy = -rb, A^T dl + ds = -rc, S dy + Y ds = -rys
            rhs = -rb - Ar @ (d * rc - rys / s)
            try:
                dl = np.linalg.solve(M, rhs)
            except np.linalg.LinAlgError:
                dl = np.linalg.lstsq(M, rhs, rcond=None)[0]
            ds = -rc - Ar.T @ dl
            return (-rys - y * ds) / s, dl, ds

        dy, dl, ds = step(y * s)
        ap, ad = _to_boundary(y, dy), _to_boundary(s, ds)
        sigma = ((y + ap * dy) @ (s + ad * ds) / gap) ** 3
        dy, dl, ds = step(y * s + dy * ds - sigma * gap / len(y))
        ap, ad = 0.99 * _to_boundary(y, dy), 0.99 * _to_boundary(s, ds)
        y, l, s = y + ap * dy, l + ad * dl, s + ad * ds
    keep = y > 1e-3 * s
    if not (np.isfinite(y).all() and keep.any()):
        return None
    As, y = A[:, keep], y[keep]
    y = y * (1.0 - np.linalg.lstsq(As * y, As @ y - b, rcond=None)[0])
    if y.min() < 0.0 or np.abs(As @ y - b).max() > 1e-12 * (1.0 + np.abs(A).max()):
        return None
    return float(c[keep] @ y)


def _to_boundary(v: np.ndarray, dv: np.ndarray) -> float:
    """The longest step alpha <= 1 that keeps v + alpha dv >= 0."""
    neg = dv < 0.0
    return min(1.0, float((-v[neg] / dv[neg]).min())) if neg.any() else 1.0


def _cut_lp(comp: _Compiled, rows: np.ndarray) -> float | None:
    """t* of Kelley's cutting-plane LP: min t s.t. h.x <= t for every row h
    and a.x = 1, with x free, solved by its dual.

    With x = x0 + Z z (x0 = a / |a|^2, Z a basis of a's null space), the
    dual is max (H x0).y s.t. y >= 0, 1.y = 1 and Z^T H^T y = 0, and every
    such y gives f(x) >= max_i h_i.x >= y.(H x) = (H x0).y on the slice,
    as each row is a global minorant of f.  Returns None when ``linprog``
    certifies no y, including when the rows leave the LP unbounded.
    """
    a = comp.trace_vec
    A = np.vstack((np.ones(len(rows)), (rows @ _null_basis(a)).T))
    b = np.zeros(len(A))
    b[0] = 1.0
    return linprog(rows @ (a / (a @ a)), A, b)


def _prove_no_witness(comp: _Compiled, rows: np.ndarray, cfg: SolverConfig) -> float | None:
    """t* of the cut LP when it is finite and at least 10 * eps_feas (no
    witness exists), else None."""
    t = _cut_lp(comp, rows)
    return t if t is not None and 10.0 * cfg.eps_feas <= t < np.inf else None


class _Barrier:
    """The log-barrier of max t s.t. B_k(x) + t I < 0 for every compiled
    block, on the slice x = x0 + Z z (Z an orthonormal basis of a's null
    space), in the variables w = (z, t).

    The slack S_k(w) = -B_k(x) - t I of each group is affine, C + G w; the
    barrier is -s t - sum log det S_k.  Every variable is required PD and
    the trace fixes their sum, so each level of t bounds z, -s t grows as t
    falls, and the barrier has a centre.
    """

    def __init__(self, comp: _Compiled, x0: np.ndarray):
        self.x0 = x0
        self.Z = _null_basis(comp.trace_vec)
        self.nw = self.Z.shape[1] + 1
        self.groups = [
            (m, K, -(M @ x0), -np.hstack((M @ self.Z, np.tile(np.eye(m).ravel(), K)[:, None])))
            for m, K, M in comp.groups
        ]
        self.theta = sum(m * K for m, K, _, _ in self.groups)

    def x(self, w: np.ndarray) -> np.ndarray:
        return self.x0 + self.Z @ w[:-1]

    def spectra(self, w: np.ndarray) -> list:
        """eigh of every slack, one batched call per block size."""
        return [np.linalg.eigh((C + G @ w).reshape(K, m, m)) for m, K, C, G in self.groups]

    def local(self, spectra: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(gradient at weight s = 0, Hessian, T) of the barrier at the point
        of the spectra; the Hessian does not depend on s.  It is T^T T with
        T = (S^-1/2 kron S^-1/2) G stacked over the blocks, whose columns
        W^T G_p W (W = U diag(lam)^-1/2) also give the gradient -tr(S^-1 G_p)
        on their diagonals."""
        nw = self.nw
        g = np.zeros(nw)
        Ts = []
        for (m, K, _, G), (lam, U) in zip(self.groups, spectra):
            W = U / np.sqrt(lam)[:, None, :]
            T = (W.transpose(0, 2, 1) @ G.reshape(K, m, m * nw)).reshape(K, m, m, nw)
            T = (T.transpose(0, 1, 3, 2).reshape(K, m * nw, m) @ W).reshape(K, m, nw, m)
            g -= np.einsum("kipi->p", T)
            Ts.append(T.transpose(0, 1, 3, 2).reshape(-1, nw))
        T = np.vstack(Ts)
        return g, T.T @ T, T

    def newton(self, local: tuple, s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(gradient, Newton step dw, eigenvalues mu) of the barrier at weight
        s, from the ``local`` terms of a point.  mu are the eigenvalues of
        every D_k = S_k^-1/2 (G dw)_k S_k^-1/2, rows of T dw: along dw the
        slacks are S^1/2 (I + alpha D) S^1/2.  A step that is not finite
        raises LinAlgError, a numerical failure."""
        g, H, T = local
        g = g.copy()
        g[-1] -= s
        # least squares only where solve raises LinAlgError on an H that
        # rounding has made exactly singular
        try:
            dw = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            dw = np.linalg.lstsq(H, -g, rcond=None)[0]
        with np.errstate(over="ignore", invalid="ignore"):
            D, off, mu = T @ dw, 0, []
        if not (np.isfinite(dw).all() and np.isfinite(D).all()):
            raise np.linalg.LinAlgError("the barrier's Newton step is not finite")
        for m, K, _, _ in self.groups:
            mu.append(np.linalg.eigvalsh(D[off : off + K * m * m].reshape(K, m, m)).ravel())
            off += K * m * m
        return g, dw, np.concatenate(mu)

    @staticmethod
    def step_length(dw: np.ndarray, s: float, lam2: float, mu: np.ndarray) -> float:
        """The minimiser over alpha of the barrier along w + alpha dw.  Its
        derivative is

            -s dt - sum mu / (1 + alpha mu),

        increasing on the domain alpha < p = 1 / max(-mu); at 0 it is -lam2,
        and its slope lam2.  Each step takes the
        root of the model A + B / (p - alpha) that matches the derivative and
        its slope at alpha (a Newton step when p is infinite or the model has
        no root), and bisects where that leaves the bracket of the root.  The
        first step is p / (1 + p), or 1; close to p, where the barrier's
        minimiser often lies, the model is nearly exact."""
        neg = float(mu.min())
        p = -1.0 / neg if neg < 0.0 else np.inf
        lo, hi, a, d1, d2 = 0.0, p, 0.0, -lam2, lam2
        for _ in range(30):
            e = d1 - d2 * (p - a) if p < np.inf else 0.0
            nxt = p + d2 * (p - a) ** 2 / e if e < 0.0 else a - d1 / d2
            if not lo < nxt < hi:
                nxt = 0.5 * (lo + hi) if hi < np.inf else 2.0 * a
            if abs(nxt - a) <= 1e-4 * nxt:
                return nxt
            a = nxt
            q = mu / (1.0 + a * mu)
            d1, d2 = -s * dw[-1] - q.sum(), q @ q
            if d1 < 0.0:
                lo = a
            else:
                hi = a
        return lo


def _dual_bound(bar: _Barrier, spectra: list, s: float, dw: np.ndarray) -> float | None:
    """The ``_weak_duality_bound`` of the dual point Z_k = (S_k^-1 - S_k^-1
    dS_k S_k^-1) / s (dS = G dw) of a Newton step dw at weight s from the
    point of the spectra.  The Newton equations give G^T vec Z = -e_t, up to
    rounding."""
    Z = []
    for (m, K, _, G), (lam, U) in zip(bar.groups, spectra):
        Si = (U / lam[:, None, :]) @ U.transpose(0, 2, 1)
        Zk = (Si - Si @ (G @ dw).reshape(K, m, m) @ Si) / s
        Z.append((0.5 * (Zk + Zk.transpose(0, 2, 1))).ravel())
    return _weak_duality_bound(bar, np.concatenate(Z))


def _weak_duality_bound(bar: _Barrier, z: np.ndarray) -> float | None:
    """-<Z, C>, a lower bound on f over the slice, from multipliers Z_k (the
    symmetric vec z, stacked as the groups) that nearly satisfy the dual
    equations G^T vec Z = -e_t (zero z-part: the adjoint sum_k M_k^T vec Z_k
    lies along the trace vector; sum tr Z_k = 1).  One least-norm correction
    restores them.  If every Z_k is then PSD, weak duality gives 0 <=
    <Z, C + G w> = <Z, C> - t for every feasible (z, t).  None when some
    Z_k is not.
    """
    Gt = np.vstack([G for *_, G in bar.groups]).T
    r = Gt @ z
    r[-1] += 1.0
    z = z - np.linalg.lstsq(Gt, r, rcond=None)[0]
    off = 0
    for m, K, _, _ in bar.groups:
        if np.linalg.eigvalsh(z[off : off + K * m * m].reshape(K, m, m)).min() < 0.0:
            return None
        off += K * m * m
    return -float(z @ np.concatenate([C for _, _, C, _ in bar.groups]))


def _candidate_bound(comp: _Compiled, dual: tuple) -> float | None:
    """The ``_weak_duality_bound`` of a problem's dual candidate, scaled to
    unit trace sum; None when it fails the check."""
    if len(dual) != len(comp.dims) or any(np.shape(Z) != (m, m) for Z, m in zip(dual, comp.dims)):
        raise ProblemError(f"the dual candidate needs one square matrix per compiled block, of sizes {comp.dims}")
    Zs = [sym(np.asarray(dual[k], dtype=float)) for k in comp.order]
    total = sum(np.trace(Z) for Z in Zs)
    if not (np.isfinite(total) and total > 0.0):
        return None
    a = comp.trace_vec
    return _weak_duality_bound(_Barrier(comp, a / (a @ a)), np.concatenate([Z.ravel() for Z in Zs]) / total)


def _worst(w: np.ndarray, spectra: list) -> float:
    """f at the point of w: lambda_min(S_k) = -lambda_max(B_k) - t."""
    return -w[-1] - min(float(l[:, 0].min()) for l, _ in spectra)


def _t_bound(bar: _Barrier, t: float, s: float, mu: np.ndarray) -> float:
    """An upper bound on t* from the Newton step at weight s from a point
    (z, t) (inf when the step gives none).  The step's dual point
    Z = S^-1/2 (I - D) S^-1/2 / s (that of ``_dual_bound``) is PSD iff
    max mu <= 1, and then t* <= <Z, C> = t + (theta - sum mu) / s."""
    return t + (bar.theta - float(mu.sum())) / s if mu.max() <= 1.0 else np.inf


def _barrier_run(comp: _Compiled, x0: np.ndarray, f0: float, cfg: SolverConfig):
    """Path following from (x0, t0 = -f(x0) - 1): Newton steps of the length
    that minimises the barrier along them centre it, a centring ends once
    the squared Newton decrement is at most 1/4, and s then grows by
    _GROWTH.  Every Newton step bounds t* from above (``_t_bound``), so the
    run stops at the first step whose bound shows that no witness reaches
    -eps_feas, or whose gap to t is below 0.1 * eps_feas.  Returns the least
    f seen, its point, the Newton steps taken, the centres followed by the
    last point, and the arguments of ``_dual_bound`` for the last Newton
    step.  Raises LinAlgError, a numerical failure, where rounding puts the
    start outside the barrier's domain: against entries near 1e154 the 1 of
    t0 is lost, and a start slack that is not positive definite would give
    the barrier no value."""
    bar = _Barrier(comp, x0)
    settled = -10.0 * cfg.eps_feas
    w = np.zeros(bar.nw)
    w[-1] = -f0 - 1.0
    s = 1.0
    spectra, local = bar.spectra(w), None
    if not min(float(l.min()) for l, _ in spectra) > 0.0:
        raise np.linalg.LinAlgError("the barrier's start slacks are not positive definite")
    best_f, best_x = f0, x0
    steps = 0
    centres: list[np.ndarray] = []
    last = None
    while best_f > settled and steps < cfg.max_iters:
        if local is None:
            local = bar.local(spectra)
        g, dw, mu = bar.newton(local, s)
        last = (bar, spectra, s, dw)
        lam2 = float(-g @ dw)
        bound = _t_bound(bar, w[-1], s, mu)
        if bound < cfg.eps_feas or bound - w[-1] < 0.1 * cfg.eps_feas:
            break  # no witness reaches the threshold / the gap has closed
        if lam2 <= 0.25:
            centres.append(bar.x(w))
            s *= _GROWTH
            continue
        a = bar.step_length(dw, s, lam2, mu)
        while True:  # rounding can put the minimiser just outside the domain
            trial = w + a * dw
            trial_spectra = bar.spectra(trial)
            if min(float(l.min()) for l, _ in trial_spectra) > 0.0 or a < 1e-12:
                break
            a *= 0.5
        if a < 1e-12:
            break  # rounding stalls the centring
        w, spectra, local = trial, trial_spectra, None
        steps += 1
        f = _worst(w, spectra)
        if f < best_f:
            best_f, best_x = f, bar.x(w)
    return best_f, best_x, steps, centres + [bar.x(w)], last


def solve_feasibility(problem: LmiProblem, cfg: SolverConfig | None = None) -> FeasReport:
    """Search for a strictly feasible witness of a homogeneous problem.

    Deterministic: starts attached to the problem are tried first; a
    start that already certifies feasibility at ``eps_feas`` short-circuits
    the search.  Then the problem's dual candidate, if any: a checked finite
    bound above ``-eps_feas`` ends the search as "not_found", the rule a
    barrier run stops on.  Otherwise one barrier run follows the central
    path until the verdict is settled, from the attached start of least
    objective (the builders attach at most one), or from the normalized
    identities when no start normalizes.  A run that ends without a value
    below ``10 * eps_feas`` tries the dual bound of its last Newton step,
    and where that proves nothing (a bound below 10 * eps_feas, or one that
    is not finite), the proof LP on the rows of its centres and last point.
    """
    cfg = cfg or SolverConfig()
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
    if problem.dual:
        bound = _candidate_bound(comp, problem.dual)
        if bound is not None and -cfg.eps_feas < bound < np.inf:
            proof = bound if bound >= 10.0 * cfg.eps_feas else None
            return FeasReport("not_found", best_f, comp.to_witness(best_x), iterations, 0, proof)
    best_f, best_x, steps, points, last = _barrier_run(comp, best_x, best_f, cfg)
    iterations += steps

    lower_bound = None
    if best_f >= 10.0 * cfg.eps_feas:
        lower_bound = _dual_bound(*last)
        if lower_bound is None or not 10.0 * cfg.eps_feas <= lower_bound < np.inf:
            rows = np.vstack([comp.eig_rows(x) for x in points])
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
