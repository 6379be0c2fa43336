"""Homogeneous strict-LMI containers and a self-contained feasibility solver.

A problem is a set of symmetric-matrix-valued blocks, each affine and
homogeneous in named matrix variables, required strictly negative definite.
Every variable flagged ``require_pd`` implicitly contributes an extra block
``-V`` so positivity is part of the same objective.  Each block compiles to
a matrix M_k with vec(B_k) = M_k x (a term L V R contributes L kron R^T
times the variable's basis matrix).  Feasibility is decided by minimizing

    f(x) = max over blocks of lambda_max(B_k(x))

over the affine slice trace(sum of PD variables) = 1 (homogeneity makes the
normalization lossless).  f is convex, so the minimization is one run of a
projected subgradient method (Polyak-style steps once a negative value is
known, diminishing steps otherwise), followed by a cutting-plane polish
near the feasibility boundary.  Both stop once f <= -10 * eps_feas, a depth
that settles the verdict.  A negative certificate is "feasible", anything
else is "not_found".  Because every block is linear, each subgradient row h
satisfies h.x <= f(x) everywhere, with equality where it was taken, and one
LP (Kelley's cutting-plane model) serves twice.  Unboxed, its optimum bounds
f from below on the slice: the bound is tried at iterations 64, 128, 256
and 512 of the run and at its end, and when it excludes a witness the search
stops early and the report carries it as ``lower_bound``.  Its LP dual is a
Farkas certificate, multipliers sum y_i u_i u_i^T >= 0 whose adjoint image
is a multiple of the trace functional.  Boxed around the incumbent, its
minimizer is the polish's next point.
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

# iterations of the run at which the cut bound is tried (and at its end);
# doubling caps the extra LPs of one solve at four
_BOUND_AT = (64, 128, 256, 512)
_STALL_LIMIT = 450  # the run also stops after this many steps without progress
# the polish (at most _POLISH_ITERS steps) runs only when the run ended with
# no bound and below _POLISH_WINDOW, near the feasibility boundary
_POLISH_WINDOW = 0.25
_POLISH_ITERS = 200


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
    constant: np.ndarray | None = None


@dataclass(frozen=True)
class LmiProblem:
    """Blocks required strictly negative definite, in the given variables.

    ``starts`` are optional deterministic warm-start assignments (builders
    attach closed-form candidates when the problem structure provides them);
    the best of them starts the subgradient run, and they never change the
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
    # one subgradient run: it stops at the settling depth -10 * eps_feas or
    # after max_iters iterations
    max_iters: int = 5000
    eps_feas: float = 1e-7


@dataclass(frozen=True)
class FeasReport:
    status: str  # "feasible" | "not_found"
    lambda_star: float
    witness: dict
    iterations: int
    restarts: int  # 0 when a warm start certified, else 1 (the run)
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


def _sym_stack(M: np.ndarray, m: int, x: np.ndarray) -> np.ndarray:
    """The symmetrized m x m blocks of a stacked map M at x."""
    B = (M @ x).reshape(-1, m, m)
    return 0.5 * (B + B.transpose(0, 2, 1))


class _Compiled:
    """Flattened affine maps vec(B_k) = M_k x for fast repeated evaluation."""

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
        # costs one matvec and one batched eigensolve per distinct dimension;
        # where[k] = (group, position) of block k
        by_dim: dict[int, list[int]] = {}
        for k, blk in enumerate(blocks):
            by_dim.setdefault(blk.dim, []).append(k)
        self.groups: list[tuple[int, np.ndarray, np.ndarray]] = []
        self.where: list[tuple[int, int]] = [(0, 0)] * len(blocks)
        for m, ks in by_dim.items():
            for j, k in enumerate(ks):
                self.where[k] = (len(self.groups), j)
            maps = np.vstack([self._compile_block(blocks[k]) for k in ks])
            self.groups.append((m, np.array(ks), maps))

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

    def f_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """Worst lambda_max over all blocks and a subgradient: the top
        eigenvector's rank-one term through the worst block's map.  Among
        equal maxima the lowest block index wins."""
        tops = np.empty(len(self.where))
        vecs = []
        for m, ks, M in self.groups:
            w, V = np.linalg.eigh(_sym_stack(M, m, x))
            tops[ks] = w[:, -1]
            vecs.append(V)
        k = int(tops.argmax())
        g, j = self.where[k]
        m, _, M = self.groups[g]
        u = vecs[g][j, :, -1]
        grad = M[j * m * m : (j + 1) * m * m].T @ (u[:, None] * u).reshape(-1)
        return float(tops[k]), grad

    def eig_rows(self, x: np.ndarray) -> np.ndarray:
        """The rows (u (x) u)^T M_k for every eigenvector u of every block at
        x; each satisfies h.y <= f(y) for all y."""
        rows = []
        for m, ks, M in self.groups:
            _, V = np.linalg.eigh(_sym_stack(M, m, x))
            R = np.einsum("jpc,jqc,jpqn->jcn", V, V, M.reshape(len(ks), m, m, -1))
            rows.append(R.reshape(-1, self.nx))
        return np.vstack(rows)

    def f_only(self, x: np.ndarray) -> float:
        return max(
            float(np.linalg.eigvalsh(_sym_stack(M, m, x))[:, -1].max())
            for m, _, M in self.groups
        )

    def project(self, x: np.ndarray) -> np.ndarray:
        a = self.trace_vec
        return x - a * ((a @ x - 1.0) / (a @ a))


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
        if blk.constant is not None:
            B += np.asarray(blk.constant, dtype=float)
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


def _check_homogeneous(problem: LmiProblem) -> None:
    for i, blk in enumerate(problem.blocks):
        if blk.constant is not None and np.any(np.asarray(blk.constant) != 0.0):
            raise ProblemError(f"block {i} has a nonzero constant part")
    if not any(v.require_pd for v in problem.variables):
        raise ProblemError("no positive-definite variable to normalize against")


def _cut_lp(
    comp: _Compiled, rows: np.ndarray, center: np.ndarray | None = None
) -> tuple[np.ndarray, float] | None:
    """Kelley's cutting-plane LP: min t s.t. h.x <= t for every row h and
    a.x = 1, with x free or, given ``center``, inside the box
    |x - center| <= 0.5.

    Every row is a global minorant of f through the origin, so t* bounds f
    below on the slice (on the box).  Returns (x*, t*), or None when the LP
    has no solution, including when the rows leave it unbounded.
    """
    nx = comp.nx
    c = np.zeros(nx + 1)
    c[-1] = 1.0
    free = (None, None)
    bounds = free if center is None else [(ci - 0.5, ci + 0.5) for ci in center] + [free]
    res = linprog(
        c, A_ub=np.hstack((rows, -np.ones((len(rows), 1)))), b_ub=np.zeros(len(rows)),
        A_eq=np.append(comp.trace_vec, 0.0)[None, :], b_eq=[1.0], bounds=bounds, method="highs",
    )
    return (res.x[:nx], float(res.x[-1])) if res.status == 0 else None


def _prove_no_witness(comp: _Compiled, rows: np.ndarray, cfg: SolverConfig) -> float | None:
    """t* of the unboxed cut LP when it is at least 10 * eps_feas (no
    witness exists), else None."""
    sol = _cut_lp(comp, rows)
    return sol[1] if sol is not None and sol[1] >= 10.0 * cfg.eps_feas else None


def _polish(comp: _Compiled, x0: np.ndarray, f0: float, cfg: SolverConfig, settled: float):
    """Cutting-plane refinement of the worst-lambda-max minimization.

    Kelley-style: accumulate the subgradient rows and repeatedly step to
    the minimizer of their max over the normalization slice intersected
    with a box around the incumbent, until the incumbent reaches the
    ``settled`` depth.  Deterministic; the LP backend is HiGHS.
    """
    best_f, best_x = f0, x0.copy()
    cuts: list[np.ndarray] = []
    x = x0
    evals = 0
    for _ in range(_POLISH_ITERS):
        f, g = comp.f_and_grad(x)
        evals += 1
        if f < best_f:
            best_f, best_x = f, x.copy()
        if best_f <= settled:
            break
        cuts = cuts[-249:] + [g]
        sol = _cut_lp(comp, np.vstack(cuts), best_x)
        if sol is None:
            break
        x, lower = sol
        if best_f - lower < 1e-10:
            f = comp.f_only(x)
            evals += 1
            if f < best_f:
                best_f, best_x = f, x.copy()
            break
        if lower > -cfg.eps_feas:
            # no point of the box reaches the verdict threshold; the verdict
            # for this solve cannot improve
            break
    return best_f, best_x, evals


def solve_feasibility(problem: LmiProblem, cfg: SolverConfig | None = None) -> FeasReport:
    """Search for a strictly feasible witness of a homogeneous problem.

    Deterministic: one subgradient run from the best warm start (or from
    the normalized identity), then the polish.  Warm starts attached to the
    problem are tried first; a start that already certifies feasibility at
    ``eps_feas`` short-circuits the search.  The objective is convex, so a
    second run from another point could not reach a lower minimum.
    """
    cfg = cfg or SolverConfig()
    _check_homogeneous(problem)
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

    # a value this deep settles the verdict; further depth only adds slack
    settled = -10.0 * cfg.eps_feas
    x = best_x.copy() if best_x is not None else a / (a @ a)  # scaled identities

    # the last subgradients, a ring: the rows of the cut bound
    cuts = np.empty((300, comp.nx))
    lower_bound = None
    f_run = np.inf
    stall = 0
    for k in range(cfg.max_iters):
        f, g = comp.f_and_grad(x)
        iterations += 1
        cuts[k % len(cuts)] = g
        if f < f_run - 1e-12:
            f_run = f
            stall = 0
            if f < best_f:
                best_f, best_x = f, x.copy()
        else:
            stall += 1
        gnorm2 = float(g @ g)
        done = (
            best_f <= settled
            or stall > _STALL_LIMIT
            or gnorm2 <= 1e-300
            # while no negative value is known the run only has to deliver
            # a decent incumbent; precision is the polish's job
            or (best_f >= 0.0 and k >= 900)
            or k + 1 == cfg.max_iters
        )
        if best_f >= -settled and (done or k + 1 in _BOUND_AT):
            # subgradient rows alone can leave the bound unbounded below
            rows = np.vstack((cuts[: k + 1], comp.eig_rows(best_x), comp.eig_rows(x)))
            lower_bound = _prove_no_witness(comp, rows, cfg)
            if lower_bound is not None:
                break
        if done:
            break
        if best_f < 0.0:
            # Polyak step toward an adaptively deepened negative target
            target = 1.5 * best_f
            t = min((f - target) / gnorm2, 1.0 / np.sqrt(k + 1.0))
        else:
            t = 0.3 / (np.sqrt(k + 1.0) * np.sqrt(gnorm2))
        x = comp.project(x - t * g)

    if lower_bound is None and settled < best_f < _POLISH_WINDOW:
        f_p, x_p, ev = _polish(comp, best_x, best_f, cfg, settled)
        iterations += ev
        if f_p < best_f:
            best_f, best_x = f_p, x_p

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
