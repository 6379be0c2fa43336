"""Homogeneous strict-LMI containers and a self-contained feasibility solver.

A problem is a set of symmetric-matrix-valued blocks, each affine and
homogeneous in named matrix variables, required strictly negative definite.
Every variable flagged ``require_pd`` implicitly contributes an extra block
``-V`` so positivity is part of the same objective.

Feasibility is decided by minimizing

    f(x) = max over blocks of lambda_max(B_k(x))

over the affine slice trace(sum of PD variables) = 1 (homogeneity makes the
normalization lossless).  The minimization runs a projected subgradient
method (Polyak-style steps once a negative value is known, diminishing steps
otherwise, random restarts), followed by a cutting-plane polish that refines
the iterate near the feasibility boundary.  The method cannot certify
infeasibility: a negative certificate is "feasible", anything else is
"not_found".
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

DEFAULT_SEED = 7

_SQRT2 = np.sqrt(2.0)


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
    they participate as extra restart seeds and never change the verdict
    semantics.
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
    seed: int = DEFAULT_SEED
    restarts: int = 8
    max_iters: int = 5000
    eps_feas: float = 1e-7
    # optimization is stopped once the objective reaches this value; deeper
    # minima do not change the verdict
    stop_target: float = -1e-2
    stall_limit: int = 450
    polish_iters: int = 200
    # skip the cutting-plane polish when the subgradient phase already ended
    # far from the feasibility boundary
    polish_window: float = 0.25


@dataclass(frozen=True)
class FeasReport:
    status: str  # "feasible" | "not_found"
    lambda_star: float
    witness: dict
    iterations: int
    restarts: int

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


# -- parametrization ---------------------------------------------------------


def _sym_basis(d: int) -> list[np.ndarray]:
    """Frobenius-orthonormal basis of d x d symmetric matrices."""
    basis = []
    for i in range(d):
        E = np.zeros((d, d))
        E[i, i] = 1.0
        basis.append(E)
    for i in range(d):
        for j in range(i + 1, d):
            E = np.zeros((d, d))
            E[i, j] = E[j, i] = 1.0 / _SQRT2
            basis.append(E)
    return basis


def _sym_stack(M: np.ndarray, m: int, x: np.ndarray) -> np.ndarray:
    """The symmetrized m x m blocks of a stacked map M at x."""
    B = (M @ x).reshape(-1, m, m)
    return 0.5 * (B + B.transpose(0, 2, 1))


class _Compiled:
    """Flattened affine maps vec(B_k) = M_k x for fast repeated evaluation."""

    def __init__(self, problem: LmiProblem):
        self.problem = problem
        self.offsets: dict[str, int] = {}
        self.bases: dict[str, list[np.ndarray]] = {}
        off = 0
        for v in problem.variables:
            self.offsets[v.name] = off
            if v.kind == "symmetric":
                self.bases[v.name] = _sym_basis(v.dim)
            else:
                basis = []
                for i in range(v.dim):
                    for j in range(v.dim):
                        E = np.zeros((v.dim, v.dim))
                        E[i, j] = 1.0
                        basis.append(E)
                self.bases[v.name] = basis
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
        for v in problem.variables:
            if v.require_pd:
                a[self.offsets[v.name] : self.offsets[v.name] + v.dim] = 1.0
        self.trace_vec = a

    def _compile_block(self, blk: AffineBlock) -> np.ndarray:
        m = blk.dim
        M = np.zeros((m * m, self.nx))
        for term in blk.terms:
            var = self.problem.variable(term.var)
            L = np.asarray(term.left, dtype=float)
            R = np.asarray(term.right, dtype=float)
            if L.shape[0] != m or R.shape[1] != m:
                raise ProblemError(
                    f"term for {term.var!r} maps to {L.shape[0]}x{R.shape[1]}, "
                    f"block is {m}x{m}"
                )
            off = self.offsets[term.var]
            for j, E in enumerate(self.bases[term.var]):
                V = E.T if term.transpose else E
                if L.shape[1] != V.shape[0] or R.shape[0] != V.shape[1]:
                    raise ProblemError(
                        f"term for {term.var!r} has incompatible factor shapes"
                    )
                C = L @ V @ R
                M[:, off + j] += (0.5 * (C + C.T)).reshape(-1)
        return M

    def to_vector(self, witness: dict) -> np.ndarray:
        x = np.zeros(self.nx)
        for v in self.problem.variables:
            if v.name not in witness:
                raise ProblemError(f"witness missing variable {v.name!r}")
            W = np.asarray(witness[v.name], dtype=float)
            if W.shape != (v.dim, v.dim):
                raise ProblemError(
                    f"witness for {v.name!r} has shape {W.shape}, expected "
                    f"({v.dim}, {v.dim})"
                )
            off = self.offsets[v.name]
            for j, E in enumerate(self.bases[v.name]):
                x[off + j] = float(np.tensordot(E, W))
        return x

    def to_witness(self, x: np.ndarray) -> dict:
        out = {}
        for v in self.problem.variables:
            off = self.offsets[v.name]
            W = np.zeros((v.dim, v.dim))
            for j, E in enumerate(self.bases[v.name]):
                W += x[off + j] * E
            out[v.name] = W
        return out

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


def _polish(comp: _Compiled, x0: np.ndarray, f0: float, cfg: SolverConfig):
    """Cutting-plane refinement of the worst-lambda-max minimization.

    Kelley-style: accumulate linearizations f(x) >= f_k + g_k.(x - x_k) and
    repeatedly minimize their max over the normalization slice intersected
    with a box around the incumbent.  Deterministic; the LP backend is HiGHS.
    """
    nx = comp.nx
    a = comp.trace_vec
    best_f, best_x = f0, x0.copy()
    cuts_c0: list[float] = []
    cuts_g: list[np.ndarray] = []
    x = x0.copy()
    box = 0.5
    evals = 0
    for _ in range(cfg.polish_iters):
        f, g = comp.f_and_grad(x)
        evals += 1
        if f < best_f:
            best_f, best_x = f, x.copy()
        cuts_c0.append(f - float(g @ x))
        cuts_g.append(g)
        if len(cuts_c0) > 250:
            cuts_c0.pop(0)
            cuts_g.pop(0)
        nc = len(cuts_c0)
        c = np.zeros(nx + 1)
        c[-1] = 1.0
        A_ub = np.zeros((nc, nx + 1))
        A_ub[:, :nx] = np.vstack(cuts_g)
        A_ub[:, -1] = -1.0
        b_ub = -np.asarray(cuts_c0)
        A_eq = np.zeros((1, nx + 1))
        A_eq[0, :nx] = a
        bounds = [(best_x[i] - box, best_x[i] + box) for i in range(nx)] + [(None, None)]
        res = linprog(
            c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[1.0], bounds=bounds, method="highs"
        )
        if not res.success:
            break
        x = res.x[:nx]
        lower = res.x[-1]
        if best_f - lower < 1e-10:
            f = comp.f_only(x)
            evals += 1
            if f < best_f:
                best_f, best_x = f, x.copy()
            break
        if lower > 0.0:
            # no point of the box reaches a negative value; the verdict for
            # this solve cannot improve
            break
        if best_f <= cfg.stop_target:
            break
    return best_f, best_x, evals


def solve_feasibility(problem: LmiProblem, cfg: SolverConfig | None = None) -> FeasReport:
    """Search for a strictly feasible witness of a homogeneous problem.

    Deterministic given ``cfg.seed``.  Warm starts attached to the problem
    are tried first; a start that already certifies feasibility at
    ``eps_feas`` short-circuits the search.
    """
    cfg = cfg or SolverConfig()
    _check_homogeneous(problem)
    comp = _Compiled(problem)
    rng = np.random.default_rng(cfg.seed)
    nx = comp.nx
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

    def initial_point(r: int) -> np.ndarray:
        if r == 0:
            if best_x is not None:
                return best_x.copy()
            return a / (a @ a)  # every PD variable a scaled identity
        x = rng.standard_normal(nx)
        # bias symmetric PD variables toward the PSD cone
        for v in problem.variables:
            off = comp.offsets[v.name]
            if v.require_pd:
                W = sum(
                    x[off + j] * E for j, E in enumerate(comp.bases[v.name])
                )
                W = W @ W.T + 0.1 * np.eye(v.dim)
                for j, E in enumerate(comp.bases[v.name]):
                    x[off + j] = float(np.tensordot(E, W))
        return comp.project(x)

    # a value this deep settles the verdict; further depth only adds slack
    clear_feas = -10.0 * cfg.eps_feas

    restarts_run = 0
    no_gain = 0
    for r in range(cfg.restarts):
        restarts_run += 1
        f_before = best_f
        x = initial_point(r)
        f_run = np.inf
        stall = 0
        for k in range(cfg.max_iters):
            f, g = comp.f_and_grad(x)
            iterations += 1
            if f < f_run - 1e-12:
                f_run = f
                stall = 0
                if f < best_f:
                    best_f, best_x = f, x.copy()
            else:
                stall += 1
            if best_f <= cfg.stop_target or stall > cfg.stall_limit:
                break
            # while no negative value is known the subgradient phase only has
            # to deliver a decent incumbent; precision is the polish's job
            if best_f >= 0.0 and k >= 900:
                break
            gnorm2 = float(g @ g)
            if gnorm2 <= 1e-300:
                break
            if best_f < 0.0:
                # Polyak step toward an adaptively deepened negative target
                target = 1.5 * best_f
                t = min((f - target) / gnorm2, 1.0 / np.sqrt(k + 1.0))
            else:
                t = 0.3 / (np.sqrt(k + 1.0) * np.sqrt(gnorm2))
            x = comp.project(x - t * g)
        if best_f <= max(cfg.stop_target, clear_feas):
            break
        # the objective is convex: once several restarts in a row stop moving
        # the plateau, further random starts cannot change the verdict
        if best_f >= f_before - 0.1 * abs(f_before):
            no_gain += 1
            if no_gain >= 3:
                break
        else:
            no_gain = 0

    if cfg.stop_target < best_f < cfg.polish_window and best_f > clear_feas and cfg.polish_iters > 0:
        f_p, x_p, ev = _polish(comp, best_x, best_f, cfg)
        iterations += ev
        if f_p < best_f:
            best_f, best_x = f_p, x_p

    witness = comp.to_witness(best_x)
    lambda_star = comp.f_only(best_x)
    status = "feasible" if lambda_star <= -cfg.eps_feas else "not_found"
    return FeasReport(status, lambda_star, witness, iterations, restarts_run)


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
