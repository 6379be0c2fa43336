"""Time-domain integration of the integral delay dynamics.

Discretization: the state grid has step h, each delay is snapped to the
grid (tau_i -> round(tau_i/h) h, perturbation recorded), and the window
integral uses the composite trapezoid rule.  The unknown endpoint x(t)
enters with weight h/2, so each step solves

    (I - (h/2) sum_i A_i) x(t) = known quadrature of the history,

whose right-hand side is a fixed linear map of the last max(m_i) states.
``simulate`` folds the trapezoid weights of every delay into that map and
the solve into it once, x_k = K [x_{k-khist}; ...; x_{k-1}], and composes K
with itself into a kernel that maps those khist states to the next 32, so
one matrix-vector product advances 32 steps.  The kernel depends only on
the system and h, so it is built once per system and h and cached on the
system: a further trajectory pays only for its own steps.  The residual of
every step is then recomputed against the equation, its window sums taken
by blocked prefix and suffix sums that each add only entries of their own
window.

The module also fits exponential decay envelopes and evaluates the
certificate functionals of the LMI criteria along trajectories.  A
trajectory is an immutable value with read-only samples, so it caches the
outer products of its rows, and each functional evaluation reads its window
from them.  A functional's witness is an immutable value too
(:class:`FunctionalWitness`): it caches the matrices its functional folds
into for the last system and grid, so a warm evaluation is one slice and one
dot product.  The module keeps no state of its own.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .model import IdsSystem

__all__ = [
    "HistorySpec",
    "Trajectory",
    "SimulationError",
    "simulate",
    "make_compatible",
    "estimate_decay",
    "FunctionalWitness",
    "eval_functional",
    "export_csv",
]


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class HistorySpec:
    """Initial condition on [-tau, 0]; always a continuous function.

    Kinds: "constant" (a fixed vector), "random-smooth" (a seeded
    low-frequency trigonometric polynomial), "custom-sampled" (linear
    interpolation of given uniform samples).  ``offset`` shifts the whole
    function by a constant vector; see :func:`make_compatible`.
    """

    kind: str
    const: np.ndarray | None = None
    seed: int | None = None
    samples: np.ndarray | None = None
    offset: np.ndarray | None = None

    def __post_init__(self):
        for field in ("const", "samples", "offset"):
            v = getattr(self, field)
            if v is not None and not np.isfinite(np.asarray(v, dtype=float)).all():
                raise ValueError(f"{self.kind} history values must be finite (in {field})")

    @classmethod
    def constant(cls, vec) -> "HistorySpec":
        return cls(kind="constant", const=np.atleast_1d(np.asarray(vec, dtype=float)))

    @classmethod
    def random_smooth(cls, seed: int) -> "HistorySpec":
        return cls(kind="random-smooth", seed=int(seed))

    @classmethod
    def sampled(cls, values) -> "HistorySpec":
        """Uniform samples from -tau to 0, one row per sample; a flat list
        is one value per sample (n = 1).  Deeper nesting and rows of
        unequal length are rejected."""
        try:
            v = np.asarray(values, dtype=float)
        except ValueError:  # ragged rows, or an entry that is not a number
            v = None
        if v is None or v.ndim > 2:
            raise ValueError("samples must be a list of numbers or of equal-length vectors")
        v = v.reshape(-1, 1) if v.ndim < 2 else v
        if v.shape[0] < 2:
            raise ValueError("need at least two samples")
        return cls(kind="custom-sampled", samples=v)

    def as_callable(self, n: int, tau: float):
        """Function s -> R^n on [-tau, 0].

        An array of k times gives a (k, n) array, one row per time.  Outside
        [-tau, 0] a "custom-sampled" history is clamped to its end samples;
        the other kinds extend their formula.
        """
        return self._callable(self._draw(n), tau)

    def integral(self, n: int, tau: float, lo: float) -> np.ndarray:
        """Exact integral over [lo, 0] of the function ``as_callable(n, tau)``.

        "constant" gives c |lo|; "random-smooth" integrates each term in closed
        form, a_j sin(w_j |lo|) / w_j + b_j (cos(w_j |lo|) - 1) / w_j with
        w_j = j pi / tau; "custom-sampled" takes the trapezoid over the sample
        breakpoints inside the window and its two ends, which is exact for the
        linear interpolant (and for its clamped extension below -tau).  A set
        ``offset`` adds offset |lo|.
        """
        return self._integral(self._draw(n), tau, lo)

    def _draw(self, n: int):
        """What the kind's formula reads at dimension n: the constant, the
        samples, or random-smooth's seeded c0 and pairs (a_j, b_j), j = 1..3,
        of c0 + sum_j a_j cos(j pi s / tau) + b_j sin(j pi s / tau)."""
        if self.kind == "constant":
            c = np.asarray(self.const, dtype=float)
            if c.shape != (n,):
                raise ValueError(f"constant history has dimension {c.shape}, expected ({n},)")
            return c
        if self.kind == "random-smooth":
            rng = np.random.default_rng(self.seed)
            c0 = rng.standard_normal(n)
            coeffs = [
                (rng.standard_normal(n) * 2.0**-j, rng.standard_normal(n) * 2.0**-j)
                for j in range(1, 4)
            ]
            return c0, coeffs
        if self.kind == "custom-sampled":
            if self.samples.shape[1] != n:
                raise ValueError(
                    f"sampled history has dimension {self.samples.shape[1]}, expected {n}"
                )
            return self.samples
        raise ValueError(f"unknown history kind {self.kind!r}")

    def _callable(self, draw, tau: float):
        """``as_callable`` from the kind's ``_draw``."""
        if self.kind == "constant":
            base = lambda s: np.tile(draw, np.shape(s) + (1,))
        elif self.kind == "random-smooth":
            c0, coeffs = draw

            def base(s, c0=c0, coeffs=coeffs, tau=tau):
                s = np.asarray(s, dtype=float)[..., None]
                out = np.tile(c0, s.shape)
                for j, (a, b) in enumerate(coeffs, start=1):
                    th = j * math.pi * s / tau
                    out += a * np.cos(th) + b * np.sin(th)
                return out

        else:
            grid = np.linspace(-tau, 0.0, draw.shape[0])

            def base(s, grid=grid, v=draw):
                return np.stack([np.interp(s, grid, v[:, i]) for i in range(v.shape[1])], axis=-1)

        if self.offset is None:
            return base
        off = np.asarray(self.offset, dtype=float)
        return lambda s: base(s) + off

    def _integral(self, draw, tau: float, lo: float) -> np.ndarray:
        """``integral`` from the kind's ``_draw``."""
        w = -float(lo)
        if self.kind == "constant":
            total = draw * w
        elif self.kind == "random-smooth":
            c0, coeffs = draw
            total = c0 * w
            for j, (a, b) in enumerate(coeffs, start=1):
                om = j * math.pi / tau
                total = total + (a * math.sin(om * w) + b * (math.cos(om * w) - 1.0)) / om
        else:
            grid = np.linspace(-tau, 0.0, draw.shape[0])
            s = np.concatenate(([lo], grid[grid > lo]))
            total = np.trapezoid([np.interp(s, grid, col) for col in draw.T], s, axis=1)
        if self.offset is not None:
            total = total + np.asarray(self.offset, dtype=float) * w
        return total


@dataclass(frozen=True)
class Trajectory:
    """Discrete solution with its history segment.

    ``samples[k]`` is the state at t = (k - hist_len) * h; rows up to
    ``hist_len`` hold the initial condition.  ``samples`` is stored as a
    read-only float64 copy of the array passed in, which stays the caller's
    to change, and the fields cannot be reassigned, so what is derived from
    the samples (``gram_rows``) is cached on the trajectory.
    ``max_residual`` is the largest residual of a later row in the
    discretized equation, recomputed from the samples rather than taken from
    the step kernel, relative to max(1, |x_k|).
    """

    h: float
    T: float
    samples: np.ndarray
    hist_len: int
    tau_snapped: tuple[float, ...]
    snap_error: float
    sup_history: float
    max_residual: float

    def __post_init__(self):
        samples = np.array(self.samples, dtype=float)
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    @property
    def n(self) -> int:
        return self.samples.shape[1]

    @cached_property
    def gram_rows(self) -> np.ndarray:
        """G with row k the flattened outer product x_k x_k.T of
        ``samples[k]``; it holds n times as many floats as the samples."""
        X = self.samples
        return (X[:, :, None] * X[:, None, :]).reshape(X.shape[0], -1)

    @cached_property
    def _t_last(self) -> float:
        """T - max(tau_snapped), the last time at which the longest window
        of a certificate functional lies inside the trajectory."""
        return self.T - max(self.tau_snapped)

    @property
    def times(self) -> np.ndarray:
        return (np.arange(self.samples.shape[0]) - self.hist_len) * self.h

    def _grid_step(self, t: float) -> int:
        """The j with t = j h, up to 1e-9 max(1, |t|): the grid rule of
        ``index_of`` and of :func:`eval_functional`."""
        j = round(t / self.h)
        a = abs(t)
        if abs(j * self.h - t) > 1e-9 * (a if a > 1.0 else 1.0):
            raise ValueError(f"t={t} is not on the simulation grid (h={self.h})")
        return j

    def index_of(self, t: float) -> int:
        k = self.hist_len + self._grid_step(t)
        if k < 0 or k >= self.samples.shape[0]:
            raise ValueError(f"t={t} outside the simulated range")
        return k


def simulate(sys: IdsSystem, history: HistorySpec, h: float, T: float) -> Trajectory:
    """Integrate the system from a history function.

    Requires h <= min(tau_i)/8 and T >= max(tau_i).  Raises
    :class:`SimulationError` when the implicit step matrix is numerically
    singular (halving h changes the matrix and usually cures it) and when
    the solution, or the norm of one of its states, overflows to
    non-finite values before T.
    """
    if not all(math.isfinite(v) for v in (h, T)):
        raise ValueError(f"h and T must be finite (got {h}, {T})")
    if h <= 0:
        raise ValueError("h must be positive")
    if h > min(sys.tau) / 8 + 1e-12:
        raise ValueError(f"h={h} too large: need h <= min(tau)/8 = {min(sys.tau)/8:.6g}")
    if T < sys.tau_max:
        raise ValueError(f"T={T} shorter than the largest delay {sys.tau_max}")
    n = sys.n
    m = [int(round(t / h)) for t in sys.tau]
    tau_snapped = tuple(mi * h for mi in m)
    snap_error = max(abs(ts - t) for ts, t in zip(tau_snapped, sys.tau))
    khist = max(m)
    steps = int(math.ceil(T / h - 1e-9))

    phi = history.as_callable(n, sys.tau_max)
    X = np.zeros((khist + steps + 1, n))
    X[: khist + 1] = phi((np.arange(khist + 1) - khist) * h)

    F = _step_kernel(sys, h, min(_BLOCK, steps))
    flat = X.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(khist + 1, khist + steps + 1, _BLOCK):
            rows = min(_BLOCK, khist + steps + 1 - k)
            np.dot(F[: rows * n], flat[(k - khist) * n : k * n], out=flat[k * n : (k + rows) * n])
        norms = np.linalg.norm(X, axis=1)
    bad = ~np.isfinite(norms)
    if bad.any():
        t_bad = (int(np.argmax(bad)) - khist) * h
        raise SimulationError(
            f"the solution overflows to non-finite values at t = {t_bad:.6g}; use T < {t_bad:.6g}"
        )
    sup_history = float(np.max(norms[: khist + 1]))
    return Trajectory(
        h=h,
        T=steps * h,
        samples=X,
        hist_len=khist,
        tau_snapped=tau_snapped,
        snap_error=snap_error,
        sup_history=sup_history,
        max_residual=_max_residual(sys.A, m, h, X, khist + 1),
    )


# Steps per kernel product.  A block of L steps does the per-step flops in
# one call instead of L.  Building its kernel F takes about L^2 khist n^3
# flops (2 L khist^2 n^3 when khist < L) and F holds L khist n^2 floats: for
# khist = 200, n = 3 and L = 32 that is 5.5 Mflop (0.3 ms) and 460 kB.  The
# build is paid once per system and h (``_step_kernel``), so later
# trajectories of the system pay only for their steps.  On the benchmark's
# systems simulate timed the same for L = 16 to 32 with a build in every
# call; from 48 on, the build cost more than the shorter loop saved (64 took
# 20-30 % longer at khist near 200, n = 3).
_BLOCK = 32


def _step_kernel(sys: IdsSystem, h: float, L: int) -> np.ndarray:
    """The read-only kernel of ``simulate`` that maps the last khist =
    max(m_i) states to the next L.

    It depends only on the system, h and L, so it is cached on the system
    (in its ``__dict__``), one entry per system keyed by (h, L): a new key
    replaces it, and a build that raises caches nothing.  The entry is read
    and replaced in one statement each, so concurrent callers can at worst
    build the same kernel twice.
    """
    found = vars(sys).get("step_kernel")
    if found is not None and found[0] == (h, L):
        return found[1]
    n = sys.n
    m = [int(round(t / h)) for t in sys.tau]
    khist = max(m)
    # B[j] = sum_i w_ij A_i weighs x_{k-khist+j}; the last, x_k's, is implicit
    B = np.einsum("ij,iab->jab", _trapezoid_weights(m, h, khist), np.asarray(sys.A))
    step_mat = np.eye(n) - B[-1]
    if np.linalg.cond(step_mat) > 1e12:
        raise SimulationError(
            "implicit step matrix (I - (h/2) sum A_i) is numerically singular; try halving h"
        )
    # one step is x_k = K [x_{k-khist}; ...; x_{k-1}]; one block is L steps
    K = np.linalg.solve(step_mat, B[:-1].transpose(1, 0, 2).reshape(n, -1))
    F = _block_kernel(K, L)
    F.flags.writeable = False
    vars(sys)["step_kernel"] = ((h, L), F)
    return F


def _block_kernel(K: np.ndarray, L: int) -> np.ndarray:
    """Stack the maps from the last khist states to the next L.

    With K = [K_khist ... K_1] (K_d weighs x_{k-d}), row block j of the
    result maps z = [x_{k-khist}; ...; x_{k-1}] to x_{k+j}:
    F_j = (K shifted j blocks towards the recent end) + sum_{d<=min(j,khist)}
    K_d F_{j-d}.
    """
    n = K.shape[0]
    khist = K.shape[1] // n
    F = np.zeros((L * n, khist * n))
    for j in range(L):
        Fj = F[j * n : (j + 1) * n]
        if j < khist:
            Fj[:, j * n :] = K[:, : (khist - j) * n]
        p = min(j, khist)
        if p:
            Fj += K[:, (khist - p) * n :] @ F[(j - p) * n : j * n]
    return F


def _trapezoid_weights(m, h: float, width: int) -> np.ndarray:
    """Composite trapezoid weights of windows of m_i steps that end at the
    last of width + 1 grid points, one row per window: h/2 at both ends of a
    window, h inside it and 0 before it."""
    lag = np.arange(width, -1, -1)  # steps back from the last point
    m = np.asarray(m)[:, None]
    w = np.where(lag < m, h, np.where(lag == m, h / 2.0, 0.0))
    w[:, -1] = h / 2.0
    return w


def _max_residual(A, m, h: float, X: np.ndarray, first: int) -> float:
    """Largest relative residual of the rows ``X[first:]`` in the discretized
    equation x_k = sum_i A_i h (x_{k-m_i}/2 + sum_{0<j<m_i} x_{k-j} + x_k/2).

    The inner sums come from :func:`_window_reduce`, which adds only entries
    of each window, so their rounding error is eps times that window's sum of
    |x|, and it decays with x.  A running-sum difference would keep an error
    of eps * |running sum| that never decays.  The sums run over the rows of
    a contiguous copy of X.T, one state component per row.
    """
    XT = np.ascontiguousarray(X.T)
    x = XT[:, first:]
    acc = np.zeros_like(x)
    for Ai, mi in zip(A, m):
        inner = _window_reduce(XT[:, first - mi + 1 : -1], mi - 1, np.add)
        acc += Ai @ (h * (0.5 * (XT[:, first - mi : XT.shape[1] - mi] + x) + inner))
    res = np.linalg.norm(x - acc, axis=0) / np.maximum(1.0, np.linalg.norm(x, axis=0))
    return float(res.max(initial=0.0))


def make_compatible(sys: IdsSystem, history: HistorySpec) -> HistorySpec:
    """Shift a history by a constant so it satisfies the defining equation at
    t = 0.

    A generic history leaves a value jump between phi(0) and the state the
    dynamics enforce at t = 0+, which costs one order of quadrature accuracy
    during startup.  The shift c solves (I - sum_i tau_i A_i) c =
    sum_i A_i int_{-tau_i}^0 phi - phi(0), with each window integral taken
    exactly by :meth:`HistorySpec.integral`, so the shifted history meets the
    equation up to rounding.  Smoothness is preserved.
    """
    n = sys.n
    draw = history._draw(n)  # one seeded draw serves every window and phi(0)
    rhs = np.zeros(n)
    for Ai, ti in zip(sys.A, sys.tau):
        rhs += Ai @ history._integral(draw, sys.tau_max, -ti)
    lhs_mat = np.eye(n) - sum(ti * Ai for Ai, ti in zip(sys.A, sys.tau))
    try:
        c = np.linalg.solve(lhs_mat, rhs - history._callable(draw, sys.tau_max)(0.0))
    except np.linalg.LinAlgError as e:
        raise SimulationError(f"compatibility shift is singular: {e}") from e
    old = history.offset if history.offset is not None else np.zeros(n)
    offset = np.asarray(old) + c
    if not np.isfinite(offset).all():
        raise SimulationError(f"compatibility shift overflows (got {c.tolist()})")
    return replace(history, offset=offset)


def estimate_decay(traj: Trajectory) -> tuple[float, float] | None:
    """Log-linear least-squares fit of the running-max envelope of ||x|| over
    windows of width max(tau).

    Returns (alpha, beta) with the envelope below alpha * sup||phi|| *
    exp(-beta t); None when the fitted slope is nonnegative.  A trajectory
    that is identically zero after startup gets the sentinel beta = inf.
    """
    tau = max(traj.tau_snapped)
    if traj.T < 5 * tau:
        raise ValueError(f"trajectory too short: T={traj.T} < 5*tau={5*tau}")
    w = int(round(tau / traj.h))
    X = traj.samples[traj.hist_len :]
    norms = np.sqrt(np.einsum("ij,ij->i", X, X))
    env = _running_max(norms, w + 1)
    t = np.arange(env.size) * traj.h
    # exact zeros (a solution that died out) have no logarithm
    pos = env > 0.0
    if pos.sum() < 2:
        return (1.0, math.inf)
    t, y = t[pos], np.log(env[pos])
    # least-squares line through the centred points
    dt = t - t.mean()
    slope = float(dt @ (y - y.mean()) / (dt @ dt))
    intercept = y.mean() - slope * t.mean()
    if slope >= 0:
        return None
    alpha = math.exp(intercept) / traj.sup_history if traj.sup_history > 0 else math.exp(intercept)
    return (float(alpha), float(-slope))


def _running_max(x: np.ndarray, width: int) -> np.ndarray:
    """Maxima of every window of ``width`` consecutive entries of x, in
    O(len(x)).  Maxima are exact, so this equals
    ``sliding_window_view(x, width).max(axis=1)`` bit for bit."""
    return _window_reduce(x, width, np.maximum)


def _window_reduce(x: np.ndarray, width: int, ufunc) -> np.ndarray:
    """``ufunc`` reduced over every window of ``width`` consecutive entries
    along the last axis of x, in O(x.size).

    The van Herk / Gil-Werman scheme: cut the axis into blocks of ``width``
    (the last padded with zeros, which no result reads) and accumulate
    forwards and backwards inside each block.  A window starting at i covers
    the tail of i's block and the head of the next, so it reduces to the
    backward value at i combined with the forward value at i + width - 1.
    A window that starts on a block boundary is that whole block: its result
    is the backward value alone, so a sum does not count the block twice.
    Each result thus combines entries of its own window only.
    """
    lead, size = x.shape[:-1], x.shape[-1]
    blocks = np.zeros((*lead, -(-size // width), width))
    blocks.reshape(*lead, -1)[..., :size] = x
    fwd = ufunc.accumulate(blocks, axis=-1).reshape(*lead, -1)
    bwd = ufunc.accumulate(blocks[..., ::-1], axis=-1)[..., ::-1].reshape(*lead, -1)
    count = size - width + 1
    out = ufunc(bwd[..., :count], fwd[..., width - 1 : size])
    out[..., ::width] = bwd[..., :count:width]
    return out


_FUNCTIONALS = {"amc": ("P", "Q"), "th1": ("P", "S"), "th2": ("R", "Q")}


@dataclass(frozen=True, eq=False)
class FunctionalWitness(Mapping):
    """The witness of one certificate functional, as an immutable value.

    ``which`` names the functional and ``witness`` maps its keys to the
    matrices and constants (see :func:`eval_functional`).  Construction
    checks the id, that every matrix is square with finite entries and that
    delta and eps are finite, and stores read-only float64 copies, a tuple
    of them for each list.  A caller that later changes its own arrays
    therefore changes neither the witness nor its functional.  The value
    reads like the dict it was built from, and it caches the folded matrices
    of the last (system, h, snapped delays) it was evaluated on: the system
    is an immutable value and compared by identity, the grid by value.
    """

    which: str
    witness: Mapping
    # (sys, h, tau_snapped, C), read and replaced in one statement each, so
    # concurrent callers can at worst fold the same matrices twice
    _folded: tuple = field(default=(None, None, None, None), init=False, repr=False)

    def __post_init__(self):
        if self.which not in _FUNCTIONALS:
            raise ValueError(f"unknown functional {self.which!r}; expected amc, th1, or th2")
        data = {}
        for key in _FUNCTIONALS[self.which]:
            M = self.witness[key]
            data[key] = _frozen(key, M) if key == "P" else tuple(_frozen(key, Mi) for Mi in M)
        if self.which == "th2":
            delta, eps = float(self.witness["delta"]), float(self.witness["eps"])
            if not (math.isfinite(delta) and math.isfinite(eps)):
                raise ValueError(f"delta = {delta} and eps = {eps} must be finite")
            data.update(delta=delta, eps=eps)
        object.__setattr__(self, "witness", MappingProxyType(data))

    def __getitem__(self, key):
        return self.witness[key]

    def __iter__(self):
        return iter(self.witness)

    def __len__(self) -> int:
        return len(self.witness)

    def folded(self, sys: IdsSystem, traj: Trajectory) -> np.ndarray:
        """C with row k the flattened n x n matrix sum_j coef[j, k] M_j, for
        the term matrices M_j and their trapezoid-times-weight coefficients
        at lag k of the longest window; the t-independent part of
        :func:`eval_functional`, built once per (system, h, snapped delays).
        """
        last = self._folded
        if last[0] is sys and last[1] == traj.h and last[2] == traj.tau_snapped:
            return last[3]
        C = _fold(self, sys, traj)
        C.flags.writeable = False
        object.__setattr__(self, "_folded", (sys, traj.h, traj.tau_snapped, C))
        return C


def _frozen(key: str, M) -> np.ndarray:
    """A read-only float64 copy of the square, finite witness matrix M."""
    M = np.array(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{key} has shape {M.shape}, expected a square matrix")
    if not np.isfinite(M).all():
        raise ValueError(f"{key} has a non-finite entry")
    M.flags.writeable = False
    return M


def eval_functional(
    sys: IdsSystem, traj: Trajectory, which: str, witness: Mapping, t: float
) -> float:
    """Evaluate one of the certificate functionals at time t.

    which = "amc": witness {P, Q: [Q_i]};  V = int_{t-tau}^t x.T P x
            + sum_i int (s+tau_i) x.T Q_i x.
    which = "th1": witness {P, S: [S_i]};  V = int_{t-tau}^t x.T P x
            + sum_i int (s/tau_i + 1) x.T S_i x.
    which = "th2": witness {R: [R_i], Q: [Q_i], delta, eps};
            V = eps * sum_i int_{t-tau_i}^t x.T R_i x
            + sum_i int (s+tau_i) x.T (tau_i A_i.T Q_i^-1 A_i + delta I) x.

    Every term is a trapezoid integral of weight(s) * x(t+s).T M x(t+s) over
    its window.  The term matrices, times their trapezoid-times-weight
    coefficients (zero outside each term's own window), fold into one
    matrix C_k per lag k of the longest window, so V = sum_k x_k.T C_k x_k is
    one dot product with the outer products of the window's states.  Neither
    factor depends on t.  A :class:`FunctionalWitness` caches its folded
    matrices (``FunctionalWitness.folded``), and a trajectory the outer
    products of all its rows (``Trajectory.gram_rows``), so a call then
    slices the window's rows and takes one ``vdot``.  Any other mapping is
    checked and folded anew on every call, so it follows changes made in
    place; wrap it once, or use ``criteria_lmi.th2_functional_params``, to
    evaluate it at many times.  A witness value for another functional than
    ``which`` raises ValueError, as does a non-finite entry.  Snapped delays
    are used throughout so V is consistent with the discretized dynamics;
    t must be a scalar grid time in [0, T - max(tau)].
    """
    try:
        t = float(t)
    except TypeError:
        raise ValueError(
            f"t must be a scalar grid time (got {type(t).__name__} of shape {np.shape(t)})"
        ) from None
    t_last = traj._t_last
    if t < -1e-12 or t > t_last + 1e-12:
        raise ValueError(f"t={t} outside [0, T - tau] = [0, {t_last:.6g}]")
    # a grid time in this range is a sample row with the whole window below it
    k = traj.hist_len + traj._grid_step(t)
    if not isinstance(witness, FunctionalWitness):
        witness = FunctionalWitness(which, witness)
    elif witness.which != which:
        raise ValueError(f"the witness is for the {witness.which} functional, not {which!r}")
    C = witness.folded(sys, traj)
    return float(np.vdot(C, traj.gram_rows[k + 1 - C.shape[0] : k + 1]))


def _fold(fw: FunctionalWitness, sys: IdsSystem, traj: Trajectory) -> np.ndarray:
    """``FunctionalWitness.folded``, built: the witness's matrices must be
    n x n, and each list must have one per delay (amc's and th1's P
    counting with theirs)."""
    taus = traj.tau_snapped
    n, N = traj.n, len(taus)
    which, w = fw.which, fw.witness
    if which == "th2":
        groups, count = {"R_i": w["R"], "Q_i": w["Q"]}, N
    else:
        rest = _FUNCTIONALS[which][1]
        groups, count = {f"P, {rest}_i": (w["P"], *w[rest])}, N + 1
    stacks = []
    for what, Ms in groups.items():
        for M in Ms:
            if M.shape != (n, n):
                raise ValueError(f"{what} has shape {M.shape}, expected ({n}, {n})")
        if len(Ms) != count:
            raise ValueError(f"expected {count} matrices {what}, got {len(Ms)}")
        stacks.append(np.array(Ms))

    h = traj.h
    m = [int(round(ti / h)) for ti in taus]
    mmax = max(m)
    # term j: matrix mats[j] on a window of win[j] steps, weight a[j] + b[j] s
    if which == "amc":
        (mats,) = stacks
        win, a, b = [mmax, *m], [1.0, *taus], [0.0] + [1.0] * N
    elif which == "th1":
        (mats,) = stacks
        win, a, b = [mmax, *m], [1.0] * (N + 1), [0.0] + [1.0 / ti for ti in taus]
    else:
        Rs, Qs = stacks
        As = np.asarray(sys.A, dtype=float)
        W = np.asarray(taus)[:, None, None] * np.swapaxes(As, 1, 2) @ np.linalg.inv(Qs) @ As
        W.reshape(N, n * n)[:, :: n + 1] += w["delta"]  # W_i + delta I
        mats = np.concatenate([Rs, W])
        win, a, b = m + m, [w["eps"]] * N + list(taus), [0.0] * N + [1.0] * N

    a, b = np.array([a, b])[:, :, None]
    coef = _trapezoid_weights(win, h, mmax) * (a + b * ((np.arange(mmax + 1) - mmax) * h))
    return coef.T @ mats.reshape(len(win), n * n)


def export_csv(traj: Trajectory, fh, decay: tuple[float, float] | None = None) -> None:
    """Write the trajectory as CSV with header "t, x1, ..., xn"; the decay
    fit, when given, is appended as '#'-prefixed comment lines."""
    n = traj.n
    fh.write("t, " + ", ".join(f"x{i+1}" for i in range(n)) + "\n")
    for t, row in zip(traj.times, traj.samples):
        fh.write(f"{t:.12g}, " + ", ".join(f"{v:.12g}" for v in row) + "\n")
    if decay is not None:
        alpha, beta = decay
        fh.write(f"# decay alpha = {alpha:.6g}\n")
        fh.write(f"# decay beta = {beta:.6g}\n")
