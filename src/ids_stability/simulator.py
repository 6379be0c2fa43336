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
one matrix-vector product advances 32 steps.  The residual of every step is
then recomputed against the equation with directly summed windows.

The module also fits exponential decay envelopes and evaluates the
certificate functionals of the LMI criteria along trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import IdsSystem

__all__ = [
    "HistorySpec",
    "Trajectory",
    "SimulationError",
    "simulate",
    "make_compatible",
    "estimate_decay",
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

    @classmethod
    def constant(cls, vec) -> "HistorySpec":
        return cls(kind="constant", const=np.atleast_1d(np.asarray(vec, dtype=float)))

    @classmethod
    def random_smooth(cls, seed: int) -> "HistorySpec":
        return cls(kind="random-smooth", seed=int(seed))

    @classmethod
    def sampled(cls, values) -> "HistorySpec":
        v = np.atleast_2d(np.asarray(values, dtype=float))
        if v.shape[0] < 2:
            raise ValueError("need at least two samples")
        return cls(kind="custom-sampled", samples=v)

    def as_callable(self, n: int, tau: float):
        """Function s -> R^n on [-tau, 0].

        An array of k times gives a (k, n) array, one row per time.  Outside
        [-tau, 0] a "custom-sampled" history is clamped to its end samples;
        the other kinds extend their formula.
        """
        if self.kind == "constant":
            c = np.asarray(self.const, dtype=float)
            if c.shape != (n,):
                raise ValueError(f"constant history has dimension {c.shape}, expected ({n},)")
            base = lambda s: np.tile(c, np.shape(s) + (1,))
        elif self.kind == "random-smooth":
            rng = np.random.default_rng(self.seed)
            c0 = rng.standard_normal(n)
            coeffs = [
                (rng.standard_normal(n) * 2.0**-j, rng.standard_normal(n) * 2.0**-j)
                for j in range(1, 4)
            ]

            def base(s, c0=c0, coeffs=coeffs, tau=tau):
                s = np.asarray(s, dtype=float)[..., None]
                out = np.tile(c0, s.shape)
                for j, (a, b) in enumerate(coeffs, start=1):
                    th = j * math.pi * s / tau
                    out += a * np.cos(th) + b * np.sin(th)
                return out

        elif self.kind == "custom-sampled":
            v = self.samples
            if v.shape[1] != n:
                raise ValueError(f"sampled history has dimension {v.shape[1]}, expected {n}")
            grid = np.linspace(-tau, 0.0, v.shape[0])

            def base(s, grid=grid, v=v):
                return np.stack([np.interp(s, grid, v[:, i]) for i in range(v.shape[1])], axis=-1)

        else:
            raise ValueError(f"unknown history kind {self.kind!r}")

        if self.offset is None:
            return base
        off = np.asarray(self.offset, dtype=float)
        return lambda s: base(s) + off


@dataclass
class Trajectory:
    """Discrete solution with its history segment.

    ``samples[k]`` is the state at t = (k - hist_len) * h; rows up to
    ``hist_len`` hold the initial condition.  ``max_residual`` is the largest
    residual of a later row in the discretized equation, its windows summed
    directly rather than taken from the step kernel, relative to
    max(1, |x_k|).
    """

    h: float
    T: float
    samples: np.ndarray
    hist_len: int
    tau_snapped: tuple[float, ...]
    snap_error: float
    sup_history: float
    max_residual: float

    @property
    def n(self) -> int:
        return self.samples.shape[1]

    @property
    def times(self) -> np.ndarray:
        return (np.arange(self.samples.shape[0]) - self.hist_len) * self.h

    def index_of(self, t: float) -> int:
        k = self.hist_len + int(round(t / self.h))
        if abs((k - self.hist_len) * self.h - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"t={t} is not on the simulation grid (h={self.h})")
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

    # B[j] = sum_i w_ij A_i weighs x_{k-khist+j}; the last, x_k's, is implicit
    B = np.einsum("ij,iab->jab", _trapezoid_weights(m, h, khist), np.asarray(sys.A))
    step_mat = np.eye(n) - B[-1]
    if np.linalg.cond(step_mat) > 1e12:
        raise SimulationError(
            "implicit step matrix (I - (h/2) sum A_i) is numerically singular; try halving h"
        )
    # one step is x_k = K [x_{k-khist}; ...; x_{k-1}]; one block is _BLOCK steps
    K = np.linalg.solve(step_mat, B[:-1].transpose(1, 0, 2).reshape(n, -1))
    F = _block_kernel(K, min(_BLOCK, steps))
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
# khist = 200, n = 3 and L = 32 that is 5.5 Mflop (0.3 ms) and 460 kB.  On
# the benchmark's systems simulate times the same for L = 16 to 32; from 48
# on, the build costs more than the shorter loop saves (64 takes 20-30 %
# longer at khist near 200, n = 3).
_BLOCK = 32


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

    Each window is summed directly: a running-sum difference would keep a
    rounding error of eps * |running sum| that never decays with x.  The sums
    run over the rows of a contiguous copy of X.T, one state component per
    row, so every window is read at unit stride.
    """
    XT = np.ascontiguousarray(X.T)
    x = XT[:, first:]
    acc = np.zeros_like(x)
    for Ai, mi in zip(A, m):
        inner = sliding_window_view(XT[:, first - mi + 1 : -1], mi - 1, axis=1).sum(axis=-1)
        acc += Ai @ (h * (0.5 * (XT[:, first - mi : XT.shape[1] - mi] + x) + inner))
    res = np.linalg.norm(x - acc, axis=0) / np.maximum(1.0, np.linalg.norm(x, axis=0))
    return float(res.max(initial=0.0))


# trapezoid panels per window in make_compatible's history integrals
_COMPAT_PANELS = 8192


def make_compatible(sys: IdsSystem, history: HistorySpec) -> HistorySpec:
    """Shift a history by a constant so it satisfies the defining equation at
    t = 0.

    A generic history leaves a value jump between phi(0) and the state the
    dynamics enforce at t = 0+, which costs one order of quadrature accuracy
    during startup.  The shifted history removes the jump; smoothness is
    preserved.
    """
    n = sys.n
    base = history.as_callable(n, sys.tau_max)
    rhs = np.zeros(n)
    for Ai, ti in zip(sys.A, sys.tau):
        vals = base(np.linspace(-ti, 0.0, _COMPAT_PANELS + 1))
        integ = np.trapezoid(vals, dx=ti / _COMPAT_PANELS, axis=0)
        rhs += Ai @ integ
    lhs_mat = np.eye(n) - sum(ti * Ai for Ai, ti in zip(sys.A, sys.tau))
    try:
        c = np.linalg.solve(lhs_mat, rhs - base(0.0))
    except np.linalg.LinAlgError as e:
        raise SimulationError(f"compatibility shift is singular: {e}") from e
    old = history.offset if history.offset is not None else np.zeros(n)
    return replace(history, offset=np.asarray(old) + c)


def estimate_decay(traj: Trajectory) -> tuple[float, float] | None:
    """Log-linear fit of the running-max envelope of ||x|| over windows of
    width max(tau).

    Returns (alpha, beta) with the envelope below alpha * sup||phi|| *
    exp(-beta t); None when the fitted slope is nonnegative.  A trajectory
    that is identically zero after startup gets the sentinel beta = inf.
    """
    tau = max(traj.tau_snapped)
    if traj.T < 5 * tau:
        raise ValueError(f"trajectory too short: T={traj.T} < 5*tau={5*tau}")
    w = int(round(tau / traj.h))
    norms = np.linalg.norm(traj.samples[traj.hist_len :], axis=1)
    env = np.lib.stride_tricks.sliding_window_view(norms, w + 1).max(axis=1)
    t = np.arange(env.size) * traj.h
    # exact zeros (a solution that died out) have no logarithm
    pos = env > 0.0
    if pos.sum() < 2:
        return (1.0, math.inf)
    slope, intercept = np.polyfit(t[pos], np.log(env[pos]), 1)
    if slope >= 0:
        return None
    alpha = math.exp(intercept) / traj.sup_history if traj.sup_history > 0 else math.exp(intercept)
    return (float(alpha), float(-slope))


def eval_functional(
    sys: IdsSystem, traj: Trajectory, which: str, witness: dict, t: float
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
    its window; all terms are one stacked quadratic form on the longest
    window, dotted with trapezoid-times-weight coefficients that vanish
    outside each term's own window.  Snapped delays are used throughout so V
    is consistent with the discretized dynamics; t must lie on the grid in
    [0, T - max(tau)].
    """
    taus = traj.tau_snapped
    tau = max(taus)
    if t < -1e-12 or t > traj.T - tau + 1e-12:
        raise ValueError(f"t={t} outside [0, T - tau] = [0, {traj.T - tau:.6g}]")
    k = traj.index_of(t)
    h = traj.h
    m = [int(round(ti / h)) for ti in taus]
    mmax = max(m)
    n, N = traj.n, len(taus)

    def checked(Ms, what, count) -> np.ndarray:
        Ms = [np.asarray(M, dtype=float) for M in Ms]
        for M in Ms:
            if M.shape != (n, n):
                raise ValueError(f"{what} has shape {M.shape}, expected ({n}, {n})")
        if len(Ms) != count:
            raise ValueError(f"expected {count} matrices {what}, got {len(Ms)}")
        return np.array(Ms)

    # term j: matrix mats[j] on a window of win[j] steps, weight a[j] + b[j] s
    if which == "amc":
        mats = checked([witness["P"], *witness["Q"]], "P, Q_i", N + 1)
        win, a, b = [mmax, *m], [1.0, *taus], [0.0] + [1.0] * N
    elif which == "th1":
        mats = checked([witness["P"], *witness["S"]], "P, S_i", N + 1)
        win, a, b = [mmax, *m], [1.0] * (N + 1), [0.0] + [1.0 / ti for ti in taus]
    elif which == "th2":
        Rs = checked(witness["R"], "R_i", N)
        Qs = checked(witness["Q"], "Q_i", N)
        As = np.asarray(sys.A)
        W = np.asarray(taus)[:, None, None] * np.swapaxes(As, 1, 2) @ np.linalg.inv(Qs) @ As
        W.reshape(N, n * n)[:, :: n + 1] += float(witness["delta"])  # W_i + delta I
        mats = np.concatenate([Rs, W])
        win, a, b = m + m, [float(witness["eps"])] * N + list(taus), [0.0] * N + [1.0] * N
    else:
        raise ValueError(f"unknown functional {which!r}; expected amc, th1, or th2")

    a, b = np.array([a, b])[:, :, None]
    coef = _trapezoid_weights(win, h, mmax) * (a + b * ((np.arange(mmax + 1) - mmax) * h))
    # sum_k coef[j, k] x_k.T M_j x_k as <M_j, sum_k coef[j, k] x_k x_k.T>
    vals = traj.samples[k - mmax : k + 1]
    gram = coef @ (vals[:, :, None] * vals[:, None, :]).reshape(mmax + 1, n * n)
    return float(np.vdot(mats, gram))


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
