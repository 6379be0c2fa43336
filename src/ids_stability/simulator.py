"""Time-domain integration of the integral delay dynamics.

Discretization: the state grid has step h, each delay is snapped to the
grid (tau_i -> round(tau_i/h) h, perturbation recorded), and the window
integral uses the composite trapezoid rule.  The unknown endpoint x(t)
enters with weight h/2, so each step is one n x n linear solve

    (I - (h/2) sum_i A_i) x(t) = known quadrature of the history.

The module also fits exponential decay envelopes and evaluates the
certificate functionals of the LMI criteria along trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

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
        """Function s -> R^n on [-tau, 0] (extended by clamping outside).

        An array of k times gives a (k, n) array, one row per time.
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
    ``hist_len`` hold the initial condition, later rows satisfy the
    discretized dynamics with relative residual at most ``max_residual``.
    """

    h: float
    T: float
    samples: np.ndarray
    hist_len: int
    tau_snapped: tuple[float, ...]
    snap_error: float
    sup_history: float
    max_residual: float
    decay_fit: tuple[float, float] | None = None

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
    singular (halving h changes the matrix and usually cures it).
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
    sup_history = float(np.max(np.linalg.norm(X[: khist + 1], axis=1)))

    M = (h / 2.0) * sum(sys.A)
    step_mat = np.eye(n) - M
    if np.linalg.cond(step_mat) > 1e12:
        raise SimulationError(
            "implicit step matrix (I - (h/2) sum A_i) is numerically singular; try halving h"
        )
    max_residual = 0.0
    for k in range(khist + 1, khist + steps + 1):
        r = np.zeros(n)
        for Ai, mi in zip(sys.A, m):
            # summed directly: a running-sum difference would keep a
            # rounding error of eps * |running sum| that never decays with x
            inner = X[k - mi + 1 : k].sum(axis=0)
            r += Ai @ (h * (0.5 * X[k - mi] + inner))
        x = np.linalg.solve(step_mat, r)
        X[k] = x
        res = np.linalg.norm(step_mat @ x - r)
        max_residual = max(max_residual, res / max(1.0, np.linalg.norm(x)))
    return Trajectory(
        h=h,
        T=steps * h,
        samples=X,
        hist_len=khist,
        tau_snapped=tau_snapped,
        snap_error=snap_error,
        sup_history=sup_history,
        max_residual=max_residual,
    )


def make_compatible(sys: IdsSystem, history: HistorySpec, quad_points: int = 8192) -> HistorySpec:
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
        vals = base(np.linspace(-ti, 0.0, quad_points + 1))
        integ = np.trapezoid(vals, dx=ti / quad_points, axis=0)
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
    # exclude the underflow tail of very fast decays; it flattens the fit
    pos = env > env.max() * 1e-200
    if pos.sum() < 2:
        fit = (1.0, math.inf)
        traj.decay_fit = fit
        return fit
    slope, intercept = np.polyfit(t[pos], np.log(env[pos]), 1)
    if slope >= 0:
        return None
    alpha = math.exp(intercept) / traj.sup_history if traj.sup_history > 0 else math.exp(intercept)
    fit = (float(alpha), float(-slope))
    traj.decay_fit = fit
    return fit


def _window_quad(traj: Trajectory, k_end: int, mi: int, M: np.ndarray, weight) -> float:
    """Trapezoid of weight(s) * x(t+s).T M x(t+s) over s in [-mi*h, 0]."""
    vals = traj.samples[k_end - mi : k_end + 1]
    q = np.einsum("ki,ij,kj->k", vals, M, vals)
    s = (np.arange(mi + 1) - mi) * traj.h
    f = q if weight is None else weight(s) * q
    return float(np.trapezoid(f, dx=traj.h))


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

    Snapped delays are used throughout so V is consistent with the
    discretized dynamics; t must lie on the grid in [0, T - max(tau)].
    """
    taus = traj.tau_snapped
    tau = max(taus)
    if t < -1e-12 or t > traj.T - tau + 1e-12:
        raise ValueError(f"t={t} outside [0, T - tau] = [0, {traj.T - tau:.6g}]")
    k = traj.index_of(t)
    m = [int(round(ti / traj.h)) for ti in taus]
    mmax = max(m)
    n = traj.n

    def dim_checked(M, what) -> np.ndarray:
        M = np.asarray(M, dtype=float)
        if M.shape != (n, n):
            raise ValueError(f"{what} has shape {M.shape}, expected ({n}, {n})")
        return M

    if which == "amc":
        P = dim_checked(witness["P"], "P")
        Qs = [dim_checked(Qi, "Q_i") for Qi in witness["Q"]]
        V = _window_quad(traj, k, mmax, P, None)
        for Qi, mi, ti in zip(Qs, m, taus):
            V += _window_quad(traj, k, mi, Qi, lambda s, ti=ti: s + ti)
        return V
    if which == "th1":
        P = dim_checked(witness["P"], "P")
        Ss = [dim_checked(Si, "S_i") for Si in witness["S"]]
        V = _window_quad(traj, k, mmax, P, None)
        for Si, mi, ti in zip(Ss, m, taus):
            V += _window_quad(traj, k, mi, Si, lambda s, ti=ti: s / ti + 1.0)
        return V
    if which == "th2":
        Rs = [dim_checked(Ri, "R_i") for Ri in witness["R"]]
        Qs = [dim_checked(Qi, "Q_i") for Qi in witness["Q"]]
        delta = float(witness["delta"])
        eps = float(witness["eps"])
        V = 0.0
        for Ri, mi in zip(Rs, m):
            V += eps * _window_quad(traj, k, mi, Ri, None)
        for Ai, Qi, mi, ti in zip(sys.A, Qs, m, taus):
            W = ti * Ai.T @ np.linalg.inv(Qi) @ Ai + delta * np.eye(n)
            V += _window_quad(traj, k, mi, W, lambda s, ti=ti: s + ti)
        return V
    raise ValueError(f"unknown functional {which!r}; expected amc, th1, or th2")


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
