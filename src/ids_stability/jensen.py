"""Numerical gap evaluators for the Jensen-type quadratic bounds.

Each ``gap_*`` function returns RHS - LHS of one inequality; all are
nonnegative in exact arithmetic.  Integrals use the composite trapezoid rule
on the uniform sample grid, which preserves nonnegativity exactly (the
discretized bound is itself a weighted discrete instance of the same
inequality), so computed gaps can only dip below zero by rounding error.
The ``*_budget`` helpers give an explicit quadrature error allowance
10 h^2 (max||w||)^2 lambda_max(weight) per integral term for convergence
assertions against the continuous values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SampledFunction",
    "gap_continuous",
    "gap_continuous_budget",
    "gap_discrete",
    "gap_discrete_multi",
    "gap_multiple",
    "gap_multiple_budget",
    "gap_shared_weight",
    "gap_shared_weight_budget",
]


@dataclass(frozen=True)
class SampledFunction:
    """Vector-valued function on [-tau, 0] sampled on a uniform grid.

    ``values`` has shape (m+1, n) with m >= 2 panels; row k is the value at
    s = -tau + k*h, h = tau/m.
    """

    tau: float
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if v.ndim != 2 or v.shape[0] < 3:
            raise ValueError("need at least 3 samples (m >= 2) of vectors")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_callable(cls, fn, tau: float, m: int) -> "SampledFunction":
        s = np.linspace(-tau, 0.0, m + 1)
        return cls(tau=tau, values=np.array([np.atleast_1d(fn(si)) for si in s], dtype=float))

    @property
    def m(self) -> int:
        return self.values.shape[0] - 1

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def h(self) -> float:
        return self.tau / self.m

    @property
    def weights(self) -> np.ndarray:
        w = np.full(self.m + 1, self.h)
        w[0] = w[-1] = 0.5 * self.h
        return w

    def integral(self) -> np.ndarray:
        return self.weights @ self.values

    def quad_form_integral(self, M: np.ndarray) -> float:
        q = np.einsum("ki,ij,kj->k", self.values, M, self.values)
        return float(self.weights @ q)

    def max_norm(self) -> float:
        return float(np.max(np.linalg.norm(self.values, axis=1)))


def _check_dim(M: np.ndarray, n: int, what: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.shape != (n, n):
        raise ValueError(f"{what} has shape {M.shape}, expected ({n}, {n})")
    return M


def gap_continuous(omega: SampledFunction, Q: np.ndarray) -> float:
    """tau * int w.T Q w  minus  (int w).T Q (int w)."""
    Q = _check_dim(Q, omega.n, "Q")
    x = omega.integral()
    return omega.tau * omega.quad_form_integral(Q) - float(x @ Q @ x)


def gap_continuous_budget(omega: SampledFunction, Q: np.ndarray) -> float:
    lam = float(np.linalg.eigvalsh(0.5 * (Q + Q.T))[-1])
    return 10.0 * omega.h**2 * omega.max_norm() ** 2 * lam


def gap_discrete(xi, Q: np.ndarray) -> float:
    """N * sum xi.T Q xi  minus  (sum xi).T Q (sum xi)."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    Q = _check_dim(Q, xi.shape[1], "Q")
    s = xi.sum(axis=0)
    rhs = xi.shape[0] * float(np.einsum("ki,ij,kj->", xi, Q, xi))
    return rhs - float(s @ Q @ s)


def gap_discrete_multi(xi, Q_list) -> float:
    """sum xi_i.T Q_i^-1 xi_i  minus  (sum xi).T (sum Q_i)^-1 (sum xi)."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    n = xi.shape[1]
    if len(Q_list) != xi.shape[0]:
        raise ValueError(f"expected {xi.shape[0]} weight matrices, got {len(Q_list)}")
    Qs = [_check_dim(Q, n, f"Q[{i}]") for i, Q in enumerate(Q_list)]
    s = xi.sum(axis=0)
    rhs = sum(float(x @ np.linalg.solve(Q, x)) for x, Q in zip(xi, Qs))
    lhs = float(s @ np.linalg.solve(sum(Qs), s))
    return rhs - lhs


def gap_multiple(omegas, Q_list) -> float:
    """Individually weighted integral bound:

        sum_i tau_i * int w_i.T Q_i^-1 w_i  minus  (sum x_i).T (sum Q_i)^-1 (sum x_i)

    with x_i the integral of w_i over its own window.
    """
    if len(omegas) != len(Q_list):
        raise ValueError("need one weight matrix per function")
    n = omegas[0].n
    Qs = [_check_dim(Q, n, f"Q[{i}]") for i, Q in enumerate(Q_list)]
    rhs = 0.0
    xsum = np.zeros(n)
    for om, Q in zip(omegas, Qs):
        if om.n != n:
            raise ValueError("all functions must share one dimension")
        rhs += om.tau * om.quad_form_integral(np.linalg.inv(Q))
        xsum += om.integral()
    lhs = float(xsum @ np.linalg.solve(sum(Qs), xsum))
    return rhs - lhs


def gap_multiple_budget(omegas, Q_list) -> float:
    total = 0.0
    for om, Q in zip(omegas, Q_list):
        W = om.tau * np.linalg.inv(np.asarray(Q, dtype=float))
        lam = float(np.linalg.eigvalsh(0.5 * (W + W.T))[-1])
        total += 10.0 * om.h**2 * om.max_norm() ** 2 * lam
    return total


def gap_shared_weight(omegas, Q: np.ndarray) -> float:
    """Shared-weight bound obtained by chaining the discrete and continuous
    inequalities:

        N * sum_i tau_i * int w_i.T Q w_i  minus  (sum x_i).T Q (sum x_i).
    """
    n = omegas[0].n
    Q = _check_dim(Q, n, "Q")
    N = len(omegas)
    rhs = 0.0
    xsum = np.zeros(n)
    for om in omegas:
        if om.n != n:
            raise ValueError("all functions must share one dimension")
        rhs += om.tau * om.quad_form_integral(Q)
        xsum += om.integral()
    return N * rhs - float(xsum @ Q @ xsum)


def gap_shared_weight_budget(omegas, Q: np.ndarray) -> float:
    lam = float(np.linalg.eigvalsh(0.5 * (np.asarray(Q) + np.asarray(Q).T))[-1])
    N = len(omegas)
    return sum(
        10.0 * om.h**2 * om.max_norm() ** 2 * lam * N * max(om.tau, 1.0)
        for om in omegas
    )
