"""Eigenvalue-based stability tests built on Kronecker products.

The central quantity is rho(sum_i tau_i^2 A_i (x) A_i); the system is
exponentially stable when it is below 1/N.  Weighted variants replace the
uniform 1/N split by an optimizable point of the open simplex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .lmi_core import DEFAULT_SEED
from .model import DiscreteIds, IdsSystem

__all__ = [
    "SpectralVerdict",
    "EigNonconvergence",
    "NonFiniteError",
    "kron",
    "spectral_radius",
    "check_spectral",
    "check_spectral_weighted",
    "optimize_weights",
    "operator_block",
    "single_delay_checks",
    "SingleDelayChecks",
    "laa_spectral",
]

_BOUNDARY_TOL = 1e-12


class EigNonconvergence(RuntimeError):
    """The QR eigenvalue iteration failed to converge."""


class NonFiniteError(ValueError):
    """A matrix has inf or nan entries, e.g. a Kronecker sum that overflowed."""


@dataclass(frozen=True)
class SpectralVerdict:
    """Outcome of a strict spectral-radius test.

    ``passed`` is rho < threshold strictly; a tie within 1e-12 is reported
    as a failure with ``boundary`` set.
    """

    rho: float
    threshold: float
    passed: bool
    boundary: bool = False


def _verdict(rho: float, threshold: float) -> SpectralVerdict:
    if abs(rho - threshold) < _BOUNDARY_TOL:
        return SpectralVerdict(rho, threshold, False, boundary=True)
    return SpectralVerdict(rho, threshold, rho < threshold)


def kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product of two square matrices."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError("kron expects square matrices")
    return np.kron(A, B)


def spectral_radius(M: np.ndarray):
    """Largest eigenvalue modulus (Hessenberg reduction + shifted QR).

    A stack of k square matrices, shape (k, n, n), gives the array of their
    k radii from one batched eigenvalue call.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim not in (2, 3) or M.shape[-1] != M.shape[-2]:
        raise ValueError("spectral_radius expects a square matrix or a stack of them")
    if not np.all(np.isfinite(M)):
        raise NonFiniteError("spectral_radius: inf or nan entries (did a Kronecker sum overflow?)")
    try:
        ev = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as e:
        raise EigNonconvergence(f"eigenvalue iteration did not converge: {e}") from e
    rho = np.abs(ev).max(axis=-1, initial=0.0)
    return float(rho) if M.ndim == 2 else rho


def _kron_sum(sys: IdsSystem) -> np.ndarray:
    return sum(t * t * kron(A, A) for A, t in zip(sys.A, sys.tau))


def check_spectral(sys: IdsSystem) -> SpectralVerdict:
    """Strict test rho(sum_i tau_i^2 A_i (x) A_i) < 1/N."""
    return _verdict(spectral_radius(_kron_sum(sys)), 1.0 / sys.N)


def weighted_kron_sum(sys: IdsSystem, alpha) -> np.ndarray:
    return sum(
        (t * t / a) * kron(A, A) for A, t, a in zip(sys.A, sys.tau, alpha)
    )


def _check_weights(alpha, N: int) -> tuple[float, ...]:
    alpha = tuple(float(a) for a in alpha)
    if len(alpha) != N:
        raise ValueError(f"expected {N} weights, got {len(alpha)}")
    if any(a <= 0.0 or a >= 1.0 for a in alpha) and N > 1:
        raise ValueError("weights must lie in the open interval (0, 1)")
    if N == 1 and alpha[0] != 1.0:
        raise ValueError("a single-term system forces alpha = (1,)")
    if abs(sum(alpha) - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1 (got {sum(alpha)!r})")
    return alpha


def check_spectral_weighted(sys: IdsSystem, alpha) -> SpectralVerdict:
    """Strict test rho(sum_i (tau_i^2/alpha_i) A_i (x) A_i) < 1 for simplex weights."""
    alpha = _check_weights(alpha, sys.N)
    return _verdict(spectral_radius(weighted_kron_sum(sys, alpha)), 1.0)


def _golden_section(fun, lo: float, hi: float, tol: float = 1e-12) -> float:
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = fun(c), fun(d)
    while hi - lo > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = fun(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = fun(d)
    return 0.5 * (lo + hi)


def optimize_weights(sys: IdsSystem, seed: int = DEFAULT_SEED) -> tuple[tuple[float, ...], float]:
    """Search the open simplex for weights minimizing the weighted radius.

    N=2 uses a coarse scan plus golden-section refinement; N>=3 a seeded
    Nelder-Mead search in a softmax parametrization with 20 restarts.  The
    uniform point is always a candidate, so the result never loses to it.
    Deterministic for a fixed seed.
    """
    N = sys.N
    Ks = [t * t * kron(A, A) for A, t in zip(sys.A, sys.tau)]

    def rho_at(alpha) -> float:
        return spectral_radius(sum(K / a for K, a in zip(Ks, alpha)))

    if N == 1:
        return (1.0,), rho_at((1.0,))

    delta = 1e-3
    uniform = tuple(1.0 / N for _ in range(N))
    best_alpha, best_rho = uniform, rho_at(uniform)

    if N == 2:
        grid = np.linspace(delta, 1.0 - delta, 512)
        vals = spectral_radius(Ks[0] / grid[:, None, None] + Ks[1] / (1.0 - grid)[:, None, None])
        i = int(np.argmin(vals))
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, len(grid) - 1)]
        a1 = _golden_section(lambda a: rho_at((a, 1.0 - a)), lo, hi)
        a1 = min(max(a1, delta), 1.0 - delta)
        cand = (a1, 1.0 - a1)
        r = rho_at(cand)
        if r < best_rho:
            best_alpha, best_rho = cand, r
        return best_alpha, best_rho

    def softmax(z: np.ndarray) -> np.ndarray:
        e = np.exp(z - z.max())
        p = e / e.sum()
        p = np.clip(p, delta, None)
        return p / p.sum()

    rng = np.random.default_rng(seed)
    for trial in range(20):
        z0 = np.zeros(N) if trial == 0 else rng.standard_normal(N)
        res = minimize(
            lambda z: rho_at(softmax(z)),
            z0,
            method="Nelder-Mead",
            options={"maxiter": 400, "xatol": 1e-10, "fatol": 1e-12},
        )
        alpha = tuple(float(a) for a in softmax(res.x))
        r = rho_at(alpha)
        if r < best_rho:
            best_alpha, best_rho = alpha, r
    return best_alpha, best_rho


def operator_block(sys: IdsSystem) -> np.ndarray:
    """The N n^2 x N n^2 block matrix with constant block-rows tau_i^2 A_i.T (x) A_i.T.

    Its spectral radius equals check_spectral(sys).rho: the matrix factors
    as B C with B the stacked column of block-rows and C a row of identities,
    and rho(BC) = rho(CB).
    """
    rows = []
    for A, t in zip(sys.A, sys.tau):
        blk = t * t * kron(A.T, A.T)
        rows.append([blk] * sys.N)
    return np.block(rows)


@dataclass(frozen=True)
class SingleDelayChecks:
    rho: float
    norm: float
    rho_pass: bool
    norm_pass: bool


def single_delay_checks(A1: np.ndarray, tau1: float) -> SingleDelayChecks:
    """Single-term tests rho(A1) < 1/tau1 and ||A1|| < 1/tau1.

    The norm test is the more conservative of the two (rho <= ||.||), so
    norm_pass implies rho_pass.
    """
    if tau1 <= 0:
        raise ValueError("tau1 must be positive")
    r = spectral_radius(np.asarray(A1, dtype=float))
    nrm = float(np.linalg.norm(np.asarray(A1, dtype=float), 2))
    bound = 1.0 / tau1
    return SingleDelayChecks(r, nrm, r < bound, nrm < bound)


def laa_spectral(sys: DiscreteIds) -> SpectralVerdict:
    """Delay-independent test rho(sum_i A_i (x) A_i) < 1/N for pointwise delays."""
    M = sum(kron(A, A) for A in sys.A)
    return _verdict(spectral_radius(M), 1.0 / sys.N)
