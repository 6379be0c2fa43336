"""Eigenvalue-based stability tests built on Kronecker products.

The central quantity is rho(sum_i tau_i^2 A_i (x) A_i); the system is
exponentially stable when it is below 1/N.  Weighted variants replace the
uniform 1/N split by the point of the open simplex that minimizes the weighted
radius, which is convex in the weights: one Nelder-Mead descent finds it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .model import DiscreteIds, IdsSystem

__all__ = [
    "SpectralVerdict",
    "NonFiniteError",
    "kron",
    "kron_operator",
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


class NonFiniteError(ValueError):
    """A matrix has inf or nan entries, e.g. a Kronecker sum that overflowed."""


@dataclass(frozen=True)
class SpectralVerdict:
    """Outcome of a strict spectral-radius test.

    ``passed`` is rho < threshold strictly; a tie within 1e-12 is reported
    as a failure with ``boundary`` set.  ``alpha`` holds the simplex weights
    of a weighted test (None for the unweighted ones).
    """

    rho: float
    threshold: float
    passed: bool
    boundary: bool = False
    alpha: tuple[float, ...] | None = None


def _verdict(rho: float, threshold: float, alpha=None) -> SpectralVerdict:
    boundary = abs(rho - threshold) < _BOUNDARY_TOL
    return SpectralVerdict(rho, threshold, not boundary and rho < threshold, boundary, alpha)


def kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product of two square matrices."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError("kron expects square matrices")
    return np.kron(A, B)


def kron_operator(As, weights) -> np.ndarray:
    """The Kronecker sum sum_i w_i A_i (x) A_i.

    The transpose is the row-major vec matrix of T -> sum_i w_i A_i.T T A_i,
    since A.T (x) A.T = (A (x) A).T.  A term whose product A_i (x) A_i
    overflows is formed as (sqrt(w_i) A_i) (x) (sqrt(w_i) A_i), which is
    finite when w_i brings it back into range (entries near 1e160 at
    tau = 1e-10); the other terms keep the unscaled product, whose digits
    the scaling would move.  Overflow that remains, and the nan of an
    infinite weight times a zero entry, is left to the caller:
    ``spectral_radius`` rejects the non-finite sum.
    """

    def term(A, w):
        AA = kron(A, A)
        if np.isfinite(AA).all():
            return w * AA
        r = np.sqrt(w)
        return kron(r * A, r * A)

    with np.errstate(over="ignore", invalid="ignore"):
        return sum(term(A, w) for A, w in zip(As, weights))


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
    rho = np.abs(np.linalg.eigvals(M)).max(axis=-1, initial=0.0)
    return float(rho) if M.ndim == 2 else rho


def check_spectral(sys: IdsSystem) -> SpectralVerdict:
    """Strict test rho(sum_i tau_i^2 A_i (x) A_i) < 1/N."""
    M = kron_operator(sys.A, [t * t for t in sys.tau])
    return _verdict(spectral_radius(M), 1.0 / sys.N)


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
    M = kron_operator(sys.A, [t * t / a for t, a in zip(sys.tau, alpha)])
    return _verdict(spectral_radius(M), 1.0, alpha)


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


def optimize_weights(sys: IdsSystem) -> tuple[tuple[float, ...], float]:
    """Minimize phi(alpha) = rho(sum_i tau_i^2 A_i (x) A_i / alpha_i) over the
    open simplex: for N=2 by a coarse scan plus golden-section refinement, for
    N>=3 by one Nelder-Mead descent from the uniform point over N-1 softmax
    logits (the last pinned at 0: softmax ignores a common shift).  The
    result never loses to the uniform point.

    One descent suffices: phi is convex, so every local minimum is global
    (Kingman 1961; Nussbaum 1986).  The Kronecker sum at weights e^{x_i} is
    the vec matrix of the positive map Phi_x(T) = sum_i e^{x_i} tau_i^2
    A_i.T T A_i.  By Russo-Dye ||Phi^k|| = ||Phi^k(I)||, within a factor n
    of tr Phi^k(I), so rho(Phi_x) = lim_k (tr Phi_x^k(I))^(1/k).  Over words
    w in {1..N}^k, tr Phi_x^k(I) = sum_w tr(M_w) exp(x_w1 + ... + x_wk) with
    every M_w PSD: a log-sum-exp of affine functions of x with nonnegative
    weights.  So log rho(Phi_x) is convex and nondecreasing in x; with the
    convex x_i = -log alpha_i, log phi and hence phi are convex in alpha.
    """
    N = sys.N
    Ks = [kron_operator((A,), (t * t,)) for A, t in zip(sys.A, sys.tau)]

    def rho_at(alpha) -> float:
        return spectral_radius(sum(K / a for K, a in zip(Ks, alpha)))

    if N == 1:
        return (1.0,), rho_at((1.0,))

    delta = 1e-3
    uniform = tuple(1.0 / N for _ in range(N))
    rho_uniform = rho_at(uniform)

    if N == 2:
        grid = np.linspace(delta, 1.0 - delta, 512)
        vals = spectral_radius(Ks[0] / grid[:, None, None] + Ks[1] / (1.0 - grid)[:, None, None])
        i = int(np.argmin(vals))
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, len(grid) - 1)]
        a1 = _golden_section(lambda a: rho_at((a, 1.0 - a)), lo, hi)
        a1 = min(max(a1, delta), 1.0 - delta)
        cand = (a1, 1.0 - a1)
    else:
        def softmax(z: np.ndarray) -> np.ndarray:
            z = np.append(z, 0.0)
            e = np.exp(z - z.max())
            p = np.clip(e / e.sum(), delta, None)
            return p / p.sum()

        res = minimize(
            lambda z: rho_at(softmax(z)),
            np.zeros(N - 1),
            method="Nelder-Mead",
            options={"maxiter": 400, "xatol": 1e-10, "fatol": 1e-12},
        )
        cand = tuple(float(a) for a in softmax(res.x))
    r = rho_at(cand)
    return (cand, r) if r < rho_uniform else (uniform, rho_uniform)


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

    @property
    def passed(self) -> bool:
        """The criterion's verdict: the spectral-radius test."""
        return self.rho_pass


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
    M = kron_operator(sys.A, [1.0] * sys.N)
    return _verdict(spectral_radius(M), 1.0 / sys.N)
