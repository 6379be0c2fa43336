"""Eigenvalue-based stability tests built on Kronecker products.

The central quantity is rho(sum_i tau_i^2 A_i (x) A_i); the system is
exponentially stable when it is below 1/N, and ``spectral_margin`` gives the
delay at which it reaches 1/N in closed form.  Weighted variants replace the
uniform 1/N split by the point of the open simplex that minimizes the weighted
radius, which is convex in the weights: Newton steps with the Perron root's
exact Hessian to a Frank-Wolfe certificate where the root is smooth, and
ellipsoid cuts on the same gradient where not, for any number of delays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DiscreteIds, IdsSystem

__all__ = [
    "SpectralVerdict",
    "NonFiniteError",
    "kron",
    "kron_operator",
    "spectral_radius",
    "check_spectral",
    "spectral_margin",
    "check_spectral_weighted",
    "optimize_weights",
    "operator_block",
    "single_delay_checks",
    "SingleDelayChecks",
    "laa_spectral",
]

_BOUNDARY_TOL = 1e-12
_ROUNDING = 1e-9  # the relative guard of a bound that decides optimize_weights' level


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
    """Kronecker product of two square matrices (np.kron's products)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError("kron expects square matrices")
    n = A.shape[0] * B.shape[0]
    return (A[:, None, :, None] * B[None, :, None, :]).reshape(n, n)


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


def spectral_radius(M: np.ndarray) -> float:
    """Largest eigenvalue modulus (Hessenberg reduction + shifted QR)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("spectral_radius expects a square matrix")
    if not np.all(np.isfinite(M)):
        raise NonFiniteError("spectral_radius: inf or nan entries (did a Kronecker sum overflow?)")
    return float(np.abs(np.linalg.eigvals(M)).max(initial=0.0))


def check_spectral(sys: IdsSystem) -> SpectralVerdict:
    """Strict test rho(sum_i tau_i^2 A_i (x) A_i) < 1/N."""
    M = kron_operator(sys.A, [t * t for t in sys.tau])
    return _verdict(spectral_radius(M), 1.0 / sys.N)


def spectral_margin(sys: IdsSystem, k: int) -> float | None:
    """The value of delay k at which N rho(sum_i tau_i^2 A_i (x) A_i)
    reaches 1, from one regular splitting (Varga, *Matrix Iterative
    Analysis*; Berman & Plemmons, *Nonnegative Matrices in the Mathematical
    Sciences*).  With F = sum_{i != k} tau_i^2 A_i (x) A_i, K_k = A_k (x) A_k
    and c = 1/N, every operator here preserves the PSD cone, and so does
    (cI - F)^-1 = sum_j F^j / c^(j+1) when rho(F) < c; then rho(F + s K_k) <
    c exactly when s rho((cI - F)^-1 K_k) < 1.  So the margin is tau_k* =
    rho((cI - F)^-1 K_k)^(-1/2): 0.0 when rho(F) >= c, inf when that radius
    is 0, and None when it cannot be computed (a Kronecker product that
    overflows, a singular solve).
    """
    c = 1.0 / sys.N
    w = [t * t for t in sys.tau]
    w[k] = 0.0
    F, K = kron_operator(sys.A, w), kron_operator((sys.A[k],), (1.0,))
    try:
        if spectral_radius(F) >= c:
            return 0.0
        if not np.isfinite(K).all():
            return None
        r = spectral_radius(np.linalg.solve(c * np.eye(len(F)) - F, K))
    except (NonFiniteError, np.linalg.LinAlgError):
        return None
    return math.inf if r == 0.0 else r**-0.5


def _check_weights(alpha, N: int) -> tuple[float, ...]:
    alpha = tuple(float(a) for a in alpha)
    if len(alpha) != N:
        raise ValueError(f"expected {N} weights, got {len(alpha)}")
    if not np.isfinite(alpha).all():
        raise ValueError(f"weights must be finite (got {alpha!r})")
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


def dominant_index(w: np.ndarray) -> int | None:
    """Index of the dominant eigenvalue among the eigenvalues w: of those
    within 1e-9 of the largest modulus and real to 1e-9 (1 + radius), the one
    of largest real part (rotation terms tie at -rho, cyclic shifts at
    rho e^(+-2 pi i/3)); None when none of them is real."""
    mod = np.abs(w)
    r = mod[mod.argmax()]  # mod.max(), by the cheaper reduction on a few values
    idx = ((mod >= r * (1 - 1e-9)) & (np.abs(w.imag) <= 1e-9 * (1 + r))).nonzero()[0]
    # argmax keeps the first of equal real parts, as max over the scan did
    return int(idx[w.real[idx].argmax()]) if idx.size else None


def _perron_gradient(Ks: np.ndarray, alpha: np.ndarray) -> tuple[float, np.ndarray | None, tuple | None]:
    """(phi, d phi/d alpha, (w, V, V^-1, i)) for the stacked K_i from one
    eigendecomposition V diag(w) V^-1 of M = sum_i K_i / alpha_i: -u.K_i v /
    alpha_i^2 with v the column of V and u the row of V^-1 (u.v = 1) of the
    real dominant eigenvalue w_i.  The gradient and the decomposition are
    None where there is none or it is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        M = sum(K / a for K, a in zip(Ks, alpha))
        if not np.isfinite(M).all():
            raise NonFiniteError("weighted Kronecker sum has inf or nan entries")
        w, V = np.linalg.eig(M)
        rho, i = float(np.abs(w).max()), dominant_index(w)
        if i is None:
            return rho, None, None
        try:
            Vi = np.linalg.inv(V)
        except np.linalg.LinAlgError:  # dependent eigenvectors
            return rho, None, None
        g = -(Ks @ V[:, i].real) @ Vi[i].real / (alpha * alpha)
    return (rho, g, (w, V, Vi, i)) if np.isfinite(g).all() else (rho, None, None)


def _perron_jacobian(Ks: np.ndarray, alpha: np.ndarray, g: np.ndarray, eig: tuple) -> np.ndarray | None:
    """J = -diag(1/(2 g)) H diag(alpha) for optimize_weights' Hessian H, from
    the gradient g and eigendecomposition eig that _perron_gradient gave at
    alpha; None where a tie couples."""
    w, V, Vi, p = eig
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        Kv, u, lam = Ks @ V[:, p].real, Vi[p].real, w[p].real
        R, C = (u @ Ks) @ V, Kv @ Vi.T
        R[:, p] = C[:, p] = 0.0
        tie = np.abs(lam - w) <= 1e-9 * lam
        # p ties with itself, and its couplings are zeroed
        if tie.sum() > 1 and (((np.abs(R) + np.abs(C)) / alpha[:, None])[:, tie] > 1e-9 * lam).any():
            return None
        S = (np.where(tie, 0.0, R / (lam - w)) @ C.T).real
        J = (S + S.T) / ((-2.0 * g * alpha * alpha)[:, None] * alpha)
        J.flat[:: len(alpha) + 1] += 1.0
        return J


def _newton_weights(Ks, delta: float, c: float = math.inf):
    """((alpha, phi), certified): optimize_weights' Newton search from the
    uniform point, its certified point or where it hands over its best.  It
    stops early, with (None, bound) in place of (alpha, phi), at the first
    evaluation whose Frank-Wolfe bound over the whole simplex, bound = phi -
    (g.alpha - min_i g_i), reaches c (1 + 1e-9): phi is convex, so no
    weights give less."""
    N = len(Ks)
    a, phi, t = np.full(N, 1.0 / N), np.inf, 1.0
    for _ in range(100):
        phi_a, g, eig = _perron_gradient(Ks, a)
        bound = -np.inf if g is None else float(phi_a - (g @ a - g.min()))
        if bound >= c * (1.0 + _ROUNDING):
            return (None, bound), False
        f = min(delta, a.min())
        if g is not None and g @ a - f * g.sum() - (1.0 - N * f) * g.min() <= 1e-12 * phi_a:
            return (tuple(float(x) for x in a), phi_a), True
        if phi_a < phi:
            alpha, phi, t = a, phi_a, 1.0
            J = None if g is None else _perron_jacobian(Ks, alpha, g, eig)
            if J is None:
                break
            share = alpha * np.sqrt(np.abs(g))
            clip = share < delta * share.sum()
            free = np.flatnonzero(~clip)
            m = free.size
            dy = np.where(clip, np.log(delta / (1.0 + delta * clip.sum()) / alpha), 0.0)
            KKT, rhs = np.zeros((m + 1, m + 1)), np.zeros(m + 1)
            KKT[:m, :m], KKT[:m, m], KKT[m, :m] = J[free][:, free], -1.0, alpha[free]
            rhs[:m] = np.log(share[free] / alpha[free]) - J[free] @ dy
            try:
                dy[free] = np.linalg.solve(KKT, rhs)[:m]
            except np.linalg.LinAlgError:
                break
            if not np.isfinite(dy).all():
                break
        elif t > 0.1:
            t *= 0.5
        else:
            break
        a = alpha * np.exp(t * dy)
        a[free] *= (1.0 - a[clip].sum()) / a[free].sum()
    return (tuple(float(x) for x in alpha), phi), False


def _ellipsoid_weights(Ks, delta: float) -> tuple[tuple[float, ...], float]:
    """(alpha, lower bound) for the least phi with every alpha_i >= delta /
    (1 + delta), by central cuts (Shor 1977; Nemirovski & Yudin 1979) in the
    first N - 1 weights x from the ball of radius sqrt(N - 1) about the
    uniform point (at N = 2 an interval, which each cut halves).  A centre
    c with a weight below the clip is cut by that constraint, any other by
    g = d phi/d alpha_<N - d phi/d alpha_N, which need only be a
    subgradient; by convexity the minimum, which lies in the
    ellipsoid {x : (x - c).P^-1 (x - c) <= 1}, is at least phi(c) -
    sqrt(g.P g).  The search stops once the best phi is within 1e-13
    relative of the best such bound, or at a cut that is missing or not
    finite."""
    n, floor = len(Ks) - 1, delta / (1.0 + delta)
    c, P = np.full(n, 1.0 / (n + 1)), n * np.eye(n)
    phi, alpha, bound = np.inf, None, -np.inf
    while True:
        a = np.append(c, 1.0 - c.sum())
        i = int(a.argmin())
        if a[i] < floor:
            rho, g = None, (np.ones(n) if i == n else -np.eye(n)[i])
        else:
            rho, grad, _ = _perron_gradient(Ks, a)
            if rho < phi:
                phi, alpha = rho, a
            if grad is None:
                break
            g = grad[:-1] - grad[-1]
        # the update is scale-free and g.P g overflows for entries near
        # 1e154, so the cut is g / max |g_i| and the bound scales back (in
        # Python floats, which overflow to inf without a warning)
        scale = float(np.abs(g).max()) or 1.0
        if not scale < np.inf:
            break
        g = g / scale
        gPg = g @ P @ g
        if rho is not None and gPg >= 0.0:
            bound = max(bound, rho - scale * float(np.sqrt(gPg)))
        if phi - bound <= 1e-13 * phi or not 0.0 < gPg < np.inf:
            break
        b = P @ g / np.sqrt(gPg)
        c = c - b / (n + 1)
        # at n = 1 the cut is bisection, and the general update divides by 0
        P = P / 4.0 if n == 1 else n * n / (n * n - 1.0) * (P - 2.0 / (n + 1) * np.outer(b, b))
    return tuple(float(x) for x in alpha), float(bound)


def optimize_weights(sys: IdsSystem, c: float = math.inf) -> tuple[tuple[float, ...] | None, float]:
    """Minimize phi(alpha) = rho(sum_i tau_i^2 A_i (x) A_i / alpha_i) over the
    open simplex; returns (alpha, phi(alpha)), never worse than the uniform
    point.  With u, v the left and right Perron vectors of M = sum_i
    K_i/alpha_i (K_i = tau_i^2 A_i (x) A_i), the derivative of a simple
    Perron root (Deutsch & Neumann 1984) is d phi/d alpha_i = -u.K_i v /
    (alpha_i^2 u.v).

    Newton's method, from the uniform point and for every N, solves the KKT
    condition alpha_i proportional to the share sqrt(c_i) = alpha_i
    sqrt(|g_i|), c_i = u.K_i v.  With P_i = V^-1 K_i V, lambda = w_p, R_ik =
    P_i[p, k] and C_ik = P_i[k, p] from the same eigendecomposition, the
    Hessian of a simple root is H_ij = [i = j] 2 c_i / alpha_i^3 + Re
    sum_{k != p} (R_ik C_jk + R_jk C_ik) / ((lambda - w_k) alpha_i^2
    alpha_j^2), without the w_k within 1e-9 lambda of lambda whose couplings
    R_ik/alpha_i, C_ik/alpha_i are below 1e-9 lambda (commuting terms); it
    is formed only where a step is taken.  The k weights with shares below
    delta = 1e-3 of the total step to delta / (1 + k delta); the others
    take a Newton step on y_i - log(share_i) = const in y = log alpha
    (Jacobian -H_ij alpha_j / (2 g_i), sum alpha_i dy_i = 0), fill the
    simplex and are halved until phi falls, until the Frank-Wolfe gap
    g.alpha - min g.beta over the simplex with all beta_i >= min(delta, min
    alpha), a bound on phi - min phi there as phi is convex, is within
    1e-12 phi: 3-5 eigendecompositions on the paper system.  At N = 1, a
    one-point simplex, there is no search: phi is ``check_spectral``'s rho.
    A tie that couples (a kink), no real dominant eigenvalue, a value that
    is not finite, four halvings without descent or 100 evaluations hand
    over to the cuts of ``_ellipsoid_weights`` on the gradient; the better
    of their point and Newton's best is kept.

    A point that meets the KKT condition is the global minimum: phi is
    convex (Kingman 1961; Nussbaum 1986).  The Kronecker sum at weights
    e^{x_i} is the vec matrix of the positive map Phi_x(T) = sum_i e^{x_i}
    tau_i^2 A_i.T T A_i.  By Russo-Dye ||Phi^k|| = ||Phi^k(I)||, within a
    factor n of tr Phi^k(I), so rho(Phi_x) = lim_k (tr Phi_x^k(I))^(1/k).
    Over words w in {1..N}^k, tr Phi_x^k(I) = sum_w tr(M_w) exp(x_w1 + ...
    + x_wk) with every M_w PSD: a log-sum-exp of affine functions of x with
    nonnegative weights.  So log rho(Phi_x) is convex and nondecreasing in
    x; with the convex x_i = -log alpha_i, log phi and hence phi are convex
    in alpha.

    Asked for a level c, it also answers whether some weights give phi < c:
    the search stops at the first Newton evaluation whose Frank-Wolfe bound
    over the whole simplex (see ``_newton_weights``) reaches c (1 + 1e-9),
    and returns (None, bound).  By convexity the bound holds at every
    point, the ellipsoid's included.  The starts of th2-lmi and laa ask at
    c = 1, and spectral-weighted at the default c = inf, which never stops.

    A search that runs to its end is cached on the system (in its
    ``__dict__``), and an early stop or a search that raises caches nothing.
    A system that holds its optimum answers from it with no evaluation:
    (None, phi) where phi reaches the level.
    """
    found = vars(sys).get("optimal_weights")
    if found is None:
        found = _minimize_weights(sys, c)
        if found[0] is None:
            return found
        found = vars(sys).setdefault("optimal_weights", found)
    return (None, found[1]) if found[1] >= c * (1.0 + _ROUNDING) else found


def _minimize_weights(sys: IdsSystem, c: float = math.inf) -> tuple[tuple[float, ...] | None, float]:
    Ks = np.stack([kron_operator((A,), (t * t,)) for A, t in zip(sys.A, sys.tau)])
    if sys.N == 1:  # a one-point simplex
        return (1.0,), spectral_radius(Ks[0])
    found, certified = _newton_weights(Ks, 1e-3, c)
    if found[0] is None or certified:  # a bound reached c, or the optimum
        return found
    cand = _ellipsoid_weights(Ks, 1e-3)[0]
    return min(found, (cand, spectral_radius(sum(K / a for K, a in zip(Ks, cand)))), key=lambda x: x[1])


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
    """Delay-independent test rho(sum_i A_i (x) A_i) < 1/N: ``check_spectral`` at unit delays."""
    return check_spectral(IdsSystem(A=sys.A, tau=tuple(1.0 for _ in sys.A)))
