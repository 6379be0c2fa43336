import math
import threading
import warnings
from sys import getswitchinterval, setswitchinterval

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from ids_stability import criteria_spectral
from ids_stability.criteria_spectral import (
    NonFiniteError,
    check_spectral,
    check_spectral_weighted,
    kron,
    kron_operator,
    laa_spectral,
    mu_margin,
    operator_block,
    optimize_weights,
    single_delay_checks,
    spectral_radius,
)
from ids_stability.criteria_lmi import build_th2_lmi
from ids_stability.margin import criterion_feasible, evaluate_criterion
from ids_stability.model import DiscreteIds, IdsSystem, benchmark_system, validate_system
from ids_stability.suites import random_corpus

A1 = np.array([[-4.0, 1.0], [-13.0, 2.0]])
A2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def test_kron_identity():
    np.testing.assert_array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_of_rotation_has_unit_radius():
    # eigenvalues of the rotation block are +-i; pairwise products have modulus 1
    assert abs(spectral_radius(kron(A2, A2)) - 1.0) < 1e-12


def test_kron_square_law_on_random_matrices():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        A = rng.standard_normal((n, n))
        r = spectral_radius(A)
        assert abs(spectral_radius(kron(A, A)) - r * r) <= 1e-9 * max(1.0, r * r)


def test_kron_rejects_nonsquare():
    with pytest.raises(ValueError):
        kron(np.zeros((2, 3)), np.eye(2))


def _three_term_corpus_system():
    return next(s for s in random_corpus(2024, 100) if s.N == 3)


@pytest.mark.parametrize(
    "s", [benchmark_system(0.3, 0.1), _three_term_corpus_system()], ids=["paper", "corpus-N3"]
)
def test_kron_operator_is_bitwise_the_np_kron_sum(s):
    weights = [t * t for t in s.tau]
    reference = sum(w * np.kron(A, A) for A, w in zip(s.A, weights))
    np.testing.assert_array_equal(kron_operator(s.A, weights), reference)


def test_spectral_radius_known_values():
    assert abs(spectral_radius(A1) - math.sqrt(5)) < 1e-12
    assert abs(spectral_radius(0.4473 * A1) - 0.4473 * math.sqrt(5)) < 1e-12
    assert spectral_radius(np.zeros((3, 3))) == 0.0


def test_check_spectral_benchmark_rows():
    assert check_spectral(benchmark_system(0.3, 0.0474)).passed
    assert not check_spectral(benchmark_system(0.3, 0.048)).passed


def test_check_spectral_single_term_boundary():
    # the single-term boundary is tau = 1/sqrt(5) ~ 0.44721; the rounded
    # value 0.4473 lies just outside (0.4473 * sqrt(5) > 1) and must fail
    # the strict test
    below = validate_system(IdsSystem(A=(A1,), tau=(0.4472,)))
    above = validate_system(IdsSystem(A=(A1,), tau=(0.4473,)))
    assert check_spectral(below).passed
    assert not check_spectral(above).passed
    assert abs(check_spectral(above).rho - (0.4473 * math.sqrt(5)) ** 2) < 1e-12


def test_check_spectral_zero_system():
    s = validate_system(IdsSystem(A=(np.zeros((2, 2)),), tau=(1.0,)))
    v = check_spectral(s)
    assert v.rho == 0.0 and v.passed


def test_boundary_tie_flagged_as_fail():
    s = validate_system(IdsSystem(A=(np.array([[1.0]]),), tau=(1.0,)))
    v = check_spectral(s)
    assert not v.passed and v.boundary


def test_weighted_matches_hand_picked_value():
    v = check_spectral_weighted(benchmark_system(0.4, 0.02), (0.9, 0.1))
    assert abs(v.rho - 0.9783) < 1e-3
    assert v.passed


def test_weighted_uniform_reduces_to_unweighted():
    s = benchmark_system(0.3, 0.07)
    vu = check_spectral_weighted(s, (0.5, 0.5))
    v = check_spectral(s)
    assert abs(vu.rho - s.N * v.rho) < 1e-12
    assert vu.passed == v.passed


def test_weighted_rejects_bad_weights():
    s = benchmark_system()
    with pytest.raises(ValueError):
        check_spectral_weighted(s, (0.5, 0.6))
    with pytest.raises(ValueError):
        check_spectral_weighted(s, (1.0, 0.0))


def test_optimize_weights_beats_hand_choice():
    alpha, rho = optimize_weights(benchmark_system(0.4, 0.02))
    assert rho <= 0.9783 + 1e-6
    assert abs(sum(alpha) - 1.0) < 1e-9


def test_optimize_weights_symmetric_system():
    s = validate_system(IdsSystem(A=(A1, A1), tau=(0.1, 0.1)))
    alpha, rho = optimize_weights(s)
    assert abs(alpha[0] - 0.5) < 1e-3
    u = check_spectral_weighted(s, (0.5, 0.5)).rho
    assert rho <= u + 1e-12


def test_optimize_weights_single_term(monkeypatch):
    # a one-point simplex needs no search: the radius is check_spectral's,
    # bit for bit, with no eigendecomposition
    s = validate_system(IdsSystem(A=(A1,), tau=(0.2,)))
    calls, eig = [], np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda X: calls.append(1) or eig(X))
    alpha, rho = optimize_weights(s)
    assert alpha == (1.0,) and not calls
    assert rho == check_spectral(s).rho


def _scan_and_golden_section(s, delta=1e-3):
    """phi at the N = 2 weights optimize_weights found before bisection: a
    512-point scan, golden-section refinement between the neighbours of its
    best point, and the better of that point and the uniform one."""
    Ks = [t * t * kron(A, A) for A, t in zip(s.A, s.tau)]

    def rho_at(a):
        return spectral_radius(Ks[0] / a + Ks[1] / (1.0 - a))

    grid = np.linspace(delta, 1.0 - delta, 512)
    vals = [rho_at(a) for a in grid]
    stack = np.stack([Ks[0] / a + Ks[1] / (1.0 - a) for a in grid])
    np.testing.assert_array_equal(np.abs(np.linalg.eigvals(stack)).max(axis=-1), vals)
    i = int(np.argmin(vals))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, 511)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    fc, fd = rho_at(c), rho_at(d)
    while hi - lo > 1e-12:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = rho_at(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = rho_at(d)
    return min(rho_at(min(max(0.5 * (lo + hi), delta), 1.0 - delta)), rho_at(0.5))


def _assert_two_term_optimum(s):
    (a1, a2), rho = optimize_weights(s)
    assert rho <= (1 + 1e-12) * _scan_and_golden_section(s)
    assert rho <= check_spectral_weighted(s, (0.5, 0.5)).rho
    assert 1e-3 <= a1 <= 1 - 1e-3 and 1e-3 <= a2 <= 1 - 1e-3


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(0, 10_000), st.floats(0.01, 1.0), st.floats(0.01, 1.0))
def test_optimize_weights_two_terms_matches_scan_and_golden_section(n, seed, t1, t2):
    rng = np.random.default_rng(seed)
    _assert_two_term_optimum(validate_system(IdsSystem(A=tuple(rng.standard_normal((2, n, n))), tau=(t1, t2))))


@pytest.mark.parametrize("row", [0.4, 0.3, 0.2, 0.1])
def test_optimize_weights_on_the_paper_rows_is_optimal_in_few_evaluations(monkeypatch, row):
    # one np.linalg.eig per Newton evaluation; the secant bracket took 8-12
    # and the scan alone 512 radii
    calls = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda X: calls.append(1) or eig(X))
    for tau2 in (0.02, 0.05, 0.1, 0.3):
        del calls[:]
        _assert_two_term_optimum(benchmark_system(row, tau2))
        assert 0 < len(calls) <= 6


J = np.array([[0.5, 1.0], [0.0, 0.5]])
N1 = np.array([[0.0, 1.0], [0.0, 0.0]])
S3 = np.eye(3, k=1)
R = np.array([[0.0, 1.0], [-1.0, 0.0]])


@pytest.mark.parametrize(
    "A, alpha, rho",
    [
        # phi = max(0.09 / a, 0.04 / (1 - a)): a kink at the minimum
        ((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), (9 / 13, 4 / 13), 0.13),
        # J (x) J is defective, so its eigenvectors are (nearly) dependent
        ((J, J), (0.6, 0.4), 0.0625),
        # the eigenvectors of the nilpotent S (x) S are exactly dependent
        ((S3, 2.0 * S3), (0.5, 0.5), 0.0),
        # the +-1 eigenvalues of R (x) R tie in modulus
        ((R, R), (0.6, 0.4), 0.25),
    ],
    ids=["decoupled-diagonal", "defective", "nilpotent", "rotations"],
)
def test_optimize_weights_two_term_edge_cases(A, alpha, rho):
    s = validate_system(IdsSystem(A=A, tau=(0.3, 0.2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got_alpha, got_rho = optimize_weights(s)
    np.testing.assert_allclose(got_alpha, alpha, rtol=0, atol=1e-6)
    assert abs(got_rho - rho) <= 1e-12 * rho


def _dominant_index_by_scan(w):
    """dominant_index as a Python scan over the eigenvalues: the reference."""
    r = np.abs(w).max()
    idx = [i for i in range(w.size) if abs(w[i]) >= r * (1 - 1e-9) and abs(w[i].imag) <= 1e-9 * (1 + r)]
    return max(idx, key=lambda j: w[j].real) if idx else None


def test_dominant_index_matches_the_scan():
    shift = np.roll(np.eye(3), 1, axis=0)  # eigenvalues rho e^(2 pi i k / 3)
    spectra = [
        np.linalg.eigvals(kron(R, R)),  # +-1, tied in modulus
        np.linalg.eigvals(R),  # +-i: none real
        np.linalg.eigvals(shift),
        np.linalg.eigvals(kron(shift, shift)),
        np.linalg.eigvals(kron(J, J)),  # defective
        np.linalg.eigvals(kron(S3, S3)),  # nilpotent: all zero
        np.array([2.0, -2.0, 2.0]),  # equal real parts: the first one
        np.array([-2.0 + 0j, 2.0 + 1e-12j, 2.0 - 1e-12j]),
    ]
    for s in random_corpus(2024, 40):
        M = kron_operator(s.A, [t * t for t in s.tau])
        spectra += [np.linalg.eigvals(M), np.linalg.eigvals(M.T)]
    for w in spectra:
        assert criteria_spectral.dominant_index(w) == _dominant_index_by_scan(w), w


@pytest.mark.parametrize("seed", range(4))
def test_perron_gradient_matches_central_differences(seed):
    rng = np.random.default_rng(seed)
    Ks = np.stack([kron(A, A) for A in rng.standard_normal((3, 2, 2))])
    alpha = np.array([0.5, 0.3, 0.2])

    def phi(alpha):
        return spectral_radius(sum(K / a for K, a in zip(Ks, alpha)))

    rho, g, eig = criteria_spectral._perron_gradient(Ks, alpha)
    assert abs(rho - phi(alpha)) <= 1e-12 * rho
    for e in 1e-6 * np.eye(3):
        fd = (phi(alpha + e) - phi(alpha - e)) / 2e-6
        assert abs(g @ e / 1e-6 - fd) <= 1e-6 * abs(fd)
    # Newton's Jacobian -H_ij alpha_j / (2 g_i) from the same
    # eigendecomposition, against central differences of g for the Hessian H
    J = criteria_spectral._perron_jacobian(Ks, alpha, g, eig)

    def grad(alpha):
        return criteria_spectral._perron_gradient(Ks, alpha)[1]

    H = np.column_stack([(grad(alpha + e) - grad(alpha - e)) / 2e-6 for e in 1e-6 * np.eye(3)])
    np.testing.assert_allclose(J, -0.5 * H * alpha / g[:, None], rtol=1e-5, atol=1e-6)


def test_perron_gradient_is_none_without_a_real_dominant_eigenvalue():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert criteria_spectral._perron_gradient(np.stack([rot, rot]), (0.5, 0.5)) == (4.0, None, None)
    # so Newton hands over at once and keeps the uniform point
    assert criteria_spectral._newton_weights(np.stack([rot] * 3), 1e-3) == (((1 / 3,) * 3, 9.0), False)


def test_spectral_radius_rejects_non_finite_and_stacked_matrices():
    with pytest.raises(NonFiniteError):
        spectral_radius(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        spectral_radius(np.stack([np.eye(2), np.eye(2)]))


def _ids(As, tau):
    return validate_system(IdsSystem(A=tuple(np.asarray(A, dtype=float) for A in As), tau=tau))


def test_mu_margin_of_one_term_is_the_inverse_radius():
    # B = 0, so the resolvent sweep reduces to 1/rho(A), th2-lmi's exact margin at N = 1
    assert mu_margin(_ids([A1], (0.2,)), 0) == 1.0 / spectral_radius(A1)


_NILPOTENT = [[0.0, 1.0], [0.0, 0.0]]
_HUGE = np.full((2, 2), 1e308)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "As, tau, k, edge",
    [
        ([2.0 * np.eye(2), A2], (0.5, 0.1), 1, 0.0),  # rho(B) = 1: fails at every tau_2
        # (zI - B)^-1 is diagonal, so each resolvent product stays strictly upper triangular
        ([np.diag([0.3, -0.5]), _NILPOTENT], (0.5, 0.1), 1, math.inf),
        ([A1, A2, A1], (0.1, 0.1, 0.1), 1, None),  # no sweep for three terms
        ([_HUGE], (0.1,), 0, None),  # rho(A) overflows
        ([np.diag([0.3, -0.5]), _HUGE], (0.5, 0.1), 1, None),  # the resolvent product overflows
        ([_HUGE, np.eye(2)], (10.0, 0.1), 1, None),  # B = tau_1 A_1 overflows
    ],
    ids=["other-term-fails", "nilpotent", "three-terms", "rho-overflows", "resolvent-overflows", "B-overflows"],
)
def test_mu_margin_edge_cases(As, tau, k, edge):
    assert mu_margin(_ids(As, tau), k) == edge


def test_mu_margin_bounds_the_paper_rows_within_one_bracket():
    # the th2-lmi margins of the table lie at most 1e-4 below the mu edge
    th2_lmi = {0.4: 0.0317765, 0.3: 0.114629, 0.2: 0.241787, 0.1: 0.488149}
    for row, m in th2_lmi.items():
        edge = mu_margin(benchmark_system(row, 0.1), 1)
        assert m < edge < m + 1e-4, row


def test_optimize_weights_three_terms_never_worse_than_uniform():
    s = validate_system(
        IdsSystem(A=(A1, A2, 0.5 * np.eye(2)), tau=(0.1, 0.3, 0.2))
    )
    alpha, rho = optimize_weights(s)
    uniform = check_spectral_weighted(s, (1 / 3, 1 / 3, 1 / 3)).rho
    assert rho <= uniform + 1e-12
    assert all(0 < a < 1 for a in alpha)


_simplex3 = st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3).map(
    lambda w: tuple(x / sum(w) for x in w)
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(0, 10_000), _simplex3, _simplex3)
def test_weighted_radius_is_midpoint_convex(n, seed, a, b):
    rng = np.random.default_rng(seed)
    s = validate_system(
        IdsSystem(A=tuple(rng.standard_normal((3, n, n))), tau=tuple(rng.uniform(0.05, 1.0, 3)))
    )
    mid = tuple(0.5 * (x + y) for x, y in zip(a, b))

    def phi(alpha):
        return check_spectral_weighted(s, alpha).rho

    assert phi(mid) <= (1 + 1e-12) * 0.5 * (phi(a) + phi(b))


@pytest.fixture(scope="module")
def three_term_optima():
    """(system, optimize_weights result) for the N = 3 systems of two corpora."""
    systems = [s for seed in (7, 2024) for s in random_corpus(seed, 100) if s.N == 3]
    return [(s, optimize_weights(s)) for s in systems]


@pytest.fixture(scope="module")
def two_term_optima():
    """(system, optimize_weights result) for the N = 2 integral systems of five corpora."""
    corpora = [random_corpus(seed, 100) for seed in (2024, 7, 1, 2, 3)]
    systems = [s for corpus in corpora for s in corpus if isinstance(s, IdsSystem) and s.N == 2]
    return [(s, optimize_weights(s)) for s in systems]


# Decoupled blocks: the radius is the larger of two Perron roots, phi has a
# kink at the minimum, Newton hands over and the ellipsoid finishes.
REDUCIBLE = [
    IdsSystem(A=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.zeros((2, 2))), tau=(0.65,) * 3),
    IdsSystem(
        A=(np.array([[0.5, 1.0], [0.0, 0.2]]), np.array([[0.1, 0.3], [0.0, 0.6]]), 0.3 * np.eye(2)),
        tau=(0.8,) * 3,
    ),
]


@pytest.fixture(scope="module")
def reducible_optima():
    systems = [validate_system(s) for s in REDUCIBLE]
    return [(s, optimize_weights(s)) for s in systems]


def _stacked(s):
    return np.stack([t * t * kron(A, A) for A, t in zip(s.A, s.tau)])


def test_newton_certifies_the_corpus_and_hands_kinks_over(three_term_optima, two_term_optima):
    assert len(three_term_optima) == 68 and len(two_term_optima) == 154
    assert all(criteria_spectral._newton_weights(_stacked(s), 1e-3)[1] for s, _ in three_term_optima + two_term_optima)
    assert all(not criteria_spectral._newton_weights(_stacked(validate_system(s)), 1e-3)[1] for s in REDUCIBLE)


def test_newton_hands_over_early_at_kinks(monkeypatch):
    # one eig call per evaluation; the fixed point it replaced gave up after 11 and 62
    calls = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda X: calls.append(1) or eig(X))
    counts = []
    for s in map(validate_system, REDUCIBLE):
        del calls[:]
        assert not criteria_spectral._newton_weights(_stacked(s), 1e-3)[1]
        counts.append(len(calls))
    assert counts == [6, 8]


def _fixed_point_without_stall_exit(Ks, delta=1e-3):
    """The damped KKT fixed point that optimize_weights ran at N >= 3
    before Newton, without its stall exit: it stops only when settled or
    after 200 steps."""
    alpha = np.full(len(Ks), 1.0 / len(Ks))
    for _ in range(200):
        g = criteria_spectral._perron_gradient(Ks, alpha)[1]
        ahat = alpha * np.sqrt(np.abs(g))
        free = ahat >= delta * ahat.sum()
        step = np.sqrt(alpha * np.where(free, ahat / ahat[free].sum(), delta))
        step /= step.sum()
        if np.abs(step - alpha).max() < 1e-13:
            return tuple(float(a) for a in alpha)
        alpha = step
    return None


def _two_eig_fixed_point(Ks, delta=1e-3):
    """The fixed point as it was before it took its step from the Perron
    gradient: unit Perron vectors u, v from one eig of M and one of M.T, and
    ahat clipped at delta without rescaling the other weights."""
    alpha = np.full(len(Ks), 1.0 / len(Ks))
    for _ in range(200):
        M = sum(K / a for K, a in zip(Ks, alpha))
        v, u = (V[:, criteria_spectral.dominant_index(w)].real for w, V in map(np.linalg.eig, (M, M.T)))
        g = np.sqrt(np.abs([u @ K @ v for K in Ks]))
        step = np.sqrt(alpha * np.clip(g / g.sum(), delta, None))
        step /= step.sum()
        if np.abs(step - alpha).max() < 1e-13:
            return tuple(float(a) for a in alpha)
        alpha = step
    return None


def test_a_handed_over_search_keeps_newtons_best_point():
    # the fourth weight's share is 0.081 % of the total at its free optimum
    # (8.1e-4) but 0.101 % at the clip value 1e-3 / 1.001, so the clip rule
    # alternates and Newton hands over; the ellipsoid, whose floor is that
    # clip value, ends 3.5e-5 above the best point Newton reached
    A = (
        np.array([[-0.3, -0.9], [0.4, 0.1]]),
        np.array([[-2.0, -7.0], [-5.0, -10.0]]),
        np.array([[0.017, 0.006], [0.02, -0.018]]),
        np.array([[-0.16, 0.03], [-0.02, -0.05]]),
    )
    s = validate_system(IdsSystem(A=A, tau=(0.9, 0.5, 0.3, 0.5)))
    Ks = _stacked(s)
    best, certified = criteria_spectral._newton_weights(Ks, 1e-3)
    assert not certified
    assert best[1] < check_spectral_weighted(s, criteria_spectral._ellipsoid_weights(Ks, 1e-3)[0]).rho
    assert optimize_weights(s) == best


def test_newton_is_never_above_the_fixed_points(three_term_optima):
    assert len(three_term_optima) == 68
    for s, (alpha, _rho) in three_term_optima:
        Ks = _stacked(s)
        rho = check_spectral_weighted(s, alpha).rho
        for reference in (_fixed_point_without_stall_exit, _two_eig_fixed_point):
            ref = check_spectral_weighted(s, reference(Ks)).rho
            assert rho - ref <= 1e-14 * ref


def test_newton_takes_few_eigendecompositions(monkeypatch, three_term_optima, two_term_optima):
    # the fixed point it replaced took 32-71 on the N = 3 systems, the
    # secant bracket 4-26 on the N = 2 ones
    calls = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda X: calls.append(1) or eig(X))
    for s, found in three_term_optima + two_term_optima:
        del calls[:]
        assert optimize_weights(IdsSystem(A=s.A, tau=s.tau)) == found
        assert 0 < len(calls) <= 12


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("seed", range(8))
def test_optimize_weights_scalar_systems_meet_the_closed_form(monkeypatch, N, seed):
    # n = 1: phi = sum_i b_i / alpha_i with b_i = (tau_i a_i)^2, least at
    # alpha_i proportional to tau_i |a_i| where no share is clipped; the k
    # clipped ones sit at delta / (1 + k delta)
    rng = np.random.default_rng(seed)
    a, tau = rng.standard_normal(N), rng.uniform(0.05, 1.0, N)
    w = tau * np.abs(a)
    clip = w < 1e-3 * w.sum()
    f = 1e-3 / (1.0 + 1e-3 * clip.sum())
    alpha = np.where(clip, f, w / w[~clip].sum() * (1.0 - f * clip.sum()))
    calls = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda X: calls.append(1) or eig(X))
    got_alpha, got_rho = optimize_weights(validate_system(IdsSystem(A=tuple(a.reshape(N, 1, 1)), tau=tuple(tau))))
    np.testing.assert_allclose(got_alpha, alpha, rtol=1e-13, atol=0)
    assert abs(got_rho - (w * w / alpha).sum()) <= 1e-13 * got_rho
    assert len(calls) <= 4


def test_weights_carry_a_frank_wolfe_certificate(three_term_optima, two_term_optima, reducible_optima):
    # phi is convex: phi* >= phi(alpha) - gap over the simplex whose entries
    # are at least min(delta, min alpha), with gap from the gradient at alpha
    for s, (alpha, rho) in three_term_optima + two_term_optima + reducible_optima:
        Ks, alpha = _stacked(s), np.array(alpha)
        phi, g, _ = criteria_spectral._perron_gradient(Ks, alpha)
        f = min(1e-3, alpha.min())
        gap = g @ alpha - f * g.sum() - (1 - s.N * f) * g.min()
        assert gap >= -1e-15 * phi
        if criteria_spectral._newton_weights(Ks, 1e-3)[1]:
            assert gap <= 1e-12 * phi
        else:
            # at a kink g is one block's gradient, whose bound is weak (here
            # below 0); the ellipsoid's own bound is the certificate
            _alpha, bound = criteria_spectral._ellipsoid_weights(Ks, 1e-3)
            assert 0.0 <= bound <= rho <= bound + 1e-12 * rho


def test_optimize_weights_three_terms_reaches_grid_minimum(three_term_optima, reducible_optima):
    # the simplex grid with step 1/64 and every entry >= delta = 1e-3
    grid = np.array(
        [(i, j, 64 - i - j) for i in range(1, 64) for j in range(1, 64 - i)], dtype=float
    ) / 64
    assert len(three_term_optima) >= 50
    for s, (alpha, rho) in three_term_optima + reducible_optima:
        Ks = np.stack([t * t * kron(A, A) for A, t in zip(s.A, s.tau)])
        grid_min = np.abs(np.linalg.eigvals(np.einsum("gi,ijk->gjk", 1.0 / grid, Ks))).max(axis=-1).min()
        assert rho <= (1 + 1e-12) * grid_min
        assert abs(check_spectral_weighted(s, alpha).rho - rho) <= 1e-12 * rho


def _nelder_mead_rho(s, restarts, seed=7):
    """The N >= 3 search optimize_weights used before one descent sufficed:
    Nelder-Mead over softmax logits from the uniform point and from
    restarts - 1 seeded random starts."""
    Ks = [t * t * kron(A, A) for A, t in zip(s.A, s.tau)]

    def rho_at(alpha):
        return spectral_radius(sum(K / a for K, a in zip(Ks, alpha)))

    def softmax(z):
        e = np.exp(z - z.max())
        p = np.clip(e / e.sum(), 1e-3, None)
        return p / p.sum()

    best = rho_at(np.full(s.N, 1.0 / s.N))
    rng = np.random.default_rng(seed)
    for trial in range(restarts):
        z0 = np.zeros(s.N) if trial == 0 else rng.standard_normal(s.N)
        res = minimize(
            lambda z: rho_at(softmax(z)),
            z0,
            method="Nelder-Mead",
            options={"maxiter": 400, "xatol": 1e-10, "fatol": 1e-12},
        )
        best = min(best, rho_at(softmax(res.x)))
    return best


def test_optimize_weights_three_terms_matches_twenty_restarts(three_term_optima, reducible_optima):
    for s, (_alpha, rho) in three_term_optima[::12] + reducible_optima:
        assert rho <= (1 + 1e-12) * _nelder_mead_rho(s, 20)


def _reducible_battery(seed):
    """40 systems whose A_i share one reducible pattern, so phi has kinks:
    diagonal and upper-triangular at n = 2 and 3 and block-diagonal (2 + 1)
    at n = 3, four of each at N = 3 and 4."""
    rng = np.random.default_rng(seed)
    systems = []
    for N in (3, 4):
        for n, kind in ((2, "diagonal"), (2, "upper"), (3, "diagonal"), (3, "upper"), (3, "block")):
            for _ in range(4):
                A = rng.standard_normal((N, n, n))
                if kind == "diagonal":
                    A *= np.eye(n)
                elif kind == "upper":
                    A = np.triu(A)
                else:
                    A[:, :2, 2] = A[:, 2, :2] = 0.0
                systems.append(validate_system(IdsSystem(A=tuple(A), tau=tuple(rng.uniform(0.1, 1.0, N)))))
    return systems


# 8-restart _nelder_mead_rho of each _reducible_battery(seed) system, in
# order; recomputed live on every 15th system
_REDUCIBLE_REFERENCE = {
    11: (
        0.20321254113869194, 1.2752258261846356, 0.921852244277506, 0.3125265455809592,
        0.2807527144429985, 0.6219532953820134, 9.432438315352426, 1.747291410235432,
        0.6707469547243683, 3.5165428188654655, 1.820548014695161, 0.9797238220324822,
        3.5983761925216062, 1.9005493254054961, 16.716802021106947, 1.8830541243558816,
        8.187577108002996, 1.2322832717070877, 8.130782088460155, 2.5004527435489328,
        14.070706222218696, 3.679081030488575, 3.7890836462679194, 4.1923630972117545,
        0.8488774083440677, 5.601989121534285, 7.471299961697921, 1.4713396221467194,
        5.174605895071751, 6.3546835705672375, 8.3692179273449, 2.3502901435906085,
        5.973059142101096, 7.77941590460199, 3.4888559119120655, 2.066394859569627,
        6.429104104644528, 23.794978606072824, 7.085819571405094, 7.038299942495046,
    ),
    12: (
        0.6663978484533996, 3.574662078327482, 1.689718952188192, 1.9303869795621946,
        4.81242957882321, 2.9047832242853797, 1.9317589407295017, 0.20706404802475875,
        1.2951714005694261, 1.240722152264263, 6.921296173005575, 1.1411636667389247,
        4.813051725334875, 3.713308038364233, 14.243316887812735, 3.776431688032858,
        5.6157537706313985, 3.704949526892821, 3.7804466230100444, 2.2125898675604203,
        3.0919627070805125, 0.5284859543209629, 5.171614180130247, 9.17085055812956,
        3.5572793016714868, 2.0218240579323887, 0.9584691206280218, 16.088067653541287,
        7.786167995565609, 10.542958943402931, 2.8176709807160485, 6.907578937860387,
        4.374240280840974, 1.2559100471227795, 10.349620969074943, 5.005140251777599,
        14.708684856713479, 4.929668267928487, 3.4856178541436633, 3.4235067462081004,
    ),
}


@pytest.mark.parametrize("seed", [11, 12])
def test_optimize_weights_matches_restarts_on_reducible_systems(seed):
    # Newton hands most of these kinks over and the ellipsoid finishes; its
    # lower bound holds wherever it runs
    fallbacks = 0
    for i, (s, ref) in enumerate(zip(_reducible_battery(seed), _REDUCIBLE_REFERENCE[seed], strict=True)):
        if i % 15 == 0:
            assert abs(_nelder_mead_rho(s, 8) - ref) <= 1e-12 * ref
        _alpha, rho = optimize_weights(s)
        assert abs(rho - ref) <= 1e-9 * ref
        assert rho <= check_spectral_weighted(s, np.full(s.N, 1.0 / s.N)).rho
        Ks = np.stack([t * t * kron(A, A) for A, t in zip(s.A, s.tau)])
        alpha, bound = criteria_spectral._ellipsoid_weights(Ks, 1e-3)
        assert bound <= check_spectral_weighted(s, alpha).rho
        fallbacks += not criteria_spectral._newton_weights(Ks, 1e-3)[1]
    assert fallbacks >= 10


def _perron_vectors(M):
    """Right and left eigenvectors of the real dominant eigenvalue of M,
    signed so that u.v > 0."""
    def dominant(X):
        w, V = np.linalg.eig(X)
        r = np.abs(w).max()
        i = int(np.argmax(np.where(np.abs(w) >= r * (1 - 1e-9), w.real, -np.inf)))
        return V[:, i].real

    v, u = dominant(M), dominant(M.T)
    return v, u if u @ v > 0 else -u


def test_optimize_weights_three_terms_meets_kkt(three_term_optima):
    # phi is convex, so equal ratios sqrt(u.K_i v)/alpha_i at an interior
    # point certify the global minimum
    checked = 0
    for s, (alpha, _rho) in three_term_optima:
        if min(alpha) <= 1e-3:
            continue
        Ks = [t * t * kron(A, A) for A, t in zip(s.A, s.tau)]
        v, u = _perron_vectors(sum(K / a for K, a in zip(Ks, alpha)))
        ratios = [math.sqrt(u @ K @ v) / a for K, a in zip(Ks, alpha)]
        assert max(ratios) - min(ratios) <= 1e-6 * max(ratios)
        checked += 1
    assert checked >= 50


def _cyclic(a, b, c):
    return np.array([[0.0, a, 0.0], [0.0, 0.0, b], [c, 0.0, 0.0]])


@pytest.mark.parametrize(
    "A, alpha, rho",
    [
        # the +-rho eigenvalues of R (x) R tie in modulus
        ((R, R, R), (1 / 2, 1 / 3, 1 / 6), 0.36),
        ((R, 0.5 * R.T, np.eye(2)), (0.6, 0.2, 0.2), 0.25),
        # weighted cyclic shifts: the radius ties with a complex pair rho e^(+-2 pi i/3)
        (
            (_cyclic(1.0, 2.0, 0.5), _cyclic(0.3, 1.0, 2.0), _cyclic(2.0, 0.2, 1.0)),
            (0.471668611, 0.331271413, 0.197059977),
            0.5929442728914397,
        ),
        # a zero term and a near-overflow one end at the clip delta / (1 + delta),
        # at N = 2 as at N = 3
        ((np.eye(2), R, np.zeros((2, 2))), (0.6 / 1.001, 0.4 / 1.001, 1e-3 / 1.001), 0.25025),
        ((np.diag([1e154, 1.0]), np.eye(2), R), (1 / 1.002, 1e-3 / 1.002, 1e-3 / 1.002), 9.018e306),
        ((np.eye(2), np.zeros((2, 2))), (1 / 1.001, 1e-3 / 1.001), 0.09009),
        ((np.diag([1e154, 1.0]), np.eye(2)), (1 / 1.001, 1e-3 / 1.001), 9.009e306),
    ],
    ids=["rotations", "mixed", "cyclic", "zero-term", "near-overflow", "zero-term-N2", "near-overflow-N2"],
)
def test_optimize_weights_three_term_edge_cases(A, alpha, rho):
    s = validate_system(IdsSystem(A=A, tau=(0.3, 0.2, 0.1)[: len(A)]))
    got_alpha, got_rho = optimize_weights(s)
    np.testing.assert_allclose(got_alpha, alpha, rtol=1e-7)
    assert abs(got_rho - rho) <= 1e-12 * rho


def test_ellipsoid_scales_a_cut_whose_square_overflows():
    # d phi/d alpha_1 is near -1e308 at the uniform point, so g.P g would
    # overflow: the cut is scaled by its largest entry, the search goes on
    # past the uniform point, warns nothing and proves a finite bound
    A = (np.diag([1e154, 1.0]), np.eye(2), R)
    Ks = np.stack([t * t * kron(a, a) for a, t in zip(A, (0.3, 0.2, 0.1))])
    alpha, bound = criteria_spectral._ellipsoid_weights(Ks, 1e-3)
    phi = criteria_spectral._perron_gradient(Ks, np.array(alpha))[0]
    assert alpha[0] > 0.99
    assert np.isfinite(bound) and bound <= phi
    assert phi - bound <= 1e-12 * phi


def test_ellipsoid_bisects_a_two_term_kink():
    # at N = 2 the ellipsoid is an interval and each cut halves it;
    # phi = max(0.09 / a, 0.04 / (1 - a)) has its kink at a = 9/13
    Ks = _stacked(validate_system(IdsSystem(A=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), tau=(0.3, 0.2))))
    alpha, bound = criteria_spectral._ellipsoid_weights(Ks, 1e-3)
    phi = criteria_spectral._perron_gradient(Ks, np.array(alpha))[0]
    np.testing.assert_allclose(alpha, (9 / 13, 4 / 13), rtol=0, atol=1e-12)
    assert bound <= phi <= bound + 1e-12 * phi


def test_optimize_weights_nilpotent_terms_keep_the_uniform_point():
    s = validate_system(IdsSystem(A=(N1, 2.0 * N1, np.zeros((2, 2))), tau=(0.3, 0.2, 0.1)))
    assert optimize_weights(s) == ((1 / 3, 1 / 3, 1 / 3), 0.0)


def _spy_compute(monkeypatch):
    calls = []
    real = criteria_spectral._minimize_weights

    def spy(sys, c):
        calls.append(sys)
        return real(sys, c)

    monkeypatch.setattr(criteria_spectral, "_minimize_weights", spy)
    return calls


THREE_TERMS = IdsSystem(A=(A1, A2, 0.5 * np.eye(2)), tau=(0.1, 0.3, 0.2))


@pytest.mark.parametrize(
    "s",
    [IdsSystem(A=(A1,), tau=(0.2,)), benchmark_system(0.4, 0.02), THREE_TERMS],
    ids=["N1", "N2", "N3"],
)
def test_optimize_weights_warm_result_equals_cold(monkeypatch, s):
    # the weights are cached on the system; an equal system computes its own
    s = validate_system(s)
    calls = _spy_compute(monkeypatch)
    cold = optimize_weights(s)
    warm = optimize_weights(s)
    assert len(calls) == 1 and warm == cold
    assert optimize_weights(IdsSystem(A=s.A, tau=s.tau)) == cold and len(calls) == 2


def test_mutating_the_callers_array_leaves_system_and_weights_unchanged(monkeypatch):
    cold = criteria_spectral._minimize_weights
    calls = _spy_compute(monkeypatch)
    A = [A1.copy(), A2.copy(), 0.5 * np.eye(2)]
    s = IdsSystem(A=tuple(A), tau=(0.1, 0.3, 0.2))
    first = optimize_weights(s)
    moved = s.with_delays((0.1, 0.3, 0.25))
    assert optimize_weights(moved) == cold(moved) != first
    A[0][0, 0] += 1.0
    np.testing.assert_array_equal(s.A[0], A1)
    assert optimize_weights(s) == first == cold(s)
    assert len(calls) == 2
    with pytest.raises(ValueError, match="read-only"):
        s.A[0][0, 0] = 0.0


def test_optimize_weights_stores_nothing_when_it_raises(monkeypatch):
    calls = _spy_compute(monkeypatch)
    # tau^2 A (x) A overflows in its first entry
    bad = validate_system(
        IdsSystem(A=(np.diag([1e200, 1.0]), np.eye(2), np.eye(2)), tau=(0.3, 0.2, 0.1))
    )
    for _ in range(2):
        with pytest.raises(NonFiniteError):
            optimize_weights(bad)
    assert len(calls) == 2


def test_optimize_weights_memo_is_safe_across_two_threads():
    pair = [validate_system(THREE_TERMS), benchmark_system(0.4, 0.02)]
    serial = [criteria_spectral._minimize_weights(s) for s in pair]
    rounds = 20
    results = [None, None]

    def work(j):
        results[j] = [optimize_weights(pair[j]) for _ in range(rounds)]

    threads = [threading.Thread(target=work, args=(j,)) for j in range(2)]
    interval = getswitchinterval()
    setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert results == [[r] * rounds for r in serial]


def test_corpus_order_computes_the_weights_once(monkeypatch):
    # spectral-weighted, th1 and th2-lmi all optimize the weights of one system
    s = next(s for s in random_corpus(7, 100) if s.N == 3)
    calls = _spy_compute(monkeypatch)
    for criterion in ("spectral-weighted", "amc", "th2-coupled", "single", "th1", "th2-lmi"):
        criterion_feasible(s, criterion)
    assert len(calls) == 1


def _fresh(s):
    """An equal system that holds no cached weights."""
    return IdsSystem(A=s.A, tau=s.tau)


def test_weights_below_bound_lies_below_the_optimum(reducible_optima):
    # a bound that decides is a Frank-Wolfe plane over the whole simplex, so
    # it lies below the least phi (to rounding, where Newton has converged)
    # and at or above the guarded level; where none decides, the answer is
    # the full search's, bitwise
    corpora = [s for seed in (2024, 7, 1, 2, 3) for s in random_corpus(seed, 100)]
    battery = [s for seed in _REDUCIBLE_REFERENCE for s in _reducible_battery(seed)]
    reference = [r for seed in _REDUCIBLE_REFERENCE for r in _REDUCIBLE_REFERENCE[seed]]
    cases = [(s, optimize_weights(s)[1]) for s in corpora] + [(s, rho) for s, (_a, rho) in reducible_optima]
    cases += [(s, min(optimize_weights(s)[1], r)) for s, r in zip(battery, reference)]
    decided = early = 0
    for i, (s, phi) in enumerate(cases):
        for c in (1.0, 0.9 * phi):
            alpha, value = optimize_weights(_fresh(s), c)
            if alpha is None:
                decided += 1
                assert c * (1.0 + 1e-9) <= value <= phi * (1.0 + 1e-12), i
            else:
                assert (alpha, value) == optimize_weights(s) and value < c * (1.0 + 1e-9), i
        cold = _fresh(s)
        early += optimize_weights(cold, 0.9 * phi)[0] is None and "optimal_weights" not in vars(cold)
    assert decided >= 700 and early >= 300


def test_weights_below_reads_the_cached_optimum(monkeypatch):
    # spectral-weighted first: th2-lmi's decision costs no evaluation
    s = validate_system(benchmark_system(0.3, 0.2))
    alpha, rho = optimize_weights(s)
    calls = _spy_compute(monkeypatch)
    assert optimize_weights(s, 1.0) == (None, rho) and optimize_weights(s, 2.0 * rho) == (alpha, rho)
    assert build_th2_lmi(s).starts == () and calls == []


@pytest.mark.parametrize("tau2", [0.05, 0.2], ids=["passes", "cannot-pass"])
def test_spectral_weighted_after_th2_lmi_is_the_optimum_from_one_search(monkeypatch, tau2):
    # an early stop caches nothing, so spectral-weighted searches once, in full;
    # a search that ran to the end is cached, and nothing is searched twice
    s = validate_system(benchmark_system(0.3, tau2))
    expected = optimize_weights(_fresh(s))
    calls, real = [], criteria_spectral._minimize_weights
    monkeypatch.setattr(criteria_spectral, "_minimize_weights", lambda sys, *c: calls.append(c) or real(sys, *c))
    build_th2_lmi(s)
    assert ("optimal_weights" in vars(s)) == (expected[1] < 1.0)
    v = evaluate_criterion(s, "spectral-weighted")
    assert v == check_spectral_weighted(s, expected[0]) and v.passed == (tau2 == 0.05)
    assert calls == [(1.0,)] if tau2 == 0.05 else calls == [(1.0,), (math.inf,)]


def test_operator_block_single_term_is_the_kron_block():
    s = validate_system(IdsSystem(A=(A1,), tau=(0.3,)))
    np.testing.assert_allclose(operator_block(s), 0.09 * kron(A1.T, A1.T))


def test_operator_block_radius_matches_kron_sum():
    s = benchmark_system(0.3, 0.11)
    r1 = spectral_radius(operator_block(s))
    r2 = check_spectral(s).rho
    assert abs(r1 - r2) <= 1e-10 * r2


def test_operator_block_zero_system():
    s = validate_system(IdsSystem(A=(np.zeros((2, 2)),) * 2, tau=(0.1, 0.2)))
    np.testing.assert_array_equal(operator_block(s), np.zeros((8, 8)))


def test_single_delay_checks_split_verdict():
    c = single_delay_checks(A1, 0.44)
    assert c.rho_pass and not c.norm_pass  # ||A1|| ~ 13.8 far above rho
    c2 = single_delay_checks(A1, 0.46)
    assert not c2.rho_pass and not c2.norm_pass


def test_single_delay_symmetric_matrix_agrees():
    rng = np.random.default_rng(2)
    for _ in range(20):
        W = rng.standard_normal((3, 3))
        S = W + W.T
        c = single_delay_checks(S, 0.37)
        assert c.rho_pass == c.norm_pass


def test_norm_pass_implies_rho_pass_randomly():
    rng = np.random.default_rng(3)
    for _ in range(50):
        A = rng.standard_normal((3, 3))
        c = single_delay_checks(A, float(rng.uniform(0.05, 2.0)))
        if c.norm_pass:
            assert c.rho_pass


def test_laa_spectral_examples():
    d = validate_system(
        DiscreteIds(A=(np.eye(2) / 4, np.eye(2) / 4), tau=(0.1, 0.2))
    )
    v = laa_spectral(d)
    assert abs(v.rho - 1 / 8) < 1e-12 and v.passed
    d1 = validate_system(DiscreteIds(A=(0.9 * np.eye(1),), tau=(1.0,)))
    v1 = laa_spectral(d1)
    assert abs(v1.rho - 0.81) < 1e-12 and v1.passed


def test_laa_spectral_is_delay_independent():
    A = (0.3 * A2, 0.2 * np.eye(2))
    v1 = laa_spectral(validate_system(DiscreteIds(A=A, tau=(0.1, 0.2))))
    v2 = laa_spectral(validate_system(DiscreteIds(A=A, tau=(1.0, 7.0))))
    assert v1.rho == v2.rho and v1.passed == v2.passed


# -- spectral_margin: the closed-form boundary of N rho < 1 ---------------------


def test_spectral_margin_of_one_term_is_the_inverse_radius():
    A = np.array([[-4.0, 1.0], [-13.0, 2.0]])  # eigenvalues -1 +- 2i
    edge = criteria_spectral.spectral_margin(validate_system(IdsSystem(A=(A,), tau=(0.2,))), 0)
    assert edge == pytest.approx(1 / math.sqrt(5), rel=1e-12)


@pytest.mark.parametrize("tau, k", [((0.3, 0.1), 1), ((0.2, 0.1), 1), ((0.1, 0.1), 1), ((0.3, 0.01), 0)])
def test_spectral_margin_puts_N_rho_at_one(tau, k):
    sys = benchmark_system(*tau)
    edge = criteria_spectral.spectral_margin(sys, k)
    at = list(tau)
    at[k] = edge
    v = check_spectral(sys.with_delays(at))
    assert abs(sys.N * v.rho - 1.0) <= 1e-12


def test_spectral_margin_is_zero_when_the_other_delays_already_fail():
    sys = benchmark_system(0.4, 0.1)
    assert sys.N * spectral_radius(kron_operator(sys.A[:1], (0.4**2,))) >= 1.0
    assert criteria_spectral.spectral_margin(sys, 1) == 0.0


@pytest.mark.parametrize("A", [(N1,), (np.array([[0.5, 1.0], [0.0, 0.3]]), N1)])
def test_spectral_margin_of_a_nilpotent_term_is_infinite(A):
    sys = validate_system(IdsSystem(A=A, tau=(0.5,) * len(A)))
    assert criteria_spectral.spectral_margin(sys, len(A) - 1) == math.inf


def test_spectral_margin_gives_no_prediction_when_the_product_overflows():
    A = 1e154 * np.array([[-4.0, 1.0], [-13.0, 2.0]])
    sys = validate_system(IdsSystem(A=(A, R), tau=(1e-155, 0.1)))
    assert criteria_spectral.spectral_margin(sys, 0) is None
    assert 0.0 < criteria_spectral.spectral_margin(sys, 1) < math.inf
