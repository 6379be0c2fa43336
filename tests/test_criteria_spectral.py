import math

import numpy as np
import pytest

from ids_stability.criteria_spectral import (
    NonFiniteError,
    _golden_section,
    check_spectral,
    check_spectral_weighted,
    kron,
    laa_spectral,
    operator_block,
    optimize_weights,
    single_delay_checks,
    spectral_radius,
)
from ids_stability.model import DiscreteIds, IdsSystem, benchmark_system, validate_system

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


def test_optimize_weights_single_term():
    s = validate_system(IdsSystem(A=(A1,), tau=(0.2,)))
    alpha, rho = optimize_weights(s)
    assert alpha == (1.0,)
    assert abs(rho - check_spectral(s).rho) < 1e-12


def test_optimize_weights_two_terms_matches_pointwise_scan():
    rng = np.random.default_rng(4)
    systems = [
        benchmark_system(0.4, 0.02),
        benchmark_system(0.1, 0.3),
        validate_system(IdsSystem(A=tuple(rng.standard_normal((2, 3, 3))), tau=(0.2, 0.05))),
    ]
    for s in systems:
        # the scan and refinement one weight at a time
        Ks = [t * t * kron(A, A) for A, t in zip(s.A, s.tau)]

        def rho_at(alpha):
            return spectral_radius(sum(K / a for K, a in zip(Ks, alpha)))

        delta = 1e-3
        grid = np.linspace(delta, 1.0 - delta, 512)
        vals = [rho_at((a, 1.0 - a)) for a in grid]
        i = int(np.argmin(vals))
        a1 = _golden_section(lambda a: rho_at((a, 1.0 - a)), grid[max(i - 1, 0)], grid[min(i + 1, 511)])
        a1 = min(max(a1, delta), 1.0 - delta)
        expected = ((0.5, 0.5), rho_at((0.5, 0.5)))
        if rho_at((a1, 1.0 - a1)) < expected[1]:
            expected = ((a1, 1.0 - a1), rho_at((a1, 1.0 - a1)))
        assert optimize_weights(s) == expected
        stack = np.stack([Ks[0] / a + Ks[1] / (1.0 - a) for a in grid])
        np.testing.assert_array_equal(spectral_radius(stack), vals)


def test_spectral_radius_rejects_non_finite_stacks():
    with pytest.raises(NonFiniteError):
        spectral_radius(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(NonFiniteError):
        spectral_radius(np.stack([np.eye(2), np.full((2, 2), np.nan)]))
    with pytest.raises(ValueError, match="square"):
        spectral_radius(np.zeros((2, 2, 3)))


def test_optimize_weights_three_terms_never_worse_than_uniform():
    s = validate_system(
        IdsSystem(A=(A1, A2, 0.5 * np.eye(2)), tau=(0.1, 0.3, 0.2))
    )
    alpha, rho = optimize_weights(s)
    uniform = check_spectral_weighted(s, (1 / 3, 1 / 3, 1 / 3)).rho
    assert rho <= uniform + 1e-12
    assert all(0 < a < 1 for a in alpha)


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
