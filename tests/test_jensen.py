import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ids_stability.jensen import (
    SampledFunction,
    gap_continuous,
    gap_continuous_budget,
    gap_shared_weight,
    gap_discrete,
    gap_discrete_multi,
    gap_multiple,
    gap_multiple_budget,
)


def _spd(rng, n):
    W = rng.standard_normal((n, n))
    return W @ W.T + 0.2 * np.eye(n)


def test_sampled_function_validation():
    with pytest.raises(ValueError):
        SampledFunction(tau=0.0, values=np.zeros((5, 2)))
    with pytest.raises(ValueError):
        SampledFunction(tau=1.0, values=np.zeros((2, 2)))  # m >= 2 needs 3 rows


def test_constant_function_attains_equality():
    om = SampledFunction.from_callable(lambda s: np.array([0.7, -0.2]), 1.3, 64)
    assert abs(gap_continuous(om, np.diag([2.0, 1.0]))) <= 1e-12


def test_linear_ramp_closed_form():
    # w(s) = (s, 0) on [-1, 0]: LHS = 1/4, RHS = 1/3, gap = 1/12
    om = SampledFunction.from_callable(lambda s: np.array([s, 0.0]), 1.0, 512)
    gap = gap_continuous(om, np.eye(2))
    assert abs(gap - 1.0 / 12.0) <= gap_continuous_budget(om, np.eye(2))


def test_gap_continuous_dim_mismatch():
    om = SampledFunction.from_callable(lambda s: np.array([s]), 1.0, 8)
    with pytest.raises(ValueError):
        gap_continuous(om, np.eye(2))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10_000))
def test_discrete_gap_nonnegative(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    N = int(rng.integers(1, 5))
    xi = rng.standard_normal((N, n)) * rng.uniform(0.1, 5.0)
    assert gap_discrete(xi, _spd(rng, n)) >= -1e-12
    assert gap_discrete_multi(xi, [_spd(rng, n) for _ in range(N)]) >= -1e-12


def test_discrete_equal_vectors_equality():
    xi = np.tile(np.array([1.0, 2.0]), (3, 1))
    assert abs(gap_discrete(xi, np.diag([1.0, 3.0]))) <= 1e-12


def test_discrete_cancellation_example():
    xi = np.array([[1.0, 0.0], [-1.0, 0.0]])
    gap = gap_discrete(xi, np.eye(2))
    assert abs(gap - 4.0) <= 1e-14  # LHS = 0, RHS = 2 * (1 + 1)


def test_multi_discrete_reduces_to_discrete():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(1, 5))
        xi = rng.standard_normal((N, n))
        Q = _spd(rng, n)
        g_multi = gap_discrete_multi(xi, [np.linalg.inv(Q)] * N)
        g = gap_discrete(xi, Q)
        assert abs(g_multi - g / N) <= 1e-10 * max(1.0, abs(g))


def test_multiple_single_term_reduces_to_continuous():
    rng = np.random.default_rng(13)
    om = SampledFunction.from_callable(
        lambda s: np.array([math.sin(s), math.cos(2 * s)]), 0.9, 64
    )
    Q = _spd(rng, 2)
    assert abs(gap_multiple([om], [Q]) - gap_continuous(om, np.linalg.inv(Q))) <= 1e-12


def test_multiple_equality_family():
    # constant functions, weights proportional to the window lengths
    W = np.array([[2.0, 0.3], [0.3, 1.0]])
    c = np.array([0.4, -1.1])
    taus = (0.5, 1.25, 0.8)
    oms = [SampledFunction.from_callable(lambda s: c, t, 32) for t in taus]
    Qs = [t * W for t in taus]
    assert abs(gap_multiple(oms, Qs)) <= 1e-12


def test_multiple_gap_nonnegative_random():
    rng = np.random.default_rng(14)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(1, 4))
        m = int(rng.integers(8, 128))
        oms = []
        for _ in range(N):
            tau = float(rng.uniform(0.2, 1.5))
            coeff = rng.standard_normal((2, n))

            def fn(s, c=coeff, tau=tau):
                return c[0] * math.sin(math.pi * s / tau) + c[1]

            oms.append(SampledFunction.from_callable(fn, tau, m))
        Qs = [_spd(rng, n) for _ in range(N)]
        assert gap_multiple(oms, Qs) >= -gap_multiple_budget(oms, Qs)


def test_shared_weight_single_constant_equality():
    om = SampledFunction.from_callable(lambda s: np.array([1.0]), 0.7, 16)
    assert abs(gap_shared_weight([om], np.array([[2.0]]))) <= 1e-12


def test_shared_weight_zero_functions():
    om = SampledFunction.from_callable(lambda s: np.array([0.0, 0.0]), 0.7, 8)
    assert gap_shared_weight([om, om], np.eye(2)) == 0.0


def test_shared_weight_bound_dominates_individual_bound():
    # exponential-like shapes: the shared-weight RHS is N times the
    # individually weighted RHS evaluated at Q_i = Q^-1
    rng = np.random.default_rng(15)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(2, 4))
        Q = _spd(rng, n)
        oms = []
        for _ in range(N):
            tau = float(rng.uniform(0.2, 1.0))
            v = rng.standard_normal(n)
            rate = float(rng.uniform(0.2, 2.0))

            def fn(s, v=v, rate=rate):
                return v * math.exp(rate * s)

            oms.append(SampledFunction.from_callable(fn, tau, 64))
        rhs_cd = N * sum(om.tau * om.quad_form_integral(Q) for om in oms)
        rhs_j = sum(om.tau * om.quad_form_integral(Q) for om in oms)
        assert rhs_cd >= rhs_j - 1e-12 * max(1.0, abs(rhs_cd))
        # and the tighter bound also holds as a full inequality
        assert gap_multiple(oms, [np.linalg.inv(Q)] * N) >= -gap_multiple_budget(
            oms, [np.linalg.inv(Q)] * N
        )


def test_grid_refinement_order():
    Q = np.array([[1.5, 0.2], [0.2, 0.8]])

    def fn(s):
        return np.array([math.sin(1.7 * s) + 0.3, math.cos(0.9 * s)])

    gaps = [
        gap_continuous(SampledFunction.from_callable(fn, 1.1, m), Q)
        for m in (16, 32, 64)
    ]
    d1, d2 = abs(gaps[0] - gaps[1]), abs(gaps[1] - gaps[2])
    assert d1 > 0 and d2 > 0
    assert math.log2(d1 / d2) >= 1.9
