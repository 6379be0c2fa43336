import io
import itertools
import math
import os
import threading
from dataclasses import FrozenInstanceError, replace
from functools import cached_property
from sys import getswitchinterval, setswitchinterval
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy.integrate import quad
from scipy.optimize import brentq

from ids_stability.criteria_lmi import th2_functional_params
from ids_stability.lmi_core import solve_feasibility
from ids_stability.criteria_lmi import build_amc, build_th2_lmi
from ids_stability.model import IdsSystem, benchmark_system, validate_system
from ids_stability import simulator as simulator_module
from ids_stability.simulator import (
    FunctionalWitness,
    HistorySpec,
    SimulationError,
    Trajectory,
    _max_residual,
    estimate_decay,
    eval_functional,
    export_csv,
    make_compatible,
    simulate,
)


def _scalar(a, tau):
    return validate_system(IdsSystem(A=(np.array([[a]]),), tau=(tau,)))


def test_zero_dynamics_dies_immediately():
    sys = validate_system(IdsSystem(A=(np.zeros((2, 2)),), tau=(0.4,)))
    traj = simulate(sys, HistorySpec.random_smooth(1), h=0.05, T=3.0)
    after = traj.samples[traj.hist_len + 1 :]
    assert np.all(after == 0.0)
    alpha, beta = estimate_decay(traj)
    assert beta == math.inf


def test_step_size_and_horizon_guards():
    sys = benchmark_system(0.3, 0.1)
    with pytest.raises(ValueError, match="too large"):
        simulate(sys, HistorySpec.constant([1.0, 0.0]), h=0.05, T=2.0)
    with pytest.raises(ValueError, match="shorter"):
        simulate(sys, HistorySpec.constant([1.0, 0.0]), h=0.01, T=0.2)
    for h, T in [(0.01, math.inf), (0.01, math.nan), (math.nan, 1.0)]:
        with pytest.raises(ValueError, match="h and T must be finite"):
            simulate(sys, HistorySpec.constant([1.0, 0.0]), h=h, T=T)


@pytest.mark.parametrize(
    "fields",
    [
        {"kind": "constant", "const": np.array([math.nan, 0.0])},
        {"kind": "custom-sampled", "samples": np.array([[0.0, 1.0], [math.inf, 0.0]])},
        {"kind": "random-smooth", "seed": 3, "offset": np.array([0.0, -math.inf])},
    ],
    ids=["const", "samples", "offset"],
)
def test_history_constructor_rejects_non_finite_values(fields):
    # the dataclass constructor itself, not only HistorySpec.constant and
    # .sampled: a NaN used to surface later as a misleading overflow error
    with pytest.raises(ValueError, match="history values must be finite"):
        HistorySpec(**fields)


def test_compatibility_shift_that_overflows_is_a_simulation_error():
    # finite values whose shift overflows are a numerical failure, not a
    # history with non-finite values
    with np.errstate(over="ignore"):
        with pytest.raises(SimulationError, match="compatibility shift overflows"):
            make_compatible(benchmark_system(0.3, 0.1), HistorySpec.constant([1.7e308, 1.7e308]))


def test_singular_step_matrix_reports():
    # (h/2) * a = 1 makes the implicit solve singular
    sys = _scalar(20.0, 0.8)
    with pytest.raises(SimulationError, match="halving h"):
        simulate(sys, HistorySpec.constant([1.0]), h=0.1, T=2.0)


def test_divergent_solution_is_a_simulation_error():
    # growth rate about 10: the samples overflow long before T = 400; numpy's
    # overflow warnings are errors under this suite's warning filter
    with pytest.raises(SimulationError, match="non-finite"):
        simulate(_scalar(10.0, 0.5), HistorySpec.constant([1.0]), h=0.01, T=400.0)


def test_growth_past_the_norm_range_is_a_simulation_error():
    # growth rate about 3: the samples stay finite (up to 7.5e303) but their
    # squared norms overflow, which would leave a NaN residual and an
    # infinite decay rate
    with pytest.raises(SimulationError, match=r"overflows to non-finite values at t = "):
        simulate(_scalar(3.0, 0.5), HistorySpec.constant([1.0]), h=0.01, T=400.0)


def test_delay_snapping_reported():
    sys = benchmark_system(0.3, 0.105)
    traj = simulate(sys, HistorySpec.constant([1.0, 0.0]), h=0.01, T=1.0)
    assert traj.tau_snapped == (0.3, 0.1)
    assert abs(traj.snap_error - 0.005) < 1e-12


def test_discrete_residual_is_tiny():
    sys = benchmark_system(0.3, 0.11)
    traj = simulate(sys, HistorySpec.random_smooth(2), h=0.01, T=3.0)
    assert traj.max_residual <= 1e-10
    # independent re-check of one step against the trapezoid form
    k = traj.hist_len + 17
    n = sys.n
    acc = np.zeros(n)
    for Ai, ti in zip(sys.A, traj.tau_snapped):
        mi = int(round(ti / traj.h))
        window = traj.samples[k - mi : k + 1]
        acc += Ai @ np.trapezoid(window, dx=traj.h, axis=0)
    assert np.linalg.norm(traj.samples[k] - acc) <= 1e-10


def test_scalar_divergence_matches_characteristic_root():
    # the scalar dynamics admit exp(s t) with s solving a (1 - exp(-s tau)) = s
    a, tau = 2.0, 1.0
    root = brentq(lambda s: a * (1 - math.exp(-s * tau)) - s, 0.5, 4.0)
    sys = _scalar(a, tau)
    traj = simulate(sys, HistorySpec.constant([1.0]), h=0.02, T=20.0)
    norms = np.linalg.norm(traj.samples[traj.hist_len :], axis=1)
    assert norms[-1] > 1e3 * traj.sup_history
    t = np.arange(norms.size) * traj.h
    late = t > 10.0
    slope = np.polyfit(t[late], np.log(norms[late]), 1)[0]
    assert abs(slope - root) / root < 0.05


def test_benchmark_decays_inside_linearized_margin():
    sys = benchmark_system(0.3, 0.11)
    traj = simulate(sys, HistorySpec.random_smooth(3), h=0.01, T=10.0)
    fit = estimate_decay(traj)
    assert fit is not None and fit[1] > 0


def test_estimate_decay_requires_long_horizon():
    sys = benchmark_system(0.3, 0.1)
    traj = simulate(sys, HistorySpec.constant([1.0, 0.0]), h=0.01, T=1.0)
    with pytest.raises(ValueError, match="too short"):
        estimate_decay(traj)


def test_growth_returns_none():
    traj = simulate(_scalar(2.0, 1.0), HistorySpec.constant([1.0]), h=0.1, T=6.0)
    assert estimate_decay(traj) is None


def test_step_halving_consistency_order():
    sys = benchmark_system(0.3, 0.1)
    hist = make_compatible(sys, HistorySpec.random_smooth(11))
    runs = [simulate(sys, hist, h=h, T=3.0) for h in (0.0125, 0.00625, 0.003125)]

    def max_diff(a, b):
        ia = np.arange(a.hist_len, a.samples.shape[0])
        ib = (ia - a.hist_len) * 2 + b.hist_len
        return float(np.max(np.linalg.norm(a.samples[ia] - b.samples[ib], axis=1)))

    d1 = max_diff(runs[0], runs[1])
    d2 = max_diff(runs[1], runs[2])
    assert math.log2(d1 / d2) >= 1.8


def _quad_integral(spec, n, tau, lo):
    """int_lo^0 of spec's history by scipy's adaptive quadrature, split at
    the sample breakpoints of a "custom-sampled" history and at -tau."""
    phi = spec.as_callable(n, tau)
    breaks = [-tau]
    if spec.samples is not None:
        breaks = np.linspace(-tau, 0.0, spec.samples.shape[0])
    inside = [b for b in breaks if lo < b < 0.0]
    return np.array([
        quad(lambda s: phi(s)[k], lo, 0.0, points=inside or None, epsabs=1e-14, epsrel=1e-12)[0]
        for k in range(n)
    ])


def _compatibility_residual(sys, spec):
    """|| sum_i A_i int_{-tau_i}^0 phi - phi(0) || with quadrature integrals."""
    acc = -spec.as_callable(sys.n, sys.tau_max)(0.0)
    for Ai, ti in zip(sys.A, sys.tau):
        acc += Ai @ _quad_integral(spec, sys.n, sys.tau_max, -ti)
    return float(np.linalg.norm(acc))


def test_make_compatible_removes_startup_jump():
    sys = benchmark_system(0.3, 0.1)
    hist = make_compatible(sys, HistorySpec.random_smooth(4))
    # every window integral is exact, so only rounding is left
    assert _compatibility_residual(sys, hist) <= 1e-12


# 8 samples on [-0.3, 0]: breakpoints 3/70 apart, none at -0.11
_COMPAT_SPECS = {
    "constant": HistorySpec.constant([1.0, -2.0]),
    "random-smooth": HistorySpec.random_smooth(4),
    "custom-sampled": HistorySpec.sampled(np.random.default_rng(3).standard_normal((8, 2))),
}


@pytest.mark.parametrize("kind", sorted(_COMPAT_SPECS))
@pytest.mark.parametrize("offset", [None, (0.5, -0.25)])
def test_make_compatible_is_exact_for_every_kind(kind, offset):
    sys = benchmark_system(0.3, 0.11)
    spec = _COMPAT_SPECS[kind]
    if offset is not None:
        spec = replace(spec, offset=np.array(offset))
    hist = make_compatible(sys, spec)
    assert _compatibility_residual(sys, hist) <= 1e-12
    again = make_compatible(sys, hist)
    assert np.abs(again.offset - hist.offset).max() <= 1e-13


@pytest.mark.parametrize("kind", sorted(_COMPAT_SPECS))
def test_history_integral_matches_quadrature_past_the_window(kind):
    # a window longer than tau: the formulas extend and the samples clamp
    spec = replace(_COMPAT_SPECS[kind], offset=np.array([0.5, -0.25]))
    for lo in (-0.07, -0.3, -0.45):
        np.testing.assert_allclose(
            spec.integral(2, 0.3, lo), _quad_integral(spec, 2, 0.3, lo), rtol=0, atol=1e-13
        )


# beta of random_smooth(1) at h 0.005, T 15, recorded before the history
# integrals in make_compatible became exact
@pytest.mark.parametrize(
    "tau, beta", [((0.3, 0.05), 4.710285), ((0.3, 0.11), 5.173249), ((0.3, 0.3), 3.158141)]
)
def test_decay_rate_of_the_paper_system_is_pinned(tau, beta, monkeypatch):
    sys = benchmark_system(*tau)
    traj = simulate(sys, make_compatible(sys, HistorySpec.random_smooth(1)), h=0.005, T=15.0)
    fit = estimate_decay(traj)
    assert fit[1] == pytest.approx(beta, rel=1e-6, abs=0)
    # the O(K) envelope gives the sliding-window maxima's fit bit for bit
    monkeypatch.setattr(simulator_module, "_running_max", _sliding_max)
    assert estimate_decay(traj) == fit


def _sliding_max(x, width):
    return sliding_window_view(x, width).max(axis=1)


def _decay_fit_by_polyfit(traj):
    """estimate_decay's fit as np.polyfit over the sliding-window envelope."""
    w = int(round(max(traj.tau_snapped) / traj.h))
    env = _sliding_max(np.linalg.norm(traj.samples[traj.hist_len :], axis=1), w + 1)
    t = np.arange(env.size) * traj.h
    pos = env > 0.0
    slope, intercept = np.polyfit(t[pos], np.log(env[pos]), 1)
    return math.exp(intercept) / traj.sup_history, -slope


@pytest.mark.parametrize("n, N", [(2, 2), (3, 3), (1, 2)])
def test_decay_fit_matches_polyfit(n, N):
    sys = benchmark_system(0.3, 0.05) if (n, N) == (2, 2) else _random_system(n, N)
    for seed in (1, 2):
        traj = simulate(sys, make_compatible(sys, HistorySpec.random_smooth(seed)), 0.005, 10.0)
        fit = estimate_decay(traj)
        alpha, beta = _decay_fit_by_polyfit(traj)
        assert abs(fit[0] - alpha) <= 1e-12 * alpha
        assert abs(fit[1] - beta) <= 1e-12 * abs(beta)


# (length, window): one window; a whole number of blocks; windows of two;
# the benchmark's norms (3,001 at h 0.005, T 15) at delays 0.3 to 0.9
_WINDOW_GRID = [
    (61, 61), (183, 61), (20, 2), (21, 2), (3001, 61), (3001, 121), (3001, 181), (500, 97)
]


def _decaying_and_died_out(size, width):
    rng = np.random.default_rng(size + width)
    decaying = rng.exponential(size=size) * np.exp(-np.linspace(0.0, 30.0, size))
    died_out = decaying.copy()
    died_out[size // 3 :] = 0.0
    return decaying, died_out, np.zeros(size)


@pytest.mark.parametrize("size, width", _WINDOW_GRID)
def test_running_max_matches_the_sliding_window(size, width):
    for x in _decaying_and_died_out(size, width):
        got = simulator_module._running_max(x, width)
        assert got.tobytes() == _sliding_max(x, width).tobytes()


@pytest.mark.parametrize("size, width", _WINDOW_GRID)
def test_window_sums_match_the_sliding_window(size, width):
    # signed rows, one call for all of them as _max_residual makes it; every
    # sum is held to its own window's sum of |x|, which a running-sum
    # difference misses by far on the decaying tails, and a window on a
    # block boundary (i a multiple of width) counted twice misses outright
    rows = np.stack(_decaying_and_died_out(size, width))
    rows[:, 1::2] *= -1.0
    got = simulator_module._window_reduce(rows, width, np.add)
    ref = sliding_window_view(rows, width, axis=1).sum(axis=-1)
    scale = sliding_window_view(np.abs(rows), width, axis=1).sum(axis=-1)
    assert got.shape == ref.shape == (3, size - width + 1)
    assert np.all(np.abs(got - ref) <= width * np.finfo(float).eps * scale)


def test_history_kinds_and_validation():
    sys = benchmark_system(0.3, 0.1)
    h1 = HistorySpec.constant([1.0, 2.0]).as_callable(2, 0.3)
    np.testing.assert_array_equal(h1(-0.1), [1.0, 2.0])
    h2a = HistorySpec.random_smooth(9).as_callable(2, 0.3)
    h2b = HistorySpec.random_smooth(9).as_callable(2, 0.3)
    np.testing.assert_array_equal(h2a(-0.2), h2b(-0.2))
    samples = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    h3 = HistorySpec.sampled(samples).as_callable(2, 0.3)
    np.testing.assert_allclose(h3(-0.15), [1.0, 1.0])
    with pytest.raises(ValueError, match="dimension"):
        HistorySpec.constant([1.0]).as_callable(2, 0.3)
    with pytest.raises(ValueError, match="unknown history"):
        HistorySpec(kind="nope").as_callable(2, 0.3)


def test_sampled_history_reads_a_flat_list_as_scalar_samples():
    spec = HistorySpec.sampled([1.0, 0.5, 0.2])
    assert spec.samples.shape == (3, 1)
    np.testing.assert_allclose(spec.as_callable(1, 0.4)(np.array([-0.4, -0.1, 0.0])), [[1.0], [0.35], [0.2]])
    with pytest.raises(ValueError, match="at least two samples"):
        HistorySpec.sampled([1.0])


def _constant_trajectory(sys, c, h, T):
    m = [int(round(t / h)) for t in sys.tau]
    khist = max(m)
    steps = int(round(T / h))
    samples = np.tile(np.asarray(c, dtype=float), (khist + steps + 1, 1))
    return Trajectory(
        h=h,
        T=steps * h,
        samples=samples,
        hist_len=khist,
        tau_snapped=tuple(mi * h for mi in m),
        snap_error=0.0,
        sup_history=float(np.linalg.norm(c)),
        max_residual=0.0,
    )


def test_trajectory_samples_are_a_read_only_copy():
    sys = benchmark_system(0.3, 0.1)
    traj = simulate(sys, HistorySpec.random_smooth(1), h=0.01, T=1.0)
    caller = np.ones((traj.samples.shape[0], 2))
    built = _constant_trajectory(sys, [1.0, 0.0], 0.01, 1.0)
    by_hand = replace(built, samples=caller)
    for t in (traj, built, by_hand):
        assert not t.samples.flags.writeable
        assert t.samples.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            t.samples[0, 0] = 2.0
    assert by_hand.samples is not caller and caller.flags.writeable
    caller[0, 0] = 2.0
    assert by_hand.samples[0, 0] == 1.0
    with pytest.raises(FrozenInstanceError):
        by_hand.samples = caller


def test_a_system_built_without_validation_simulates_as_the_validated_one():
    # tau_max is derived from tau, not a field that only validation fills
    A = (np.array([[-4.0, 1.0], [-13.0, 2.0]]), np.array([[0.0, -1.0], [1.0, 0.0]]))
    raw = IdsSystem(A=A, tau=(0.3, 0.1))
    valid = benchmark_system(0.3, 0.1)
    assert raw.tau_max == valid.tau_max == 0.3
    spec = HistorySpec.random_smooth(3)
    shifted = [make_compatible(s, spec) for s in (raw, valid)]
    np.testing.assert_array_equal(shifted[0].offset, shifted[1].offset)
    trajs = [simulate(s, h, h=0.01, T=2.0) for s, h in zip((raw, valid), shifted)]
    np.testing.assert_array_equal(trajs[0].samples, trajs[1].samples)


def test_functional_zero_trajectory():
    sys = benchmark_system(0.3, 0.1)
    traj = _constant_trajectory(sys, [0.0, 0.0], 0.01, 2.0)
    w = {"P": np.eye(2), "Q": [np.eye(2), np.eye(2)]}
    assert eval_functional(sys, traj, "amc", w, 0.5) == 0.0


def test_functional_constant_state_closed_form():
    sys = benchmark_system(0.3, 0.1)
    c = np.array([0.7, -0.4])
    traj = _constant_trajectory(sys, c, 0.01, 2.0)
    P = np.array([[2.0, 0.1], [0.1, 1.0]])
    Q1 = np.array([[1.0, 0.0], [0.0, 3.0]])
    Q2 = np.array([[0.5, 0.2], [0.2, 0.9]])
    V = eval_functional(sys, traj, "amc", {"P": P, "Q": [Q1, Q2]}, 1.0)
    tau = max(traj.tau_snapped)
    expected = tau * c @ P @ c + sum(
        0.5 * t * t * c @ Q @ c for t, Q in zip(traj.tau_snapped, (Q1, Q2))
    )
    assert abs(V - expected) <= 1e-12 * abs(expected)


def test_functional_th1_constant_state():
    sys = benchmark_system(0.3, 0.1)
    c = np.array([1.0, 1.0])
    traj = _constant_trajectory(sys, c, 0.01, 2.0)
    P = 0.1 * np.eye(2)
    S1, S2 = np.eye(2), 2 * np.eye(2)
    V = eval_functional(sys, traj, "th1", {"P": P, "S": [S1, S2]}, 0.5)
    tau = max(traj.tau_snapped)
    # integral of (s/tau_i + 1) over the window is tau_i/2
    expected = tau * c @ P @ c + sum(
        0.5 * t * c @ S @ c for t, S in zip(traj.tau_snapped, (S1, S2))
    )
    assert abs(V - expected) <= 1e-12 * abs(expected)


def test_functional_guards():
    sys = benchmark_system(0.3, 0.1)
    traj = _constant_trajectory(sys, [1.0, 0.0], 0.01, 2.0)
    w = {"P": np.eye(2), "Q": [np.eye(2), np.eye(2)]}
    with pytest.raises(ValueError, match="outside"):
        eval_functional(sys, traj, "amc", w, 1.9)
    with pytest.raises(ValueError, match="unknown functional"):
        eval_functional(sys, traj, "nope", w, 0.5)
    with pytest.raises(ValueError, match="shape"):
        eval_functional(sys, traj, "amc", {"P": np.eye(3), "Q": [np.eye(2)] * 2}, 0.5)
    for t in (np.array([0.5, 0.6]), np.array([0.5]), [0.5]):
        with pytest.raises(ValueError, match="must be a scalar grid time"):
            eval_functional(sys, traj, "amc", w, t)


def test_lyapunov_nonincreasing_along_benchmark():
    sys = benchmark_system(0.3, 0.11)
    hist = make_compatible(sys, HistorySpec.random_smooth(5))
    traj = simulate(sys, hist, h=0.01, T=6.0)
    rep = solve_feasibility(build_th2_lmi(sys))
    assert rep.feasible
    params = th2_functional_params(sys, [rep.witness["Q1"], rep.witness["Q2"]])
    ts = np.round(np.arange(0.0, traj.T - max(traj.tau_snapped), 0.05), 10)
    V = np.array([eval_functional(sys, traj, "th2", params, t) for t in ts])
    assert V[0] > 0
    eps_v = 50.0 * traj.h**2 * V[0]
    assert np.all(np.diff(V) <= eps_v)


def test_amc_functional_decreases_where_coupled_condition_holds():
    sys = benchmark_system(0.3, 0.04)
    hist = make_compatible(sys, HistorySpec.random_smooth(6))
    traj = simulate(sys, hist, h=0.005, T=4.0)
    rep = solve_feasibility(build_amc(sys))
    assert rep.feasible
    w = {"P": rep.witness["P"], "Q": [rep.witness["Q1"], rep.witness["Q2"]]}
    ts = np.round(np.arange(0.0, traj.T - max(traj.tau_snapped), 0.05), 10)
    V = np.array([eval_functional(sys, traj, "amc", w, t) for t in ts])
    eps_v = 50.0 * traj.h**2 * max(V[0], 1e-30)
    assert np.all(np.diff(V) <= eps_v)


def test_spectral_pass_implies_simulated_decay():
    from ids_stability.criteria_spectral import check_spectral
    from ids_stability.suites import random_corpus

    checked = 0
    for sys in random_corpus(seed=31, count=10):
        if not check_spectral(sys).passed:
            continue
        checked += 1
        h = min(sys.tau) / 10
        T = max(10 * sys.tau_max, 3.0)
        traj = simulate(sys, HistorySpec.random_smooth(1), h=h, T=T)
        fit = estimate_decay(traj)
        assert fit is not None and fit[1] > 0, f"no decay for {sys}"
    assert checked >= 3


def test_export_csv_layout():
    sys = benchmark_system(0.3, 0.1)
    traj = simulate(sys, HistorySpec.constant([1.0, 0.0]), h=0.0125, T=0.5)
    buf = io.StringIO()
    export_csv(traj, buf, decay=(1.0, 0.5))
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t, x1, x2"
    assert lines[-2].startswith("# decay alpha")
    assert lines[-1].startswith("# decay beta")
    assert len(lines) == traj.samples.shape[0] + 3


def test_history_callables_accept_time_arrays():
    samples = np.random.default_rng(2).standard_normal((7, 3))
    specs = [
        HistorySpec.constant([1.0, -2.0, 0.5]),
        HistorySpec.random_smooth(5),
        HistorySpec.sampled(samples),
        make_compatible(benchmark_system(0.3, 0.1), HistorySpec.random_smooth(5)),
    ]
    s = np.linspace(-0.35, 0.05, 41)
    for spec in specs:
        n = 2 if spec.offset is not None else 3
        phi = spec.as_callable(n, 0.3)
        rows = phi(s)
        assert rows.shape == (s.size, n)
        np.testing.assert_array_equal(rows, np.array([phi(si) for si in s]))
        assert phi(0.0).shape == (n,)


@pytest.mark.parametrize("tau, beta", [((0.3, 0.3), 3.158), ((0.3, 0.05), 4.709)])
def test_decay_rate_matches_rightmost_root(tau, beta):
    # beta is minus the rightmost characteristic root; a running-sum window
    # stalls the fast decays at its rounding floor (beta 0.88 and 14.8 here)
    sys = benchmark_system(*tau)
    traj = simulate(sys, make_compatible(sys, HistorySpec.random_smooth(3)), h=0.005, T=30.0)
    _, fitted = estimate_decay(traj)
    assert abs(fitted - beta) <= 0.01 * beta


# -- reference implementations: the per-step loop and per-term quadrature ------


def _reference_simulate(sys, history, h, T):
    """One window sum, matvec and n x n solve per delay and step."""
    n = sys.n
    m = [int(round(t / h)) for t in sys.tau]
    tau_snapped = tuple(mi * h for mi in m)
    snap_error = max(abs(ts - t) for ts, t in zip(tau_snapped, sys.tau))
    khist = max(m)
    steps = int(math.ceil(T / h - 1e-9))
    phi = history.as_callable(n, sys.tau_max)
    X = np.zeros((khist + steps + 1, n))
    X[: khist + 1] = phi((np.arange(khist + 1) - khist) * h)
    step_mat = np.eye(n) - (h / 2.0) * sum(sys.A)
    for k in range(khist + 1, khist + steps + 1):
        r = np.zeros(n)
        for Ai, mi in zip(sys.A, m):
            r += Ai @ (h * (0.5 * X[k - mi] + X[k - mi + 1 : k].sum(axis=0)))
        X[k] = np.linalg.solve(step_mat, r)
    return Trajectory(
        h=h,
        T=steps * h,
        samples=X,
        hist_len=khist,
        tau_snapped=tau_snapped,
        snap_error=snap_error,
        sup_history=float(np.max(np.linalg.norm(X[: khist + 1], axis=1))),
        max_residual=0.0,
    )


def _reference_functional(sys, traj, which, witness, t):
    """Each term its own np.trapezoid over its own window."""
    k = traj.index_of(t)
    m = [int(round(ti / traj.h)) for ti in traj.tau_snapped]

    def quad(M, mi, weight=None):
        vals = traj.samples[k - mi : k + 1]
        q = np.einsum("ki,ij,kj->k", vals, M, vals)
        s = (np.arange(mi + 1) - mi) * traj.h
        return float(np.trapezoid(q if weight is None else weight(s) * q, dx=traj.h))

    taus = traj.tau_snapped
    if which == "th2":
        V = sum(witness["eps"] * quad(Ri, mi) for Ri, mi in zip(witness["R"], m))
        for Ai, Qi, mi, ti in zip(sys.A, witness["Q"], m, taus):
            W = ti * Ai.T @ np.linalg.inv(Qi) @ Ai + witness["delta"] * np.eye(sys.n)
            V += quad(W, mi, lambda s, ti=ti: s + ti)
        return V
    key, weight = {"amc": ("Q", lambda s, ti: s + ti), "th1": ("S", lambda s, ti: s / ti + 1.0)}[which]
    V = quad(witness["P"], max(m))
    for Mi, mi, ti in zip(witness[key], m, taus):
        V += quad(Mi, mi, lambda s, ti=ti: weight(s, ti))
    return V


# N = 1: a snapped delay (20.5 steps); N = 2: a snapped delay; N = 3: two
# delays that snap to the same m = 10
_TAUS = {1: (0.205,), 2: (0.3, 0.1004), 3: (0.3, 0.1, 0.1004)}
_SHAPES = list(itertools.product((1, 2, 3), (1, 2, 3)))


def _random_system(n, N):
    rng = np.random.default_rng(10 * n + N)
    A = tuple(rng.standard_normal((n, n)) for _ in range(N))
    return validate_system(IdsSystem(A=A, tau=_TAUS[N]))


def _spd(rng, n):
    B = rng.standard_normal((n, n))
    return B @ B.T + n * np.eye(n)


def _witnesses(rng, n, N):
    """One random positive definite witness for each certificate functional."""
    return {
        "amc": {"P": _spd(rng, n), "Q": [_spd(rng, n) for _ in range(N)]},
        "th1": {"P": _spd(rng, n), "S": [_spd(rng, n) for _ in range(N)]},
        "th2": {
            "R": [_spd(rng, n) for _ in range(N)],
            "Q": [_spd(rng, n) for _ in range(N)],
            "delta": 0.3,
            "eps": 0.7,
        },
    }


def _assert_matches_reference(sys, hist, h, T):
    got = simulate(sys, hist, h=h, T=T)
    ref = _reference_simulate(sys, hist, h=h, T=T)
    assert (got.hist_len, got.tau_snapped, got.snap_error) == (
        ref.hist_len,
        ref.tau_snapped,
        ref.snap_error,
    )
    assert (got.T, got.sup_history) == (ref.T, ref.sup_history)
    assert got.samples.shape == ref.samples.shape
    err = np.max(np.abs(got.samples - ref.samples))
    assert err <= 1e-12 * np.max(np.abs(ref.samples))
    assert got.max_residual <= 1e-12
    return ref


@pytest.mark.parametrize("n, N", _SHAPES)
def test_simulate_matches_reference_loop(n, N):
    sys = _random_system(n, N)
    ref = _assert_matches_reference(sys, HistorySpec.random_smooth(n + N), h=0.01, T=3.0)
    assert ref.snap_error > 0 and len(set(ref.tau_snapped)) == min(N, 2)


def _random_2x2(*tau):
    rng = np.random.default_rng(len(tau))
    return validate_system(IdsSystem(A=tuple(rng.standard_normal((2, 2)) for _ in tau), tau=tau))


# simulate advances 32 steps per kernel product (simulator._BLOCK)
@pytest.mark.parametrize(
    "sys, h, T",
    [
        (_random_2x2(0.1), 0.01, 3.0),
        (_random_2x2(0.45, 0.2), 0.01, 3.0),
        (_random_2x2(0.32, 0.1), 0.01, 3.2),
        (_random_2x2(0.3, 0.1), 0.01, 3.33),
        (_random_2x2(0.1), 0.01, 0.2),
        (_random_2x2(0.25), 0.01, 0.32),
        (benchmark_system(0.3, 0.3), 0.005, 15.0),
    ],
    ids=[
        "khist-10-below-a-block",
        "khist-45-above-a-block",
        "khist-32-one-block",
        "333-steps-not-a-multiple",
        "20-steps-shorter-than-a-block",
        "32-steps-one-block",
        "benchmark-trajectory-grid",
    ],
)
def test_simulate_matches_reference_across_block_boundaries(sys, h, T):
    _assert_matches_reference(sys, HistorySpec.random_smooth(5), h=h, T=T)


def test_simulate_makes_one_kernel_product_per_block(monkeypatch):
    # a per-step loop would make one np.dot per step (3,000 here)
    calls = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def dot(self, *args, **kwargs):
            calls.append(1)
            return np.dot(*args, **kwargs)

    monkeypatch.setattr(simulator_module, "np", CountingNumpy())
    sys = benchmark_system(0.3, 0.3)
    traj = simulate(sys, HistorySpec.random_smooth(1), h=0.005, T=15.0)
    steps = traj.samples.shape[0] - traj.hist_len - 1
    assert steps == 3000
    assert len(calls) <= math.ceil(steps / 32) + 2


@pytest.mark.parametrize("n, N", _SHAPES)
def test_functional_matches_per_term_quadrature(n, N):
    sys = _random_system(n, N)
    traj = simulate(sys, HistorySpec.random_smooth(n + N), h=0.01, T=3.0)
    for which, w in _witnesses(np.random.default_rng(n * N), n, N).items():
        for t in (0.0, 0.37, 2.4):
            got = eval_functional(sys, traj, which, w, t)
            ref = _reference_functional(sys, traj, which, w, t)
            assert abs(got - ref) <= 1e-12 * abs(ref), (which, t)
            assert eval_functional(sys, traj, which, w, np.float64(t)) == got


def test_functional_memo_matches_cold_evaluation():
    # 0.1035 snaps to 10 steps at h = 0.01 and to 21 steps at h = 0.005, so
    # the first two trajectories differ in h and in their snapped delays, the
    # last two only in their delays, and the first and last only in h
    sys = _random_2x2(0.3, 0.1035)
    other = validate_system(IdsSystem(A=sys.A, tau=(0.3, 0.1)))
    runs = [
        (s, simulate(s, HistorySpec.random_smooth(3), h=h, T=3.0))
        for s, h in ((sys, 0.01), (sys, 0.005), (other, 0.005))
    ]
    assert [[round(ti / traj.h) for ti in traj.tau_snapped] for _, traj in runs] == [
        [30, 10],
        [60, 21],
        [60, 20],
    ]
    rng = np.random.default_rng(13)
    pair = [_witnesses(rng, 2, 2) for _ in range(2)]
    for which in ("amc", "th1", "th2"):
        # each value folds its matrices for a (system, grid), reuses them at
        # the later times, replaces them for the next grid, and folds them
        # again; a plain dict is folded anew on every call
        values = [FunctionalWitness(which, w[which]) for w in pair]
        calls = [
            (s, traj, j, t)
            for _ in range(2)
            for j in range(2)
            for s, traj in runs + runs[:1]
            for t in (0.0, 0.37, 2.4)
        ]
        warm = [eval_functional(s, traj, which, values[j], t) for s, traj, j, t in calls]
        for (s, traj, j, t), got in zip(calls, warm):
            w = pair[j][which]
            assert got == eval_functional(s, traj, which, w, t), (which, traj.h, t)
            ref = _reference_functional(s, traj, which, w, t)
            assert abs(got - ref) <= 1e-12 * abs(ref), (which, traj.h, t)


def test_functional_follows_values_changed_in_place():
    sys = _random_system(2, 2)
    traj = simulate(sys, HistorySpec.random_smooth(4), h=0.01, T=3.0)
    w = _witnesses(np.random.default_rng(2), 2, 2)
    for which, M in (("amc", w["amc"]["P"]), ("th1", w["th1"]["S"][1]), ("th2", w["th2"]["Q"][0])):
        before = eval_functional(sys, traj, which, w[which], 0.37)
        M[0, 0] += 1.0
        after = eval_functional(sys, traj, which, w[which], 0.37)
        ref = _reference_functional(sys, traj, which, w[which], 0.37)
        assert after != before
        assert abs(after - ref) <= 1e-12 * abs(ref), which
    # each of these has the same matrices as the call before it
    halved = validate_system(IdsSystem(A=tuple(0.5 * Ai for Ai in sys.A), tau=sys.tau))
    amc = w["amc"]
    for s, which, witness in (
        (halved, "th2", w["th2"]),
        (halved, "th2", {**w["th2"], "eps": 0.2}),
        (halved, "th2", {**w["th2"], "delta": 0.1}),
        (sys, "amc", amc),
        (sys, "th1", {"P": amc["P"], "S": amc["Q"]}),
    ):
        V = eval_functional(s, traj, which, witness, 0.37)
        ref = _reference_functional(s, traj, which, witness, 0.37)
        assert abs(V - ref) <= 1e-12 * abs(ref), which


def test_functional_guards_hold_after_a_memo_hit():
    sys = benchmark_system(0.3, 0.1)
    traj = _constant_trajectory(sys, [1.0, 0.0], 0.01, 2.0)
    w = {"P": np.eye(2), "Q": [np.eye(2), np.eye(2)]}
    fw = FunctionalWitness("amc", w)
    V = eval_functional(sys, traj, "amc", fw, 0.5)
    assert eval_functional(sys, traj, "amc", fw, 0.5) == V
    assert eval_functional(sys, traj, "amc", w, 0.5) == V
    # the same bytes as a valid P, in another shape
    flat = {"P": np.eye(2).reshape(1, 4), "Q": w["Q"]}
    with pytest.raises(ValueError, match="shape"):
        eval_functional(sys, traj, "amc", flat, 0.5)
    short = {"P": w["P"], "Q": w["Q"][:1]}
    with pytest.raises(ValueError, match="expected 3 matrices"):
        eval_functional(sys, traj, "amc", short, 0.5)
    with pytest.raises(ValueError, match="expected 3 matrices"):
        eval_functional(sys, traj, "amc", FunctionalWitness("amc", short), 0.5)
    with pytest.raises(ValueError, match="unknown functional"):
        eval_functional(sys, traj, "nope", w, 0.5)
    # a value answers only for the functional it was built for
    for which in ("nope", "th1"):
        with pytest.raises(ValueError, match="witness is for the amc functional"):
            eval_functional(sys, traj, which, fw, 0.5)
    with pytest.raises(ValueError, match="not on the simulation grid"):
        eval_functional(sys, traj, "amc", fw, 0.503)
    with pytest.raises(ValueError, match="outside"):
        eval_functional(sys, traj, "amc", fw, 1.9)
    assert eval_functional(sys, traj, "amc", fw, 0.5) == V


def test_functional_rejects_non_finite_witness():
    sys = benchmark_system(0.3, 0.1)
    traj = _constant_trajectory(sys, [1.0, 0.0], 0.01, 2.0)
    good = FunctionalWitness("amc", {"P": np.eye(2), "Q": [np.eye(2), np.eye(2)]})
    V = eval_functional(sys, traj, "amc", good, 0.5)
    P = np.eye(2)
    P[0, 1] = np.nan
    th2 = {"R": [np.eye(2)] * 2, "Q": [np.eye(2)] * 2, "delta": 0.1, "eps": 0.5}
    bad = [
        ("amc", {**good, "P": P}, "non-finite"),
        ("th2", {**th2, "Q": [np.eye(2), np.full((2, 2), np.inf)]}, "non-finite"),
        *(("th2", {**th2, field: np.nan}, "must be finite") for field in ("delta", "eps")),
    ]
    for which, witness, message in bad:
        # no value holding a non-finite entry can be built
        with pytest.raises(ValueError, match=message):
            FunctionalWitness(which, witness)
        with pytest.raises(ValueError, match=message):
            eval_functional(sys, traj, which, witness, 0.5)
    assert eval_functional(sys, traj, "amc", good, 0.5) == V


def test_functional_memo_is_safe_across_two_threads():
    # both threads evaluate both values, each thread with its own system, so
    # every value's cached matrices keep switching between the two systems
    system = _random_system(2, 2)
    halved = validate_system(IdsSystem(A=tuple(0.5 * Ai for Ai in system.A), tau=system.tau))
    systems = (system, halved)
    traj = simulate(system, HistorySpec.random_smooth(4), h=0.01, T=3.0)
    rng = np.random.default_rng(5)
    pair = [FunctionalWitness("th2", _witnesses(rng, 2, 2)["th2"]) for _ in range(2)]
    ts = np.round(np.arange(0.0, 2.7, 0.01), 10)
    serial = [
        [eval_functional(s, traj, "th2", dict(w), t) for t in ts for w in pair] for s in systems
    ]
    rounds = 3
    results = [None, None]

    def work(j):
        results[j] = [
            eval_functional(systems[j], traj, "th2", w, t)
            for _ in range(rounds)
            for t in ts
            for w in pair
        ]

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
    assert results == [vals * rounds for vals in serial]


def _count_folds(monkeypatch):
    """Patch the simulator to count ``np.linalg.inv`` calls and trapezoid
    weight builds; returns the two lists the counts are appended to."""
    inverses, weight_builds = [], []

    class CountingLinalg:
        def __getattr__(self, name):
            return getattr(np.linalg, name)

        def inv(self, *args, **kwargs):
            inverses.append(1)
            return np.linalg.inv(*args, **kwargs)

    class CountingNumpy:
        linalg = CountingLinalg()

        def __getattr__(self, name):
            return getattr(np, name)

    trapezoid_weights = simulator_module._trapezoid_weights

    def counting_weights(*args):
        weight_builds.append(1)
        return trapezoid_weights(*args)

    monkeypatch.setattr(simulator_module, "np", CountingNumpy())
    monkeypatch.setattr(simulator_module, "_trapezoid_weights", counting_weights)
    return inverses, weight_builds


def test_functional_takes_one_inverse_per_trajectory(monkeypatch):
    # rebuilding th2's W_i, or its folded matrices, on every call would invert
    # the Q_i and build the trapezoid weights 294 times here
    sys = benchmark_system(0.3, 0.3)
    traj = simulate(sys, HistorySpec.random_smooth(1), h=0.005, T=15.0)
    w = FunctionalWitness("th2", _witnesses(np.random.default_rng(1), 2, 2)["th2"])
    inverses, weight_builds = _count_folds(monkeypatch)
    ts = np.round(np.arange(0.0, traj.T - max(traj.tau_snapped), 0.05), 10)
    assert len(ts) == 294
    for t in ts:
        eval_functional(sys, traj, "th2", w, t)
    assert len(inverses) == 1
    assert len(weight_builds) == 1


def test_functional_value_folds_once_for_all_trajectories_of_a_system(monkeypatch):
    # the benchmark's pattern: one witness per system, evaluated on several
    # of its trajectories at 294 times each.  They share the system and the
    # grid, so the value folds once; a cache kept per trajectory would fold
    # twice here, and none at all 588 times
    sys = benchmark_system(0.3, 0.3)
    trajs = [simulate(sys, HistorySpec.random_smooth(seed), h=0.005, T=15.0) for seed in (1, 2)]
    w = FunctionalWitness("th2", _witnesses(np.random.default_rng(1), 2, 2)["th2"])
    inverses, weight_builds = _count_folds(monkeypatch)
    ts = np.round(np.arange(0.0, trajs[0].T - max(trajs[0].tau_snapped), 0.05), 10)
    assert len(ts) == 294
    for traj in trajs:
        for t in ts:
            V = eval_functional(sys, traj, "th2", w, t)
        ref = _reference_functional(sys, traj, "th2", w, ts[-1])
        assert abs(V - ref) <= 1e-12 * abs(ref)
    assert len(inverses) == 1
    assert len(weight_builds) == 1


def test_th2_functional_params_hold_read_only_copies():
    # the certificate must not follow later edits of the solver's witness
    sys = benchmark_system(0.3, 0.11)
    traj = simulate(sys, make_compatible(sys, HistorySpec.random_smooth(5)), h=0.01, T=3.0)
    rep = solve_feasibility(build_th2_lmi(sys))
    assert rep.feasible
    params = th2_functional_params(sys, [rep.witness["Q1"], rep.witness["Q2"]])
    assert isinstance(params, FunctionalWitness) and params.which == "th2"
    assert set(params) == {"R", "Q", "delta", "eps"} and len(params) == 4
    V = eval_functional(sys, traj, "th2", params, 0.5)
    Q1 = rep.witness["Q1"].copy()
    rep.witness["Q1"][0, 0] += 1.0
    assert eval_functional(sys, traj, "th2", params, 0.5) == V
    np.testing.assert_array_equal(params["Q"][0], Q1)
    for M in (*params["R"], *params["Q"]):
        assert M.dtype == np.float64 and not M.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            M[0, 0] = 0.0
    with pytest.raises(FrozenInstanceError):
        params.which = "amc"
    with pytest.raises(TypeError):
        params.witness["delta"] = 0.0
    assert eval_functional(sys, traj, "th2", params, 0.5) == V


def test_functional_builds_gram_rows_once_per_trajectory(monkeypatch):
    # forming the window's outer products on every call would build them
    # 294 times here; each trajectory caches its own rows, built once
    builds = []
    real = Trajectory.gram_rows.func

    def counting_gram_rows(traj):
        builds.append(traj)
        return real(traj)

    counting = cached_property(counting_gram_rows)
    counting.__set_name__(Trajectory, "gram_rows")
    monkeypatch.setattr(Trajectory, "gram_rows", counting)
    sys = benchmark_system(0.3, 0.3)
    first, second = (
        simulate(sys, HistorySpec.random_smooth(seed), h=0.005, T=15.0) for seed in (1, 2)
    )
    w = _witnesses(np.random.default_rng(1), 2, 2)["th2"]
    ts = np.round(np.arange(0.0, first.T - max(first.tau_snapped), 0.05), 10)
    assert len(ts) == 294
    for traj in (first, second):
        for t in ts:
            V = eval_functional(sys, traj, "th2", w, t)
        ref = _reference_functional(sys, traj, "th2", w, ts[-1])
        assert abs(V - ref) <= 1e-12 * abs(ref)
    assert len(builds) == 2 and builds[0] is first and builds[1] is second
    X = first.samples
    np.testing.assert_array_equal(first.gram_rows, np.einsum("ki,kj->kij", X, X).reshape(len(X), -1))


def test_residual_checks_the_equation_not_the_solve():
    sys = benchmark_system(0.3, 0.11)
    traj = simulate(sys, HistorySpec.random_smooth(2), h=0.01, T=3.0)
    m = [int(round(t / traj.h)) for t in traj.tau_snapped]
    first = traj.hist_len + 1
    assert _max_residual(sys.A, m, traj.h, traj.samples, first) <= 1e-12
    bent = traj.samples.copy()
    bent[first + 100] += 1e-6
    assert _max_residual(sys.A, m, traj.h, bent, first) >= 1e-8


def _count_kernel_builds(monkeypatch):
    builds = []
    real = simulator_module._block_kernel

    def counting_block_kernel(K, L):
        builds.append((K.shape, L))
        return real(K, L)

    monkeypatch.setattr(simulator_module, "_block_kernel", counting_block_kernel)
    return builds


def test_trajectories_of_one_system_build_its_step_kernel_once(monkeypatch):
    builds = _count_kernel_builds(monkeypatch)
    sys = benchmark_system(0.3, 0.1)
    for seed in (1, 2):
        simulate(sys, HistorySpec.random_smooth(seed), h=0.01, T=3.0)
    assert builds == [((2, 60), 32)]
    # the system keeps one kernel, keyed by h and the block length: a new h
    # or a horizon shorter than one block builds anew, and so does going back
    simulate(sys, HistorySpec.random_smooth(1), h=0.005, T=3.0)
    simulate(sys, HistorySpec.random_smooth(1), h=0.005, T=3.0)
    simulate(sys, HistorySpec.random_smooth(1), h=0.01, T=0.3)
    simulate(sys, HistorySpec.random_smooth(1), h=0.01, T=3.0)
    assert builds == [((2, 60), 32), ((2, 120), 32), ((2, 60), 30), ((2, 60), 32)]
    key, F = vars(sys)["step_kernel"]
    assert key == (0.01, 32) and F.shape == (64, 60) and not F.flags.writeable


def test_a_cached_step_kernel_gives_the_samples_of_a_fresh_system():
    sys = benchmark_system(0.3, 0.1)
    hist = make_compatible(sys, HistorySpec.random_smooth(4))
    simulate(sys, HistorySpec.random_smooth(1), h=0.01, T=3.0)
    warm = simulate(sys, hist, h=0.01, T=3.0)
    fresh = simulate(benchmark_system(0.3, 0.1), hist, h=0.01, T=3.0)
    np.testing.assert_array_equal(warm.samples, fresh.samples)
    assert warm.max_residual == fresh.max_residual


def test_a_singular_step_matrix_raises_on_every_call_and_caches_nothing(monkeypatch):
    builds = _count_kernel_builds(monkeypatch)
    sys = _scalar(20.0, 0.8)
    for _ in range(2):
        with pytest.raises(SimulationError, match="halving h"):
            simulate(sys, HistorySpec.constant([1.0]), h=0.1, T=2.0)
    assert builds == [] and set(vars(sys)) == {"A", "tau"}


BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")


def test_benchmark_trajectories_build_one_kernel_per_system(monkeypatch):
    # the benchmark's traffic: 100 trajectories of 11 systems at seed 1
    monkeypatch.syspath_prepend(BENCH)
    import workloads

    wl = workloads.Trajectories()
    items = wl.setup(1, 1)
    builds = _count_kernel_builds(monkeypatch)
    runner = workloads.Runner(SimpleNamespace(mark=lambda: 0.0))
    wl.run(items, runner)
    assert len(items) == len(runner.checks) == 100
    assert [(rid, f) for rid, f in runner.checks if f] == []
    assert len(builds) == len({id(item[1]) for item in items}) == 11


def _direct_functional(sys, traj, w, t):
    """One slice of the Gram rows against the folded matrices, at index_of(t)."""
    k = traj.index_of(t)
    C = w.folded(sys, traj)
    return float(np.vdot(C, traj.gram_rows[k + 1 - len(C) : k + 1]))


def test_functional_at_the_ends_of_its_range():
    sys = benchmark_system(0.3, 0.1)
    traj = simulate(sys, make_compatible(sys, HistorySpec.random_smooth(3)), h=0.01, T=2.0)
    w = FunctionalWitness("th2", _witnesses(np.random.default_rng(2), 2, 2)["th2"])
    last = traj.T - max(traj.tau_snapped)
    assert last == 1.7
    cases = {
        0.0: (0, 0.0, np.float64(0.0), -5e-13),
        1.0: (1, np.float64(1.0)),
        1.5: (1.5, 1.5 + 1.2e-9),  # off by more than 1e-9, but not by 1e-9 * t
        last: (last, np.float64(last), last + 5e-13),
    }
    for grid_t, times in cases.items():
        V = _direct_functional(sys, traj, w, grid_t)
        assert abs(V - _reference_functional(sys, traj, "th2", w, grid_t)) <= 1e-12 * abs(V)
        for t in times:
            assert eval_functional(sys, traj, "th2", w, t) == V
    errors = {
        last + 2e-12: "t=1.700000000002 outside [0, T - tau] = [0, 1.7]",
        -2e-12: "t=-2e-12 outside [0, T - tau] = [0, 1.7]",
        1.5 + 3e-9: "t=1.500000003 is not on the simulation grid (h=0.01)",
        np.float64(0.505): "t=0.505 is not on the simulation grid (h=0.01)",
    }
    for t, message in errors.items():
        with pytest.raises(ValueError) as exc:
            eval_functional(sys, traj, "th2", w, t)
        assert str(exc.value) == message
