import io
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from ids_stability.criteria_lmi import th2_functional_params
from ids_stability.lmi_core import solve_feasibility
from ids_stability.criteria_lmi import build_amc, build_th2_lmi
from ids_stability.model import IdsSystem, benchmark_system, validate_system
from ids_stability.simulator import (
    HistorySpec,
    SimulationError,
    Trajectory,
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


def test_singular_step_matrix_reports():
    # (h/2) * a = 1 makes the implicit solve singular
    sys = _scalar(20.0, 0.8)
    with pytest.raises(SimulationError, match="halving h"):
        simulate(sys, HistorySpec.constant([1.0]), h=0.1, T=2.0)


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
    assert traj.decay_fit == fit


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


def test_make_compatible_removes_startup_jump():
    sys = benchmark_system(0.3, 0.1)
    hist = make_compatible(sys, HistorySpec.random_smooth(4))
    phi = hist.as_callable(sys.n, sys.tau_max)
    acc = np.zeros(sys.n)
    for Ai, ti in zip(sys.A, sys.tau):
        s = np.linspace(-ti, 0, 20001)
        vals = np.array([phi(x) for x in s])
        acc += Ai @ np.trapezoid(vals, dx=ti / 20000, axis=0)
    # residual is bounded by the internal quadrature resolution
    assert np.linalg.norm(acc - phi(0.0)) < 1e-6


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
