import io
import itertools
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from ids_stability.criteria_lmi import th2_functional_params
from ids_stability.lmi_core import solve_feasibility
from ids_stability.criteria_lmi import build_amc, build_th2_lmi
from ids_stability.model import IdsSystem, benchmark_system, validate_system
from ids_stability import simulator as simulator_module
from ids_stability.simulator import (
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
    rng = np.random.default_rng(n * N)
    witnesses = {
        "amc": {"P": _spd(rng, n), "Q": [_spd(rng, n) for _ in range(N)]},
        "th1": {"P": _spd(rng, n), "S": [_spd(rng, n) for _ in range(N)]},
        "th2": {
            "R": [_spd(rng, n) for _ in range(N)],
            "Q": [_spd(rng, n) for _ in range(N)],
            "delta": 0.3,
            "eps": 0.7,
        },
    }
    for which, w in witnesses.items():
        for t in (0.0, 0.37, 2.4):
            got = eval_functional(sys, traj, which, w, t)
            ref = _reference_functional(sys, traj, which, w, t)
            assert abs(got - ref) <= 1e-12 * abs(ref), (which, t)


def test_residual_checks_the_equation_not_the_solve():
    sys = benchmark_system(0.3, 0.11)
    traj = simulate(sys, HistorySpec.random_smooth(2), h=0.01, T=3.0)
    m = [int(round(t / traj.h)) for t in traj.tau_snapped]
    first = traj.hist_len + 1
    assert _max_residual(sys.A, m, traj.h, traj.samples, first) <= 1e-12
    bent = traj.samples.copy()
    bent[first + 100] += 1e-6
    assert _max_residual(sys.A, m, traj.h, bent, first) >= 1e-8
