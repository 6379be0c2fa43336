import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ids_stability import criteria_lmi, criteria_spectral, margin
from ids_stability.lmi_core import FeasReport, evaluate, normalize_witness
from ids_stability.margin import bisect_margin, criterion_feasible, evaluate_criterion, table1
from ids_stability.model import DiscreteIds, IdsSystem, benchmark_system, validate_system
from ids_stability.suites import random_corpus

A1 = np.array([[-4.0, 1.0], [-13.0, 2.0]])


def test_unknown_criterion_rejected():
    with pytest.raises(ValueError, match="unknown criterion"):
        bisect_margin(benchmark_system(), 1, "nope")


def test_invalid_bracket_rejected():
    with pytest.raises(ValueError, match="bracket"):
        bisect_margin(benchmark_system(), 1, "spectral", lo=0.5, hi=0.1)
    with pytest.raises(ValueError, match="tol"):
        bisect_margin(benchmark_system(), 1, "spectral", tol=0.0)


@pytest.mark.parametrize(
    "bracket",
    [{"lo": math.nan}, {"hi": math.inf}, {"hi": math.nan}, {"tol": math.nan}, {"tol": math.inf}],
)
def test_non_finite_bracket_rejected(probe_limit, bracket):
    # with hi = inf every midpoint is inf; with tol = nan the loop never runs
    with pytest.raises(ValueError, match="finite"):
        bisect_margin(benchmark_system(0.3, 0.05), 1, "spectral", **bracket)


def test_criterion_system_kind_mismatch():
    with pytest.raises(ValueError, match="discrete"):
        criterion_feasible(benchmark_system(), "laa-spectral")
    d = validate_system(DiscreteIds(A=(np.eye(2) / 4,), tau=(1.0,)))
    with pytest.raises(ValueError, match="integral"):
        criterion_feasible(d, "spectral")


def test_single_term_spectral_margin_is_inverse_radius():
    sys = validate_system(IdsSystem(A=(A1,), tau=(0.2,)))
    m = bisect_margin(sys, 0, "spectral", lo=1e-4, hi=2.0, tol=1e-4)
    assert abs(m - 1 / math.sqrt(5)) <= 2e-4


def test_single_term_amc_margin_matches_spectral_boundary():
    sys = validate_system(IdsSystem(A=(A1,), tau=(0.2,)))
    m = bisect_margin(sys, 0, "amc", lo=1e-4, hi=2.0, tol=1e-4)
    assert abs(m - 0.4473) <= 1e-3


def test_benchmark_infeasible_row_returns_none():
    sys = benchmark_system(0.4, 0.1)
    assert bisect_margin(sys, 1, "amc", lo=1e-4, tol=1e-4) is None
    assert bisect_margin(sys, 1, "spectral", lo=1e-4, tol=1e-4) is None


def test_margin_post_verification():
    sys = benchmark_system(0.3, 0.1)
    tol = 1e-4
    m = bisect_margin(sys, 1, "spectral", lo=1e-4, tol=tol)
    ok_lo, _ = criterion_feasible(sys.with_delays((0.3, m - tol)), "spectral")
    ok_hi, _ = criterion_feasible(sys.with_delays((0.3, m + tol)), "spectral")
    assert ok_lo and not ok_hi


@pytest.mark.parametrize("criterion", ["th2-lmi", "th1"])
def test_linearized_margins_are_the_paper_rows(criterion):
    # th1 is decided through th2-lmi, so its margins are th2-lmi's, bit for bit
    got = [bisect_margin(benchmark_system(r, 0.1), 1, criterion) for r in (0.4, 0.3, 0.2, 0.1)]
    assert [f"{m:.6g}" for m in got] == ["0.0317765", "0.114629", "0.241787", "0.488149"]
    if criterion == "th1":
        assert got == [bisect_margin(benchmark_system(r, 0.1), 1, "th2-lmi") for r in (0.4, 0.3, 0.2, 0.1)]


def test_th1_reports_carry_th1_evidence():
    # a feasible th1 report holds th1's own variables and its objective at
    # them, normalized; a not_found one keeps th2-lmi's value and bound but
    # holds no witness, since th2-lmi's Q_i are not th1's
    sys = benchmark_system(0.3, 0.05)
    rep = evaluate_criterion(sys, "th1")
    problem = criteria_lmi.build_th1(sys)
    assert rep.feasible and set(rep.witness) == {"Q1", "Q2", "S1", "S2", "R"}
    assert rep.lambda_star == evaluate(problem, normalize_witness(problem, rep.witness))[1] < 0.0
    far = benchmark_system(0.3, 3.0)
    rep, rep2 = evaluate_criterion(far, "th1"), evaluate_criterion(far, "th2-lmi")
    assert rep.status == "not_found" and rep.witness == {}
    assert (rep.lambda_star, rep.lower_bound) == (rep2.lambda_star, rep2.lower_bound)


def test_margin_post_verification_lmi():
    sys = benchmark_system(0.3, 0.1)
    tol = 1e-4
    m = bisect_margin(sys, 1, "amc", lo=1e-4, tol=tol)
    ok_lo, _ = criterion_feasible(sys.with_delays((0.3, m - tol)), "amc")
    ok_hi, _ = criterion_feasible(sys.with_delays((0.3, m + tol)), "amc")
    assert ok_lo and not ok_hi


def test_margin_returns_hi_when_feasible_everywhere():
    sys = validate_system(IdsSystem(A=(np.zeros((2, 2)),), tau=(0.5,)))
    assert bisect_margin(sys, 0, "spectral", lo=0.1, hi=4.0) == 4.0


def test_spectral_weighted_margin_beats_uniform():
    sys = benchmark_system(0.4, 0.01)
    m_u = bisect_margin(sys, 1, "spectral", lo=1e-4, tol=1e-3)
    m_w = bisect_margin(sys, 1, "spectral-weighted", lo=1e-4, tol=1e-3)
    assert m_u is None and m_w is not None and m_w > 0.01


def test_laa_margins_are_delay_free():
    d = validate_system(DiscreteIds(A=(np.eye(2) / 4, np.eye(2) / 8), tau=(0.2, 0.5)))
    ok1, _ = criterion_feasible(d, "laa-spectral")
    ok2, _ = criterion_feasible(d, "laa")
    assert ok1 and ok2


def test_discrete_margins_are_not_capped_by_the_neighbouring_delays():
    # each probe keeps the delays increasing, so a delay-free verdict holds
    # on the whole bracket: up to hi for the last delay, and up to the float
    # below the next delay for the first
    d = validate_system(DiscreteIds(A=(np.eye(2) / 4, np.eye(2) / 8), tau=(0.2, 0.5)))
    assert bisect_margin(d, 1, "laa-spectral") == 5.0
    assert bisect_margin(d, 0, "laa-spectral") == math.nextafter(0.5, 0.0)
    assert bisect_margin(d, 1, "laa-spectral", lo=0.1, hi=0.3) == 0.3


def test_a_discrete_bracket_outside_the_delay_order_is_rejected():
    d = validate_system(DiscreteIds(A=(np.eye(2) / 4, np.eye(2) / 8), tau=(0.2, 0.5)))
    with pytest.raises(ValueError, match=r"lies in \(0.2, inf\) to keep the delays increasing"):
        bisect_margin(d, 1, "laa-spectral", lo=0.1, hi=0.2)
    with pytest.raises(ValueError, match=r"lies in \(0, 0.5\).*\[0.5, 0.7\] misses it"):
        bisect_margin(d, 0, "laa", lo=0.5, hi=0.7)


def test_single_delay_criterion():
    sys = validate_system(IdsSystem(A=(A1,), tau=(0.44,)))
    ok, _ = criterion_feasible(sys, "single-delay")
    assert ok
    with pytest.raises(ValueError, match="N = 1"):
        criterion_feasible(benchmark_system(), "single-delay")


def test_table1_requires_two_delays():
    sys = validate_system(IdsSystem(A=(A1,), tau=(0.2,)))
    with pytest.raises(ValueError, match="two-delay"):
        table1(sys)


def test_table1_csv_rendering():
    from ids_stability.margin import Table1Result

    res = Table1Result(
        rows=(0.4, 0.3),
        columns=("th2-lmi", "amc", "single", "spectral"),
        cells={
            (0.4, "th2-lmi"): 0.0317,
            (0.4, "amc"): None,
            (0.4, "single"): None,
            (0.4, "spectral"): None,
            (0.3, "th2-lmi"): 0.1146,
            (0.3, "amc"): 0.0474,
            (0.3, "single"): 0.0474,
            (0.3, "spectral"): 0.0474,
        },
    )
    lines = res.to_csv().splitlines()
    assert lines[0] == "tau1, th2-lmi, amc, single, spectral"
    assert lines[1] == "0.4, 0.0317, inf, inf, inf"
    assert lines[2].startswith("0.3, 0.1146, 0.0474")


# -- wrap points: callers must look these names up at call time -------------


def test_registry_looks_builders_up_at_call_time(monkeypatch, scalar_system):
    built = []

    def spy(sys):
        built.append(sys)
        return criteria_lmi.build_th2_coupled(sys)

    monkeypatch.setitem(criteria_lmi.LMI_CRITERIA, "single", spy)
    sys = scalar_system(0.5, 1.0)
    ok, witness = criterion_feasible(sys, "single")
    assert built == [sys]
    assert ok and set(witness) == {"Q1"}  # th2-coupled's variable, not single's "Q"


def test_registry_solves_through_margin_binding(monkeypatch, scalar_system):
    solved = []

    def fake_solve(problem, cfg=None):
        solved.append(problem)
        return FeasReport("feasible", -1.0, {"Q": np.eye(1)}, 0, 0)

    monkeypatch.setattr(margin, "solve_feasibility", fake_solve)
    ok, witness = criterion_feasible(scalar_system(3.0, 1.0), "single")  # infeasible in truth
    assert ok and witness["Q"][0, 0] == 1.0
    assert len(solved) == 1 and [v.name for v in solved[0].variables] == ["Q"]


def test_bisection_probes_through_margin_binding(monkeypatch, scalar_system):
    probed = []

    def fake_probe(sys, criterion, cfg=None, alpha=None):
        probed.append(sys.tau[0])
        return sys.tau[0] <= 0.25, None

    monkeypatch.setattr(margin, "criterion_feasible", fake_probe)
    m = bisect_margin(scalar_system(0.0, 0.5), 0, "spectral", lo=0.1, hi=1.0, tol=1e-3)
    assert abs(m - 0.25) <= 1e-3
    assert probed[:2] == [0.1, 1.0] and len(probed) > 2


def _spy_weights(monkeypatch, module, result=None):
    calls = []
    real = criteria_spectral.optimize_weights

    def spy(sys, *c):
        calls.append(sys)
        return real(sys, *c) if result is None else result

    monkeypatch.setattr(module, "optimize_weights", spy)
    return calls


NO_PASS = benchmark_system(0.3, 0.2)  # a bound proves that no weights pass


@pytest.mark.parametrize(
    "builder, system",
    [
        ("build_th2_lmi", benchmark_system(0.3, 0.05)),
        ("build_laa", DiscreteIds(A=(np.eye(2) / 4, np.eye(2) / 8), tau=(0.2, 0.5))),
        ("build_th2_lmi", NO_PASS),
    ],
)
def test_builders_optimize_weights_through_criteria_lmi_binding(monkeypatch, builder, system):
    # one search per build, also where it stops early and attaches no start
    calls = _spy_weights(monkeypatch, criteria_lmi)
    problem = getattr(criteria_lmi, builder)(validate_system(system))
    assert len(calls) == 1 and (problem.starts == ()) == (system is NO_PASS)


def test_spectral_weighted_optimizes_through_criteria_spectral_binding(monkeypatch):
    calls = _spy_weights(monkeypatch, criteria_spectral, result=((0.9, 0.1), 0.0))
    v = evaluate_criterion(benchmark_system(0.4, 0.02), "spectral-weighted")
    assert len(calls) == 1 and v.alpha == (0.9, 0.1)


# -- the predicted bracket of the spectral-equivalent criteria ------------------


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(1, 2), st.integers(0, 10_000))
def test_predicted_search_equals_plain_bisection(plain_margin, N, n, seed):
    rng = np.random.default_rng(seed)
    sys = validate_system(IdsSystem(A=tuple(rng.standard_normal((N, n, n))), tau=tuple(rng.uniform(0.02, 0.5, N))))
    for k in range(N):
        for criterion in sorted(margin.PREDICTED - ({"single-delay"} if N > 1 else set())):
            assert bisect_margin(sys, k, criterion) == plain_margin(sys, k, criterion)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.integers(1, 2), st.integers(1, 3), st.integers(0, 10_000))
def test_mu_predicted_search_equals_plain_bisection(plain_margin, N, n, seed):
    rng = np.random.default_rng(seed)
    sys = validate_system(IdsSystem(A=tuple(rng.standard_normal((N, n, n))), tau=tuple(rng.uniform(0.02, 0.5, N))))
    for k in range(N):
        for criterion in sorted(margin.MU_PREDICTED):
            assert bisect_margin(sys, k, criterion) == plain_margin(sys, k, criterion)


def test_plain_th2_lmi_margins_lie_below_the_mu_edge(plain_margin):
    # th2-lmi implies mu < 1, so each passing probe lies below the mu edge; a
    # margin above it is a soundness bug.  Plain bisection, because the
    # predicted search probes below the edge by construction.
    systems = [s for s in random_corpus(3, 12) if s.N <= 2]
    checked = 0
    for sys in systems:
        for k in range(sys.N):
            m, edge = plain_margin(sys, k, "th2-lmi"), criteria_spectral.mu_margin(sys, k)
            if m is not None and edge is not None:
                assert m <= edge, (sys, k)
                checked += 1
    assert checked >= 8


@pytest.mark.parametrize(
    "wrong", [lambda e: 0.5 * e, lambda e: 2.0 * e, lambda e: 0.0, lambda e: math.inf, lambda e: None]
)
@pytest.mark.parametrize("criterion", ["spectral", "amc", "th2-lmi"])
def test_a_wrong_prediction_still_returns_a_certified_margin(
    monkeypatch, probe_limit, plain_margin, wrong, criterion
):
    name = "mu_margin" if criterion in margin.MU_PREDICTED else "spectral_margin"
    real, called = getattr(criteria_spectral, name), []
    monkeypatch.setattr(criteria_spectral, name, lambda sys, k: called.append(k) or wrong(real(sys, k)))
    sys, tol = benchmark_system(0.3, 0.1), 1e-4
    m = bisect_margin(sys, 1, criterion, tol=tol)
    assert called == [1]
    assert criterion_feasible(sys.with_delays((0.3, m)), criterion)[0]
    assert not criterion_feasible(sys.with_delays((0.3, m + tol)), criterion)[0]
    assert m == plain_margin(sys, 1, criterion, tol=tol)


@pytest.mark.parametrize("k, lo, hi, tol", [(0, 1e-157, 1e-153, 1e-158), (1, 1e-4, 2.0, 1e-4)])
def test_overflowing_entries_keep_the_plain_margin(plain_margin, k, lo, hi, tol):
    A = 1e154 * A1
    sys = validate_system(IdsSystem(A=(A, np.array([[0.0, -1.0], [1.0, 0.0]])), tau=(1e-155, 0.1)))
    m = bisect_margin(sys, k, "spectral", lo=lo, hi=hi, tol=tol)
    assert m is not None and m == plain_margin(sys, k, "spectral", lo=lo, hi=hi, tol=tol)


def test_table1_probes_the_ends_of_each_predicted_bracket(monkeypatch):
    # th2-lmi probes the two ends of the mu edge's bracket in each row
    # (4 * 2); each other column probes lo in row 0.4, where its edge is 0.0
    # and it fails, and the two ends in the three rows with a margin (1 + 3 * 2)
    probed = {}
    real = margin.criterion_feasible

    def count(sys, criterion, cfg=None, alpha=None):
        probed[criterion] = probed.get(criterion, 0) + 1
        return real(sys, criterion, cfg, alpha)

    monkeypatch.setattr(margin, "criterion_feasible", count)
    margin.table1(benchmark_system())
    assert probed == {"th2-lmi": 8, "amc": 7, "single": 7, "spectral": 7}


def _probed_delays(monkeypatch, k):
    """The value of delay k at each probe, in order."""
    probed, real = [], margin.criterion_feasible

    def record(sys, criterion, cfg=None, alpha=None):
        probed.append(sys.tau[k])
        return real(sys, criterion, cfg, alpha)

    monkeypatch.setattr(margin, "criterion_feasible", record)
    return probed


@pytest.mark.parametrize("criterion", ["spectral", "th2-lmi"])
def test_a_confirmed_search_probes_only_the_bracket_ends(monkeypatch, plain_margin, criterion):
    # a passing lower end and a failing upper end imply that lo passes and hi
    # fails, so neither is probed
    sys, lo, hi, tol = benchmark_system(0.3, 0.1), 1e-4, 3.0, 1e-4
    probed = _probed_delays(monkeypatch, 1)
    m = bisect_margin(sys, 1, criterion, lo=lo, hi=hi, tol=tol)
    assert len(probed) == 2 and probed[0] == m and 0 < probed[1] - m <= tol
    assert lo not in probed and hi not in probed
    monkeypatch.undo()
    assert m == plain_margin(sys, 1, criterion, lo=lo, hi=hi, tol=tol)


def test_a_wrong_edge_above_a_failing_lo_still_returns_none(monkeypatch):
    # row 0.4 fails at lo; the patched edge's lower end fails, which implies
    # that hi fails, so the search probes lo and stops
    monkeypatch.setattr(criteria_spectral, "spectral_margin", lambda sys, k: 0.02)
    probed = _probed_delays(monkeypatch, 1)
    assert bisect_margin(benchmark_system(0.4, 0.1), 1, "amc") is None
    assert len(probed) == 2 and 1e-4 < probed[0] < 0.02 and probed[1] == 1e-4


@pytest.mark.parametrize("criterion", ["spectral", "spectral-weighted"])
def test_a_tol_below_the_float_spacing_stops_at_adjacent_floats(criterion):
    # with a predicted edge and without one, the loop ends once b is the
    # float after a, where halving no longer moves it
    sys = benchmark_system(0.3, 0.1)
    m = bisect_margin(sys, 1, criterion, tol=1e-30)
    assert criterion_feasible(sys.with_delays((0.3, m)), criterion)[0]
    assert not criterion_feasible(sys.with_delays((0.3, math.nextafter(m, math.inf))), criterion)[0]


# -- the last LMI report, remembered on the system ----------------------------


def _count_solves(monkeypatch):
    solved, real = [], margin.solve_feasibility

    def count(problem, cfg=None):
        solved.append([v.name for v in problem.variables])
        return real(problem, cfg)

    monkeypatch.setattr(margin, "solve_feasibility", count)
    return solved


@pytest.mark.parametrize(
    "criteria, source",
    [(("amc", "th2-coupled", "single"), ["Q"]), (("th1", "th2-lmi"), ["Q1", "Q2"])],
)
def test_criteria_decided_by_one_source_solve_it_once(monkeypatch, criteria, source):
    sys = benchmark_system(0.2, 0.05)
    solved = _count_solves(monkeypatch)
    for c in criteria:
        assert criterion_feasible(sys, c)[0]
    assert solved == [source]


def test_another_config_or_criterion_solves_again_and_replaces_the_entry(monkeypatch):
    sys = benchmark_system(0.2, 0.05)
    cfg, other = margin.SolverConfig(), margin.SolverConfig(eps_feas=1e-6)
    solved = _count_solves(monkeypatch)
    for criterion, c in [("single", cfg), ("single", cfg), ("single", other), ("th2-lmi", other),
                         ("th2-lmi", other), ("single", other)]:
        evaluate_criterion(sys, criterion, c)
        assert vars(sys)["lmi_report"][0] == (criterion, c)
    assert solved == [["Q"], ["Q"], ["Q1", "Q2"], ["Q"]]


def test_a_caller_cannot_change_a_later_report():
    sys = benchmark_system(0.2, 0.05)
    rep = evaluate_criterion(sys, "single")
    Q = rep.witness["Q"].copy()
    assert not rep.witness["Q"].flags.writeable
    with pytest.raises(ValueError):
        rep.witness["Q"][0, 0] = 1.0
    rep.witness["Q"] = np.zeros((2, 2))
    rep.witness["P"] = np.eye(2)
    _ok, witness = criterion_feasible(sys, "single")
    assert set(witness) == {"Q"} and np.array_equal(witness["Q"], Q)
    assert not witness["Q"].flags.writeable


def _same_result(a, b) -> bool:
    """Equal verdict objects, reports bitwise: status, lambda_star,
    lower_bound and every witness array."""
    if not isinstance(a, FeasReport):
        return a == b
    return (
        (a.status, a.lambda_star, a.lower_bound) == (b.status, b.lambda_star, b.lower_bound)
        and list(a.witness) == list(b.witness)
        and all(a.witness[k].tobytes() == b.witness[k].tobytes() for k in a.witness)
    )


def test_remembered_reports_equal_a_fresh_systems_bitwise():
    integral = ("spectral", "spectral-weighted", "amc", "th2-coupled", "single", "th1", "th2-lmi")
    systems = [s for seed in (2024, 7) for s in random_corpus(seed, 100)]
    systems += [validate_system(DiscreteIds(A=s.A, tau=tuple(sorted(s.tau)))) for s in systems]
    for sys in systems:
        for c in integral if isinstance(sys, IdsSystem) else ("laa-spectral", "laa"):
            fresh = type(sys)(A=sys.A, tau=sys.tau)
            assert _same_result(evaluate_criterion(sys, c), evaluate_criterion(fresh, c)), (sys, c)
