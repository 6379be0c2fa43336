"""Structure and semantics of the LMI builders, the nonlinear checks, the
witness conversions, and the closed forms of the coupled conditions."""

from dataclasses import replace

import numpy as np
import pytest

from ids_stability import criteria_lmi, lmi_core, margin

from ids_stability.criteria_lmi import (
    ConversionError,
    IllConditionedError,
    build_amc,
    build_laa,
    build_single,
    build_th1,
    build_th2_coupled,
    build_th2_lmi,
    laa_convert_X_to_Q,
    recover_nmi_th1,
    th2_functional_params,
    verify_nmi_th1,
    verify_nmi_th2,
    witness_th1_from_th2,
    witness_th1_from_th2coupled,
)
from ids_stability.criteria_spectral import check_spectral, kron_operator, optimize_weights, spectral_radius
from ids_stability.criteria_lmi import LMI_CRITERIA, _perron_matrix
from ids_stability.lmi_core import SolverConfig, _Compiled, check_witness, evaluate, solve_feasibility
from ids_stability.model import DiscreteIds, IdsSystem, benchmark_system, validate_system
from ids_stability.suites import random_corpus

A1 = np.array([[-4.0, 1.0], [-13.0, 2.0]])
A2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def _rand_pd(rng, n):
    W = rng.standard_normal((n, n))
    return W @ W.T + 0.3 * np.eye(n)


# -- block structure ----------------------------------------------------------


def test_amc_block_matches_formula():
    sys = benchmark_system(0.3, 0.1)
    rng = np.random.default_rng(0)
    w = {"P": _rand_pd(rng, 2), "Q1": _rand_pd(rng, 2), "Q2": _rand_pd(rng, 2)}
    values, _ = evaluate(build_amc(sys), w)
    N = 2
    mix = w["P"] + 0.3 * w["Q1"] + 0.1 * w["Q2"]
    for i, (Ai, ti, Qi) in enumerate(zip(sys.A, sys.tau, (w["Q1"], w["Q2"]))):
        expected = N * ti * Ai.T @ mix @ Ai - Qi
        np.testing.assert_allclose(values[i], expected, atol=1e-12)


def test_th2_coupled_block_matches_formula():
    sys = benchmark_system(0.3, 0.1)
    rng = np.random.default_rng(1)
    w = {"Q1": _rand_pd(rng, 2), "Q2": _rand_pd(rng, 2)}
    values, _ = evaluate(build_th2_coupled(sys), w)
    tot = w["Q1"] + w["Q2"]
    for i, (Ai, ti, Qi) in enumerate(zip(sys.A, sys.tau, (w["Q1"], w["Q2"]))):
        np.testing.assert_allclose(values[i], 2 * ti * ti * Ai.T @ tot @ Ai - Qi, atol=1e-12)


def test_single_block_matches_formula():
    sys = benchmark_system(0.3, 0.1)
    rng = np.random.default_rng(2)
    Q = _rand_pd(rng, 2)
    values, _ = evaluate(build_single(sys), {"Q": Q})
    expected = sum(2 * t * t * A.T @ Q @ A for A, t in zip(sys.A, sys.tau)) - Q
    np.testing.assert_allclose(values[0], expected, atol=1e-12)


def test_th1_blocks_match_formula():
    sys = benchmark_system(0.3, 0.1)
    rng = np.random.default_rng(3)
    w = {
        "Q1": _rand_pd(rng, 2),
        "Q2": _rand_pd(rng, 2),
        "S1": _rand_pd(rng, 2),
        "S2": _rand_pd(rng, 2),
        "R": rng.standard_normal((2, 2)),
    }
    values, _ = evaluate(build_th1(sys), w)
    R = w["R"]
    np.testing.assert_allclose(
        values[0], w["Q1"] + w["Q2"] + w["S1"] + w["S2"] - R - R.T, atol=1e-12
    )
    for i, (Ai, ti) in enumerate(zip(sys.A, sys.tau)):
        Si, Qi = w[f"S{i+1}"], w[f"Q{i+1}"]
        expected = np.block(
            [[-Si, ti * Ai.T @ R], [ti * R.T @ Ai, -Qi]]
        )
        np.testing.assert_allclose(values[i + 1], expected, atol=1e-12)


def test_th2_lmi_block_matches_formula():
    sys = benchmark_system(0.3, 0.1)
    rng = np.random.default_rng(4)
    w = {"Q1": _rand_pd(rng, 2), "Q2": _rand_pd(rng, 2)}
    values, _ = evaluate(build_th2_lmi(sys), w)
    T = np.vstack([0.3 * A1, 0.1 * A2])
    D = np.zeros((4, 4))
    D[:2, :2] = w["Q1"]
    D[2:, 2:] = w["Q2"]
    np.testing.assert_allclose(values[0], T @ (w["Q1"] + w["Q2"]) @ T.T - D, atol=1e-12)


def test_laa_equals_stacked_lmi_with_unit_delays():
    d = validate_system(DiscreteIds(A=(A1, A2), tau=(0.2, 0.5)))
    s_unit = validate_system(IdsSystem(A=(A1, A2), tau=(1.0, 1.0)))
    rng = np.random.default_rng(5)
    w = {"Q1": _rand_pd(rng, 2), "Q2": _rand_pd(rng, 2)}
    v1, f1 = evaluate(build_laa(d), w)
    v2, f2 = evaluate(build_th2_lmi(s_unit), w)
    np.testing.assert_allclose(v1[0], v2[0], atol=1e-12)
    assert abs(f1 - f2) < 1e-12


def test_builders_are_pure():
    sys = benchmark_system(0.3, 0.1)
    p1, p2 = build_th1(sys), build_th1(sys)
    assert len(p1.blocks) == len(p2.blocks)
    for b1, b2 in zip(p1.blocks, p2.blocks):
        assert b1.dim == b2.dim and len(b1.terms) == len(b2.terms)
        for t1, t2 in zip(b1.terms, b2.terms):
            assert t1.var == t2.var
            np.testing.assert_array_equal(t1.left, t2.left)
            np.testing.assert_array_equal(t1.right, t2.right)
    assert len(p1.starts) == len(p2.starts)


# -- feasibility semantics ----------------------------------------------------


def test_scalar_reductions(scalar_system):
    assert solve_feasibility(build_amc(scalar_system(1.0, 0.9))).feasible
    assert not solve_feasibility(build_amc(scalar_system(1.0, 1.1))).feasible
    assert solve_feasibility(build_th2_coupled(scalar_system(1.0, 0.9))).feasible
    assert not solve_feasibility(build_th2_coupled(scalar_system(1.0, 1.1))).feasible
    assert solve_feasibility(build_single(scalar_system(2.0, 0.4))).feasible
    assert margin.evaluate_criterion(scalar_system(1.0, 0.9), "th1").feasible
    assert not margin.evaluate_criterion(scalar_system(1.0, 1.1), "th1").feasible


def test_amc_zeroed_term_still_pays_the_term_count_factor():
    # keeping a zero second term (N = 2) scales the condition by N, moving
    # the first-delay boundary from 1/sqrt(5) down to 1/sqrt(10) ~ 0.3162;
    # dropping the term (N = 1) recovers the 0.4473 margin, which the margin
    # tests cover
    A2zero = np.zeros((2, 2))
    sys_in = validate_system(IdsSystem(A=(A1, A2zero), tau=(0.31, 0.1)))
    sys_out = validate_system(IdsSystem(A=(A1, A2zero), tau=(0.33, 0.1)))
    assert solve_feasibility(build_amc(sys_in)).feasible
    assert not solve_feasibility(build_amc(sys_out)).feasible


def test_benchmark_feasibility_flips_at_margin():
    assert solve_feasibility(build_amc(benchmark_system(0.3, 0.0474))).feasible
    assert not solve_feasibility(build_amc(benchmark_system(0.3, 0.06))).feasible
    assert solve_feasibility(build_th2_coupled(benchmark_system(0.3, 0.0474))).feasible
    assert not solve_feasibility(build_th2_coupled(benchmark_system(0.3, 0.06))).feasible
    assert margin.evaluate_criterion(benchmark_system(0.4, 0.0317), "th1").feasible
    assert solve_feasibility(build_th2_lmi(benchmark_system(0.4, 0.0317))).feasible
    assert not solve_feasibility(build_th2_lmi(benchmark_system(0.4, 0.04))).feasible


def test_th2_lmi_single_term_matches_eigenvalue_test():
    rng = np.random.default_rng(6)
    for _ in range(12):
        A = rng.standard_normal((2, 2))
        tau = float(rng.uniform(0.1, 1.2))
        sys = validate_system(IdsSystem(A=(A,), tau=(tau,)))
        expected = spectral_radius(tau * A) < 1.0
        if abs(spectral_radius(tau * A) - 1.0) < 0.03:
            continue  # stay off the boundary the solver cannot certify
        assert solve_feasibility(build_th2_lmi(sys)).feasible == expected


def test_zero_system_feasible_with_scaled_identity():
    sys = validate_system(IdsSystem(A=(np.zeros((2, 2)),) * 2, tau=(0.3, 0.1)))
    p = build_th2_lmi(sys)
    w = {"Q1": np.eye(2) / 4, "Q2": np.eye(2) / 4}
    _, worst = evaluate(p, w)
    assert worst < 0


def test_laa_feasibility():
    rng = np.random.default_rng(7)
    W = rng.standard_normal((2, 2))
    A = 0.5 * W / spectral_radius(W)  # contraction, radius 0.5
    d = validate_system(DiscreteIds(A=(A,), tau=(1.0,)))
    assert solve_feasibility(build_laa(d)).feasible
    d2 = validate_system(DiscreteIds(A=(np.eye(2) / 4, np.eye(2) / 4), tau=(0.5, 1.0)))
    assert solve_feasibility(build_laa(d2)).feasible
    with pytest.raises(TypeError):
        build_laa(benchmark_system())


# -- chain conversion ---------------------------------------------------------


def test_convert_X_chain_examples():
    X = [3 * np.eye(2), 2 * np.eye(2), np.eye(2)]
    Q = laa_convert_X_to_Q(X)
    for Qi in Q:
        np.testing.assert_allclose(Qi, np.eye(2))
    Q2 = laa_convert_X_to_Q([2 * np.eye(3), np.eye(3)])
    np.testing.assert_allclose(Q2[0], np.eye(3))
    np.testing.assert_allclose(Q2[1], np.eye(3))


def test_convert_X_chain_telescopes():
    rng = np.random.default_rng(8)
    n, N = 3, 4
    incs = [_rand_pd(rng, n) for _ in range(N)]
    X = []
    acc = np.zeros((n, n))
    for D in reversed(incs):
        acc = acc + D
        X.append(acc.copy())
    X.reverse()
    Q = laa_convert_X_to_Q(X)
    np.testing.assert_allclose(sum(Q), X[0], atol=1e-12)


def test_convert_X_chain_rejects_bad_order():
    with pytest.raises(ConversionError, match="ordering"):
        laa_convert_X_to_Q([np.eye(2), 2 * np.eye(2)])


# -- nonlinear checks ---------------------------------------------------------


def test_nmi_th1_zero_matrices_reduce_to_sum_bound():
    sys = validate_system(IdsSystem(A=(np.zeros((2, 2)),) * 2, tau=(0.3, 0.1)))
    S = [0.1 * np.eye(2), 0.1 * np.eye(2)]
    Q = [np.eye(2), np.eye(2)]  # sum S = 0.2 I < (2I)^-1 = 0.5 I
    assert verify_nmi_th1(sys, S, Q)
    S_big = [0.3 * np.eye(2), 0.3 * np.eye(2)]
    assert not verify_nmi_th1(sys, S_big, Q)


def test_nmi_th1_small_S_fails_with_nonzero_A():
    sys = benchmark_system(0.3, 0.1)
    Q = [np.eye(2), np.eye(2)]
    S = [1e-6 * np.eye(2), 1e-6 * np.eye(2)]
    assert not verify_nmi_th1(sys, S, Q)


def test_nmi_th2_scalar_values(scalar_system):
    assert verify_nmi_th2(scalar_system(1.0, 0.5), [np.array([[1.0]])])
    assert not verify_nmi_th2(scalar_system(1.0, 1.5), [np.array([[1.0]])])


def test_nmi_requires_pd_inputs():
    sys = benchmark_system()
    with pytest.raises(ValueError):
        verify_nmi_th2(sys, [np.eye(2), -np.eye(2)])


def test_nmi_reports_ill_conditioning():
    sys = benchmark_system()
    Q = [np.diag([1.0, 1e-14]), np.eye(2)]
    with pytest.raises(IllConditionedError):
        verify_nmi_th2(sys, Q)


def test_recover_identity_and_scaling():
    sys = benchmark_system(0.3, 0.05)
    rng = np.random.default_rng(9)
    Q = [_rand_pd(rng, 2), _rand_pd(rng, 2)]
    S = [_rand_pd(rng, 2), _rand_pd(rng, 2)]
    out = recover_nmi_th1({"Q": Q, "S": S, "R": np.eye(2)})
    for a, b in zip(out["Q"], Q):
        np.testing.assert_allclose(a, b, atol=1e-12)
    out2 = recover_nmi_th1({"Q": Q, "S": S, "R": 2 * np.eye(2)})
    for a, b in zip(out2["Q"], Q):
        np.testing.assert_allclose(a, b / 4, atol=1e-12)


def test_recover_rejects_singular_R():
    with pytest.raises(IllConditionedError):
        recover_nmi_th1({"Q": [np.eye(2)], "S": [np.eye(2)], "R": np.zeros((2, 2))})


def test_solver_witness_recovers_to_nmi():
    sys = benchmark_system(0.3, 0.11)
    rep = margin.evaluate_criterion(sys, "th1")
    assert rep.feasible
    nmi = recover_nmi_th1(
        {
            "Q": [rep.witness["Q1"], rep.witness["Q2"]],
            "S": [rep.witness["S1"], rep.witness["S2"]],
            "R": rep.witness["R"],
        }
    )
    assert verify_nmi_th1(sys, S=nmi["S"], Q=nmi["Q"])


def test_th2_lmi_witness_passes_summed_nmi():
    sys = benchmark_system(0.3, 0.11)
    rep = solve_feasibility(build_th2_lmi(sys))
    assert rep.feasible
    Q = [rep.witness["Q1"], rep.witness["Q2"]]
    assert verify_nmi_th2(sys, Q)


def test_nmi_witness_certifies_stacked_lmi():
    # the converse of the Schur chain: a summed-inequality witness makes the
    # stacked block negative definite with the same matrices
    sys = benchmark_system(0.3, 0.11)
    rep = solve_feasibility(build_th2_lmi(sys))
    Q = [rep.witness["Q1"], rep.witness["Q2"]]
    assert verify_nmi_th2(sys, Q)
    _, worst = evaluate(build_th2_lmi(sys), {"Q1": Q[0], "Q2": Q[1]})
    assert worst < 0


# -- constructive conversions -------------------------------------------------


def test_construction_from_coupled_scalar(scalar_system):
    sys = scalar_system(1.0, 0.5)
    out = witness_th1_from_th2coupled(sys, [np.array([[1.0]])])
    assert abs(out["P"][0][0, 0] - 1.0) < 1e-12
    assert abs(out["R"][0][0, 0] - (1.0 - 0.375)) < 1e-12
    assert verify_nmi_th1(sys, S=out["R"], Q=out["P"])


def test_construction_from_coupled_zero_system():
    sys = validate_system(IdsSystem(A=(np.zeros((2, 2)),) * 2, tau=(0.3, 0.1)))
    out = witness_th1_from_th2coupled(sys, [np.eye(2), np.eye(2)])
    assert verify_nmi_th1(sys, S=out["R"], Q=out["P"])


def test_construction_from_coupled_benchmark():
    sys = benchmark_system(0.3, 0.04)
    rep = solve_feasibility(build_th2_coupled(sys))
    assert rep.feasible
    out = witness_th1_from_th2coupled(sys, [rep.witness["Q1"], rep.witness["Q2"]])
    assert verify_nmi_th1(sys, S=out["R"], Q=out["P"])


def test_construction_refuses_without_slack():
    sys = benchmark_system(0.3, 0.06)  # infeasible point for the coupled family
    with pytest.raises(ConversionError, match="slack"):
        witness_th1_from_th2coupled(sys, [np.eye(2), np.eye(2)])


def test_construction_from_summed_scalar(scalar_system):
    sys = scalar_system(1.0, 0.5)
    S = witness_th1_from_th2(sys, [np.array([[1.0]])])
    assert abs(S[0][0, 0] - 0.625) < 1e-12
    assert verify_nmi_th1(sys, S=S, Q=[np.array([[1.0]])])


def test_construction_from_summed_zero_system():
    sys = validate_system(IdsSystem(A=(np.zeros((2, 2)),) * 2, tau=(0.3, 0.1)))
    Q = [np.eye(2), np.eye(2)]
    S = witness_th1_from_th2(sys, Q)
    # each S_i is the shared remainder; their sum is half the inverse bound
    np.testing.assert_allclose(sum(S), 0.5 * np.linalg.inv(sum(Q)), atol=1e-12)
    assert verify_nmi_th1(sys, S=S, Q=Q)


def test_construction_from_summed_benchmark():
    sys = benchmark_system(0.4, 0.03)
    rep = solve_feasibility(build_th2_lmi(sys))
    assert rep.feasible
    Q = [rep.witness["Q1"], rep.witness["Q2"]]
    S = witness_th1_from_th2(sys, Q)
    assert verify_nmi_th1(sys, S=S, Q=Q)


@pytest.mark.parametrize("A", [[[2.0, 0.0], [0.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]]])
@pytest.mark.parametrize("tau, status", [(0.3, "feasible"), (1.0, "not_found")])
def test_th1_with_singular_a_flips_at_its_margin(A, tau, status):
    # A has a left null vector v (the margin is tau = 0.5), so R = c v v^T
    # widens block 0's slack and leaves block 1 unchanged; th1 is decided
    # through th2-lmi, and its mapped witness passes th1's own blocks
    sys = validate_system(IdsSystem(A=(np.array(A),), tau=(tau,)))
    rep = margin.evaluate_criterion(sys, "th1")
    assert rep.status == status
    if rep.feasible:
        assert check_witness(build_th1(sys), rep.witness, 0.0)


def test_construction_from_summed_requires_precondition(scalar_system):
    with pytest.raises(ConversionError):
        witness_th1_from_th2(scalar_system(1.0, 1.5), [np.array([[1.0]])])


def test_th2_functional_params_satisfy_reserve():
    sys = benchmark_system(0.3, 0.11)
    rep = solve_feasibility(build_th2_lmi(sys))
    Q = [rep.witness["Q1"], rep.witness["Q2"]]
    params = th2_functional_params(sys, Q)
    assert params["delta"] > 0 and 0 < params["eps"] <= 0.9
    Rm = np.linalg.inv(sum(Q))
    lhs = sum(
        t * t * A.T @ np.linalg.inv(Qi) @ A + t * params["delta"] * np.eye(2)
        for A, t, Qi in zip(sys.A, sys.tau, Q)
    )
    gap = np.linalg.eigvalsh((1 - params["eps"]) * Rm - lhs)[0]
    assert gap >= -1e-12
    np.testing.assert_allclose(sum(params["R"]), Rm, atol=1e-12)


def test_equivalence_spot_check_small_corpus():
    cfg = SolverConfig()
    for sys in random_corpus(seed=123, count=8):
        expected = check_spectral(sys).passed
        assert solve_feasibility(build_amc(sys), cfg).feasible == expected
        assert solve_feasibility(build_th2_coupled(sys), cfg).feasible == expected
        assert solve_feasibility(build_single(sys), cfg).feasible == expected


# -- closed forms of the coupled conditions ------------------------------------

COUPLED = ("amc", "th2-coupled", "single")


def _barrier_only(problem):
    return replace(problem, starts=(), dual=())


def _on_slice(comp, y):
    a = comp.trace_vec
    return y - a * ((a @ y - 1.0) / (a @ a))


def _record_candidate_bounds(monkeypatch):
    """Route lmi_core._candidate_bound through a recorder; returns its values."""
    seen = []
    real = lmi_core._candidate_bound

    def bound(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(lmi_core, "_candidate_bound", bound)
    return seen


@pytest.fixture(scope="module")
def corpus_and_grid():
    """Two seeded off-boundary corpora and the paper rows over a grid of
    second delays that straddles every margin of the table."""
    systems = [s for seed in (2024, 7) for s in random_corpus(seed, 100) if isinstance(s, IdsSystem)]
    grid = (1e-4, 0.03, 0.0473, 0.0474, 0.1, 0.1527, 0.1528, 0.3, 0.3414, 0.3415, 1.0)
    return systems + [benchmark_system(r, t) for r in (0.4, 0.3, 0.2, 0.1) for t in grid]


def _solves(systems, names):
    return [
        (f"{name}-{i}", problem, solve_feasibility(problem))
        for i, sys in enumerate(systems)
        for name in names
        for problem in (LMI_CRITERIA[name](sys),)
    ]


@pytest.fixture(scope="module")
def closed_form_solves(corpus_and_grid):
    """(name, system, own problem, criterion report) for the coupled
    criteria on ``corpus_and_grid``."""
    return [
        (f"{name}-{i}", sys, LMI_CRITERIA[name](sys), margin.evaluate_criterion(sys, name))
        for i, sys in enumerate(corpus_and_grid)
        for name in COUPLED
    ]


@pytest.fixture(scope="module")
def weighted_start_solves(corpus_and_grid):
    """(name, problem, report) for th2-lmi on ``corpus_and_grid``."""
    return _solves(corpus_and_grid, ("th2-lmi",))


def test_closed_forms_give_the_barrier_verdict(closed_form_solves):
    # each criterion's verdict is that of a barrier run on its own LMI
    assert len(closed_form_solves) >= 3 * 200
    for name, _, problem, rep in closed_form_solves:
        assert rep.status == solve_feasibility(_barrier_only(problem)).status, name


def test_weighted_starts_give_the_barrier_verdict(weighted_start_solves):
    assert len(weighted_start_solves) >= 200
    for name, problem, rep in weighted_start_solves:
        assert rep.status == solve_feasibility(_barrier_only(problem)).status, name


def _zero_column_copies():
    """Corpus systems with A_1's first column zeroed: a coupled witness
    mapped from single's then needs the slack term S to be PD."""
    return [
        validate_system(IdsSystem(A=(sys.A[0] * (np.arange(sys.n) > 0),) + sys.A[1:], tau=sys.tau))
        for sys in random_corpus(1, 40)
        if isinstance(sys, IdsSystem) and sys.n > 1
    ]


def _assert_through_verdicts(corpus_and_grid, source, target):
    # each target accepts exactly the systems its source does (module
    # docstring of criteria_lmi): the verdicts agree, every feasible target
    # witness passes the target's own blocks strictly, and every not_found
    # keeps the source's lower bound
    feasible = proven = 0
    for i, sys in enumerate(corpus_and_grid + _zero_column_copies()):
        rep0, rep = (margin.evaluate_criterion(sys, c) for c in (source, target))
        assert rep.status == rep0.status, i
        if rep.feasible:
            feasible += 1
            assert check_witness(LMI_CRITERIA[target](sys), rep.witness, 0.0), i
        else:
            assert rep.lower_bound == rep0.lower_bound and rep.witness == {}, i
            proven += rep.lower_bound is not None
    assert feasible >= 100 and proven >= 80


@pytest.mark.parametrize("source, target", [("single", "amc"), ("single", "th2-coupled")])
def test_through_verdicts_are_source_verdicts_with_checked_witnesses(corpus_and_grid, source, target):
    _assert_through_verdicts(corpus_and_grid, source, target)


def test_th1_verdicts_are_th2_lmi_verdicts_with_checked_witnesses(corpus_and_grid):
    _assert_through_verdicts(corpus_and_grid, "th2-lmi", "th1")


def test_weighted_start_is_exact_where_the_weighted_test_passes(corpus_and_grid):
    # th2-lmi carries a start exactly where spectral-weighted passes at the
    # optimized weights, and its inverse-weighted residual is -I; no builder
    # attaches more than one start (laa on discrete copies)
    attached = 0
    for i, sys in enumerate(corpus_and_grid):
        (start,) = build_th2_lmi(sys).starts or (None,)
        assert (start is not None) == margin.evaluate_criterion(sys, "spectral-weighted").passed, i
        if start is not None:
            attached += 1
            Q = [start[f"Q{k+1}"] for k in range(sys.N)]
            X = np.linalg.inv(sum(Q))
            M = sum(t * t * A.T @ np.linalg.inv(Qk) @ A for A, t, Qk in zip(sys.A, sys.tau, Q))
            assert np.abs(M - X + np.eye(sys.n)).max() <= 1e-12 * np.abs(X).max(), i
        problems = [LMI_CRITERIA[name](sys) for name in LMI_CRITERIA if name != "laa"]
        problems.append(build_laa(DiscreteIds(A=sys.A, tau=tuple(range(1, sys.N + 1)))))
        assert all(len(p.starts) <= 1 for p in problems), i
    assert attached >= 100


def test_single_term_th2_lmi_start_is_the_inverse_of_singles(corpus_and_grid):
    # at N = 1 the uniform and the optimal weights are both (1,), so the one
    # closed form gives single's Q = X and th2-lmi's Q1 = X^-1
    compared = 0
    for i, sys in enumerate(s for s in corpus_and_grid if s.N == 1):
        (single,) = build_single(sys).starts or (None,)
        (stacked,) = build_th2_lmi(sys).starts or (None,)
        assert (single is None) == (stacked is None), i
        if single is not None:
            compared += 1
            Xinv = np.linalg.inv(single["Q"])
            assert np.abs(stacked["Q1"] - Xinv).max() <= 1e-14 * np.abs(Xinv).max(), i
    assert compared >= 50


def test_closed_form_verdicts_carry_checked_certificates(closed_form_solves):
    # no barrier run: single's closed forms decide all three criteria.  A
    # feasible verdict comes with a witness that passes the criterion's own
    # blocks, and a not-found one with single's checked dual bound, which
    # lies below single's f at random points of the slice
    eps = SolverConfig().eps_feas
    rng = np.random.default_rng(11)
    proven = 0
    for name, sys, problem, rep in closed_form_solves:
        single = build_single(sys)
        assert rep.restarts == 0 and rep.iterations == len(single.starts), name
        if rep.feasible:
            assert single.starts and not single.dual, name
            assert check_witness(problem, rep.witness, tol=eps / 2), name
            continue
        comp = _Compiled(single)
        bound = lmi_core._candidate_bound(comp, single.dual)
        assert bound > -eps, name
        points = [_on_slice(comp, c * rng.standard_normal(comp.nx)) for c in (1e-2, 1.0, 1e2, 1e4) for _ in range(10)]
        assert all(bound <= comp.f_only(x) + 1e-9 for x in points), name
        assert (rep.lower_bound is not None) == (bound >= 10 * eps), name
        proven += rep.lower_bound is not None
    assert proven >= 300


def test_coupled_margin_cells_run_no_newton_step(monkeypatch, plain_margin):
    # every amc and single probe of the margin table is decided by single's
    # closed forms: none of them starts the barrier.  The table probes only the ends
    # of each predicted bracket (14 solves), so the 102 points that plain
    # bisection visits are evaluated as well
    built, solved = [], []
    for name in ("amc", "single"):
        build = LMI_CRITERIA[name]
        monkeypatch.setitem(LMI_CRITERIA, name, lambda sys, build=build: built.append(build(sys)) or built[-1])
    real = margin.solve_feasibility

    def solve(problem, cfg=None):
        rep = real(problem, cfg)
        if any(problem is p for p in built):
            solved.append(rep)
        return rep

    monkeypatch.setattr(margin, "solve_feasibility", solve)
    margin.table1(benchmark_system(0.3, 0.1))
    assert len(solved) == 14
    for row in (0.4, 0.3, 0.2, 0.1):
        for name in ("amc", "single"):
            plain_margin(benchmark_system(row, 0.1), 1, name)
    assert len(solved) == 14 + 102
    assert all(rep.restarts == 0 and rep.iterations <= 1 for rep in solved)


def _coupled_map(sys):
    """Row-major vec matrix of Phi(T) = N sum_i tau_i^2 A_i.T T A_i: the
    weighted map at the uniform weights alpha_i = 1/N."""
    return kron_operator(sys.A, [t * t / (1.0 / sys.N) for t in sys.tau]).T


def _single_candidate(sys, rho):
    """single's dual candidate built with the given value of rho."""
    Y = _perron_matrix(_coupled_map(sys).T, sys.n)
    c = 0.9 * (rho - 1.0) * np.linalg.eigvalsh(Y)[0]
    return (Y, (rho - 1.0) * Y - c * np.eye(sys.n))


@pytest.mark.parametrize("tau2", [0.06, 3.0])
def test_tampered_candidate_is_rejected_and_the_barrier_runs(monkeypatch, tau2):
    # -Y is not PSD, and at tau2 = 0.06 a rho off by half or by double
    # leaves the corrected multipliers indefinite: the check rejects each,
    # and the barrier run decides.  A wrong rho that still passes proves
    # only what weak duality does: its bound lies below f on the slice
    sys = benchmark_system(0.3, tau2)
    problem = LMI_CRITERIA["single"](sys)
    rho = spectral_radius(_coupled_map(sys))
    comp = _Compiled(problem)
    barrier = solve_feasibility(_barrier_only(problem))
    rng = np.random.default_rng(2)
    points = [_on_slice(comp, c * rng.standard_normal(comp.nx)) for c in (1e-2, 1.0, 1e2) for _ in range(20)]
    tampered = [tuple(-Z for Z in problem.dual)]
    tampered += [_single_candidate(sys, k * rho) for k in (0.5, 0.9, 1.1, 2.0)]
    bounds = _record_candidate_bounds(monkeypatch)
    for dual in tampered:
        del bounds[:]
        rep = solve_feasibility(replace(problem, dual=dual))
        assert rep.status == barrier.status == "not_found"
        if bounds[0] is None:
            assert rep.restarts == 1 and rep.iterations == barrier.iterations
        else:
            assert all(bounds[0] <= comp.f_only(x) + 1e-9 for x in points)
    rejected = [lmi_core._candidate_bound(comp, dual) is None for dual in tampered]
    assert rejected[0] and (tau2 == 3.0 or all(rejected))


@pytest.mark.parametrize("name", COUPLED)
def test_slack_band_falls_through_to_the_barrier(scalar_system, name):
    # N tau^2 a^2 = 1 - 1e-9: single's X = (I - Phi)^-1 (I) is PD, but its
    # normalized slack is below eps_feas, so it does not certify; there is
    # no dual candidate, and single's barrier run from it gives each
    # criterion the verdict of a barrier run on the criterion's own LMI
    sys = scalar_system(1.0, np.sqrt(1.0 - 1e-9))
    single = build_single(sys)
    assert len(single.starts) == 1 and not single.dual
    rep = margin.evaluate_criterion(sys, name)
    assert rep.restarts == 1
    assert rep.status == solve_feasibility(_barrier_only(LMI_CRITERIA[name](sys))).status


def test_amc_probe_next_to_the_margin_is_proven_by_its_certificate(monkeypatch):
    # the table's amc probe at (0.2, 0.152802), 6e-5 past the cell 0.152741:
    # rho(Phi) - 1 is 4.4e-5, and single's certificate from Z = (Phi* -
    # I)^-1 (I) proves amc's not_found with no barrier run
    sys = benchmark_system(0.2, 0.152802)
    rho = spectral_radius(_coupled_map(sys))
    assert 4e-5 <= rho - 1.0 <= 5e-5
    bounds = _record_candidate_bounds(monkeypatch)
    rep = margin.evaluate_criterion(sys, "amc")
    assert rep.status == "not_found" and rep.restarts == 0 and rep.iterations == 0
    assert len(bounds) == 1 and rep.lower_bound == bounds[0] >= 10 * SolverConfig().eps_feas


# -- the weight decision that the stacked starts ask first ---------------------


@pytest.fixture(scope="module")
def five_corpora():
    return [s for seed in (2024, 7, 1, 2, 3) for s in random_corpus(seed, 100)]


def _fresh(sys):
    """An equal system that holds no cached weights."""
    return type(sys)(A=sys.A, tau=sys.tau)


def _full_search(builder, sys):
    """``builder(sys)`` with every stacked start taken at ``optimize_weights``'
    alpha, as without the level that stops the search early."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(criteria_lmi, "optimize_weights", lambda s, c: optimize_weights(s))
        return builder(sys)


def _start_bytes(problem):
    return [{name: M.tobytes() for name, M in start.items()} for start in problem.starts]


def test_weights_that_cannot_pass_attach_no_start(five_corpora):
    # a "no weights pass" verdict: the full search's alpha gives no start either
    excluded = 0
    for i, sys in enumerate(five_corpora):
        if optimize_weights(_fresh(sys), 1.0)[0] is None:
            excluded += 1
            assert _full_search(build_th2_lmi, _fresh(sys)).starts == (), i
    assert excluded >= 100


def test_stacked_starts_are_those_of_the_full_weight_search(five_corpora):
    # bitwise, for th2-lmi on cold systems and on systems that already hold
    # their optimum (spectral-weighted first), and for laa on discrete copies
    attached = 0
    for i, sys in enumerate(five_corpora):
        ref = _start_bytes(_full_search(build_th2_lmi, _fresh(sys)))
        assert _start_bytes(build_th2_lmi(_fresh(sys))) == ref, i
        warm = _fresh(sys)
        optimize_weights(warm)
        assert _start_bytes(build_th2_lmi(warm)) == ref, i
        laa = DiscreteIds(A=sys.A, tau=tuple(range(1, sys.N + 1)))
        assert _start_bytes(build_laa(_fresh(laa))) == _start_bytes(_full_search(build_laa, _fresh(laa))), i
        attached += bool(ref)
    assert attached >= 300


def test_th1_reports_are_those_of_the_full_weight_search(five_corpora):
    # th1 is decided through th2-lmi's problem, start included
    for i, sys in enumerate(five_corpora):
        ref = _full_search(lambda s: margin.evaluate_criterion(s, "th1"), _fresh(sys))
        rep = margin.evaluate_criterion(_fresh(sys), "th1")
        assert (rep.status, rep.lambda_star, rep.lower_bound) == (ref.status, ref.lambda_star, ref.lower_bound), i


def test_table1_th2_lmi_column_stays_within_its_eigendecompositions(monkeypatch):
    # a count, not a time: the column's 8 th2-lmi builds (2 probes a cell,
    # at the ends of the mu edge's bracket) make 12 eig calls, their weight
    # searches stopping once a bound shows that no weights pass (27 when
    # each cell also probed lo and hi; 103 over plain bisection's 68 builds;
    # 297 when every search ran to its optimum)
    calls, builds, eig = [], [], np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda X: calls.append(1) or eig(X))
    build = LMI_CRITERIA["th2-lmi"]
    monkeypatch.setitem(LMI_CRITERIA, "th2-lmi", lambda sys: builds.append(1) or build(sys))
    base = benchmark_system()
    for row in (0.4, 0.3, 0.2, 0.1):
        margin.bisect_margin(base.with_delays((row, base.tau[1])), 1, "th2-lmi", lo=1e-4, tol=1e-4)
    assert len(builds) == 8 and len(calls) <= 13
