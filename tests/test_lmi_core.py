from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from ids_stability import lmi_core
from ids_stability import margin as margin_module
from ids_stability.criteria_lmi import LMI_CRITERIA, build_single
from ids_stability.criteria_spectral import check_spectral
from ids_stability.lmi_core import (
    AffineBlock,
    BlockTerm,
    LmiProblem,
    MatrixVariable,
    ProblemError,
    SolverConfig,
    _Compiled,
    _prove_no_witness,
    check_witness,
    evaluate,
    linearize_inverse_bound,
    normalize_witness,
    solve_feasibility,
)
from ids_stability.model import DiscreteIds, IdsSystem, benchmark_system, validate_system
from ids_stability.suites import random_corpus


def scalar_problem(a: float, tau: float) -> LmiProblem:
    """One 1x1 block q*(tau^2 a^2 - 1) in a PD scalar variable."""
    return LmiProblem(
        variables=(MatrixVariable("q", 1, require_pd=True),),
        blocks=(
            AffineBlock(
                dim=1,
                terms=(
                    BlockTerm("q", np.array([[tau * a]]), np.array([[tau * a]])),
                    BlockTerm("q", np.array([[-1.0]]), np.array([[1.0]])),
                ),
            ),
        ),
    )


def _barrier_only(problem: LmiProblem) -> LmiProblem:
    """The problem without its closed forms (starts and dual candidate), so
    that the solver decides it by a barrier run."""
    return replace(problem, starts=(), dual=())


def test_scalar_evaluate_value():
    p = scalar_problem(1.0, 0.5)
    values, worst = evaluate(p, {"q": np.array([[1.0]])})
    assert values[0].shape == (1, 1)
    assert abs(values[0][0, 0] + 0.75) < 1e-14
    assert abs(worst + 0.75) < 1e-14


def test_zero_witness_has_zero_worst():
    p = scalar_problem(1.0, 0.5)
    _, worst = evaluate(p, {"q": np.array([[0.0]])})
    assert worst == 0.0


def test_evaluate_requires_all_variables():
    p = scalar_problem(1.0, 0.5)
    with pytest.raises(ProblemError, match="missing"):
        evaluate(p, {})
    with pytest.raises(ProblemError, match="shape"):
        evaluate(p, {"q": np.eye(2)})


def test_scalar_feasibility_threshold():
    ok = solve_feasibility(scalar_problem(1.0, 0.9))
    assert ok.status == "feasible"
    bad = solve_feasibility(scalar_problem(1.0, 1.1))
    assert bad.status == "not_found"
    assert bad.lambda_star > 0


def test_benchmark_single_lmi_reevaluates_negative():
    p = build_single(benchmark_system(0.3, 0.0474))
    rep = solve_feasibility(p)
    assert rep.feasible
    _, worst = evaluate(p, rep.witness)
    assert worst < 0
    assert abs(worst - rep.lambda_star) < 1e-10


def test_lambda_star_matches_reevaluation_when_not_found():
    p = scalar_problem(1.0, 1.2)
    rep = solve_feasibility(p)
    _, worst = evaluate(p, rep.witness)
    assert abs(worst - rep.lambda_star) < 1e-10


def test_check_witness_accepts_solver_output():
    cfg = SolverConfig()
    p = build_single(benchmark_system(0.3, 0.04))
    rep = solve_feasibility(p, cfg)
    assert rep.feasible
    assert check_witness(p, rep.witness, tol=cfg.eps_feas / 2)


def test_check_witness_rejects_zero_and_is_scale_invariant():
    p = scalar_problem(1.0, 0.5)
    assert not check_witness(p, {"q": np.array([[0.0]])}, tol=1e-9)
    w = {"q": np.array([[1.0]])}
    assert check_witness(p, w, 1e-9) == check_witness(p, {"q": 7 * w["q"]}, 1e-9)


def test_solver_requires_pd_variable():
    p = LmiProblem(
        variables=(MatrixVariable("q", 1),),
        blocks=(
            AffineBlock(
                dim=1, terms=(BlockTerm("q", np.array([[1.0]]), np.array([[1.0]])),)
            ),
        ),
    )
    with pytest.raises(ProblemError, match="positive-definite"):
        solve_feasibility(p)
    # one PD variable is not enough: every variable must be required PD,
    # also one that no block uses
    p = scalar_problem(1.0, 0.9)
    p = replace(p, variables=p.variables + (MatrixVariable("G", 2),))
    with pytest.raises(ProblemError, match="positive-definite"):
        solve_feasibility(p)


def test_variable_no_block_uses_still_gets_a_verdict():
    # a PD variable that no block uses: only its own barrier term curves it
    p = scalar_problem(1.0, 0.9)
    p = replace(p, variables=p.variables + (MatrixVariable("G", 2, require_pd=True),))
    rep = solve_feasibility(_barrier_only(p))
    assert rep.status == "feasible"
    assert check_witness(p, rep.witness, tol=SolverConfig().eps_feas / 2)
    assert np.linalg.eigvalsh(rep.witness["G"]).min() > 0
    p = replace(scalar_problem(1.0, 1.1), variables=p.variables)
    assert solve_feasibility(_barrier_only(p)).status == "not_found"


def test_two_solves_give_bitwise_equal_reports():
    # a cold feasible solve and a not-found one; the solver draws nothing
    for tau2, status in ((0.04, "feasible"), (0.06, "not_found")):
        p = _barrier_only(build_single(benchmark_system(0.3, tau2)))
        r1, r2 = solve_feasibility(p), solve_feasibility(p)
        assert r1.status == status
        assert (r1.status, r1.lambda_star, r1.iterations, r1.restarts, r1.lower_bound) == (
            r2.status, r2.lambda_star, r2.iterations, r2.restarts, r2.lower_bound
        )
        for k in r1.witness:
            np.testing.assert_array_equal(r1.witness[k], r2.witness[k])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.floats(0.1, 10.0), st.integers(0, 10_000))
def test_evaluate_homogeneity(c, seed):
    rng = np.random.default_rng(seed)
    p = build_single(benchmark_system(0.3, 0.1))
    W = rng.standard_normal((2, 2))
    w = {"Q": W + W.T}
    _, f1 = evaluate(p, w)
    _, f2 = evaluate(p, {"Q": c * w["Q"]})
    assert abs(f2 - c * f1) <= 1e-10 * max(1.0, abs(f1))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.floats(0.0, 1.0), st.integers(0, 10_000))
def test_worst_eigenvalue_is_convex(theta, seed):
    rng = np.random.default_rng(seed)
    p = build_single(benchmark_system(0.3, 0.1))
    W1, W2 = rng.standard_normal((2, 2, 2))
    w1 = {"Q": W1 + W1.T}
    w2 = {"Q": W2 + W2.T}
    mix = {"Q": theta * w1["Q"] + (1 - theta) * w2["Q"]}
    _, f1 = evaluate(p, w1)
    _, f2 = evaluate(p, w2)
    _, fm = evaluate(p, mix)
    assert fm <= theta * f1 + (1 - theta) * f2 + 1e-10


def test_normalize_witness_scales_pd_trace():
    p = scalar_problem(1.0, 0.5)
    w = normalize_witness(p, {"q": np.array([[4.0]])})
    assert abs(w["q"][0, 0] - 1.0) < 1e-15
    assert normalize_witness(p, {"q": np.array([[0.0]])}) is None


# -- inverse-bound linearization ----------------------------------------------


def test_linearize_diagonal_case():
    R = linearize_inverse_bound(0.5 * np.eye(2), np.eye(2))
    np.testing.assert_allclose(R, np.eye(2))
    check = R.T @ (0.5 * np.eye(2)) @ R + np.eye(2) - 2 * R
    assert np.linalg.eigvalsh(check)[-1] < 0


def test_linearize_boundary_returns_none():
    assert linearize_inverse_bound(np.eye(2), np.eye(2)) is None


def test_linearize_rejects_non_pd():
    with pytest.raises(ProblemError):
        linearize_inverse_bound(-np.eye(2), np.eye(2))


def _random_pd(rng, n):
    W = rng.standard_normal((n, n))
    return W @ W.T + 0.1 * np.eye(n)


def test_linearize_forward_direction_on_random_pairs():
    rng = np.random.default_rng(0)
    hits = 0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        Q, S = _random_pd(rng, n), _random_pd(rng, n)
        R = linearize_inverse_bound(Q, S)
        bound_holds = np.linalg.eigvalsh(Q - np.linalg.inv(S))[-1] < 0
        assert (R is not None) == bound_holds
        if R is not None:
            hits += 1
            M = R.T @ Q @ R + S - (R + R.T)
            assert np.linalg.eigvalsh(M)[-1] < 0
    assert hits > 10  # the sampler actually exercises the returning branch


def test_linearize_reverse_direction_on_random_pairs():
    # any R satisfying the linearized inequality certifies the inverse bound
    rng = np.random.default_rng(1)
    hits = 0
    for _ in range(300):
        n = int(rng.integers(1, 4))
        Q, S = _random_pd(rng, n), _random_pd(rng, n)
        R = S + 0.3 * rng.standard_normal((n, n))
        M = R.T @ Q @ R + S - (R + R.T)
        if np.linalg.eigvalsh(M)[-1] < 0:
            hits += 1
            assert np.linalg.eigvalsh(Q - np.linalg.inv(S))[-1] < 0
    assert hits > 20


# -- the compiled objective kernel --------------------------------------------


@pytest.fixture(scope="module")
def kernel_cases():
    """(name, problem) for the five builders the solver takes (not th1, whose
    R is not PD) on seeded random systems, n, N <= 3, plus the zero system."""
    rng = np.random.default_rng(11)
    cases = []
    for n in (1, 2, 3):
        for N in (1, 2, 3):
            for A in (list(rng.standard_normal((N, n, n))), [np.zeros((n, n))] * N):
                tau = tuple(np.sort(rng.uniform(0.05, 0.5, N)) + 0.01 * np.arange(N))
                for name, build in LMI_CRITERIA.items():
                    if name == "th1":
                        continue
                    kind = DiscreteIds if name == "laa" else IdsSystem
                    cases.append((f"{name}-n{n}-N{N}", build(validate_system(kind(A=A, tau=tau)))))
    return cases


def _block_values(problem, witness):
    """lambda_max of each declared block, then of each -V block, in order."""
    values, _ = evaluate(problem, witness)
    vals = [np.linalg.eigvalsh(B)[-1] for B in values]
    vals += [np.linalg.eigvalsh(-witness[v.name])[-1] for v in problem.variables if v.require_pd]
    return np.array(vals)


def _on_slice(comp, y):
    """The projection of y onto the normalization slice a.x = 1."""
    a = comp.trace_vec
    return y - a * ((a @ y - 1.0) / (a @ a))


def test_kernel_matches_block_evaluation(kernel_cases):
    rng = np.random.default_rng(5)
    for name, problem in kernel_cases:
        comp = _Compiled(problem)
        for _ in range(3):
            x = _on_slice(comp, rng.standard_normal(comp.nx))
            vals = _block_values(problem, comp.to_witness(x))
            scale = max(1.0, np.abs(vals).max())
            assert abs(comp.f_only(x) - vals.max()) <= 1e-12 * scale, name
            # the eigenvector rows at x are minorants of f, tight at x
            rows = comp.eig_rows(x)
            assert abs((rows @ x).max() - vals.max()) <= 1e-10 * scale, name
            for _ in range(3):
                y = x + rng.standard_normal(comp.nx)
                assert (rows @ y).max() <= comp.f_only(y) + 1e-10 * scale, name


def _np_kron_map(comp, blk):
    """_Compiled._compile_block with np.kron: the reference."""
    m = blk.dim
    M = np.zeros((m * m, comp.nx))
    for term in blk.terms:
        v, off, B = comp.vars[term.var]
        M[:, off : off + v.n_params] += np.kron(term.left, term.right.T) @ B
    M = M.reshape(m, m, -1)
    return (0.5 * (M + M.transpose(1, 0, 2))).reshape(m * m, -1)


@pytest.mark.parametrize(
    "sys",
    [benchmark_system(0.3, 0.1), next(s for s in random_corpus(2024, 100) if s.N == 3)],
    ids=["paper", "corpus-N3"],
)
def test_compiled_maps_are_bitwise_the_np_kron_maps(sys):
    for name in ("amc", "th2-coupled", "single", "th2-lmi"):
        problem = LMI_CRITERIA[name](sys)
        comp = _Compiled(problem)
        for blk in problem.blocks:
            np.testing.assert_array_equal(comp._compile_block(blk), _np_kron_map(comp, blk), name)


# -- early exits: the settling depth, the duality gap and the proof LP --------


def _count_lps(monkeypatch):
    """Route lmi_core's LP binding through a recorder; returns the list of
    calls, one "proof" per LP."""
    calls = []
    real = lmi_core.linprog

    def spy(*args, **kwargs):
        calls.append("proof")
        return real(*args, **kwargs)

    monkeypatch.setattr(lmi_core, "linprog", spy)
    return calls


def test_dual_bound_settles_infeasible_probe_without_lp(monkeypatch):
    # a Newton step's gap excludes a witness after a few steps, and the
    # dual point of that last step proves it: no eigenvector rows and no LP
    calls = _count_lps(monkeypatch)
    cfg = SolverConfig()
    problem = LMI_CRITERIA["th2-lmi"](benchmark_system(0.3, 3.0))
    rep = solve_feasibility(problem, cfg)
    assert rep.status == "not_found"
    assert rep.restarts == 1 and calls == []
    assert rep.iterations <= 64 + len(problem.starts)
    assert 10 * cfg.eps_feas <= rep.lower_bound <= rep.lambda_star


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["_dual_bound", "_candidate_bound"])
def test_a_bound_that_is_not_finite_proves_nothing(monkeypatch, name, value):
    # NaN passes no comparison, so a test "bound < 10 * eps_feas" would keep
    # it as a proof: a bound that is not finite is dropped as a missing one
    # is, and the solver goes on to the LP or the barrier run.  th2-lmi's
    # run at (0.3, 3.0) ends on its dual bound, and single there is decided
    # by its dual candidate
    problem = LMI_CRITERIA["th2-lmi" if name == "_dual_bound" else "single"](benchmark_system(0.3, 3.0))
    assert name == "_dual_bound" or problem.dual
    monkeypatch.setattr(lmi_core, name, lambda *args: value)
    rep = solve_feasibility(problem)
    assert rep.status == "not_found" and rep.restarts == 1
    assert rep.lower_bound is None or np.isfinite(rep.lower_bound)


def _record_values(monkeypatch):
    """Route lmi_core._worst, f at each Newton iterate, through a recorder;
    returns its values."""
    seen = []
    real = lmi_core._worst

    def worst(*args):
        f = real(*args)
        seen.append(f)
        return f

    monkeypatch.setattr(lmi_core, "_worst", worst)
    return seen


@pytest.mark.parametrize("criterion", ["amc", "th2-lmi"])
def test_cold_solve_stops_at_settling_depth(monkeypatch, criterion):
    # one value per Newton step; the run ends at the first iterate that
    # reaches the settling depth
    seen = _record_values(monkeypatch)
    cfg = SolverConfig()
    problem = _barrier_only(LMI_CRITERIA[criterion](benchmark_system(0.3, 0.04)))
    rep = solve_feasibility(problem, cfg)
    clear_feas = -10 * cfg.eps_feas
    assert rep.feasible and rep.restarts == 1
    assert len(seen) == rep.iterations
    assert seen[-1] <= clear_feas
    assert all(f > clear_feas for f in seen[:-1])
    assert abs(rep.lambda_star - seen[-1]) <= 1e-12


def test_infimum_zero_problem_ends_without_bound(monkeypatch):
    # tau * A has eigenvalues sqrt(2) and 0.3: N rho = 2, and the infimum of
    # f is exactly 0, so neither the proof LP nor a witness can settle it;
    # the run ends once the duality gap excludes a witness
    calls = _count_lps(monkeypatch)
    A = np.array([[np.sqrt(2.0), 0.7], [0.0, 0.3]])
    sys = validate_system(IdsSystem(A=(A,), tau=(1.0,)))
    cfg = SolverConfig()
    rep = solve_feasibility(LMI_CRITERIA["single"](sys), cfg)
    assert rep.status == "not_found" and rep.lower_bound is None
    assert len(calls) <= 1


def test_restarts_field_tells_start_hits_from_runs():
    # the benchmark reads FeasReport.restarts for its restart count and its
    # start hit ratio: 0 when a warm start certified, 1 for the one run
    problem = LMI_CRITERIA["single"](benchmark_system(0.3, 0.04))
    assert problem.starts
    hit = solve_feasibility(problem)
    assert hit.feasible and hit.restarts == 0 and hit.iterations <= len(problem.starts)
    cold = solve_feasibility(_barrier_only(problem))
    assert cold.feasible and cold.restarts == 1


def _record_dual_bounds(monkeypatch):
    """Route lmi_core._dual_bound through a recorder; returns its values."""
    seen = []
    real = lmi_core._dual_bound

    def dual_bound(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(lmi_core, "_dual_bound", dual_bound)
    return seen


def test_proof_lp_reaches_the_module_binding(monkeypatch):
    # the proof LP must call lmi_core.linprog by its module name, so that
    # patching it (as tracing does) sees every LP; a barrier run on amc at
    # the lower end of row 0.4 ends with a dual bound below 10 * eps_feas,
    # so the LP runs, and it proves what the dual point does not
    eps = SolverConfig().eps_feas
    calls = _count_lps(monkeypatch)
    bounds = _record_dual_bounds(monkeypatch)
    rep = solve_feasibility(_barrier_only(LMI_CRITERIA["amc"](benchmark_system(0.4, 1e-4))))
    assert len(bounds) == 1 and bounds[0] < 10 * eps and calls == ["proof"]
    assert 10 * eps <= rep.lower_bound <= rep.lambda_star


def test_cold_amc_near_the_margin_is_feasible():
    # 5e-6 inside the exact margin 0.0474051, with no warm start
    problem = _barrier_only(LMI_CRITERIA["amc"](benchmark_system(0.3, 0.0474)))
    assert solve_feasibility(problem).feasible


def test_cold_integral_solves_take_few_newton_steps():
    for sys in random_corpus(2024, 100):
        for name in ("amc", "th2-coupled", "single", "th2-lmi"):
            rep = solve_feasibility(_barrier_only(LMI_CRITERIA[name](sys)))
            assert rep.iterations <= 100, name


@pytest.fixture(scope="module")
def stable_problems():
    """(name, problem without warm starts, witness vector) for the coupled
    and single conditions on the stable systems of a seeded off-boundary
    corpus and on copies scaled to N * rho = 0.99.  The spectral test is
    equivalent to each condition, so every problem has a strict witness."""
    cases = []
    for i, sys in enumerate(random_corpus(2024, 10)):
        verdict = check_spectral(sys)
        if not verdict.passed:
            continue
        c = np.sqrt(0.99 / (sys.N * verdict.rho))
        edge = validate_system(IdsSystem(A=tuple(c * A for A in sys.A), tau=sys.tau))
        for label, s in ((f"{i}", sys), (f"{i}-edge", edge)):
            for name in ("th2-coupled", "single", "amc"):
                problem = LMI_CRITERIA[name](s)
                rep = solve_feasibility(problem)
                assert rep.feasible, f"{name}-{label}"
                x = _Compiled(problem).to_vector(normalize_witness(problem, rep.witness))
                cases.append((f"{name}-{label}", _barrier_only(problem), x))
    assert len(cases) >= 18
    return cases


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_dual_bound_never_proves_a_feasible_problem(stable_problems, data):
    # short runs end far from the central path, so the dual point comes from
    # a poorly centred Newton step; any bound it gives lies below f at the
    # known witness, so below 10 * eps_feas
    name, problem, witness = data.draw(st.sampled_from(stable_problems))
    cfg = SolverConfig(max_iters=data.draw(st.sampled_from((1, 2, 5, 10, 20, 40))))
    with pytest.MonkeyPatch.context() as mp:
        bounds = _record_dual_bounds(mp)
        assert solve_feasibility(problem, cfg).lower_bound is None, name
    f = _Compiled(problem).f_only(witness)
    assert all(b <= f + 1e-9 for b in bounds if b is not None), name


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data())
def test_dual_bound_helper_is_sound_at_arbitrary_steps(stable_problems, data):
    # the least-norm correction puts the dual point of any step on the dual
    # affine set; only positive semidefiniteness makes its bound valid
    name, problem, witness = data.draw(st.sampled_from(stable_problems))
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    comp = _Compiled(problem)
    x0 = comp.trace_vec / (comp.trace_vec @ comp.trace_vec)
    bar = lmi_core._Barrier(comp, x0)
    w = np.zeros(bar.nw)
    w[-1] = -comp.f_only(x0) - 1.0
    dw = data.draw(st.sampled_from((1e-2, 1.0, 1e2))) * rng.standard_normal(bar.nw)
    s = data.draw(st.sampled_from((1.0, 1e3)))
    bound = lmi_core._dual_bound(bar, bar.spectra(w), s, dw)
    assert bound is None or bound <= comp.f_only(witness) + 1e-9, name


def _probe_problems():
    """(name, problem) for four integral LMI criteria, without their closed
    forms, on the paper system past its margins and on off-boundary corpus
    systems; 26 end not_found."""
    systems = [benchmark_system(0.3, t) for t in (0.06, 0.2, 1.0, 3.0)]
    systems += [s for s in random_corpus(2024, 20) if isinstance(s, IdsSystem)]
    return [
        (f"{name}-{i}", _barrier_only(LMI_CRITERIA[name](s)))
        for i, s in enumerate(systems)
        for name in ("amc", "th2-coupled", "single", "th2-lmi")
    ]


def test_dual_bound_lies_below_f_across_the_slice(monkeypatch):
    # weak duality: the bound holds at every point of the slice, not only
    # near the run's best point
    rng = np.random.default_rng(3)
    bounds = _record_dual_bounds(monkeypatch)
    proven = 0
    for name, problem in _probe_problems() + _singular_problems():
        del bounds[:]
        rep = solve_feasibility(problem)
        if rep.feasible or not bounds or bounds[-1] is None:
            continue
        comp = _Compiled(problem)
        best = comp.to_vector(normalize_witness(problem, rep.witness))
        points = [best] + [
            _on_slice(comp, best + c * rng.standard_normal(comp.nx))
            for c in (1e-3, 1e-1, 1.0, 10.0)
            for _ in range(10)
        ]
        assert all(bounds[-1] <= comp.f_only(x) + 1e-9 for x in points), name
        proven += bounds[-1] >= 10 * SolverConfig().eps_feas
    assert proven >= 20


def test_cut_bound_never_fires_on_feasible_problems(stable_problems, monkeypatch):
    # short runs end before a negative value is found, so the bound is
    # tried on few and poorly placed rows
    calls = _count_lps(monkeypatch)
    for name, problem, _ in stable_problems:
        for max_iters in (1, 2, 5, 10, 20, 40):
            cfg = SolverConfig(max_iters=max_iters)
            assert solve_feasibility(problem, cfg).lower_bound is None, name
    assert calls.count("proof") > 50


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data())
def test_cut_bound_helper_is_sound_at_arbitrary_points(stable_problems, data):
    name, problem, witness = data.draw(st.sampled_from(stable_problems))
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    comp = _Compiled(problem)
    points = [_on_slice(comp, rng.standard_normal(comp.nx)) for _ in range(data.draw(st.integers(1, 4)))]
    rows = np.vstack([comp.eig_rows(x) for x in points])
    cfg = SolverConfig()
    assert _prove_no_witness(comp, rows, cfg) is None, name
    # the LP under the helper returns t* whenever it is bounded; it must
    # lie below f everywhere on the slice, the witness included
    t = lmi_core._cut_lp(comp, rows)
    if t is not None:
        assert t <= comp.f_only(witness) + 1e-9, name


def _cut_lp_by_highs(comp, rows):
    """t* of the cut LP in its primal form by scipy's HiGHS, the reference
    for the certified dual in lmi_core; None when HiGHS finds no optimum."""
    c = np.zeros(comp.nx + 1)
    c[-1] = 1.0
    res = scipy.optimize.linprog(
        c, A_ub=np.hstack((rows, -np.ones((len(rows), 1)))), b_ub=np.zeros(len(rows)),
        A_eq=np.append(comp.trace_vec, 0.0)[None, :], b_eq=[1.0], bounds=(None, None),
        method="highs",
    )
    return float(res.x[-1]) if res.status == 0 else None


def test_cut_lp_matches_highs_and_lies_below_f_on_the_slice(stable_problems):
    # rows from the known witnesses and from random slice points, on the
    # stable problems and on seeded corpus systems; the certified value
    # agrees with HiGHS and, as a dual point's value, lies below f at the
    # rows' points and at random points of the slice
    rng = np.random.default_rng(17)
    cases = [(name, _Compiled(problem), [witness]) for name, problem, witness in stable_problems]
    cases += [
        (f"{name}-corpus-{i}", _Compiled(LMI_CRITERIA[name](sys)), [])
        for i, sys in enumerate(random_corpus(7, 12))
        if isinstance(sys, IdsSystem)
        for name in ("amc", "th2-coupled", "single", "th2-lmi")
    ]
    solved = 0
    for name, comp, known in cases:
        for k in (1, 3):
            points = known + [_on_slice(comp, rng.standard_normal(comp.nx)) for _ in range(k)]
            rows = np.vstack([comp.eig_rows(x) for x in points])
            t, ref = lmi_core._cut_lp(comp, rows), _cut_lp_by_highs(comp, rows)
            assert (t is None) == (ref is None), name
            if t is None:
                continue
            solved += 1
            assert abs(t - ref) <= 1e-9 * abs(ref), name
            probes = points + [
                _on_slice(comp, c * rng.standard_normal(comp.nx)) for c in (1e-2, 1.0, 1e2) for _ in range(5)
            ]
            assert all(t <= comp.f_only(x) + 1e-12 for x in probes), name
    assert solved == 2 * len(cases)


@pytest.mark.parametrize("steps", [0, 3, lmi_core._LP_STEPS])
def test_cut_lp_without_a_bound_returns_none(monkeypatch, steps):
    # one row h not parallel to a leaves h.x, and so t, unbounded below on
    # the slice; so do the rows u + d and u + 2 d (u parallel to a, d.a = 0),
    # whose dual equations have the one solution y = (2, -1); a row c * a
    # alone gives t* = c.  The check on y decides, however few
    # predictor-corrector steps ran: with none, the correction moves the
    # start to y = (2, -1)
    monkeypatch.setattr(lmi_core, "_LP_STEPS", steps)
    comp = _Compiled(LMI_CRITERIA["amc"](benchmark_system(0.3, 0.1)))
    a = comp.trace_vec
    rng = np.random.default_rng(4)
    for _ in range(5):
        assert lmi_core._cut_lp(comp, rng.standard_normal((1, comp.nx))) is None
        d = _on_slice(comp, rng.standard_normal(comp.nx)) - a / (a @ a)
        assert lmi_core._cut_lp(comp, np.vstack((0.3 * a + d, 0.3 * a + 2.0 * d))) is None
    assert lmi_core._cut_lp(comp, 2.5 * a[None, :]) == pytest.approx(2.5, rel=1e-12)


# -- the per-step duality gap --------------------------------------------------


def _record_steps(monkeypatch):
    """Route _Barrier.spectra, local and newton through recorders; returns
    one (barrier, w, spectra, s, dw, lam2, mu) per Newton step computed."""
    points, locals_, steps = [], [], []
    spectra, local, newton = lmi_core._Barrier.spectra, lmi_core._Barrier.local, lmi_core._Barrier.newton

    def record_spectra(bar, w):
        out = spectra(bar, w)
        points.append((out, w))
        return out

    def record_local(bar, sp):
        out = local(bar, sp)
        locals_.append((out, sp))
        return out

    def record_newton(bar, terms, s):
        lam2, dw, mu = newton(bar, terms, s)
        sp = next(sp for out, sp in reversed(locals_) if out is terms)
        w = next(w for out, w in reversed(points) if out is sp)
        steps.append((bar, w, sp, s, dw, lam2, mu))
        return lam2, dw, mu

    monkeypatch.setattr(lmi_core._Barrier, "spectra", record_spectra)
    monkeypatch.setattr(lmi_core._Barrier, "local", record_local)
    monkeypatch.setattr(lmi_core._Barrier, "newton", record_newton)
    return steps


def test_step_gap_is_the_dual_bound_of_the_same_step(monkeypatch):
    # t + (theta - sum mu) / s is <Z, C> for the step's dual point Z, whose
    # negative _dual_bound returns after its least-norm correction; both
    # exist exactly when max mu <= 1
    steps = _record_steps(monkeypatch)
    compared = 0
    for name, problem in _probe_problems():
        del steps[:]
        solve_feasibility(problem)
        for bar, w, spectra, s, dw, lam2, mu in steps:
            bound = lmi_core._t_bound(bar, w[-1], s, mu)
            if mu.max() > 1.0 - 1e-6:
                continue
            dual = lmi_core._dual_bound(bar, spectra, s, dw)
            assert dual is not None, name
            assert abs(bound + dual) <= 1e-9 * abs(dual), name
            compared += 1
    assert compared >= 200


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_gap_rules_never_exclude_a_known_witness(stable_problems, data):
    # every per-step bound on t* lies above the known witness's t = -f,
    # however short the run, so neither stop rule fires below it
    name, problem, witness = data.draw(st.sampled_from(stable_problems))
    cfg = SolverConfig(max_iters=data.draw(st.integers(1, 40)))
    t_witness = -_Compiled(problem).f_only(witness)
    with pytest.MonkeyPatch.context() as mp:
        steps = _record_steps(mp)
        solve_feasibility(problem, cfg)
    bounds = [lmi_core._t_bound(bar, w[-1], s, mu) for bar, w, _, s, _, lam2, mu in steps]
    assert all(b >= t_witness - 1e-9 for b in bounds), name


def _singular_problems():
    """(name, problem) for th2-lmi on a singular A past its margin 0.5 (the
    paper system past its margin is already among ``_probe_problems``)."""
    cases = []
    for A in ([[2.0, 0.0], [0.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]]):
        sys = validate_system(IdsSystem(A=(np.array(A),), tau=(1.0,)))
        cases.append((f"singular-{A}", _barrier_only(LMI_CRITERIA["th2-lmi"](sys))))
    return cases


def test_th2_lmi_margin_cell_newton_steps(monkeypatch, plain_margin):
    # one table cell, row 0.3: the search's 4 cold solves at lo, hi and the
    # two ends of the mu edge's bracket, and plain bisection's 17, pinned so
    # a change of the barrier's step count shows
    iterations = []
    real = margin_module.solve_feasibility

    def solve(problem, cfg=None):
        rep = real(problem, cfg)
        iterations.append(rep.iterations)
        return rep

    monkeypatch.setattr(margin_module, "solve_feasibility", solve)
    sys = benchmark_system(0.3, 0.1)
    m = margin_module.bisect_margin(sys, 1, "th2-lmi", lo=1e-4, tol=1e-4)
    assert f"{m:.6g}" == "0.114629"
    assert len(iterations) == 4
    assert sum(iterations) == 32
    iterations.clear()
    assert plain_margin(sys, 1, "th2-lmi") == m
    assert len(iterations) == 17
    assert sum(iterations) == 172
