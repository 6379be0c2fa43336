import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ids_stability.criteria_lmi import LMI_CRITERIA, build_single
from ids_stability.lmi_core import (
    AffineBlock,
    BlockTerm,
    LmiProblem,
    MatrixVariable,
    ProblemError,
    SolverConfig,
    _Compiled,
    check_witness,
    evaluate,
    linearize_inverse_bound,
    normalize_witness,
    solve_feasibility,
)
from ids_stability.model import DiscreteIds, IdsSystem, benchmark_system, validate_system


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


def test_solver_requires_homogeneous_problem():
    p = LmiProblem(
        variables=(MatrixVariable("q", 1, require_pd=True),),
        blocks=(
            AffineBlock(
                dim=1,
                terms=(BlockTerm("q", np.array([[1.0]]), np.array([[1.0]])),),
                constant=np.array([[2.0]]),
            ),
        ),
    )
    with pytest.raises(ProblemError, match="constant"):
        solve_feasibility(p)


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


def test_solver_deterministic_for_seed():
    p = build_single(benchmark_system(0.3, 0.06))
    r1 = solve_feasibility(p, SolverConfig(seed=3))
    r2 = solve_feasibility(p, SolverConfig(seed=3))
    assert r1.status == r2.status and r1.lambda_star == r2.lambda_star
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
    """(name, problem) for all six builders on seeded random systems, n, N <= 3,
    plus the zero system, where every block of most builders ties at the
    all-identity point."""
    rng = np.random.default_rng(11)
    cases = []
    for n in (1, 2, 3):
        for N in (1, 2, 3):
            for A in (list(rng.standard_normal((N, n, n))), [np.zeros((n, n))] * N):
                tau = tuple(np.sort(rng.uniform(0.05, 0.5, N)) + 0.01 * np.arange(N))
                for name, build in LMI_CRITERIA.items():
                    kind = DiscreteIds if name == "laa" else IdsSystem
                    cases.append((f"{name}-n{n}-N{N}", build(validate_system(kind(A=A, tau=tau)))))
    return cases


def _block_values(problem, witness):
    """lambda_max of each declared block, then of each -V block, in order."""
    values, _ = evaluate(problem, witness)
    vals = [np.linalg.eigvalsh(B)[-1] for B in values]
    vals += [np.linalg.eigvalsh(-witness[v.name])[-1] for v in problem.variables if v.require_pd]
    return np.array(vals)


def _reference_f_and_grad(comp, x):
    """Block-by-block evaluation: the first block attaining the maximum wins."""
    worst, grad = -np.inf, None
    for k, (g, j) in enumerate(comp.where):
        m, _, M = comp.groups[g]
        Mk = M[j * m * m : (j + 1) * m * m]
        B = (Mk @ x).reshape(m, m)
        w, V = np.linalg.eigh(0.5 * (B + B.T))
        if w[-1] > worst:
            worst, u = float(w[-1]), V[:, -1]
            grad = Mk.T @ np.outer(u, u).reshape(-1)
    return worst, grad


def test_kernel_matches_block_evaluation(kernel_cases):
    rng = np.random.default_rng(5)
    for name, problem in kernel_cases:
        comp = _Compiled(problem)
        for _ in range(3):
            x = comp.project(rng.standard_normal(comp.nx))
            vals = _block_values(problem, comp.to_witness(x))
            scale = max(1.0, np.abs(vals).max())
            f, g = comp.f_and_grad(x)
            assert abs(comp.f_only(x) - vals.max()) <= 1e-12 * scale, name
            assert abs(f - vals.max()) <= 1e-12 * scale, name
            # subgradient inequality f(y) >= f(x) + g.(y - x)
            for _ in range(3):
                y = x + rng.standard_normal(comp.nx)
                assert comp.f_only(y) >= f + g @ (y - x) - 1e-10 * scale, name


def test_kernel_tie_goes_to_lowest_block(kernel_cases):
    ties = 0
    for name, problem in kernel_cases:
        comp = _Compiled(problem)
        a = comp.trace_vec
        x = a / (a @ a)  # every PD variable the same multiple of the identity
        vals = _block_values(problem, comp.to_witness(x))
        npd = sum(v.require_pd for v in problem.variables)
        assert np.all(vals[-npd:] == vals[-1]), name  # the -V blocks tie exactly
        ties += np.sum(vals == vals.max()) > 1
        # a different tied block would move the gradient onto other variables
        f, g = comp.f_and_grad(x)
        f_ref, g_ref = _reference_f_and_grad(comp, x)
        scale = max(1.0, np.abs(vals).max())
        assert abs(f - f_ref) <= 1e-12 * scale, name
        np.testing.assert_allclose(g, g_ref, rtol=0, atol=1e-12 * scale, err_msg=name)
    assert ties > 10  # the zero systems tie declared and -V blocks
