"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

 1. Margin table reproduction (16 cells, +-2e-3, exact infeasibility flags,
    under 5 minutes single-threaded).
 2. Single-term margin 0.4473 +- 1e-3 and rho(0.4473 A1) = 0.9999 +- 1e-3.
 3. Weighted spectral radius 0.9783 +- 1e-3 at weights (0.9, 0.1); the
    optimizer never does worse than that hand choice.
 4. Verdict equivalence of the coupled/single conditions with the spectral
    test on 100 off-boundary random systems, zero disagreements.
 5. Conservatism ordering and both constructive witness conversions on the
    same corpus.
 6. Stacked-operator factorization identity to 1e-10 relative on 100 systems.
 7. Jensen gap suites: discrete gaps >= -1e-12 over 1e4 draws, integral gaps
    above their quadrature budget, dominance on every draw, observed
    quadrature order >= 1.9.
 8. Simulator cross-validation: decay with positive fitted rate and a
    nonincreasing certificate functional inside the linearized margin;
    divergence of the unstable scalar system; step-halving order >= 1.8.
 9. Byte-identical selftest reports for a fixed seed.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import math
import subprocess
import sys as _sys
import time

import numpy as np

from ids_stability.criteria_lmi import build_th2_lmi, th2_functional_params
from ids_stability.criteria_spectral import (
    check_spectral_weighted,
    optimize_weights,
    spectral_radius,
)
from ids_stability.lmi_core import solve_feasibility
from ids_stability.margin import bisect_margin, table1
from ids_stability.model import IdsSystem, benchmark_system, validate_system
from ids_stability.simulator import (
    HistorySpec,
    estimate_decay,
    eval_functional,
    make_compatible,
    simulate,
)
from ids_stability.suites import (
    run_equivalence_suite,
    run_factorization_suite,
    run_jensen_suite,
    run_ordering_suite,
)

A1 = np.array([[-4.0, 1.0], [-13.0, 2.0]])

PAPER_TABLE = {
    (0.4, "th2-lmi"): 0.0317,
    (0.4, "amc"): None,
    (0.4, "single"): None,
    (0.4, "spectral"): None,
    (0.3, "th2-lmi"): 0.1146,
    (0.3, "amc"): 0.0474,
    (0.3, "single"): 0.0474,
    (0.3, "spectral"): 0.0474,
    (0.2, "th2-lmi"): 0.2418,
    (0.2, "amc"): 0.1527,
    (0.2, "single"): 0.1527,
    (0.2, "spectral"): 0.1527,
    (0.1, "th2-lmi"): 0.4882,
    (0.1, "amc"): 0.3414,
    (0.1, "single"): 0.3414,
    (0.1, "spectral"): 0.3414,
}

CORPUS_SEED = 2024

# the bytes that must not move: `ids-stab table1` ...
TABLE1_CSV = """\
tau1, th2-lmi, amc, single, spectral
0.4, 0.0317765, inf, inf, inf
0.3, 0.114629, 0.0473396, 0.0473396, 0.0473396
0.2, 0.241787, 0.152741, 0.152741, 0.152741
0.1, 0.488149, 0.341435, 0.341435, 0.341435
"""

# ... and `ids-stab selftest --seed 7`.  The rounding-level digits
# (-4.263e-14, 5.375e-15) hold for numpy 2.4.6 on x86-64 Linux; another
# numpy or BLAS may move them.
SELFTEST_SEED_7 = """\
PASS jensen/discrete-gaps-nonnegative: 1500 draws, worst gap -4.263e-14
PASS jensen/integral-gaps-above-budget: 40 draws, worst gap+budget 4.740e-03
PASS jensen/shared-weight-dominance: 40 draws
PASS jensen/quadrature-order: median observed order 2.011 over 12 functions
PASS equivalence/verdicts-match-spectral: 15 systems (9 stable), 0 disagreements
PASS ordering/coupled-implies-linearized: 4/8 coupled-feasible systems
PASS ordering/construction-from-coupled: 4 conversions
PASS ordering/construction-from-summed: 5 conversions
PASS ordering/linearized-families-agree: 8 systems
PASS factorization/block-vs-kron-sum: 40 systems, worst relative gap 5.375e-15
selftest: all 10 checks passed (seed 7)
"""


def _report(k, msg):
    print(f"criterion {k}: PASS - {msg}")


def test_criterion_1_margin_table():
    t0 = time.monotonic()
    result = table1(benchmark_system())
    elapsed = time.monotonic() - t0
    worst = 0.0
    for key, expected in PAPER_TABLE.items():
        got = result.cells[key]
        if expected is None:
            assert got is None, f"cell {key} should be infeasible, got {got}"
        else:
            assert got is not None, f"cell {key} should be feasible"
            assert abs(got - expected) <= 2e-3, f"cell {key}: {got} vs {expected}"
            worst = max(worst, abs(got - expected))
    # the spectrally equivalent columns must agree with each other tightly
    for r in result.rows:
        vals = [result.cells[(r, c)] for c in ("amc", "single", "spectral")]
        if any(v is None for v in vals):
            assert all(v is None for v in vals)
        else:
            assert max(vals) - min(vals) <= 2e-4
    assert result.to_csv() == TABLE1_CSV
    assert elapsed <= 300.0, f"table took {elapsed:.1f}s"
    _report(1, f"16/16 cells within 2e-3 (worst {worst:.2e}), {elapsed:.1f}s")


def test_criterion_2_single_term_margin():
    sys1 = validate_system(IdsSystem(A=(A1,), tau=(0.2,)))
    m = bisect_margin(sys1, 0, "amc", lo=1e-4, hi=2.0, tol=1e-4)
    assert m is not None and abs(m - 0.4473) <= 1e-3
    rho = spectral_radius(0.4473 * A1)
    assert abs(rho - 0.9999) <= 1e-3
    _report(2, f"margin {m:.4f}, rho(0.4473 A1) = {rho:.4f}")


def test_criterion_3_weighted_spectral():
    sys = benchmark_system(0.4, 0.02)
    v = check_spectral_weighted(sys, (0.9, 0.1))
    assert abs(v.rho - 0.9783) <= 1e-3
    assert v.passed
    _alpha, rho_star = optimize_weights(sys)
    assert rho_star <= 0.9783 + 1e-6
    _report(3, f"rho(0.9,0.1) = {v.rho:.4f}, optimized {rho_star:.4f}")


def test_criterion_4_equivalence_suite():
    rep = run_equivalence_suite(seed=CORPUS_SEED, count=100)
    assert rep.passed, rep.lines()
    _report(4, rep.checks[0].detail)


def test_criterion_5_ordering_suite():
    rep = run_ordering_suite(seed=CORPUS_SEED, count=100)
    assert rep.passed, rep.lines()
    _report(5, "; ".join(c.detail for c in rep.checks))


def test_criterion_6_factorization_identity():
    rep = run_factorization_suite(seed=CORPUS_SEED, count=100)
    assert rep.passed, rep.lines()
    _report(6, rep.checks[0].detail)


def test_criterion_7_jensen_suites():
    rep = run_jensen_suite(seed=CORPUS_SEED, draws=10_000, quad_draws=100)
    assert rep.passed, rep.lines()
    _report(7, "; ".join(c.detail for c in rep.checks))


def test_criterion_8_simulator_cross_validation():
    sys = benchmark_system(0.3, 0.11)
    hist = make_compatible(sys, HistorySpec.random_smooth(CORPUS_SEED))
    traj = simulate(sys, hist, h=0.01, T=10.0)
    fit = estimate_decay(traj)
    assert fit is not None and fit[1] > 0

    solved = solve_feasibility(build_th2_lmi(sys))
    assert solved.feasible
    params = th2_functional_params(sys, [solved.witness["Q1"], solved.witness["Q2"]])
    ts = np.round(np.arange(0.0, traj.T - max(traj.tau_snapped), 0.05), 10)
    V = np.array([eval_functional(sys, traj, "th2", params, t) for t in ts])
    eps_v = 50.0 * traj.h**2 * V[0]
    assert np.all(np.diff(V) <= eps_v)

    unstable = validate_system(IdsSystem(A=(np.array([[2.0]]),), tau=(1.0,)))
    blow = simulate(unstable, HistorySpec.constant([1.0]), h=0.05, T=20.0)
    growth = float(np.linalg.norm(blow.samples[-1])) / blow.sup_history
    assert growth >= 1e3

    runs = [simulate(sys, hist, h=h, T=3.0) for h in (0.01, 0.005, 0.0025)]

    def max_diff(a, b):
        ia = np.arange(a.hist_len, a.samples.shape[0])
        ib = (ia - a.hist_len) * 2 + b.hist_len
        return float(np.max(np.linalg.norm(a.samples[ia] - b.samples[ib], axis=1)))

    order = math.log2(max_diff(runs[0], runs[1]) / max_diff(runs[1], runs[2]))
    assert order >= 1.8
    _report(
        8,
        f"beta = {fit[1]:.3f}, V monotone, growth {growth:.2e}, order {order:.2f}",
    )


def test_criterion_9_selftest_determinism():
    cmd = [_sys.executable, "-m", "ids_stability.cli", "selftest", "--seed", "7"]
    r1 = subprocess.run(cmd, capture_output=True, timeout=900)
    r2 = subprocess.run(cmd, capture_output=True, timeout=900)
    assert r1.returncode == 0, r1.stdout.decode()
    assert r2.returncode == 0
    assert r1.stdout == r2.stdout
    assert r1.stdout.decode() == SELFTEST_SEED_7
    _report(9, f"{len(r1.stdout.splitlines())} identical report lines across runs")
