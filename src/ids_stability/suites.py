"""Seeded property suites shared by the CLI selftest and the test suite.

Each runner returns a :class:`SuiteReport` whose formatted lines are
deterministic for a fixed seed, so repeated runs are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import criteria_lmi, criteria_spectral, jensen, lmi_core
from .margin import evaluate_criterion
from .model import IdsSystem, validate_system

__all__ = [
    "Check",
    "SuiteReport",
    "random_corpus",
    "run_jensen_suite",
    "run_equivalence_suite",
    "run_ordering_suite",
    "run_factorization_suite",
    "run_all",
]


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class SuiteReport:
    name: str
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        return [
            f"{'PASS' if c.passed else 'FAIL'} {self.name}/{c.name}: {c.detail}"
            for c in self.checks
        ]


def random_system(rng: np.random.Generator) -> IdsSystem:
    n = int(rng.integers(1, 4))
    N = int(rng.integers(1, 4))
    A = tuple(rng.uniform(-1.0, 1.0, size=(n, n)) for _ in range(N))
    tau = tuple(float(t) for t in rng.uniform(0.05, 1.0, size=N))
    return validate_system(IdsSystem(A=A, tau=tau))


def random_corpus(seed: int, count: int) -> list[IdsSystem]:
    """Random systems whose scaled spectral radius N*rho keeps a margin of
    0.05 from the feasibility boundary at 1, so solver verdicts are
    unambiguous."""
    rng = np.random.default_rng(seed)
    out: list[IdsSystem] = []
    while len(out) < count:
        sys = random_system(rng)
        v = criteria_spectral.check_spectral(sys)
        if abs(sys.N * v.rho - 1.0) > 0.05:
            out.append(sys)
    return out


def _random_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    W = rng.standard_normal((n, n))
    return W @ W.T + (0.2 + rng.uniform()) * np.eye(n)


def _random_sampled(rng: np.random.Generator, n: int, tau: float, m: int) -> jensen.SampledFunction:
    c0 = rng.standard_normal(n)
    a = rng.standard_normal((3, n))
    b = rng.standard_normal((3, n))

    def fn(s):
        out = c0.copy()
        for j in range(1, 4):
            th = j * math.pi * s / tau
            out = out + (a[j - 1] * math.cos(th) + b[j - 1] * math.sin(th)) / (j * j)
        return out

    return jensen.SampledFunction.from_callable(fn, tau, m)


def run_jensen_suite(seed: int = 7, draws: int = 2000, quad_draws: int = 60) -> SuiteReport:
    """Nonnegativity, dominance, and quadrature-order checks of the gap
    evaluators."""
    rng = np.random.default_rng(seed)
    checks = []

    worst_d = math.inf
    for _ in range(draws):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(1, 4))
        xi = rng.standard_normal((N, n)) * rng.uniform(0.1, 3.0)
        Q = _random_spd(rng, n)
        Qs = [_random_spd(rng, n) for _ in range(N)]
        worst_d = min(
            worst_d, jensen.gap_discrete(xi, Q), jensen.gap_discrete_multi(xi, Qs)
        )
    checks.append(
        Check(
            "discrete-gaps-nonnegative",
            worst_d >= -1e-12,
            f"{draws} draws, worst gap {worst_d:.3e}",
        )
    )

    worst_rel = math.inf
    dominance_ok = True
    for _ in range(quad_draws):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(1, 4))
        m = int(rng.integers(8, 257))
        taus = rng.uniform(0.2, 1.5, size=N)
        oms = [_random_sampled(rng, n, float(t), m) for t in taus]
        Q = _random_spd(rng, n)
        Qs = [_random_spd(rng, n) for _ in range(N)]
        g_c = jensen.gap_continuous(oms[0], Q)
        b_c = jensen.gap_continuous_budget(oms[0], Q)
        g_m = jensen.gap_multiple(oms, Qs)
        b_m = jensen.gap_multiple_budget(oms, Qs)
        worst_rel = min(worst_rel, g_c + b_c, g_m + b_m)
        # shared-weight bound vs the individually weighted bound at Q_i = Q^-1
        Qinv = np.linalg.inv(Q)
        rhs_cd = N * sum(om.tau * om.quad_form_integral(Q) for om in oms)
        rhs_j = sum(om.tau * om.quad_form_integral(Q) for om in oms)
        if rhs_cd < rhs_j - 1e-12 * max(1.0, abs(rhs_cd)):
            dominance_ok = False
        if jensen.gap_multiple(oms, [Qinv] * N) < -(b_m + 1e-12):
            worst_rel = -math.inf
    checks.append(
        Check(
            "integral-gaps-above-budget",
            worst_rel >= 0.0,
            f"{quad_draws} draws, worst gap+budget {worst_rel:.3e}",
        )
    )
    checks.append(
        Check("shared-weight-dominance", dominance_ok, f"{quad_draws} draws")
    )

    orders = []
    for _ in range(12):
        n = int(rng.integers(1, 4))
        tau = float(rng.uniform(0.3, 1.2))
        Q = _random_spd(rng, n)
        # resample the same smooth function at m, 2m, 4m
        c0 = rng.standard_normal(n)
        a = rng.standard_normal((2, n))

        def smooth(s, c0=c0, a=a, tau=tau):
            return c0 + a[0] * math.sin(math.pi * s / tau) + a[1] * math.cos(2 * math.pi * s / tau)

        g = [
            jensen.gap_continuous(jensen.SampledFunction.from_callable(smooth, tau, m), Q)
            for m in (16, 32, 64)
        ]
        d1, d2 = abs(g[0] - g[1]), abs(g[1] - g[2])
        if d1 > 1e-13 and d2 > 1e-14:
            orders.append(math.log2(d1 / d2))
    med = float(np.median(orders)) if orders else math.nan
    checks.append(
        Check(
            "quadrature-order",
            bool(orders) and med >= 1.9,
            f"median observed order {med:.3f} over {len(orders)} functions",
        )
    )
    return SuiteReport("jensen", tuple(checks))


def run_equivalence_suite(seed: int = 7, count: int = 25) -> SuiteReport:
    """Solver verdicts of the three coupled/single conditions against the
    spectral test, on an off-boundary corpus."""
    systems = random_corpus(seed, count)
    disagreements = 0
    feasible = 0
    for sys in systems:
        expected = criteria_spectral.check_spectral(sys).passed
        feasible += int(expected)
        for criterion in ("amc", "th2-coupled", "single"):
            if evaluate_criterion(sys, criterion).feasible != expected:
                disagreements += 1
    detail = f"{count} systems ({feasible} stable), {disagreements} disagreements"
    return SuiteReport(
        "equivalence", (Check("verdicts-match-spectral", disagreements == 0, detail),)
    )


def run_ordering_suite(seed: int = 7, count: int = 12) -> SuiteReport:
    """Conservatism ordering and the constructive witness conversions."""
    systems = random_corpus(seed, count)
    checks = []
    ord_ok = conv_a_ok = conv_b_ok = iff_ok = True
    n_coupled = n_b = 0

    for sys in systems:
        N = sys.N
        rep_c = evaluate_criterion(sys, "th2-coupled")
        rep_1 = evaluate_criterion(sys, "th1")
        rep_2 = evaluate_criterion(sys, "th2-lmi")
        ok_c, ok_1, ok_2 = rep_c.feasible, rep_1.feasible, rep_2.feasible

        if ok_c:
            n_coupled += 1
            if not ok_1 or not ok_2:
                ord_ok = False
            Q = [rep_c.witness[f"Q{i+1}"] for i in range(N)]
            try:
                pr = criteria_lmi.witness_th1_from_th2coupled(sys, Q)
                if not criteria_lmi.verify_nmi_th1(sys, S=pr["R"], Q=pr["P"]):
                    conv_a_ok = False
            except criteria_lmi.ConversionError:
                conv_a_ok = False

        if ok_2:
            n_b += 1
            Q = [rep_2.witness[f"Q{i+1}"] for i in range(N)]
            Qn = [Qi / np.trace(sum(Q)) for Qi in Q]
            if not criteria_lmi.verify_nmi_th2(sys, Qn):
                conv_b_ok = False
            else:
                S = criteria_lmi.witness_th1_from_th2(sys, Qn)
                if not criteria_lmi.verify_nmi_th1(sys, S=S, Q=Qn):
                    conv_b_ok = False

        # the two linearized families accept exactly the same systems: th1
        # is decided through th2-lmi, so its witness must pass th1's blocks
        if ok_1 != ok_2:
            iff_ok = False
        elif ok_1 and not lmi_core.check_witness(criteria_lmi.build_th1(sys), rep_1.witness, 0.0):
            iff_ok = False

    checks.append(
        Check(
            "coupled-implies-linearized",
            ord_ok,
            f"{n_coupled}/{count} coupled-feasible systems",
        )
    )
    checks.append(
        Check("construction-from-coupled", conv_a_ok, f"{n_coupled} conversions")
    )
    checks.append(Check("construction-from-summed", conv_b_ok, f"{n_b} conversions"))
    checks.append(Check("linearized-families-agree", iff_ok, f"{count} systems"))
    return SuiteReport("ordering", tuple(checks))


def run_factorization_suite(seed: int = 7, count: int = 50) -> SuiteReport:
    """rho of the stacked operator block equals rho of the Kronecker sum."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        sys = random_system(rng)
        r1 = criteria_spectral.spectral_radius(criteria_spectral.operator_block(sys))
        r2 = criteria_spectral.check_spectral(sys).rho
        worst = max(worst, abs(r1 - r2) / max(r2, 1e-30))
    return SuiteReport(
        "factorization",
        (
            Check(
                "block-vs-kron-sum",
                worst <= 1e-10,
                f"{count} systems, worst relative gap {worst:.3e}",
            ),
        ),
    )


def run_all(seed: int = 7) -> list[SuiteReport]:
    """The selftest battery: Jensen, equivalence, ordering, factorization."""
    return [
        run_jensen_suite(seed, draws=1500, quad_draws=40),
        run_equivalence_suite(seed, count=15),
        run_ordering_suite(seed, count=8),
        run_factorization_suite(seed, count=40),
    ]
