"""The criterion registry, delay-margin search and the margin table.

:data:`CRITERIA` alone maps a criterion id to the system kind it accepts
and to how it is evaluated.  Bisection relies on feasibility being
monotone in each delay, which every shipped criterion is.  Each LMI
carries its delay terms as PSD factors scaled by tau_i or tau_i^2, so its
feasible sets nest as a delay shrinks.  rho(sum_i tau_i^2 A_i (x) A_i),
and the weighted radius at any fixed weights, is monotone because each
term T -> tau_i^2 A_i.T T A_i preserves the PSD cone (Krein-Rutman).
"single-delay" compares rho(A_1) with 1/tau_1; "laa" and "laa-spectral"
do not depend on tau.  "amc" and "th2-coupled" are decided by "single",
and "th1" by "th2-lmi", which accept exactly the same systems (see
``criteria_lmi``); ``_through`` says what their reports carry.

The criteria of :data:`PREDICTED` hold exactly when N rho(sum_i tau_i^2
A_i (x) A_i) < 1, so ``criteria_spectral.spectral_margin`` gives their
boundary in closed form: that edge is exact.  The criteria of
:data:`MU_PREDICTED` imply mu < 1, so ``criteria_spectral.mu_margin`` (N <=
2) gives an upper bound of their margin, which is exact at N = 1 only; on
the paper rows it lies 1.1e-5 to 5.8e-5 above th2-lmi's margin, inside one
final bracket.  Either search replays the bisection on its edge and probes
the criterion only at the two ends of the predicted final bracket; where a
probe disagrees, plain bisection takes over and reuses what the probes
proved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import criteria_lmi, criteria_spectral
from .lmi_core import FeasReport, SolverConfig, evaluate, normalize_witness, solve_feasibility
from .model import DiscreteIds, IdsSystem, ValidationError, validate_system

__all__ = [
    "CRITERIA",
    "PREDICTED",
    "MU_PREDICTED",
    "evaluate_criterion",
    "criterion_feasible",
    "bisect_margin",
    "table1",
    "Table1Result",
    "TABLE1_COLUMNS",
]


def _lmi(criterion: str):
    def evaluate(sys, cfg, alpha) -> FeasReport:
        return solve_feasibility(criteria_lmi.LMI_CRITERIA[criterion](sys), cfg)

    return evaluate


def _through(source: str, target: str, convert):
    """Decide ``target`` by ``source``, which accepts the same systems: a
    feasible source witness is mapped by ``convert(sys, *its matrices)``, and
    the target's objective at it, normalized, is lambda_star; feasible when
    that is negative (tolerance 0, not eps_feas: near the margin th2-lmi's
    -1.5e-6 maps to th1's -6e-8), else not_found, unproved, as is a map that
    fails (no witness, lambda_star = inf).  A source not_found keeps its
    lambda_star and lower bound, with no witness."""

    def evaluate_through(sys, cfg, alpha) -> FeasReport:
        rep = _lmi(source)(sys, cfg, alpha)
        if not rep.feasible:
            return replace(rep, witness={})
        try:
            w = convert(sys, *rep.witness.values())
        except (criteria_lmi.ConversionError, criteria_lmi.IllConditionedError):
            return replace(rep, status="not_found", lambda_star=math.inf, witness={})
        problem = criteria_lmi.LMI_CRITERIA[target](sys)
        value = evaluate(problem, normalize_witness(problem, w))[1]
        return replace(rep, status="feasible" if value < 0.0 else "not_found", lambda_star=value, witness=w)

    return evaluate_through


def _spectral_weighted(sys, cfg, alpha):
    if alpha is None:
        alpha, _rho = criteria_spectral.optimize_weights(sys)
    return criteria_spectral.check_spectral_weighted(sys, alpha)


def _single_delay(sys, cfg, alpha):
    if sys.N != 1:
        raise ValueError("criterion 'single-delay' requires N = 1")
    return criteria_spectral.single_delay_checks(sys.A[0], sys.tau[0])


#: criterion id -> (requires-discrete-system, evaluate(sys, cfg, alpha))
CRITERIA = {
    "amc": (False, _through("single", "amc", criteria_lmi.witness_amc_from_single)),
    "th2-coupled": (False, _through("single", "th2-coupled", criteria_lmi.witness_th2_coupled_from_single)),
    "single": (False, _lmi("single")),
    "th1": (False, _through("th2-lmi", "th1", lambda sys, *Q: criteria_lmi.witness_th1_lmi_from_th2(sys, Q))),
    "th2-lmi": (False, _lmi("th2-lmi")),
    "laa": (True, _lmi("laa")),
    "spectral": (False, lambda sys, cfg, alpha: criteria_spectral.check_spectral(sys)),
    "spectral-weighted": (False, _spectral_weighted),
    "laa-spectral": (True, lambda sys, cfg, alpha: criteria_spectral.laa_spectral(sys)),
    "single-delay": (False, _single_delay),
}

#: criteria whose margin ``criteria_spectral.spectral_margin`` predicts: each
#: holds exactly when N rho(sum_i tau_i^2 A_i (x) A_i) < 1 (the coupled LMIs
#: by the positive-operator result, "single-delay" as tau_1 rho(A_1) < 1)
PREDICTED = frozenset({"spectral", "amc", "th2-coupled", "single", "single-delay"})

#: criteria whose margin ``criteria_spectral.mu_margin`` bounds from above:
#: th2-lmi is the D-scaling bound of mu, so it implies mu < 1, and "th1" is
#: decided by "th2-lmi"
MU_PREDICTED = frozenset({"th2-lmi", "th1"})

TABLE1_COLUMNS = ("th2-lmi", "amc", "single", "spectral")


def _check_criterion(criterion: str, sys) -> None:
    if criterion not in CRITERIA:
        raise ValueError(
            f"unknown criterion {criterion!r}; valid: {', '.join(sorted(CRITERIA))}"
        )
    needs_discrete, _ = CRITERIA[criterion]
    if needs_discrete and not isinstance(sys, DiscreteIds):
        raise ValueError(f"criterion {criterion!r} requires a discrete-delay system")
    if not needs_discrete and not isinstance(sys, IdsSystem):
        raise ValueError(f"criterion {criterion!r} requires an integral system")


def evaluate_criterion(sys, criterion: str, cfg: SolverConfig | None = None, alpha=None):
    """Evaluate one criterion and return its own result object: a
    ``FeasReport`` (LMI criteria), ``SpectralVerdict`` or ``SingleDelayChecks``.

    ``alpha`` selects the weights of "spectral-weighted", which are
    optimized when absent; given for any other criterion, it is an error.
    """
    _check_criterion(criterion, sys)
    if alpha is not None and criterion != "spectral-weighted":
        raise ValueError(f"weights apply only to 'spectral-weighted', not to {criterion!r}")
    return CRITERIA[criterion][1](sys, cfg or SolverConfig(), alpha)


def criterion_feasible(
    sys, criterion: str, cfg: SolverConfig | None = None, alpha=None
) -> tuple[bool, dict | None]:
    """Evaluate one criterion; returns (verdict, certifying witness or None)."""
    result = evaluate_criterion(sys, criterion, cfg, alpha)
    if isinstance(result, FeasReport):
        return result.feasible, (result.witness if result.feasible else None)
    return result.passed, None


def _with_delay(sys, index: int, value: float):
    tau = list(sys.tau)
    if not 0 <= index < len(tau):
        raise ValueError(f"vary index {index} out of range for N={len(tau)}")
    tau[index] = float(value)
    if isinstance(sys, DiscreteIds):
        return validate_system(DiscreteIds(A=sys.A, tau=tuple(tau)))
    return validate_system(IdsSystem(A=sys.A, tau=tuple(tau)))


def bisect_margin(
    sys_template,
    vary_index: int,
    criterion: str,
    lo: float = 1e-4,
    hi: float | None = None,
    tol: float = 1e-4,
    cfg: SolverConfig | None = None,
) -> float | None:
    """Largest value of the varied delay (within tol) at which the criterion
    holds, assuming monotone feasibility; None when it already fails at lo.

    A probe is one cold criterion evaluation.  After the probes at lo and
    hi, a criterion of :data:`PREDICTED` or :data:`MU_PREDICTED` replays the
    midpoint loop against its predicted edge, looked up in
    ``criteria_spectral`` when the search runs, and probes only the two ends
    of the predicted final bracket.  When both confirm it, monotonicity
    makes every midpoint of the replay agree with a real probe, so the
    bracket is the one bisection reaches.  The spectral edge is exact; the
    mu edge only bounds the margin from above, so it is confirmed where the
    margin lies in the edge's final bracket, as on the paper rows.
    Otherwise, and for every other criterion, the loop runs with real
    probes, skipping each midpoint that the probes so far decide.  Either
    way the result has a passing probe, and one within tol above it fails.
    """
    _check_criterion(criterion, sys_template)
    if hi is None:
        hi = 10.0 * max(sys_template.tau)
    if not all(math.isfinite(v) for v in (lo, hi, tol)):
        raise ValueError(f"lo, hi and tol must be finite (got {lo}, {hi}, {tol})")
    if not (0 < lo < hi):
        raise ValueError(f"invalid bracket [{lo}, {hi}]")
    if tol <= 0:
        raise ValueError("tol must be positive")

    def probe(value: float) -> bool:
        try:
            probe_sys = _with_delay(sys_template, vary_index, value)
        except ValidationError:
            return False  # varying a discrete delay out of order
        return criterion_feasible(probe_sys, criterion, cfg)[0]

    if not probe(lo):
        return None
    if probe(hi):
        return hi
    passed, failed = lo, hi  # the largest passing and the least failing probe

    def decide(value: float) -> bool:
        nonlocal passed, failed
        if passed < value < failed:
            if probe(value):
                passed = value
            else:
                failed = value
        return value <= passed

    def bisect(holds) -> tuple[float, float]:
        a, b = lo, hi
        while b - a > tol:
            mid = 0.5 * (a + b)
            if holds(mid):
                a = mid
            else:
                b = mid
        return a, b

    if criterion in PREDICTED:
        edge = criteria_spectral.spectral_margin(sys_template, vary_index)
    elif criterion in MU_PREDICTED:
        edge = criteria_spectral.mu_margin(sys_template, vary_index)
    else:
        edge = None
    if edge is not None and lo < edge <= hi:
        a, b = bisect(lambda v: v < edge)
        if decide(a) and not decide(b):
            return a
    return bisect(decide)[0]


@dataclass(frozen=True)
class Table1Result:
    rows: tuple[float, ...]
    columns: tuple[str, ...]
    cells: dict  # (row_value, column_id) -> float | None

    def to_csv(self) -> str:
        lines = ["tau1, " + ", ".join(self.columns)]
        for r in self.rows:
            rendered = [
                "inf" if self.cells[(r, c)] is None else f"{self.cells[(r, c)]:.6g}"
                for c in self.columns
            ]
            lines.append(f"{r:.6g}, " + ", ".join(rendered))
        return "\n".join(lines) + "\n"


def table1(
    sys: IdsSystem,
    tol: float = 1e-4,
    cfg: SolverConfig | None = None,
    rows: tuple[float, ...] = (0.4, 0.3, 0.2, 0.1),
) -> Table1Result:
    """Margin of the second delay under the four standard criteria, for each
    first-delay row.  Cells that fail already at 1e-4 render as "inf"."""
    if sys.N != 2:
        raise ValueError("the margin table expects a two-delay system")
    cells = {}
    for r in rows:
        base = sys.with_delays((r, sys.tau[1]))
        for c in TABLE1_COLUMNS:
            cells[(r, c)] = bisect_margin(base, 1, c, lo=1e-4, tol=tol, cfg=cfg)
    return Table1Result(rows=tuple(rows), columns=TABLE1_COLUMNS, cells=cells)
