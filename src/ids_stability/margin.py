"""The criterion registry, delay-margin bisection and the margin table.

:data:`CRITERIA` alone maps a criterion id to the system kind it accepts
and to how it is evaluated.  Bisection relies on feasibility being
monotone in each delay, which every shipped criterion is.  Each LMI
carries its delay terms as PSD factors scaled by tau_i or tau_i^2, so its
feasible sets nest as a delay shrinks.  rho(sum_i tau_i^2 A_i (x) A_i),
and the weighted radius at any fixed weights, is monotone because each
term T -> tau_i^2 A_i.T T A_i preserves the PSD cone (Krein-Rutman).
"single-delay" compares rho(A_1) with 1/tau_1; "laa" and "laa-spectral"
do not depend on tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import criteria_lmi, criteria_spectral
from .lmi_core import FeasReport, SolverConfig, solve_feasibility
from .model import DiscreteIds, IdsSystem, ValidationError, validate_system

__all__ = [
    "CRITERIA",
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
    "amc": (False, _lmi("amc")),
    "th2-coupled": (False, _lmi("th2-coupled")),
    "single": (False, _lmi("single")),
    "th1": (False, _lmi("th1")),
    "th2-lmi": (False, _lmi("th2-lmi")),
    "laa": (True, _lmi("laa")),
    "spectral": (False, lambda sys, cfg, alpha: criteria_spectral.check_spectral(sys)),
    "spectral-weighted": (False, _spectral_weighted),
    "laa-spectral": (True, lambda sys, cfg, alpha: criteria_spectral.laa_spectral(sys)),
    "single-delay": (False, _single_delay),
}

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
    optimized when absent.
    """
    _check_criterion(criterion, sys)
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
    Each probe is one cold criterion evaluation.
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
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if probe(mid):
            lo = mid
        else:
            hi = mid
    return lo


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
