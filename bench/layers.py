"""Per-layer instrumentation: which public names are wrapped, and the
per-layer metrics computed from the spans.

Each function is wrapped where the calling module looks it up, because
``from x import f`` copies the binding: ``margin`` calls
``solve_feasibility`` and ``validate_system`` by its own names and the
builders through ``criteria_lmi.LMI_CRITERIA``; ``criteria_lmi`` calls its
own ``optimize_weights``; ``lmi_core`` its own ``linprog`` and ``np``.
"""

from __future__ import annotations

from ids_stability import (
    criteria_lmi,
    criteria_spectral,
    jensen,
    lmi_core,
    margin,
    model,
    simulator,
)

from tracer import Tracer

SOLVE = "lmi_core.solve_feasibility"
LP = "lmi_core.linprog"
EIGH = "lmi_core.eigh"
BUILD = "criteria_lmi.build"
RADIUS = "criteria_spectral.spectral_radius"
WEIGHTS = "criteria_spectral.optimize_weights"
SEARCH = "margin.bisect_margin"
VERDICT = "margin.criterion_feasible"
VALIDATE = "model.validate_system"
SIMULATE = "simulator.simulate"
COMPAT = "simulator.make_compatible"
DECAY = "simulator.estimate_decay"
FUNCTIONAL = "simulator.eval_functional"
GAP = "jensen.gap"


def _solve_attrs(args, report):
    return {"status": report.status, "iterations": report.iterations, "restarts": report.restarts}


def _build_attrs(args, problem):
    return {"starts": len(problem.starts)}


def _verdict_attrs(args, result):
    return {"feasible": bool(result[0])}


def _steps_attrs(args, traj):
    return {"steps": traj.samples.shape[0] - traj.hist_len - 1}


def install() -> Tracer:
    tr = Tracer()
    tr.wrap(margin, "solve_feasibility", SOLVE, _solve_attrs)
    tr.wrap(lmi_core, "solve_feasibility", SOLVE, _solve_attrs)
    tr.wrap(lmi_core, "linprog", LP)
    tr.count_numpy_eigh(lmi_core, EIGH)
    for key in list(criteria_lmi.LMI_CRITERIA):
        builder = criteria_lmi.LMI_CRITERIA[key]
        tr.wrap(criteria_lmi.LMI_CRITERIA, key, BUILD, _build_attrs)
        tr.wrap(criteria_lmi, builder.__name__, BUILD, _build_attrs)
    tr.wrap(criteria_lmi, "optimize_weights", WEIGHTS)
    tr.wrap(criteria_spectral, "optimize_weights", WEIGHTS)
    tr.wrap(criteria_spectral, "spectral_radius", RADIUS)
    tr.wrap(margin, "bisect_margin", SEARCH)
    tr.wrap(margin, "criterion_feasible", VERDICT, _verdict_attrs)
    tr.wrap(margin, "validate_system", VALIDATE)
    tr.wrap(model, "validate_system", VALIDATE)
    tr.wrap(simulator, "simulate", SIMULATE, _steps_attrs)
    tr.wrap(simulator, "make_compatible", COMPAT)
    tr.wrap(simulator, "estimate_decay", DECAY)
    tr.wrap(simulator, "eval_functional", FUNCTIONAL)
    for name in ("gap_continuous", "gap_multiple", "gap_shared_weight"):
        tr.wrap(jensen, name, GAP)
    return tr


# counters that must be nonzero on each workload; a zero means a wrapper
# sits on a binding the program no longer calls
MUST_FIRE = {
    "margin-table": (
        "lmi_core.solves", "lmi_core.iterations", "lmi_core.eigh_calls", "lmi_core.lp_calls",
        "criteria_lmi.builds", "criteria_spectral.radius_calls",
        "criteria_spectral.optimize_weights_calls", "margin.searches", "margin.probes",
        "model.validate_calls",
    ),
    "corpus-check": (
        "lmi_core.solves", "lmi_core.iterations", "lmi_core.eigh_calls",
        "criteria_lmi.builds", "criteria_lmi.starts_built", "criteria_spectral.radius_calls",
        "criteria_spectral.optimize_weights_calls",
    ),
    "trajectories": (
        "simulator.steps", "simulator.make_compatible_s", "simulator.decay_fit_s",
        "simulator.functional_evals", "jensen.gap_calls",
    ),
}

# metric name -> unit, "better"; the order of BENCHMARK.json's per_layer list
PER_LAYER = {
    "lmi_core.solves": ("count", "lower"),
    "lmi_core.solve_s": ("s", "lower"),
    "lmi_core.solve_feasible_s": ("s", "lower"),
    "lmi_core.solve_not_found_s": ("s", "lower"),
    "lmi_core.iterations": ("count", "lower"),
    "lmi_core.restarts": ("count", "lower"),
    "lmi_core.start_hit_ratio": ("1", "higher"),
    "lmi_core.feasible_ratio": ("1", "higher"),
    "lmi_core.eigh_calls": ("count", "lower"),
    "lmi_core.lp_calls": ("count", "lower"),
    "lmi_core.lp_s": ("s", "lower"),
    "lmi_core.us_per_iteration": ("us", "lower"),
    "criteria_lmi.builds": ("count", "lower"),
    "criteria_lmi.build_s": ("s", "lower"),
    "criteria_lmi.starts_built": ("count", "lower"),
    "criteria_spectral.radius_calls": ("count", "lower"),
    "criteria_spectral.radius_s": ("s", "lower"),
    "criteria_spectral.optimize_weights_calls": ("count", "lower"),
    "criteria_spectral.optimize_weights_s": ("s", "lower"),
    "margin.searches": ("count", "lower"),
    "margin.probes": ("count", "lower"),
    "margin.probes_per_search": ("count", "lower"),
    "margin.probe_s": ("s", "lower"),
    "margin.probe_self_s": ("s", "lower"),
    "margin.feasible_probe_ratio": ("1", "higher"),
    "simulator.simulate_s": ("s", "lower"),
    "simulator.steps": ("count", "lower"),
    "simulator.us_per_step": ("us", "lower"),
    "simulator.make_compatible_s": ("s", "lower"),
    "simulator.decay_fit_s": ("s", "lower"),
    "simulator.functional_evals": ("count", "lower"),
    "simulator.functional_s": ("s", "lower"),
    "jensen.gap_calls": ("count", "lower"),
    "jensen.gap_s": ("s", "lower"),
    "model.validate_calls": ("count", "lower"),
    "model.validate_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def metrics(tr: Tracer, clock, workload: str, overhead_s: float):
    """(metric name -> (value, unit), names of counters that should fire but
    read zero).  Span times are calibrated by ``clock`` like the end-to-end
    times; a span's self time is its time minus its direct children's."""
    dur = [clock.seconds(s.start, s.end) for s in tr.spans]
    child = [0.0] * len(dur)
    by = {}
    for i, s in enumerate(tr.spans):
        by.setdefault(s.name, []).append(i)
        if s.parent >= 0:
            child[s.parent] += dur[i]

    def spans(name):
        return [tr.spans[i] for i in by.get(name, [])]

    def total(name, keep=lambda s: True):
        return sum(dur[i] for i in by.get(name, []) if keep(tr.spans[i]))

    def is_probe(s):
        return s.parent >= 0 and tr.spans[s.parent].name == SEARCH

    solves = spans(SOLVE)
    iterations = sum(s.attrs["iterations"] for s in solves)
    solve_s = total(SOLVE)
    probes = [i for i in by.get(VERDICT, []) if is_probe(tr.spans[i])]
    steps = sum(s.attrs["steps"] for s in spans(SIMULATE))
    v = {
        "lmi_core.solves": len(solves),
        "lmi_core.solve_s": solve_s,
        "lmi_core.solve_feasible_s": total(SOLVE, lambda s: s.attrs["status"] == "feasible"),
        "lmi_core.solve_not_found_s": total(SOLVE, lambda s: s.attrs["status"] != "feasible"),
        "lmi_core.iterations": iterations,
        "lmi_core.restarts": sum(s.attrs["restarts"] for s in solves),
        "lmi_core.start_hit_ratio": _ratio(sum(s.attrs["restarts"] == 0 for s in solves), len(solves)),
        "lmi_core.feasible_ratio": _ratio(sum(s.attrs["status"] == "feasible" for s in solves), len(solves)),
        "lmi_core.eigh_calls": tr.total(EIGH),
        "lmi_core.lp_calls": len(spans(LP)),
        "lmi_core.lp_s": total(LP),
        "lmi_core.us_per_iteration": 1e6 * _ratio(solve_s, iterations),
        "criteria_lmi.builds": len(spans(BUILD)),
        "criteria_lmi.build_s": total(BUILD),
        "criteria_lmi.starts_built": sum(s.attrs["starts"] for s in spans(BUILD)),
        "criteria_spectral.radius_calls": len(spans(RADIUS)),
        "criteria_spectral.radius_s": total(RADIUS),
        "criteria_spectral.optimize_weights_calls": len(spans(WEIGHTS)),
        "criteria_spectral.optimize_weights_s": total(WEIGHTS),
        "margin.searches": len(spans(SEARCH)),
        "margin.probes": len(probes),
        "margin.probes_per_search": _ratio(len(probes), len(spans(SEARCH))),
        "margin.probe_s": sum(dur[i] for i in probes),
        "margin.probe_self_s": sum(dur[i] - child[i] for i in probes),
        "margin.feasible_probe_ratio": _ratio(sum(tr.spans[i].attrs["feasible"] for i in probes), len(probes)),
        "simulator.simulate_s": total(SIMULATE),
        "simulator.steps": steps,
        "simulator.us_per_step": 1e6 * _ratio(total(SIMULATE), steps),
        "simulator.make_compatible_s": total(COMPAT),
        "simulator.decay_fit_s": total(DECAY),
        "simulator.functional_evals": len(spans(FUNCTIONAL)),
        "simulator.functional_s": total(FUNCTIONAL),
        "jensen.gap_calls": len(spans(GAP)),
        "jensen.gap_s": total(GAP),
        "model.validate_calls": len(spans(VALIDATE)),
        "model.validate_s": total(VALIDATE),
        "trace.overhead_s": overhead_s,
    }
    missing = [k for k in MUST_FIRE[workload] if not v[k]]
    return {k: (v[k], PER_LAYER[k][0]) for k in PER_LAYER}, missing


def request_counts(tr: Tracer, workload: str) -> list[str]:
    """Exact per-cell counts on margin-table (solves, iterations, eigh, LPs)."""
    if workload != "margin-table":
        return []
    rows: dict = {}
    for s in tr.spans:
        if s.request is None:
            continue
        r = rows.setdefault(s.request, {"solves": 0, "iterations": 0, "eigh": 0, "lps": 0})
        if s.name == SOLVE:
            r["solves"] += 1
            r["iterations"] += s.attrs["iterations"]
        elif s.name == LP:
            r["lps"] += 1
    for (c, req), n in tr.counts.items():
        if c == EIGH and req in rows:
            rows[req]["eigh"] += n
    return [
        f"cell {req}: " + " ".join(f"{k} {n}" for k, n in r.items()) for req, r in rows.items()
    ]
