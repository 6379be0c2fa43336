"""The three benchmark workloads and their per-operation correctness checks.

All three are closed loops: one caller, each call starting after the
previous one returns.  A workload has ``setup(seed, scale)``, which builds
program inputs from :mod:`inputs` and is not timed, and ``run(inputs,
runner)``, whose operations the runner times one by one.  A failed check is
recorded against its operation and never aborts the run.
"""

from __future__ import annotations

import math
import time

import numpy as np

import inputs
from ids_stability import criteria_lmi, jensen, lmi_core, margin, model, simulator

CELL_TOL = 2e-3  # acceptance tolerance of the margin table
MARGIN_TOL = 1e-4  # bisection tolerance of table1
SIM_H = 0.005  # fits the smallest delay (0.05) with h <= tau/8
SIM_T = 15.0
FUNC_DT = 0.05  # certificate functional grid, as in acceptance criterion 8
JENSEN_WINDOWS = 4  # trajectory windows per trajectory for the Jensen gaps
RESIDUAL_BOUND = 1e-9
PAPER_HISTORIES = 12  # per paper delay pair
RANDOM_SYSTEMS = 8
RANDOM_HISTORIES = 8  # per random system
MIN_VERDICTS = 200


class Runner:
    """Times operations and collects check results.

    ``intervals`` holds the raw (start, end) of each timed operation, and the
    clock is marked after each one; ``checks`` holds (id, failure or None)
    per checked output.  In a traced pass the runner also opens the root
    span of each request, so that every span inside carries the request id.
    """

    def __init__(self, clock, tracer=None):
        self.clock = clock
        self.tracer = tracer
        self.intervals: list[tuple[float, float]] = []
        self.checks: list[tuple[str, str | None]] = []
        self.notes: list[str] = []

    def call(self, rid: str, fn, *args, **kwargs):
        """Run one request; returns (result, (start, end))."""
        tr = self.tracer
        if tr is not None:
            tr.request = rid
            idx = tr.open("op")
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            if tr is not None:
                tr.close(idx)
                tr.request = None
        return result, (t0, t1)

    def op(self, rid: str, fn, *args, **kwargs):
        """One request that is also one timed operation."""
        result, interval = self.call(rid, fn, *args, **kwargs)
        self.intervals.append(interval)
        self.clock.mark()
        return result

    def check(self, rid: str, failure: str | None = None) -> None:
        self.checks.append((rid, failure))


def _program_system(raw: inputs.RawSystem):
    cls = model.DiscreteIds if raw.kind == "discrete" else model.IdsSystem
    return model.validate_system(cls(A=raw.A, tau=raw.tau))


# -- margin-table --------------------------------------------------------------


class MarginTable:
    """``table1`` on the paper system, tol 1e-4, default solver settings.

    Each cell, one margin search, is a request, a timed operation and a
    checked output.  The clock is also marked after every probe of a search,
    so that the host's speed is sampled within long cells.  The inputs are
    fixed: the seed is unused.
    """

    name = "margin-table"
    seed_used = False

    def setup(self, seed: int, scale: int):
        sys = _program_system(inputs.paper_system(inputs.PAPER_TAU))
        return {"system": sys, "tables": scale}

    def run(self, inp, runner: Runner) -> dict:
        search, probe = margin.bisect_margin, margin.criterion_feasible

        def timed_search(base, vary_index, criterion, **kwargs):
            return runner.op(f"{base.tau[0]:g}/{criterion}", search, base, vary_index, criterion, **kwargs)

        def marked_probe(*args, **kwargs):
            try:
                return probe(*args, **kwargs)
            finally:
                runner.clock.mark()

        worst = 0.0
        margin.bisect_margin, margin.criterion_feasible = timed_search, marked_probe
        try:
            for _ in range(inp["tables"]):
                table = margin.table1(
                    inp["system"], tol=MARGIN_TOL, cfg=lmi_core.SolverConfig(), rows=inputs.PAPER_ROWS
                )
                if table.columns != inputs.PAPER_COLUMNS:
                    raise RuntimeError(f"table1 columns changed: {table.columns}")
                for key, expected in inputs.PAPER_TABLE.items():
                    got = table.cells[key]
                    rid = f"{key[0]:g}/{key[1]}"
                    failure = None
                    if (got is None) != (expected is None):
                        failure = f"inf flag: got {got}, paper {expected}"
                    elif got is not None:
                        err = abs(got - expected)
                        worst = max(worst, err)
                        if err > CELL_TOL:
                            failure = f"margin {got:.6f} vs paper {expected} (err {err:.2e})"
                    runner.check(rid, failure)
                    runner.notes.append(f"cell {rid} = {'inf' if got is None else f'{got:.6f}'}")
        finally:
            margin.bisect_margin, margin.criterion_feasible = search, probe
        return {"table_max_err": worst}


# -- corpus-check --------------------------------------------------------------


def implication_failures(raw: inputs.RawSystem, v: dict) -> dict:
    """Verdicts that contradict a proven relation, keyed by criterion.

    Spectral verdicts are checked against the benchmark's own radius (the
    corpus is at least 0.1 from the boundary); the others against them.
    """
    out = {}
    truth = raw.stable
    if raw.kind == "discrete":
        if v["laa-spectral"] != truth:
            out["laa-spectral"] = f"laa-spectral {v['laa-spectral']} but N*rho = {raw.scaled_rho:.3f}"
        if v["laa-spectral"] and not v["laa"]:
            out["laa"] = "laa-spectral passes but laa is not found"
        return out
    sp = v["spectral"]
    if sp != truth:
        out["spectral"] = f"spectral {sp} but N*rho = {raw.scaled_rho:.3f}"
    for c in ("amc", "th2-coupled", "single"):
        if v[c] != sp:
            out[c] = f"{c} {v[c]} disagrees with spectral {sp}"
    # rho(tau^2 A (x) A) = (tau rho(A))^2 for a single term
    if "single-delay" in v and v["single-delay"] != sp:
        out["single-delay"] = f"single-delay {v['single-delay']} disagrees with spectral {sp}"
    if sp:
        for c in ("spectral-weighted", "th1", "th2-lmi"):
            if not v[c]:
                out[c] = f"spectral passes but {c} fails"
    return out


class CorpusCheck:
    """Cold single verdicts: each operation is one ``criterion_feasible``
    call on a seeded off-boundary system, under every applicable criterion."""

    name = "corpus-check"
    seed_used = True

    def setup(self, seed: int, scale: int):
        raws = inputs.corpus(seed, MIN_VERDICTS * scale)
        return [(f"s{i}", raw, _program_system(raw)) for i, raw in enumerate(raws)]

    def run(self, inp, runner: Runner) -> dict:
        feasible = total = 0
        for sid, raw, sys in inp:
            verdicts = {}
            for c in inputs.criteria_for(raw):
                ok, _witness = runner.op(f"{sid}/{c}", margin.criterion_feasible, sys, c)
                verdicts[c] = bool(ok)
                feasible += int(ok)
                total += 1
            bad = implication_failures(raw, verdicts)
            for c in verdicts:
                runner.check(f"{sid}/{c}", bad.get(c))
        runner.notes.append(f"corpus: {len(inp)} systems, {feasible}/{total} verdicts feasible")
        return {}


# -- trajectories --------------------------------------------------------------


class Trajectories:
    """Simulate seeded random-smooth histories at h = 0.005, T = 15, fit the
    decay, evaluate the th2 certificate functional where a witness exists and
    Jensen gaps on trajectory windows.  Witnesses are solved in setup."""

    name = "trajectories"
    seed_used = True

    def setup(self, seed: int, scale: int):
        paper = [
            (f"paper{tau[0]:g},{tau[1]:g}", inputs.paper_system(tau), PAPER_HISTORIES)
            for tau in inputs.PAPER_TRAJ_TAUS
        ]
        rand = [
            (f"r{i}", raw, RANDOM_HISTORIES)
            for i, raw in enumerate(inputs.stable_systems(seed, RANDOM_SYSTEMS))
        ]
        systems = paper + rand
        seeds = iter(inputs.history_seeds(seed, scale * sum(k for _, _, k in systems)))
        items = []
        for sid, raw, k in systems:
            sys = _program_system(raw)
            rep = lmi_core.solve_feasibility(criteria_lmi.build_th2_lmi(sys))
            params = None
            Qs = [np.eye(sys.n)] * sys.N
            if rep.feasible:
                Qs = [rep.witness[f"Q{i + 1}"] for i in range(sys.N)]
                params = criteria_lmi.th2_functional_params(sys, Qs)
            for _ in range(scale * k):
                hseed = next(seeds)
                items.append((f"{sid}/h{hseed}", sys, hseed, params, Qs))
        return items

    def run(self, inp, runner: Runner) -> dict:
        steps = 0
        for rid, sys, hseed, params, Qs in inp:
            out, failure = runner.op(rid, one_trajectory, sys, hseed, params, Qs)
            steps += out["steps"]
            runner.check(rid, failure)
            beta = "none" if out["fit"] is None else f"{out['fit'][1]:.6g}"
            runner.notes.append(f"traj {rid} beta = {beta}")
        return {"steps": steps}


def one_trajectory(sys, hseed: int, params, Qs):
    """One timed trajectory; returns (summary, failure or None)."""
    hist = simulator.make_compatible(sys, simulator.HistorySpec.random_smooth(hseed))
    traj = simulator.simulate(sys, hist, SIM_H, SIM_T)
    steps = traj.samples.shape[0] - traj.hist_len - 1
    out = {"steps": steps, "fit": None}
    if not np.all(np.isfinite(traj.samples)):
        return out, "non-finite samples"
    if traj.max_residual > RESIDUAL_BOUND:
        return out, f"residual {traj.max_residual:.2e} > {RESIDUAL_BOUND:g}"
    out["fit"] = simulator.estimate_decay(traj)

    failure = None
    tau_max = max(traj.tau_snapped)
    if params is not None:
        ts = np.round(np.arange(0.0, traj.T - tau_max, FUNC_DT), 10)
        V = np.array([simulator.eval_functional(sys, traj, "th2", params, t) for t in ts])
        # acceptance criterion 8's tolerance for a nonincreasing functional
        eps_v = 50.0 * traj.h**2 * V[0]
        rise = float(np.max(np.diff(V)))
        if not np.all(np.isfinite(V)) or rise > eps_v:
            failure = f"functional rises by {rise:.3e} > {eps_v:.3e}"

    m = [int(round(t / traj.h)) for t in traj.tau_snapped]
    Qbar = np.linalg.inv(sum(Qs))
    last = traj.samples.shape[0] - 1
    for j in range(JENSEN_WINDOWS):
        k = traj.hist_len + max(m) + (last - traj.hist_len - max(m)) * j // (JENSEN_WINDOWS - 1)
        omegas = [jensen.SampledFunction(mi * traj.h, traj.samples[k - mi : k + 1]) for mi in m]
        gaps = (
            (jensen.gap_continuous(omegas[0], Qs[0]), jensen.gap_continuous_budget(omegas[0], Qs[0])),
            (jensen.gap_multiple(omegas, Qs), jensen.gap_multiple_budget(omegas, Qs)),
            (jensen.gap_shared_weight(omegas, Qbar), jensen.gap_shared_weight_budget(omegas, Qbar)),
        )
        for g, budget in gaps:
            if not math.isfinite(g) or g < -budget:
                failure = failure or f"Jensen gap {g:.3e} below its budget {budget:.3e}"
    return out, failure


WORKLOADS = {w.name: w for w in (MarginTable(), CorpusCheck(), Trajectories())}
