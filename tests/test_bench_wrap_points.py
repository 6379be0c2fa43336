"""The benchmark's tracer patches named bindings of the program
(bench/layers.py).  A renamed or deleted wrap target would crash every
traced benchmark run; these tests fail first."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from ids_stability import (
    DiscreteIds,
    criteria_lmi,
    criteria_spectral,
    jensen,
    lmi_core,
    margin,
    model,
    simulator,
    validate_system,
)

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")
MODULES = (criteria_lmi, criteria_spectral, jensen, lmi_core, margin, model, simulator)


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import layers

    return layers


def _bindings():
    snap = {(m.__name__, k): v for m in MODULES for k, v in vars(m).items()}
    snap.update({("LMI_CRITERIA", k): v for k, v in criteria_lmi.LMI_CRITERIA.items()})
    return snap


def test_install_patches_and_restore_puts_every_binding_back(layers):
    before = _bindings()
    tr = layers.install()
    try:
        during = _bindings()
    finally:
        tr.restore()
    patched = {key for key, v in before.items() if during[key] is not v}
    assert {("ids_stability.lmi_core", "np"), ("ids_stability.lmi_core", "linprog")} <= patched
    assert ("ids_stability.criteria_lmi", "optimize_weights") in patched
    assert {("LMI_CRITERIA", k) for k in criteria_lmi.LMI_CRITERIA} <= patched
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is v for key, v in before.items())
    assert lmi_core.np is np and lmi_core.linprog is before[("ids_stability.lmi_core", "linprog")]


def test_each_builder_call_is_one_traced_build(layers):
    # builders must not call each other by their wrapped names, or one
    # build would be counted twice; each stacked build makes one weight
    # search, also the one whose search stops early (no weights pass)
    systems = [
        ("th2-lmi", validate_system(model.benchmark_system(0.3, 0.05))),
        ("th2-lmi", validate_system(model.benchmark_system(0.3, 0.2))),
        ("laa", validate_system(DiscreteIds(A=(np.eye(2) / 4, np.eye(2) / 8), tau=(0.2, 0.5)))),
    ]
    tr = layers.install()
    try:
        for name, sys in systems:
            criteria_lmi.LMI_CRITERIA[name](sys)
    finally:
        tr.restore()
    names = [s.name for s in tr.spans]
    assert names.count(layers.BUILD) == names.count(layers.WEIGHTS) == len(systems)


def test_one_trajectory_is_one_simulate_span_and_one_span_per_functional_time(layers):
    # a helper that called the wrapped names would count its steps,
    # functional evaluations or history shifts twice
    import workloads

    sys = validate_system(model.benchmark_system(0.3, 0.05))
    rep = lmi_core.solve_feasibility(criteria_lmi.build_th2_lmi(sys))
    Qs = [rep.witness[f"Q{i + 1}"] for i in range(sys.N)]
    params = criteria_lmi.th2_functional_params(sys, Qs)
    tr = layers.install()
    try:
        _, failure = workloads.one_trajectory(sys, 1, params, Qs)
    finally:
        tr.restore()
    assert failure is None
    assert [s.name for s in tr.spans].count(layers.COMPAT) == 1
    sims = [s for s in tr.spans if s.name == layers.SIMULATE]
    assert len(sims) == 1
    assert sims[0].attrs["steps"] == math.ceil(workloads.SIM_T / workloads.SIM_H)
    # functional times 0, 0.05, ... below T - max(tau) = 14.7
    times = np.round(np.arange(0.0, workloads.SIM_T - 0.3, workloads.FUNC_DT), 10)
    assert [s.name for s in tr.spans].count(layers.FUNCTIONAL) == times.size


def test_a_margin_table_probe_still_reaches_the_proof_lp(layers):
    # MUST_FIRE requires lmi_core.lp_calls on margin-table until the
    # benchmark reports a counter that no longer fires as absent.  amc and
    # single are decided by single's closed forms, with no barrier run, and
    # most not-found th2-lmi probes are proven by the Newton step's dual
    # point; the row-0.2 th2-lmi probe at this bisection midpoint is not
    # (f is 1.4e-6 and its bound 1.7e-7), so it still runs the cut LP
    sys = validate_system(model.benchmark_system(0.2, 0.2418481658935547))
    tr = layers.install()
    try:
        assert margin.criterion_feasible(sys, "th2-lmi") == (False, None)
    finally:
        tr.restore()
    assert [s.name for s in tr.spans].count(layers.LP) == 1


@pytest.mark.parametrize("workload", ["margin-table", "corpus-check", "trajectories"])
def test_traced_benchmark_run_is_correct_and_complete(workload):
    # one short traced run: every per-output check passes and no MUST_FIRE
    # counter reads zero (the spans go to the ignored .bench_out/)
    root = os.path.dirname(BENCH)
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"]
    run = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert json.loads(lines[-1])["correct"] is True
    assert not any(line.startswith("trace incomplete") for line in lines)
