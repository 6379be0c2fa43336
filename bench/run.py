"""Benchmark of the ids-stability toolkit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src and
nothing is built.  Workloads (see workloads.py):

  margin-table  table1 on the paper system; one operation = one margin
                search (a table cell)
  corpus-check  cold check verdicts on a seeded corpus; one operation = one
                criterion_feasible call
  trajectories  simulated trajectories with decay fit, certificate functional
                and Jensen gaps; one operation = one trajectory

``--seconds`` sizes a run: each workload does ``max(1, S // 30)`` times its
base size (16 cells; >= 200 verdicts; 100 trajectories), which takes 25-45 s
on a shared 2-core Intel Xeon virtual machine, depending on the host's
load.  The work depends only on the seed and the size, never on elapsed
time, so exact counts repeat.

Every time is calibrated by clock.py against a reference kernel run at
each operation boundary, because the shared host's CPU speed drifts by up
to 2x; the raw wall time and the host speed are printed beside the
metrics.  ``setup_s`` is the program import plus the median of three
set-ups (input generation and, for trajectories, the witness solves).

``--trace 0`` prints the end-to-end metrics, measured without tracing.
``--trace 1`` runs the workload once untraced and once traced, prints the
per-layer metrics from the trace (plus the tracing overhead) and writes the
spans to .bench_out/.  The last stdout line is the JSON result.
"""

import os
import sys

import clock

CLOCK = clock.Clock()
T_START = CLOCK.mark()
# one BLAS/OpenMP thread, pinned before numpy is first imported
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

BASE_SECONDS = 30
SETUP_REPEATS = 3
OUT_DIR = ".bench_out"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program(root: str) -> None:
    """Import ids_stability from <root>/src; refuse any other copy."""
    src = os.path.join(root, "src")
    pkg = os.path.join(src, "ids_stability", "__init__.py")
    if not os.path.isfile(pkg):
        raise SystemExit(f"error: {pkg} not found; run from the repository root")
    sys.path.insert(0, src)
    import ids_stability

    if os.path.realpath(ids_stability.__file__) != os.path.realpath(pkg):
        raise SystemExit(f"error: imported {ids_stability.__file__}, expected {pkg}")


def git_revision(root: str) -> str:
    """HEAD of a git checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git": git_revision(root),
    }


def _tail(parts: int):
    """The last cut point of statistics.quantiles with this many parts."""
    return lambda xs: statistics.quantiles(xs, n=parts, method="inclusive")[-1]


# per workload: the tail of operation latency, the highest percentile with at
# least ten samples beyond it (p95 of >= 200 verdicts, p90 of 100
# trajectories), and the slowest of the 16 cells
TAIL = {"margin-table": max, "corpus-check": _tail(20), "trajectories": _tail(10)}


def end_to_end(workload: str, runner, wall_s: float, setup_s: float, extra: dict):
    """Generic metrics (the JSON result) and the same numbers under the
    names users of each workload know them by (printed lines)."""
    lat = [CLOCK.seconds(*iv) for iv in runner.intervals]
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "ops_per_s": (len(lat) / wall_s, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": (1e3 * TAIL[workload](lat), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    failed = sum(1 for _, f in runner.checks if f)
    named = {"error_rate": (failed / len(runner.checks), "1")}
    if workload == "margin-table":
        named["cell_p50_s"] = (statistics.median(lat), "s")
        named["cell_max_s"] = (max(lat), "s")
        named["table_max_err"] = (extra["table_max_err"], "1")
    elif workload == "corpus-check":
        named["verdicts_per_s"] = metrics["ops_per_s"]
        named["verdict_p50_ms"] = metrics["op_p50_ms"]
        named["verdict_p95_ms"] = metrics["op_tail_ms"]
    else:
        named["sim_steps_per_s"] = (extra["steps"] / wall_s, "1/s")
        named["traj_p50_ms"] = metrics["op_p50_ms"]
        named["traj_p90_ms"] = metrics["op_tail_ms"]
    return metrics, named


def run_pass(wl, inp, tracer=None):
    """One pass over the inputs; returns (runner, calibrated and raw wall seconds, extra)."""
    from workloads import Runner

    runner = Runner(CLOCK, tracer)
    t0 = CLOCK.mark()
    extra = wl.run(inp, runner)
    t1 = CLOCK.mark()
    return runner, CLOCK.seconds(t0, t1), t1 - t0 - CLOCK.kernel_time(t0, t1), extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds < 1:
        raise SystemExit("error: --seconds must be positive")
    root = os.getcwd()
    import_program(root)
    import layers
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; valid: {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    t_imported = CLOCK.mark()
    env = environment(root)
    scale = max(1, args.seconds // BASE_SECONDS)

    setup_times = []
    t0 = CLOCK.mark()
    for _ in range(SETUP_REPEATS):
        inp = wl.setup(args.seed, scale)
        t1 = CLOCK.mark()
        setup_times.append(CLOCK.seconds(t0, t1))
        t0 = t1
    setup_s = CLOCK.seconds(T_START, t_imported) + statistics.median(setup_times)

    print("env " + json.dumps(env, sort_keys=True))
    print(
        f"workload {wl.name} seed {args.seed}"
        + ("" if wl.seed_used else " (unused: fixed inputs)")
        + f" scale {scale} trace {args.trace}"
    )
    runner, wall, raw_wall, extra = run_pass(wl, inp)
    checks = runner.checks
    for line in runner.notes:
        print(line)
    correct = True
    if args.trace:
        tracer = layers.install()
        try:
            traced, traced_wall, _, _ = run_pass(wl, inp, tracer)
        finally:
            tracer.restore()
        metrics, missing = layers.metrics(tracer, CLOCK, wl.name, traced_wall - wall)
        for line in layers.request_counts(tracer, wl.name):
            print(line)
        if missing:
            correct = False
            print("trace incomplete: zero counters " + ", ".join(missing))
        checks = checks + traced.checks
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{wl.name}-seed{args.seed}.jsonl")
        tracer.dump(path)
        print(f"spans: {len(tracer.spans)} written to {path}")
    else:
        metrics, named = end_to_end(wl.name, runner, wall, setup_s, extra)
        named["raw_wall_s"] = (raw_wall, "s")
        named["host_speed"] = (CLOCK.speed(), "1")
        for name, (value, unit) in named.items():
            print(f"metric {name} = {value:.6g} {unit}")

    failed = [(rid, f) for rid, f in checks if f]
    for rid, f in failed:
        print(f"FAILED {rid}: {f}")
    correct = correct and not failed
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
