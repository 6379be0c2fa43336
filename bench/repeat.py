"""Run the benchmark once per seed, one run at a time, and summarise.

    python3 bench/repeat.py --workload NAME --seeds 1-10 [--seconds 30]
                            [--trace 0|1] [--out FILE.json]

For every metric it prints the median, the quartiles (statistics.quantiles,
n=4) and the spread: the distance between the quartiles as a share of the
median.  Runs that share a seed (``--seeds 3,3``) must give identical
counts (unit "count"); a mismatch is printed and makes the exit code 1.
Each run's result and printed lines, and the bounds from BENCHMARK.json,
go into the JSON summary written with --out.  Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seed_list(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs = []
    for seed in seed_list(args.seeds):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stdout[-2000:] + proc.stderr[-2000:], file=sys.stderr)
            raise SystemExit(f"seed {seed}: exit code {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        env = next((json.loads(x[4:]) for x in lines if x.startswith("env ")), None)
        runs.append({
            "seed": seed, "elapsed_s": elapsed, "env": env, "result": result,
            "output": [x for x in lines[:-1] if not x.startswith("env ")],
        })
        print(
            f"seed {seed}: {elapsed:.1f}s correct={result['correct']} "
            f"failed={result['failed']}/{result['attempted']}",
            flush=True,
        )

    names = list(runs[0]["result"]["metrics"])
    summary = {}
    for name in names:
        s = summarise([r["result"]["metrics"][name]["value"] for r in runs])
        s["unit"] = runs[0]["result"]["metrics"][name]["unit"]
        s["bound"] = bounds.get(name)
        summary[name] = s
        mark = ""
        if s["bound"] is not None and name != "setup_s":
            mark = "  ok" if s["spread"] < s["bound"] / 3 else "  WIDE"
        print(
            f"{name:42s} median {s['median']:.6g} {s['unit']}  "
            f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}"
            + (f"  bound {s['bound']}" if s["bound"] is not None else "")
            + mark
        )
    # exact counts must repeat between runs of the same seed
    mismatched = []
    for seed in sorted({r["seed"] for r in runs}):
        same = [r["result"]["metrics"] for r in runs if r["seed"] == seed]
        for name in names:
            if same[0][name]["unit"] == "count" and len({m[name]["value"] for m in same}) > 1:
                mismatched.append(f"seed {seed} {name}: {[m[name]['value'] for m in same]}")
    for line in mismatched:
        print("COUNT MISMATCH " + line)
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(
                {"workload": args.workload, "seconds": seconds, "trace": args.trace,
                 "runs": runs, "summary": summary},
                fh, indent=1,
            )
            fh.write("\n")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
