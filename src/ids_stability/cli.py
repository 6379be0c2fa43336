"""Command-line front end.

Subcommands: check, margin, table1, simulate, selftest.  Exit codes are a
stable contract: 0 = pass/feasible (or the computation succeeded for
non-verdict commands), 1 = fail/not_found, 2 = usage or file errors, 3 =
numerical failure (singular simulation step, ill-conditioned inverse,
eigenvalue nonconvergence, overflow to non-finite values).  The environment
variable IDS_STAB_SEED overrides the default seed of random-smooth
histories and of selftest; a value that is not an integer exits with code
2 where the default is used.  check, margin and table1 take no --seed (it
exits with code 2): the LMI solver makes one deterministic run, and
spectral-weighted's optimized weights need no seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _sys

import numpy as np

from . import criteria_spectral, margin, simulator, suites
from .criteria_lmi import IllConditionedError
from .lmi_core import FeasReport, SolverConfig
from .model import IdsSystem, ParseError, ValidationError, benchmark_system, load_system

DEFAULT_SEED = 7


def _default_seed() -> str:
    """IDS_STAB_SEED, or DEFAULT_SEED when it is unset, as text: argparse
    converts a text default only when the option is absent."""
    return os.environ.get("IDS_STAB_SEED", str(DEFAULT_SEED))


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _read_system(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return load_system(fh.read())


def _cfg_from(args) -> SolverConfig:
    base = SolverConfig()
    return SolverConfig(
        max_iters=args.max_iters if args.max_iters is not None else base.max_iters,
        eps_feas=args.eps_feas if args.eps_feas is not None else base.eps_feas,
    )


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--eps-feas", type=float, default=None)


def cmd_check(args) -> int:
    system = _read_system(args.system)
    alpha = None if args.alpha is None else tuple(float(a) for a in args.alpha.split(","))
    result = margin.evaluate_criterion(system, args.method, _cfg_from(args), alpha=alpha)
    witness = None
    if isinstance(result, FeasReport):
        print(f"lambda_star = {_fmt(result.lambda_star)}")
        if result.lower_bound is not None:
            print(f"lower_bound = {_fmt(result.lower_bound)}")
        print(f"verdict: {result.status}")
        ok = result.feasible
        witness = result.witness if ok else None
    else:
        if getattr(result, "alpha", None) is not None and alpha is None:
            print("alpha = " + ", ".join(_fmt(a) for a in result.alpha))
        print(f"rho = {_fmt(result.rho)}")
        if isinstance(result, criteria_spectral.SingleDelayChecks):
            print(f"norm = {_fmt(result.norm)}")
            print(f"norm test: {'pass' if result.norm_pass else 'fail'}")
        else:
            print(f"threshold = {_fmt(result.threshold)}")
            if result.boundary:
                print("boundary: rho is within 1e-12 of the threshold")
        ok = result.passed
        print(f"verdict: {'pass' if ok else 'fail'}")
    if args.witness_out:
        payload = (
            {k: np.asarray(v).tolist() for k, v in witness.items()} if witness else {}
        )
        with open(args.witness_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return 0 if ok else 1


def cmd_margin(args) -> int:
    system = _read_system(args.system)
    cfg = _cfg_from(args)
    m = margin.bisect_margin(
        system, args.vary, args.method, lo=args.lo, hi=args.hi, tol=args.tol, cfg=cfg
    )
    print("inf" if m is None else _fmt(m))
    return 0


def cmd_table1(args) -> int:
    system = _read_system(args.system) if args.system else benchmark_system()
    if not isinstance(system, IdsSystem):
        raise ValidationError("table1 requires an integral system")
    cfg = _cfg_from(args)
    result = margin.table1(system, tol=args.tol, cfg=cfg)
    csv = result.to_csv()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv)
    else:
        _sys.stdout.write(csv)
    return 0


def _parse_history(spec: str) -> simulator.HistorySpec:
    kind, _, rest = spec.partition(":")
    if kind == "constant":
        vec = [float(v) for v in rest.split(",") if v]
        if not vec:
            raise ValidationError("constant history needs values, e.g. constant:1,0")
        return simulator.HistorySpec.constant(vec)
    if kind == "random-smooth":
        return simulator.HistorySpec.random_smooth(int(rest or _default_seed()))
    if kind == "sampled":
        with open(rest, "r", encoding="utf-8") as fh:
            return simulator.HistorySpec.sampled(json.load(fh))
    raise ValidationError(
        f"unknown history {spec!r}; use constant:v1,...  random-smooth:SEED  sampled:PATH"
    )


def cmd_simulate(args) -> int:
    system = _read_system(args.system)
    if not isinstance(system, IdsSystem):
        raise ValidationError("simulate requires an integral system")
    history = _parse_history(args.history)
    traj = simulator.simulate(system, history, h=args.h, T=args.T)
    decay = None
    if traj.T >= 5 * max(traj.tau_snapped):
        decay = simulator.estimate_decay(traj)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            simulator.export_csv(traj, fh, decay)
    else:
        simulator.export_csv(traj, _sys.stdout, decay)
    if decay is not None:
        print(f"decay fit: alpha = {_fmt(decay[0])}, beta = {_fmt(decay[1])}", file=_sys.stderr)
    else:
        print("decay fit: none (no decaying envelope)", file=_sys.stderr)
    return 0


def cmd_selftest(args) -> int:
    reports = suites.run_all(seed=args.seed)
    ok = True
    for rep in reports:
        for line in rep.lines():
            print(line)
        ok = ok and rep.passed
    total = sum(len(r.checks) for r in reports)
    print(f"selftest: {'all' if ok else 'NOT all'} {total} checks passed (seed {args.seed})")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ids-stab",
        description="Stability certificates and simulation for integral delay systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate one stability criterion")
    p.add_argument("--system", required=True)
    p.add_argument("--method", required=True, choices=sorted(margin.CRITERIA))
    p.add_argument("--witness-out", default=None)
    p.add_argument("--alpha", default=None, help="weights for spectral-weighted, e.g. 0.9,0.1")
    _add_solver_flags(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("margin", help="bisect the maximal allowable delay")
    p.add_argument("--system", required=True)
    p.add_argument("--vary", type=int, required=True, help="index of the delay to vary")
    p.add_argument("--method", required=True, choices=sorted(margin.CRITERIA))
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--lo", type=float, default=1e-4)
    p.add_argument("--hi", type=float, default=None)
    _add_solver_flags(p)
    p.set_defaults(fn=cmd_margin)

    p = sub.add_parser("table1", help="margin table over the four standard criteria")
    p.add_argument("--system", default=None, help="defaults to the built-in benchmark")
    p.add_argument("--out", default=None)
    p.add_argument("--tol", type=float, default=1e-4)
    _add_solver_flags(p)
    p.set_defaults(fn=cmd_table1)

    p = sub.add_parser("simulate", help="integrate the system and fit its decay")
    p.add_argument("--system", required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--history", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("selftest", help="run the seeded property suites")
    p.add_argument("--seed", type=int, default=_default_seed())
    p.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (
        simulator.SimulationError,
        IllConditionedError,
        np.linalg.LinAlgError,
        criteria_spectral.NonFiniteError,
    ) as e:
        print(f"error: numerical failure: {e}", file=_sys.stderr)
        return 3
    except (ParseError, ValidationError, ValueError, OSError) as e:
        print(f"error: {e}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
