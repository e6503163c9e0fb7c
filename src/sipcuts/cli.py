"""Command-line interface.

Subcommands
  generate   write instance files from the built-in generators
  root       run the root cutting-plane loop, write the bound trace
  solve      run branch-and-cut (classical or multiplier-cut root)
  profile    turn bound traces into gap-closure profile tables

All stdout is machine-parseable ``key=value`` lines. Exit codes:
0 success, 2 bad parameters or unreadable file, 3 solver failure
(partial trace still written), 4 stopped on a time or node limit
(the gap report is still valid).

Bound-trace CSVs carry wall-clock times, so re-runs match in every
column except ``time_s``.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import time

from .driver import (
    BoundTrace,
    VariantConfig,
    VARIANTS,
    gap_closed_profile,
    profile_to_csv,
    run_root_loop,
    solve_root_then_bc,
)
from .instances import FormatError, Rng, SnipParams, SslpParams, gen_snip, gen_sslp, read_instance, write_instance
from .model import InstanceError, build_extensive_form
from .optbase import KernelError, OPTIMAL, solve_lp


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--delta", type=float, default=0.5, help="separation slack in [0,1)")
    p.add_argument("--K", dest="k", type=int, default=20, help="span size")
    p.add_argument("--alpha", type=float, default=1.0, help="epigraph weight in the norm")
    p.add_argument("--time-limit", type=float, default=math.inf, help="wall-clock seconds")
    p.add_argument(
        "--workers", type=int, default=1, help="at least 1; scenarios always run in order"
    )
    p.add_argument("--out", default=".", help="output directory")


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="sipcuts", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write instance files")
    g.add_argument("family", choices=("sslp", "snip"))
    g.add_argument("--m", type=int, default=3, help="sslp: candidate sites")
    g.add_argument("--n", type=int, default=5, help="sslp: clients")
    g.add_argument("--nodes", type=int, default=12, help="snip: network nodes")
    g.add_argument("--arcs", type=int, default=30, help="snip: network arcs")
    g.add_argument("--interdictable", type=int, default=8, help="snip: sensor-eligible arcs")
    g.add_argument("--budgets", default="10", help="snip: comma-separated budgets, one file each")
    g.add_argument("--scenarios", type=int, default=3)
    g.add_argument("--count", type=int, default=1, help="sslp: number of instances")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=".")
    g.set_defaults(func=cmd_generate)

    r = sub.add_parser("root", help="run the root cutting-plane loop")
    r.add_argument("instance")
    r.add_argument("--variant", choices=VARIANTS, default="span_mip")
    r.add_argument("--no-early-stop", action="store_true")
    _add_run_flags(r)
    r.set_defaults(func=cmd_root)

    s = sub.add_parser("solve", help="branch-and-cut to optimality")
    s.add_argument("instance")
    s.add_argument("--mode", choices=("lbc", "bbc"), default="lbc")
    s.add_argument("--node-limit", type=int, default=100_000)
    _add_run_flags(s)
    s.set_defaults(func=cmd_solve)

    p = sub.add_parser("profile", help="gap-closure profiles from traces")
    p.add_argument("manifest", help="CSV with columns method,instance,path,baseline")
    p.add_argument("--gamma", default="0.75,0.95", help="comma-separated levels in (0,1]")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_profile)
    return top


def _emit(**kv) -> None:
    for key, value in kv.items():
        print(f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}")


def cmd_generate(args) -> int:
    if args.count < 1:
        raise ValueError("count must be at least 1")
    os.makedirs(args.out, exist_ok=True)
    stream = Rng(args.seed)
    written = []
    if args.family == "sslp":
        for k in range(1, args.count + 1):
            sub_seed = stream.next_u64()
            inst = gen_sslp(SslpParams(args.m, args.n, args.scenarios, seed=sub_seed, k=k))
            path = os.path.join(args.out, f"{inst.name}.sip")
            write_instance(inst, path)
            written.append(path)
    else:
        budgets = [float(tok) for tok in args.budgets.split(",") if tok]
        if not budgets:
            raise ValueError("need at least one budget")
        for budget in budgets:
            sub_seed = stream.next_u64()
            inst = gen_snip(
                SnipParams(
                    nodes=args.nodes,
                    arcs=args.arcs,
                    interdictable_count=args.interdictable,
                    budget=budget,
                    n_scenarios=args.scenarios,
                    seed=sub_seed,
                )
            )
            path = os.path.join(args.out, f"{inst.name}.sip")
            write_instance(inst, path)
            written.append(path)
    for path in written:
        _emit(file=path)
    _emit(count=len(written))
    return 0


def _baseline_lp(inst) -> float:
    out = solve_lp(build_extensive_form(inst).program)
    return out.objective if out.status == OPTIMAL else math.nan


def cmd_root(args) -> int:
    inst = read_instance(args.instance)
    os.makedirs(args.out, exist_ok=True)
    cfg = VariantConfig(
        variant=args.variant,
        delta=args.delta,
        k=args.k,
        alpha=args.alpha,
        time_limit=args.time_limit,
        early_stop=not args.no_early_stop,
        workers=args.workers,
    )
    trace = BoundTrace()
    trace_path = os.path.join(args.out, f"{inst.name}.{args.variant}.trace.csv")
    t0 = time.monotonic()
    try:
        master, trace = run_root_loop(inst, cfg, trace=trace)
        wall = time.monotonic() - t0
        trace.to_csv(trace_path)  # before the baseline LP, which may fail too
        trace.baseline = _baseline_lp(inst)
    except (KernelError, InstanceError) as exc:
        trace.to_csv(trace_path)
        print(f"error={exc}", file=sys.stderr)
        _emit(trace=trace_path, status="solver_failure")
        return 3
    counts = master.counts()
    _emit(
        instance=inst.name,
        variant=args.variant,
        final_bound=trace.final_bound,
        baseline_lp=trace.baseline,
        gap_closed=(trace.final_bound - trace.baseline)
        if math.isfinite(trace.baseline)
        else math.nan,
        wall_time_s=wall,
        stop=trace.stop_reason,
        n_benders=counts.get("benders", 0) + counts.get("strengthened", 0),
        n_lagrangian=counts.get("lagrangian", 0),
        trace=trace_path,
    )
    return 4 if trace.stop_reason == "time_limit" else 0


def cmd_solve(args) -> int:
    if args.node_limit < 1:
        raise ValueError("node limit must be at least 1")
    inst = read_instance(args.instance)
    os.makedirs(args.out, exist_ok=True)
    cfg = VariantConfig(
        variant="span_mip" if args.mode == "lbc" else "benders_only",
        delta=args.delta,
        k=args.k,
        alpha=args.alpha,
        time_limit=args.time_limit,
        workers=args.workers,
    )
    trace = BoundTrace()
    trace_path = os.path.join(args.out, f"{inst.name}.{args.mode}.trace.csv")
    t0 = time.monotonic()
    try:
        res, trace, root_time = solve_root_then_bc(inst, cfg, args.node_limit, trace)
    except (KernelError, InstanceError) as exc:
        trace.to_csv(trace_path)
        print(f"error={exc}", file=sys.stderr)
        _emit(trace=trace_path, status="solver_failure")
        return 3
    bc_time = time.monotonic() - t0 - root_time
    trace.to_csv(trace_path)
    _emit(
        instance=inst.name,
        mode=args.mode,
        status=res.status,
        objective=res.objective,
        bound=res.bound,
        root_bound=trace.final_bound,
        gap=res.gap,
        nodes=res.node_count,
        root_time_s=root_time,
        bc_time_s=bc_time,
        trace=trace_path,
    )
    return 4 if res.status == "limit" else 0


def _read_manifest(path: str):
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        need = {"method", "instance", "path", "baseline"}
        if reader.fieldnames is None or not need.issubset(reader.fieldnames):
            raise ValueError(f"manifest needs columns {sorted(need)}")
        seen = set()
        for i, row in enumerate(reader, start=1):
            empty = sorted(col for col in need if not row[col])
            if empty:
                raise ValueError(f"manifest row {i} has empty fields {empty}")
            method, instance = pair = row["method"], row["instance"]
            if pair in seen:
                raise ValueError(f"manifest row {i} repeats method {method!r} on {instance!r}")
            seen.add(pair)
            rows.append(row)
    if not rows:
        raise ValueError("manifest is empty")
    return rows


def cmd_profile(args) -> int:
    gammas = [float(tok) for tok in args.gamma.split(",") if tok]
    if not gammas:
        raise ValueError("need at least one gamma")
    rows = _read_manifest(args.manifest)
    traces: dict[str, dict[str, BoundTrace]] = {}
    for row in rows:
        traces.setdefault(row["method"], {})[row["instance"]] = BoundTrace.from_csv(
            row["path"], float(row["baseline"])
        )
    sets = {m: frozenset(per) for m, per in traces.items()}
    reference = next(iter(sets.values()))
    for method, got in sets.items():
        if got != reference:
            missing = sorted(reference - got)
            extra = sorted(got - reference)
            raise ValueError(
                f"method {method!r} covers a different instance set "
                f"(missing {missing}, extra {extra})"
            )
    os.makedirs(args.out, exist_ok=True)
    for gamma in gammas:
        tau, rho = gap_closed_profile(traces, gamma)
        path = os.path.join(args.out, f"profile_gamma{gamma:g}.csv")
        profile_to_csv(tau, rho, path)
        _emit(profile=path)
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except KernelError as exc:
        print(f"error={exc}", file=sys.stderr)
        return 3
    except (FormatError, InstanceError, ValueError, OSError) as exc:
        print(f"error={exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
