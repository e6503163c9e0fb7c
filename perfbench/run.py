#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the sipcuts solve paths.

One workload per solve path (see `workloads.py` and BENCHMARK.json):
sslp-lbc (`solve_lbc`), sslp-bbc (`solve_bbc`) and snip-root
(`run_root_loop`, exact variant). The loop is closed: one process, one
solve at a time, `workers=1`, on whichever kernel `sipcuts._simplex`
selected at import.

    python3 perfbench/run.py --workload sslp-lbc --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --report [--smoke] [--out BENCH_<date>.json]
    python3 perfbench/run.py --compare OLD.json NEW.json

A workload run repeats the timed call until `--seconds` would be
exceeded, at least once, and checks every result against the pinned
references; the last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
the end-to-end ones: the median seconds of the call (`solve_s`), the
median over SETUP_REPEATS fresh processes of the seconds from process
start to ready-to-solve (`setup_s`: imports, instance generation, a
warm-up solve of the toy instance), the share of the root gap closed,
the share of calls that matched their references and the peak resident
memory. Both times are wall seconds rescaled to a reference CPU speed
by `speed.SpeedProbe`, which tracks how fast the shared CPU runs while
they are measured; the process and everything it starts stay on one
CPU. The wall seconds are printed on the `samples` line. With `--trace 1`
each repetition is an
untraced call followed by a traced one, the two must agree exactly,
and the metrics are the per-layer ones (see `spans.py`), the tracing
overhead and the time to 95% of the root gap. The instances
are pinned, so `--seed` does not change them; it is echoed in the
`env` line. `--report` runs every workload both ways, prints the
tables and writes them with the environment stamp to a BENCH file;
`--compare` sets two BENCH files side by side and refuses files whose
kernel modes differ.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed

# The single-threaded baseline: BLAS threads would compete with the solve
# for the same cores and change the floating-point summation order.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: fresh processes timed for `setup_s`; the median is reported
SETUP_REPEATS = 9


def _git_commit() -> str:
    """Commit of the checkout, read without running git; "unknown" when
    the checkout is not a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy
    from sipcuts import _simplex

    return {
        "kernel_mode": _simplex.KERNEL_MODE,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
    }


def set_up(wl, smoke: bool):
    """Build the instance and warm the workload's code path on the
    package's one-variable toy instance."""
    import workloads
    from sipcuts.model import toy_instance

    case = wl.smoke if smoke else wl.full
    inst = case.make()
    workloads.run(wl, toy_instance())
    return case, inst


def time_setups(args) -> list[tuple[float, float]]:
    """(start, end) in `time.monotonic()` seconds from process start to
    ready-to-solve, per fresh process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--setup-probe"]
    if args.smoke:
        cmd.append("--smoke")
    spans = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            spans.append((t0, time.monotonic()))
            proc.stdout.read()
            proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed with exit code {proc.returncode}")
    return spans


def attempt(wl, inst, tracer=None):
    """(outcome or None when the call raised, start, end), the times in
    `time.monotonic()` seconds."""
    import workloads

    gc.collect()
    t0 = time.monotonic()
    try:
        if tracer is None:
            out = workloads.run(wl, inst)
        else:
            with tracer.installed():
                out = workloads.run(wl, inst)
    except Exception:  # a failed solve is counted, the run goes on
        traceback.print_exc()
        out = None
    return out, t0, time.monotonic()


def measure(args) -> dict:
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    env = environment(args)
    env["pinned_cpu"] = speed.pin_to_one_cpu()
    with contextlib.ExitStack() as stack:
        probe = None if args.trace else stack.enter_context(speed.SpeedProbe())
        setups = [] if args.trace else time_setups(args)
        case, inst = set_up(wl, args.smoke)
        print("env " + json.dumps(env), flush=True)

        plain, traced, layers = [], [], []
        failed = 0
        start = time.monotonic()
        while True:
            t_rep = time.monotonic()
            plain.append(attempt(wl, inst))
            out = plain[-1][0]
            failed += out is None or bool(workloads.problems(out, case.ref))
            if args.trace:
                tracer = spans.Tracer()
                traced.append(attempt(wl, inst, tracer))
                layers.append(tracer.metrics())
                tout = traced[-1][0]
                if tout is None or out is None or not tout.same_result(out):
                    failed += 1
            now = time.monotonic()
            if now - start + (now - t_rep) > args.seconds:
                break
    attempted = len(plain) + len(traced)
    samples = {
        "setup_wall_s": [b - a for a, b in setups],
        "solve_wall_s": [b - a for _, a, b in plain],
    }
    samples["t95_s"] = [workloads.t95_s(o, case.ref) for o, _, _ in plain if o is not None]
    if traced:
        samples["trace.solve_s"] = [b - a for _, a, b in traced]
    if probe is not None:
        samples["probe_task_s"] = [probe.task_seconds([(a, b)]) for _, a, b in plain]
        samples["setup_probe_task_s"] = probe.task_seconds(setups)
    print("samples " + json.dumps(samples), flush=True)

    solve_s = statistics.median(samples["solve_wall_s"])
    good = [o for o, _, _ in plain if o is not None and not workloads.problems(o, case.ref)]
    # a run with no correct solve reports its solve time as t95
    median_t95 = statistics.median(workloads.t95_s(o, case.ref) for o in good) if good else solve_s
    if args.trace:
        units = spans.layer_metric_units()
        counts = [{k: v for k, v in m.items() if units[k] != "s"} for m in layers]
        failed += sum(c != counts[0] for c in counts[1:])  # same call, same work
        metrics = {
            name: (statistics.median(m[name] for m in layers), unit) for name, unit in units.items()
        }
        traced_s = statistics.median(samples["trace.solve_s"])
        metrics["trace.solve_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - solve_s, "s")
        # t95 is a sub-second interval on two of the workloads, too short to
        # hold an end-to-end bound on a shared machine; it is reported here,
        # from the untraced calls, and checked for correctness in every run
        metrics["driver.root.t95_s"] = (median_t95, "s")
    else:
        setup_wall_s = statistics.median(samples["setup_wall_s"])
        metrics = {
            "solve_s": (
                statistics.median(probe.normalized([(a, b)], b - a) for _, a, b in plain),
                "s",
            ),
            "setup_s": (probe.normalized(setups, setup_wall_s), "s"),
            "root_gap_closed": (
                statistics.median(workloads.root_gap_closed(o, case.ref) for o in good)
                if good
                else 0.0,
                "ratio",
            ),
            "ok_frac": (1.0 - failed / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")


# ------------------------------------------------------------------ report


def _run_child(args, workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(trace),
    ]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    env = next(json.loads(l[len("env ") :]) for l in lines if l.startswith("env "))
    return env, json.loads(lines[-1])


def report(args) -> int:
    import workloads

    out = {"seed": args.seed, "seconds": args.seconds, "smoke": args.smoke, "workloads": {}}
    envs = []
    ok = True
    for name in workloads.WORKLOADS:
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            env, res = _run_child(args, name, trace)
            envs.append(env)
            entry[key] = res["metrics"]
            entry[f"{key}_check"] = {k: res[k] for k in ("correct", "attempted", "failed")}
            ok = ok and res["correct"]
        e2e = entry["end_to_end"]
        print_metrics(f"{name}  (correct={entry['end_to_end_check']['correct']})", e2e)
        print_metrics(f"{name}  per layer, traced", entry["per_layer"])
        out["workloads"][name] = entry
    modes = {e["kernel_mode"] for e in envs}
    if len(modes) != 1:
        print(f"runs used different kernel modes {sorted(modes)}; not writing", file=sys.stderr)
        return 2
    stamp = ("kernel_mode", "blas_threads", "python", "numpy", "nproc", "commit")
    out["env"] = {k: envs[0][k] for k in stamp}
    path = args.out or f"BENCH_{datetime.date.today().isoformat()}.json"
    Path(path).write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0 if ok else 1


def compare(old_path: str, new_path: str) -> int:
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    if old["env"]["kernel_mode"] != new["env"]["kernel_mode"]:
        print(
            f"refusing to compare kernel mode {old['env']['kernel_mode']!r} "
            f"with {new['env']['kernel_mode']!r}",
            file=sys.stderr,
        )
        return 2
    bounds = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.is_file():
        bounds = {m["name"]: m["bound"] for m in json.loads(spec.read_text())["end_to_end"]}
    for name, entry in new["workloads"].items():
        print(name)
        for metric, m in entry["end_to_end"].items():
            base = old["workloads"].get(name, {}).get("end_to_end", {}).get(metric)
            if base is None:
                continue
            change = (m["value"] - base["value"]) / abs(base["value"]) if base["value"] else 0.0
            print(
                f"  {metric:<18} {base['value']:>12.6g} -> {m['value']:>12.6g} {m['unit']:<6}"
                f" {change:+8.1%}  bound {bounds.get(metric, float('nan')):g}"
            )
    return 0


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small instances, a few seconds")
    parser.add_argument("--report", action="store_true", help="run every workload both ways")
    parser.add_argument("--out", help="BENCH file written by --report")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (SRC / "sipcuts" / "__init__.py").is_file():
        print(f"no sipcuts sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sipcuts

    if not Path(sipcuts.__file__).resolve().is_relative_to(SRC):
        print(f"sipcuts was imported from {sipcuts.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.report:
        return report(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.setup_probe:
        set_up(workloads.WORKLOADS[args.workload], args.smoke)
        print("ready", flush=True)
        return 0
    result = measure(args)
    print_metrics(args.workload, result["metrics"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
