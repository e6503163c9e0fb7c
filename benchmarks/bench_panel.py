#!/usr/bin/env python3
"""Seed panel: the solve paths on neighbouring seeds, with work counts.

The pinned benchmark workloads are one instance each; this panel judges
a change that moves bits on a spread of seeds. Groups:

    lbc    solve_lbc on SSLP(5,10,5), seeds 1-10
    bbc    solve_bbc on SSLP(8,15,10), seeds 1-5
    exact  the exact root loop on SNIP(20,50,12,b5,S10), seeds 1-5,
           whose Lagrangian cuts close a root gap (none on seeds 2
           and 4),
           unlike the pinned snip-root instance

Per instance it records the status, objective, first and final root
bound (their difference is the root gap the loop closed), the root
stop reason, the root cuts per family, the LPs the qbar oracle solved,
every kernel LP and pivot, the branch-and-cut nodes, the CPU seconds
(`time.process_time`) of `--repeat` further uncounted runs, and a kernel
digest: one SHA-256 over every `optbase._solve_dense` output of the
counted run, in call order (status, x, objective, y, ray, iterations,
basis and vstat; not the basis inverse that may ride along). Equal
digests from two checkouts mean their kernels computed the same bits on
that instance. The script runs the checkout's sources with one BLAS
thread.

Usage:
    python3 benchmarks/bench_panel.py [--repeat N] [--smoke] [--out FILE]
    python3 benchmarks/bench_panel.py --compare OLD.json NEW.json

The default output is BENCH_panel_<date>.json in the working directory.
`--compare` pairs two files instance by instance and checks the landing
rule of a change that moves bits: every instance keeps its status, its
objective within 1e-6 and, where both root loops saturated, its root
bound within 1e-6; the summed oracle LPs and the summed median CPU
seconds are no higher; and the new file has the lower median CPU on at
least 60% of the instances whose kernel work changed. It exits 1 when
the rule fails. Its `bits` column and `kernel bits kept` line compare
the digests (`n/a` where a file has none); they are information and
set no exit code.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# before numpy is imported
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from sipcuts import driver, lagrangian, optbase  # noqa: E402
from sipcuts.instances import SnipParams, SslpParams, gen_snip, gen_sslp  # noqa: E402

#: relative tolerance of the compare rule on objectives and root bounds
REL_TOL = 1e-6
#: share of the changed instances the new file must win
WIN_SHARE = 0.6

#: (group, instance label, generator, seeds)
PANEL = (
    ("lbc", "SSLP(5,10,5)", lambda seed: gen_sslp(SslpParams(5, 10, 5, seed=seed)), range(1, 11)),
    ("bbc", "SSLP(8,15,10)", lambda seed: gen_sslp(SslpParams(8, 15, 10, seed=seed)), range(1, 6)),
    (
        "exact",
        "SNIP(20,50,12,b5,S10)",
        lambda seed: gen_snip(SnipParams(20, 50, 12, 5.0, 10, seed=seed)),
        range(1, 6),
    ),
)
SMOKE = (
    ("lbc", "SSLP(3,5,3)", lambda seed: gen_sslp(SslpParams(3, 5, 3, seed=seed)), (7,)),
    ("bbc", "SSLP(3,5,3)", lambda seed: gen_sslp(SslpParams(3, 5, 3, seed=seed)), (7,)),
    (
        "exact",
        "SNIP(12,30,8,b10,S4)",
        lambda seed: gen_snip(SnipParams(12, 30, 8, 10.0, 4, seed=seed)),
        (3,),
    ),
)


def solve(group: str, inst):
    """(status, objective, root trace, B&C nodes) of the group's call."""
    if group == "exact":
        cfg = driver.VariantConfig(variant="exact", delta=0.0, early_stop=False)
        _, trace = driver.run_root_loop(inst, cfg)
        return trace.stop_reason, None, trace, 0
    call = driver.solve_lbc if group == "lbc" else driver.solve_bbc
    res, trace = call(inst)
    return res.status, float(res.objective), trace, res.node_count


@contextmanager
def counting(counts: Counter, digest):
    """Count kernel LPs, their pivots and the LPs the qbar oracle solves
    into `counts` inside the block, and feed every kernel output but the
    carried basis inverse to `digest`."""
    kernel, qbar = optbase._solve_dense, lagrangian._qbar
    in_oracle = False

    def counting_kernel(*args, **kwargs):
        out = kernel(*args, **kwargs)
        counts["kernel_lps"] += 1
        counts["pivots"] += int(out[5])
        counts["oracle_lps"] += in_oracle
        basis = out[6][:2] if out[6] is not None else (None,)
        for v in (*out[:6], *basis):
            a = np.asarray("None" if v is None else v)
            digest.update(f"{a.dtype}{a.shape}".encode())
            digest.update(np.ascontiguousarray(a).tobytes())
        return out

    def flagged_qbar(*args):
        nonlocal in_oracle
        in_oracle = True
        try:
            return qbar(*args)
        finally:
            in_oracle = False

    optbase._solve_dense, lagrangian._qbar = counting_kernel, flagged_qbar
    try:
        yield
    finally:
        optbase._solve_dense, lagrangian._qbar = kernel, qbar


def measure(group: str, label: str, inst, seed: int, repeat: int) -> dict:
    counts, digest = Counter(), hashlib.sha256()
    with counting(counts, digest):
        status, objective, trace, nodes = solve(group, inst)
    seconds = []
    for _ in range(repeat):
        t0 = time.process_time()
        solve(group, inst)
        seconds.append(time.process_time() - t0)
    first, last = trace.records[0], trace.records[-1]
    return {
        "key": f"{group} {label} seed {seed}",
        "status": status,
        "objective": objective,
        "first_bound": first.lower_bound,
        "root_bound": last.lower_bound,
        "root_gap": last.lower_bound - first.lower_bound,
        "root_stop": trace.stop_reason,
        "root_cuts": {
            "benders": last.n_benders,
            "lagrangian": last.n_lagrangian,
            "integer_lshaped": last.n_intl,
        },
        "oracle_lps": counts["oracle_lps"],
        "kernel_lps": counts["kernel_lps"],
        "pivots": counts["pivots"],
        "bc_nodes": nodes,
        "cpu_s": seconds,
        "kernel_digest": digest.hexdigest(),
    }


def run_panel(panel, repeat: int) -> list[dict]:
    solve("lbc", gen_sslp(SslpParams(3, 5, 3, seed=7)))  # first-call costs go here
    rows = []
    for group, label, make, seeds in panel:
        for seed in seeds:
            row = measure(group, label, make(seed), seed, repeat)
            rows.append(row)
            print(
                f"{row['key']:<36} {row['status']:<10} root {row['root_bound']:.9g}"
                f" (gap {row['root_gap']:.6g})  oracle LPs {row['oracle_lps']:>6}"
                f"  LPs {row['kernel_lps']:>6}  cpu {statistics.median(row['cpu_s']):.3f} s",
                flush=True,
            )
    return rows


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= REL_TOL * max(1.0, abs(a))


def compare(old_path: str, new_path: str) -> int:
    old, new = (
        {row["key"]: row for row in json.loads(Path(p).read_text())["instances"]}
        for p in (old_path, new_path)
    )
    keys = [k for k in old if k in new]
    unpaired = sorted(set(old) ^ set(new))
    cpu = {k: [statistics.median(side[k]["cpu_s"]) for side in (old, new)] for k in keys}
    digests = {k: (old[k].get("kernel_digest"), new[k].get("kernel_digest")) for k in keys}
    bits = {
        k: "n/a" if None in d else "same" if d[0] == d[1] else "moved" for k, d in digests.items()
    }
    print(f"{'instance':<36} {'oracle LPs':>17} {'kernel LPs':>17} {'median cpu s':>17}  bits")
    for k in keys:
        a, b = old[k], new[k]
        print(
            f"{k:<36} {a['oracle_lps']:>7} -> {b['oracle_lps']:<6} {a['kernel_lps']:>7} -> "
            f"{b['kernel_lps']:<6} {cpu[k][0]:>7.3f} -> {cpu[k][1]:<6.3f} {bits[k]}"
        )
    hashed = [k for k in keys if bits[k] != "n/a"]
    kept = sum(bits[k] == "same" for k in hashed)
    print(f"kernel bits kept on {kept} of {len(hashed)} instances")
    status = [k for k in keys if old[k]["status"] != new[k]["status"]]
    objective = [k for k in keys if not _close(old[k]["objective"], new[k]["objective"])]
    saturated = [k for k in keys if old[k]["root_stop"] == new[k]["root_stop"] == "saturated"]
    root = [k for k in saturated if not _close(old[k]["root_bound"], new[k]["root_bound"])]
    oracle = [sum(side[k]["oracle_lps"] for k in keys) for side in (old, new)]
    total = [sum(c[i] for c in cpu.values()) for i in (0, 1)]
    work = {k: [(side[k]["kernel_lps"], side[k]["pivots"]) for side in (old, new)] for k in keys}
    changed = [k for k in keys if work[k][0] != work[k][1]]
    wins = sum(cpu[k][1] < cpu[k][0] for k in changed)
    checks = (
        (not unpaired, f"paired {len(keys)} instances; unpaired: {unpaired}"),
        (not status, f"status kept; changed on {status}"),
        (not objective, f"objective within {REL_TOL:g}; moved on {objective}"),
        (not root, f"{len(saturated)} saturated root bounds within {REL_TOL:g}; moved on {root}"),
        (oracle[1] <= oracle[0], f"summed oracle LPs {oracle[0]} -> {oracle[1]}{_change(*oracle)}"),
        (
            total[1] <= total[0],
            f"summed median cpu {total[0]:.2f} -> {total[1]:.2f} s{_change(*total)}",
        ),
        (wins >= WIN_SHARE * len(changed), f"new wins {wins} of {len(changed)} changed instances"),
    )
    for ok, text in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {text}")
    return 0 if all(ok for ok, _ in checks) else 1


def _change(a: float, b: float) -> str:
    return f" {(b - a) / a:+.1%}" if a else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3, help="timed runs per instance")
    parser.add_argument("--smoke", action="store_true", help="three small instances, a few seconds")
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    rows = run_panel(SMOKE if args.smoke else PANEL, args.repeat)
    out = {
        "repeat": args.repeat,
        "smoke": args.smoke,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "instances": rows,
    }
    path = args.out or f"BENCH_panel_{datetime.date.today().isoformat()}.json"
    Path(path).write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
