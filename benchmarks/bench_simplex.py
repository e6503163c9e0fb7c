#!/usr/bin/env python3
"""Compare the compiled simplex kernel with the pure-numpy fallback.

The kernel backend is chosen at import time from SIPCUTS_PURE_NUMPY, so
the script re-executes itself in a subprocess per mode and prints one
timing table at the end.  Workloads cover the three layers that lean on
the kernel: raw dense LP solves, branch-and-bound MIP solves, and a full
branch-and-cut run on a generated server-location instance. Modes whose
backend is not installed (numba) are skipped and named in the output.

Usage:
    python3 benchmarks/bench_simplex.py [--repeat N] [--modes numba,numpy]
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import time

RESULT_MARK = "BENCH_RESULT "
#: the checkout's sources, put first on the workers' import path
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _random_lp(rng, m, n):
    """Bounded, feasible LP: min c'x, Ax <= b, 0 <= x <= 10."""
    import numpy as np

    from sipcuts.optbase import LE, LinearProgram
    from sipcuts.sparse import CooMatrix

    A = rng.uniform(-1.0, 1.0, (m, n))
    x0 = rng.uniform(0.0, 10.0, n)
    b = A @ x0 + rng.uniform(0.1, 1.0, m)
    c = rng.uniform(-1.0, 1.0, n)
    return LinearProgram(
        c=c,
        A=CooMatrix.from_dense(A),
        senses=np.full(m, LE, dtype=np.int8),
        rhs=b,
        lb=np.zeros(n),
        ub=np.full(n, 10.0),
    )


def _random_mip(rng, m, n):
    """Feasible all-integer program: an integer point anchors the rows."""
    import numpy as np

    from sipcuts.optbase import LE, MipProgram
    from sipcuts.sparse import CooMatrix

    A = rng.uniform(-1.0, 1.0, (m, n))
    x0 = rng.integers(0, 7, n).astype(float)
    b = A @ x0 + rng.uniform(0.1, 1.0, m)
    return MipProgram(
        c=rng.uniform(-1.0, 1.0, n),
        A=CooMatrix.from_dense(A),
        senses=np.full(m, LE, dtype=np.int8),
        rhs=b,
        lb=np.zeros(n),
        ub=np.full(n, 6.0),
        is_int=np.ones(n, dtype=bool),
    )


def run_workloads(repeat: int) -> dict:
    import numpy as np

    from sipcuts import _simplex
    from sipcuts.driver import solve_lbc
    from sipcuts.instances import SslpParams, gen_sslp
    from sipcuts.optbase import OPTIMAL, solve_lp, solve_mip

    rng = np.random.default_rng(7)
    lps = [_random_lp(rng, 40, 60) for _ in range(25 * repeat)]
    mips = [_random_mip(rng, 8, 12) for _ in range(5 * repeat)]
    inst = gen_sslp(SslpParams(5, 10, 5, seed=1))

    # Warm-up pass so jit compilation is not billed to the first workload.
    solve_lp(lps[0])
    solve_mip(mips[0])

    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    for lp in lps:
        out = solve_lp(lp)
        assert out.status == OPTIMAL
    timings[f"dense LP 40x60 ({len(lps)} solves)"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    for mip in mips:
        out = solve_mip(mip)
        assert out.status == OPTIMAL
    timings[f"branch-and-bound MIP 8x12 ({len(mips)} solves)"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    res, _ = solve_lbc(inst)
    assert res.status == "optimal"
    timings["branch-and-cut SSLP(5,10,5)"] = time.perf_counter() - t0

    return {"mode": _simplex.KERNEL_MODE, "timings": timings}


def _spawn(mode: str, repeat: int) -> dict:
    env = dict(os.environ)
    env["SIPCUTS_PURE_NUMPY"] = "1" if mode == "numpy" else "0"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", "--repeat", str(repeat)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    for line in proc.stdout.splitlines():
        if line.startswith(RESULT_MARK):
            out = json.loads(line[len(RESULT_MARK):])
            if mode == "numba" and out["mode"] != "numba":
                raise RuntimeError("numba backend unavailable; install numba or pass --modes numpy")
            return out
    raise RuntimeError(f"worker produced no result:\n{proc.stdout}\n{proc.stderr}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=1, help="workload size multiplier")
    parser.add_argument(
        "--modes", default="numba,numpy", help="comma-separated kernel modes to time"
    )
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker:
        print(RESULT_MARK + json.dumps(run_workloads(args.repeat)))
        return 0

    requested = [tok.strip() for tok in args.modes.split(",") if tok.strip()]
    modes = [m for m in requested if m != "numba" or importlib.util.find_spec("numba")]
    for mode in requested:
        if mode not in modes:
            print(f"skipped mode {mode}: backend not installed")
    if not modes:
        return 1
    results = {mode: _spawn(mode, args.repeat) for mode in modes}

    names = list(next(iter(results.values()))["timings"])
    width = max(len(name) for name in names) + 2
    header = f"{'workload':<{width}}" + "".join(f"{mode:>12}" for mode in modes)
    if len(modes) == 2:
        header += f"{'ratio':>10}"
    print(header)
    print("-" * len(header))
    for name in names:
        row = f"{name:<{width}}"
        vals = [results[mode]["timings"][name] for mode in modes]
        row += "".join(f"{v:>11.3f}s" for v in vals)
        if len(vals) == 2 and vals[0] > 0:
            row += f"{vals[1] / vals[0]:>9.1f}x"
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
