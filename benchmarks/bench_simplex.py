#!/usr/bin/env python3
"""Compare the compiled simplex kernel with the pure-numpy fallback.

The kernel backend is chosen at import time from SIPCUTS_PURE_NUMPY, so
the script re-executes itself in a subprocess per mode and prints one
timing table at the end.  Workloads cover the layers that lean on the
kernel: raw dense LP solves, warm re-solves of tall, mostly-slack LPs
shaped like a cut master (after a bound change and after appended rows),
branch-and-bound MIP solves, and a full branch-and-cut run on a
generated server-location instance. Modes whose backend is not installed
(numba) are skipped and named in the output.

With --digest every kernel output (status, x, obj, y, ray, iterations,
basis, vstat; not the final basis inverse that rides along after them)
feeds one SHA-256 in call order, and the script prints that
digest per mode instead of the timings, followed by one SHA-256 per
workload group: equal digests from two checkouts mean their kernels
computed the same bits on these instances, and the group digests show
which workloads a kernel change moved.

Usage:
    python3 benchmarks/bench_simplex.py [--repeat N] [--modes numba,numpy] [--digest]
"""

from __future__ import annotations

import argparse
import hashlib
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

    from sipcuts.optbase import LE, CooMatrix, LinearProgram

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


def _tall_lp(rng, m, n):
    """Feasible LP shaped like a cut master: m >= rows on n columns in
    [0, 10], each row slack at the anchor x0; returns (lp, x0)."""
    import numpy as np

    from sipcuts.optbase import GE, CooMatrix, LinearProgram

    A = rng.uniform(-1.0, 1.0, (m, n))
    x0 = rng.uniform(0.0, 10.0, n)
    lp = LinearProgram(
        c=rng.uniform(-1.0, 1.0, n),
        A=CooMatrix.from_dense(A),
        senses=np.full(m, GE, dtype=np.int8),
        rhs=A @ x0 - rng.uniform(0.1, 1.0, m),
        lb=np.zeros(n),
        ub=np.full(n, 10.0),
    )
    return lp, x0


def _warm_children(rng, lp, x0, parent):
    """The parent LP with one bound moved, and with rows appended; both
    cut the parent optimum off and keep x0 feasible."""
    import dataclasses

    import numpy as np

    from sipcuts.optbase import GE, CooMatrix

    x = parent.x
    j = int(np.argmax(np.abs(x - x0)))
    lb, ub = lp.lb.copy(), lp.ub.copy()
    if x[j] > x0[j]:
        ub[j] = 0.5 * (x[j] + x0[j])
    else:
        lb[j] = 0.5 * (x[j] + x0[j])
    rows = (x0 - x) + rng.uniform(-0.1, 0.1, (5, x.size))
    rows = rows[rows @ x0 > rows @ x]
    cut = dataclasses.replace(
        lp,
        A=CooMatrix.from_dense(np.vstack([lp.A.to_dense(), rows])),
        senses=np.concatenate([lp.senses, np.full(len(rows), GE, dtype=np.int8)]),
        rhs=np.concatenate([lp.rhs, 0.5 * (rows @ x + rows @ x0)]),
    )
    return [dataclasses.replace(lp, lb=lb, ub=ub), cut]


def _random_mip(rng, m, n):
    """Feasible all-integer program: an integer point anchors the rows."""
    import numpy as np

    from sipcuts.optbase import LE, CooMatrix, MipProgram

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


#: workload groups; --digest prints one SHA-256 per group
GROUPS = DENSE, WARM, MIP, BC = (
    "dense LP 40x60",
    "warm re-solve 400x20",
    "branch-and-bound MIP 8x12",
    "branch-and-cut SSLP(5,10,5)",
)


class _KernelDigests:
    """SHA-256s of kernel outputs: once `install`ed, the first eight
    outputs of every `simplex._lp_core` call feed the overall digest and
    the digest of the group named by `group`, in call order."""

    def __init__(self):
        self.group = None
        self.total = hashlib.sha256()
        self.groups = {name: [hashlib.sha256(), 0] for name in GROUPS}  # digest, calls

    def install(self, simplex) -> None:
        import numpy as np

        core = simplex._lp_core

        def hashing(*args):
            out = core(*args)
            entry = self.groups[self.group]
            entry[1] += 1
            for v in out[:8]:
                if isinstance(v, np.ndarray):
                    chunks = (f"{v.dtype}{v.shape}".encode(), np.ascontiguousarray(v).tobytes())
                else:
                    chunks = (repr(v).encode(),)
                for chunk in chunks:
                    self.total.update(chunk)
                    entry[0].update(chunk)
            return out

        simplex._lp_core = hashing

    def summary(self) -> dict:
        return {
            "digest": self.total.hexdigest(),
            "calls": sum(calls for _, calls in self.groups.values()),
            "groups": {name: [h.hexdigest(), calls] for name, (h, calls) in self.groups.items()},
        }


def run_workloads(repeat: int, digest: bool = False) -> dict:
    import numpy as np

    from sipcuts import _simplex
    from sipcuts.driver import solve_lbc
    from sipcuts.instances import SslpParams, gen_sslp
    from sipcuts.optbase import OPTIMAL, solve_lp, solve_mip

    digests = _KernelDigests()
    if digest:
        digests.install(_simplex)

    rng = np.random.default_rng(7)
    lps = [_random_lp(rng, 40, 60) for _ in range(25 * repeat)]
    mips = [_random_mip(rng, 8, 12) for _ in range(5 * repeat)]
    warm_jobs = []
    digests.group = WARM
    for _ in range(5 * repeat):
        lp, x0 = _tall_lp(rng, 400, 20)
        parent = solve_lp(lp)
        warm_jobs += [(child, parent.basis) for child in _warm_children(rng, lp, x0, parent)]
    inst = gen_sslp(SslpParams(5, 10, 5, seed=1))

    # Warm-up pass so jit compilation is not billed to the first workload.
    digests.group = DENSE
    solve_lp(lps[0])
    digests.group = MIP
    solve_mip(mips[0])

    timings: dict[str, float] = {}

    digests.group = DENSE
    t0 = time.perf_counter()
    for lp in lps:
        out = solve_lp(lp)
        assert out.status == OPTIMAL
    timings[f"{DENSE} ({len(lps)} solves)"] = time.perf_counter() - t0

    digests.group = WARM
    t0 = time.perf_counter()
    for lp, basis in warm_jobs:
        out = solve_lp(lp, warm=basis)
        assert out.status == OPTIMAL
    timings[f"{WARM} ({len(warm_jobs)} solves)"] = time.perf_counter() - t0

    digests.group = MIP
    t0 = time.perf_counter()
    for mip in mips:
        out = solve_mip(mip)
        assert out.status == OPTIMAL
    timings[f"{MIP} ({len(mips)} solves)"] = time.perf_counter() - t0

    digests.group = BC
    t0 = time.perf_counter()
    res, _ = solve_lbc(inst)
    assert res.status == "optimal"
    timings[BC] = time.perf_counter() - t0

    out = {"mode": _simplex.KERNEL_MODE, "timings": timings}
    if digest:
        out.update(digests.summary())
    return out


def _spawn(mode: str, repeat: int, digest: bool) -> dict:
    env = dict(os.environ)
    env["SIPCUTS_PURE_NUMPY"] = "1" if mode == "numpy" else "0"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    if digest:  # one BLAS thread, so the summation order is the same on every run
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", "--repeat", str(repeat)]
    proc = subprocess.run(
        cmd + ["--digest"] * digest,
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
    parser.add_argument(
        "--digest", action="store_true", help="print a SHA-256 of every kernel output, no timings"
    )
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker:
        print(RESULT_MARK + json.dumps(run_workloads(args.repeat, args.digest)))
        return 0

    requested = [tok.strip() for tok in args.modes.split(",") if tok.strip()]
    modes = [m for m in requested if m != "numba" or importlib.util.find_spec("numba")]
    for mode in requested:
        if mode not in modes:
            print(f"skipped mode {mode}: backend not installed")
    if not modes:
        return 1
    results = {mode: _spawn(mode, args.repeat, args.digest) for mode in modes}
    if args.digest:
        for mode, out in results.items():
            print(f"digest {mode} {out['digest']} ({out['calls']} kernel calls)")
            for name, (group, calls) in out["groups"].items():
                print(f"  {name:<28} {group} ({calls} kernel calls)")
        return 0

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
