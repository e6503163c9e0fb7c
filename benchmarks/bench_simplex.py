#!/usr/bin/env python3
"""Time the dense simplex kernel on the layers that lean on it.

Workloads: raw dense LP solves, warm re-solves of tall, mostly-slack LPs
shaped like a cut master (after a bound change and after appended rows),
branch-and-bound MIP solves, and a full branch-and-cut run on a
generated server-location instance. The script runs the checkout's
sources with one BLAS thread, so the summation order is the same on
every run.

With --digest every kernel output (status, x, obj, y, ray, iterations,
basis, vstat; not the final basis inverse that rides along after them)
feeds one SHA-256 in call order, and the script prints that digest
instead of the timings, followed by one SHA-256 per workload group:
equal digests from two checkouts mean their kernels computed the same
bits on these instances, and the group digests show which workloads a
kernel change moved.

Usage:
    python3 benchmarks/bench_simplex.py [--repeat N] [--digest]
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
import time

# before numpy is imported
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from sipcuts import _simplex  # noqa: E402
from sipcuts.driver import solve_lbc  # noqa: E402
from sipcuts.instances import SslpParams, gen_sslp  # noqa: E402
from sipcuts.optbase import (  # noqa: E402
    GE,
    LE,
    OPTIMAL,
    CooMatrix,
    LinearProgram,
    MipProgram,
    solve_lp,
    solve_mip,
)


def _random_lp(rng, m, n):
    """Bounded, feasible LP: min c'x, Ax <= b, 0 <= x <= 10."""
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
    outputs of every `_simplex._lp_core` call feed the overall digest and
    the digest of the group named by `group`, in call order."""

    def __init__(self):
        self.group = None
        self.total = hashlib.sha256()
        self.groups = {name: [hashlib.sha256(), 0] for name in GROUPS}  # digest, calls

    def install(self) -> None:
        core = _simplex._lp_core

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

        _simplex._lp_core = hashing


def run_workloads(repeat: int, digests: _KernelDigests) -> dict[str, float]:
    """Seconds per workload; `digests.group` names the running one."""
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

    # a warm-up pass, so first-call costs are not billed to the first workload
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

    return timings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=1, help="workload size multiplier")
    parser.add_argument(
        "--digest", action="store_true", help="print a SHA-256 of every kernel output, no timings"
    )
    args = parser.parse_args(argv)
    digests = _KernelDigests()
    if args.digest:
        digests.install()
    timings = run_workloads(args.repeat, digests)
    if args.digest:
        calls = sum(calls for _, calls in digests.groups.values())
        print(f"digest {digests.total.hexdigest()} ({calls} kernel calls)")
        for name, (group, calls) in digests.groups.items():
            print(f"  {name:<28} {group.hexdigest()} ({calls} kernel calls)")
        return 0
    width = max(len(name) for name in timings) + 2
    print(f"{'workload':<{width}}{'seconds':>10}")
    print("-" * (width + 10))
    for name, seconds in timings.items():
        print(f"{name:<{width}}{seconds:>10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
