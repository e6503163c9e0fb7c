"""Benchmark workloads: pinned instances, the top-level call each one
times, and the references every result is checked against.

Each workload is named after its solve path and runs with `workers=1`,
one solve at a time. The instances are fixed, because their optimum and
saturated root bound are pinned here and cross-checked against scipy's
HiGHS in `test_perfbench.py`; other generator seeds of the same size
differ several-fold in run length. A smoke instance per workload runs
the same code path in well under a second.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from sipcuts import driver
from sipcuts.instances import SnipParams, SslpParams, gen_snip, gen_sslp
from sipcuts.model import SipInstance

#: relative distance to a pinned reference that still counts as a match
REL_TOL = 1e-6
#: share of the root gap whose closing time is reported as `t95_s`
GAMMA = 0.95


@dataclass(frozen=True)
class Reference:
    """What a correct run of one instance ends with."""

    status: str  # BcResult.status for B&C paths, BoundTrace.stop_reason for the root loop
    root_bound: float  # saturated root bound of the workload's root loop
    objective: float | None = None  # proven optimum, B&C paths only


@dataclass(frozen=True)
class Case:
    make: Callable[[], SipInstance]
    ref: Reference


@dataclass(frozen=True)
class Workload:
    name: str
    path: str  # "lbc" | "bbc" | "root"
    full: Case
    smoke: Case


def _sslp(m, n, s, seed):
    return lambda: gen_sslp(SslpParams(m, n, s, seed=seed))


def _snip(nodes, arcs, k, budget, s, seed):
    return lambda: gen_snip(SnipParams(nodes, arcs, k, budget, s, seed=seed))


_SSLP_SMOKE = _sslp(3, 5, 3, 7)

# Why each workload is there is recorded in BENCHMARK.json.
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="sslp-lbc",
            path="lbc",
            full=Case(_sslp(5, 10, 5, 1), Reference("optimal", -23.8, objective=-23.8)),
            smoke=Case(
                _SSLP_SMOKE, Reference("optimal", 4.666666666666662, objective=4.666666666666667)
            ),
        ),
        Workload(
            name="sslp-bbc",
            path="bbc",
            full=Case(
                _sslp(8, 15, 10, 1), Reference("optimal", -117.14243274720164, objective=-65.9)
            ),
            smoke=Case(
                _SSLP_SMOKE, Reference("optimal", -4.9372786805724, objective=4.666666666666667)
            ),
        ),
        Workload(
            name="snip-root",
            path="root",
            full=Case(_snip(30, 80, 20, 30.0, 20, 1), Reference("saturated", 0.33178571900000003)),
            smoke=Case(_snip(12, 30, 8, 10.0, 4, 3), Reference("saturated", 0.18212975358773237)),
        ),
    )
}


@dataclass(frozen=True)
class Outcome:
    """What one top-level call produced, reduced to comparable values."""

    status: str
    objective: float | None  # None on the root path
    nodes: int  # branch-and-cut nodes, 0 on the root path
    bounds: tuple[float, ...]  # bound trace, one entry per master re-solve
    cut_counts: tuple[tuple[int, int, int], ...]  # (classical, lagrangian, int-L) per entry
    times: tuple[float, ...]  # seconds from the start of the call, per entry

    def same_result(self, other: Outcome) -> bool:
        """Equal in everything but timing."""
        return (self.status, self.objective, self.nodes, self.bounds, self.cut_counts) == (
            other.status,
            other.objective,
            other.nodes,
            other.bounds,
            other.cut_counts,
        )


def run(wl: Workload, inst: SipInstance) -> Outcome:
    """Time the workload's top-level call on `inst`.

    The package entry points are looked up on `driver` at call time, so
    a tracer that wraps them sees this call too."""
    t0 = time.monotonic()
    if wl.path == "lbc":
        res, trace = driver.solve_lbc(inst, workers=1)
    elif wl.path == "bbc":
        res, trace = driver.solve_bbc(inst, workers=1)
    else:
        cfg = driver.VariantConfig(variant="exact", delta=0.0, early_stop=False, workers=1)
        _, trace = driver.run_root_loop(inst, cfg)
    # trace times count from the trace's creation inside run_root_loop;
    # shift them to count from the start of the call
    offset = trace._t0 - t0
    recs = trace.records
    if wl.path == "root":
        status, objective, nodes = trace.stop_reason, None, 0
    else:
        status, objective, nodes = res.status, float(res.objective), res.node_count
    return Outcome(
        status=status,
        objective=objective,
        nodes=nodes,
        bounds=tuple(r.lower_bound for r in recs),
        cut_counts=tuple((r.n_benders, r.n_lagrangian, r.n_intl) for r in recs),
        times=tuple(offset + r.time_s for r in recs),
    )


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REL_TOL * max(1.0, abs(ref))


def _target(out: Outcome, ref: Reference) -> float:
    """Bound at which GAMMA of the gap from the first master bound (before
    any cut) to the pinned root bound is closed."""
    b0 = out.bounds[0]
    return b0 + GAMMA * (ref.root_bound - b0)


def t95_s(out: Outcome, ref: Reference) -> float | None:
    """Seconds from the start of the call until the bound first closes
    GAMMA of the root gap; None when it never does."""
    if not out.bounds:
        return None
    target = _target(out, ref) - REL_TOL * max(1.0, abs(ref.root_bound))
    for bound, t in zip(out.bounds, out.times):
        if bound >= target:
            return t
    return None


def root_gap_closed(out: Outcome, ref: Reference) -> float:
    """(root bound - b0) / (pinned optimum - b0), b0 being the first master
    bound. b0 and not the extensive-form LP bound is the base because the
    classical root of sslp-bbc ends at the LP bound and snip-root's LP bound
    is its optimum, which would make the share 0 or 0/0 there. With no gap
    to close (b0 already at the pin) a root that reaches the pin counts 1."""
    if not out.bounds:
        return 0.0
    b0, root = out.bounds[0], out.bounds[-1]
    pin = ref.root_bound if ref.objective is None else ref.objective
    if pin - b0 <= REL_TOL * max(1.0, abs(pin)):
        return 1.0 if _close(root, pin) or root > pin else 0.0
    return (root - b0) / (pin - b0)


def problems(out: Outcome, ref: Reference) -> list[str]:
    """Ways `out` misses its pinned reference; empty when it matches."""
    found = []
    if out.status != ref.status:
        found.append(f"status {out.status!r}, expected {ref.status!r}")
    if ref.objective is not None and not _close(out.objective, ref.objective):
        found.append(f"objective {out.objective!r}, expected {ref.objective!r}")
    if ref.objective is None and not (out.bounds and _close(out.bounds[-1], ref.root_bound)):
        last = out.bounds[-1] if out.bounds else None
        found.append(f"root bound {last!r}, expected {ref.root_bound!r}")
    if t95_s(out, ref) is None:
        found.append(f"root bound never closed {GAMMA:g} of the gap to {ref.root_bound!r}")
    return found
