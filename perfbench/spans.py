"""Per-layer spans and kernel counters, recorded from outside the package.

Inside `with tracer.installed():` the tracer swaps the bindings that
callers actually look up (the names `driver` imported from `benders` and
`lagrangian`, module globals such as `lagrangian.eval_qbar`, and
`MasterModel.solve`) for wrappers, and puts the originals back on exit,
also when the block raises.

A span's self time is its duration minus that of the spans it encloses.
Kernel work (`optbase._solve_dense`, one call per LP or B&B node LP, and
the B&B node counts returned by `solve_mip`) goes to the innermost open
span. `MasterModel.solve` is reported as `driver.bc_node_lp` inside
`run_branch_and_cut` and as `benders.master_lp` everywhere else.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

#: the layers of the per-layer table, each reporting SPAN_FIELDS
SPANS = (
    "benders.master_lp",
    "driver.bc_node_lp",
    "benders.subproblem",
    "benders.theta_lb",
    "model.eval_recourse",
    "lagrangian.eval_qbar",
    "lagrangian.sep_master",
    "lagrangian.select_basis_mip",
)
#: spans that enclose layers; they report their self time only
CONTAINERS = ("driver.root", "driver.bc", "lagrangian.separate")
SPAN_FIELDS = ("calls", "self_s", "kernel_s", "lp_solves", "pivots", "bb_nodes", "rows_mean")
STOPS = ("delta", "no_violation", "stalled", "budget", "pi0_small")
ROOT_CUT_FAMILIES = ("benders", "lagrangian")

_UNITS = {"self_s": "s", "kernel_s": "s", "rows_mean": "rows"}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name the tracer reports, with its unit."""
    units = {f"{span}.{f}": _UNITS.get(f, "count") for span in SPANS for f in SPAN_FIELDS}
    units.update({f"{span}.self_s": "s" for span in CONTAINERS})
    units.update(
        {
            "_simplex.lp_solves": "count",
            "_simplex.pivots": "count",
            "_simplex.pivots_per_solve": "count",
            "_simplex.seconds": "s",
            "_simplex.retries": "count",  # _lp_core attempts beyond the first per solve
            "lagrangian.separate.calls": "count",
            "lagrangian.separate.oracle_calls": "count",
            "lagrangian.separate.cuts": "count",
            "lagrangian.separate.cut_ratio": "ratio",
            "driver.root.rounds": "count",  # master re-solves, one bound-trace entry each
            "driver.bc.nodes": "count",
            "driver.bc.lazy_cuts": "count",
        }
    )
    units.update({f"lagrangian.separate.stop.{r}": "count" for r in STOPS})
    units.update({f"driver.root.cuts.{fam}": "count" for fam in ROOT_CUT_FAMILIES})
    return units


class _Frame:
    __slots__ = ("name", "start", "child_s")

    def __init__(self, name: str):
        self.name = name
        self.start = time.perf_counter()
        self.child_s = 0.0


class Tracer:
    """Span and counter totals for whatever runs while it is installed."""

    def __init__(self):
        self.totals: Counter = Counter()  # "<span>.<field>" and plain counters
        self._stack: list[_Frame] = []
        self._core_calls = 0

    # -------------------------------------------------------------- spans

    def _span(self, name, fn, before=None, after=None):
        """Wrap `fn` in a span. `name` may be a callable picked at call
        time; `after(state, out)` sees `before(*args)`'s state and the result."""

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            frame = _Frame(name() if callable(name) else name)
            state = before(*args) if before else None
            self._stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                dur = time.perf_counter() - frame.start
                if self._stack:
                    self._stack[-1].child_s += dur
                self.totals[f"{frame.name}.calls"] += 1
                self.totals[f"{frame.name}.self_s"] += dur - frame.child_s
            if after:
                after(state, out)
            return out

        return wrapped

    def _master_span(self) -> str:
        inside_bc = any(f.name == "driver.bc" for f in self._stack)
        return "driver.bc_node_lp" if inside_bc else "benders.master_lp"

    def _innermost(self) -> str:
        return self._stack[-1].name if self._stack else "outside"

    # ------------------------------------------------------------- kernel

    def _kernel(self, fn):
        """Wrap optbase._solve_dense(c, A, senses, rhs, lb, ub, itmax)."""

        @functools.wraps(fn)
        def wrapped(c, A, *args, **kwargs):
            calls0 = self._core_calls
            t0 = time.perf_counter()
            out = fn(c, A, *args, **kwargs)
            dt = time.perf_counter() - t0
            span = self._innermost()
            t = self.totals
            t[f"{span}.kernel_s"] += dt
            t[f"{span}.lp_solves"] += 1
            t[f"{span}.pivots"] += out[5]
            t[f"{span}.rows_sum"] += A.shape[0]
            t["_simplex.seconds"] += dt
            t["_simplex.lp_solves"] += 1
            t["_simplex.pivots"] += out[5]
            t["_simplex.retries"] += max(0, self._core_calls - calls0 - 1)
            return out

        return wrapped

    def _core(self, fn):
        """Count `_simplex._lp_core` attempts; more than one per solve is a retry."""

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self._core_calls += 1
            return fn(*args, **kwargs)

        return wrapped

    def _mip(self, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.totals[f"{self._innermost()}.bb_nodes"] += out.node_count
            return out

        return wrapped

    # ---------------------------------------------------------- observers

    def _after_separation(self, _state, res) -> None:
        t = self.totals
        t["lagrangian.separate.oracle_calls"] += res.oracle_calls
        t["lagrangian.separate.cuts"] += res.cut is not None
        t[f"lagrangian.separate.stop.{res.stop}"] += 1

    def _after_root(self, _state, out) -> None:
        master, trace = out
        self.totals["driver.root.rounds"] += len(trace.records)
        for fam, n in master.counts().items():
            self.totals[f"driver.root.cuts.{fam}"] += n

    @staticmethod
    def _before_bc(inst, root, *rest):
        return root, len(root.cuts)

    def _after_bc(self, state, res) -> None:
        root, cuts_before = state
        self.totals["driver.bc.nodes"] += res.node_count
        self.totals["driver.bc.lazy_cuts"] += len(root.cuts) - cuts_before

    @contextmanager
    def installed(self):
        """Wrap the layer bindings for the length of the block."""
        from sipcuts import _simplex, benders, driver, lagrangian, model, optbase

        def span(name, **hooks):
            return lambda fn: self._span(name, fn, **hooks)

        patches = [
            (driver, "run_root_loop", span("driver.root", after=self._after_root)),
            (
                driver,
                "run_branch_and_cut",
                span("driver.bc", before=self._before_bc, after=self._after_bc),
            ),
            (benders.MasterModel, "solve", span(self._master_span)),
            (driver, "solve_benders_subproblem", span("benders.subproblem")),
            (driver, "compute_theta_lower_bound", span("benders.theta_lb")),
            (driver, "eval_recourse", span("model.eval_recourse")),
            (benders, "eval_recourse", span("model.eval_recourse")),
            (lagrangian, "eval_recourse", span("model.eval_recourse")),
            (lagrangian, "eval_qbar", span("lagrangian.eval_qbar")),
            (lagrangian, "_solve_master", span("lagrangian.sep_master")),
            (driver, "select_basis_mip", span("lagrangian.select_basis_mip")),
            (
                driver,
                "separate_restricted",
                span("lagrangian.separate", after=self._after_separation),
            ),
            (optbase, "_solve_dense", self._kernel),
            (_simplex, "_lp_core", self._core),
            (optbase, "solve_mip", self._mip),
            (model, "solve_mip", self._mip),
            (lagrangian, "solve_mip", self._mip),
        ]
        saved = []
        try:
            for owner, attr, wrap in patches:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, wrap(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # ------------------------------------------------------------ results

    def metrics(self) -> dict[str, float]:
        """Every name of `layer_metric_units()` with its total for the run."""
        t = self.totals
        out = {}
        for name in layer_metric_units():
            span, _, field = name.rpartition(".")
            if field == "rows_mean":
                solves = t[f"{span}.lp_solves"]
                out[name] = t[f"{span}.rows_sum"] / solves if solves else 0.0
            elif name == "_simplex.pivots_per_solve":
                solves = t["_simplex.lp_solves"]
                out[name] = t["_simplex.pivots"] / solves if solves else 0.0
            elif name == "lagrangian.separate.cut_ratio":
                calls = t["lagrangian.separate.calls"]
                out[name] = t["lagrangian.separate.cuts"] / calls if calls else 0.0
            else:
                out[name] = float(t[name])
        return out
