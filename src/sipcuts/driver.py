"""Root-node cutting-plane loop and branch-and-cut.

The root loop is one loop over master re-solves. Each round separates
a classical (LP-dual) cut per scenario; when none is new, the configured
multiplier-based block runs per scenario at the same point. It stops
when a round adds nothing (``saturated``), when bound progress stalls
after the first multiplier block (``early_stop``), after `MAX_ROUNDS`
re-solves (``round_cap``), or on the time limit (``time_limit``),
checked before every scenario separation: a round it cuts short adds
none of its cuts. Branch-and-cut then drives the cut-carrying master to
integer optimality with lazy classical and integer optimality cuts at
integer-feasible candidates. A node LP carries a subset of the
master's cut pool, and its bound is the whole pool's
(`benders.MasterModel` describes how).

Variants of the multiplier block:
  * ``benders_only``   no second block; classical saturation only.
  * ``strengthened``   re-derive each scenario's newest classical cut's
                       right-hand side with the exact mixed-integer
                       value at the same coefficients.
  * ``exact``          search the full multiplier space under the ball
                       normalization.
  * ``span_coef``      restrict multipliers to the span of recent
                       classical coefficient vectors; normalize the
                       resulting coefficient vector.
  * ``span_weight``    same span; normalize the span weights instead.
  * ``span_mip``       pick the best few span vectors by a small MIP,
                       then search under the weight normalization.

`run_root_loop` and `run_branch_and_cut` first merge twin scenarios,
those with byte-identical oracle data, into one scenario with their
summed probability (`model.merge_twins`); an instance without twins is
solved as given. Each then opens an oracle memo (`model.oracle_memo`)
for the instance it solves: inside one call, every scenario oracle
(theta bound, scenario LP relaxation, exact recourse value, qbar)
solves a question about a scenario and a point once, and repeats get
copies of that answer. A call made inside an open memo for the same
instance shares it; nothing outlives the call, so solving an instance
twice does the same work twice. Branch-and-cut and the
``benders_only`` and ``exact`` root loops open their memo with warm
starts: each scenario LP relaxation starts from the last optimal basis
of scenarios with the same q, W and bounds. The span and
``strengthened`` loops keep those LPs cold, since they build cuts from
the classical duals, and another dual vertex at a degenerate point
changes the span they search and the cut they lift; ``exact`` searches
the whole ball. In every memo each qbar MIP's root LP starts from the
last one of its scenario; its value stays exact.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass

import numpy as np

from . import optbase
from .benders import (
    BENDERS_VIOL_TOL,
    Cut,
    MasterModel,
    compute_theta_lower_bound,
    require_binary_first_stage,
    separate_integer_lshaped,
    solve_benders_subproblem,
)
from .lagrangian import (
    LAGR_VIOL_TOL,
    NormalizationSpec,
    ScenarioPool,
    benders_basis,
    seed_pool,
    select_basis_mip,
    separate_restricted,
    strengthen_benders,
    xy_round_first_stage,
)
from .model import InstanceError, SipInstance, eval_recourse, merge_twins, oracle_memo

VARIANTS = ("benders_only", "strengthened", "exact", "span_coef", "span_weight", "span_mip")

TRACE_HEADER = ("time_s", "lower_bound", "iter", "n_benders", "n_lagrangian", "n_intL")
#: master re-solves of the root loop (safety cap)
MAX_ROUNDS = 700
#: early stop: rounds in the window, and the share of the total bound
#: gain the window must add to keep going
EARLY_WINDOW = 5
EARLY_FRACTION = 0.01


@dataclass
class VariantConfig:
    variant: str = "benders_only"
    delta: float = 0.0  # relative slack accepted by the multiplier search
    k: int = 20  # span size (ignored by exact/strengthened/benders_only)
    alpha: float = 1.0  # weight of the epigraph multiplier in the normalization
    time_limit: float = math.inf  # seconds, wall clock
    early_stop: bool = True
    workers: int = 1  # validated (>= 1); scenarios always run in order

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; pick from {VARIANTS}")
        if not (0.0 <= self.delta < 1.0):
            raise ValueError("delta must lie in [0, 1)")
        if self.k < 1:
            raise ValueError("span size must be at least 1")
        if not (0.0 < self.alpha < math.inf):
            raise ValueError("alpha must be positive and finite")
        if not (self.time_limit >= 0.0):
            raise ValueError("time limit must be non-negative")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


@dataclass
class TraceRecord:
    time_s: float
    lower_bound: float
    iteration: int
    n_benders: int
    n_lagrangian: int
    n_intl: int


class BoundTrace:
    """Master lower bound after every re-solve.

    Bounds are reported as the running maximum (an added cut never
    invalidates an earlier bound) and times are strictly increasing.
    Classical and strengthened-classical cuts are counted together.
    `separation_stops` counts the root loop's `separate_restricted`
    calls by `SeparationResult.stop`; the CSV does not carry it.
    """

    def __init__(self, baseline: float = math.nan):
        self.baseline = baseline
        self.records: list[TraceRecord] = []
        self.stop_reason = ""
        self.separation_stops: dict[str, int] = {}
        self._t0 = time.monotonic()

    def record(self, bound: float, iteration: int, counts: dict[str, int]) -> None:
        t = time.monotonic() - self._t0
        if self.records:
            bound = max(bound, self.records[-1].lower_bound)
            t = max(t, self.records[-1].time_s * (1 + 1e-12) + 1e-9)
        self.records.append(
            TraceRecord(
                time_s=t,
                lower_bound=bound,
                iteration=iteration,
                n_benders=counts.get("benders", 0) + counts.get("strengthened", 0),
                n_lagrangian=counts.get("lagrangian", 0),
                n_intl=counts.get("integer_lshaped", 0),
            )
        )

    @property
    def final_bound(self) -> float:
        return self.records[-1].lower_bound if self.records else -math.inf

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(TRACE_HEADER)
            for r in self.records:
                w.writerow(
                    [repr(r.time_s), repr(r.lower_bound), r.iteration, r.n_benders, r.n_lagrangian, r.n_intl]
                )

    @classmethod
    def from_csv(cls, path: str, baseline: float) -> BoundTrace:
        """Read back a trace written by `to_csv`."""
        tr = cls(baseline)
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            missing = [col for col in TRACE_HEADER if col not in (reader.fieldnames or ())]
            if missing:
                raise ValueError(f"trace {path} lacks columns {missing}")
            for row in reader:
                tr.records.append(
                    TraceRecord(
                        time_s=float(row["time_s"]),
                        lower_bound=float(row["lower_bound"]),
                        iteration=int(row["iter"]),
                        n_benders=int(row["n_benders"]),
                        n_lagrangian=int(row["n_lagrangian"]),
                        n_intl=int(row["n_intL"]),
                    )
                )
        return tr


def _latest_classical(cuts: list[Cut], s: int) -> Cut | None:
    for cut in reversed(cuts):
        if cut.scenario == s and cut.family == "benders":
            return cut
    return None


def run_root_loop(
    inst: SipInstance, cfg: VariantConfig, trace: BoundTrace | None = None
) -> tuple[MasterModel, BoundTrace]:
    """Grow the cut master until the configured variant is saturated.

    The master is built over `merge_twins(inst)`, which is `master.inst`:
    its theta columns and every `cuts[i].scenario` index
    `master.inst.scenarios`. Passing `trace` lets the caller keep the
    partial record if a solve fails mid-loop."""
    start = time.monotonic()
    inst = merge_twins(inst)
    if trace is None:
        trace = BoundTrace()
    with oracle_memo(inst, warm_starts=cfg.variant in ("benders_only", "exact")):
        theta_lb = np.array([compute_theta_lower_bound(inst, s) for s in range(inst.nscen)])
        master = MasterModel(inst, theta_lb)
        pools = [ScenarioPool() for _ in range(inst.nscen)]
        iteration = 0

        def resolve() -> tuple[float, np.ndarray, np.ndarray]:
            nonlocal iteration
            iteration += 1
            out, x, theta = master.solve(warm=master.basis)
            if out.status != optbase.OPTIMAL:
                raise InstanceError(f"cut master is {out.status}; cannot run the root loop")
            master.basis = out.basis
            trace.record(out.objective, iteration, master.counts())
            return out.objective, x, theta

        def add_round(separate) -> bool | None:
            """Separate every scenario, then add the cuts in scenario
            order; whether one was new. None, with no cut added, when
            the deadline comes before a scenario."""
            cuts = []
            for s in range(inst.nscen):
                if time.monotonic() - start >= cfg.time_limit:
                    return None
                cuts.append(separate(s))
            return any([master.add_cut(c) for c in cuts if c is not None])

        bound, x, theta = resolve()
        phase_bounds: list[float] = []  # from the first multiplier block on
        for _ in range(MAX_ROUNDS):
            added = add_round(lambda s: separate_classical(inst, s, x, theta[s]))
            if added is False and cfg.variant != "benders_only":
                phase_bounds = phase_bounds or [bound]
                added = add_round(
                    lambda s: _multiplier_cut(
                        inst, s, x, theta[s], master.cuts, pools[s], cfg, trace.separation_stops
                    )
                )
            if not added:
                trace.stop_reason = "time_limit" if added is None else "saturated"
                return master, trace
            bound, x, theta = resolve()
            if phase_bounds:
                phase_bounds.append(bound)
            if cfg.early_stop and len(phase_bounds) > EARLY_WINDOW:
                total = phase_bounds[-1] - phase_bounds[0]
                recent = phase_bounds[-1] - phase_bounds[-1 - EARLY_WINDOW]
                if total > 0.0 and recent < EARLY_FRACTION * total:
                    trace.stop_reason = "early_stop"
                    return master, trace
        trace.stop_reason = "round_cap"
        return master, trace


def separate_classical(inst, s, x_hat, theta_hat) -> Cut | None:
    """Classical cut at (x_hat, theta_hat), or the Farkas feasibility cut
    when the scenario LP is infeasible there; None unless violated enough."""
    res = solve_benders_subproblem(inst, s, x_hat)
    if res.feas_cut is not None:
        cut, viol, tol = res.feas_cut, -res.feas_cut.slack(x_hat, 0.0), BENDERS_VIOL_TOL
    else:
        cut = res.cut
        viol, tol = -cut.slack(x_hat, theta_hat), BENDERS_VIOL_TOL * (abs(theta_hat) + 1.0)
    if viol > tol:
        return cut
    return None


def _multiplier_cut(
    inst, s, x, theta_s, cuts, pool, cfg: VariantConfig, stops: dict[str, int]
) -> Cut | None:
    """The multiplier cut of scenario s at (x, theta_s), if violated; a
    restricted separation counts its stop reason in `stops`."""
    scen_tol = LAGR_VIOL_TOL * (abs(theta_s) + 1.0)
    if cfg.variant == "strengthened":
        parent = _latest_classical(cuts, s)
        if parent is None:
            return None
        cand = strengthen_benders(inst, s, parent, pool)
        if -cand.slack(x, theta_s) > scen_tol:
            return cand
        return None
    if cfg.variant == "exact":
        norm = NormalizationSpec("ball", cfg.alpha)
    else:
        span = benders_basis(cuts, s, cfg.k if cfg.variant != "span_mip" else 10**9, inst.nx)
        if span.shape[0] == 0:
            return None
        if cfg.variant == "span_coef":
            norm = NormalizationSpec("span_coef", cfg.alpha, span)
        elif cfg.variant == "span_weight":
            norm = NormalizationSpec("span_weight", cfg.alpha, span)
        else:  # span_mip
            if len(pool) == 0:
                seed_pool(inst, s, pool)
            idx, ub = select_basis_mip(x, theta_s, pool, span, cfg.k, cfg.alpha)
            if idx.size == 0 or ub <= scen_tol:
                return None
            norm = NormalizationSpec("span_weight", cfg.alpha, span[idx])
    res = separate_restricted(inst, s, x, theta_s, norm, pool=pool, delta=cfg.delta)
    stops[res.stop] = stops.get(res.stop, 0) + 1
    return res.cut


# ------------------------------------------------------------------ B&C


@dataclass
class BcResult:
    status: str  # "optimal" | "limit" | "infeasible"
    x: np.ndarray | None
    objective: float  # incumbent value (inf when none found)
    bound: float  # proven lower bound
    node_count: int
    gap: float


def relative_gap(upper: float, lower: float) -> float:
    """(UB - LB) / max(|UB|, |LB|), 0 when the bounds have met."""
    if upper <= lower + 1e-12:
        return 0.0
    denom = max(abs(upper), abs(lower))
    if not math.isfinite(upper) or not math.isfinite(lower):
        return math.inf
    return (upper - lower) / denom if denom > 0 else 0.0


BC_GAP_TOL = 1e-6
#: a pooled cut a node LP leaves out joins it when the LP point violates
#: it by more than this, relative to 1 + |rhs|
POOL_TOL = 1e-9


def run_branch_and_cut(
    inst: SipInstance,
    root: MasterModel,
    node_limit: int = 100_000,
    time_limit: float = math.inf,
) -> BcResult:
    """Best-bound search on the cut master with lazy cuts, its root node
    started from the root loop's last master basis.

    Each node LP carries the cuts of the pool that `MasterModel`
    describes: the tight cuts of its parent's final basis, the cuts
    added at the node, and every pooled cut its point violates. The
    root node starts from `root.basis`, restricted to its tight cuts.

    Integer-feasible candidates are re-cut (classical cuts at the LP
    value, integer optimality cuts at the exact value) and re-solved
    until clean before the incumbent is accepted. Exactness needs a
    binary first stage, which the integer optimality cuts require.

    The search runs over `merge_twins(inst)`, whose scenarios `root`'s
    theta columns and cuts must index, as those of the master
    `run_root_loop(inst, ...)` returns do."""
    require_binary_first_stage(inst)
    inst = merge_twins(inst)
    n = inst.nx
    fresh: list[int] = []  # pool indices of the cuts added at this node

    def relax(lb, ub, warm):
        rows, start = warm
        rows = np.concatenate([rows, fresh]).astype(np.int64)
        fresh.clear()
        while True:
            out, _, _ = root.solve(lb, ub, start, rows)
            if out.status == optbase.INFEASIBLE:
                return out.status, None, None, None
            if out.status != optbase.OPTIMAL:
                raise optbase.KernelError(f"node relaxation came back {out.status}")
            G, rhs = root.pool()
            slack = G @ out.x - rhs
            slack[rows] = 0.0
            viol = (slack < -POOL_TOL * (1.0 + np.abs(rhs))).nonzero()[0]
            if viol.size == 0:
                return out.status, out.objective, out.x, root.tight_rows(out.basis, rows)
            rows, start = np.concatenate([rows, viol]), out.basis

    def closed(bound, upper):
        return upper < math.inf and relative_gap(upper, bound) <= BC_GAP_TOL

    def on_integral(z, _value, _lb, _ub, upper):
        x, theta = z[:n], z[n:]
        xint = xy_round_first_stage(inst, x)
        for s in range(inst.nscen):
            for cut in (
                separate_classical(inst, s, xint, theta[s]),
                separate_integer_lshaped(inst, s, xint, theta[s], root.theta_lb[s]),
            ):
                if cut is not None and root.add_cut(cut):
                    fresh.append(len(root.cuts) - 1)
        if fresh:
            return optbase.RESOLVE
        qvals = np.array([eval_recourse(inst, s, xint) for s in range(inst.nscen)])
        if np.all(np.isfinite(qvals)):
            cand = float(inst.c @ xint + inst.probs @ qvals)
            if cand < upper - 1e-12:
                return xint, cand
        return None

    int_idx = np.nonzero(inst.vtype != 0)[0]
    warm = root.tight_rows(root.basis)
    with oracle_memo(inst, warm_starts=True):
        status, best_x, upper, bound, nodes = optbase.best_bound_search(
            inst.lb, inst.ub, int_idx, relax, closed, on_integral, node_limit, time_limit, warm
        )
    if status == optbase.INFEASIBLE:
        return BcResult("infeasible", None, math.inf, math.inf, nodes, 0.0)
    lower = min(bound, upper)
    return BcResult(status, best_x, upper, lower, nodes, relative_gap(upper, lower))


def solve_root_then_bc(
    inst: SipInstance,
    cfg: VariantConfig,
    node_limit: int = 100_000,
    trace: BoundTrace | None = None,
) -> tuple[BcResult, BoundTrace, float]:
    """Root loop under `cfg`, then branch-and-cut on its master with the
    rest of `cfg.time_limit`, counted from the start of the call.

    Returns the B&C result, the root bound trace and the root seconds.
    Passing `trace` lets the caller keep the partial record if a solve
    fails. A first stage that is not binary is refused before the root
    loop."""
    require_binary_first_stage(inst)
    start = time.monotonic()
    master, trace = run_root_loop(inst, cfg, trace)
    root_s = time.monotonic() - start
    left = max(cfg.time_limit - root_s, 0.0)
    res = run_branch_and_cut(inst, master, node_limit=node_limit, time_limit=left)
    # a search stopped before its first node still has the root bound
    res.bound = max(res.bound, trace.final_bound)
    res.gap = relative_gap(res.objective, res.bound)
    return res, trace, root_s


def solve_lbc(
    inst: SipInstance,
    delta: float = 0.5,
    k: int = 20,
    alpha: float = 1.0,
    time_limit: float = math.inf,
    workers: int = 1,
    node_limit: int = 100_000,
) -> tuple[BcResult, BoundTrace]:
    """Multiplier-cut root (MIP-selected span, weight norm) then branch-and-cut.

    `workers` is validated (>= 1) but scenarios always run in order."""
    cfg = VariantConfig(
        variant="span_mip", delta=delta, k=k, alpha=alpha, time_limit=time_limit, workers=workers
    )
    res, trace, _ = solve_root_then_bc(inst, cfg, node_limit)
    return res, trace


def solve_bbc(
    inst: SipInstance,
    time_limit: float = math.inf,
    workers: int = 1,
    node_limit: int = 100_000,
) -> tuple[BcResult, BoundTrace]:
    """Classical-cut root only, then the same branch-and-cut.

    `workers` is validated (>= 1) but scenarios always run in order."""
    cfg = VariantConfig(variant="benders_only", time_limit=time_limit, workers=workers)
    res, trace, _ = solve_root_then_bc(inst, cfg, node_limit)
    return res, trace


# ------------------------------------------------------------------ profiles


def gap_closed_profile(
    traces: dict[str, dict[str, BoundTrace]], gamma: float
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Fraction of instances on which each method closed gamma of the
    best gap closed by any method, as a step function of time.

    `traces[method][instance]` needs `baseline` set on every trace, and
    at least one record, every one with a finite lower bound.
    Returns the event-time grid and one curve per method."""
    if not (0.0 < gamma <= 1.0):
        raise ValueError("gamma must lie in (0, 1]")
    if not traces or all(not v for v in traces.values()):
        raise ValueError("no traces given")
    instances = sorted({p for per in traces.values() for p in per})
    for method, per in traces.items():
        for p, tr in per.items():
            if not math.isfinite(tr.baseline):
                raise ValueError(f"trace for {p!r} has no finite baseline bound")
            if not tr.records or not all(math.isfinite(r.lower_bound) for r in tr.records):
                raise ValueError(
                    f"trace of method {method!r} for {p!r} has no records "
                    "or a non-finite lower bound"
                )
    best: dict[str, float] = {}
    for p in instances:
        vals = [
            per[p].final_bound - per[p].baseline for per in traces.values() if p in per
        ]
        best[p] = max(vals)
    hit: dict[str, dict[str, float]] = {}
    for method, per in traces.items():
        hit[method] = {}
        for p, tr in per.items():
            target = gamma * best[p]
            t_hit = math.inf
            for rec in tr.records:
                if rec.lower_bound - tr.baseline >= target - 1e-12:
                    t_hit = rec.time_s
                    break
            hit[method][p] = t_hit
    times = sorted({t for per in hit.values() for t in per.values() if math.isfinite(t)})
    tau = np.array([0.0] + times) if 0.0 not in times else np.array(times)
    rho = {}
    nP = len(instances)
    for method, per in hit.items():
        rho[method] = np.array(
            [sum(1 for t in per.values() if t <= tval) / nP for tval in tau]
        )
    return tau, rho


def profile_to_csv(tau: np.ndarray, rho: dict[str, np.ndarray], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        methods = sorted(rho)
        w.writerow(["time_s"] + methods)
        for i, t in enumerate(tau):
            w.writerow([repr(float(t))] + [repr(float(rho[m][i])) for m in methods])
