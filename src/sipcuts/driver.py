"""Root-node cutting-plane loop and branch-and-cut.

The root loop alternates two blocks on the master LP relaxation:
classical (LP-dual) cuts until none is violated, then one round of the
configured multiplier-based block per scenario. It stops when a round
adds nothing, when bound progress stalls (early stop), on the round
cap, or on the time limit. Branch-and-cut then drives the cut-carrying
master to integer optimality with lazy classical and integer optimality
cuts at integer-feasible candidates.

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
"""

from __future__ import annotations

import csv
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import optbase
from .benders import (
    BENDERS_VIOL_TOL,
    Cut,
    MasterModel,
    compute_theta_lower_bound,
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
)
from .model import BIN, InstanceError, SipInstance, eval_recourse

VARIANTS = ("benders_only", "strengthened", "exact", "span_coef", "span_weight", "span_mip")

TRACE_HEADER = ("time_s", "lower_bound", "iter", "n_benders", "n_lagrangian", "n_intL")


@dataclass
class VariantConfig:
    variant: str = "benders_only"
    delta: float = 0.0  # relative slack accepted by the multiplier search
    k: int = 20  # span size (ignored by exact/strengthened/benders_only)
    alpha: float = 1.0  # weight of the epigraph multiplier in the normalization
    time_limit: float = math.inf  # seconds, wall clock
    early_stop: bool = True
    early_window: int = 5
    early_fraction: float = 0.01
    benders_cap: int = 500  # classical iterations before the first multiplier block
    max_rounds: int = 200  # multiplier rounds (safety cap)
    workers: int = 1

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; pick from {VARIANTS}")
        if not (0.0 <= self.delta < 1.0):
            raise ValueError("delta must lie in [0, 1)")
        if self.k < 1:
            raise ValueError("span size must be at least 1")
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if self.early_window < 1 or not (0.0 < self.early_fraction < 1.0):
            raise ValueError("early stop needs window >= 1 and fraction in (0, 1)")
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
    """

    def __init__(self, baseline: float = math.nan):
        self.baseline = baseline
        self.records: list[TraceRecord] = []
        self.stop_reason = ""
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

    def gap_closed_at(self, t: float) -> float:
        """Bound improvement over the baseline achieved by time t."""
        if math.isnan(self.baseline):
            raise ValueError("trace has no baseline bound")
        best = -math.inf
        for rec in self.records:
            if rec.time_s <= t:
                best = rec.lower_bound
        return 0.0 if best == -math.inf else best - self.baseline

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(TRACE_HEADER)
            for r in self.records:
                w.writerow(
                    [repr(r.time_s), repr(r.lower_bound), r.iteration, r.n_benders, r.n_lagrangian, r.n_intl]
                )


def _parallel(workers: int, fn, items):
    """Map preserving order; results are worker-count independent."""
    if workers == 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _latest_classical(cuts: list[Cut], s: int) -> Cut | None:
    for cut in reversed(cuts):
        if cut.scenario == s and cut.family == "benders":
            return cut
    return None


def _solve_master(master: MasterModel):
    out, x, theta = master.solve(integer=False)
    if out.status != optbase.OPTIMAL:
        raise InstanceError(f"cut master is {out.status}; cannot run the root loop")
    return out.objective, x, theta


def run_root_loop(
    inst: SipInstance, cfg: VariantConfig, trace: BoundTrace | None = None
) -> tuple[MasterModel, BoundTrace]:
    """Grow the cut master until the configured variant is saturated.

    Passing `trace` lets the caller keep the partial record if a solve
    fails mid-loop."""
    start = time.monotonic()
    theta_lb = np.array([compute_theta_lower_bound(inst, s) for s in range(inst.nscen)])
    master = MasterModel(inst, theta_lb)
    if trace is None:
        trace = BoundTrace()
    pools = [ScenarioPool() for _ in range(inst.nscen)]
    scen = list(range(inst.nscen))
    iteration = 0

    def out_of_time() -> bool:
        return time.monotonic() - start >= cfg.time_limit

    def resolve() -> tuple[float, np.ndarray, np.ndarray]:
        nonlocal iteration
        iteration += 1
        bound, x, theta = _solve_master(master)
        trace.record(bound, iteration, master.counts())
        return bound, x, theta

    def classical_round(x, theta) -> bool:
        cuts = _parallel(
            cfg.workers,
            lambda s: separate_classical(inst, s, x, theta[s], iteration),
            scen,
        )
        added = [master.add_cut(c) for c in cuts if c is not None]
        return any(added)

    bound, x, theta = resolve()
    classical_clean = False
    for _ in range(cfg.benders_cap):
        if out_of_time():
            trace.stop_reason = "time_limit"
            return master, trace
        if not classical_round(x, theta):
            classical_clean = True
            break
        bound, x, theta = resolve()

    if cfg.variant == "benders_only":
        trace.stop_reason = "saturated" if classical_clean else "iteration_cap"
        return master, trace

    phase_bounds = [bound]
    for _ in range(cfg.max_rounds):
        if out_of_time():
            trace.stop_reason = "time_limit"
            return master, trace
        if classical_round(x, theta):
            bound, x, theta = resolve()
            phase_bounds.append(bound)
        else:
            new_cuts = _parallel(
                cfg.workers,
                lambda s: _multiplier_cut(inst, s, x, theta[s], master.cuts, pools[s], cfg, iteration),
                scen,
            )
            added = [master.add_cut(c) for c in new_cuts if c is not None]
            if not any(added):
                trace.stop_reason = "saturated"
                return master, trace
            bound, x, theta = resolve()
            phase_bounds.append(bound)
        if cfg.early_stop and len(phase_bounds) > cfg.early_window:
            total = phase_bounds[-1] - phase_bounds[0]
            recent = phase_bounds[-1] - phase_bounds[-1 - cfg.early_window]
            if total > 0.0 and recent < cfg.early_fraction * total:
                trace.stop_reason = "early_stop"
                return master, trace
    trace.stop_reason = "round_cap"
    return master, trace


def separate_classical(inst, s, x_hat, theta_hat, born_iter=-1) -> Cut | None:
    """Classical cut at (x_hat, theta_hat), or the Farkas feasibility cut
    when the scenario LP is infeasible there; None unless violated enough."""
    res = solve_benders_subproblem(inst, s, x_hat)
    if res.feas_cut is not None:
        cut, viol, tol = res.feas_cut, -res.feas_cut.slack(x_hat, 0.0), BENDERS_VIOL_TOL
    else:
        cut = res.cut
        viol, tol = -cut.slack(x_hat, theta_hat), BENDERS_VIOL_TOL * (abs(theta_hat) + 1.0)
    if viol > tol:
        cut.born_iter = born_iter
        cut.violation_at_birth = viol
        return cut
    return None


def _multiplier_cut(inst, s, x, theta_s, cuts, pool, cfg: VariantConfig, iteration) -> Cut | None:
    scen_tol = LAGR_VIOL_TOL * (abs(theta_s) + 1.0)
    if cfg.variant == "strengthened":
        parent = _latest_classical(cuts, s)
        if parent is None:
            return None
        cand = strengthen_benders(inst, s, parent, pool, born_iter=iteration)
        if -cand.slack(x, theta_s) > scen_tol:
            cand.violation_at_birth = -cand.slack(x, theta_s)
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
    res = separate_restricted(
        inst, s, x, theta_s, norm, pool=pool, delta=cfg.delta, born_iter=iteration
    )
    return res.cut


# ------------------------------------------------------------------ B&C


@dataclass
class LazyCuts:
    benders: bool = True
    integer_lshaped: bool = True


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


def run_branch_and_cut(
    inst: SipInstance,
    root: MasterModel,
    lazy: LazyCuts = LazyCuts(),
    node_limit: int = 100_000,
    time_limit: float = math.inf,
) -> BcResult:
    """Best-bound search on the cut master with lazy cuts.

    Integer-feasible candidates are re-cut (classical cuts at the LP
    value, integer optimality cuts at the exact value) and re-solved
    until clean before the incumbent is accepted. Exactness needs a
    binary first stage when integer optimality cuts are on, or fully
    continuous recourse with classical cuts alone."""
    if lazy.integer_lshaped and np.any(inst.vtype != BIN):
        raise InstanceError("integer optimality cuts require a pure-binary first stage")
    n = inst.nx
    int_mask = inst.vtype != 0
    memo: dict[bytes, np.ndarray] = {}

    def exact_q(xint: np.ndarray) -> np.ndarray:
        key = np.round(xint, 9).tobytes()
        got = memo.get(key)
        if got is None:
            got = np.array([eval_recourse(inst, s, xint) for s in range(inst.nscen)])
            memo[key] = got
        return got

    def relax(lb, ub):
        out, _, _ = root.solve(integer=False, lb=lb, ub=ub)
        if out.status not in (optbase.OPTIMAL, optbase.INFEASIBLE):
            raise optbase.KernelError(f"node relaxation came back {out.status}")
        return out.status, out.objective, out.x

    def closed(bound, upper):
        return upper < math.inf and relative_gap(upper, bound) <= BC_GAP_TOL

    def on_integral(z, _value, _lb, _ub, upper):
        x, theta = z[:n], z[n:]
        xint = np.where(int_mask, np.round(x) + 0.0, x)
        qvals = exact_q(xint)
        added = False
        for s in range(inst.nscen):
            if lazy.benders:
                cut = separate_classical(inst, s, xint, theta[s])
                if cut is not None and root.add_cut(cut):
                    added = True
            if lazy.integer_lshaped and math.isfinite(qvals[s]):
                cut = separate_integer_lshaped(
                    inst, s, xint, theta[s], root.theta_lb[s], q_exact=qvals[s]
                )
                if cut is not None and root.add_cut(cut):
                    added = True
        if added:
            return optbase.RESOLVE
        if np.all(np.isfinite(qvals)):
            cand = float(inst.c @ xint + inst.probs @ qvals)
            if cand < upper - 1e-12:
                return xint, cand
        return None

    int_idx = np.nonzero(int_mask)[0]
    status, best_x, upper, bound, nodes = optbase.best_bound_search(
        inst.lb, inst.ub, int_idx, relax, closed, on_integral, node_limit, time_limit
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
    fails."""
    start = time.monotonic()
    master, trace = run_root_loop(inst, cfg, trace)
    root_s = time.monotonic() - start
    left = max(cfg.time_limit - root_s, 0.0)
    res = run_branch_and_cut(inst, master, node_limit=node_limit, time_limit=left)
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
    """Multiplier-cut root (MIP-selected span, weight norm) then branch-and-cut."""
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
    """Classical-cut root only, then the same branch-and-cut."""
    cfg = VariantConfig(variant="benders_only", time_limit=time_limit, workers=workers)
    res, trace, _ = solve_root_then_bc(inst, cfg, node_limit)
    return res, trace


# ------------------------------------------------------------------ profiles


def gap_closed_profile(
    traces: dict[str, dict[str, BoundTrace]], gamma: float
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Fraction of instances on which each method closed gamma of the
    best gap closed by any method, as a step function of time.

    `traces[method][instance]` needs `baseline` set on every trace.
    Returns the event-time grid and one curve per method."""
    if not (0.0 < gamma <= 1.0):
        raise ValueError("gamma must lie in (0, 1]")
    if not traces or all(not v for v in traces.values()):
        raise ValueError("no traces given")
    instances = sorted({p for per in traces.values() for p in per})
    for per in traces.values():
        for p, tr in per.items():
            if math.isnan(tr.baseline):
                raise ValueError(f"trace for {p!r} has no baseline bound")
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
