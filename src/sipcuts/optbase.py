"""Self-contained LP and MIP solving on top of the dense simplex kernel.

`LinearProgram` / `MipProgram` hold the problem data (sparse rows, senses,
bounds). `solve_lp` returns primal and dual vectors plus certificates.
`best_bound_search` is the one tree search of the package: `solve_mip`
runs it on the kernel and records every improving incumbent, so a
caller can harvest sub-optimal feasible points as well, and the
driver's branch-and-cut runs it on the cut master with lazy cuts.

Everything is deterministic: identical inputs give identical outputs,
including the incumbent pool order and node counts.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import _simplex
from .sparse import CooMatrix

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
LIMIT = "limit"

FEASTOL = 1e-7
INTTOL = 1e-6

LE, GE, EQ = 0, 1, 2
_SENSE_CODE = {"<=": LE, ">=": GE, "==": EQ, "=": EQ}
_SENSE_STR = {LE: "<=", GE: ">=", EQ: "="}


class KernelError(RuntimeError):
    """Numerical failure inside the simplex kernel."""


def _as_sense_array(senses, nrows: int) -> np.ndarray:
    out = np.empty(nrows, dtype=np.int8)
    if len(senses) != nrows:
        raise ValueError("sense count does not match row count")
    for i, s in enumerate(senses):
        if isinstance(s, str):
            out[i] = _SENSE_CODE[s]
        else:
            out[i] = int(s)
    return out


@dataclass
class LinearProgram:
    """min (or max) c'x + c0  s.t.  A x {<=,>=,=} rhs,  lb <= x <= ub."""

    c: np.ndarray
    A: CooMatrix
    senses: np.ndarray
    rhs: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    c0: float = 0.0
    maximize: bool = False
    names: list[str] | None = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=np.float64)
        self.rhs = np.asarray(self.rhs, dtype=np.float64)
        self.lb = np.asarray(self.lb, dtype=np.float64)
        self.ub = np.asarray(self.ub, dtype=np.float64)
        n = self.c.size
        if self.A.ncols != n:
            raise ValueError("objective length does not match column count")
        self.senses = _as_sense_array(self.senses, self.A.nrows)
        if self.rhs.size != self.A.nrows:
            raise ValueError("rhs length does not match row count")
        if self.lb.size != n or self.ub.size != n:
            raise ValueError("bound length does not match column count")
        if np.any(self.lb > self.ub):
            j = int(np.argmax(self.lb > self.ub))
            raise ValueError(f"empty bound interval on column {j}")

    @property
    def nvars(self) -> int:
        return int(self.c.size)

    @property
    def nrows(self) -> int:
        return int(self.A.nrows)


@dataclass
class MipProgram(LinearProgram):
    """LinearProgram plus integrality markers."""

    is_int: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))

    def __post_init__(self):
        super().__post_init__()
        self.is_int = np.asarray(self.is_int, dtype=bool)
        if self.is_int.size != self.nvars:
            raise ValueError("integrality marker length does not match columns")


def lp_relaxation(prog: MipProgram) -> LinearProgram:
    return LinearProgram(
        c=prog.c.copy(),
        A=prog.A,
        senses=prog.senses.copy(),
        rhs=prog.rhs.copy(),
        lb=prog.lb.copy(),
        ub=prog.ub.copy(),
        c0=prog.c0,
        maximize=prog.maximize,
        names=prog.names,
    )


@dataclass
class SolveOutcome:
    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    duals: np.ndarray | None = None
    ray: np.ndarray | None = None
    bound: float | None = None
    incumbent_pool: list = field(default_factory=list)
    node_count: int = 0
    iterations: int = 0
    wall_time: float = 0.0


def _solve_dense(c, A, senses, rhs, lb, ub, itmax=0):
    return _simplex.solve_dense(A, rhs, senses, c, lb, ub, itmax=itmax)


def solve_lp(prog: LinearProgram, itmax: int = 0) -> SolveOutcome:
    """Solve an LP. Optimal outcomes carry row duals satisfying strong
    duality; infeasible ones carry Farkas row multipliers in `ray`;
    unbounded ones carry an improving primal direction."""
    t0 = time.perf_counter()
    sign = -1.0 if prog.maximize else 1.0
    dense = prog.A.to_dense()
    status, x, obj, y, ray, it = _solve_dense(
        sign * prog.c, dense, prog.senses, prog.rhs, prog.lb, prog.ub, itmax
    )
    wall = time.perf_counter() - t0
    if status == _simplex.NUMERIC:
        raise KernelError("simplex reported numerical trouble")
    if status == _simplex.OPTIMAL:
        return SolveOutcome(
            status=OPTIMAL,
            x=x,
            objective=sign * obj + prog.c0,
            duals=sign * y,
            iterations=it,
            wall_time=wall,
        )
    if status == _simplex.INFEASIBLE:
        return SolveOutcome(status=INFEASIBLE, x=x, ray=ray, iterations=it, wall_time=wall)
    if status == _simplex.UNBOUNDED:
        return SolveOutcome(status=UNBOUNDED, x=x, ray=ray, iterations=it, wall_time=wall)
    return SolveOutcome(status=LIMIT, x=x, iterations=it, wall_time=wall)


def _round_in_integer_bounds(lb, ub, is_int):
    lb = lb.copy()
    ub = ub.copy()
    ii = np.nonzero(is_int)[0]
    lb[ii] = np.where(np.isfinite(lb[ii]), np.ceil(lb[ii] - INTTOL), lb[ii])
    ub[ii] = np.where(np.isfinite(ub[ii]), np.floor(ub[ii] + INTTOL), ub[ii])
    return lb, ub


#: integral-node hook result: rows were added, solve the node again
RESOLVE = "resolve"


def best_bound_search(
    lb, ub, int_idx, relax, closed, on_integral, node_limit=2_000_000, time_limit=math.inf
):
    """Deterministic best-bound branch and bound, minimizing.

    Nodes are (lb, ub) boxes, taken lowest bound first with FIFO ties;
    the root box goes first. `relax(lb, ub)` returns (status, value, x)
    with status OPTIMAL, INFEASIBLE or UNBOUNDED. `closed(bound, inc)`
    says a node of that bound cannot improve the incumbent value `inc`;
    when the best open node is closed the search is done. At a node
    whose `x[int_idx]` is integral `on_integral(x, value, lb, ub, inc)`
    returns a new incumbent (x, value), None to drop the node, or
    RESOLVE to solve the node again; otherwise the node branches on the
    most fractional integer (lowest index on ties), floor side first.

    Returns (status, x, value, bound, nodes): OPTIMAL, INFEASIBLE (no
    incumbent), UNBOUNDED or LIMIT, with `bound` the lowest open bound
    (inf when none is left).
    """
    t0 = time.monotonic()
    heap = [(-math.inf, 0, lb, ub)]
    seq = 1
    inc, inc_val, nodes = None, math.inf, 0
    while heap:
        top = heap[0][0]
        if closed(top, inc_val):
            return OPTIMAL, inc, inc_val, top, nodes
        if nodes >= node_limit or time.monotonic() - t0 >= time_limit:
            return LIMIT, inc, inc_val, top, nodes
        _, _, nlb, nub = heapq.heappop(heap)
        nodes += 1
        while True:
            status, val, x = relax(nlb, nub)
            if status == UNBOUNDED:
                return UNBOUNDED, None, math.inf, -math.inf, nodes
            if status == INFEASIBLE or closed(val, inc_val):
                break
            frac = np.abs(x[int_idx] - np.round(x[int_idx]))
            if frac.size == 0 or frac.max() <= INTTOL:
                got = on_integral(x, val, nlb, nub, inc_val)
                if got is RESOLVE:
                    continue
                if got is not None:
                    inc, inc_val = got
                break
            j = int(int_idx[np.argmax(frac)])
            ub_dn = nub.copy()
            ub_dn[j] = np.floor(x[j])
            lb_up = nlb.copy()
            lb_up[j] = np.ceil(x[j])
            heapq.heappush(heap, (val, seq, nlb, ub_dn))
            heapq.heappush(heap, (val, seq + 1, lb_up, nub))
            seq += 2
            break
    return (INFEASIBLE if inc is None else OPTIMAL), inc, inc_val, math.inf, nodes


def solve_mip(
    prog: MipProgram,
    node_limit: int = 2_000_000,
    time_limit: float | None = None,
    itmax: int = 0,
) -> SolveOutcome:
    """`best_bound_search` on the simplex kernel.

    Every improving incumbent is appended to `incumbent_pool` as
    (x, objective). On a node or time limit the outcome has status
    "limit" and a valid `bound`.
    """
    t0 = time.perf_counter()
    sign = -1.0 if prog.maximize else 1.0
    c = sign * prog.c
    dense = prog.A.to_dense()
    senses = prog.senses
    rhs = prog.rhs
    int_idx = np.nonzero(prog.is_int)[0]
    lb0, ub0 = _round_in_integer_bounds(prog.lb, prog.ub, prog.is_int)
    pool = []

    def relax(lb, ub):
        status, x, obj, _, _, _ = _solve_dense(c, dense, senses, rhs, lb, ub, itmax)
        if status == _simplex.NUMERIC or status == _simplex.ITER_LIMIT:
            raise KernelError("simplex failure inside branch and bound")
        return (OPTIMAL, INFEASIBLE, UNBOUNDED)[status], obj, x

    def closed(bound, inc_val):
        return bound >= inc_val - 1e-9 * (1.0 + abs(inc_val))

    def on_integral(x, obj, lb, ub, inc_val):
        # snap integer parts and re-verify rows
        xs = x.copy()
        xs[int_idx] = np.clip(np.round(xs[int_idx]) + 0.0, lb[int_idx], ub[int_idx])
        gap = dense @ xs - rhs
        v = np.where(senses == LE, gap, np.where(senses == GE, -gap, np.abs(gap)))
        if np.max(v / (1.0 + np.abs(rhs)), initial=0.0) <= 10 * FEASTOL:
            val = float(c @ xs)
        else:
            xs, val = x.copy(), obj  # snap broke a row, keep the LP point
        if val < inc_val - 1e-9 * (1.0 + abs(val)):
            pool.append((xs.copy(), val))
            return xs, val
        return None

    limit = math.inf if time_limit is None else time_limit
    status, inc, inc_val, bound, nodes = best_bound_search(
        lb0, ub0, int_idx, relax, closed, on_integral, node_limit, limit
    )
    out = SolveOutcome(status=status, node_count=nodes, wall_time=time.perf_counter() - t0)
    if inc is not None:
        out.x = inc
        out.objective = sign * inc_val + prog.c0
    if status == OPTIMAL:
        out.bound = out.objective
    elif status == LIMIT:
        out.bound = sign * min(bound, inc_val) + prog.c0
    out.incumbent_pool = [(xv, sign * ov + prog.c0) for (xv, ov) in pool]
    return out


def to_lp_text(prog: LinearProgram) -> str:
    """Render a deterministic LP-format-like dump for debugging."""

    def name(j):
        if prog.names and j < len(prog.names):
            return prog.names[j]
        return f"x{j}"

    def term(coef, j):
        return f"{'+' if coef >= 0 else '-'} {abs(coef):.12g} {name(j)}"

    lines = ["\\ sipcuts debug dump", "Maximize" if prog.maximize else "Minimize"]
    obj = " ".join(term(prog.c[j], j) for j in range(prog.nvars) if prog.c[j] != 0.0)
    lines.append(f" obj: {obj if obj else '0'}")
    lines.append("Subject To")
    dense = prog.A.to_dense()
    for i in range(prog.nrows):
        row = " ".join(term(dense[i, j], j) for j in range(prog.nvars) if dense[i, j] != 0.0)
        lines.append(f" r{i}: {row if row else '0'} {_SENSE_STR[int(prog.senses[i])]} {prog.rhs[i]:.12g}")
    lines.append("Bounds")
    for j in range(prog.nvars):
        lo = "-inf" if not np.isfinite(prog.lb[j]) else f"{prog.lb[j]:.12g}"
        hi = "+inf" if not np.isfinite(prog.ub[j]) else f"{prog.ub[j]:.12g}"
        lines.append(f" {lo} <= {name(j)} <= {hi}")
    if isinstance(prog, MipProgram) and prog.is_int.any():
        lines.append("General")
        for j in np.nonzero(prog.is_int)[0]:
            lines.append(f" {name(int(j))}")
    lines.append("End")
    return "\n".join(lines) + "\n"
