"""Self-contained LP and MIP solving on top of the dense simplex kernel.

`LinearProgram` / `MipProgram` hold the problem data (constraint matrix,
senses, bounds). A builder passes the matrix as the dense array it
filled; the program keeps one read-only copy, with -0.0 stored as +0.0,
and `A.to_dense()` hands the solvers that copy itself. `solve_lp`
returns primal and dual vectors plus certificates.
`best_bound_search` is the one tree search of the package: `solve_mip`
runs it on the kernel and records every improving incumbent, so a
caller can harvest sub-optimal feasible points as well, and the
driver's branch-and-cut runs it on the cut master with lazy cuts.
Nodes branch on the most fractional integer column; a caller may name
columns to branch on first (the qbar oracle names the first stage).

The root starts the kernel from the caller's basis when one is given
(branch-and-cut passes the root loop's last master basis, restricted
to the cuts tight there; the qbar
oracle passes the scenario's last oracle root basis as `solve_mip`'s
`warm`, which stays primal feasible when only the objective changed,
and `solve_mip` returns its root LP's final basis for the next call).
`solve_mip` takes the root node's LP already solved as `root`, the
outcome of `solve_lp` on the same program (the exact recourse value
passes the Benders subproblem's LP); it ignores it when rounding the
integer columns' bounds changes their values. Every later
node starts from its parent's final basis (dual simplex after the bound
change), and a branch-and-cut node solved again after lazy cuts starts
from its own basis. This stays deterministic: identical inputs give
identical outputs, including the incumbent pool order and node counts.

`solve_mip` builds the kernel's per-program set-up (`_simplex.prepare`:
the structural columns A' and the slack bounds) once per tree instead
of once per node. Below the kernel's block-form cutoff of 100 rows a
node's final basis inverse rides along with its basis, and its children
start from a copy of it instead of inverting that basis again; the
kernel computes the same bits either way.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import _simplex

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
LIMIT = "limit"

FEASTOL = 1e-7
INTTOL = 1e-6

LE, GE, EQ = 0, 1, 2


class KernelError(RuntimeError):
    """Numerical failure inside the simplex kernel."""


class _Matrix:
    """A program's constraint matrix: a read-only float64 copy of the
    2-d array its builder filled, with every zero stored as +0.0."""

    def __init__(self, A):
        a = np.asarray(A, dtype=np.float64) + 0.0
        if a.ndim != 2:
            raise ValueError("expected a 2-d array")
        a.flags.writeable = False
        self._a = a
        self.nrows, self.ncols = a.shape

    def to_dense(self) -> np.ndarray:
        return self._a


@dataclass
class LinearProgram:
    """min (or max) c'x  s.t.  A x {<=,>=,=} rhs,  lb <= x <= ub."""

    c: np.ndarray
    A: _Matrix  # built from any 2-d array; `A.to_dense()` returns it
    senses: np.ndarray
    rhs: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    maximize: bool = False

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=np.float64)
        self.A = _Matrix(self.A)
        self.rhs = np.asarray(self.rhs, dtype=np.float64)
        self.lb = np.asarray(self.lb, dtype=np.float64)
        self.ub = np.asarray(self.ub, dtype=np.float64)
        n = self.c.size
        if self.A.ncols != n:
            raise ValueError("objective length does not match column count")
        senses = np.asarray(self.senses)
        if senses.shape != (self.A.nrows,):
            raise ValueError("sense count does not match row count")
        if not np.all((senses == LE) | (senses == GE) | (senses == EQ)):
            raise ValueError("row senses must be LE, GE or EQ")
        self.senses = senses.astype(np.int8)
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
    # final (basis, vstat) of an optimal LP, a warm start for a later solve:
    # `solve_lp`'s LP, or `solve_mip`'s root LP. The basis inverse that
    # `solve_mip`'s nodes hand their children as a third element stays
    # inside the tree
    basis: tuple | None = None


def _solve_dense(c, A, senses, rhs, lb, ub, itmax=0, warm=None, prep=None):
    return _simplex.solve_dense(A, rhs, senses, c, lb, ub, itmax=itmax, warm=warm, prep=prep)


def solve_lp(prog: LinearProgram, itmax: int = 0, warm=None) -> SolveOutcome:
    """Solve an LP; a `MipProgram` is solved as its LP relaxation.
    Optimal outcomes carry row duals satisfying strong duality and the
    final basis; infeasible ones carry Farkas row multipliers in `ray`;
    unbounded ones carry an improving primal direction. `warm` is the
    `basis` of an earlier outcome on the same columns and the same
    leading rows; rows added since then start with their slack basic."""
    sign = -1.0 if prog.maximize else 1.0
    dense = prog.A.to_dense()
    status, x, obj, y, ray, _, basis = _solve_dense(
        sign * prog.c, dense, prog.senses, prog.rhs, prog.lb, prog.ub, itmax, warm=warm
    )
    if status == _simplex.NUMERIC:
        raise KernelError("simplex reported numerical trouble")
    if status == _simplex.OPTIMAL:
        return SolveOutcome(status=OPTIMAL, x=x, objective=sign * obj, duals=sign * y, basis=basis)
    if status == _simplex.INFEASIBLE:
        return SolveOutcome(status=INFEASIBLE, x=x, ray=ray)
    if status == _simplex.UNBOUNDED:
        return SolveOutcome(status=UNBOUNDED, x=x, ray=ray)
    return SolveOutcome(status=LIMIT, x=x)


def _round_in_integer_bounds(lb, ub, is_int):
    lb = lb.copy()
    ub = ub.copy()
    ii = np.nonzero(is_int)[0]
    lb[ii] = np.where(np.isfinite(lb[ii]), np.ceil(lb[ii] - INTTOL), lb[ii])
    ub[ii] = np.where(np.isfinite(ub[ii]), np.floor(ub[ii] + INTTOL), ub[ii])
    return lb, ub


def root_is_relaxation(prog: MipProgram) -> bool:
    """True when the root node of `solve_mip(prog)` is `solve_lp(prog)`'s
    LP: rounding the integer columns' bounds changes no bound's value."""
    lb0, ub0 = _round_in_integer_bounds(prog.lb, prog.ub, prog.is_int)
    return np.array_equal(lb0, prog.lb) and np.array_equal(ub0, prog.ub)


#: integral-node hook result: rows were added, solve the node again
RESOLVE = "resolve"


def _most_fractional(x, idx):
    """The most fractional column of `idx` at `x` (lowest index on
    ties), or None when every one is integral."""
    frac = np.abs(x[idx] - np.round(x[idx]))
    if frac.size == 0 or frac.max() <= INTTOL:
        return None
    return int(idx[np.argmax(frac)])


def best_bound_search(
    lb,
    ub,
    int_idx,
    relax,
    closed,
    on_integral,
    node_limit=2_000_000,
    time_limit=math.inf,
    warm=None,
    first=None,
):
    """Deterministic best-bound branch and bound, minimizing.

    Nodes are (lb, ub) boxes, taken lowest bound first with FIFO ties;
    the root box goes first. `relax(lb, ub, warm)` returns (status,
    value, x, basis) with status OPTIMAL, INFEASIBLE or UNBOUNDED; `warm`
    is this function's `warm` at the root (None: a cold start), the
    node's own basis when it is solved again, and its parent's basis
    otherwise. `closed(bound, inc)`
    says a node of that bound cannot improve the incumbent value `inc`;
    when the best open node is closed the search is done. At a node
    whose `x[int_idx]` is integral `on_integral(x, value, lb, ub, inc)`
    returns a new incumbent (x, value), None to drop the node, or
    RESOLVE to solve the node again; otherwise the node branches, floor
    side first, on the most fractional column of `first` (a subset of
    `int_idx`; None: no preference) and, when those are all integral, on
    the most fractional column of `int_idx`, lowest index on ties.

    Returns (status, x, value, bound, nodes): OPTIMAL, INFEASIBLE (no
    incumbent), UNBOUNDED or LIMIT, with `bound` the lowest open bound
    (inf when none is left).
    """
    t0 = time.monotonic()
    heap = [(-math.inf, 0, lb, ub, warm)]
    seq = 1
    inc, inc_val, nodes = None, math.inf, 0
    while heap:
        top = heap[0][0]
        if closed(top, inc_val):
            return OPTIMAL, inc, inc_val, top, nodes
        if nodes >= node_limit or time.monotonic() - t0 >= time_limit:
            return LIMIT, inc, inc_val, top, nodes
        _, _, nlb, nub, warm = heapq.heappop(heap)
        nodes += 1
        while True:
            status, val, x, warm = relax(nlb, nub, warm)
            if status == UNBOUNDED:
                return UNBOUNDED, None, math.inf, -math.inf, nodes
            if status == INFEASIBLE or closed(val, inc_val):
                break
            j = None if first is None else _most_fractional(x, first)
            if j is None:
                j = _most_fractional(x, int_idx)
            if j is None:
                got = on_integral(x, val, nlb, nub, inc_val)
                if got is RESOLVE:
                    continue
                if got is not None:
                    inc, inc_val = got
                break
            ub_dn = nub.copy()
            ub_dn[j] = np.floor(x[j])
            lb_up = nlb.copy()
            lb_up[j] = np.ceil(x[j])
            heapq.heappush(heap, (val, seq, nlb, ub_dn, warm))
            heapq.heappush(heap, (val, seq + 1, lb_up, nub, warm))
            seq += 2
            break
    return (INFEASIBLE if inc is None else OPTIMAL), inc, inc_val, math.inf, nodes


def solve_mip(
    prog: MipProgram,
    node_limit: int = 2_000_000,
    time_limit: float = math.inf,
    first=None,
    root: SolveOutcome | None = None,
    warm=None,
) -> SolveOutcome:
    """`best_bound_search` on the simplex kernel.

    Every improving incumbent is appended to `incumbent_pool` as
    (x, objective). On a node or time limit the outcome has status
    "limit" and a valid `bound`. A node branches on the most fractional
    integer column, lowest index on ties; with `first` (column indices)
    it takes the integer columns among `first` before any other.

    `root` is `solve_lp(prog)`'s outcome, solved already, and stands in
    for the root node's LP; its children start from its (basis, vstat).
    It is ignored, and the root solved here, when `root_is_relaxation`
    is false (rounding the integer columns' bounds made the root node
    another LP) or when its status is "limit".

    `warm` is a (basis, vstat) pair the root LP's kernel solve starts
    from, the `basis` of an earlier outcome on the same columns and
    rows; a `root` in use takes precedence. The outcome's `basis` is
    the root LP's final (basis, vstat) when that LP ended optimal.
    """
    sign = -1.0 if prog.maximize else 1.0
    c = sign * prog.c
    dense = prog.A.to_dense()
    senses = prog.senses
    rhs = prog.rhs
    int_idx = np.nonzero(prog.is_int)[0]
    if first is not None:
        first = int_idx[np.isin(int_idx, first)]
    lb0, ub0 = _round_in_integer_bounds(prog.lb, prog.ub, prog.is_int)
    pool = []
    prep = None  # one kernel set-up for the whole tree, made at its first LP
    if root is not None and (root.status == LIMIT or not root_is_relaxation(prog)):
        root = None
    root_basis = []  # the root LP's final (basis, vstat), once it is solved

    def relax(lb, ub, warm):
        nonlocal root, prep
        if root is not None:  # the root node, solved by the caller
            out, root = root, None
            root_basis.append(out.basis)
            # the value as the kernel computes it: minimizing
            value = float(c @ out.x) if out.status == OPTIMAL else 0.0
            return out.status, value, out.x, out.basis
        if prep is None:
            prep = _simplex.prepare(dense, rhs, senses)
        status, x, obj, _, _, _, basis = _solve_dense(
            c, dense, senses, rhs, lb, ub, warm=warm, prep=prep
        )
        if status == _simplex.NUMERIC or status == _simplex.ITER_LIMIT:
            raise KernelError("simplex failure inside branch and bound")
        if not root_basis:
            root_basis.append(None if basis is None else basis[:2])
        return (OPTIMAL, INFEASIBLE, UNBOUNDED)[status], obj, x, basis

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

    status, inc, inc_val, bound, nodes = best_bound_search(
        lb0, ub0, int_idx, relax, closed, on_integral, node_limit, time_limit, warm, first
    )
    out = SolveOutcome(status=status, node_count=nodes)
    if root_basis:
        out.basis = root_basis[0]
    if inc is not None:
        out.x = inc
        out.objective = sign * inc_val
    if status == OPTIMAL:
        out.bound = out.objective
    elif status == LIMIT:
        out.bound = sign * min(bound, inc_val)
    out.incumbent_pool = [(xv, sign * ov) for (xv, ov) in pool]
    return out

