"""Problem data model for two-stage stochastic integer programs.

An instance is
    min  c'x + sum_s p_s Q_s(x)
    s.t. A x >= b, bounds, integrality on x
with recourse
    Q_s(x) = min { q_s'y : W_s y >= h_s - T_s x, bounds, integrality on y }
mapping to +inf when the subproblem is infeasible. All constraint rows
are stored in >= form; writers that need equalities emit paired rows.
The blocks A, W_s and T_s are dense 2-d float arrays.

Scenario oracles answer through `memo_answer`: here the exact recourse
value `eval_recourse` and the scenario LP relaxation
`recourse_relaxation`, in `benders` the theta bound, in `lagrangian`
the weighted value `eval_qbar`. While an `oracle_memo` is open for an
instance, each question is solved once: the key is the oracle's name,
the scenario's class (`scenario_classes`: scenarios with byte-identical
data share one) and the exact bytes of the point asked about. Sampled
scenario sets often repeat a scenario, and cutting-plane loops ask
again at points they have seen. Keys are exact bytes, not digests, so
a repeat gets the very answer a fresh solve would give and no
collision needs ruling out; the points are short vectors, while keying
whole programs would hold megabytes.

Two questions share the relaxation. The classical (Benders)
subproblem builds its cut from it, and `eval_recourse` hands it to
`solve_mip` as the recourse MIP's root node, so at a point where
branch-and-cut asks both, one LP serves the two. `eval_recourse` asks
for it only when rounding the integer recourse bounds leaves the box as
it is (`optbase.root_is_relaxation`); otherwise the MIP's root is
another LP. Each caller turns an unbounded LP into its own error.

A memo opened with `warm_starts` also keeps, per dual class
(`dual_classes`: scenarios with byte-identical q, W and bounds), the
last optimal basis of a relaxation it solved, and starts the class's
next relaxation from it. That is the bunching of the L-shaped method
(Wets 1988): only h - T x differs within a class, so the basis stays
dual feasible and the dual simplex repairs its primal side in a few
pivots. The value is a cold solve's up to rounding, but at a degenerate
point the shared answer may be another dual vertex than a cold solve
would return, so the cut and the root node built from it may differ.

Every open memo, with `warm_starts` or not, also keeps per scenario
class the root (basis, vstat) of the last qbar MIP it solved, and
`lagrangian` starts the class's next qbar root from it
(`solve_from_start`). Between two such MIPs only the objective
(pi, pi0 q) changes, so the basis is primal feasible and the kernel
goes to primal phase 2 with it: MIP reoptimization (Gamrath, Hiller &
Witzig 2015). The oracle value stays exact; the optimizer and
incumbents may be other optima than a cold solve's. The key is the
scenario class, not a class of equal W, h and T: SNIP's scenarios share
those, and at pi0 = 0, where y has no cost, a start from another q
keeps that scenario's y, whose recourse cost loosens the pool. All
starts, one dict keyed by (oracle, class), die with the memo, so
consecutive solves do the same work.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import optbase
from .optbase import GE, MipProgram, SolveOutcome, solve_lp, solve_mip

CONT, INT, BIN = 0, 1, 2
_VTYPE_LETTER = {CONT: "C", INT: "I", BIN: "B"}
_VTYPE_CODE = {"C": CONT, "I": INT, "B": BIN}


class InstanceError(ValueError):
    """Inconsistent instance data."""


class RecourseUnboundedError(RuntimeError):
    """A scenario subproblem is unbounded below."""


class EnumerationCapError(RuntimeError):
    """Enumeration exceeded the point cap."""

    def __init__(self, msg, count):
        super().__init__(msg)
        self.count = count


def vtype_from_string(s: str) -> np.ndarray:
    try:
        return np.array([_VTYPE_CODE[ch] for ch in s], dtype=np.int8)
    except KeyError as exc:
        raise InstanceError(f"unknown variable type letter {exc}") from exc


def vtype_to_string(v: np.ndarray) -> str:
    return "".join(_VTYPE_LETTER[int(code)] for code in v)


def _matrix(prefix, name, m) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise InstanceError(f"{prefix}: {name} must be a 2-d array")
    return m


def _check_finite(prefix, **data):
    for name, v in data.items():
        if not np.all(np.isfinite(v)):
            raise InstanceError(f"{prefix}: {name} has a non-finite entry")


def _check_vectors(prefix, n, vtype, lb, ub):
    if vtype.size != n or lb.size != n or ub.size != n:
        raise InstanceError(f"{prefix}: type/bound arrays do not match {n} variables")
    if np.any(np.isnan(lb)) or np.any(np.isnan(ub)):
        raise InstanceError(f"{prefix}: NaN bound")
    if np.any(lb > ub):
        j = int(np.argmax(lb > ub))
        raise InstanceError(f"{prefix}: empty bound interval on variable {j}")
    for j in range(n):
        if vtype[j] == BIN and (lb[j] < 0.0 or ub[j] > 1.0):
            raise InstanceError(f"{prefix}: binary variable {j} has bounds outside [0,1]")


@dataclass
class Scenario:
    prob: float
    q: np.ndarray
    W: np.ndarray
    h: np.ndarray
    T: np.ndarray
    vtype: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=np.float64)
        self.W = _matrix("scenario", "W", self.W)
        self.h = np.asarray(self.h, dtype=np.float64)
        self.T = _matrix("scenario", "T", self.T)
        self.vtype = np.asarray(self.vtype, dtype=np.int8)
        self.lb = np.asarray(self.lb, dtype=np.float64)
        self.ub = np.asarray(self.ub, dtype=np.float64)

    @property
    def ny(self) -> int:
        return int(self.q.size)

    @property
    def nrows(self) -> int:
        return int(self.W.shape[0])


@dataclass
class SipInstance:
    name: str
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    vtype: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    scenarios: list[Scenario] = field(default_factory=list)

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=np.float64)
        self.A = _matrix("first stage", "A", self.A)
        self.b = np.asarray(self.b, dtype=np.float64)
        self.vtype = np.asarray(self.vtype, dtype=np.int8)
        self.lb = np.asarray(self.lb, dtype=np.float64)
        self.ub = np.asarray(self.ub, dtype=np.float64)
        n = self.c.size
        if self.A.shape[1] != n:
            raise InstanceError("first stage: constraint columns do not match objective length")
        if self.b.size != self.A.shape[0]:
            raise InstanceError("first stage: rhs length does not match row count")
        _check_finite("first stage", c=self.c, b=self.b, A=self.A)
        _check_vectors("first stage", n, self.vtype, self.lb, self.ub)
        if not self.scenarios:
            raise InstanceError("instance has no scenarios")
        total = 0.0
        for s, scen in enumerate(self.scenarios):
            _check_finite(f"scenario {s}", prob=scen.prob, q=scen.q, h=scen.h, W=scen.W, T=scen.T)
            if scen.prob <= 0.0:
                raise InstanceError(f"scenario {s}: probability must be positive")
            total += scen.prob
            if scen.nrows != scen.h.size:
                raise InstanceError(f"scenario {s}: h length does not match W rows")
            if scen.T.shape[0] != scen.nrows:
                raise InstanceError(f"scenario {s}: T rows do not match W rows")
            if scen.T.shape[1] != n:
                raise InstanceError(f"scenario {s}: T columns do not match first-stage variables")
            if scen.W.shape[1] != scen.q.size:
                raise InstanceError(f"scenario {s}: q length does not match W columns")
            _check_vectors(f"scenario {s}", scen.ny, scen.vtype, scen.lb, scen.ub)
        if abs(total - 1.0) > 1e-9:
            raise InstanceError(f"scenario probabilities sum to {total!r}, expected 1")

    @property
    def nx(self) -> int:
        return int(self.c.size)

    @property
    def nscen(self) -> int:
        return len(self.scenarios)

    @property
    def probs(self) -> np.ndarray:
        return np.array([s.prob for s in self.scenarios])


def toy_instance() -> SipInstance:
    """Single binary first-stage variable, two equiprobable scenarios whose
    integer recourse must cover 1 - x at unit costs 2 and 3. Used across
    the test suite; its optimal value is 1 at x = 1."""
    scen = []
    for cost in (2.0, 3.0):
        scen.append(
            Scenario(
                prob=0.5,
                q=np.array([cost]),
                W=np.array([[1.0]]),
                h=np.array([1.0]),
                T=np.array([[1.0]]),
                vtype=np.array([INT], dtype=np.int8),
                lb=np.array([0.0]),
                ub=np.array([np.inf]),
            )
        )
    return SipInstance(
        name="toy2s",
        c=np.array([1.0]),
        A=np.zeros((0, 1)),
        b=np.zeros(0),
        vtype=np.array([BIN], dtype=np.int8),
        lb=np.array([0.0]),
        ub=np.array([1.0]),
        scenarios=scen,
    )


#: the scenario fields an oracle reads; `prob` is not one of them
_ORACLE_FIELDS = ("q", "h", "lb", "ub", "vtype", "W", "T")
#: the fields that fix a scenario LP's dual feasible bases
_DUAL_FIELDS = ("q", "W", "lb", "ub")


def _same_data(a: Scenario, b: Scenario, fields: tuple[str, ...]) -> bool:
    def same(u: np.ndarray, v: np.ndarray) -> bool:
        return u is v or (u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes())

    return all(same(getattr(a, f), getattr(b, f)) for f in fields)


def _classes(inst: SipInstance, fields: tuple[str, ...]) -> list[int]:
    """Per scenario, the index of the first scenario whose `fields` are
    byte-identical to its own."""
    firsts: list[int] = []  # the first scenario of each class
    classes = []
    for s, scen in enumerate(inst.scenarios):
        r = next((r for r in firsts if _same_data(scen, inst.scenarios[r], fields)), s)
        if r == s:
            firsts.append(s)
        classes.append(r)
    return classes


def scenario_classes(inst: SipInstance) -> list[int]:
    """Per scenario, the index of the first scenario whose oracle data
    (q, W, h, T, types and bounds) is byte-identical to its own."""
    return _classes(inst, _ORACLE_FIELDS)


def dual_classes(inst: SipInstance) -> list[int]:
    """Per scenario, the index of the first scenario with byte-identical
    q, W and bounds: an optimal basis of one's LP relaxation, at any x,
    is dual feasible for every other's at every x."""
    return _classes(inst, _DUAL_FIELDS)


class _OracleMemo:
    def __init__(self, inst: SipInstance, warm_starts: bool):
        self.inst = inst
        self.classes = scenario_classes(inst)
        self.answers: dict = {}
        self.warm_starts = warm_starts
        self.dual_classes = dual_classes(inst)
        #: (oracle, class) -> (basis, vstat) of the oracle's last optimal LP
        #: of that class: the relaxation by dual class, qbar by scenario class
        self.starts: dict[tuple, tuple] = {}


_open_memo: _OracleMemo | None = None


@contextmanager
def oracle_memo(inst: SipInstance, warm_starts: bool = False):
    """Answer each scenario-oracle question about `inst` once inside the
    block. A block nested in one already open for `inst` shares its
    memo, `warm_starts` included; nothing outlives the outermost block.
    The open memo is module state: one solve runs at a time per process.

    With `warm_starts`, each scenario LP relaxation the memo solves
    starts from the last optimal basis of its dual class
    (`dual_classes`), the bunching of the L-shaped method. Each qbar
    MIP's root starts from its scenario class's last one either way."""
    global _open_memo
    if _open_memo is not None and _open_memo.inst is inst:
        yield
        return
    outer, _open_memo = _open_memo, _OracleMemo(inst, warm_starts)
    try:
        yield
    finally:
        _open_memo = outer


def memo_answer(inst: SipInstance, oracle: str, s: int, point: bytes, solve):
    """`solve()`, or its stored answer when (oracle, class of scenario s,
    point) was asked before inside the open `oracle_memo` for `inst`.
    Callers hand out copies of a mutable answer, never the answer."""
    memo = _open_memo
    if memo is None or memo.inst is not inst:
        return solve()
    key = (oracle, memo.classes[s], point)
    if key not in memo.answers:
        memo.answers[key] = solve()
    return memo.answers[key]


def solve_from_start(inst: SipInstance, oracle: str, s: int, solve) -> SolveOutcome:
    """`solve(warm)`, `warm` being the start the open `oracle_memo` for
    `inst` keeps for (oracle, class of scenario s), or None without one;
    the outcome's `basis`, when it has one, becomes that class's next
    start. The relaxation keys by dual class, other oracles by scenario
    class."""
    memo = _open_memo
    if memo is None or memo.inst is not inst:
        return solve(None)
    classes = memo.dual_classes if oracle == "relaxation" else memo.classes
    key = (oracle, classes[s])
    out = solve(memo.starts.get(key))
    if out.basis is not None:
        memo.starts[key] = out.basis
    return out


def first_stage_point(inst: SipInstance, x: np.ndarray) -> np.ndarray:
    """`x` as a float64 first-stage vector; its bytes key the oracle memo."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (inst.nx,):
        raise InstanceError(f"candidate x has shape {x.shape}, expected ({inst.nx},)")
    return x


def recourse_program(inst: SipInstance, s: int, x: np.ndarray) -> MipProgram:
    """Scenario subproblem min q'y s.t. W y >= h - T x for fixed x."""
    scen = inst.scenarios[s]
    x = first_stage_point(inst, x)
    rhs = scen.h - scen.T @ x
    return MipProgram(
        c=scen.q.copy(),
        A=scen.W,
        senses=np.full(scen.nrows, GE, dtype=np.int8),
        rhs=rhs,
        lb=scen.lb.copy(),
        ub=scen.ub.copy(),
        is_int=scen.vtype != CONT,
    )


def recourse_relaxation(inst: SipInstance, s: int, x: np.ndarray) -> SolveOutcome:
    """`solve_lp` of the scenario subproblem at x, its LP relaxation. The
    answer is shared: read it, never change it. It keeps only what the
    classical cut and the recourse MIP's root node read: status,
    objective, duals, x, (basis, vstat), and the Farkas ray of an
    infeasible LP. Inside an `oracle_memo` with warm starts, the LP
    starts from the last optimal basis of the scenario's dual class and
    leaves its own there; a start the kernel cannot use falls back to
    the cold solve. At a degenerate point the answer may then be another
    dual vertex than a cold solve's."""
    x = first_stage_point(inst, x)
    memo = _open_memo
    warm = memo is not None and memo.inst is inst and memo.warm_starts

    def solve() -> SolveOutcome:
        prog = recourse_program(inst, s, x)
        if warm:
            out = solve_from_start(inst, "relaxation", s, lambda start: solve_lp(prog, warm=start))
        else:
            out = solve_lp(prog)
        ray = out.ray if out.status == optbase.INFEASIBLE else None
        return SolveOutcome(out.status, out.x, out.objective, out.duals, ray, basis=out.basis)

    return memo_answer(inst, "relaxation", s, x.tobytes(), solve)


def eval_recourse(inst: SipInstance, s: int, x: np.ndarray) -> float:
    """Exact recourse value Q_s(x); +inf when the subproblem is infeasible."""
    x = first_stage_point(inst, x)
    return memo_answer(inst, "recourse", s, x.tobytes(), lambda: _recourse_value(inst, s, x))


def _recourse_value(inst: SipInstance, s: int, x: np.ndarray) -> float:
    prog = recourse_program(inst, s, x)
    # the shared relaxation is the MIP's root only while rounding keeps the box
    root = recourse_relaxation(inst, s, x) if optbase.root_is_relaxation(prog) else None
    out = solve_mip(prog, root=root)
    if out.status == optbase.OPTIMAL:
        return float(out.objective)
    if out.status == optbase.INFEASIBLE:
        return math.inf
    if out.status == optbase.UNBOUNDED:
        raise RecourseUnboundedError(f"scenario {s} recourse is unbounded at x={x.tolist()}")
    raise optbase.KernelError(f"recourse solve hit a limit in scenario {s}")


def _stacked_program(inst: SipInstance, scens: list[Scenario], obj: np.ndarray) -> MipProgram:
    """MIP with rows [A 0 ... 0; T_1 W_1 0 ...; T_2 0 W_2 ...; ...] over
    (x, y_1, y_2, ...): the first-stage rows, then each scenario's rows."""
    n, mA = inst.nx, inst.A.shape[0]
    nrows = mA + sum(scen.nrows for scen in scens)
    A = np.zeros((nrows, n + sum(scen.ny for scen in scens)))
    A[:mA, :n] = inst.A
    r, col = mA, n
    for scen in scens:
        A[r : r + scen.nrows, :n] = scen.T
        A[r : r + scen.nrows, col : col + scen.ny] = scen.W
        r += scen.nrows
        col += scen.ny
    return MipProgram(
        c=obj,
        A=A,
        senses=np.full(nrows, GE, dtype=np.int8),
        rhs=np.concatenate([inst.b] + [scen.h for scen in scens]),
        lb=np.concatenate([inst.lb] + [scen.lb for scen in scens]),
        ub=np.concatenate([inst.ub] + [scen.ub for scen in scens]),
        is_int=np.concatenate([inst.vtype] + [scen.vtype for scen in scens]) != CONT,
    )


def joint_scenario_program(
    inst: SipInstance,
    s: int,
    obj_x: np.ndarray,
    obj_y: np.ndarray,
) -> MipProgram:
    """MIP over one scenario's joint feasible set
    K_s = {(x, y) : A x >= b, T_s x + W_s y >= h_s, bounds, integrality}."""
    return _stacked_program(inst, [inst.scenarios[s]], np.concatenate([obj_x, obj_y]))


@dataclass
class ExtensiveForm:
    program: MipProgram
    x_cols: np.ndarray


def build_extensive_form(inst: SipInstance) -> ExtensiveForm:
    """Single MIP over (x, y_1, ..., y_S) whose optimal value is the
    instance optimum and whose LP relaxation value is the LP bound."""
    obj = np.concatenate([inst.c] + [scen.prob * scen.q for scen in inst.scenarios])
    prog = _stacked_program(inst, inst.scenarios, obj)
    return ExtensiveForm(program=prog, x_cols=np.arange(inst.nx))


def enumerate_first_stage(inst: SipInstance, cap: int = 100_000) -> np.ndarray:
    """All integer first-stage points satisfying A x >= b. Requires a
    pure-integer first stage with finite bounds."""
    n = inst.nx
    if np.any(inst.vtype == CONT):
        raise InstanceError("first stage has continuous variables, cannot enumerate")
    lo = np.ceil(inst.lb - 1e-9).astype(np.int64)
    hi = np.floor(inst.ub + 1e-9).astype(np.int64)
    if not (np.all(np.isfinite(inst.lb)) and np.all(np.isfinite(inst.ub))):
        raise InstanceError("first stage has unbounded variables, cannot enumerate")
    counts = hi - lo + 1
    total = int(np.prod(counts.astype(np.float64)))
    if total > cap:
        raise EnumerationCapError(f"{total} first-stage points exceed cap {cap}", total)
    grids = np.meshgrid(*[np.arange(lo[j], hi[j] + 1) for j in range(n)], indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1).astype(np.float64)
    if inst.A.shape[0]:
        ok = np.all(pts @ inst.A.T >= inst.b - 1e-9, axis=1)
        pts = pts[ok]
    return pts


def brute_force_epigraph(
    inst: SipInstance, s: int, cap: int = 100_000
) -> tuple[np.ndarray, np.ndarray]:
    """Exact recourse values over every feasible first-stage point.
    Infeasible-recourse points carry +inf."""
    pts = enumerate_first_stage(inst, cap)
    vals = np.array([eval_recourse(inst, s, pts[k]) for k in range(pts.shape[0])])
    return pts, vals
