"""Master problem and subgradient-free cut separation.

The master keeps one epigraph variable theta_s per scenario:

    min  c'x + sum_s p_s theta_s
    s.t. A x >= b,  cuts:  g'x + g0 * theta_s >= rhs,  theta_s >= L_s.

Cut families
  * "benders":  from the scenario LP relaxation's optimal row duals,
    with the bound-term constant folded into the right-hand side.
  * "integer_lshaped":  exact-value cuts for pure-binary first stages.
  * "feasibility":  Farkas cuts (g0 = 0) from infeasible scenario LPs.
  * "strengthened" / "lagrangian":  produced in the lagrangian module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import optbase
from .model import (
    BIN,
    InstanceError,
    SipInstance,
    eval_recourse,
    first_stage_point,
    joint_scenario_program,
    memo_answer,
    recourse_relaxation,
    rounded_key,
)
from .optbase import GE, LinearProgram, SolveOutcome, solve_lp

#: relative violation needed before a classical cut enters the master
BENDERS_VIOL_TOL = 1e-4
#: relative violation needed before an integer optimality cut enters
INTL_VIOL_TOL = 1e-6


@dataclass
class Cut:
    """g'x + g0 * theta_s >= rhs, attributed to one scenario."""

    family: str
    scenario: int
    coef_x: np.ndarray
    coef_theta: float
    rhs: float

    def slack(self, x: np.ndarray, theta_s: float) -> float:
        """Nonnegative iff the point satisfies the cut."""
        return float(self.coef_x @ x) + self.coef_theta * theta_s - self.rhs


def _cut_key(cut: Cut):
    return cut.scenario, rounded_key(cut.coef_x, 12), round(cut.coef_theta, 12), round(cut.rhs, 12)


@dataclass
class MasterModel:
    """First-stage program plus a pool of cuts.

    The pool is the matrix G, one row g' + g0 e_s' over (x, theta) per
    cut, and its right-hand sides, in the order `add_cut` accepted the
    cuts; `cuts` lists the same cuts as `Cut` objects. A master program
    holds the first-stage rows and then pool rows: all of them in the
    root loop, whose duals feed the cuts, and in branch-and-cut the
    subset a node LP carries: the cuts tight at its parent's final
    basis (`tight_rows`), those added at the node, and those the pool
    check adds. That check multiplies the pool with an optimal LP
    point; the violated cuts join the LP, which is solved again from
    its last basis until none is violated. The point is then feasible
    for every cut and optimal over a subset of them, so the node bound
    is that of the LP over the whole pool, and an infeasible subset
    proves the whole LP infeasible."""

    inst: SipInstance
    theta_lb: np.ndarray
    cuts: list[Cut] = field(default_factory=list, init=False)
    _seen: set = field(default_factory=set, init=False)
    #: final (basis, vstat) of the root loop's last master solve;
    #: restricted to the cuts tight there, it starts the branch-and-cut root
    basis: tuple | None = field(default=None, init=False)

    def __post_init__(self):
        self._G = np.zeros((0, self.inst.nx + self.inst.nscen))
        self._rhs = np.zeros(0)

    def add_cut(self, cut: Cut) -> bool:
        """Append the cut unless an identical one is already present."""
        key = _cut_key(cut)
        if key in self._seen:
            return False
        self._seen.add(key)
        k, n = len(self.cuts), self.inst.nx
        if k == self._rhs.size:  # double the capacity
            grow = max(k, 16)
            self._G = np.concatenate([self._G, np.zeros((grow, self._G.shape[1]))])
            self._rhs = np.concatenate([self._rhs, np.zeros(grow)])
        self._G[k, :n] = cut.coef_x
        self._G[k, n + cut.scenario] = cut.coef_theta
        self._rhs[k] = cut.rhs
        self.cuts.append(cut)
        return True

    def pool(self) -> tuple[np.ndarray, np.ndarray]:
        """The pool (G, rhs): cut i is G[i] @ (x, theta) >= rhs[i]."""
        k = len(self.cuts)
        return self._G[:k], self._rhs[:k]

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for cut in self.cuts:
            out[cut.family] = out.get(cut.family, 0) + 1
        return out

    def build_program(
        self, lb: np.ndarray | None = None, ub: np.ndarray | None = None, rows=None
    ) -> LinearProgram:
        """Master LP over (x, theta): the first-stage rows, then the pool
        rows `rows` (indices, in that order; None: every cut in pool
        order); optional first-stage bound overrides."""
        inst = self.inst
        G, rhs = self.pool()
        if rows is not None:
            G, rhs = G[rows], rhs[rows]
        n, m = inst.nx, inst.A.shape[0]
        A = np.zeros((m + rhs.size, n + inst.nscen))
        A[:m, :n] = inst.A
        A[m:] = G
        xlb = inst.lb if lb is None else np.asarray(lb, dtype=np.float64)
        xub = inst.ub if ub is None else np.asarray(ub, dtype=np.float64)
        return LinearProgram(
            c=np.concatenate([inst.c, inst.probs]),
            A=A,
            senses=np.full(A.shape[0], GE, dtype=np.int8),
            rhs=np.concatenate([inst.b, rhs]),
            lb=np.concatenate([xlb, self.theta_lb]),
            ub=np.concatenate([xub, np.full(inst.nscen, np.inf)]),
        )

    def tight_rows(self, basis, rows=None) -> tuple[np.ndarray, tuple | None]:
        """The pool rows of a master LP whose slack is nonbasic in its
        final (basis, vstat) `basis`, and that basis mapped onto them:
        every other row leaves with its basic slack, so the mapped basis
        is optimal for the smaller LP too. The LP is `build_program`'s
        over the pool rows `rows`; None means the cuts `basis` covers,
        or every cut when there is no basis. No basis keeps every row."""
        m0, nz = self.inst.A.shape[0], self.inst.nx + self.inst.nscen
        if rows is None:
            rows = np.arange(len(self.cuts) if basis is None else basis[0].size - m0)
        if basis is None:
            return rows, None
        bas, vstat = basis[0], basis[1]
        keep = np.ones(vstat.size, dtype=bool)  # by column; slack nz + r is row r's
        keep[nz + m0 :] = vstat[nz + m0 :] != 0
        col = np.cumsum(keep) - 1  # a kept column's index in the smaller LP
        bas = col[bas[keep[bas]]]
        return rows[keep[nz + m0 :]], (bas, vstat[keep])

    def solve(
        self, lb: np.ndarray | None = None, ub: np.ndarray | None = None, warm=None, rows=None
    ) -> tuple[SolveOutcome, np.ndarray, np.ndarray]:
        """Solve the master LP over the pool rows `rows` (see
        `build_program`), from the `basis` of an earlier outcome when
        `warm` is given; returns (outcome, x, theta)."""
        out = solve_lp(self.build_program(lb, ub, rows), warm=warm)
        if out.status != optbase.OPTIMAL:
            return out, np.zeros(self.inst.nx), np.zeros(self.inst.nscen)
        n = self.inst.nx
        return out, out.x[:n], out.x[n:]


def compute_theta_lower_bound(inst: SipInstance, s: int) -> float:
    """Lower bound on Q_s over the first-stage feasible set: the LP
    relaxation of min q'y over the joint scenario set."""
    return memo_answer(inst, "theta_lb", s, b"", lambda: _theta_lower_bound(inst, s))


def _theta_lower_bound(inst: SipInstance, s: int) -> float:
    scen = inst.scenarios[s]
    out = solve_lp(joint_scenario_program(inst, s, np.zeros(inst.nx), scen.q))
    if out.status == optbase.OPTIMAL:
        return float(out.objective)
    if out.status == optbase.INFEASIBLE:
        raise InstanceError(f"scenario {s} admits no feasible pair at all")
    raise InstanceError(f"scenario {s} recourse value is unbounded below")


@dataclass
class SubproblemResult:
    """Scenario LP relaxation at a fixed first-stage point."""

    value: float  # LP value, +inf when infeasible
    cut: Cut | None  # classical optimality cut (None when infeasible)
    feas_cut: Cut | None  # Farkas cut (None when feasible)


def solve_benders_subproblem(inst: SipInstance, s: int, x_hat: np.ndarray) -> SubproblemResult:
    """Solve the scenario LP relaxation at x_hat and assemble the cut.

    With optimal row duals mu >= 0 and reduced costs d = q - W'mu, the
    LP value equals mu'(h - T x_hat) + kappa with
    kappa = sum_j (d_j > 0 ? d_j * lo_j : d_j * up_j), so
    (mu'T) x + theta_s >= mu'h + kappa holds for every x.

    The LP is `recourse_relaxation`, whose answer the exact recourse
    value's MIP shares as its root node; the cut is built afresh from
    it on every call."""
    x_hat = first_stage_point(inst, x_hat)
    scen = inst.scenarios[s]
    out = recourse_relaxation(inst, s, x_hat)
    if out.status == optbase.UNBOUNDED:
        raise InstanceError(f"scenario {s} recourse LP is unbounded at x={x_hat.tolist()}")
    if out.status == optbase.INFEASIBLE:
        y = np.asarray(out.ray)
        w = y @ scen.W
        cap = 0.0
        for j in range(w.size):
            if w[j] > 1e-12:
                cap += w[j] * scen.ub[j]
            elif w[j] < -1e-12:
                cap += w[j] * scen.lb[j]
        if not math.isfinite(cap):
            raise InstanceError(f"scenario {s} infeasibility certificate uses an open bound")
        cut = Cut(
            family="feasibility",
            scenario=s,
            coef_x=y @ scen.T,
            coef_theta=0.0,
            rhs=float(y @ scen.h) - cap,
        )
        return SubproblemResult(value=math.inf, cut=None, feas_cut=cut)
    if out.status != optbase.OPTIMAL:
        raise optbase.KernelError(f"scenario {s} LP hit a limit at x={x_hat.tolist()}")
    mu = np.asarray(out.duals)
    d = scen.q - mu @ scen.W
    kappa = 0.0
    for j in range(d.size):
        if d[j] > 1e-12:
            kappa += d[j] * scen.lb[j]
        elif d[j] < -1e-12:
            kappa += d[j] * scen.ub[j]
    cut = Cut(
        family="benders",
        scenario=s,
        coef_x=mu @ scen.T,
        coef_theta=1.0,
        rhs=float(mu @ scen.h) + kappa,
    )
    return SubproblemResult(value=float(out.objective), cut=cut, feas_cut=None)


def require_binary_first_stage(inst: SipInstance) -> None:
    """Raise InstanceError unless every first-stage variable is binary,
    as the integer optimality cuts need."""
    if np.any(inst.vtype != BIN):
        raise InstanceError("integer optimality cuts require a pure-binary first stage")


def separate_integer_lshaped(
    inst: SipInstance,
    s: int,
    x_hat: np.ndarray,
    theta_hat: float,
    theta_lb: float,
) -> Cut | None:
    """Exact-value cut at a binary first-stage point.

    With S1 = {i : x_hat_i = 1} and Q = Q_s(x_hat), the inequality
        theta_s + (Q - L) * (sum_{i not in S1} x_i - sum_{i in S1} x_i)
            >= Q - (Q - L) * |S1|
    is tight at x_hat and relaxes to theta_s >= L elsewhere. Q is
    `eval_recourse`'s, shared through an open `oracle_memo`."""
    require_binary_first_stage(inst)
    x_bin = np.round(x_hat)
    if np.max(np.abs(x_bin - x_hat)) > optbase.INTTOL:
        raise InstanceError("integer optimality cut requested at a fractional point")
    q_val = eval_recourse(inst, s, x_bin)
    if q_val == math.inf:
        return None
    gap = q_val - theta_lb
    ones = x_bin > 0.5
    coef = np.where(ones, -gap, gap)
    rhs = q_val - gap * float(np.count_nonzero(ones))
    cut = Cut(family="integer_lshaped", scenario=s, coef_x=coef, coef_theta=1.0, rhs=rhs)
    if -cut.slack(x_bin, theta_hat) > INTL_VIOL_TOL * (abs(theta_hat) + 1.0):
        return cut
    return None

