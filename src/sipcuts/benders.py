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

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import optbase
from .model import (
    BIN,
    CONT,
    InstanceError,
    SipInstance,
    eval_recourse,
    joint_scenario_program,
    recourse_program,
)
from .optbase import GE, LinearProgram, MipProgram, SolveOutcome, lp_relaxation, solve_lp
from .sparse import CooMatrix

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
    born_iter: int = -1
    violation_at_birth: float = 0.0

    def slack(self, x: np.ndarray, theta_s: float) -> float:
        """Nonnegative iff the point satisfies the cut."""
        return float(self.coef_x @ x) + self.coef_theta * theta_s - self.rhs


def _cut_key(cut: Cut):
    return (
        cut.scenario,
        np.round(cut.coef_x, 12).tobytes(),
        round(cut.coef_theta, 12),
        round(cut.rhs, 12),
    )


@dataclass
class MasterModel:
    """First-stage program plus accumulated cuts."""

    inst: SipInstance
    theta_lb: np.ndarray
    cuts: list[Cut] = field(default_factory=list)
    _seen: set = field(default_factory=set)

    def add_cut(self, cut: Cut) -> bool:
        """Append the cut unless an identical one is already present."""
        key = _cut_key(cut)
        if key in self._seen:
            return False
        self._seen.add(key)
        self.cuts.append(cut)
        return True

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for cut in self.cuts:
            out[cut.family] = out.get(cut.family, 0) + 1
        return out

    def build_program(
        self,
        integer: bool,
        lb: np.ndarray | None = None,
        ub: np.ndarray | None = None,
    ) -> MipProgram:
        """Master over (x, theta); optional first-stage bound overrides."""
        inst = self.inst
        n, S = inst.nx, inst.nscen
        rows = [inst.A.rows]
        cols = [inst.A.cols]
        vals = [inst.A.vals]
        rhs = [inst.b]
        r = inst.A.nrows
        for cut in self.cuts:
            nz = np.nonzero(cut.coef_x)[0]
            rows.append(np.full(nz.size, r, dtype=np.int64))
            cols.append(nz)
            vals.append(cut.coef_x[nz])
            if cut.coef_theta != 0.0:
                rows.append(np.array([r], dtype=np.int64))
                cols.append(np.array([n + cut.scenario], dtype=np.int64))
                vals.append(np.array([cut.coef_theta]))
            rhs.append(np.array([cut.rhs]))
            r += 1
        A = CooMatrix(r, n + S, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals))
        xlb = inst.lb if lb is None else np.asarray(lb, dtype=np.float64)
        xub = inst.ub if ub is None else np.asarray(ub, dtype=np.float64)
        return MipProgram(
            c=np.concatenate([inst.c, inst.probs]),
            A=A,
            senses=np.full(r, GE, dtype=np.int8),
            rhs=np.concatenate(rhs),
            lb=np.concatenate([xlb, self.theta_lb]),
            ub=np.concatenate([xub, np.full(S, np.inf)]),
            is_int=np.concatenate([inst.vtype != CONT, np.zeros(S, dtype=bool)])
            if integer
            else np.zeros(n + S, dtype=bool),
        )

    def solve(
        self,
        integer: bool = False,
        lb: np.ndarray | None = None,
        ub: np.ndarray | None = None,
    ) -> tuple[SolveOutcome, np.ndarray, np.ndarray]:
        """Solve the master; returns (outcome, x, theta)."""
        prog = self.build_program(integer, lb=lb, ub=ub)
        if integer:
            out = optbase.solve_mip(prog)
        else:
            out = solve_lp(lp_relaxation(prog))
        if out.status != optbase.OPTIMAL:
            return out, np.zeros(self.inst.nx), np.zeros(self.inst.nscen)
        n = self.inst.nx
        return out, out.x[:n], out.x[n:]


def first_stage_point(inst: SipInstance) -> np.ndarray:
    """Deterministic feasible point of the first-stage LP relaxation."""
    prog = LinearProgram(
        c=np.zeros(inst.nx),
        A=inst.A,
        senses=np.full(inst.A.nrows, GE, dtype=np.int8),
        rhs=inst.b.copy(),
        lb=inst.lb.copy(),
        ub=inst.ub.copy(),
    )
    out = solve_lp(prog)
    if out.status != optbase.OPTIMAL:
        raise InstanceError(f"first stage is {out.status}; nothing to decompose")
    return out.x


def compute_theta_lower_bound(inst: SipInstance, s: int) -> float:
    """Lower bound on Q_s over the first-stage feasible set: the LP
    relaxation of min q'y over the joint scenario set."""
    scen = inst.scenarios[s]
    prog = lp_relaxation(joint_scenario_program(inst, s, np.zeros(inst.nx), scen.q))
    out = solve_lp(prog)
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
    (mu'T) x + theta_s >= mu'h + kappa holds for every x."""
    scen = inst.scenarios[s]
    prog = recourse_program(inst, s, x_hat)
    out = solve_lp(lp_relaxation(prog))
    if out.status == optbase.UNBOUNDED:
        raise InstanceError(f"scenario {s} recourse LP is unbounded at x={x_hat.tolist()}")
    if out.status == optbase.INFEASIBLE:
        y = np.asarray(out.ray)
        w = scen.W.rmatvec(y)
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
            coef_x=scen.T.rmatvec(y),
            coef_theta=0.0,
            rhs=float(y @ scen.h) - cap,
        )
        return SubproblemResult(value=math.inf, cut=None, feas_cut=cut)
    if out.status != optbase.OPTIMAL:
        raise optbase.KernelError(f"scenario {s} LP hit a limit at x={x_hat.tolist()}")
    mu = np.asarray(out.duals)
    d = scen.q - scen.W.rmatvec(mu)
    kappa = 0.0
    for j in range(d.size):
        if d[j] > 1e-12:
            kappa += d[j] * scen.lb[j]
        elif d[j] < -1e-12:
            kappa += d[j] * scen.ub[j]
    cut = Cut(
        family="benders",
        scenario=s,
        coef_x=scen.T.rmatvec(mu),
        coef_theta=1.0,
        rhs=float(mu @ scen.h) + kappa,
    )
    return SubproblemResult(value=float(out.objective), cut=cut, feas_cut=None)


def separate_integer_lshaped(
    inst: SipInstance,
    s: int,
    x_hat: np.ndarray,
    theta_hat: float,
    theta_lb: float,
    born_iter: int = -1,
    q_exact: float | None = None,
) -> Cut | None:
    """Exact-value cut at a binary first-stage point.

    With S1 = {i : x_hat_i = 1} and Q = Q_s(x_hat), the inequality
        theta_s + (Q - L) * (sum_{i not in S1} x_i - sum_{i in S1} x_i)
            >= Q - (Q - L) * |S1|
    is tight at x_hat and relaxes to theta_s >= L elsewhere."""
    if np.any(inst.vtype != BIN):
        raise InstanceError("integer optimality cuts require a pure-binary first stage")
    x_bin = np.round(x_hat)
    if np.max(np.abs(x_bin - x_hat)) > optbase.INTTOL:
        raise InstanceError("integer optimality cut requested at a fractional point")
    q_val = eval_recourse(inst, s, x_bin) if q_exact is None else q_exact
    if q_val == math.inf:
        return None
    gap = q_val - theta_lb
    ones = x_bin > 0.5
    coef = np.where(ones, -gap, gap)
    rhs = q_val - gap * float(np.count_nonzero(ones))
    cut = Cut(family="integer_lshaped", scenario=s, coef_x=coef, coef_theta=1.0, rhs=rhs)
    viol = -cut.slack(x_bin, theta_hat)
    if viol > INTL_VIOL_TOL * (abs(theta_hat) + 1.0):
        cut.born_iter = born_iter
        cut.violation_at_birth = viol
        return cut
    return None


def write_cut_csv(cuts: list[Cut], path: str) -> None:
    """Dump cuts for inspection; coef_x is space-joined with full precision."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["family", "scenario", "born_iter", "violation_at_birth", "coef_theta", "rhs", "coef_x"]
        )
        for cut in cuts:
            w.writerow(
                [
                    cut.family,
                    cut.scenario,
                    cut.born_iter,
                    repr(float(cut.violation_at_birth)),
                    repr(float(cut.coef_theta)),
                    repr(float(cut.rhs)),
                    " ".join(repr(float(v)) for v in cut.coef_x),
                ]
            )
