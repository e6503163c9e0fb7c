"""Nonanticipativity dual: evaluation, ascent, and primal characterization.

Relaxing the requirement that every scenario share one first-stage
decision, with one multiplier vector lam_s per scenario constrained by
sum_s p_s lam_s = 0, gives the concave dual function

    z(lam) = sum_s p_s * min { (c + lam_s)'x + q'y : (x, y) in K_s }.

Its maximum z_D satisfies  z_LP <= z_PI <= z_D <= z_IP,  where z_PI is
the perfect-information value z(0).  The maximum equals the value of
the convexified primal

    min { sum_s p_s (c'x_s + q'y_s) : (x_s, y_s) in conv(K_s), all x_s equal }

which `convexified_primal_value` computes directly from enumerated
scenario points on small instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import optbase
from .model import InstanceError, SipInstance, brute_force_epigraph, joint_scenario_program, rounded_key
from .optbase import EQ, LE, LinearProgram, solve_lp, solve_mip

#: relative gap at which the ascent declares the dual maximized
DUAL_GAP_TOL = 1e-7


def check_multipliers(inst: SipInstance, lams: np.ndarray) -> np.ndarray:
    lams = np.asarray(lams, dtype=np.float64)
    if lams.shape != (inst.nscen, inst.nx):
        raise InstanceError(
            f"multipliers have shape {lams.shape}, expected {(inst.nscen, inst.nx)}"
        )
    resid = inst.probs @ lams
    if np.max(np.abs(resid)) > 1e-9:
        raise InstanceError("multipliers must satisfy sum_s p_s lam_s = 0")
    return lams


def eval_dual(
    inst: SipInstance, lams: np.ndarray
) -> tuple[float, list[tuple[np.ndarray, float]]]:
    """z(lam) plus, per scenario, the minimizing (x, q'y) pair."""
    lams = check_multipliers(inst, lams)
    total = 0.0
    points = []
    for s, scen in enumerate(inst.scenarios):
        prog = joint_scenario_program(inst, s, inst.c + lams[s], scen.q)
        out = solve_mip(prog)
        if out.status == optbase.UNBOUNDED:
            raise InstanceError(f"scenario {s} subproblem unbounded in the dual")
        if out.status != optbase.OPTIMAL:
            raise optbase.KernelError(f"scenario {s} dual subproblem ended {out.status}")
        total += scen.prob * float(out.objective)
        x = out.x[: inst.nx].copy()
        points.append((x, float(scen.q @ out.x[inst.nx :])))
    return total, points


def perfect_information_bound(inst: SipInstance) -> float:
    """z_PI = z(0): expectation of per-scenario optima."""
    value, _ = eval_dual(inst, np.zeros((inst.nscen, inst.nx)))
    return value


def _ascent_master(inst, pools, center, radius):
    """max sum_s p_s t_s  s.t.  t_s <= c'x_i + cost_i + x_i'lam_s,
    sum_s p_s lam_s = 0, optional box |lam - center| <= radius."""
    n, S = inst.nx, inst.nscen
    probs = inst.probs
    # columns: [t (S) | lam_0 (n) | ... | lam_{S-1} (n)]; rows: every
    # scenario's pool points in order, then sum_s p_s lam_s = 0
    points = [(s, x, cost) for s in range(S) for x, cost in pools[s]]
    npts = len(points)
    A = np.zeros((npts + n, S + S * n))
    for r, (s, x, _) in enumerate(points):
        A[r, s] = 1.0
        A[r, S + s * n : S + (s + 1) * n] = -x
    A[npts:, S:] = np.kron(probs, np.eye(n))
    c = np.zeros(S + S * n)
    c[:S] = probs
    lb = np.full(c.size, -np.inf)
    ub = np.full(c.size, np.inf)
    if radius is not None:
        flat = center.reshape(-1)
        lb[S:] = flat - radius
        ub[S:] = flat + radius
    prog = LinearProgram(
        c=c,
        A=A,
        senses=np.array([LE] * npts + [EQ] * n, dtype=np.int8),
        rhs=[float(inst.c @ x) + cost for _, x, cost in points] + [0.0] * n,
        lb=lb,
        ub=ub,
        maximize=True,
    )
    out = solve_lp(prog)
    if out.status == optbase.OPTIMAL:
        return float(out.objective), out.x[S:].reshape(S, n)
    if out.status == optbase.UNBOUNDED and radius is None:
        return math.inf, None
    raise optbase.KernelError(f"dual ascent master ended {out.status}")


@dataclass
class DualResult:
    value: float  # best certified z(lam)
    lams: np.ndarray  # maximizer found
    upper: float  # final model bound on z_D
    iterations: int
    converged: bool
    history: list[float] = field(default_factory=list)


def maximize_dual(inst: SipInstance, max_iters: int = 300, gap_tol: float = DUAL_GAP_TOL) -> DualResult:
    """Box-stabilized cutting-plane ascent of the dual function.

    Each iteration solves the unrestricted model for a certified upper
    bound, queries the box-restricted model argmax, and evaluates the
    true dual there (which also refines the model). Serious steps move
    the box; null steps shrink it; once the box collapses the query
    defaults to the unrestricted argmax, which cannot repeat without
    closing the gap."""
    n, S = inst.nx, inst.nscen
    pools: list[list[tuple[np.ndarray, float]]] = [[] for _ in range(S)]
    seen: list[set[bytes]] = [set() for _ in range(S)]

    def absorb(pts):
        for s in range(S):
            x, cost = pts[s]
            key = (rounded_key(x, 9), round(cost, 9))
            if key not in seen[s]:
                seen[s].add(key)
                pools[s].append((x, cost))

    center = np.zeros((S, n))
    best, pts = eval_dual(inst, center)
    absorb(pts)
    best_lams = center.copy()
    radius0 = 10.0 * max(1.0, float(np.max(np.abs(inst.c))))
    radius = radius0
    floor = 1e-8 * radius0
    history = [best]
    upper = math.inf
    converged = False
    it = 0
    while it < max_iters:
        it += 1
        upper, g_query = _ascent_master(inst, pools, center, None)
        if upper - best <= gap_tol * (1.0 + abs(best)):
            converged = True
            break
        if radius > floor:
            _, query = _ascent_master(inst, pools, center, radius)
        else:
            query = g_query
            if query is None:  # unbounded model without a box: widen instead
                _, query = _ascent_master(inst, pools, center, 1e6 * radius0)
        val, pts = eval_dual(inst, query)
        absorb(pts)
        history.append(val)
        if val > best + 1e-12 * (1.0 + abs(best)):
            best = val
            best_lams = query.copy()
            center = query.copy()
        else:
            radius = max(radius / 2.0, floor)
    return DualResult(
        value=best,
        lams=best_lams,
        upper=upper,
        iterations=it,
        converged=converged,
        history=history,
    )


def convexified_primal_value(inst: SipInstance, cap: int = 100_000) -> float:
    """Value of the convexified primal via enumerated scenario points.

    Each conv(K_s) is represented by its first-stage points paired with
    exact recourse values; a weight LP then forces every scenario's
    mixture to realize one shared first-stage vector."""
    point_sets = []
    for s in range(inst.nscen):
        X, Q = brute_force_epigraph(inst, s, cap)
        keep = np.isfinite(Q)
        if not np.any(keep):
            raise InstanceError(f"scenario {s} has no feasible recourse anywhere")
        point_sets.append((X[keep], Q[keep]))
    n, S = inst.nx, inst.nscen
    sizes = [X.shape[0] for X, _ in point_sets]
    offs = np.concatenate([[0], np.cumsum(sizes)])
    nw = int(offs[-1])
    # columns: [w (nw) | u (n)], u the common first-stage mean; rows per
    # scenario: its weights sum to 1, then its weighted mean equals u
    ncols = nw + n
    A = np.zeros((S * (1 + n), ncols))
    rhs = np.zeros(S * (1 + n))
    c = np.zeros(ncols)
    for s, (X, Q) in enumerate(point_sets):
        r, w = s * (1 + n), slice(offs[s], offs[s + 1])
        A[r, w] = 1.0
        A[r + 1 : r + 1 + n, w] = X.T
        A[r + 1 : r + 1 + n, nw:] = -np.eye(n)
        rhs[r] = 1.0
        c[w] = inst.scenarios[s].prob * (X @ inst.c + Q)
    lb = np.zeros(ncols)
    lb[nw:] = -np.inf
    prog = LinearProgram(
        c=c,
        A=A,
        senses=np.full(A.shape[0], EQ, dtype=np.int8),
        rhs=rhs,
        lb=lb,
        ub=np.full(ncols, np.inf),
    )
    out = solve_lp(prog)
    if out.status != optbase.OPTIMAL:
        raise optbase.KernelError(f"convexified primal LP ended {out.status}")
    return float(out.objective)
