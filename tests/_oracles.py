"""Independent reference computations used only by the test suite.

Everything here is deliberately naive: exhaustive enumeration over
integer boxes, plus scipy's HiGHS solvers as an outside implementation.
Nothing in this module calls the package's own simplex or
branch-and-bound kernel, so agreement between the two is a genuine
cross-check rather than a tautology.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.optimize as sopt

from sipcuts.model import CONT, SipInstance
from sipcuts.optbase import EQ, GE, LE, LinearProgram, MipProgram

FEAS = 1e-9


#: Substitute for infinite bounds when enumerating. Valid whenever the
#: true optimum lies inside the clipped box (all tiny fixtures do: their
#: recourse costs are positive, so minimal covers stay small).
BOX_CAP = 6.0


def integer_box_points(lb, ub):
    """Iterate all integer points of a box, lexicographically; infinite
    bounds are clipped to +-BOX_CAP."""
    lo = np.asarray(lb, dtype=float).copy()
    hi = np.asarray(ub, dtype=float).copy()
    lo[np.isneginf(lo)] = -BOX_CAP
    hi[np.isposinf(hi)] = BOX_CAP
    lo = np.ceil(lo - 1e-9).astype(np.int64)
    hi = np.floor(hi + 1e-9).astype(np.int64)
    if np.any(lo > hi):
        return
    for tup in itertools.product(*[range(int(a), int(b) + 1) for a, b in zip(lo, hi)]):
        yield np.array(tup, dtype=np.float64)


def rows_satisfied(A_dense, senses, rhs, x, tol=FEAS):
    ax = A_dense @ x
    for i in range(rhs.size):
        if senses[i] == GE and ax[i] < rhs[i] - tol:
            return False
        if senses[i] == LE and ax[i] > rhs[i] + tol:
            return False
        if senses[i] == EQ and abs(ax[i] - rhs[i]) > tol:
            return False
    return True


def recourse_enum(inst: SipInstance, s: int, x) -> float:
    """Q_s(x) by full enumeration; requires an all-integer finite y box."""
    scen = inst.scenarios[s]
    assert np.all(scen.vtype != CONT), "enumeration oracle needs integer recourse"
    W = scen.W
    rhs = scen.h - scen.T @ np.asarray(x, dtype=float)
    best = math.inf
    for y in integer_box_points(scen.lb, scen.ub):
        if np.all(W @ y >= rhs - FEAS):
            best = min(best, float(scen.q @ y))
    return best


def first_stage_points(inst: SipInstance) -> list[np.ndarray]:
    A = inst.A
    pts = []
    for x in integer_box_points(inst.lb, inst.ub):
        if inst.A.shape[0] == 0 or np.all(A @ x >= inst.b - FEAS):
            pts.append(x)
    return pts


def recourse_table(inst: SipInstance):
    """(points, Q) with Q[s][k] = Q_s(points[k]) by enumeration."""
    pts = first_stage_points(inst)
    Q = [[recourse_enum(inst, s, x) for x in pts] for s in range(inst.nscen)]
    return pts, Q


def z_ip_enum(inst: SipInstance) -> float:
    pts, Q = recourse_table(inst)
    probs = inst.probs
    best = math.inf
    for k, x in enumerate(pts):
        val = float(inst.c @ x)
        ok = True
        for s in range(inst.nscen):
            if Q[s][k] == math.inf:
                ok = False
                break
            val += probs[s] * Q[s][k]
        if ok:
            best = min(best, val)
    return best


def qbar_enum(inst: SipInstance, s: int, pi, pi0, table=None) -> float:
    """min over the scenario's joint feasible set of pi'x + pi0 * q'y,
    for pi0 >= 0, using the enumerated recourse table."""
    if table is None:
        pts = first_stage_points(inst)
        qs = [recourse_enum(inst, s, x) for x in pts]
    else:
        pts, Q = table
        qs = Q[s]
    pi = np.asarray(pi, dtype=float)
    best = math.inf
    for k, x in enumerate(pts):
        if qs[k] == math.inf:
            continue
        best = min(best, float(pi @ x) + pi0 * qs[k])
    return best


def finite_epigraph(inst: SipInstance, s: int):
    """(X, Q) over feasible first-stage points with finite recourse."""
    pts = first_stage_points(inst)
    X, Q = [], []
    for x in pts:
        v = recourse_enum(inst, s, x)
        if v < math.inf:
            X.append(x)
            Q.append(v)
    return np.array(X), np.array(Q)


def max_violation_on_grid(inst, s, x_hat, theta_hat, PI, pi0, chunk=200_000):
    """Exact max of qbar(pi, pi0) - pi'x_hat - pi0*theta_hat over the
    given multipliers, using the enumerated epigraph: for pi0 >= 0,
    qbar(pi, pi0) = min_x [pi'x + pi0 * Q_s(x)]."""
    X, Q = finite_epigraph(inst, s)
    x_hat = np.asarray(x_hat, dtype=float)
    best = -math.inf
    for lo in range(0, PI.shape[0], chunk):
        P = PI[lo : lo + chunk]
        p0 = pi0[lo : lo + chunk]
        qb = (P @ X.T + np.outer(p0, Q)).min(axis=1)
        viol = qb - P @ x_hat - p0 * theta_hat
        best = max(best, float(viol.max()))
    return best


def _sign_combos(k):
    out = []
    for bits in itertools.product((1.0, -1.0), repeat=k):
        out.append(np.array(bits))
    return np.array(out)


def _simplex_grid(k, resolution):
    """Points (a_1..a_k, t) >= 0 with sum = 1, on a regular grid."""
    steps = int(round(1.0 / resolution))
    axes = [np.arange(steps + 1) for _ in range(k)]
    mesh = np.meshgrid(*axes, indexing="ij")
    flat = np.stack([m.ravel() for m in mesh], axis=1)
    keep = flat.sum(axis=1) <= steps
    a = flat[keep] * resolution
    t = 1.0 - a.sum(axis=1)
    return a, t


def ball_boundary(nx, alpha, resolution):
    """Multipliers on |pi|_1 + alpha*pi0 = 1 (implemented for nx <= 2)."""
    assert nx <= 2, "grid oracle keeps the ball boundary low-dimensional"
    a, t = _simplex_grid(nx, resolution)
    pi0 = t / alpha
    signs = _sign_combos(nx)
    PI = np.concatenate([a * sg for sg in signs], axis=0)
    P0 = np.concatenate([pi0] * signs.shape[0])
    return PI, P0


def span_weight_boundary(V, alpha, resolution):
    """Multipliers pi = V'lam on |lam|_1 + alpha*pi0 = 1 (k <= 2)."""
    V = np.asarray(V, dtype=float)
    k = V.shape[0]
    assert k <= 2
    a, t = _simplex_grid(k, resolution)
    pi0 = t / alpha
    signs = _sign_combos(k)
    lam = np.concatenate([a * sg for sg in signs], axis=0)
    P0 = np.concatenate([pi0] * signs.shape[0])
    return lam @ V, P0


def span_coef_boundary(V, alpha, resolution):
    """Multipliers pi = V'lam on |pi|_1 + alpha*pi0 = 1 (k <= 2).

    Directions lam = r*d(phi) are scaled so the coefficient norm uses
    exactly the budget left after alpha*pi0."""
    V = np.asarray(V, dtype=float)
    k = V.shape[0]
    assert k <= 2
    if k == 1:
        dirs = np.array([[1.0], [-1.0]])
    else:
        phis = np.arange(0.0, 2 * np.pi, 2 * np.pi * resolution)
        dirs = np.stack([np.cos(phis), np.sin(phis)], axis=1)
    pis = dirs @ V
    norms = np.abs(pis).sum(axis=1)
    ok = norms > 1e-12
    pis = pis[ok] / norms[ok, None]  # now |pi|_1 = 1 along each direction
    ts = np.arange(0.0, 1.0 + resolution / 2, resolution)
    PI = np.concatenate([(1.0 - t) * pis for t in ts], axis=0)
    P0 = np.concatenate([np.full(pis.shape[0], t / alpha) for t in ts])
    return PI, P0


def _split_rows(prog):
    dense = prog.A.to_dense()
    ub_rows, ub_rhs, eq_rows, eq_rhs = [], [], [], []
    for i in range(prog.rhs.size):
        if prog.senses[i] == LE:
            ub_rows.append(dense[i])
            ub_rhs.append(prog.rhs[i])
        elif prog.senses[i] == GE:
            ub_rows.append(-dense[i])
            ub_rhs.append(-prog.rhs[i])
        else:
            eq_rows.append(dense[i])
            eq_rhs.append(prog.rhs[i])
    return ub_rows, ub_rhs, eq_rows, eq_rhs


def linprog_reference(prog: LinearProgram):
    """(status, objective) from scipy HiGHS; objective is None unless optimal."""
    sign = -1.0 if prog.maximize else 1.0
    ub_rows, ub_rhs, eq_rows, eq_rhs = _split_rows(prog)
    res = sopt.linprog(
        sign * prog.c,
        A_ub=np.array(ub_rows) if ub_rows else None,
        b_ub=np.array(ub_rhs) if ub_rhs else None,
        A_eq=np.array(eq_rows) if eq_rows else None,
        b_eq=np.array(eq_rhs) if eq_rhs else None,
        bounds=list(zip(prog.lb, prog.ub)),
        method="highs",
    )
    if res.status == 0:
        return "optimal", sign * res.fun
    if res.status == 2:
        return "infeasible", None
    if res.status == 3:
        return "unbounded", None
    raise RuntimeError(f"scipy linprog returned status {res.status}: {res.message}")


def milp_reference(prog: MipProgram):
    """(status, objective) from scipy HiGHS branch-and-bound."""
    sign = -1.0 if prog.maximize else 1.0
    dense = prog.A.to_dense()
    con_lb = np.where(prog.senses == LE, -np.inf, prog.rhs)
    con_ub = np.where(prog.senses == GE, np.inf, prog.rhs)
    constraints = (
        [sopt.LinearConstraint(dense, con_lb, con_ub)] if prog.rhs.size else []
    )
    res = sopt.milp(
        sign * prog.c,
        constraints=constraints,
        integrality=prog.is_int.astype(np.int64),
        bounds=sopt.Bounds(prog.lb, prog.ub),
    )
    if res.status == 0:
        return "optimal", sign * res.fun
    if res.status == 2:
        return "infeasible", None
    if res.status == 3:
        return "unbounded", None
    raise RuntimeError(f"scipy milp returned status {res.status}: {res.message}")
