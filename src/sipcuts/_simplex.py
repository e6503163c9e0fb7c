"""Dense bounded-variable simplex kernel.

Solves   min c'x   s.t.  A x {<=,>=,==} b,  lb <= x <= ub
over columns [structural | slack | artificial]: slack columns absorb row
senses, artificial columns give a cold start a feasible basis. The core
stores the structural columns alone, as the rows of WT = A'. Slack n + r
is the unit vector of row r and artificial n + m + r that vector times a
sign the cold start picks; the dense and the block form both read such a
column from its row and sign (`_unit_columns`). Artificials are never
priced, so they never enter.

Below _BLOCK_FINAL_MIN_ROWS = 200 rows the basis inverse is kept
explicitly. A pivot, in either simplex and in phase 1's drive-out of
basic artificials, is the one exchange step `pivot` of `_lp_core`,
after the site's own ratio test; it updates the inverse in place.
`_basis_inverse`, numpy's dense inverse of the basis matrix, computes it
afresh at a warm start unless the start brings the inverse of its own
basis (see below), every 64 pivots, and at the optimal exit unless no
pivot has changed the basis since the inverse was made that way or
copied from the start: it would be the same bits. An entering slack's
column of the inverse is read out of it, not multiplied out.

From 200 rows the core forms no m x m matrix. It keeps the basis in that
block form (`_block_factors`): the k x k block's inverse, the structural
columns and the rows the basic unit columns cover. A solve with the
basis (ftran) or its transpose (btran) costs O(k^2 + mk). A pivot makes
the factors of the new basis afresh, in O(k^3 + mk): at these k,
inverting the block again costs about as much as updating it would. The
factors are thus always those of the current basis, and the periodic
refactorization and the optimal exit only recompute the basic values.
Branch-and-cut node LPs carry only their active cuts
(`driver.run_branch_and_cut`), so no LP of the benchmark workloads or
the seed panel reaches the cutoff: the largest has 167 rows, a
root-loop master, and the largest node LP 116. The block form serves
larger instances, whose masters grow past it with few structural
columns. The cutoff follows what the duals feed. The cut loops build
their cuts from the root-loop master's duals, and on the SSLP(5,10,5)
Lagrangian root the block form's different last digits changed which
cuts entered and slowed the loop, so root-loop masters under 200 rows
keep the dense inverse's bits.

Cold start: two-phase primal simplex from the slack/artificial basis;
phase 1 minimizes the artificial sum. Entering variable: Dantzig rule,
switching to Bland's rule after _BLAND_AFTER * (n + 3m) consecutive
degenerate steps, n columns and m rows. Leaving variable: minimum ratio,
ties broken by largest pivot magnitude then lowest index (Bland: lowest
basic index), so runs are deterministic.

A pivot makes few numpy calls, since each costs a microsecond or more
at these sizes. Each column's bound sign (+1 at its lower bound, -1 at
its upper, 0 when basic, free or fixed) and the bounds of the basic
variables are kept in arrays that a pivot updates by scalar stores, so
pricing is one product sgn * d and one argmin. The ratio tests run on
the eligible entries only. That changes no arithmetic: each reduced
cost, ratio and tie is the same floating-point operation on the same
operands as in a test over all entries with the ineligible ones masked
out, so the choices and every returned bit are the same as there.

Warm start: a (basis, vstat) pair returned by an earlier solve of the
same columns, over the same leading rows. Rows the start lacks (cuts
added since) enter with their slack basic, and nonbasic columns sit at
their current bounds. If that basis is dual feasible, a bounded dual
simplex runs: the basic variable with the largest bound violation
leaves, and the entering column minimizes |d_j / alpha_rj| over the
columns that move it toward its bound, ties to the largest |alpha_rj|.
When no column qualifies, the signed row of the basis inverse is a
Farkas certificate. Once the basis is primal feasible, primal phase 2
confirms optimality. This is dual re-optimization after a bound change
or a new row, as in branch and bound and cutting-plane loops. A start
that is not dual feasible but primal feasible (every basic value within
FEASTOL of its bounds) goes to primal phase 2 directly: primal
re-optimization after an objective change, as when the qbar oracle asks
a scenario's MIP again under new multipliers. A start that is neither,
is singular, or ends in numerical trouble makes the attempt report
status 4. `solve_dense` then runs the cold attempts, so a warm start
never changes which problems are solved. A warm start carries no
artificial columns: they would sit at 0 and never be priced.

What depends on the program alone is built by `prepare`: A, b and sense
as the core takes them, the structural columns WT = A' and the slack
bounds, n + 2 arrays of m entries. A one-shot `solve_dense` builds it
per call; `optbase.solve_mip` builds it once per tree and hands it to
every node. A warm call also skips the cold nonbasic start. When the
caller passed that set-up, a basis of fewer than _BLOCK_FINAL_MIN_ROWS
rows from an optimal solve of an unscaled attempt carries its final
inverse as a third element. A child with all of its rows copies that
inverse instead of inverting the basis, with the same bits: its start
inverse would be the same dense inverse of the same basis matrix as the
parent's final one. A start with fewer rows than the program, a basis
in block form and the outcome of a scaled attempt carry none. The
carried inverses one tree's heap holds peak at 166 KiB on the benchmark
workloads: two 103 x 103 inverses, shared by four open oracle nodes on
snip-root.

The seed panel (`benchmarks/bench_panel.py`) hashes every output of every
call but the final inverse into one kernel digest per instance.

Status codes: 0 optimal, 1 infeasible, 2 unbounded, 3 iteration limit,
4 numerical trouble. For status 1 the returned ray holds row multipliers
(a Farkas certificate); for status 2 it holds an improving primal
direction in the structural variables.
"""

from __future__ import annotations

import numpy as np

OPTIMAL = 0
INFEASIBLE = 1
UNBOUNDED = 2
ITER_LIMIT = 3
NUMERIC = 4

FEASTOL = 1e-7
_TOL_D = 1e-9
_TOL_PIV = 1e-9
_TOL_DFEAS = 1e-7  # reduced-cost slack a warm start may carry
_REFACTOR_EVERY = 64
#: Bland's rule takes over after _BLAND_AFTER * (n + 3m) consecutive
#: degenerate pivots, n columns and m rows
_BLAND_AFTER = 2
#: the kernel's one size cutoff: from this many rows the core keeps the
#: basis in block form and forms no m x m matrix; every root-loop master
#: stays under it, so the duals that cuts are built from keep the dense
#: inverse's last digits
_BLOCK_FINAL_MIN_ROWS = 200


def _unit_columns(basis, n, asig):
    """The basis positions pu of the slack and artificial columns, the
    rows ru they cover and their signs: 1 for the slack n + r of row r,
    asig[r] for its artificial n + m + r."""
    pu = (basis >= n).nonzero()[0]
    ru = (basis[pu] - n) % basis.size
    return pu, ru, np.where(basis[pu] < n + basis.size, 1.0, asig[ru])


def _basis_matrix(WT, basis, asig):
    """The m x m basis matrix: WT[j] for a structural column j, and the
    signed unit vector of `_unit_columns` for the others."""
    n, m = WT.shape
    ps = (basis < n).nonzero()[0]
    pu, ru, sig = _unit_columns(basis, n, asig)
    B = np.zeros((m, m))
    B[:, ps] = WT[basis[ps]].T
    B[ru, pu] = sig
    return B


def _block_factors(WT, basis, asig):
    """The basis matrix of `_basis_matrix` in block form.

    With k structural columns basic, B is known from (ps, rs, S, Ainv,
    prow, psig): the basis positions ps of the structural columns, the
    k open rows rs that no basic unit column covers, the structural
    columns S = WT[basis[ps]], the inverse Ainv of their k x k block
    S[:, rs].T, and, by basis position, a one-to-one map prow onto the
    rows and the sign psig. A unit position maps to the row it covers,
    with its +-1; a structural position maps to an open row, with 0.
    Raises LinAlgError when two basic unit columns cover one row or the
    block is singular."""
    n, m = WT.shape
    ps = (basis < n).nonzero()[0]
    pu, ru, sig = _unit_columns(basis, n, asig)
    open_row = np.ones(m, dtype=np.bool_)
    open_row[ru] = False
    rs = open_row.nonzero()[0]
    if rs.size != ps.size:
        raise np.linalg.LinAlgError("two basic unit columns cover one row")
    prow = np.empty(m, dtype=np.int64)
    prow[pu] = ru
    prow[ps] = rs
    psig = np.zeros(m)
    psig[pu] = sig
    S = WT[basis[ps]]
    return ps, rs, S, np.linalg.inv(np.ascontiguousarray(S[:, rs].T)), prow, psig


def _basis_inverse(WT, basis, asig):
    """The dense inverse of the basis matrix of `_basis_matrix`: the start,
    refactorization and final inverse below _BLOCK_FINAL_MIN_ROWS rows;
    from there the core keeps the block form of `_block_factors`."""
    return np.ascontiguousarray(np.linalg.inv(_basis_matrix(WT, basis, asig)))


def _lp_core(WT, b, sense, c, lb, ub, slo, shi, itmax, refactor_every, start):
    """One solve attempt. `start` is None for a cold start, else the
    (basis, vstat, inverse) triple of `_warm_start`."""
    m = b.size
    n = c.size
    nb = n + m  # structural and slack columns; a returned basis indexes these
    warm = start is not None
    ncol = nb if warm else nb + m  # a warm start carries no artificial columns
    inf = np.inf
    # the basis is its dense inverse Binv below _BLOCK_FINAL_MIN_ROWS rows,
    # and from there the factors `fac` of `_block_factors`; only the
    # closures below read either
    block = m >= _BLOCK_FINAL_MIN_ROWS
    Binv = fac = None
    # Binv is `_basis_inverse` of the current basis, or a copy of the
    # start's own, with no pivot since; the cold start's diag(asig) is
    # not, since numpy's inverse may give its zeros another sign
    exact_inv = False
    # columns [structural | slack | artificial] of A x + slack = b: WT[j]
    # for j < n, the unit vector of row r for slack n + r, and that vector
    # times asig[r] for artificial nb + r, which only a cold start has
    asig = np.ones(m)
    lo = np.zeros(ncol)
    hi = np.zeros(ncol)
    lo[:n] = lb
    hi[:n] = ub
    lo[n:nb] = slo
    hi[n:nb] = shi
    x = np.zeros(ncol)
    vstat = np.zeros(ncol, dtype=np.int8)  # 0 basic, 1 at lb, 2 at ub, 3 free
    cost = np.zeros(ncol)
    y = np.zeros(m)
    ray = np.zeros(nb)
    it = 0
    status = -1

    def ftran(a):
        """B^-1 a, by basis position, for B = WT[basis].T."""
        if not block:
            return Binv @ a
        ps, rs, S, Ainv, prow, psig = fac
        us = Ainv @ a[rs]
        u = psig * (a[prow] - (us @ S)[prow])  # the unit positions' entries
        u[ps] = us
        return u

    def btran(v):
        """v' B^-1, for v by basis position."""
        if not block:
            return v @ Binv
        ps, rs, S, Ainv, prow, psig = fac
        w = np.empty(m)
        w[prow] = psig * v  # the unit rows' entries, and 0 on the open rows
        w[rs] = (v[ps] - S @ w) @ Ainv
        return w

    def row(p):
        """Row p of B^-1."""
        if not block:
            return Binv[p]
        v = np.zeros(m)
        v[p] = 1.0
        return btran(v)

    def column(e):
        """B^-1 a_e, the entering structural or slack column e in basis
        coordinates."""
        if e < n:
            return ftran(WT[e])
        if not block:  # column e - n of the inverse
            return Binv[:, e - n].copy()
        return ftran(np.eye(1, m, e - n)[0])  # the unit vector of row e - n

    def prices(v, rows=ncol):
        """v' a_j for the first `rows` columns j."""
        out = np.empty(rows)
        np.dot(WT, v, out=out[:n])
        out[n:nb] = v
        if rows > nb:
            out[nb:] = asig * v
        return out

    def lhs():
        """The row activities of the equality system at x."""
        r = x[:n] @ WT + x[n:nb]
        if ncol > nb:
            r += asig * x[nb:]
        return r

    def basic_values():
        """Set the basic entries of x so that WT' x = b holds with the
        nonbasic entries as they are."""
        x[basis] = 0.0
        x[basis] = ftran(b - lhs())

    if not warm:
        # nonbasic start: structural at its finite lower bound, else at its
        # finite upper bound, free at 0
        flo = np.isfinite(lo[:n])
        fhi = np.isfinite(hi[:n])
        vstat[:n] = np.where(flo, 1, np.where(fhi, 2, 3))
        x[:n] = np.where(flo, lo[:n], np.where(fhi, hi[:n], 0.0))
        vstat[n:nb] = np.where(sense == 1, 2, 1)
        # slack basis where the residual fits the row sense, an artificial
        # carrying the residual elsewhere
        r = b - x[:n] @ WT  # residuals with slacks at zero
        ok = ((sense == 0) & (r >= 0.0)) | ((sense == 1) & (r <= 0.0)) | ((sense == 2) & (r == 0.0))
        asig = np.where(ok | (r >= 0.0), 1.0, -1.0)
        rows = np.arange(m)
        basis = np.where(ok, n + rows, nb + rows)
        x[n:nb] = np.where(ok, r, 0.0)
        x[nb:] = np.where(ok, 0.0, asig * r)
        vstat[n:nb] = np.where(ok, 0, vstat[n:nb])
        vstat[nb:] = np.where(ok, 1, 0)
        hi[nb:] = np.where(ok, 0.0, inf)  # used artificials may rise, unused stay at 0
        if block:
            fac = _block_factors(WT, basis, asig)
        else:
            Binv = np.diag(asig)
        cost[nb:] = 1.0  # phase 1: minimize artificial sum
        phase = 1
    else:
        # the start's basis, with the slacks of rows it lacks basic
        basis0, vstat0, Binv0 = start
        m0 = basis0.size
        basis = np.empty(m, dtype=np.int64)
        basis[:m0] = basis0
        basis[m0:] = n + np.arange(m0, m)
        vstat[: n + m0] = vstat0
        vstat[n + m0 : nb] = 0
        vs = vstat[:nb]
        fl = np.isfinite(lo[:nb])
        fh = np.isfinite(hi[:nb])
        inbasis = np.zeros(nb, dtype=np.bool_)
        inbasis[basis] = True
        # every nonbasic status must name a bound this program has
        bad = ((vs == 1) & ~fl) | ((vs == 2) & ~fh) | ((vs == 3) & (fl | fh))
        if np.any(bad | (inbasis != (vs == 0))):
            return NUMERIC, x[:n].copy(), 0.0, y, ray, it, basis, vstat[:nb].copy(), None
        x[:nb] = np.where(vs == 1, lo[:nb], np.where(vs == 2, hi[:nb], 0.0))
        if block:
            fac = _block_factors(WT, basis, asig)
        elif Binv0 is not None:
            # the parent's final inverse of this very basis; a copy, since
            # the pivots update it in place and a sibling starts from it too
            Binv = Binv0.copy()
        else:
            Binv = _basis_inverse(WT, basis, asig)
        exact_inv = not block
        basic_values()
        if np.abs(lhs() - b).max() > 1e-6 * (1.0 + np.abs(b).max()):  # near singular
            return NUMERIC, x[:n].copy(), 0.0, y, ray, it, basis, vstat[:nb].copy(), None
        cost[:n] = c
        phase = 2

    bland = False
    bland_after = _BLAND_AFTER * (n + 3 * m)  # as if the artificials were there
    degen_streak = 0
    since_refactor = 0
    scale_b = 1.0 + np.abs(b).max() if m > 0 else 1.0
    rng_ok = (hi - lo) > 1e-12
    # bound sign: +1 nonbasic at lb, -1 nonbasic at ub, 0 when basic, free
    # or fixed; a column prices in when sgn * d < 0. Nonbasic free columns
    # are kept apart: none ever becomes nonbasic again once it enters.
    sgn = np.where(rng_ok & (vstat == 1), 1.0, np.where(rng_ok & (vstat == 2), -1.0, 0.0))
    free = vstat == 3
    nfree = np.count_nonzero(free)
    lob = lo[basis]  # bounds of the basic variables, by basis position
    hib = hi[basis]

    def refactor():
        """Once refactor_every pivots have updated the basis, compute the
        basic values afresh, and below _BLOCK_FINAL_MIN_ROWS rows the
        dense inverse too; the block form's factors are always made from
        the current basis."""
        nonlocal Binv, exact_inv, since_refactor
        if since_refactor >= refactor_every:
            if not block:
                Binv = None  # free the old inverse first
                Binv = _basis_inverse(WT, basis, asig)
                exact_inv = True
            basic_values()
            since_refactor = 0

    def pivot(leave, e, u, low):
        """Column e, u = column(e), takes basis position `leave`, whose
        variable goes to its lower bound if `low`, else to its upper."""
        nonlocal Binv, exact_inv, fac, nfree, since_refactor
        exact_inv = False
        lv = basis[leave]
        x[lv] = lo[lv] if low else hi[lv]
        vstat[lv] = 1 if low else 2
        if lv >= nb:  # an artificial that leaves stays fixed at 0
            hi[lv] = 0.0
            rng_ok[lv] = False
        sgn[lv] = (1.0 if low else -1.0) if rng_ok[lv] else 0.0
        basis[leave] = e
        vstat[e] = 0
        sgn[e] = 0.0
        lob[leave] = lo[e]
        hib[leave] = hi[e]
        if free[e]:
            free[e] = False
            nfree -= 1
        if block:
            fac = _block_factors(WT, basis, asig)
        else:
            rowl = Binv[leave] / u[leave]
            Binv -= u[:, None] * rowl
            Binv[leave] = rowl
        since_refactor += 1

    if warm:
        y = btran(cost[basis])
        d = cost - prices(y)
        dual_ok = not (sgn * d < -_TOL_DFEAS).any()
        if dual_ok and nfree > 0:
            dual_ok = not (np.abs(d[free]) > _TOL_DFEAS).any()
        if not dual_ok:
            xb = x[basis]
            if np.maximum(lob - xb, xb - hib).max() > FEASTOL:
                return NUMERIC, x[:n].copy(), 0.0, y, ray, it, basis, vstat[:nb].copy(), None
        # a dual feasible start: bounded dual simplex until the basic values
        # fit their bounds; primal phase 2 below then confirms optimality.
        # A primal feasible one goes to primal phase 2 directly.
        while dual_ok:
            refactor()
            xb = x[basis]
            viol = np.maximum(lob - xb, xb - hib)
            leave = viol.argmax()
            if viol[leave] <= FEASTOL:
                break
            it += 1
            if it > itmax:
                status = ITER_LIMIT
                break
            # the leaving variable must rise to its lb
            up = lob[leave] - xb[leave] > xb[leave] - hib[leave]
            y = btran(cost[basis])
            d = cost - prices(y)
            rl = row(leave)
            alpha = prices(rl)
            sa = sgn * alpha
            elig = sa < -_TOL_PIV if up else sa > _TOL_PIV
            if nfree > 0:
                elig |= free & (np.abs(alpha) > _TOL_PIV)
            k = elig.nonzero()[0]
            if k.size == 0:
                # no column can move the row toward its bound: the row of
                # the basis inverse, signed, is a Farkas certificate
                status = INFEASIBLE
                ray[n:nb] = -rl if up else rl
                break
            # ratio test over the eligible columns: min |d_j / alpha_rj|,
            # ties to the largest |alpha_rj|, then the lowest index
            dd = np.maximum((sgn * d)[k], 0.0)
            if nfree > 0:
                dd = np.where(free[k], np.abs(d[k]), dd)
            absa = np.abs(alpha[k])
            ratio = dd / absa
            tmin = ratio[ratio.argmin()]
            e = k[((ratio <= tmin + 1e-9) * absa).argmax()]
            u = column(e)
            piv = u[leave]
            if abs(piv) <= _TOL_PIV:
                status = NUMERIC
                break
            lv = basis[leave]
            t = (x[lv] - (lo[lv] if up else hi[lv])) / piv
            x[basis] = xb - t * u
            x[e] = x[e] + t
            pivot(leave, e, u, up)

    while status < 0:
        it += 1
        if it > itmax:
            status = ITER_LIMIT
            break
        refactor()

        y = btran(cost[basis])
        d = cost - prices(y)
        # pricing: sd < 0 where the column improves the objective, at -|d_j|
        # so that the Dantzig choice is the first minimum; artificials
        # are never priced, being basic or fixed at 0 once they leave
        sd = sgn * d
        if nfree > 0:
            sd = np.where(free, -np.abs(d), sd)
        if bland:
            e = (sd < -_TOL_D).argmax()
        else:
            e = sd.argmin()

        if not sd[e] < -_TOL_D:
            if phase == 1:
                p1 = x[n + m :].sum()
                if p1 > FEASTOL * scale_b:
                    status = INFEASIBLE
                    ray[n : n + m] = y  # Farkas multipliers for the rows
                    break
                # drive basic artificials out on nonzero pivots, each on the
                # first column that can take its place; rows whose
                # artificial cannot leave are redundant and keep it at 0
                for p in (basis >= n + m).nonzero()[0]:
                    alpha = prices(row(p), n + m)
                    q = ((vstat[: n + m] != 0) & (np.abs(alpha) > 1e-7)).nonzero()[0]
                    if q.size > 0:
                        pivot(p, q[0], column(q[0]), True)
                hi[n + m :] = 0.0
                hib = hi[basis]
                cost = np.zeros(ncol)
                cost[:n] = c
                phase = 2
                bland = False
                degen_streak = 0
                continue
            status = OPTIMAL
            break

        dirn = 1.0 if (vstat[e] == 1 or (vstat[e] == 3 and d[e] < 0.0)) else -1.0

        u = column(e)
        du = dirn * u
        xb = x[basis]
        # ratio test over the basic rows the step moves: the first bound
        # hit, ties to the largest |du|, then the lowest index
        adu = np.abs(du)
        k = (adu > _TOL_PIV).nonzero()[0]
        tk = (xb - np.where(du > 0.0, lob, hib))[k] / du[k]
        tk = np.where(tk < 0.0, 0.0, tk)
        tmin = tk[tk.argmin()] if k.size > 0 else inf
        tb = hi[e] - lo[e]
        t = tb if tb < tmin else tmin
        if not t < inf:  # no bound stops the step
            if phase == 1:
                status = NUMERIC
            else:
                status = UNBOUNDED
                if e < n:
                    ray[e] = dirn
                sb = basis < n
                ray[basis[sb]] = -du[sb]
            break

        if t <= _TOL_PIV:
            degen_streak += 1
            if degen_streak > bland_after:
                bland = True
        else:
            degen_streak = 0

        if tb <= tmin:  # entering variable flips to its other bound
            x[basis] = xb - tb * du
            x[e] = hi[e] if vstat[e] == 1 else lo[e]
            vstat[e] = 2 if vstat[e] == 1 else 1
            sgn[e] = -sgn[e]
            continue

        cand = tk <= tmin + 1e-9
        if bland:
            j = np.where(cand, basis[k], ncol).argmin()  # lowest basic index
        else:
            j = (cand * adu[k]).argmax()
        leave = k[j]
        t = tk[j]
        x[basis] = xb - t * du
        x[e] = x[e] + dirn * t
        pivot(leave, e, u, du[leave] > 0.0)

    if status == OPTIMAL and m > 0:
        if not exact_inv and not block:
            Binv = None  # free the old inverse first
            Binv = _basis_inverse(WT, basis, asig)
        basic_values()
        y = btran(cost[basis])
        xb = x[basis]
        if (np.maximum(lob - xb, xb - hib) > 1e-5 * scale_b).any():
            status = NUMERIC

    obj = float(c @ x[:n])
    return status, x[:n].copy(), obj, y, ray, it, basis.copy(), vstat[:nb].copy(), Binv


#: the kernel implementation, as benchmark reports record it
KERNEL_MODE = "numpy"


def _pow2_scales(A):
    """Row/column equilibration factors, rounded to powers of two.

    Geometric-mean scaling: each factor is the inverse square root of
    (largest x smallest) nonzero magnitude of its row or column, snapped
    to a power of two so applying it is exact in floating point."""
    m, n = A.shape
    mag = np.abs(A)
    R = np.ones(m)
    C = np.ones(n)
    for _ in range(2):
        S = mag * np.outer(R, C)
        for i in range(m):
            nz = S[i][S[i] > 0.0]
            if nz.size:
                R[i] *= 2.0 ** np.round(-0.5 * (np.log2(nz.max()) + np.log2(nz.min())))
        S = mag * np.outer(R, C)
        for j in range(n):
            nz = S[:, j][S[:, j] > 0.0]
            if nz.size:
                C[j] *= 2.0 ** np.round(-0.5 * (np.log2(nz.max()) + np.log2(nz.min())))
    return R, C


#: (equilibrate?, refactorization cadence) tried in order; the first
#: attempt reproduces the historical behavior bit for bit, the rest
#: trade speed for numerical headroom on badly scaled bases
_ATTEMPTS = ((False, _REFACTOR_EVERY), (True, 8), (True, 1))


def _ray_certifies(A, sense, c, lb, ub, ray):
    """True when `ray` really proves unboundedness: it descends, stays in
    the recession cone of every row, and only moves through infinite
    bounds. A drifted basis inverse can fabricate a ray; rejecting it
    here sends the solve to the next, better-conditioned attempt."""
    nrm = float(np.abs(ray).max()) if ray.size else 0.0
    if not np.isfinite(nrm) or nrm <= 0.0:
        return False
    r = ray / nrm
    ar = A @ r
    tol = FEASTOL * (1.0 + np.abs(A) @ np.abs(r))
    if np.any((sense == 0) & (ar > tol)):  # <= rows must not grow
        return False
    if np.any((sense == 1) & (ar < -tol)):  # >= rows must not shrink
        return False
    if np.any((sense > 1) & (np.abs(ar) > tol)):
        return False
    if np.any((r > 1e-9) & np.isfinite(ub)):
        return False
    if np.any((r < -1e-9) & np.isfinite(lb)):
        return False
    return float(c @ r) < -1e-9 * (1.0 + float(np.abs(c) @ np.abs(r)))


def _farkas_certifies(A, b, sense, lb, ub, ray):
    """True when the row multipliers really prove infeasibility: after
    clamping to the sense-sign pattern, the certified value y'b minus the
    best the box can absorb stays clearly positive."""
    nrm = float(np.abs(ray).max()) if ray.size else 0.0
    if not np.isfinite(nrm) or nrm <= 0.0:
        return False
    y = ray / nrm
    y = np.where(sense == 0, np.minimum(y, 0.0), y)  # <= rows: y <= 0
    y = np.where(sense == 1, np.maximum(y, 0.0), y)  # >= rows: y >= 0
    w = A.T @ y
    wtol = FEASTOL * (1.0 + np.abs(A).T @ np.abs(y))
    w = np.where(np.abs(w) <= wtol, 0.0, w)
    if np.any((w > 0.0) & ~np.isfinite(ub)) or np.any((w < 0.0) & ~np.isfinite(lb)):
        return False
    absorbed = np.where(
        w > 0.0,
        w * np.where(np.isfinite(ub), ub, 0.0),
        w * np.where(np.isfinite(lb), lb, 0.0),
    )
    bound = float(absorbed.sum())
    return float(y @ b) - bound > FEASTOL * (1.0 + abs(bound))


def prepare(A, b, sense):
    """The kernel data that depends on the program alone, not on its
    bounds or a start: A, b and sense as the core takes them, the
    structural columns WT = A' and the slack bounds ([0, inf) on <=
    rows, (-inf, 0] on >= rows, [0, 0] on == rows).

    A caller that solves one program under many bounds, as a
    branch-and-bound tree does, builds this once and hands it to every
    `solve_dense` call."""
    A = np.ascontiguousarray(A, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    sense = np.ascontiguousarray(sense, dtype=np.int8)
    slo, shi = np.where(sense == 1, -np.inf, 0.0), np.where(sense == 0, np.inf, 0.0)
    return A, b, sense, np.ascontiguousarray(A.T), slo, shi


def _warm_start(warm, n, m):
    """`warm` as (basis, vstat, inverse) arrays the core accepts, or None
    when it is absent or does not describe a start for an n-column
    program with at least as many rows. The inverse is the start's own
    third element when it has one and the start has all m rows, else
    None."""
    if warm is None:
        return None
    basis0 = np.ascontiguousarray(warm[0], dtype=np.int64)
    vstat0 = np.asarray(warm[1])
    m0 = basis0.size
    if basis0.ndim != 1 or not 0 < m0 <= m or vstat0.shape != (n + m0,):
        return None
    if basis0.min() < 0 or basis0.max() >= n + m0:
        return None
    if vstat0.min() < 0 or vstat0.max() > 3:  # 0 basic, 1 at lb, 2 at ub, 3 free
        return None
    Binv0 = None
    if len(warm) > 2 and m0 == m and np.shape(warm[2]) == (m, m):
        Binv0 = np.ascontiguousarray(warm[2], dtype=np.float64)
    return basis0, np.ascontiguousarray(vstat0, dtype=np.int8), Binv0


def solve_dense(A, b, sense, c, lb, ub, itmax=0, warm=None, prep=None):
    """Run the kernel on dense float64 data. A program with no rows is
    solved here, column by column, without the core.

    `warm` is an optional (basis, vstat) pair returned by an earlier solve
    of the same columns with the same or fewer leading rows. It is tried
    first; if it is neither dual nor primal feasible or the attempt
    fails, the cold attempts follow. A run that ends in numerical
    trouble is retried on an equilibrated copy of the data with more
    frequent basis refactorization; solutions, duals, and rays are mapped back to the
    original scaling. Infeasible and unbounded exits are only accepted
    when their certificates check out against the original data.

    `prep` is `prepare(A, b, sense)`, built once by a caller that solves
    the same program many times; A, b and sense are then not read.
    Without it the set-up is built here.

    Returns (status, x, obj, y, ray, iterations, basis); `basis` is the
    final (basis, vstat) pair when the solve is optimal with no
    artificial basic, else None. When the caller passed `prep`, the
    program has fewer than _BLOCK_FINAL_MIN_ROWS rows and an unscaled
    attempt solved it, the final dense basis inverse rides along as a
    third element, for the children that start from this basis.

    A column whose lower bound exceeds its upper bound makes the program
    infeasible, whatever its rows; that is answered before any attempt."""
    carry = prep is not None
    if prep is None:
        prep = prepare(A, b, sense)
    A, b, sense, WT, slo, shi = prep
    c = np.ascontiguousarray(c, dtype=np.float64)
    lb = np.ascontiguousarray(lb, dtype=np.float64)
    ub = np.ascontiguousarray(ub, dtype=np.float64)
    m, n = A.shape
    if itmax <= 0:
        itmax = 500 * (m + n + 20)
    if np.any(lb > ub):
        return INFEASIBLE, np.zeros(n), 0.0, np.zeros(m), np.zeros(m), 0, None
    if m == 0:
        x = np.zeros(n)
        ray = np.zeros(n)
        for j in range(n):
            if c[j] > 0.0:
                if not np.isfinite(lb[j]):
                    ray[j] = -1.0
                    return UNBOUNDED, x, 0.0, b.copy(), ray, 0, None
                x[j] = lb[j]
            elif c[j] < 0.0:
                if not np.isfinite(ub[j]):
                    ray[j] = 1.0
                    return UNBOUNDED, x, 0.0, b.copy(), ray, 0, None
                x[j] = ub[j]
            else:
                x[j] = lb[j] if np.isfinite(lb[j]) else (ub[j] if np.isfinite(ub[j]) else 0.0)
        return OPTIMAL, x, float(c @ x), b.copy(), ray, 0, None
    status = NUMERIC
    x = np.zeros(n)
    obj = 0.0
    y = np.zeros(m)
    ray = np.zeros(n)
    it = 0
    basis = vstat = None
    start = _warm_start(warm, n, m)
    attempts = [(scaled, every, None) for scaled, every in _ATTEMPTS]
    if start is not None:
        attempts.insert(0, (False, _REFACTOR_EVERY, start))
    for scaled, refactor_every, start in attempts:
        bs, cs, lbs, ubs, WTs = b, c, lb, ub, WT
        if scaled:
            R, C = _pow2_scales(A)
            bs, cs, lbs, ubs = b * R, c * C, lb / C, ub / C
            WTs = np.ascontiguousarray((A * np.outer(R, C)).T)
        try:
            status, x, obj, y, rayfull, it, basis, vstat, Binv = _lp_core(
                WTs, bs, sense, cs, lbs, ubs, slo, shi, itmax, refactor_every, start
            )
        except np.linalg.LinAlgError:
            status = NUMERIC
            continue
        if status == NUMERIC:
            continue
        if status == INFEASIBLE:
            ray = rayfull[n : n + m].copy()
            if scaled:
                ray *= R
                y = y * R
            if not _farkas_certifies(A, b, sense, lb, ub, ray):
                status = NUMERIC
                continue
        else:
            ray = rayfull[:n].copy()
            if scaled:
                x = x * C
                ray = ray * C
                y = y * R
                obj = float(c @ x)
            if status == UNBOUNDED and not _ray_certifies(A, sense, c, lb, ub, ray):
                status = NUMERIC
                continue
        break
    final = None
    if status == OPTIMAL and basis.max() < n + m:
        final = (basis, vstat)
        if carry and not scaled and m < _BLOCK_FINAL_MIN_ROWS:
            final = (basis, vstat, Binv)
    return status, x, obj, y, ray, it, final
