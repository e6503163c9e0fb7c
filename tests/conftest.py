"""Shared fixtures: the two-scenario toy instance and a deterministic
family of tiny random instances small enough for exhaustive oracles.

Tiny instances have binary first stage (with an optional cardinality
row), integer recourse on small boxes, and one slack-absorbing recourse
variable priced above every regular recourse cost so that the recourse
problem is feasible for every first-stage point."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from sipcuts.model import BIN, CONT, INT, Scenario, SipInstance, toy_instance


@pytest.fixture
def t1():
    return toy_instance()


def make_tiny(
    seed: int,
    nx: int | None = None,
    nscen: int | None = None,
    card_row: bool | None = None,
) -> SipInstance:
    """Deterministic tiny instance generated from `seed`."""
    rng = random.Random(seed)
    if nx is None:
        nx = rng.randint(2, 4)
    if nscen is None:
        nscen = rng.randint(2, 3)
    if card_row is None:
        card_row = rng.random() < 0.5
    c = np.array([float(rng.randint(1, 6)) for _ in range(nx)])
    if card_row:
        k = rng.randint(1, nx)
        A = -np.ones((1, nx))
        b = np.array([-float(k)])
    else:
        A = np.zeros((0, nx))
        b = np.zeros(0)

    ny = rng.randint(2, 3)
    mrows = rng.randint(2, 3)
    scenarios = []
    for _ in range(nscen):
        W = np.zeros((mrows, ny + 1))
        T = np.zeros((mrows, nx))
        for i in range(mrows):
            for j in range(ny):
                if rng.random() < 0.7:
                    W[i, j] = float(rng.randint(-2, 2))
            for j in range(nx):
                if rng.random() < 0.7:
                    T[i, j] = float(rng.randint(-2, 2))
            W[i, ny] = 1.0  # slack-absorbing column
        h = np.array([float(rng.randint(-2, 4)) for _ in range(mrows)])
        # Bound the absorbing variable by the worst rhs over the binary box.
        worst = 0.0
        for i in range(mrows):
            worst = max(worst, h[i] + float(np.sum(np.maximum(-T[i], 0.0))))
        q = np.array([float(rng.randint(1, 5)) for _ in range(ny)] + [float(rng.randint(7, 11))])
        scenarios.append(
            Scenario(
                prob=1.0 / nscen,
                q=q,
                W=W,
                h=h,
                T=T,
                vtype=np.full(ny + 1, INT, dtype=np.int8),
                lb=np.zeros(ny + 1),
                ub=np.array([2.0] * ny + [max(1.0, math.ceil(worst))]),
            )
        )
    return SipInstance(
        name=f"tiny{seed}",
        c=c,
        A=A,
        b=b,
        vtype=np.full(nx, BIN, dtype=np.int8),
        scenarios=scenarios,
        lb=np.zeros(nx),
        ub=np.ones(nx),
    )


def make_gap_tiny(seed: int) -> SipInstance:
    """Tiny covering instance whose integer recourse strictly exceeds its
    LP relaxation at every binary first-stage point.

    Both covering rows use even coefficients (W entries in {2, 4}, T
    entries in {0, 2}, shared across scenarios) while demands are odd and
    stay at least 1 above the maximum first-stage relief, so the cheapest
    cover always rounds up by half a unit. That guarantees a genuine
    integrality gap, strictly positive strengthening lift for every
    classical cut, and a perfect-information bound above the extensive
    LP bound."""
    rng = random.Random(seed)
    nx = rng.randint(2, 3)
    nscen = rng.randint(2, 4)
    c = np.array([float(rng.randint(1, 4)) for _ in range(nx)])
    ny = 2
    mrows = 2
    Wcore = np.zeros((mrows, ny))
    T = np.zeros((mrows, nx))
    for i in range(mrows):
        for j in range(ny):
            Wcore[i, j] = float(rng.choice([2, 2, 4]))
        for j in range(nx):
            T[i, j] = float(rng.choice([0, 2, 2]))
    scenarios = []
    for _ in range(nscen):
        W = np.zeros((mrows, ny + 1))
        W[:, :ny] = Wcore
        W[:, ny] = 1.0  # slack-absorbing column, keeps recourse complete
        h = np.array([T[i].sum() + float(rng.choice([1, 3, 5])) for i in range(mrows)])
        q = np.array([float(rng.randint(2, 5)) for _ in range(ny)] + [float(rng.randint(8, 12))])
        scenarios.append(
            Scenario(
                prob=1.0 / nscen,
                q=q,
                W=W,
                h=h,
                T=T,
                vtype=np.full(ny + 1, INT, dtype=np.int8),
                lb=np.zeros(ny + 1),
                ub=np.array([3.0] * ny + [max(1.0, math.ceil(float(np.max(h))))]),
            )
        )
    return SipInstance(
        name=f"gaptiny{seed}",
        c=c,
        A=np.zeros((0, nx)),
        b=np.zeros(0),
        vtype=np.full(nx, BIN, dtype=np.int8),
        scenarios=scenarios,
        lb=np.zeros(nx),
        ub=np.ones(nx),
    )


def tiny_suite(count: int, start_seed: int = 0, predicate=None) -> list[SipInstance]:
    """First `count` tiny instances (by seed) passing `predicate`."""
    out = []
    seed = start_seed
    while len(out) < count:
        inst = make_tiny(seed)
        if predicate is None or predicate(inst):
            out.append(inst)
        seed += 1
        if seed > start_seed + 3000:
            raise RuntimeError("tiny_suite predicate rejected too many seeds")
    return out


def unbounded_master_instance() -> SipInstance:
    """One scenario whose recourse ignores x, under min -x over an
    integer x in [0, inf) with no first-stage row: every scenario bound
    is finite, and the cut master is unbounded."""
    scen = Scenario(
        prob=1.0,
        q=np.array([1.0]),
        W=np.array([[1.0]]),
        h=np.array([0.0]),
        T=np.array([[0.0]]),
        vtype=np.array([CONT], dtype=np.int8),
        lb=np.zeros(1),
        ub=np.array([np.inf]),
    )
    return SipInstance(
        name="unbounded",
        c=np.array([-1.0]),
        A=np.zeros((0, 1)),
        b=np.zeros(0),
        vtype=np.array([INT], dtype=np.int8),
        scenarios=[scen],
        lb=np.zeros(1),
        ub=np.array([np.inf]),
    )
