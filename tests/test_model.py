import math

import numpy as np
import pytest

from _oracles import (
    first_stage_points,
    linprog_reference,
    milp_reference,
    recourse_enum,
    z_ip_enum,
)
from conftest import make_tiny
from sipcuts.instances import SnipParams, gen_snip
from sipcuts.model import (
    BIN,
    INT,
    EnumerationCapError,
    InstanceError,
    Scenario,
    SipInstance,
    brute_force_epigraph,
    build_extensive_form,
    enumerate_first_stage,
    eval_recourse,
    joint_scenario_program,
    recourse_program,
    toy_instance,
    vtype_from_string,
    vtype_to_string,
)
from sipcuts.optbase import OPTIMAL, solve_lp, solve_mip


# ------------------------------------------------------------- toy instance


def test_toy_recourse_values(t1):
    assert eval_recourse(t1, 0, np.array([0.0])) == 2.0
    assert eval_recourse(t1, 0, np.array([1.0])) == 0.0
    assert eval_recourse(t1, 1, np.array([0.0])) == 3.0
    assert eval_recourse(t1, 1, np.array([1.0])) == 0.0


def test_toy_optimal_values(t1):
    ef = build_extensive_form(t1)
    mip = solve_mip(ef.program)
    assert mip.status == OPTIMAL and abs(mip.objective - 1.0) < 1e-9
    lp = solve_lp(ef.program)
    assert lp.status == OPTIMAL and abs(lp.objective - 1.0) < 1e-9
    assert abs(z_ip_enum(t1) - 1.0) < 1e-12


# -------------------------------------------------------------- validation


def test_probabilities_must_sum_to_one(t1):
    with pytest.raises(InstanceError, match="sum"):
        SipInstance(
            name="bad",
            c=t1.c,
            A=t1.A,
            b=t1.b,
            vtype=t1.vtype,
            lb=t1.lb,
            ub=t1.ub,
            scenarios=[t1.scenarios[0]],
        )


def test_dimension_errors_name_the_scenario(t1):
    bad = Scenario(
        prob=0.5,
        q=np.array([2.0, 9.0]),  # two costs but W has one column
        W=np.array([[1.0]]),
        h=np.array([1.0]),
        T=np.array([[1.0]]),
        vtype=np.array([1], dtype=np.int8),
        lb=np.array([0.0]),
        ub=np.array([np.inf]),
    )
    with pytest.raises(InstanceError, match="scenario 1"):
        SipInstance(
            name="bad",
            c=t1.c,
            A=t1.A,
            b=t1.b,
            vtype=t1.vtype,
            lb=t1.lb,
            ub=t1.ub,
            scenarios=[t1.scenarios[0], bad],
        )


def test_binary_bounds_validated(t1):
    with pytest.raises(InstanceError, match="binary"):
        SipInstance(
            name="bad",
            c=t1.c,
            A=t1.A,
            b=t1.b,
            vtype=np.array([BIN], dtype=np.int8),
            lb=np.array([0.0]),
            ub=np.array([2.0]),
            scenarios=t1.scenarios,
        )


def test_vtype_string_round_trip():
    v = vtype_from_string("CIBB")
    assert vtype_to_string(v) == "CIBB"
    with pytest.raises(InstanceError):
        vtype_from_string("CX")


# ------------------------------------------------------------- enumeration


def test_enumerate_first_stage_toy(t1):
    pts = enumerate_first_stage(t1)
    assert pts.tolist() == [[0.0], [1.0]]


def test_enumerate_respects_first_stage_rows():
    inst = make_tiny(4, nx=3, card_row=True)
    pts = enumerate_first_stage(inst)
    oracle = first_stage_points(inst)
    assert pts.shape[0] == len(oracle)
    assert sorted(map(tuple, pts.tolist())) == sorted(map(tuple, (p.tolist() for p in oracle)))


def test_enumeration_cap():
    inst = make_tiny(0, nx=4)
    with pytest.raises(EnumerationCapError) as e:
        enumerate_first_stage(inst, cap=3)
    assert e.value.count == 16


def test_brute_force_epigraph_matches_enumeration(t1):
    pts, vals = brute_force_epigraph(t1, 0)
    assert vals.tolist() == [2.0, 0.0]
    inst = make_tiny(8)
    pts, vals = brute_force_epigraph(inst, 1)
    for k in range(pts.shape[0]):
        assert vals[k] == recourse_enum(inst, 1, pts[k])


# ----------------------------------------------- extensive form and joints


@pytest.mark.parametrize("seed", range(12))
def test_extensive_form_matches_enumeration(seed):
    inst = make_tiny(seed)
    ef = build_extensive_form(inst)
    out = solve_mip(ef.program)
    want = z_ip_enum(inst)
    assert out.status == OPTIMAL
    assert abs(out.objective - want) <= 1e-6 * (1 + abs(want))
    ref_status, ref_obj = milp_reference(ef.program)
    assert ref_status == OPTIMAL
    assert abs(ref_obj - want) <= 1e-6 * (1 + abs(want))
    # first-stage block of the solution is feasible for stage one
    xs = out.x[ef.x_cols]
    if inst.A.shape[0]:
        assert np.all(inst.A @ xs >= inst.b - 1e-6)


@pytest.mark.parametrize("seed", [1, 6, 9])
def test_recourse_matches_enumeration_everywhere(seed):
    inst = make_tiny(seed)
    for x in first_stage_points(inst):
        for s in range(inst.nscen):
            got = eval_recourse(inst, s, x)
            want = recourse_enum(inst, s, x)
            if want == math.inf:
                assert got == math.inf
            else:
                assert abs(got - want) <= 1e-6 * (1 + abs(want))


def test_joint_scenario_program_value(t1):
    # min x + 2 y over K_0 = {(x,y): y >= 1 - x} hits 1 at x=1
    prog = joint_scenario_program(t1, 0, np.array([1.0]), t1.scenarios[0].q)
    out = solve_mip(prog)
    assert out.status == OPTIMAL and abs(out.objective - 1.0) < 1e-9
    # min -x + 2y: x=1, y=0 gives -1
    prog = joint_scenario_program(t1, 0, np.array([-1.0]), t1.scenarios[0].q)
    out = solve_mip(prog)
    assert out.status == OPTIMAL and abs(out.objective + 1.0) < 1e-9


BLOCK_CASES = {
    "tiny-card-row": lambda: make_tiny(3, card_row=True),
    "snip-desk": lambda: gen_snip(SnipParams(12, 30, 8, 10.0, 4, seed=3)),
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_joint_scenario_program_block_layout(case):
    inst = BLOCK_CASES[case]()
    assert inst.A.shape[0] > 0
    for s, scen in enumerate(inst.scenarios):
        prog = joint_scenario_program(inst, s, inst.c, scen.q)
        want = np.block(
            [
                [inst.A, np.zeros((inst.A.shape[0], scen.ny))],
                [scen.T, scen.W],
            ]
        )
        assert np.array_equal(prog.A.to_dense(), want)
        assert np.array_equal(prog.rhs, np.concatenate([inst.b, scen.h]))
        assert np.array_equal(prog.c, np.concatenate([inst.c, scen.q]))


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_extensive_form_block_layout(case):
    inst = BLOCK_CASES[case]()
    ny = [scen.ny for scen in inst.scenarios]
    blocks = [[inst.A] + [np.zeros((inst.A.shape[0], k)) for k in ny]]
    for s, scen in enumerate(inst.scenarios):
        row = [scen.T]
        for t, k in enumerate(ny):
            row.append(scen.W if t == s else np.zeros((scen.nrows, k)))
        blocks.append(row)
    prog = build_extensive_form(inst).program
    assert np.array_equal(prog.A.to_dense(), np.block(blocks))
    assert np.array_equal(prog.rhs, np.concatenate([inst.b] + [scen.h for scen in inst.scenarios]))
    want_c = np.concatenate([inst.c] + [scen.prob * scen.q for scen in inst.scenarios])
    assert np.array_equal(prog.c, want_c)


def test_recourse_program_rhs_shift(t1):
    prog = recourse_program(t1, 0, np.array([0.25]))
    assert prog.rhs[0] == 0.75


def test_recourse_with_no_integer_in_its_box_is_infeasible():
    # y in [0.3, 0.7] is integer, and no integer lies there
    scen = Scenario(
        prob=1.0,
        q=[1.0],
        W=[[1.0]],
        h=[0.0],
        T=[[0.0]],
        vtype=[INT],
        lb=[0.3],
        ub=[0.7],
    )
    inst = SipInstance(
        name="empty-box",
        c=[0.0],
        A=np.zeros((0, 1)),
        b=[],
        vtype=[BIN],
        lb=[0.0],
        ub=[1.0],
        scenarios=[scen],
    )
    assert eval_recourse(inst, 0, np.zeros(1)) == math.inf


def test_lp_relaxation_of_extensive_form_reference():
    prog = build_extensive_form(make_tiny(2)).program
    mine = solve_lp(prog)
    ref_status, ref_obj = linprog_reference(prog)
    assert mine.status == ref_status == OPTIMAL
    assert abs(mine.objective - ref_obj) <= 1e-6 * (1 + abs(ref_obj))
