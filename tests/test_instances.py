"""Generators and the text instance format."""

import hashlib

import numpy as np
import pytest

from sipcuts.instances import (
    FormatError,
    Rng,
    SnipParams,
    SslpParams,
    _snip_network,
    from_text,
    gen_snip,
    gen_sslp,
    max_reliability,
    read_instance,
    to_text,
    write_instance,
)
from sipcuts.model import (
    BIN,
    CONT,
    InstanceError,
    build_extensive_form,
    eval_recourse,
    toy_instance,
)
from sipcuts.optbase import solve_mip

from _oracles import milp_reference


# ------------------------------------------------------------------ RNG


def test_splitmix64_reference_vector():
    # published test vector for splitmix64 seeded with 0
    r = Rng(0)
    assert [r.next_u64() for _ in range(4)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
        17909611376780542444,
    ]


def test_rng_snapshot_and_bounds():
    r = Rng(7)
    draws = [r.randint(0, 9) for _ in range(12)]
    assert draws == [7, 4, 6, 3, 4, 5, 8, 2, 5, 5, 3, 6]
    r = Rng(99)
    vals = [r.randint(-3, 3) for _ in range(2000)]
    assert min(vals) == -3 and max(vals) == 3
    assert len(set(vals)) == 7  # every value appears
    r = Rng(5)
    assert r.randint(4, 4) == 4
    with pytest.raises(ValueError):
        r.randint(3, 2)


def test_rng_sample_distinct():
    r = Rng(1)
    picks = r.sample(10, 10)
    assert sorted(picks) == list(range(10))
    picks = r.sample(50, 5)
    assert len(set(picks)) == 5
    with pytest.raises(ValueError):
        r.sample(3, 4)


# ------------------------------------------------------------------ SSLP


DESK_SSLP = SslpParams(3, 5, 3, seed=7)


def test_sslp_deterministic_bytes():
    t1 = to_text(gen_sslp(DESK_SSLP))
    t2 = to_text(gen_sslp(DESK_SSLP))
    assert t1 == t2
    assert (
        hashlib.sha256(t1.encode()).hexdigest()
        == "000103a5746d475bcea24fbc85d94ad8a21de2a558d48305d19ce22ddbde5888"
    )


def test_sslp_structure_and_ranges():
    inst = gen_sslp(DESK_SSLP)
    m, n, S = 3, 5, 3
    assert inst.name == "sslp1-3-5-3"
    assert inst.nx == m and inst.nscen == S
    assert np.all(inst.vtype == BIN)
    assert inst.A.shape[0] == 0
    assert np.all((inst.c >= 40) & (inst.c <= 80))
    assert np.all(inst.c == np.round(inst.c))
    scen = inst.scenarios[0]
    assert scen.ny == n * m + m
    assert scen.nrows == m + 2 * n
    # revenue terms are negated integer weights in [0, 25]
    d = -scen.q[: n * m].reshape(n, m)
    assert np.all((d >= 0) & (d <= 25)) and np.all(d == np.round(d))
    assert np.all(scen.q[n * m :] == 1000.0)
    # capacity u is the exact mean total weight per site
    u = d.sum() / m
    T = scen.T
    assert np.allclose(np.diag(T[:m, :m]), u) and np.count_nonzero(T) == m
    # capacity rows carry -d on assignments, +1 on shortage
    W = scen.W
    for j in range(m):
        for i in range(n):
            assert W[j, i * m + j] == -d[i, j]
        assert W[j, n * m + j] == 1.0
    # assignment rows are paired with opposite signs
    for i in range(n):
        r1, r2 = W[m + 2 * i], W[m + 2 * i + 1]
        assert np.array_equal(r1, -r2)
        assert r1[: n * m].sum() == m  # one +1 per site
    for scen in inst.scenarios:
        assert scen.prob == pytest.approx(1.0 / S)
        hvals = scen.h[m::2]
        assert np.all((hvals == 0) | (hvals == 1))
        assert np.array_equal(scen.h[m + 1 :: 2], -hvals)
        assert np.all(scen.vtype[: n * m] == BIN)
        assert np.all(scen.vtype[n * m :] == CONT)


def test_sslp_complete_recourse_sampled():
    inst = gen_sslp(SslpParams(3, 4, 2, seed=2))
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.integers(0, 2, size=inst.nx).astype(float)
        for s in range(inst.nscen):
            assert np.isfinite(eval_recourse(inst, s, x))


def test_sslp_desk_optimum_frozen():
    inst = gen_sslp(DESK_SSLP)
    prog = build_extensive_form(inst).program
    out = solve_mip(prog)
    assert out.objective == pytest.approx(14.0 / 3.0, rel=1e-9)
    status, ref = milp_reference(prog)
    assert status == "optimal"
    assert out.objective == pytest.approx(ref, rel=1e-9)


def test_sslp_param_validation():
    with pytest.raises(ValueError):
        SslpParams(0, 5, 3)
    with pytest.raises(ValueError):
        SslpParams(3, 5, 0)


# ------------------------------------------------------------------ SNIP


DESK_SNIP = SnipParams(12, 30, interdictable_count=8, budget=10.0, n_scenarios=4, seed=3)


def _enumerate_paths_best(arcs, r, N, source, dest):
    """Brute-force max product of reliabilities over all forward paths."""
    out = {}
    for a, (i, j) in enumerate(arcs):
        out.setdefault(i, []).append((j, r[a]))
    best = [0.0]

    def walk(node, prod):
        if node == dest:
            best[0] = max(best[0], prod)
            return
        for nxt, rel in out.get(node, ()):
            walk(nxt, prod * rel)

    walk(source, 1.0)
    return best[0]


def test_snip_deterministic_bytes():
    t1 = to_text(gen_snip(DESK_SNIP))
    t2 = to_text(gen_snip(DESK_SNIP))
    assert t1 == t2
    assert (
        hashlib.sha256(t1.encode()).hexdigest()
        == "bd51b9dbfb7990aa48190303924947c9b56f968757c0a9b1627bf69c44f66ea3"
    )


def test_snip_reliability_table_vs_path_enumeration():
    arcs, r, q, D, cost, origins, _ = _snip_network(DESK_SNIP)
    N = DESK_SNIP.nodes
    u = max_reliability(arcs, r, N, N - 1)
    for node in range(N):
        assert u[node] == pytest.approx(
            _enumerate_paths_best(arcs, r, N, node, N - 1), abs=1e-12
        )
    assert u[N - 1] == 1.0
    assert np.all((u > 0) & (u <= 1.0))  # spine keeps every node connected


def test_snip_invariants():
    inst = gen_snip(DESK_SNIP)
    arcs, r, q, D, cost, origins, _ = _snip_network(DESK_SNIP)
    assert inst.name == "snip-12-30-4-b10"
    assert inst.nx == 8 and np.all(inst.vtype == BIN)
    assert np.all(inst.c == 0.0)
    assert np.all(q < r) and np.all(r <= 1.0)
    assert np.all(q > 0)
    # budget row: -cost'x >= -budget
    A = inst.A
    assert A.shape == (1, inst.nx)
    assert np.array_equal(A[0], -cost)
    assert inst.b[0] == -DESK_SNIP.budget
    for scen in inst.scenarios:
        assert scen.prob == pytest.approx(0.25)
        assert np.all(scen.vtype == CONT)
        assert np.count_nonzero(scen.q) == 1 and scen.q.max() == 1.0


def test_snip_value_at_zero_is_expected_reliability():
    inst = gen_snip(DESK_SNIP)
    arcs, r, q, D, cost, origins, _ = _snip_network(DESK_SNIP)
    u = max_reliability(arcs, r, DESK_SNIP.nodes, DESK_SNIP.nodes - 1)
    z0 = sum(
        s.prob * eval_recourse(inst, i, np.zeros(inst.nx))
        for i, s in enumerate(inst.scenarios)
    )
    assert z0 == pytest.approx(sum(s.prob * u[origins[i]] for i, s in enumerate(inst.scenarios)))


@pytest.mark.parametrize("seed", range(4))
def test_snip_matches_interdicted_path_oracle(seed):
    p = SnipParams(8, 14, interdictable_count=5, budget=6.0, n_scenarios=3, seed=seed)
    inst = gen_snip(p)
    arcs, r, q, D, cost, origins, _ = _snip_network(p)
    masks = [np.zeros(5), np.ones(5), np.array([1.0, 0, 1, 0, 1]), np.array([0.0, 1, 0, 1, 0])]
    for x in masks:
        reff = np.array(
            [q[a] if (a in D and x[D.index(a)] > 0.5) else r[a] for a in range(len(arcs))]
        )
        for i in range(inst.nscen):
            expect = _enumerate_paths_best(arcs, reff, 8, origins[i], 7)
            assert eval_recourse(inst, i, x) == pytest.approx(expect, abs=1e-9)


def test_snip_pi_within_unit_box_at_optimum():
    from sipcuts.model import recourse_program
    from sipcuts.optbase import solve_lp

    inst = gen_snip(SnipParams(8, 14, interdictable_count=5, budget=6.0, n_scenarios=3, seed=11))
    for x in (np.zeros(inst.nx), np.ones(inst.nx)):
        for s in range(inst.nscen):
            out = solve_lp(recourse_program(inst, s, x))
            assert out.x.min() >= -1e-9 and out.x.max() <= 1 + 1e-9


def test_snip_extensive_form_vs_reference():
    inst = gen_snip(SnipParams(8, 14, interdictable_count=5, budget=6.0, n_scenarios=3, seed=11))
    prog = build_extensive_form(inst).program
    mine = solve_mip(prog).objective
    status, ref = milp_reference(prog)
    assert status == "optimal" and mine == pytest.approx(ref, abs=1e-9)
    assert mine == pytest.approx(0.346892, abs=1e-9)


def test_snip_param_validation():
    with pytest.raises(ValueError):
        SnipParams(2, 5, 1, 1.0, 1)
    with pytest.raises(ValueError):
        SnipParams(8, 5, 1, 1.0, 1)  # fewer arcs than the spine needs
    with pytest.raises(ValueError):
        SnipParams(8, 14, 0, 1.0, 1)
    for budget in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="budget"):
            SnipParams(8, 14, 5, budget, 1)
    with pytest.raises(ValueError, match="forward arcs"):
        gen_snip(SnipParams(8, 200, 5, 1.0, 1))  # more arcs than forward pairs fit


# ------------------------------------------------------------------ format


def test_round_trip_toy_and_generated(tmp_path):
    for inst in (toy_instance(), gen_sslp(DESK_SSLP), gen_snip(DESK_SNIP)):
        text = to_text(inst)
        again = from_text(text)
        assert to_text(again) == text
        path = tmp_path / f"{inst.name}.sip"
        write_instance(inst, str(path))
        back = read_instance(str(path))
        assert to_text(back) == text
        assert back.name == inst.name
        assert np.array_equal(back.c, inst.c)
        for s0, s1 in zip(inst.scenarios, back.scenarios):
            assert s0.prob == s1.prob
            assert np.array_equal(s0.q, s1.q)
            assert np.array_equal(s0.h, s1.h)
            assert np.array_equal(s0.W, s1.W)
            assert np.array_equal(s0.T, s1.T)


def test_round_trip_preserves_inf_and_negative_zero():
    inst = toy_instance()
    inst.scenarios[0].ub[0] = np.inf
    inst.scenarios[0].h[0] = -0.0
    back = from_text(to_text(inst))
    assert back.scenarios[0].ub[0] == np.inf
    assert np.signbit(back.scenarios[0].h[0])


def test_format_errors_carry_line_numbers():
    good = to_text(toy_instance())
    with pytest.raises(FormatError, match="line 1"):
        from_text("something else\n" + good)
    lines = good.splitlines()
    with pytest.raises(FormatError, match="unexpected end of file"):
        from_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(FormatError, match="content after 'end'"):
        from_text(good + "tail\n")
    bad = good.replace("c 1.0", "c 1.0 oops", 1)
    with pytest.raises(FormatError, match="bad float"):
        from_text(bad)
    with pytest.raises(FormatError, match="line"):
        from_text(good.replace("prob 0.5", "prob x", 1))
    with pytest.raises(FormatError, match="expected 'scen 1'"):
        from_text(good.replace("\nscen 1\n", "\nscen 10\n", 1))


def test_lines_stripped_of_trailing_spaces_still_read():
    # SSLP has no first-stage rows, so its `b` line is the key and a space
    for inst in (toy_instance(), gen_sslp(DESK_SSLP), gen_snip(DESK_SNIP)):
        text = to_text(inst)
        stripped = "".join(line.rstrip() + "\n" for line in text.splitlines())
        assert to_text(from_text(stripped)) == text
    assert "\nb \n" in to_text(gen_sslp(DESK_SSLP))


@pytest.mark.parametrize("name", ["", "../escaped", "runs/a", "..\\escaped"])
def test_format_rejects_names_that_are_paths(name):
    text = to_text(toy_instance()).replace("\nname toy2s\n", f"\nname {name}\n", 1)
    with pytest.raises(FormatError, match="line 2: instance name"):
        from_text(text)


def test_format_rejects_bad_matrix_header():
    good = to_text(toy_instance())
    lines = good.splitlines()
    wi = lines.index("W")
    lines[wi + 1] = "1 1"
    with pytest.raises(FormatError, match="nrows ncols nnz"):
        from_text("\n".join(lines) + "\n")


def _with_block(text, key, block):
    """`text` with the lines of matrix `key` (header and entries)
    replaced by `block`."""
    lines = text.splitlines()
    i = lines.index(key)
    nnz = int(lines[i + 1].split()[2])
    lines[i + 1 : i + 2 + nnz] = block
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "key,block,message",
    [
        ("W", ["1 1 1", e], "W entry .* outside its 1x1 shape")
        for e in ("1 0 1.0", "0 1 1.0", "-1 0 1.0", "0 -1 1.0")
    ]
    + [("T", [h], "negative number in T header") for h in ("-1 1 0", "1 -1 0", "1 1 -1")],
    ids=["row-high", "col-high", "row-negative", "col-negative"]
    + ["nrows-negative", "ncols-negative", "nnz-negative"],
)
def test_format_matrix_errors_name_the_line(key, block, message):
    bad = _with_block(to_text(toy_instance()), key, block)
    line = bad.splitlines().index(block[-1]) + 1
    with pytest.raises(FormatError, match=f"line {line}: {message}"):
        from_text(bad)


@pytest.mark.parametrize(
    "key,header,vectors",
    [
        ("A", "4000000000000 2 0", "b has 0 entries and c has 3"),
        ("A", "3000000 3000000 0", "b has 0 entries and c has 3"),
        ("T", "7 2 0", "h has 7 entries and c has 3"),
    ],
    ids=["A-rows-huge", "A-both-huge", "T-columns"],
)
def test_matrix_header_must_match_its_vectors(key, header, vectors):
    # SSLP(3,2,2): 3 sites, 2 clients, 7 scenario rows and no first-stage row
    bad = _with_block(to_text(gen_sslp(SslpParams(3, 2, 2, seed=1))), key, [header])
    line = bad.splitlines().index(header) + 1
    shape = "x".join(header.split()[:2])
    with pytest.raises(FormatError, match=f"line {line}: {key} header says {shape}, but {vectors}"):
        from_text(bad)


def test_duplicate_entries_are_summed_and_written_merged():
    inst = gen_snip(DESK_SNIP)
    text = to_text(inst)
    a = inst.A[0]
    # a[0] split in two, a pair on a[1] that cancels, an explicit -0.0
    entries = ["0 1 2.5", "0 0 1.0"]
    entries += [f"0 {j} {float(v)!r}" for j, v in enumerate(a - np.eye(a.size)[0])]
    entries += ["0 1 -2.5", "0 0 -0.0"]
    back = from_text(_with_block(text, "A", [f"1 {a.size} {len(entries)}"] + entries))
    assert np.array_equal(back.A, inst.A)
    assert to_text(back) == text


def test_negative_zero_entry_is_read_as_zero_and_not_written():
    # an entry that sums to zero is a +0.0 and is not written back
    toy = to_text(toy_instance())
    back = from_text(_with_block(toy, "T", ["1 1 2", "0 0 -0.0", "0 0 0.0"]))
    assert back.scenarios[0].T.tolist() == [[0.0]]
    assert not np.signbit(back.scenarios[0].T[0, 0])
    lines = to_text(back).splitlines()
    i = lines.index("T")
    assert lines[i + 1 : i + 3] == ["1 1 0", "scen 1"]


@pytest.mark.filterwarnings("error")
def test_summed_entries_must_stay_finite():
    # each entry is finite, their sum overflows to inf
    bad = _with_block(to_text(toy_instance()), "W", ["1 1 2", "0 0 1e308", "0 0 1e308"])
    with pytest.raises(InstanceError, match="scenario 0: W has a non-finite entry"):
        from_text(bad)


def _poison(text, key, token):
    """`text` with the first value of the first `key` line, or of the first
    entry of matrix `key`, replaced by `token`."""
    lines = text.splitlines()
    i = next(k for k, line in enumerate(lines) if line == key or line.startswith(key + " "))
    if lines[i] == key:  # matrix: header line, then 'row col value' entries
        i += 2
        toks = lines[i].split()
        toks[2] = token
    else:
        toks = lines[i].split()
        toks[1] = token
    lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "key,token",
    [(key, "nan") for key in ("c", "b", "A", "lb", "ub", "prob", "q", "h", "W", "T")]
    + [(key, tok) for key in ("c", "b", "A", "q", "h", "W", "T") for tok in ("inf", "-inf")],
)
def test_from_text_rejects_non_finite_data(key, token):
    text = to_text(gen_snip(DESK_SNIP))
    bad = _poison(text, key, token)
    assert bad != text
    with pytest.raises(InstanceError, match="non-finite|NaN"):
        from_text(bad)
