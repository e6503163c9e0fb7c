"""Deterministic instance generators and a plain-text instance format.

Both generators draw every random quantity through a splitmix64 stream
using integer-only draws with rejection sampling, so identical
parameters produce bit-identical instances on any platform.

Families
  * Stochastic server location ("sslp"): binary site openings x_j;
    per scenario, binary client assignments y_ij, continuous shortage
    y_0j, site capacity rows and client assignment equalities. Serving
    a client earns revenue (negative cost); shortage is penalized.
  * Stochastic network interdiction ("snip"): binary sensor placements
    on a subset of arcs of a layered acyclic network under a budget;
    per scenario, node values pi_i bound the best evasion probability
    from that scenario's origin, with sensor arcs switchable between
    their clean and inspected reliabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BIN, CONT, Scenario, SipInstance, vtype_from_string, vtype_to_string

_MASK = (1 << 64) - 1


class Rng:
    """splitmix64 stream; all draws are integer-based and portable."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive, via rejection."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        limit = ((1 << 64) // span) * span
        while True:
            u = self.next_u64()
            if u < limit:
                return lo + (u % span)

    def sample(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), in draw order."""
        if k > n:
            raise ValueError(f"cannot sample {k} of {n}")
        pool = list(range(n))
        out = []
        for i in range(k):
            j = self.randint(i, n - 1)
            pool[i], pool[j] = pool[j], pool[i]
            out.append(pool[i])
        return out


# --------------------------------------------------------------------- SSLP


@dataclass
class SslpParams:
    m: int  # candidate sites (first-stage binaries)
    n: int  # clients
    n_scenarios: int
    seed: int = 0
    k: int = 1  # instance number, only used in the name

    def __post_init__(self):
        if self.m < 1 or self.n < 1 or self.n_scenarios < 1:
            raise ValueError("sslp sizes must be at least 1")


def gen_sslp(p: SslpParams) -> SipInstance:
    """Server-location instance; see the module docstring.

    Draw order: c_j (j ascending), then d_ij = q_ij (clients i outer,
    sites j inner), then h_i^s (scenarios s outer, clients i inner).
    Capacity u = sum(d) / m, shortage price 1000, p_s = 1/|S|."""
    rng = Rng(p.seed)
    m, n, S = p.m, p.n, p.n_scenarios
    c = np.array([float(rng.randint(40, 80)) for _ in range(m)])
    d = np.array([[float(rng.randint(0, 25)) for _ in range(m)] for _ in range(n)])
    u = float(d.sum()) / m
    ny = n * m + m  # y_ij blocks then shortage y_0j
    q = np.concatenate([-d.reshape(-1), np.full(m, 1000.0)])
    vt = np.concatenate([np.full(n * m, BIN, dtype=np.int8), np.full(m, CONT, dtype=np.int8)])
    ylb = np.zeros(ny)
    yub = np.concatenate([np.ones(n * m), np.full(m, np.inf)])
    nrows = m + 2 * n
    W = np.zeros((nrows, ny))
    T = np.zeros((nrows, m))
    # capacity rows j: -sum_i d_ij y_ij + y_0j >= -u x_j
    for j in range(m):
        W[j, j : n * m : m] = -d[:, j]
        W[j, n * m + j] = 1.0
        T[j, j] = u
    # assignment pair rows per client: sum_j y_ij >= h_i and <= h_i
    for i in range(n):
        W[m + 2 * i, i * m : (i + 1) * m] = 1.0
        W[m + 2 * i + 1, i * m : (i + 1) * m] = -1.0
    scenarios = []
    for _ in range(S):
        h = np.zeros(nrows)
        for i in range(n):
            hi = float(rng.randint(0, 1))
            h[m + 2 * i] = hi
            h[m + 2 * i + 1] = -hi
        scenarios.append(
            Scenario(
                prob=1.0 / S,
                q=q.copy(),
                W=W,
                h=h,
                T=T,
                vtype=vt.copy(),
                lb=ylb.copy(),
                ub=yub.copy(),
            )
        )
    return SipInstance(
        name=f"sslp{p.k}-{m}-{n}-{S}",
        c=c,
        A=np.zeros((0, m)),
        b=np.zeros(0),
        vtype=np.full(m, BIN, dtype=np.int8),
        lb=np.zeros(m),
        ub=np.ones(m),
        scenarios=scenarios,
    )


# --------------------------------------------------------------------- SNIP

#: clean arc reliability, percent range
_R_PCT = (30, 90)
#: inspected/clean reliability ratio, percent range; below 100, so an
#: inspected arc is always less reliable than a clean one
_RHO_PCT = (10, 50)


@dataclass
class SnipParams:
    nodes: int
    arcs: int
    interdictable_count: int
    budget: float
    n_scenarios: int
    seed: int = 0

    def __post_init__(self):
        if self.nodes < 3:
            raise ValueError("snip needs at least 3 nodes")
        if self.arcs < self.nodes - 1:
            raise ValueError("snip needs at least nodes-1 arcs for the spine")
        if not (0 < self.interdictable_count <= self.arcs):
            raise ValueError("interdictable_count must be in [1, arcs]")
        if not (np.isfinite(self.budget) and self.budget > 0):
            raise ValueError("budget must be finite and positive")


def _snip_network(p: SnipParams):
    """Arcs (i, j) with i < j: a 0->1->...->N-1 spine plus random
    forward arcs, so every node reaches the sink N-1."""
    rng = Rng(p.seed)
    N = p.nodes
    arcs = [(i, i + 1) for i in range(N - 1)]
    have = set(arcs)
    span = max(2, N // 2)
    capacity = sum(min(span, N - 1 - i) for i in range(N - 1))
    if p.arcs > capacity:
        raise ValueError(f"at most {capacity} forward arcs fit {N} nodes, got {p.arcs}")
    while len(arcs) < p.arcs:
        i = rng.randint(0, N - 2)
        j = rng.randint(i + 1, min(N - 1, i + span))
        if (i, j) not in have:
            have.add((i, j))
            arcs.append((i, j))
    r = np.array([rng.randint(*_R_PCT) / 100.0 for _ in arcs])
    rho = np.array([rng.randint(*_RHO_PCT) / 100.0 for _ in arcs])
    q = rho * r
    D = sorted(rng.sample(len(arcs), p.interdictable_count))
    cost = np.array([float(rng.randint(1, 10)) for _ in D])
    origins = [rng.randint(0, N - 2) for _ in range(p.n_scenarios)]
    return arcs, r, q, D, cost, origins, rng


def max_reliability(arcs, r, N, dest) -> np.ndarray:
    """Best product of arc reliabilities from each node to `dest`, by
    dynamic programming in reverse node order (arcs always go forward)."""
    u = np.zeros(N)
    u[dest] = 1.0
    by_tail: dict[int, list[int]] = {}
    for a, (i, _) in enumerate(arcs):
        by_tail.setdefault(i, []).append(a)
    for i in range(N - 1, -1, -1):
        if i == dest:
            continue
        best = 0.0
        for a in by_tail.get(i, ()):
            j = arcs[a][1]
            best = max(best, r[a] * u[j])
        u[i] = best
    return u


def gen_snip(p: SnipParams) -> SipInstance:
    """Network-interdiction instance; see the module docstring.

    For arc a = (i, j): a clean arc contributes pi_i - r_a pi_j >= 0; a
    sensor-eligible arc adds pi_i - q_a pi_j >= 0 together with
    pi_i - r_a pi_j >= -(r_a - q_a) u_j x_a, where u_j is the unguarded
    best reliability from j. The sink row pins pi_sink = 1 and the
    objective of scenario s reads pi at that scenario's origin."""
    arcs, r, q, D, cost, origins, _ = _snip_network(p)
    N = p.nodes
    dest = N - 1
    nx = len(D)
    dcol = {a: k for k, a in enumerate(D)}
    u = max_reliability(arcs, r, N, dest)
    nrows = len(arcs) + len(D) + 2
    W = np.zeros((nrows, N))
    T = np.zeros((nrows, nx))
    rr = 0
    for a, (i, j) in enumerate(arcs):
        W[rr, [i, j]] = 1.0, -r[a]
        if a in dcol:
            T[rr, dcol[a]] = (r[a] - q[a]) * u[j]
            rr += 1
            W[rr, [i, j]] = 1.0, -q[a]
        rr += 1
    W[-2:, dest] = 1.0, -1.0
    h = np.zeros(nrows)
    h[-2:] = 1.0, -1.0
    scenarios = []
    for s in range(p.n_scenarios):
        qobj = np.zeros(N)
        qobj[origins[s]] = 1.0
        scenarios.append(
            Scenario(
                prob=1.0 / p.n_scenarios,
                q=qobj,
                W=W,
                h=h.copy(),
                T=T,
                vtype=np.full(N, CONT, dtype=np.int8),
                lb=np.zeros(N),
                ub=np.full(N, np.inf),
            )
        )
    return SipInstance(
        name=f"snip-{N}-{len(arcs)}-{p.n_scenarios}-b{p.budget:g}",
        c=np.zeros(nx),
        A=-cost[None, :],
        b=np.array([-float(p.budget)]),
        vtype=np.full(nx, BIN, dtype=np.int8),
        lb=np.zeros(nx),
        ub=np.ones(nx),
        scenarios=scenarios,
    )


# -------------------------------------------------------------- text format

_FORMAT_TAG = "sipcuts-instance v1"


class FormatError(ValueError):
    """Malformed instance file; message carries the 1-based line."""


def _fmt_vec(v: np.ndarray) -> str:
    return " ".join(repr(float(x)) for x in v)


def _fmt_coo(m: np.ndarray) -> list[str]:
    """Header 'nrows ncols nnz', then one 'row col value' line per
    nonzero in row-major order."""
    rows, cols = np.nonzero(m)
    lines = [f"{m.shape[0]} {m.shape[1]} {rows.size}"]
    for r, c in zip(rows, cols):
        lines.append(f"{r} {c} {float(m[r, c])!r}")
    return lines


def to_text(inst: SipInstance) -> str:
    out = [_FORMAT_TAG, f"name {inst.name}"]
    out.append(f"c {_fmt_vec(inst.c)}")
    out.append(f"vtype {vtype_to_string(inst.vtype)}")
    out.append(f"lb {_fmt_vec(inst.lb)}")
    out.append(f"ub {_fmt_vec(inst.ub)}")
    out.append("A")
    out.extend(_fmt_coo(inst.A))
    out.append(f"b {_fmt_vec(inst.b)}")
    out.append(f"nscen {inst.nscen}")
    for s, scen in enumerate(inst.scenarios):
        out.append(f"scen {s}")
        out.append(f"prob {scen.prob!r}")
        out.append(f"q {_fmt_vec(scen.q)}")
        out.append(f"vtype {vtype_to_string(scen.vtype)}")
        out.append(f"lb {_fmt_vec(scen.lb)}")
        out.append(f"ub {_fmt_vec(scen.ub)}")
        out.append("W")
        out.extend(_fmt_coo(scen.W))
        out.append(f"h {_fmt_vec(scen.h)}")
        out.append("T")
        out.extend(_fmt_coo(scen.T))
    out.append("end")
    return "\n".join(out) + "\n"


class _Reader:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise FormatError(f"line {self.pos + 1}: unexpected end of file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def field(self, key: str) -> str:
        """The rest of the next line, whose first space-separated token
        must be `key`; a line stripped of its trailing space still reads."""
        line = self.next()
        head, _, rest = line.partition(" ")
        if head != key:
            self.fail(f"expected {key!r}, found {line!r}")
        return rest

    def fail(self, msg: str):
        raise FormatError(f"line {self.pos}: {msg}")


def _parse_vec(reader: _Reader, key: str) -> np.ndarray:
    body = reader.field(key).strip()
    if not body:
        return np.zeros(0)
    try:
        return np.array([float(tok) for tok in body.split()])
    except ValueError:
        reader.fail(f"bad float in {key!r} vector")


def _parse_coo(reader: _Reader, key: str):
    """Key, header line number, shape and entries of a matrix in `_fmt_coo`
    lines. Nothing is allocated here: `_dense` builds the matrix once its
    header is checked against the vectors that fix its shape."""
    reader.field(key)
    head = reader.next().split()
    line = reader.pos
    if len(head) != 3:
        reader.fail(f"{key} header needs 'nrows ncols nnz'")
    try:
        nrows, ncols, nnz = (int(t) for t in head)
    except ValueError:
        reader.fail(f"bad integer in {key} header")
    if min(nrows, ncols, nnz) < 0:
        reader.fail(f"negative number in {key} header")
    entries = []
    for _ in range(nnz):
        toks = reader.next().split()
        if len(toks) != 3:
            reader.fail(f"{key} entry needs 'row col value'")
        try:
            r, c, v = int(toks[0]), int(toks[1]), float(toks[2])
        except ValueError:
            reader.fail(f"bad number in {key} entry")
        if not (0 <= r < nrows and 0 <= c < ncols):
            reader.fail(f"{key} entry ({r}, {c}) outside its {nrows}x{ncols} shape")
        entries.append((r, c, v))
    return key, line, (nrows, ncols), entries


def _dense(coo, rows: str, nrows: int, cols: str, ncols: int) -> np.ndarray:
    """The matrix of `_parse_coo`, once its header shape equals
    (nrows, ncols), the lengths of the vectors named `rows` and `cols`;
    entries at the same position are summed in file order."""
    key, line, shape, entries = coo
    if shape != (nrows, ncols):
        raise FormatError(
            f"line {line}: {key} header says {shape[0]}x{shape[1]}, but "
            f"{rows} has {nrows} entries and {cols} has {ncols}"
        )
    out = np.zeros(shape)
    for r, c, v in entries:
        out[r, c] += v
    return out


def from_text(text: str) -> SipInstance:
    reader = _Reader(text)
    tag = reader.next()
    if tag != _FORMAT_TAG:
        raise FormatError(f"line 1: unsupported format tag {tag!r}")
    name = reader.field("name")
    if not name or "/" in name or "\\" in name:
        # the CLI names its output files after the instance
        reader.fail(f"instance name {name!r} must be non-empty and free of '/' and '\\'")
    c = _parse_vec(reader, "c")
    vt = vtype_from_string(reader.field("vtype"))
    lb = _parse_vec(reader, "lb")
    ub = _parse_vec(reader, "ub")
    A = _parse_coo(reader, "A")
    b = _parse_vec(reader, "b")
    A = _dense(A, "b", b.size, "c", c.size)
    try:
        nscen = int(reader.field("nscen"))
    except ValueError:
        reader.fail("bad scenario count")
    scenarios = []
    for s in range(nscen):
        if reader.field("scen") != str(s):
            reader.fail(f"expected 'scen {s}'")
        try:
            prob = float(reader.field("prob"))
        except ValueError:
            reader.fail("bad probability")
        q = _parse_vec(reader, "q")
        svt = vtype_from_string(reader.field("vtype"))
        slb = _parse_vec(reader, "lb")
        sub = _parse_vec(reader, "ub")
        W = _parse_coo(reader, "W")
        h = _parse_vec(reader, "h")
        W = _dense(W, "h", h.size, "q", q.size)
        T = _dense(_parse_coo(reader, "T"), "h", h.size, "c", c.size)
        scenarios.append(Scenario(prob=prob, q=q, W=W, h=h, T=T, vtype=svt, lb=slb, ub=sub))
    reader.field("end")
    while reader.pos < len(reader.lines):
        if reader.lines[reader.pos].strip():
            raise FormatError(f"line {reader.pos + 1}: content after 'end'")
        reader.pos += 1
    return SipInstance(name=name, c=c, A=A, b=b, vtype=vt, lb=lb, ub=ub, scenarios=scenarios)


def write_instance(inst: SipInstance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_text(inst))


def read_instance(path: str) -> SipInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return from_text(fh.read())
