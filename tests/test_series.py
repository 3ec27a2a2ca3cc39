import random

import pytest

from cutforge.cuts import Cut, cut_from_members, full_mask
from cutforge.graphs import Graph
from cutforge.series import (
    DEFAULT_BALL_L,
    SeriesError,
    atom_pair_table,
    certified_length,
    corner_series,
    crossing_distance,
    enumeration_counts,
    measure,
    odd_crossing_series,
    series_scale,
    series_sum,
    transfer_counts,
)


def k2():
    return Graph(["u", "w"], [("e", "u", "w")])


def c4():
    return Graph(
        ["v1", "v2", "v3", "v4"],
        [
            ("e1", "v1", "v2"),
            ("e2", "v2", "v3"),
            ("e3", "v3", "v4"),
            ("e4", "v4", "v1"),
        ],
    )


def multi():
    """A loop at y and a parallel pair x = y: both count as two darts."""
    return Graph(
        ["x", "y", "z"],
        [
            ("p1", "x", "y"),
            ("p2", "y", "x"),
            ("l", "y", "y"),
            ("q", "y", "z"),
        ],
    )


def walk_count(g, start_bits, end_bits, L):
    """Length-l walks from the start set into the end set, l = 0..L."""
    counts = [0] * (L + 1)

    def rec(u, depth):
        if (end_bits >> u) & 1:
            counts[depth] += 1
        if depth < L:
            for (w, _k, _dir) in g.darts[u]:
                rec(w, depth + 1)

    for v in range(g.nv):
        if (start_bits >> v) & 1:
            rec(v, 0)
    return tuple(counts)


def test_k2_measure_alternates():
    g = k2()
    a = cut_from_members(g, ["u"], "A")
    s = measure(g, a, 5)
    assert s.coeffs == (0, 1, 0, 1, 0, 1)
    assert measure(g, a.complement(), 5).coeffs == s.coeffs


def test_measure_empty_cut_is_zero():
    g = k2()
    s = measure(g, 0, 5)
    assert s.is_zero()


def test_cut_from_another_universe_is_refused():
    # a cut of a 3-vertex path is not a set of k2's vertices, even where
    # its bits happen to fit
    g3 = Graph(["p", "q", "r"], [("f1", "p", "q"), ("f2", "q", "r")])
    foreign = Cut(g3, 0b011)
    g = Graph(["a", "b"], [("e", "a", "b")])
    with pytest.raises(SeriesError):
        measure(g, foreign, 3)
    with pytest.raises(SeriesError):
        corner_series(g, foreign, 0b01, 3)
    assert measure(g3, foreign, 3).coeffs == (0, 1, 1, 2)


def test_k2_odd_crossing():
    g = k2()
    s = odd_crossing_series(g, ["e"], 4)
    assert s.coeffs == (0, 2, 0, 2, 0)
    assert odd_crossing_series(g, [], 4).is_zero()


def test_odd_degree_one_counts_darts():
    g = c4()
    s = odd_crossing_series(g, ["e1", "e3"], 3)
    assert s.coeffs[0] == 0 and s.coeffs[1] == 4
    assert all(c % 2 == 0 for c in s.coeffs)


def test_coboundary_series_is_twice_measure():
    g = c4()
    a = cut_from_members(g, ["v1", "v2"])
    L = certified_length(g)
    sd = odd_crossing_series(g, a.coboundary(), L)
    assert sd.coeffs == series_scale(measure(g, a, L), 2).coeffs


def test_certified_length_and_flags():
    g = k2()
    assert certified_length(g) == 9
    assert DEFAULT_BALL_L == 16


def test_corner_identity_and_crossing_pair():
    g = c4()
    A = cut_from_members(g, ["v1", "v2"], "A")
    B = cut_from_members(g, ["v2", "v3"], "B")
    sa, sb, sc, sd = corner_series(g, A.bits, B.bits, 4)
    assert sb.coeffs == (0, 0, 2, 0, 8)
    assert series_sum(sa, sb, sc).coeffs == measure(g, A, 4).coeffs
    # a counts paths out of an empty corner when A cap B = emptyset
    C = cut_from_members(g, ["v3"])
    ea, _eb, _ec, _ed = corner_series(g, A.bits & C.bits, C.bits, 4)
    assert ea.is_zero()


def test_crossing_distance():
    g = c4()
    assert crossing_distance(g, ["e1"], ["e1"]) == 1
    p4 = Graph(
        ["a", "b", "c", "d"],
        [("e0", "a", "b"), ("e1", "b", "c"), ("e2", "c", "d")],
    )
    # graph distance between the edge sets is 1, so d = 3
    assert crossing_distance(p4, ["e0"], ["e2"]) == 3


def test_engines_agree_on_fixed_cases():
    cases = (
        (c4(), ["v1", "v2"], ["v2", "v3"], ("e1", "e2")),
        (multi(), ["x"], ["x", "y"], ("l", "p1")),
    )
    for g, a_members, b_members, crossing in cases:
        a = cut_from_members(g, a_members).bits
        b = cut_from_members(g, b_members).bits
        for spec in (("measure", a), ("odd", crossing), ("corner", a, b)):
            t = transfer_counts(g, spec, 6)
            e = enumeration_counts(g, spec, 6)
            assert t.coeffs == e.coeffs


def test_atom_pair_table_counts_walks():
    L = 5
    cases = (
        (c4(), [["v1"], ["v2", "v3"], ["v4"]]),
        (multi(), [["x", "z"], ["y"]]),
    )
    for g, parts in cases:
        atoms = [cut_from_members(g, p).bits for p in parts]
        table = atom_pair_table(g, atoms, L)
        assert len(table) == L + 1
        for i, ai in enumerate(atoms):
            for j, aj in enumerate(atoms):
                if i == j:
                    want = walk_count(g, ai, ai, L)
                else:
                    want = enumeration_counts(g, ("corner", ai, aj), L).coeffs
                assert tuple(table[l][i][j] for l in range(L + 1)) == want


def test_series_str_format():
    g = k2()
    assert str(measure(g, 1, 3)) == "0 + 1 t + 0 t^2 + 1 t^3"
    assert measure(g, 1, 3).json_coeffs() == ["0", "1", "0", "1"]


def test_enumeration_at_length_zero_and_on_empty_sets():
    g = multi()
    x = cut_from_members(g, ["x"]).bits
    yz = cut_from_members(g, ["y", "z"]).bits
    for spec in (("measure", x), ("odd", ("l",)), ("corner", x, yz)):
        assert enumeration_counts(g, spec, 0).coeffs == (0,)
    # an empty start set, or an empty crossing set, has no counted walk
    assert enumeration_counts(g, ("measure", 0), 4).coeffs == (0,) * 5
    assert enumeration_counts(g, ("corner", 0, yz), 4).coeffs == (0,) * 5
    assert enumeration_counts(g, ("corner", x, x), 4).coeffs == (0,) * 5
    assert enumeration_counts(g, ("odd", ()), 4).coeffs == (0,) * 5


# Hand counts on `multi()`, whose walk matrix is A = [[0,2,0],[2,2,1],[0,1,0]]
# (x, y, z): the parallel pair gives the 2s off the diagonal, the loop the 2
# at y.  Walks from x end at A^l e_x = (1,0,0), (0,2,0), (4,4,2), (8,18,4),
# (36,56,18).  Walks with an odd number of steps over an edge set S number
# (1^T A^l 1 - 1^T D^l 1) / 2, where D is A with the darts of S negated.
MULTI_HAND_COUNTS = (
    (("measure", ["x"]), (0, 2, 6, 22, 74)),
    (("corner", ["x", "y"], ["y", "z"]), (0, 0, 2, 4, 18)),
    (("odd", ("l",)), (0, 2, 12, 46)),
    (("odd", ("p1",)), (0, 2, 10, 38)),
)


def _multi_spec(g, spec):
    if spec[0] == "odd":
        return spec
    return (spec[0],) + tuple(cut_from_members(g, m).bits for m in spec[1:])


def test_enumeration_counts_a_loop_and_a_parallel_pair_by_hand():
    g = multi()
    for spec, want in MULTI_HAND_COUNTS:
        got = enumeration_counts(g, _multi_spec(g, spec), len(want) - 1)
        assert got.coeffs == want, spec
        assert transfer_counts(g, _multi_spec(g, spec), len(want) - 1).coeffs == want


def paged(n):
    """An n-vertex graph whose darts cross the 256-state page boundaries of
    the enumeration: v0 is isolated, v1..v(n-1) form a cycle with seeded
    chords, the hub v1 has more darts than any other vertex (so the other
    vertices leave dart slots empty), and v2 carries a loop and a parallel
    pair to v3."""
    rng = random.Random(n)
    edges = [("c%d" % i, "v%d" % i, "v%d" % (i % (n - 1) + 1)) for i in range(1, n)]
    edges += [("h%d" % i, "v1", "v%d" % rng.randrange(2, n)) for i in range(6)]
    edges += [("x%d" % i, "v%d" % rng.randrange(2, n), "v%d" % rng.randrange(2, n))
              for i in range(n // 16)]
    edges += [("l", "v2", "v2"), ("p", "v3", "v2")]
    return Graph(["v%d" % i for i in range(n)], edges)


def paged_specs(g):
    rng = random.Random(g.nv + 1)
    a = rng.getrandbits(g.nv) | 1  # the isolated v0 starts walks
    b = rng.getrandbits(g.nv)
    crossing = ("l", "p", "c1", "h0") + tuple(rng.sample([e[0] for e in g.edges], 40))
    return (("measure", a), ("corner", a, b), ("odd", crossing))


@pytest.mark.parametrize("n", [128, 129, 255, 256, 257])
def test_enumeration_agrees_across_page_boundaries(n):
    # measure and corner walk n states, odd crossings 2n: the cases cover
    # exactly 255, 256, 257 states (one page, full, and one over) and odd
    # specs over 256 and 258 states
    g = paged(n)
    degrees = sorted(len(ds) for ds in g.darts)
    assert degrees[0] == 0 and degrees[-1] > degrees[-2]
    for spec in paged_specs(g):
        want = transfer_counts(g, spec, 4).coeffs
        assert enumeration_counts(g, spec, 4).coeffs == want, spec[0]


def test_enumeration_is_independent_of_the_kernel(monkeypatch):
    import cutforge.series as series_mod

    big = paged(257)
    big_wants = [(spec, transfer_counts(big, spec, 3).coeffs) for spec in paged_specs(big)]

    def refuse(*_args, **_kwargs):
        raise AssertionError("the oracle must not use the walk-count kernel")

    for name in ("_walk_counts", "_walk_plan", "_compiled_step", "_successors"):
        monkeypatch.setattr(series_mod, name, refuse)
    g = multi()
    for spec, want in MULTI_HAND_COUNTS:
        assert enumeration_counts(g, _multi_spec(g, spec), len(want) - 1).coeffs == want
    for spec, want in big_wants:
        assert enumeration_counts(big, spec, 3).coeffs == want, spec[0]
    with pytest.raises(AssertionError):
        transfer_counts(g, ("measure", 1), 3)


# -- the bucketed kernel against a plain per-state walk --------------------------


def star(rng):
    """A hub with many leaves, some joined twice: one high-degree state."""
    k = rng.randrange(6, 11)
    edges = [("s%d" % i, "h", "l%d" % i) for i in range(k)]
    edges += [("t%d" % i, "l%d" % i, "h") for i in range(0, k, 3)]
    return Graph(["h"] + ["l%d" % i for i in range(k)], edges)


def lollipop(rng):
    """A complete graph with a long path hanging off it: two degree tiers."""
    m, t = rng.randrange(6, 8), rng.randrange(13, 17)
    edges = [("k%d_%d" % (i, j), "c%d" % i, "c%d" % j)
             for i in range(m) for j in range(i + 1, m)]
    ends = ["c0"] + ["p%d" % i for i in range(t)]
    edges += [("q%d" % i, ends[i], ends[i + 1]) for i in range(t)]
    return Graph(["c%d" % i for i in range(m)] + ends[1:], edges)


def loopy(rng):
    """A path whose first vertex carries many loops, the others at most one."""
    n = rng.randrange(4, 8)
    edges = [("e%d" % i, "v%d" % i, "v%d" % (i + 1)) for i in range(n - 1)]
    edges += [("l%d_%d" % (i, j), "v%d" % i, "v%d" % i)
              for i in range(n) for j in range(rng.randrange(4, 7) if i == 0 else rng.randrange(2))]
    return Graph(["v%d" % i for i in range(n)], edges)


def with_isolated(rng):
    """A random multigraph on some vertices, the rest isolated."""
    n = rng.randrange(5, 10)
    edges = [("r%d" % i, "v%d" % rng.randrange(n - 2), "v%d" % rng.randrange(n - 2))
             for i in range(2 * n)]
    return Graph(["v%d" % i for i in range(n)], edges)


KERNEL_GRAPHS = [
    make(random.Random(seed))
    for make in (star, lollipop, loopy, with_isolated)
    for seed in range(3)
]


def plain_walks(g, start_bits, end_bits, L, crossing=None):
    """c_l = length-l walks from the start set into the end set, pushing one
    count per state through every dart; with a crossing set, from parity 0
    into parity 1 of the parity-doubled states."""
    n = g.nv
    if crossing is None:
        rows = [[w for (w, _k, _dir) in ds] for ds in g.darts]
        start = [(start_bits >> u) & 1 for u in range(n)]
        end = [u for u in range(n) if (end_bits >> u) & 1]
    else:
        rows = [[w + n * (p ^ (k in crossing)) for (w, k, _dir) in g.darts[u]]
                for p in (0, 1) for u in range(n)]
        start, end = [1] * n + [0] * n, range(n, 2 * n)
    vec, out = start, []
    for l in range(L + 1):
        if l:
            vec = [sum(vec[w] for w in row) for row in rows]
        out.append(sum(vec[u] for u in end))
    return tuple(out)


@pytest.mark.parametrize("index", range(len(KERNEL_GRAPHS)))
def test_kernel_matches_a_plain_per_state_walk(index):
    g = KERNEL_GRAPHS[index]
    rng = random.Random(100 + index)
    n, full, L = g.nv, full_mask(g), certified_length(g)
    a, b = rng.getrandbits(n), rng.getrandbits(n)
    crossing = [e for (e, _s, _d) in g.edges if rng.random() < 0.5]
    assert measure(g, a, L).coeffs == plain_walks(g, a, full ^ a, L)
    assert transfer_counts(g, ("measure", a), L).coeffs == plain_walks(g, a, full ^ a, L)
    odd = {g.eindex[e] for e in crossing}
    assert transfer_counts(g, ("odd", crossing), L).coeffs == plain_walks(g, 0, 0, L, odd)
    cd = (a & ~b & full, ~a & b & full)
    assert transfer_counts(g, ("corner", a, b), L).coeffs == plain_walks(g, *cd, L)
    want = (
        plain_walks(g, a & b, ~a & b & full, L),
        plain_walks(g, a & b, ~a & ~b & full, L),
        plain_walks(g, a & ~b & full, ~a & full, L),
        plain_walks(g, a & ~b & full, a & b, L),
    )
    assert tuple(s.coeffs for s in corner_series(g, a, b, L)) == want
    atoms = [x for x in (a & b, a & ~b & full, ~a & full) if x]
    table = atom_pair_table(g, atoms, L)
    for i, ai in enumerate(atoms):
        for j, aj in enumerate(atoms):
            assert tuple(table[l][i][j] for l in range(L + 1)) == plain_walks(g, ai, aj, L)


def test_every_walk_plan_reads_at_most_twice_the_darts():
    from cutforge.groups import ball, make_oracle
    from cutforge.series import _quotient, _successors, _walk_plan

    rows_list = []
    for g in KERNEL_GRAPHS:
        rows_list.append(_successors(g))
        rows_list.append(_successors(g, set(range(0, g.ne, 2))))
        rows_list.append(_quotient(g, [1, full_mask(g) ^ 1])[0])
    sorted_plans = 0
    for rows in rows_list:
        buckets, back = _walk_plan(rows)
        darts = sum(map(len, rows))
        assert sum(size for size, _g in buckets) == len(rows)
        assert sum(size * len(gathers) for size, gathers in buckets) <= 2 * darts
        assert (back is None) == (len(buckets) <= 1)
        sorted_plans += len(buckets) > 1
    assert 0 < sorted_plans < len(rows_list)  # both paths are taken
    # a Z^2 ball takes the one-bucket path: state order, no sort, no back gather
    buckets, back = _walk_plan(_successors(ball(make_oracle({"kind": "zd", "d": 2}), 4)))
    assert len(buckets) == 1 and back is None


def test_measure_reuses_the_plan_kept_on_the_graph(monkeypatch):
    import cutforge.series as series_mod

    g = KERNEL_GRAPHS[0]
    first = measure(g, 1)  # the certified L is below _COMPILE_LEVELS: bucketed
    kept = g._walk_step
    assert kept is not None and kept[0] is False

    def refuse(*_args, **_kwargs):
        raise AssertionError("the step of a Graph is made once")

    monkeypatch.setattr(series_mod, "_walk_step", refuse)
    assert measure(g, 1) == first
    corner_series(g, 1, 3)
    assert g._walk_step is kept


def test_a_long_walk_compiles_the_kept_step_which_serves_any_length(monkeypatch):
    import cutforge.series as series_mod
    from cutforge.series import _COMPILE_LEVELS

    g = KERNEL_GRAPHS[1]
    a, full, L = 0b101, full_mask(g), _COMPILE_LEVELS
    short = measure(g, a, L - 1)
    assert g._walk_step[0] is False
    long = measure(g, a, L)
    kept = g._walk_step
    assert kept[0] is True
    assert long.coeffs == plain_walks(g, a, full ^ a, L)
    assert long.coeffs[:L] == short.coeffs

    def refuse(*_args, **_kwargs):
        raise AssertionError("a compiled step serves every later walk")

    monkeypatch.setattr(series_mod, "_walk_step", refuse)
    assert measure(g, a, 3).coeffs == short.coeffs[:4]
    assert measure(g, a, L - 1) == short
    assert g._walk_step is kept


def hub():
    """A hub with 2 * 300 loop darts and 700 leaf darts: 1300 darts at one
    vertex, so its row needs folding in either step."""
    leaves = ["l%d" % i for i in range(700)]
    edges = [("o%d" % i, "h", "h") for i in range(300)]
    edges += [("e%d" % i, "h", leaf) for i, leaf in enumerate(leaves)]
    return Graph(["h"] + leaves, edges)


def _step_cells():
    """(name, successor rows): the plain, parity-doubled and quotient rows
    of every kernel graph, the 1300-dart hub and edgeless rows."""
    from cutforge.series import _quotient, _successors

    cells = []
    for i, g in enumerate(KERNEL_GRAPHS):
        cells.append(("plain-%d" % i, _successors(g)))
        cells.append(("parity-%d" % i, _successors(g, set(range(0, g.ne, 2)))))
        cells.append(("quotient-%d" % i, _quotient(g, [1, full_mask(g) ^ 1])[0]))
    cells.append(("hub", _successors(hub())))
    cells.append(("edgeless", _successors(Graph(["a", "b", "c"], []))))
    cells.append(("no-states", []))
    return cells


STEP_CELLS = _step_cells()


@pytest.mark.parametrize("name", [name for name, _rows in STEP_CELLS])
def test_compiled_and_bucketed_steps_agree_around_the_threshold(name):
    """Both steps, and the one `_walk_step` picks, count what a plain
    per-state walk counts, at L just below and at _COMPILE_LEVELS."""
    from cutforge.series import (
        _COMPILE_LEVELS, _bucket_step, _compiled_step, _walk_counts, _walk_step,
    )

    rows = dict(STEP_CELLS)[name]
    n = len(rows)
    rng = random.Random(name)
    starts = [[rng.randrange(3) for _ in range(n)] for _ in range(2)]
    pairs = [(0, [u for u in range(n) if rng.random() < 0.5]), (1, list(range(n))), (1, [])]
    for L in (_COMPILE_LEVELS - 1, _COMPILE_LEVELS):
        want = []
        for t, end in pairs:
            vec, out = starts[t], []
            for l in range(L + 1):
                if l:
                    vec = [sum(vec[w] for w in row) for row in rows]
                out.append(sum(vec[u] for u in end))
            want.append(tuple(out))
        for step in (_bucket_step(rows), _compiled_step(rows), _walk_step(rows, L)):
            assert _walk_counts(step, starts, pairs, L) == want, L


def test_a_vertex_of_huge_degree_folds_its_gathers():
    from cutforge.series import (
        _COMPILE_LEVELS, _MAX_CHAIN, _step_source, _successors, _walk_plan,
    )

    # 1300 gathers would nest 1300 maps deep, so the plan folds them into
    # runs of _MAX_CHAIN; the compiled step's sum of 1300 terms folds alike
    g = hub()
    buckets, _back = _walk_plan(_successors(g))
    assert [size for size, _g in buckets] == [1, 700]
    assert 1 < len(buckets[0][1]) <= _MAX_CHAIN
    hub_row = _step_source(_successors(g))[len("lambda v: ["):].split(",")[0]
    runs = hub_row.split(")+(")
    assert hub_row[0] == "(" and hub_row[-1] == ")"
    assert len(runs) == -(-1300 // _MAX_CHAIN)
    assert all(run.strip("()").count("+") < _MAX_CHAIN for run in runs)
    assert sum(run.count("v[") for run in runs) == 1300
    a = 0b1011
    assert measure(g, a, 6).coeffs == plain_walks(g, a, full_mask(g) ^ a, 6)
    L = _COMPILE_LEVELS
    assert measure(g, a, L).coeffs == plain_walks(g, a, full_mask(g) ^ a, L)


def test_a_step_past_the_row_bound_compiles_in_chunks(monkeypatch):
    """Up to _COMPILE_ROWS states the step compiles from one source; the
    free:2 ball of radius 6 (1457 states) compiles in chunks of rows that
    together are that source, and walks as the bucketed step walks."""
    import cutforge.series as series_mod
    from cutforge.groups import ball, make_oracle
    from cutforge.series import (
        _COMPILE_LEVELS, _COMPILE_ROWS, _bucket_step, _compiled_step,
        _step_source, _successors, _walk_counts,
    )

    sources = []

    def spy(source, scope):
        sources.append(source)
        return eval(source, scope)

    monkeypatch.setattr(series_mod, "eval", spy, raising=False)
    small = _successors(hub())
    assert len(small) <= _COMPILE_ROWS
    _compiled_step(small)
    assert sources == [_step_source(small)]

    rows = _successors(ball(make_oracle({"kind": "free", "k": 2}), 6))
    n = len(rows)
    assert n > _COMPILE_ROWS
    sources.clear()
    chunked = _compiled_step(rows)
    assert len(sources) == -(-n // _COMPILE_ROWS)
    body = ",".join(src[len("lambda v: ["):-1] for src in sources)
    assert "lambda v: [%s,0]" % body == _step_source(rows)
    rng = random.Random(n)
    starts = [[rng.randrange(3) for _ in range(n)]]
    pairs = [(0, [u for u in range(n) if rng.random() < 0.5]), (0, list(range(n)))]
    L = _COMPILE_LEVELS
    want = _walk_counts(_bucket_step(rows), starts, pairs, L)
    assert _walk_counts(chunked, starts, pairs, L) == want
