import random

import pytest

from cutforge.cuts import Cut, cut_from_members
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

    for name in ("_walk_counts", "_successors", "_project"):
        monkeypatch.setattr(series_mod, name, refuse)
    g = multi()
    for spec, want in MULTI_HAND_COUNTS:
        assert enumeration_counts(g, _multi_spec(g, spec), len(want) - 1).coeffs == want
    for spec, want in big_wants:
        assert enumeration_counts(big, spec, 3).coeffs == want, spec[0]
    with pytest.raises(AssertionError):
        transfer_counts(g, ("measure", 1), 3)
