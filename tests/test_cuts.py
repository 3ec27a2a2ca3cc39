import random

import pytest

import cutforge.groups
from cutforge.cuts import (
    Cut,
    CutError,
    act_left_cut,
    almost_equal,
    boolean_closure,
    crossing_sources,
    cut_from_members,
    is_almost_right_stable,
    nested_report,
    orbit_cuts,
    right_flip_bits,
    sym_diff,
)
from cutforge.graphs import Graph
from cutforge.groups import FreeOracle, FreeProductOracle, ZdOracle, ball


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


def z_ball(radius=6):
    return ball(ZdOracle(1), radius)


def half_line(bv, k=0, name="A"):
    # {g <= k} clipped to the ball
    members = [
        bv.graph.vertices[i]
        for i, el in enumerate(bv.elements)
        if el[0] <= k
    ]
    return cut_from_members(bv, members, name)


def test_members_round_trip_and_coboundary():
    g = c4()
    a = cut_from_members(g, ["v1", "v2"], "A")
    assert a.members() == ("v1", "v2")
    assert sorted(a.coboundary()) == ["e2", "e4"]
    assert a.complement().name == "~A"
    assert sorted(a.complement().coboundary()) == ["e2", "e4"]


def test_symdiff_cardinality_identity():
    g = c4()
    a = cut_from_members(g, ["v1", "v2"])
    b = cut_from_members(g, ["v2", "v3"])
    d = sym_diff(a, b)
    na, nb = a.bits.bit_count(), b.bits.bit_count()
    assert len(d) == na + nb - 2 * (a.bits & b.bits).bit_count()
    ok, diff = almost_equal(a, a)
    assert ok and not diff


def test_nested_report_corners():
    g = c4()
    a = cut_from_members(g, ["v1", "v2"])
    b = cut_from_members(g, ["v2", "v3"])
    rep = nested_report(a, b)
    assert sum(rep.corner_sizes) == 4
    assert not rep.nested and not rep.empty_corners
    chain = nested_report(a, cut_from_members(g, ["v1", "v2", "v3"]))
    assert chain.nested
    # complement invariance of the 4-corner test
    assert nested_report(a.complement(), b).nested == rep.nested
    assert nested_report(a, b.complement()).nested == rep.nested


def test_boolean_closure_crossing_pair():
    g = c4()
    algebra = boolean_closure(
        [cut_from_members(g, ["v1", "v2"], "A"), cut_from_members(g, ["v2", "v3"], "B")]
    )
    assert algebra.n_atoms == 4
    assert len(list(algebra.all_element_bits())) == 16
    assert algebra.same_algebra(algebra)
    assert algebra.contains(algebra.atoms[0] | algebra.atoms[2])


def test_algebra_membership_boundary():
    g = Graph(
        ["a", "b", "c", "d"],
        [("e0", "a", "b"), ("e1", "b", "c"), ("e2", "c", "d")],
    )
    algebra = boolean_closure([cut_from_members(g, ["a", "b"], "A")])
    # atoms {a,b} and {c,d}; a strict subset of an atom is not a member
    assert algebra.n_atoms == 2
    assert not algebra.contains(1 << g.vindex["c"])


def test_ball_cut_needs_interior_coboundary():
    bv = z_ball(3)
    # {identity} is fine: its coboundary avoids the sphere
    cut_from_members(bv, [bv.graph.vertices[bv.index_of((0,))]])
    with pytest.raises(CutError):
        # a sphere vertex alone drags the coboundary onto the sphere
        cut_from_members(bv, [bv.graph.vertices[bv.index_of((3,))]])


def test_flip_equals_crossing_sources():
    bv = z_ball()
    a = half_line(bv)
    flip, valid = right_flip_bits(bv, a.bits, (1,))
    assert flip & ~valid == 0
    assert flip == crossing_sources(bv, a.bits, 0)
    assert flip.bit_count() == 1  # only g = 0 has g in A, gx not in A


def test_crossing_sources_read_index_edges(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("crossing_sources built a string graph")

    monkeypatch.setattr(cutforge.groups, "Graph", refuse)
    rng = random.Random(8)
    for oracle in (ZdOracle(2), FreeOracle(2), FreeProductOracle([2, 3])):
        bv = ball(oracle, 3)
        for _ in range(5):
            bits = rng.getrandbits(bv.nv)
            for gi, (_name, g) in enumerate(oracle.generators()):
                flip, _valid = right_flip_bits(bv, bits, g)
                assert crossing_sources(bv, bits, gi) == flip


def test_right_stability_certificates():
    bv = z_ball()
    assert is_almost_right_stable(bv, half_line(bv)).status == "ball_verified"
    # {0, 3} flips at 3 pairs inside the probe ball but 4 in the full ball
    spots = cut_from_members(
        bv,
        [bv.graph.vertices[bv.index_of((0,))], bv.graph.vertices[bv.index_of((3,))]],
    )
    rs = is_almost_right_stable(bv, spots)
    assert rs.status == "rejected" and rs.witness is not None


def test_act_left_translates_members():
    bv = z_ball()
    a = half_line(bv)
    ta = act_left_cut(bv, (1,), a, name="x*A")
    want = {el[0] for el in bv.elements if el[0] <= 1}
    got = {bv.elements[i][0] for i in range(bv.nv) if (ta.bits >> i) & 1}
    assert got == want
    assert ta.name == "x*A"


def test_act_left_escape_raises():
    bv = z_ball()
    with pytest.raises(CutError):
        act_left_cut(bv, (6,), half_line(bv))


def test_orbit_cuts_names_and_dedup():
    bv = z_ball()
    o = bv.oracle
    wl = [(o.identity(), ""), ((1,), "x"), ((-1,), "x^-1")]
    orb = orbit_cuts(bv, half_line(bv), wl)
    assert [c.name for c in orb.cuts] == ["A", "x*A", "x^-1*A"]
    assert orb.words == ("", "x", "x^-1")
    # translates are distinct cuts of the same ball
    assert len({c.bits for c in orb.cuts}) == 3


def test_closure_cap_names_stage_limit_and_remedy():
    g = Graph(["v%d" % i for i in range(14)],
              [("e%d" % i, "v%d" % i, "v%d" % (i + 1)) for i in range(13)])
    cuts = [cut_from_members(g, ["v%d" % i]) for i in range(13)]
    with pytest.raises(
        CutError,
        match=r"^Boolean closure: 13 generators exceed closure cap "
        r"MAX_CLOSURE_GENERATORS = 12; pass fewer cuts \(for split, a "
        r"smaller --words\)$",
    ):
        boolean_closure(cuts)
