import random

import pytest

import cutforge.cuts
import cutforge.ends
import cutforge.groups
from cutforge.checks import _random_sphere_clean_bits
from cutforge.cuts import (
    Cut,
    CutError,
    _left_map,
    act_left_cut,
    almost_equal,
    boolean_closure,
    coboundary_indices,
    crossing_sources,
    cut_from_members,
    is_almost_right_stable,
    nested_report,
    orbit_cuts,
    right_flip_bits,
)
from cutforge.graphs import Graph, components
from cutforge.sieve import classify
from cutforge.groups import (
    FreeOracle,
    FreeProductOracle,
    TableOracle,
    ZdOracle,
    ball,
)


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
    d = a.bits ^ b.bits
    na, nb = a.bits.bit_count(), b.bits.bit_count()
    assert d.bit_count() == na + nb - 2 * (a.bits & b.bits).bit_count()
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
    elements = {algebra.element_bits(m) for m in range(1 << algebra.n_atoms)}
    assert len(elements) == 16
    assert algebra.decompose(algebra.atoms[0] | algebra.atoms[2]) is not None


def test_algebra_membership_boundary():
    g = Graph(
        ["a", "b", "c", "d"],
        [("e0", "a", "b"), ("e1", "b", "c"), ("e2", "c", "d")],
    )
    algebra = boolean_closure([cut_from_members(g, ["a", "b"], "A")])
    # atoms {a,b} and {c,d}; a strict subset of an atom is not a member
    assert algebra.n_atoms == 2
    assert algebra.decompose(1 << g.vindex["c"]) is None


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


def test_closure_of_many_cuts_over_few_atoms_is_sieved():
    # 14 generators but 4 atoms: refining is cheap at any number of cuts,
    # and only the sieve's 2^atoms pass is capped (by atoms)
    g = Graph(["a", "b", "c", "d"],
              [("e0", "a", "b"), ("e1", "b", "c"), ("e2", "c", "d")])
    cuts = [
        Cut(g, bits, "c%d" % (bits,)) for bits in range(1, (1 << g.nv) - 1)
    ]
    assert len(cuts) == 14
    algebra = boolean_closure(cuts)
    assert algebra.n_atoms == 4
    report = classify(algebra)
    assert len(report.irreducible) == 6
    assert sorted(el.bits for el in report.irreducible) == [1, 3, 7, 8, 12, 14]


ESCAPES = "radius too small: translated coboundary escapes the ball"
NOT_INTERIOR = "radius too small: translated coboundary not interior"
UNDECIDABLE = "radius too small: a fringe component is undecidable"
INCONSISTENT = "translated cut is inconsistent on a component"


def reference_act_left(bv, g, bits):
    """Left translation on the ball's string graph: map each coboundary
    edge "x|s" to "gx|s" by name, require the images to be interior, and
    fill each component of the ball minus the images from the preimages it
    holds.  Returns the translated bits, or the CutError message."""
    o = bv.oracle
    graph = bv.graph
    idx = graph.vindex
    images = []
    for (e, s, d) in graph.edges:
        if ((bits >> idx[s]) & 1) == ((bits >> idx[d]) & 1):
            continue
        src = bv.el_to_idx.get(o.multiply(g, bv.elements[idx[s]]))
        img = None
        if src is not None:
            img = "%s|%s" % (graph.vertices[src], e.rsplit("|", 1)[1])
        if img not in graph.eindex:
            return ESCAPES
        images.append(img)
    limit = bv.radius if bv.exhausted else bv.radius - 1
    for img in images:
        _e, s, d = graph.edges[graph.eindex[img]]
        if bv.dist[idx[s]] > limit or bv.dist[idx[d]] > limit:
            return NOT_INTERIOR
    ginv = o.invert(g)
    out = 0
    for block in components(graph, removed=images).blocks:
        sides = set()
        for v in block:
            j = bv.el_to_idx.get(o.multiply(ginv, bv.elements[idx[v]]))
            if j is not None:
                sides.add((bits >> j) & 1)
        if not sides:
            return UNDECIDABLE
        if len(sides) > 1:
            return INCONSISTENT
        if sides == {1}:
            for v in block:
                out |= 1 << idx[v]
    return out


def cyclic(n):
    mul = [[(a + b) % n for b in range(n)] for a in range(n)]
    return TableOracle([str(i) for i in range(n)], mul, ["1"])


def sample_bits(rng, bv):
    """Bit sets whose coboundary is interior: all of them on a ball of at
    most 8 vertices; otherwise uniformly random sets (small balls accept
    some), and random sets on the ball of a random inner radius that are
    constant outside it."""
    if bv.nv <= 8:
        candidates = range(1 << bv.nv)
    else:
        candidates = [0, (1 << bv.nv) - 1]
    out = []
    for bits in candidates:
        try:
            out.append(Cut(bv, bits).bits)
        except CutError:
            pass
    for attempt in range(400):
        if len(out) >= 12:
            break
        if attempt % 2:
            bits = rng.getrandbits(bv.nv)
        else:
            r0 = rng.randint(0, bv.radius)
            bits = ((1 << bv.nv) - 1) * rng.getrandbits(1)
            for i in range(bv.nv):
                if bv.dist[i] <= r0:
                    bits = (bits & ~(1 << i)) | (rng.getrandbits(1) << i)
        try:
            out.append(Cut(bv, bits).bits)
        except CutError:
            pass
    return out


def test_act_left_cut_matches_string_graph_reference():
    rng = random.Random(9)
    balls = [
        ball(ZdOracle(1), 4),
        ball(ZdOracle(2), 3),
        ball(FreeOracle(2), 3),
        ball(FreeProductOracle([2, 3]), 4),
        ball(FreeProductOracle([2, 2, 2]), 3),
        ball(cyclic(6), 4),  # exhausted: the whole Cayley graph
        # a path that misses 4, so a translate can wrap around it
        ball(cyclic(8), 3),
        ball(FreeOracle(2), 0),  # every nontrivial translate is blind
    ]
    messages = set()
    translated = 0
    for bv in balls:
        words = bv.oracle.words_up_to(2)
        for bits in sample_bits(rng, bv):
            cut = Cut(bv, bits)
            for el, _word in words:
                want = reference_act_left(bv, el, bits)
                try:
                    got = act_left_cut(bv, el, cut).bits
                except CutError as exc:
                    got = str(exc)
                assert got == want, (bv.oracle.kind, bv.radius, bits, el)
                if isinstance(want, str):
                    messages.add(want)
                else:
                    translated += 1
    assert messages == {ESCAPES, NOT_INTERIOR, UNDECIDABLE, INCONSISTENT}
    assert translated


def test_translates_by_one_element_multiply_the_ball_once(monkeypatch):
    bv = ball(FreeProductOracle([2, 3]), 5)
    o = bv.oracle
    g = o.element_from_word("b a")
    calls = []
    real = o.multiply
    monkeypatch.setattr(o, "multiply", lambda a, b: calls.append(1) or real(a, b))
    cuts = [Cut(bv, bits) for bits in sample_bits(random.Random(3), bv)]
    done = 0
    for _ in range(3):
        for cut in cuts:
            try:
                act_left_cut(bv, g, cut)
                done += 1
            except CutError:
                pass
    assert done and len(cuts) > 1
    assert 0 < len(calls) <= bv.nv


def test_a_ball_cut_walks_its_coboundary_once(monkeypatch):
    # the interior check at construction keeps the indices it walked, and
    # coboundary() and act_left_cut read them
    bv = z_ball()
    bits, moved = half_line(bv).bits, half_line(bv, k=1).bits
    calls = []
    real = cutforge.cuts.coboundary_indices
    monkeypatch.setattr(
        cutforge.cuts,
        "coboundary_indices",
        lambda universe, b: calls.append(1) or real(universe, b),
    )
    cut = Cut(bv, bits, "A")
    assert len(cut.coboundary()) == 1
    assert act_left_cut(bv, (1,), cut).bits == moved
    assert len(calls) == 1


def test_a_failed_translate_leaves_the_cached_map_intact():
    # on a path of C8 that misses 4, translating by 2 can fail at every
    # check but the undecidable one (which needs a map with no preimage)
    bv = ball(cyclic(8), 3)
    g = 2
    cuts = [Cut(bv, bits) for bits in sample_bits(random.Random(0), bv)]
    want = [reference_act_left(bv, g, c.bits) for c in cuts]
    fails_first = sorted(range(len(cuts)), key=lambda i: isinstance(want[i], int))
    assert isinstance(want[fails_first[0]], str)
    assert isinstance(want[fails_first[-1]], int)
    for i in fails_first:
        try:
            got = act_left_cut(bv, g, cuts[i]).bits
        except CutError as exc:
            got = str(exc)
        assert got == want[i]
    assert {w for w in want if isinstance(w, str)} == {
        ESCAPES, NOT_INTERIOR, INCONSISTENT
    }
    assert bv._left[g] == _left_map(ball(cyclic(8), 3), g)


def test_balls_that_nothing_translates_hold_no_map(monkeypatch):
    made = []
    real = cutforge.ends.ball

    def recording_ball(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(cutforge.ends, "ball", recording_ball)
    cutforge.ends.ends_profile(FreeOracle(2), 5)
    assert len(made) == 1 and made[0]._left is None
    bv = ball(FreeOracle(2), 3)
    act_left_cut(bv, bv.oracle.identity(), Cut(bv, 1))
    assert bv._left is None
    act_left_cut(bv, (1,), Cut(bv, 1))
    assert list(bv._left) == [(1,)]


def test_translation_reads_index_edges(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a cut built a string graph")

    monkeypatch.setattr(cutforge.groups, "Graph", refuse)
    bv = ball(FreeOracle(2), 4)
    a = Cut(bv, 1)  # the identity alone
    assert len(coboundary_indices(bv, a.bits)) == 4
    for el, _word in bv.oracle.words_up_to(2):
        assert act_left_cut(bv, el, a).bits == 1 << bv.index_of(el)


@pytest.mark.parametrize("oracle, radius", [(ZdOracle(1), 8), (FreeOracle(2), 4)])
def test_probe_counts_read_the_cut_element_by_element(oracle, radius):
    # the probe ball's bits, mapped one element at a time into the outer ball
    bv = ball(oracle, radius)
    small = ball(oracle, max(2, radius // 2))
    rng = random.Random(0)
    for _ in range(20):
        bits = _random_sphere_clean_bits(rng, bv)
        ref = 0
        for i, el in enumerate(small.elements):
            if (bits >> bv.el_to_idx[el]) & 1:
                ref |= 1 << i
        want = [
            right_flip_bits(small, ref, g)[0].bit_count()
            for _n, g in oracle.generators()
        ]
        rs = is_almost_right_stable(bv, Cut(bv, bits))
        assert [ns for _n, ns, _nb in rs.per_generator] == want
