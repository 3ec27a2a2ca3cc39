import pytest

import cutforge.ends
import cutforge.groups
from cutforge.cuts import cut_from_members
from cutforge.ends import (
    EndsError,
    _audit,
    _candidate_edges,
    balanced_cut,
    ends_profile,
    splitting_pipeline,
)
from cutforge.graphs import Graph, components
from cutforge.groups import (
    FreeOracle,
    FreeProductOracle,
    TableOracle,
    ZdOracle,
    ball,
)
from cutforge.trees import PartialAction


def z6():
    mul = [[(a + b) % 6 for b in range(6)] for a in range(6)]
    return TableOracle([str(i) for i in range(6)], mul, ["1"])


def test_line_has_two_ends():
    p = ends_profile(ZdOracle(1), rmax=7)
    assert p.classification == "two"
    assert all(c == 2 for r, c in zip(p.radii, p.counts) if 2 <= r <= 6)


def test_grid_has_one_end():
    p = ends_profile(ZdOracle(2), rmax=5)
    assert p.classification == "one"
    assert all(c == 1 for r, c in zip(p.radii, p.counts) if 2 <= r <= 4)


def test_free_group_branches():
    p = ends_profile(FreeOracle(2), rmax=5)
    assert p.classification == "infinitely_many"
    assert list(p.counts) == [4 * 3 ** (r - 1) for r in p.radii]
    assert p.witness is not None


def test_finite_group_has_zero_ends():
    p = ends_profile(z6(), rmax=6)
    assert p.classification == "zero"
    assert all(c == 0 for c in p.counts)


def test_rmax_validation():
    with pytest.raises(EndsError):
        ends_profile(ZdOracle(1), rmax=1)


def test_balanced_cut_on_line():
    cut = balanced_cut(ZdOracle(1), 6)
    assert cut.name == "A"
    assert cut.bits.bit_count() == 7  # {g <= 0} inside the radius-6 ball
    assert len(cut.coboundary()) == 1


def test_balanced_cut_on_reflection_line():
    cut = balanced_cut(FreeProductOracle([2, 2]), 6)
    assert len(cut.coboundary()) == 2  # involutions give parallel edges


@pytest.mark.parametrize("oracle, radius", [
    (FreeProductOracle([2, 3]), 8),
    (FreeProductOracle([2, 4]), 6),
    (FreeProductOracle([2, 2, 2]), 6),
    (FreeProductOracle([2, 3]), 6),
    (ZdOracle(1), 6),
    (FreeOracle(1), 6),
    (FreeProductOracle([2, 2]), 6),
    (FreeOracle(2), 1),
    (FreeOracle(2), 0),
    (z6(), 6),
])
def test_candidate_edges_equal_the_per_generator_scan(oracle, radius):
    """The split ladder's balls, and the edge cases R = 0 and a finite
    group: per generator, the edges whose ends are the identity and the
    generator, found by one scan of every edge per generator."""
    bv = ball(oracle, radius)
    edges, dist = bv.index_edges, bv.dist
    want = []
    for _name, gel in oracle.generators():
        pair = {0, bv.el_to_idx.get(gel)}
        want.append({k for k, (s, d) in enumerate(edges) if {s, d} == pair})
    for r in (1, 2):
        want.append({k for k, (s, d) in enumerate(edges) if dist[s] <= r and dist[d] <= r})
    assert _candidate_edges(bv) == want


def test_balanced_cut_refusals():
    with pytest.raises(EndsError, match="no balanced cut"):
        balanced_cut(ZdOracle(2), 6)
    with pytest.raises(EndsError, match="finite"):
        balanced_cut(z6(), 6)


def test_pipeline_on_z():
    rep = splitting_pipeline(ZdOracle(1))
    assert rep.status == "split"
    assert rep.tree_vertices == 11 and rep.tree_edges == 10
    assert rep.stage == 2
    assert rep.final_edge_orbit_count == 1
    assert rep.final_vertex_orbit_count == 1
    assert rep.final_vertex_stabilizer_orders == (1,)
    assert rep.final_edge_stabilizer_order == 1
    assert rep.certificate == "ball-verified(R=6, W=2, L=53)"
    assert len(rep.kept) == 10 and rep.removed == ()


def test_pipeline_on_infinite_dihedral():
    rep = splitting_pipeline(FreeProductOracle([2, 2]))
    assert rep.status == "split"
    assert rep.tree_vertices == 7 and rep.tree_edges == 6
    assert rep.stage == 1
    assert rep.final_vertex_orbit_count == 2
    assert tuple(sorted(rep.final_vertex_stabilizer_orders)) == (2, 2)
    assert rep.final_edge_stabilizer_order == 1


@pytest.mark.parametrize(
    "oracle", [ZdOracle(1), FreeProductOracle([2, 2]), FreeProductOracle([2, 3])]
)
def test_split_reports_pass_the_audit(oracle):
    rep = splitting_pipeline(oracle)
    assert rep.status == "split"
    assert _audit(oracle, rep.final_partial) is None


def path_action(oracle, vertex_images):
    """A partial action of the generators on the path v0 - v1 - ...; the
    edge images follow from the vertex images."""
    n = len(vertex_images[0])
    g = Graph(
        ["v%d" % i for i in range(n)],
        [("e%d" % i, "v%d" % (i - 1), "v%d" % i) for i in range(1, n)],
    )
    gens = [(el, name) for name, el in oracle.generators()]
    words = [(oracle.identity(), "")] + gens
    return PartialAction(
        g,
        words,
        range(1, len(words)),
        [tuple(range(n))] + vertex_images,
    )


@pytest.mark.parametrize(
    "vertex_images, how",
    [
        # a (order 2) inverts e1, swapping v0 and v1; b fixes v2
        (
            [(1, 0, None), (None, None, 2)],
            "moves a vertex of the final tree an odd distance",
        ),
        # a translates the path by two: each move is even, but the midpoint
        # v1 of v0 and a v0 = v2 goes to v3
        (
            [(2, 3, 4, None, None), (None,) * 4 + (4,)],
            "moves the midpoint of a vertex of the final tree and its image",
        ),
        # a swaps v0 and v2 about v1, which it fixes though the evidence
        # gives v1 no image, so the audit has nothing against it
        ([(2, None, 0), (None, None, 2)], None),
        # with no defined image, a gives no evidence
        ([(None,) * 3, (None, None, 2)], None),
    ],
    ids=["inversion", "translation", "unseen-fixed-vertex", "no-evidence"],
)
def test_audit_finite_order_generator_must_fix_a_vertex(vertex_images, how):
    o = FreeProductOracle([2, 2])
    final = path_action(o, vertex_images)
    assert _audit(o, final) == (
        how
        and "the split fails its audit: generator a has order 2 but %s, so "
        "it fixes no vertex, and a finite group acting on a tree without "
        "inversion fixes a vertex (Serre, Trees, I.4.3)" % (how,)
    )


def test_audit_elliptic_generators_need_two_vertex_orbits():
    # on the path v0 - ... - v4, a fixes v0 and moves v1, v2, v3 one step
    # up, b fixes v4 and moves them one step down; the edges e2 and e3
    # follow their ends, so there is one vertex orbit and one edge orbit,
    # though every generator fixes a vertex
    o = FreeOracle(2)
    final = path_action(o, [(0, 2, 3, 4, None), (None, 0, 1, 2, 4)])
    assert len(final.vertex_orbits()) == 1 and len(final.edge_orbits()) == 1
    assert _audit(o, final) == (
        "the split fails its audit: every generator (a, b) fixes a vertex of "
        "the final tree, so its quotient graph is a tree (Serre, Trees, "
        "I.6.5), but the final tree has one edge orbit and one vertex orbit"
    )


def test_pipeline_refuses_one_ended_groups():
    with pytest.raises(EndsError, match="no balanced cut"):
        splitting_pipeline(ZdOracle(2))


def test_pipeline_with_supplied_cut():
    bv = ball(ZdOracle(1), 6)
    members = [
        bv.graph.vertices[i] for i, el in enumerate(bv.elements) if el[0] <= 0
    ]
    rep = splitting_pipeline(ZdOracle(1), cut=cut_from_members(bv, members, "H"))
    assert rep.status == "split" and rep.cut_name == "H"


def test_report_lines_render():
    rep = splitting_pipeline(ZdOracle(1))
    text = "\n".join(rep.lines())
    assert "final tree: 1 edge orbit" in text
    assert text.endswith("ball-verified(R=6, W=2, L=53)")


def test_no_balanced_cut_names_stage_limit_and_remedy():
    with pytest.raises(EndsError) as exc:
        balanced_cut(ZdOracle(2), 5)
    msg = str(exc.value)
    assert msg.startswith("no balanced cut: at radius R=5, balanced_cut tried")
    assert "generator edge classes" in msg and "radius-2 balls" in msg
    assert "two sides that touch the sphere" in msg
    assert "one-ended group such as zd:2" in msg and "--radius" in msg


def _counts_by_components(oracle, rmax):
    """Reference counts: one full components pass per radius over the
    string graph, counting the blocks that touch the sphere."""
    bv = ball(oracle, rmax)
    g = bv.graph
    sphere_ids = [g.vertices[i] for i in sorted(bv.sphere)]
    out = []
    for r in range(1, rmax):
        removed = [
            e
            for (e, s, d) in g.edges
            if bv.dist[g.vindex[s]] <= r and bv.dist[g.vindex[d]] <= r
        ]
        part = components(g, removed=removed, boundary=sphere_ids)
        out.append(sum(1 for f in part.touches_boundary if f))
    return tuple(out)


ENDS_WITNESS_GROUPS = {
    "zd:1": lambda: ZdOracle(1),
    "zd:2": lambda: ZdOracle(2),
    "zd:3": lambda: ZdOracle(3),
    "free:1": lambda: FreeOracle(1),
    "free:2": lambda: FreeOracle(2),
    "fp(2,2)": lambda: FreeProductOracle([2, 2]),
    "fp(2,3)": lambda: FreeProductOracle([2, 3]),
    "fp(3,3)": lambda: FreeProductOracle([3, 3]),
    "fp(2,2,2)": lambda: FreeProductOracle([2, 2, 2]),
    "z6": z6,
}


@pytest.mark.parametrize("name", sorted(ENDS_WITNESS_GROUPS))
def test_sweep_counts_equal_per_radius_components(name):
    oracle = ENDS_WITNESS_GROUPS[name]()
    for rmax in range(2, 8):
        p = ends_profile(oracle, rmax)
        assert p.radii == tuple(range(1, rmax))
        assert p.counts == _counts_by_components(oracle, rmax), (name, rmax)


def test_ends_profile_needs_no_string_graph(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("ends_profile built a string graph")

    monkeypatch.setattr(cutforge.groups, "Graph", refuse)
    monkeypatch.setattr(cutforge.ends, "index_classes", refuse)
    p = ends_profile(FreeOracle(2), 6)
    assert p.classification == "infinitely_many"
    assert p.counts == tuple(4 * 3 ** (r - 1) for r in p.radii)
