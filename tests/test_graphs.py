import random

import pytest

from cutforge.graphs import (
    Graph,
    GraphError,
    collapse_blocks,
    components,
    enumerate_reduced_paths,
    graph_from_json_dict,
    graph_to_json_dict,
    index_classes,
    is_forest,
    is_reduced,
    is_tree,
    reduced_path,
    tree_distance,
)


def path4():
    return Graph(
        ["a", "b", "c", "d"],
        [("e0", "a", "b"), ("e1", "b", "c"), ("e2", "c", "d")],
    )


def test_duplicate_vertex_rejected():
    with pytest.raises(GraphError):
        Graph(["a", "a"], [])


def test_duplicate_edge_rejected():
    with pytest.raises(GraphError):
        Graph(["a", "b"], [("e", "a", "b"), ("e", "b", "a")])


def test_dangling_endpoint_rejected():
    with pytest.raises(GraphError):
        Graph(["a"], [("e", "a", "zz")])


@pytest.mark.parametrize("vertices, edges, text", [
    (["a", "b", "a", "b"], [], "duplicate vertex id: 'a'"),
    (["a", "b"], [("e", "a", "b"), ("f", "a", "zz"), ("e", "b", "a")],
     "edge 'f' has dangling dst 'zz'"),
    (["a", "b"], [("e", "a", "b"), ("e", "b", "zz")], "duplicate edge id: 'e'"),
    (["a", "b"], [("e", "a", "b"), ("b", "a", "a"), ("e", "a", "b")],
     "edge id collides with vertex id: 'b'"),
    (["a"], [("e", "zz", "yy")], "edge 'e' has dangling src 'zz'"),
    (["a", "a"], [("e", "zz", "a")], "duplicate vertex id: 'a'"),
    ([0, 1], [("x", 0, 1), ("y", 1, 2), (1, 0, 0)], "edge 'y' has dangling dst 2"),
])
def test_a_faulty_graph_names_its_first_fault(vertices, edges, text):
    """Ids are checked after one pass over the edges; a fault is then
    named as a per-edge scan in input order names it, whichever fault a
    C-level check saw first."""
    with pytest.raises(GraphError) as exc:
        Graph(vertices, edges)
    assert str(exc.value) == text


def test_an_unhashable_id_is_refused_as_before():
    with pytest.raises(TypeError):
        Graph(["a", ["b"]], [])
    with pytest.raises(GraphError, match="dangling src 'zz'"):
        Graph(["a"], [("e", "zz", "a"), (["f"], "a", "a")])


def test_the_index_pass_keeps_input_order():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(1, 9)
        vs = ["v%d" % i for i in range(n)]
        rng.shuffle(vs)
        es = [("e%d" % k, rng.choice(vs), rng.choice(vs)) for k in range(rng.randrange(12))]
        g = Graph(vs, es)
        assert g.vindex == {v: i for i, v in enumerate(vs)}
        assert g.eindex == {e: k for k, (e, _s, _d) in enumerate(es)}
        assert g.index_edges == tuple((vs.index(s), vs.index(d)) for _e, s, d in es)
        darts = [[] for _ in vs]
        for k, (si, di) in enumerate(g.index_edges):
            darts[si].append((di, k, 1))
            darts[di].append((si, k, -1))
        assert g.darts == tuple(map(tuple, darts))


def test_darts_and_loops():
    g = Graph(["a"], [("l", "a", "a")])
    assert len(g.darts[0]) == 2
    assert not is_tree(g)


def test_components_partition():
    g = Graph(
        ["a", "b", "c", "d"],
        [("e0", "a", "b"), ("e1", "c", "d")],
    )
    part = components(g)
    assert sorted(tuple(b) for b in part.blocks) == [("a", "b"), ("c", "d")]
    assert part.block_of("c") == part.block_of("d")


def test_components_with_removed_edges():
    part = components(path4(), removed=["e1"])
    assert sorted(tuple(b) for b in part.blocks) == [("a", "b"), ("c", "d")]


def test_collapse_blocks():
    g = path4()
    cg, vmap = collapse_blocks(g, ["e0"])
    assert cg.nv == 3 and cg.ne == 2
    assert vmap["a"] == vmap["b"]
    # surviving edges keep their ids and follow the vertex map
    assert cg.endpoints("e1") == (vmap["b"], vmap["c"])


def test_tree_predicates():
    assert is_tree(path4())
    assert not is_tree(Graph(["a", "b"], []))  # disconnected
    cyc = Graph(["a", "b"], [("e", "a", "b"), ("f", "b", "a")])
    assert not is_tree(cyc) and not is_forest(cyc)
    assert is_forest(Graph(["a", "b"], []))


def test_reduced_path_unique_on_tree():
    g = path4()
    p = reduced_path(g, "a", "d")
    assert is_reduced(g, p) and p.length == 3
    assert len(enumerate_reduced_paths(g, "a", "d", 10)) == 1
    assert tree_distance(g, "a", "d") == 3 == tree_distance(g, "d", "a")
    assert reduced_path(g, "b", "b").length == 0


def test_reduced_path_refuses_a_non_tree():
    cyc = Graph(["a", "b"], [("e", "a", "b"), ("f", "b", "a")])
    with pytest.raises(GraphError):
        reduced_path(cyc, "a", "b")
    # a tree answer kept on one graph does not carry over to another
    assert reduced_path(path4(), "a", "b").length == 1
    with pytest.raises(GraphError):
        reduced_path(Graph(["a", "b"], []), "a", "a")
    with pytest.raises(GraphError):
        tree_distance(cyc, "a", "b")


def test_json_round_trip_preserves_order():
    g = Graph(
        ["x", "a"],
        [("e1", "a", "x"), ("e0", "x", "x")],
    )
    rt = graph_from_json_dict(graph_to_json_dict(g))
    assert rt.vertices == g.vertices
    assert rt.edges == g.edges


def reference_components(g, removed, boundary):
    """Depth-first components of g minus the removed edge ids: blocks of
    vertex ids sorted by index, least member first, each flagged when it
    holds a boundary vertex."""
    removed = set(removed)
    seen = set()
    blocks, flags = [], []
    for start in range(g.nv):
        if start in seen:
            continue
        seen.add(start)
        block, stack = [start], [start]
        while stack:
            u = stack.pop()
            for k, (e, s, d) in enumerate(g.edges):
                if e in removed:
                    continue
                for a, b in ((s, d), (d, s)):
                    w = g.vindex[b]
                    if g.vindex[a] == u and w not in seen:
                        seen.add(w)
                        block.append(w)
                        stack.append(w)
        block.sort()
        blocks.append(tuple(g.vertices[i] for i in block))
        flags.append(any(g.vertices[i] in boundary for i in block))
    return tuple(blocks), tuple(flags)


@pytest.mark.parametrize("seed", range(6))
def test_components_match_depth_first_reference(seed):
    rng = random.Random(seed)
    for _ in range(40):
        nv = rng.randint(1, 12)
        vertices = ["v%d" % i for i in range(nv)]
        rng.shuffle(vertices)
        edges = []
        for k in range(rng.randint(0, 2 * nv)):
            s = rng.choice(vertices)
            # loops and parallel edges on purpose
            d = s if rng.random() < 0.15 else rng.choice(vertices)
            edges.append(("e%d" % k, s, d))
            if rng.random() < 0.15:
                edges.append(("p%d" % k, d, s))
        g = Graph(vertices, edges)
        removed = [e for (e, _s, _d) in edges if rng.random() < 0.3]
        boundary = [v for v in vertices if rng.random() < 0.2]
        part = components(g, removed=removed, boundary=boundary)
        blocks, flags = reference_components(g, removed, set(boundary))
        assert part.blocks == blocks
        assert part.touches_boundary == flags


@pytest.mark.parametrize("seed", range(4))
def test_index_classes_of_members_are_the_classes_they_hold(seed):
    """With members, ascending and holding both ends of every pair, the
    classes are those of range(n) that lie among the members, in the same
    least-member-first order."""
    rng = random.Random("index-classes-%d" % seed)
    for _ in range(40):
        n = rng.randint(1, 30)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n))]
        ends = {x for pair in pairs for x in pair}
        members = sorted(ends | {v for v in range(n) if rng.random() < 0.2})
        want = tuple(c for c in index_classes(n, pairs) if c[0] in members)
        assert index_classes(n, pairs, members) == want
