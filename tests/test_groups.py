import pytest

from cutforge.graphs import Graph
from cutforge.groups import (
    FreeOracle,
    FreeProductOracle,
    GroupError,
    PermOracle,
    TableOracle,
    ZdOracle,
    ball,
    make_oracle,
)


def z6():
    mul = [[(a + b) % 6 for b in range(6)] for a in range(6)]
    return TableOracle([str(i) for i in range(6)], mul, ["1"])


def test_zd_arithmetic():
    o = ZdOracle(2)
    a, b = (1, 0), (0, 1)
    assert o.multiply(a, b) == (1, 1)
    assert o.invert((2, -1)) == (-2, 1)
    assert o.identity() == (0, 0)
    assert [n for n, _g in o.generators()] == ["x0", "x1"]


def test_words_identity_first():
    o = ZdOracle(1)
    ws = o.words_up_to(2)
    assert ws[0] == ((0,), "")
    assert dict(ws)[(2,)] == "x x"
    assert len(ws) == 5  # -2..2


def test_element_from_word():
    o = FreeOracle(2)
    assert o.element_from_word("") == o.identity()
    assert o.element_from_word("a b^-1") == o.multiply(
        o.element_from_word("a"), o.invert(o.element_from_word("b"))
    )
    with pytest.raises(GroupError):
        o.element_from_word("zz")
    with pytest.raises(GroupError):
        o.element_from_word("a^x")


def test_table_oracle_finite():
    o = z6()
    assert o.finite_kind
    # table elements are indices; names only appear in el_str
    assert o.el_str(o.multiply(5, 2)) == "1"
    assert o.el_str(o.invert(2)) == "4"
    bv = ball(o, 6)
    assert bv.exhausted and bv.nv == 6 and len(bv.sphere) == 0


def test_perm_oracle():
    o = PermOracle(3, [(1, 2, 0)], ["r"])
    assert o.finite_kind
    els = o.elements()
    assert len(els) == 3


def test_free_ball_is_tree():
    bv = ball(FreeOracle(2), 2)
    # 1 + 4 + 12 vertices, tree: edges = vertices - 1
    assert bv.nv == 17 and bv.graph.ne == 16
    assert len(bv.sphere) == 12
    assert not bv.exhausted


@pytest.mark.parametrize(
    "oracle, radius",
    [
        (ZdOracle(2), 3),
        (FreeOracle(2), 3),
        (FreeProductOracle([2, 3]), 5),
        (z6(), 4),  # exhausted: the ball is the whole Cayley graph
        (FreeOracle(2), 0),
    ],
)
def test_lazy_graph_matches_names_and_edge_ids(oracle, radius):
    bv = ball(oracle, radius)
    names = [oracle.el_str(el) for el in bv.elements]
    gens = oracle.generators()
    edges = []
    for i, el in enumerate(bv.elements):
        for name, g in gens:
            j = bv.el_to_idx.get(oracle.multiply(el, g))
            if j is not None:
                edges.append(("%s|%s" % (names[i], name), names[i], names[j]))
    want = Graph(names, edges)
    got = bv.graph
    assert got.vertices == want.vertices
    assert got.edges == want.edges
    assert bv.graph is got  # cached after the first access
    assert bv.nv == got.nv == len(bv.elements)
    assert bv.index_edges == got.index_edges


def test_free_product_ball_is_line():
    bv = ball(FreeProductOracle([2, 2]), 4)
    # the infinite dihedral Cayley graph: involutions double their edges
    assert bv.nv == 9 and bv.graph.ne == 16
    assert len(bv.sphere) == 2


def test_ball_distances():
    bv = ball(ZdOracle(1), 3)
    assert bv.dist[bv.index_of((0,))] == 0
    assert bv.dist[bv.index_of((-3,))] == 3
    assert bv.index_of((3,)) in bv.sphere
    with pytest.raises(GroupError):
        bv.index_of((4,))


def test_make_oracle_specs():
    assert isinstance(make_oracle({"kind": "zd", "d": 2}), ZdOracle)
    assert isinstance(make_oracle({"kind": "free", "k": 1}), FreeOracle)
    assert isinstance(
        make_oracle({"kind": "free_product", "orders": [2, 3]}),
        FreeProductOracle,
    )
    with pytest.raises(GroupError):
        make_oracle({"kind": "nope"})
    with pytest.raises(GroupError):
        make_oracle({"kind": "zd"})


def test_vertex_cap(monkeypatch):
    with pytest.raises(GroupError):
        ball(FreeOracle(2), 8, cap=100)
    monkeypatch.setenv("CUTFORGE_CAP_VERTICES", "10")
    with pytest.raises(GroupError):
        ball(FreeOracle(2), 3)
