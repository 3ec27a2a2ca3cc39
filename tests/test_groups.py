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
    search_tree,
)


def z6(gens=("1",)):
    mul = [[(a + b) % 6 for b in range(6)] for a in range(6)]
    return TableOracle([str(i) for i in range(6)], mul, list(gens))


def s4():
    return PermOracle(4, [(1, 2, 3, 0), (1, 0, 2, 3)], ["r", "s"])


def s5():
    return PermOracle(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], ["r", "s"])


def reference_words(o, max_len):
    """The breadth-first word search each oracle used to run itself: every
    frontier element times every generator, then its inverse when that
    differs, keeping the first word found per element."""
    e = o.identity()
    seen = {e: ""}
    order = [e]
    frontier = [e]
    letters = []
    for name, g in o.generators():
        letters.append((name, g))
        gi = o.invert(g)
        if gi != g:
            letters.append((name + "^-1", gi))
    for _ in range(max_len):
        nxt = []
        for el in frontier:
            for name, g in letters:
                img = o.multiply(el, g)
                if img not in seen:
                    seen[img] = (seen[el] + " " + name).strip()
                    order.append(img)
                    nxt.append(img)
        frontier = nxt
    return [(el, seen[el]) for el in order]


SEARCH_ORACLES = {
    "zd:1": lambda: ZdOracle(1),
    "zd:2": lambda: ZdOracle(2),
    "zd:3": lambda: ZdOracle(3),
    "free:2": lambda: FreeOracle(2),
    "free:3": lambda: FreeOracle(3),
    "fp(2,3)": lambda: FreeProductOracle([2, 3]),
    "fp(3,4)": lambda: FreeProductOracle([3, 4]),
    "fp(2,2,2)": lambda: FreeProductOracle([2, 2, 2]),
    "Z/6<1>": z6,
    "Z/6<2,3>": lambda: z6(("2", "3")),
    "S4": s4,
    "S5": s5,
}


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


@pytest.mark.parametrize("max_len", range(5))
@pytest.mark.parametrize("name", sorted(SEARCH_ORACLES))
def test_words_follow_the_reference_search(name, max_len):
    o = SEARCH_ORACLES[name]()
    assert o.words_up_to(max_len) == reference_words(o, max_len)


@pytest.mark.parametrize("make", [s4, s5, lambda: PermOracle(3, [(1, 2, 0)])])
def test_perm_elements_follow_the_reference_search(make):
    o = make()
    want = [el for el, _w in reference_words(o, 200)]
    assert list(o.elements()) == want


@pytest.mark.parametrize("name", sorted(SEARCH_ORACLES))
def test_smaller_ball_is_a_prefix(name):
    o = SEARCH_ORACLES[name]()
    big = ball(o, 4)
    for r in range(4):
        small = ball(o, r)
        assert big.elements[: small.nv] == small.elements
        assert big.dist[: small.nv] == small.dist


@pytest.mark.parametrize("name", sorted(SEARCH_ORACLES))
def test_search_tree_steps_one_letter_inward(name):
    o = SEARCH_ORACLES[name]()
    bv = ball(o, 3)
    letters = []
    for _name, g in o.generators():
        letters.append(g)
        if o.invert(g) != g:
            letters.append(o.invert(g))
    tree = search_tree(bv)
    assert tree[0] is None and len(tree) == bv.nv
    for j in range(1, bv.nv):
        parent, letter = tree[j]
        assert bv.dist[parent] == bv.dist[j] - 1
        assert o.multiply(bv.elements[parent], letters[letter]) == bv.elements[j]


def test_perm_spec_needs_a_name_per_generator():
    with pytest.raises(GroupError, match="one name per generator"):
        make_oracle(
            {"kind": "perm", "degree": 3, "gens": [[1, 2, 0], [1, 0, 2]],
             "names": ["r"]}
        )


@pytest.mark.parametrize("perm", [[1, "2", 0], [1.0, 2, 0]])
def test_perm_spec_needs_integer_entries(perm):
    with pytest.raises(GroupError, match="list of integers"):
        make_oracle({"kind": "perm", "degree": 3, "gens": [perm]})


def test_free_product_spec_needs_a_list_of_orders():
    with pytest.raises(GroupError, match="list of integers"):
        make_oracle({"kind": "free_product", "orders": "23"})


def test_table_spec_needs_integer_rows():
    with pytest.raises(GroupError, match="table row 1 must be a list of integers"):
        make_oracle(
            {"kind": "table", "elements": ["e", "s"], "mul": [[0, 1], [1, 0.0]],
             "gens": ["s"]}
        )


@pytest.mark.parametrize(
    "spec, field",
    [
        ({"kind": "table", "elements": "es", "mul": [[0, 1], [1, 0]],
          "gens": ["s"]}, "table elements"),
        ({"kind": "table", "elements": ["e", "s"], "mul": [[0, 1], [1, 0]],
          "gens": "s"}, "table gens"),
        ({"kind": "perm", "degree": 3, "gens": [[1, 2, 0], [1, 0, 2]],
          "names": "rs"}, "perm names"),
    ],
    ids=["table-elements", "table-gens", "perm-names"],
)
def test_name_fields_must_be_lists_of_strings(spec, field):
    with pytest.raises(GroupError, match="^%s must be a list of strings$" % field):
        make_oracle(spec)


def test_vertex_cap_limits_only_requested_balls(monkeypatch):
    monkeypatch.setenv("CUTFORGE_CAP_VERTICES", "3")
    assert len(ZdOracle(1).words_up_to(4)) == 9
    assert len(s5().elements()) == 120
    assert z6(("2", "3")).elements() == tuple(range(6))
    with pytest.raises(GroupError):
        ball(ZdOracle(1), 2)


def test_perm_spec_refuses_duplicate_names():
    with pytest.raises(GroupError, match="duplicate generator name"):
        make_oracle(
            {"kind": "perm", "degree": 3, "gens": [[1, 2, 0], [1, 0, 2]],
             "names": ["r", "r"]}
        )


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "zd", "d": 2.7},
        {"kind": "zd", "d": "2"},
        {"kind": "zd", "d": True},
        {"kind": "free", "k": "2"},
        {"kind": "free", "k": 2.0},
        {"kind": "free", "k": True},
        {"kind": "perm", "degree": 3.0, "gens": [[1, 2, 0]]},
        {"kind": "perm", "degree": "3", "gens": [[1, 2, 0]]},
    ],
)
def test_scalar_spec_fields_must_be_integers(spec):
    with pytest.raises(GroupError, match="must be an integer"):
        make_oracle(spec)


def test_integer_scalar_fields_still_build():
    assert make_oracle({"kind": "zd", "d": 2}).d == 2
    assert make_oracle({"kind": "free", "k": 2}).k == 2
    assert make_oracle({"kind": "perm", "degree": 3, "gens": [[1, 2, 0]]}).degree == 3


@pytest.mark.parametrize(
    "oracle, word, order",
    [
        (FreeProductOracle([2, 101]), "b", 101),
        (FreeProductOracle([3, 4]), "b^2", 2),
        (FreeProductOracle([3, 4]), "a b a^-1", 4),
        (FreeProductOracle([3, 4]), "a b^2 a b^-2 a^-1", 3),
        (FreeProductOracle([3, 4]), "a b a", None),
        (FreeProductOracle([3, 4]), "a b", None),
        (FreeProductOracle([3, 4]), "", 1),
        (ZdOracle(2), "x0", None),
        (ZdOracle(2), "", 1),
        (FreeOracle(2), "a b a^-1", None),
        (FreeOracle(2), "", 1),
        (s4(), "r", 4),
        (s4(), "r s", 3),
        (z6(), "1", 6),
        (z6(), "1^2", 3),
    ],
)
def test_element_orders(oracle, word, order):
    a = oracle.element_from_word(word)
    assert oracle.order(a) == order
    if order is not None:
        x = oracle.identity()
        for k in range(1, order + 1):
            x = oracle.multiply(x, a)
            assert (x == oracle.identity()) == (k == order)
