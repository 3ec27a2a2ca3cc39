import random
import re

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


def reference_letters(o):
    """Each generator, then its inverse when that differs, as (name,
    element, generator index or None)."""
    out = []
    for gj, (name, g) in enumerate(o.generators()):
        out.append((name, g, gj))
        if o.invert(g) != g:
            out.append((name + "^-1", o.invert(g), None))
    return out


def reference_words(o, max_len):
    """The breadth-first word search each oracle used to run itself: every
    frontier element times every generator, then its inverse when that
    differs, keeping the first word found per element."""
    e = o.identity()
    seen = {e: ""}
    order = [e]
    frontier = [e]
    letters = reference_letters(o)
    for _ in range(max_len):
        nxt = []
        for el in frontier:
            for name, g, _gj in letters:
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
    "free:1": lambda: FreeOracle(1),
    "free:2": lambda: FreeOracle(2),
    "free:3": lambda: FreeOracle(3),
    "fp(2,3)": lambda: FreeProductOracle([2, 3]),
    "fp(3,3)": lambda: FreeProductOracle([3, 3]),
    "fp(3,4)": lambda: FreeProductOracle([3, 4]),
    "fp(2,2,2)": lambda: FreeProductOracle([2, 2, 2]),
    "Z/6<1>": z6,
    "Z/6<2,3>": lambda: z6(("2", "3")),  # 3 is an involution
    "Z/6<1,5>": lambda: z6(("1", "5")),  # 5 is the inverse of 1
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


def test_element_from_word_takes_huge_powers_by_squaring():
    """An exponent is reduced modulo a finite order and powered by repeated
    squaring: b^(2^40 - 1), as el_str prints it, reads back, and one more b
    gives the identity; x^(10^10) in Z costs about 34 squarings."""
    n = 1 << 40
    o = FreeProductOracle((2, n))
    b = o.element_from_word("b^%d" % (n - 1))
    assert o.el_str(b) == "b^%d" % (n - 1)
    assert o.element_from_word(o.el_str(b)) == b == o.invert(o.element_from_word("b"))
    assert o.multiply(b, o.element_from_word("b")) == o.identity()
    assert o.element_from_word("b^%d a b^-%d" % (n + 1, n - 1)) == o.element_from_word("b a b")
    z = ZdOracle(1)
    assert z.element_from_word("x^10000000000 x^-3") == (10 ** 10 - 3,)
    assert z.element_from_word("x^-10000000000") == (-10 ** 10,)


def test_a_free_word_outside_the_radius_is_refused_before_its_powers():
    """A free word's merged syllables spell its reduced word, so its length
    is read off them: a word longer than the radius is refused without
    forming a power, and one that cancels into the ball is kept."""
    o = FreeOracle(2)
    big = 10 ** 10
    ab = o.element_from_word("a b")
    assert o.element_from_word("a^%d a^-%d b" % (big, big - 1), 6) == ab
    assert o.element_from_word("a b b^-1 a^5", 6) == o.element_from_word("a^6")
    assert o.element_from_word("b^%d b^-%d" % (big, big), 0) == o.identity()
    for word, length in (("a^7", 7), ("a^%d b a^-%d" % (big, big), 2 * big + 1),
                         ("a b a^-1 b^-1 a b a^-1", 7)):
        why = "element %s has length %d, outside ball of radius 6" % (word, length)
        with pytest.raises(GroupError, match="^%s$" % (re.escape(why),)):
            o.element_from_word(word, 6)
    # without a radius, and in the other kinds, the element is formed
    assert o.element_from_word("a^7") == o.element_from_word("a a a a a a a")
    assert ZdOracle(1).element_from_word("x^%d" % big, 6) == (big,)


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


@pytest.mark.parametrize("value", ["abc", "-5", "0", "2.5"])
def test_vertex_cap_refuses_a_bad_environment_value(monkeypatch, value):
    monkeypatch.setenv("CUTFORGE_CAP_VERTICES", value)
    with pytest.raises(GroupError) as err:
        ball(ZdOracle(1), 1)
    assert str(err.value) == (
        "CUTFORGE_CAP_VERTICES must be a positive integer, not %r" % (value,)
    )


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


def reference_ball(o, radius, cap):
    """The search `ball` used to run: every frontier element times every
    letter, each product looked up, then the sphere times every generator.
    Returns (elements, el_to_idx, dist, sphere, exhausted, index_edges,
    edge_gen)."""
    e = o.identity()
    idx = {e: 0}
    order, dist, frontier = [e], [0], [e]
    letters = [(g, gj) for _name, g, gj in reference_letters(o)]
    index_edges, edge_gen = [], []
    exhausted = False
    src = 0
    for r in range(1, radius + 1):
        nxt = []
        for el in frontier:
            for g, gj in letters:
                img = o.multiply(el, g)
                j = idx.get(img)
                if j is None:
                    j = idx[img] = len(order)
                    order.append(img)
                    dist.append(r)
                    nxt.append(img)
                    if len(order) > cap:
                        raise GroupError(
                            "ball of radius %d exceeds vertex cap %d" % (radius, cap)
                        )
                if gj is not None:
                    index_edges.append((src, j))
                    edge_gen.append(gj)
            src += 1
        frontier = nxt
        if not frontier:
            exhausted = True
            break
    sphere = frozenset()
    if not exhausted:
        sphere = frozenset(range(src, len(order)))
        for el in frontier:
            for gj, (_name, g) in enumerate(o.generators()):
                j = idx.get(o.multiply(el, g))
                if j is not None:
                    index_edges.append((src, j))
                    edge_gen.append(gj)
            src += 1
    return (tuple(order), idx, tuple(dist), sphere, exhausted,
            tuple(index_edges), tuple(edge_gen))


def reference_search_tree(o, dist, index_edges, edge_gen):
    """The search tree read off the edges, as `search_tree` used to: per
    element the least (parent, letter) one step nearer the identity, where
    an edge i -> j of generator s is letter s from i and letter s^-1 from j
    (an involution has the edge j -> i of its own)."""
    fwd, back = [], []
    for k, (_name, _g, gj) in enumerate(reference_letters(o)):
        if gj is None:
            back[-1] = k
        else:
            fwd.append(k)
            back.append(None)
    tree = [None] * len(dist)
    for (i, j), s in zip(index_edges, edge_gen):
        for parent, child, letter in ((i, j, fwd[s]), (j, i, back[s])):
            if letter is None or dist[child] != dist[parent] + 1:
                continue
            if tree[child] is None or (parent, letter) < tree[child]:
                tree[child] = (parent, letter)
    return tuple(tree)


@pytest.mark.parametrize("radius", range(6))
@pytest.mark.parametrize("name", sorted(SEARCH_ORACLES))
def test_ball_equals_the_reference_search(name, radius):
    o = SEARCH_ORACLES[name]()
    bv = ball(o, radius)
    elements, idx, dist, sphere, exhausted, edges, gens = reference_ball(o, radius, 10**9)
    assert bv.elements == elements
    assert list(bv.el_to_idx.items()) == list(idx.items())
    assert bv.dist == dist
    assert frozenset(bv.sphere) == sphere
    assert bv.exhausted is exhausted
    assert bv.index_edges == edges
    assert bv.edge_gen == gens
    tree = reference_search_tree(o, dist, edges, gens)
    assert search_tree(bv) == tree
    assert bv.tree_parent == (-1,) + tuple(p for p, _t in tree[1:])
    assert bv.tree_letter == (-1,) + tuple(t for _p, t in tree[1:])


@pytest.mark.parametrize("radius", range(6))
@pytest.mark.parametrize("name", sorted(SEARCH_ORACLES))
def test_right_table_is_the_product_by_each_letter(name, radius):
    """BallView.right, read off the edges, is x t looked up for every
    element x and letter t: involutions and a generator that is another's
    inverse included (the Z/6 tables)."""
    o = SEARCH_ORACLES[name]()
    bv = ball(o, radius)
    assert bv._right is None
    want = tuple(
        [bv.el_to_idx.get(o.multiply(x, g)) for x in bv.elements]
        for _name, g, _gj in reference_letters(o)
    )
    assert bv.right == want
    assert bv.right is bv.right


@pytest.mark.parametrize("name", sorted(SEARCH_ORACLES))
def test_cap_refusal_fires_at_the_reference_vertex_count(name):
    """The cap admits a ball of exactly cap vertices and refuses one more,
    with the message of the reference search."""
    o = SEARCH_ORACLES[name]()
    nv = ball(o, 4).nv
    assert ball(o, 4, cap=nv).nv == nv
    if nv == 1:
        return
    with pytest.raises(GroupError) as want:
        reference_ball(o, 4, nv - 1)
    with pytest.raises(GroupError) as got:
        ball(o, 4, cap=nv - 1)
    assert str(got.value) == str(want.value) == (
        "ball of radius 4 exceeds vertex cap %d" % (nv - 1,)
    )


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


def reference_free_multiply(a, b):
    """Free reduction on a stack: push each letter of b, popping the top
    instead when the two cancel."""
    out = list(a)
    for x in b:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def reference_free_product_multiply(orders, a, b):
    """Normal form on a stack: push each syllable of b, merging it into the
    top instead when the two share a factor, and dropping a zero sum."""
    out = list(a)
    for (f, e) in b:
        if out and out[-1][0] == f:
            e2 = (out[-1][1] + e) % orders[f]
            out.pop()
            if e2:
                out.append((f, e2))
        else:
            out.append((f, e))
    return tuple(out)


def reference_multiply(o, a, b):
    if isinstance(o, FreeOracle):
        return reference_free_multiply(a, b)
    return reference_free_product_multiply(o.orders, a, b)


def spell(o, x):
    """The normal form of x as the sequence the stack references read,
    decoded from its el_str: +i / -i for the i-th generator of a free
    group (1-based) and its inverse, (factor, exp) in a free product."""
    names = [name for name, _g in o.generators()]
    out = []
    for tok in o.el_str(x).split():
        name, _, exp = tok.partition("^")
        i, e = names.index(name), int(exp or 1)
        out.append((i + 1) * e if isinstance(o, FreeOracle) else (i, e))
    return tuple(out)


def unspell(o, seq):
    """The element a letter or syllable sequence spells."""
    names = [name for name, _g in o.generators()]
    if isinstance(o, FreeOracle):
        toks = [names[abs(x) - 1] + ("" if x > 0 else "^-1") for x in seq]
    else:
        toks = ["%s^%d" % (names[f], e) for f, e in seq]
    return o.element_from_word(" ".join(toks))


# per oracle, explicit pairs of words: the identity, a full cancellation,
# and (in Z/5) a partial syllable merge, alone and after a cancellation
PRODUCT_CASES = {
    "free:2": (lambda: FreeOracle(2), [
        ("", ""),
        ("", "a b^-1"),
        ("a b^-1", ""),
        ("a b a^-1", "a b^-1 a^-1"),
        ("a b", "b^-1 a"),
    ]),
    "free:3": (lambda: FreeOracle(3), [("c a^-1", "a c^-1"), ("b c", "c^-1 b^-1 a")]),
    "free_product:3,3": (lambda: FreeProductOracle([3, 3]), [
        ("a b^2", "b a^2"),
        ("a b^2", "b^2 a"),
    ]),
    "free_product:2,2,2": (lambda: FreeProductOracle([2, 2, 2]), [
        ("a c", "c a b"),
    ]),
    "free_product:3,4,5": (lambda: FreeProductOracle([3, 4, 5]), [
        ("", "c^2"),
        ("c^2", "c"),
        ("a c^2", "c^3 a"),
        ("b^3 a c^2", "c^3 a^2 b^3"),
        ("b c^4", "c^4 b^2"),
    ]),
}


def test_explicit_product_cases_spell_their_words():
    # the words above are the tuples the stack references read
    o = FreeProductOracle([3, 4, 5])
    assert spell(o, o.element_from_word("b^3 a c^2")) == ((1, 3), (0, 1), (2, 2))
    o = FreeOracle(3)
    assert spell(o, o.element_from_word("b c^-1 a")) == (2, -3, 1)


@pytest.mark.parametrize("name", sorted(PRODUCT_CASES))
def test_multiply_matches_the_stack_reduction(name):
    make, explicit = PRODUCT_CASES[name]
    o = make()
    rng = random.Random(name)
    els = [el for el, _word in o.words_up_to(5)]
    pairs = [(o.element_from_word(u), o.element_from_word(v)) for u, v in explicit]
    pairs += [(rng.choice(els), rng.choice(els)) for _ in range(400)]
    for a in rng.sample(els, min(len(els), 100)):
        # a times the inverse of a suffix of a, then a random element:
        # cancellation that runs k letters or syllables deep
        seq = spell(o, a)
        k = rng.randrange(len(seq) + 1)
        tail = unspell(o, reference_multiply(
            o, spell(o, o.invert(unspell(o, seq[k:]))), spell(o, rng.choice(els))))
        pairs += [(a, o.invert(a)), (a, tail), (o.invert(tail), o.invert(a))]
    for a, b in pairs:
        want = reference_multiply(o, spell(o, a), spell(o, b))
        assert spell(o, o.multiply(a, b)) == want, (o.el_str(a), o.el_str(b))
        assert o.multiply(a, b) == unspell(o, want)
    assert any(o.multiply(a, b) == o.identity() != a for a, b in pairs)


ROUND_TRIP_ORACLES = {
    "free:1": lambda: FreeOracle(1),
    "free:2": lambda: FreeOracle(2),
    "free:3": lambda: FreeOracle(3),
    "free_product:2,3": lambda: FreeProductOracle([2, 3]),
    "free_product:3,3": lambda: FreeProductOracle([3, 3]),
    "free_product:2,2,2": lambda: FreeProductOracle([2, 2, 2]),
    "free_product:3,4,5": lambda: FreeProductOracle([3, 4, 5]),
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_ORACLES))
def test_normal_forms_round_trip(name):
    o = ROUND_TRIP_ORACLES[name]()
    e = o.identity()
    for x in ball(o, 4).elements:
        assert o.element_from_word(o.el_str(x)) == x
        assert o.invert(o.invert(x)) == x
        assert o.multiply(x, o.invert(x)) == e == o.multiply(o.invert(x), x)
        if len(spell(o, x)) == 1:
            # no cyclic order here exceeds 5; a free letter never returns
            y, k = x, 1
            while y != e and k <= 5:
                y, k = o.multiply(y, x), k + 1
            assert o.order(x) == (k if y == e else None)


def test_free_product_with_a_large_order():
    o = FreeProductOracle([2, 2**40])
    assert ball(o, 3).nv == 22
    b = o.element_from_word("b")
    x = b
    for _ in range(39):
        x = o.multiply(x, x)
    assert o.el_str(x) == "b^%d" % (2**39)
    assert o.order(x) == 2
    assert o.el_str(o.invert(b)) == "b^%d" % (2**40 - 1)
    assert o.multiply(o.invert(b), b) == o.identity()


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"kind": "free", "k": 27}, "free needs k <= 26: generators are named a to z"),
        (
            {"kind": "free_product", "orders": [2] * 27},
            "free_product needs at most 26 factors: generators are named a to z",
        ),
    ],
    ids=["free", "free_product"],
)
def test_more_than_26_generators_are_refused_by_name(spec, message):
    with pytest.raises(GroupError) as info:
        make_oracle(spec)
    assert str(info.value) == message
    spec = dict(spec, k=26) if spec["kind"] == "free" else dict(spec, orders=[2] * 26)
    assert len(make_oracle(spec).generators()) == 26
