import itertools
import json
import pathlib
import random

import pytest

from cutforge import cli, trees
from cutforge.cuts import Cut, cut_from_members, orbit_cuts, universe_graph
from cutforge.graphs import Graph, is_tree, tree_distance
from cutforge.ends import balanced_cut, splitting_pipeline
from cutforge.groups import (
    FreeProductOracle,
    PermOracle,
    TableOracle,
    ZdOracle,
    ball,
    make_oracle,
)
from cutforge.sieve import irreducible_family, select_nested_generating
from cutforge.trees import (
    NestedSystem,
    PartialAction,
    SizePolynomial,
    TreeAction,
    TreeError,
    blow_up,
    build_partial_action,
    collapse_compressible,
    edge_cut,
    edge_cuts,
    induce_action,
    is_compressible,
    maximal_stabilizers,
    paired_tree,
    size_polynomial,
    unpaired_tree,
    verify_system,
    vertex_embed,
)
from test_sieve import IMAGE_CELLS

DATA = pathlib.Path(__file__).parent / "data"


def z2():
    return TableOracle(["e", "s"], [[0, 1], [1, 0]], ["s"])


def k2_pair():
    g = Graph(["u", "w"], [("uw", "u", "w")])
    a = cut_from_members(g, ["u"], "A")
    return g, verify_system([a, a.complement()])


def chain3_system():
    g = Graph(
        ["a", "b", "c", "d"],
        [("e0", "a", "b"), ("e1", "b", "c"), ("e2", "c", "d")],
    )
    cuts = [
        cut_from_members(g, ["a"], "A1"),
        cut_from_members(g, ["a", "b"], "A2"),
        cut_from_members(g, ["a", "b", "c"], "A3"),
    ]
    return g, verify_system(cuts)


def test_verify_system_flags():
    _g, paired = k2_pair()
    assert paired.valid and paired.complement_stable and not paired.complement_free
    _g, chain = chain3_system()
    assert chain.complement_free and not chain.complement_stable
    assert not chain.valid  # valid is the paired-tree precondition
    assert chain.nested


def test_verify_system_rejections():
    g = Graph(["u", "w"], [("uw", "u", "w")])
    a = cut_from_members(g, ["u"], "A")
    with pytest.raises(TreeError):
        verify_system([a, cut_from_members(g, ["u"], "again")])
    crossing = verify_system(
        [
            cut_from_members(
                Graph(["1", "2", "3", "4"], []), ["1", "2"], "A"
            ),
        ]
    )
    assert crossing.excludes_empty and crossing.excludes_full


def brute_flags(full, cuts):
    """verify_system's flags, each read off every cut or pair of cuts, and
    the lexicographically first crossing pair of names (None if nested)."""
    bits = {c.bits for c in cuts}
    comps = [full ^ c.bits for c in cuts]

    def some_corner_empty(a, b):
        return not all((a & b, a & (full ^ b), (full ^ a) & b, full ^ (a | b)))

    crossing = [
        (a.name, b.name)
        for i, a in enumerate(cuts)
        for b in cuts[i + 1:]
        if not some_corner_empty(a.bits, b.bits)
    ]
    return (
        all(cb in bits for cb in comps),
        all(cb not in bits for cb in comps),
        not crossing,
        all(c.bits for c in cuts),
        all(c.bits != full for c in cuts),
        crossing[0] if crossing else None,
    )


def flags(system):
    return (system.complement_stable, system.complement_free, system.nested,
            system.excludes_empty, system.excludes_full, system.nested_witness)


def random_tree(rng, n):
    parent = [None] + [rng.randrange(i) for i in range(1, n)]
    return Graph(
        ["v%d" % i for i in range(n)],
        [("e%d" % i, "v%d" % parent[i], "v%d" % i) for i in range(1, n)],
    )


def edge_cut_families(t):
    """(complement-stable, complement-free) families of a tree's edge cuts."""
    one_sided = [
        cut_from_members(t, side, e) for e, side in sorted(edge_cuts(t).items())
    ]
    return one_sided + [c.complement() for c in one_sided], one_sided


@pytest.mark.parametrize("seed", range(6))
def test_verify_system_flags_match_pairwise_checks(seed):
    rng = random.Random(seed)
    t = random_tree(rng, rng.randrange(2, 40))
    both_sided, one_sided = edge_cut_families(t)
    full = (1 << t.nv) - 1
    for cuts in (both_sided, one_sided):
        system = verify_system(cuts)
        assert system.nested
        assert flags(system) == brute_flags(full, cuts)
    assert verify_system(both_sided).valid
    g = Graph(["x%d" % i for i in range(rng.randrange(1, 30))], [])
    pool = rng.sample(range(1 << g.nv), min(1 << g.nv, rng.randrange(1, 25)))
    cuts = [Cut(g, bits, "c%d" % k) for k, bits in enumerate(pool)]
    system = verify_system(cuts)
    expected = brute_flags((1 << g.nv) - 1, cuts)
    assert flags(system) == expected
    stable, _free, nested, no_empty, no_full, _witness = expected
    assert system.valid == (stable and nested and no_empty and no_full)


def test_index_of_bits():
    _g, system = k2_pair()
    a, na = system.cuts
    assert system.index_of_bits(na.bits) == 1
    assert system.index_of_bits(a.bits) == 0
    assert system.index_of_bits(0) is None
    # a system built by hand indexes its cuts too
    by_hand = NestedSystem(system.cuts, True, False, True, None, True, True)
    assert by_hand.index_of_bits(na.bits) == 1 and by_hand == system
    # ... and fills in the containment masks the tree labels are read off
    assert by_hand.containment == system.containment == ([0b01, 0b10], [0b10, 0b01])


def test_crossing_witness():
    g = Graph(["1", "2", "3", "4"], [])
    a = cut_from_members(g, ["1", "2"], "A")
    b = cut_from_members(g, ["2", "3"], "B")
    system = verify_system([a, b])
    assert not system.nested
    assert system.nested_witness == ("A", "B")


def test_paired_tree_of_one_pair():
    _g, system = k2_pair()
    t = paired_tree(system)
    assert t.graph.vertices == ("n0", "n1", "n2")
    assert t.graph.edges == (("e0", "n0", "n1"), ("e1", "n2", "n1"))
    assert [t.label_names(l) for l in t.labels] == [
        ("A",),
        ("A", "~A"),
        ("~A",),
    ]
    # iota e and iota e-complement sit at distance 2 across the pair vertex
    assert tree_distance(t.graph, "n0", "n2") == 2


def test_unpaired_tree_of_chain():
    _g, system = chain3_system()
    t = unpaired_tree(system)
    assert is_tree(t.graph)
    assert t.graph.nv == 4 and t.graph.ne == 3
    assert [t.label_names(l) for l in t.labels] == [
        ("A1", "A2", "A3"),
        ("A2", "A3"),
        ("A3",),
        (),
    ]


def test_mode_preconditions():
    _g, paired = k2_pair()
    _g2, chain = chain3_system()
    with pytest.raises(TreeError):
        unpaired_tree(paired)
    with pytest.raises(TreeError):
        paired_tree(chain)


def test_empty_system_single_vertex():
    empty = verify_system([])
    assert paired_tree(empty).graph.nv == 1
    assert unpaired_tree(empty).graph.ne == 0


def test_edge_cut_blocks():
    _g, system = k2_pair()
    t = paired_tree(system)
    assert edge_cut(t.graph, "e0") == frozenset(["n0"])
    assert edge_cuts(t.graph)["e1"] == frozenset(["n2"])


def test_edge_cut_refuses_a_non_tree():
    _g, system = k2_pair()
    t = paired_tree(system)
    assert edge_cut(t.graph, "e0") == frozenset(["n0"])
    cyc = Graph(["a", "b"], [("e", "a", "b"), ("f", "b", "a")])
    with pytest.raises(TreeError):
        edge_cut(cyc, "e")
    with pytest.raises(TreeError):
        edge_cuts(Graph(["a", "b", "c"], [("e", "a", "b")]))
    assert edge_cuts(t.graph)["e1"] == frozenset(["n2"])


@pytest.mark.parametrize("seed", range(4))
def test_edge_cuts_equal_the_per_edge_cuts(seed):
    """edge_cuts takes one pass of subtree masks; on seeded random trees with
    shuffled vertex and edge lists and random orientations it gives the
    frozensets, and the edge order, of one edge_cut per edge."""
    rng = random.Random("edge-cuts-%d" % seed)
    for _ in range(25):
        n = rng.randint(1, 30)
        names = ["v%d" % i for i in rng.sample(range(100), n)]
        edges = []
        for i in range(1, n):
            ends = [names[i], names[rng.randrange(i)]]
            rng.shuffle(ends)
            edges.append(("e%d" % i, *ends))
        rng.shuffle(edges)
        t = Graph(names, edges)
        got = edge_cuts(t)
        assert list(got.items()) == [(e, edge_cut(t, e)) for e, _s, _d in t.edges]


def index_set(mask):
    """The cut indices of a label mask, as a frozenset."""
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def literal_label(vertex_sets, everything, side):
    """{d | S ⊆ d, or ~S ⊊ d} for S = side, on sets of universe vertices."""
    rest = everything - side
    return frozenset(
        k for k, d in enumerate(vertex_sets) if side <= d or (rest <= d and rest != d)
    )


def assert_literal_labels(stree):
    """Every label of the tree is the literal label of its set: the head of
    cut k's edge is the label of cut k; in U mode the tail is the label of
    its complement, in T mode the midpoint {k, index of the complement}."""
    system = stree.system
    if not system.cuts:
        assert tuple(map(index_set, stree.labels)) == (frozenset(),)
        return
    g = universe_graph(system.universe)
    every = frozenset(g.vertices)
    sets = [
        frozenset(v for i, v in enumerate(g.vertices) if (c.bits >> i) & 1)
        for c in system.cuts
    ]
    seen = set()
    for k, (head, tail) in enumerate(stree.graph.index_edges):
        assert index_set(stree.labels[head]) == literal_label(sets, every, sets[k]), k
        if stree.mode == "T":
            want = frozenset((k, sets.index(every - sets[k])))
        else:
            want = literal_label(sets, every, every - sets[k])
        assert index_set(stree.labels[tail]) == want, k
        seen.update((head, tail))
    assert seen == set(range(stree.graph.nv))


def random_multigraph(rng):
    nv = rng.randint(2, 9)
    names = ["v%d" % i for i in range(nv)]
    edges = [("t%d" % i, names[rng.randrange(i)], names[i]) for i in range(1, nv)]
    edges += [
        ("x%d" % i, rng.choice(names), rng.choice(names))
        for i in range(rng.randint(0, nv))
    ]
    return Graph(names, edges)


@pytest.mark.parametrize("seed", range(4))
def test_labels_are_the_literal_labels(seed):
    """The labels come from atom signatures; each is checked here against
    {d | S ⊆ d, or ~S ⊊ d} written out on vertex sets: edge cuts of random
    trees in both modes, and the paired sieve irreducibles of random graphs."""
    rng = random.Random("labels-%d" % seed)
    for n in [2, 3] + [rng.randrange(4, 61) for _ in range(6)]:
        both_sided, one_sided = edge_cut_families(random_tree(rng, n))
        rng.shuffle(both_sided)
        rng.shuffle(one_sided)
        assert_literal_labels(paired_tree(verify_system(both_sided)))
        assert_literal_labels(unpaired_tree(verify_system(one_sided)))
    for _ in range(12):
        g = random_multigraph(rng)
        cuts = [Cut(g, rng.getrandbits(g.nv)) for _ in range(rng.randint(1, 3))]
        _report, paired = irreducible_family(cuts)
        assert_literal_labels(paired_tree(verify_system(paired)))


def test_labels_of_a_cayley_ball_system_are_the_literal_labels():
    """A ball system has far fewer atoms than vertices: the labels read off
    the atoms must still be the literal ones."""
    rep = splitting_pipeline(FreeProductOracle([2, 3]))
    system = rep.stree.system
    n_atoms = len({
        tuple((c.bits >> i) & 1 for c in system.cuts)
        for i in range(system.universe.nv)
    })
    assert n_atoms * 4 < system.universe.nv
    assert_literal_labels(rep.stree)


def test_vertex_embed_t_mode_only():
    g, system = k2_pair()
    t = paired_tree(system)
    assert vertex_embed(t, "u") == "n0"
    assert vertex_embed(t, "w") == "n2"
    _g2, chain = chain3_system()
    with pytest.raises(TreeError):
        vertex_embed(unpaired_tree(chain), "a")


def path3():
    return Graph(["a", "m", "b"], [("l", "a", "m"), ("r", "b", "m")])


def reflection_action():
    return TreeAction(path3(), z2(), {0: (0, 1, 2), 1: (2, 1, 0)})


def test_tree_action_orbits_and_stabilizers():
    act = reflection_action()
    # each edge image is the edge at the images of its endpoints
    assert act.edge_images == ((0, 1), (1, 0))
    assert act.vertex_orbits() == ((0, 2), (1,))
    assert act.edge_orbits() == ((0, 1),)
    assert act.vertex_stabilizer(1) == frozenset([0, 1])
    assert act.vertex_stabilizer(0) == frozenset([0])
    assert act.edge_stabilizer(0) == frozenset([0])


def test_tree_action_is_the_partial_action_queries():
    act = reflection_action()
    assert isinstance(act, PartialAction)
    assert act.fixed_vertices() == ("m",)
    assert act.blind_words() == ()
    for orbit in act.vertex_orbits():
        assert act.orbit_max_vertex_stabilizer(orbit) == max(
            len(act.vertex_stabilizer(v)) for v in orbit
        )
    assert act.orbit_max_vertex_stabilizer((1,)) == len(act.vertex_stabilizer(1))
    # each class defines its own collapse: the benchmark times them apart
    assert "collapse" in TreeAction.__dict__
    assert "collapse" in PartialAction.__dict__
    with pytest.raises(TypeError):
        act.vertex_maps[0] = (0, 1, 2)


def test_action_with_inversion_rejected():
    g = Graph(["u", "w"], [("uw", "u", "w")])
    with pytest.raises(TreeError) as err:
        TreeAction(g, z2(), {0: (0, 1), 1: (1, 0)})
    assert str(err.value) == "element 1 is not a tree automorphism at 'uw'"


def test_action_homomorphism_verified():
    g = Graph(
        ["c", "x", "y", "z"], [("ex", "x", "c"), ("ey", "y", "c"), ("ez", "z", "c")]
    )
    # the rotation of the three-leaf star is an automorphism, but s is an
    # involution and the rotation is not
    with pytest.raises(TreeError) as err:
        TreeAction(g, z2(), {0: (0, 1, 2, 3), 1: (0, 2, 3, 1)})
    assert str(err.value) == "vertex maps are not a homomorphism"


@pytest.mark.parametrize(
    "vertex_maps, why",
    [
        ({0: (0, 1, 2)}, "action must map every group element"),
        ({0: (0, 1, 2), 1: (2, 2, 0)}, "element 1 does not act bijectively"),
        ({0: (2, 1, 0), 1: (0, 1, 2)}, "identity does not act trivially on vertices"),
    ],
    ids=["missing-element", "not-bijective", "identity-moves"],
)
def test_tree_action_refusals(vertex_maps, why):
    with pytest.raises(TreeError) as err:
        TreeAction(path3(), z2(), vertex_maps)
    assert str(err.value) == why


def test_compressible_and_collapse():
    act = reflection_action()
    assert is_compressible(act, "l") and is_compressible(act, "r")
    assert str(size_polynomial(act)) == "-1 + t"
    reduced, log = collapse_compressible(act)
    assert reduced.graph.nv == 1 and len(log) == 1
    # |G\E| - |G\V| is collapse-invariant; the edge term goes with its orbit
    assert str(size_polynomial(reduced)) == "-1"
    assert maximal_stabilizers(reduced) == maximal_stabilizers(act)


def test_collapse_needs_closed_set():
    act = reflection_action()
    with pytest.raises(TreeError) as err:
        act.collapse(["l"])  # orbit mate r stays behind
    assert str(err.value) == "collapsed edge set is not closed under the action"


def test_induced_action_from_vertex_permutation():
    _g, system = k2_pair()
    t = paired_tree(system)
    act = induce_action(t, z2(), vertex_perms={"s": {"u": "w", "w": "u"}})
    assert len(act.vertex_orbits()) == 2
    assert len(act.edge_orbits()) == 1
    assert str(size_polynomial(act)) == "-1 + t"


def test_induced_action_from_cut_maps():
    _g, system = k2_pair()
    t = paired_tree(system)
    act = induce_action(t, z2(), vertex_perms={"s": {"u": "w", "w": "u"}})
    assert act.edge_images == ((0, 1), (1, 0))  # the swap induces the cut swap
    assert len(act.edge_orbits()) == 1
    # mapping s to the identity permutation is the (legal) trivial action
    triv = induce_action(t, z2(), vertex_perms={"s": {"u": "u", "w": "w"}})
    assert triv.edge_images[1] == (0, 1)
    assert len(triv.edge_orbits()) == 2


@pytest.mark.parametrize(
    "perm",
    [{"u": "w"}, {"u": "x", "w": "u"}, {"u": "u", "w": "u"}],
    ids=["misses-a-vertex", "leaves-the-universe", "not-injective"],
)
def test_induce_action_refuses_a_vertex_map_that_is_no_bijection(perm):
    _g, system = k2_pair()
    with pytest.raises(TreeError) as err:
        induce_action(paired_tree(system), z2(), vertex_perms={"s": perm})
    assert str(err.value) == (
        "vertex permutation for generator 's' is not a bijection of the "
        "universe vertices"
    )


def test_induce_action_refusals():
    _g, system = k2_pair()
    with pytest.raises(TreeError) as err:
        induce_action(paired_tree(system), z2(), vertex_perms={})
    assert str(err.value) == "missing vertex permutation for generator 's'"
    g = Graph(["a", "b", "c"], [("ab", "a", "b"), ("bc", "b", "c")])
    a = cut_from_members(g, ["a"], "A")
    tree = paired_tree(verify_system([a, a.complement()]))
    with pytest.raises(TreeError) as err:
        induce_action(tree, z2(), vertex_perms={"s": {"a": "c", "b": "b", "c": "a"}})
    assert str(err.value) == "family not closed under the action: image of 'A' escapes"


def _nested_families(n, mode, rng=None):
    """Member bits of every non-empty nested family of cuts of an n-point
    universe: complement-stable ones for mode "T"; for mode "U",
    complement-free ones, one side of each pair, in every orientation or,
    given rng, in one drawn orientation per family of pairs."""
    full = (1 << n) - 1
    sides = [b for b in range(1, full) if b < full ^ b]

    def nested(a, b):
        return not (a & b and a & (full ^ b) and b & (full ^ a) and full ^ (a | b))

    families = []

    def grow(start, chosen):
        for i in range(start, len(sides)):
            if all(nested(sides[i], c) for c in chosen):
                fam = chosen + [sides[i]]
                pairs = [(c, full ^ c) for c in fam]
                if mode == "T":
                    families.append([b for pair in pairs for b in pair])
                elif rng is None:
                    families.extend(list(f) for f in itertools.product(*pairs))
                else:
                    families.append([rng.choice(pair) for pair in pairs])
                grow(i + 1, fam)

    grow(0, [])
    return families


@pytest.mark.parametrize(
    "mode, n, sample, closed, tried",
    [
        ("T", 4, False, 240, 1512),
        ("T", 5, False, 3480, 99720),
        ("U", 4, False, 1200, 13584),
        ("U", 5, True, 2397, 99720),  # every orientation would be 2361840 tries
    ],
    ids=["paired-4", "paired-5", "unpaired-4", "unpaired-5-sampled"],
)
def test_cut_maps_of_a_bijection_always_move_the_tree(mode, n, sample, closed, tried):
    """induce_action needs no refusal for disagreeing incidence pairs: on
    every nested family, paired or unpaired, under every permutation of the
    universe that keeps it closed, the pairs agree and send each vertex to
    the vertex of its image label."""
    from cutforge.trees import _agreeing_map, _incidence_pairs

    rng = random.Random(0)
    g = Graph(["p%d" % i for i in range(n)], [])
    perms = [
        [sum(1 << p[i] for i in range(n) if bits >> i & 1) for bits in range(1 << n)]
        for p in itertools.permutations(range(n))
    ]
    build = paired_tree if mode == "T" else unpaired_tree
    counts = [0, 0]
    for fam in _nested_families(n, mode, rng if sample else None):
        rng.shuffle(fam)  # the cut order sets the edge order of the tree
        system = verify_system([Cut(g, b, "c%d" % b) for b in fam])
        t = build(system)
        labels = [index_set(lab) for lab in t.labels]
        vertex_of = {lab: v for v, lab in enumerate(labels)}
        for image in perms:
            counts[1] += 1
            if any(image[b] not in system.bits_index for b in fam):
                continue
            amap = [system.bits_index[image[b]] for b in fam]
            expected = tuple(
                vertex_of[frozenset(amap[d] for d in lab)] for lab in labels
            )
            pairs = _incidence_pairs(t.graph, amap)
            assert _agreeing_map(t.graph.nv, pairs) == expected
            counts[0] += 1
    assert counts == [closed, tried]


def test_induced_action_on_an_unpaired_tree():
    g = Graph(["a", "b", "c"], [("ab", "a", "b"), ("bc", "b", "c")])
    system = verify_system(
        [cut_from_members(g, ["a"], "A"), cut_from_members(g, ["c"], "C")]
    )
    act = induce_action(
        unpaired_tree(system), z2(), vertex_perms={"s": {"a": "c", "b": "b", "c": "a"}}
    )
    assert act.vertex_maps == {0: (0, 1, 2), 1: (2, 1, 0)}
    assert act.edge_images == ((0, 1), (1, 0))


def cycle_singleton_tree(n):
    """Paired tree of the n singleton cuts of the n-cycle v0..v(n-1) and
    their complements: 2n + 1 vertices, 2n edges."""
    g = Graph(
        ["v%d" % i for i in range(n)],
        [("e%d" % i, "v%d" % i, "v%d" % ((i + 1) % n)) for i in range(n)],
    )
    cuts = []
    for i in range(n):
        a = Cut(g, 1 << i, "A%d" % i)
        cuts += [a, a.complement()]
    return paired_tree(verify_system(cuts))


def _vertex_perm(perm):
    return {"v%d" % i: "v%d" % (img,) for i, img in enumerate(perm)}


def test_induced_action_of_a_rotation_group():
    # Z/4 by a generator of order 4: the search takes the inverse letter
    z4 = TableOracle(
        [str(i) for i in range(4)],
        [[(a + b) % 4 for b in range(4)] for a in range(4)],
        ["1"],
    )
    act = induce_action(
        cycle_singleton_tree(4), z4, vertex_perms={"1": _vertex_perm((1, 2, 3, 0))}
    )
    assert act.vertex_orbits() == ((0, 3, 5, 7), (1, 4, 6, 8), (2,))
    assert act.edge_orbits() == ((0, 2, 4, 6), (1, 3, 5, 7))


def test_induced_action_of_s4():
    r, s = (1, 2, 3, 0), (1, 0, 2, 3)
    o = PermOracle(4, [r, s], ["r", "s"])
    act = induce_action(
        cycle_singleton_tree(4),
        o,
        vertex_perms={"r": _vertex_perm(r), "s": _vertex_perm(s)},
    )
    assert len(act.words) == 24
    assert str(size_polynomial(act)) == "-1 + 2 t^6"


def _enumerated_subgroups(oracle):
    """Every subgroup, grown by closure from the trivial one: the exhaustive
    reference that maximal_stabilizers replaces."""
    els = tuple(oracle.elements())

    def close(seed):
        out = set(seed) | {oracle.identity()}
        frontier = list(out)
        while frontier:
            nxt = []
            for a in frontier:
                for b in tuple(out):
                    for c in (oracle.multiply(a, b), oracle.multiply(b, a)):
                        if c not in out:
                            out.add(c)
                            nxt.append(c)
            frontier = nxt
        return frozenset(out)

    triv = frozenset((oracle.identity(),))
    found, queue = {triv}, [triv]
    while queue:
        h = queue.pop()
        for x in els:
            if x not in h:
                h2 = close(h | {x})
                if h2 not in found:
                    found.add(h2)
                    queue.append(h2)
    return found


def _cycle_action(degree, gens):
    o = PermOracle(degree, gens, ["g%d" % i for i in range(len(gens))])
    perms = {"g%d" % i: _vertex_perm(p) for i, p in enumerate(gens)}
    return induce_action(cycle_singleton_tree(degree), o, vertex_perms=perms)


SMALL_PERM_GROUPS = {
    "Z2": (3, [(1, 0, 2)]),
    "Z3": (3, [(1, 2, 0)]),
    "S3": (3, [(1, 2, 0), (1, 0, 2)]),
    "Z4": (4, [(1, 2, 3, 0)]),
    "V4": (4, [(1, 0, 3, 2), (2, 3, 0, 1)]),
    "D4": (4, [(1, 2, 3, 0), (3, 2, 1, 0)]),
    "A4": (4, [(1, 2, 0, 3), (1, 0, 3, 2)]),
}


@pytest.mark.parametrize("name", sorted(SMALL_PERM_GROUPS))
def test_maximal_stabilizers_give_the_substabilizers(name):
    act = _cycle_action(*SMALL_PERM_GROUPS[name])
    subs = _enumerated_subgroups(act.oracle)
    reduced, log = collapse_compressible(act)
    assert log and reduced.graph.nv == 1
    for a in (act, reduced):
        stabs = [a.vertex_stabilizer(v) for v in range(a.graph.nv)]
        substabs = {h for h in subs if any(h <= st for st in stabs)}
        maxes = maximal_stabilizers(a)
        assert {h for h in subs if any(h <= m for m in maxes)} == substabs
        # Serre I.4.3: a finite group acting on a finite tree fixes a vertex
        assert maxes == {frozenset(a.elements())}


S5 = (5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])


def test_s5_collapses_with_the_substabilizer_check():
    act = _cycle_action(*S5)
    assert len(act.words) == 120
    reduced, log = collapse_compressible(act)
    assert len(log) == 2 and reduced.graph.nv == 1
    assert maximal_stabilizers(reduced) == {frozenset(act.elements())}


def test_induced_action_on_an_edgeless_tree_fixes_its_vertex():
    t = paired_tree(verify_system([]))
    act = induce_action(t, z2(), vertex_perms={"s": {}})
    assert act.vertex_maps == {0: (0,), 1: (0,)}
    assert act.vertex_orbits() == ((0,),)


def test_blow_up_path_fiber():
    act = reflection_action()
    fiber = Graph(["x", "c", "y"], [("f1", "x", "c"), ("f2", "y", "c")])
    big = blow_up(act, {"m": (fiber, {1: {"x": "y", "y": "x", "c": "c"}})})
    assert big.graph.nv == 5 and big.graph.ne == 4
    # each representative side attaches at the first fiber vertex, x
    assert big.graph.edges == (
        ("m|f1", "m|x", "m|c"),
        ("m|f2", "m|y", "m|c"),
        ("l", "a|*", "m|x"),
        ("r", "b|*", "m|y"),
    )
    assert maximal_stabilizers(big) == maximal_stabilizers(act)
    reduced, log = collapse_compressible(big)
    assert reduced.graph.nv == 1 and len(log) == 2
    assert str(size_polynomial(reduced)) == "-1"


@pytest.mark.parametrize("name", sorted(SMALL_PERM_GROUPS) + ["S5"])
def test_blow_up_without_fibers_keeps_the_vertex_maps(name):
    act = _cycle_action(*(S5 if name == "S5" else SMALL_PERM_GROUPS[name]))
    once = blow_up(act, {})
    # a blown-up action blows up again: ids are only names, never parsed
    assert once.vertex_maps == blow_up(once, {}).vertex_maps == act.vertex_maps


def test_blow_up_of_a_blow_up():
    act = reflection_action()
    fiber = Graph(["x", "c", "y"], [("f1", "x", "c"), ("f2", "y", "c")])
    big = blow_up(act, {"m": (fiber, {1: {"x": "y", "y": "x", "c": "c"}})})
    again = blow_up(big, {})
    assert again.graph.vertices == ("a|*|*", "m|x|*", "m|c|*", "m|y|*", "b|*|*")
    assert again.graph.edges == (
        ("m|f1", "m|x|*", "m|c|*"),
        ("m|f2", "m|y|*", "m|c|*"),
        ("l", "a|*|*", "m|x|*"),
        ("r", "b|*|*", "m|y|*"),
    )
    assert again.vertex_maps == big.vertex_maps


def test_blow_up_of_a_base_with_bars_in_its_ids():
    g = Graph(["a|0", "m|0", "b|0"], [("l", "a|0", "m|0"), ("r", "b|0", "m|0")])
    act = TreeAction(g, z2(), {0: (0, 1, 2), 1: (2, 1, 0)})
    fiber = Graph(["x", "c", "y"], [("f1", "x", "c"), ("f2", "y", "c")])
    big = blow_up(act, {"m|0": (fiber, {1: {"x": "y", "y": "x", "c": "c"}})})
    assert big.graph.edges == (
        ("m|0|f1", "m|0|x", "m|0|c"),
        ("m|0|f2", "m|0|y", "m|0|c"),
        ("l", "a|0|*", "m|0|x"),
        ("r", "b|0|*", "m|0|y"),
    )
    assert maximal_stabilizers(big) == maximal_stabilizers(act)


def _fixed_edge_action():
    """Z/2 acting trivially on the edge l: a -> m."""
    g = Graph(["a", "m"], [("l", "a", "m")])
    return TreeAction(g, z2(), {0: (0, 1), 1: (0, 1)})


def test_blow_up_attaches_at_a_vertex_the_edge_stabilizer_fixes():
    fiber = Graph(["x", "c", "y"], [("f1", "x", "c"), ("f2", "y", "c")])
    big = blow_up(
        _fixed_edge_action(), {"m": (fiber, {1: {"x": "y", "y": "x", "c": "c"}})}
    )
    # s swaps x and y, so the first fiber vertex that s fixes is c
    assert big.graph.edges[-1] == ("l", "a|*", "m|c")
    assert big.vertex_maps[1] == (0, 3, 2, 1)


def test_blow_up_refuses_a_fiber_whose_action_inverts_an_edge():
    fiber = Graph(["x", "y"], [("f", "x", "y")])
    with pytest.raises(TreeError) as exc:
        blow_up(_fixed_edge_action(), {"m": (fiber, {1: {"x": "y", "y": "x"}})})
    assert str(exc.value) == (
        "no vertex of the fiber of 'm' is fixed by the stabilizer of edge 'l'"
    )


def test_blow_up_refuses_two_points_with_one_id():
    g = Graph(["a", "a|b"], [("l", "a", "a|b")])
    act = TreeAction(g, z2(), {0: (0, 1), 1: (0, 1)})
    fibers = {
        "a": (Graph(["b|c"], []), {1: {"b|c": "b|c"}}),
        "a|b": (Graph(["c"], []), {1: {"c": "c"}}),
    }
    with pytest.raises(TreeError) as exc:
        blow_up(act, fibers)
    assert str(exc.value) == (
        "blown-up vertex id 'a|b|c' names two points: fiber vertex 'b|c' of "
        "'a' and fiber vertex 'c' of 'a|b'"
    )


def test_blow_up_refuses_two_fiber_edges_with_one_id():
    g = Graph(["a", "a|b"], [("l", "a", "a|b")])
    act = TreeAction(g, z2(), {0: (0, 1), 1: (0, 1)})
    fixed = {1: {"x": "x", "y": "y"}}
    fibers = {
        "a": (Graph(["x", "y"], [("b|f", "x", "y")]), fixed),
        "a|b": (Graph(["x", "y"], [("f", "x", "y")]), fixed),
    }
    with pytest.raises(TreeError) as exc:
        blow_up(act, fibers)
    assert str(exc.value) == (
        "blown-up edge id 'a|b|f' names two edges: fiber edge 'b|f' of 'a' "
        "and fiber edge 'f' of 'a|b'"
    )


def test_blow_up_refuses_a_base_edge_and_a_fiber_edge_with_one_id():
    g = Graph(["a", "b"], [("a|f", "a", "b")])
    act = TreeAction(g, z2(), {0: (0, 1), 1: (0, 1)})
    fibers = {"a": (Graph(["x", "y"], [("f", "x", "y")]), {1: {"x": "x", "y": "y"}})}
    with pytest.raises(TreeError) as exc:
        blow_up(act, fibers)
    assert str(exc.value) == (
        "blown-up edge id 'a|f' names two edges: fiber edge 'f' of 'a' and "
        "base edge 'a|f'"
    )


PATH_FIBER = Graph(["x", "c", "y"], [("f1", "x", "c"), ("f2", "y", "c")])


@pytest.mark.parametrize(
    "fibers, why",
    [
        ({"q": (PATH_FIBER, {})}, "fiber given for 'q', which is not a tree vertex"),
        (
            {"b": (PATH_FIBER, {})},
            "fiber must be assigned to the orbit representative 'a'",
        ),
        ({"m": (Graph(["x", "y"], []), {})}, "fiber of 'm' is not a tree"),
        (
            {"m": (PATH_FIBER, {})},
            "fiber action of 'm' is missing stabilizer element 1",
        ),
        (
            {"m": (PATH_FIBER, {1: {"x": "x", "y": "x", "c": "c"}})},
            "fiber action of 'm' is not a permutation",
        ),
        (
            {"m": (PATH_FIBER, {1: {"x": "c", "c": "x", "y": "y"}})},
            "element 1 is not a tree automorphism at 'm|f1'",
        ),
    ],
    ids=[
        "unknown-vertex",
        "not-a-representative",
        "not-a-tree",
        "missing-element",
        "not-a-permutation",
        "not-an-automorphism",
    ],
)
def test_blow_up_refuses_a_bad_fiber(fibers, why):
    with pytest.raises(TreeError) as err:
        blow_up(reflection_action(), fibers)
    assert str(err.value) == why


def test_size_polynomial_str():
    assert str(SizePolynomial(-1, ())) == "-1"
    assert str(SizePolynomial(0, ((2, 3),))) == "0 + 3 t^2"
    assert str(SizePolynomial(-1, ((1, 1), (2, 1)))) == "-1 + t + t^2"


def z_partial():
    bv = ball(ZdOracle(1), 6)
    o = bv.oracle
    members = [
        bv.graph.vertices[i] for i, el in enumerate(bv.elements) if el[0] <= 0
    ]
    half = cut_from_members(bv, members, "A")
    wl = o.words_up_to(2)
    sel = select_nested_generating(orbit_cuts(bv, half, wl).cuts, action=wl)
    stree = paired_tree(sel.system)
    return stree, build_partial_action(stree, wl, sel.images)


def test_partial_action_on_z_tree():
    stree, pa = z_partial()
    assert stree.graph.nv == 11 and stree.graph.ne == 10
    assert pa.edge_orbits() == ((0, 2, 4, 6, 8), (1, 3, 5, 7, 9))
    assert len(pa.vertex_orbits()) == 2
    assert pa.fixed_vertices() == ()
    assert pa.orbit_max_edge_stabilizer(pa.edge_orbits()[0]) == 1


def test_partial_collapse_stages():
    stree, pa = z_partial()
    g = stree.graph
    first = [g.edges[k][0] for k in pa.edge_orbits()[0]]
    c1 = pa.collapse(first)
    assert c1.graph.nv == 6 and c1.fixed_vertices() == ()
    both = first + [g.edges[k][0] for k in pa.edge_orbits()[1]]
    c2 = pa.collapse(both)
    assert c2.graph.nv == 1 and c2.fixed_vertices() == ("n0",)
    with pytest.raises(TreeError):
        pa.collapse(first[:2])  # not closed under the word maps


def test_partial_collapse_drops_a_contradicted_word():
    # on the path x - y - z, word "s" sends x to x but y to z: once x and y
    # are one block, that block has two images, so "s" gives no evidence
    g = Graph(["x", "y", "z"], [("e0", "x", "y"), ("e1", "y", "z")])
    words = [(0, ""), (1, "s"), (2, "t")]
    pa = PartialAction(
        g,
        words,
        (1, 2),
        [(0, 1, 2), (0, 2, 2), (2, None, None)],
    )
    assert pa.blind_words() == ()
    c = pa.collapse(["e0"])
    assert c.graph.vertices == ("x", "z")
    assert c.vertex_images == ((0, 1), (None, None), (1, None))
    assert c.edge_images == ((0,), (None,), (None,))
    assert c.blind_words() == ("s",)
    assert c.fixed_vertices() == ()
    assert c.vertex_orbits() == ((0, 1),)


def test_partial_action_needs_an_edge_image_row_per_word_and_cut():
    bv = ball(ZdOracle(1), 6)
    members = [
        bv.graph.vertices[i] for i, el in enumerate(bv.elements) if el[0] <= 0
    ]
    half = cut_from_members(bv, members, "A")
    wl = bv.oracle.words_up_to(1)
    sel = select_nested_generating(orbit_cuts(bv, half, wl).cuts, action=wl)
    stree = paired_tree(sel.system)
    with pytest.raises(TreeError):
        build_partial_action(stree, wl, sel.images[:-1])
    with pytest.raises(TreeError):
        build_partial_action(stree, wl, [row[:-1] for row in sel.images])


def test_partial_action_drops_words_whose_edges_disagree():
    # Z/3 * Z/4 at word bound 1: the kept system is not closed under b and
    # b^-1, whose cut images do not move the tree consistently
    o = FreeProductOracle([3, 4])
    wl = o.words_up_to(1)
    cut = balanced_cut(o)
    sel = select_nested_generating(orbit_cuts(cut.universe, cut, wl).cuts, action=wl)
    stree = paired_tree(sel.system)
    pa = build_partial_action(stree, wl, sel.images)
    g = stree.graph
    assert [w for _el, w in wl] == ["", "a", "a^-1", "b", "b^-1"]
    assert pa.blind_words() == ("b", "b^-1")
    for i in (3, 4):
        assert set(pa.vertex_images[i]) == {None}
        assert set(pa.edge_images[i]) == {None}
    assert pa.vertex_images[0] == tuple(range(g.nv))
    assert pa.edge_images[0] == tuple(range(g.ne))


# the selection-image cells, fp(4,4) at W = 2, and the refed kept cuts
EVIDENCE_CELLS = [(spec, w, None) for spec, w in IMAGE_CELLS] + [
    ({"kind": "free_product", "orders": [4, 4]}, 2, None),
    ({"kind": "free_product", "orders": [3, 3]}, 1, "fp33_c2.json"),
    ({"kind": "free_product", "orders": [3, 4]}, 1, "fp34_c0.json"),
    ({"kind": "free_product", "orders": [3, 4]}, 1, "fp34_c2.json"),
]


@pytest.mark.parametrize("spec, words, fixture", EVIDENCE_CELLS)
def test_derived_edge_images_equal_the_evidence(monkeypatch, spec, words, fixture):
    """A partial action reads its edge images off its vertex maps.  Over
    the pipeline they equal the evidence: the selection's cut images for
    every word that is not blind and, at every stage collapse, the parent's
    edge images pushed through the positions of the kept edges (all None
    for a word that the collapse blinds)."""
    built, collapses = [], []
    build, collapse = trees.build_partial_action, PartialAction.collapse

    def record_build(stree, wl, images):
        pa = build(stree, wl, images)
        built.append((wl, images, pa))
        return pa

    def record_collapse(self, edge_ids):
        out = collapse(self, edge_ids)
        collapses.append((self, edge_ids, out))
        return out

    monkeypatch.setattr(trees, "build_partial_action", record_build)
    monkeypatch.setattr(PartialAction, "collapse", record_collapse)
    oracle = make_oracle(spec)
    cut = None
    if fixture is not None:
        data = json.loads((DATA / fixture).read_text())
        cut = cli._cut_from_dict(ball(oracle, 6), data)
    splitting_pipeline(oracle, cut=cut, words=words)

    ((wl, images, pa),) = built
    blind = set(pa.blind_words())
    assert len(blind) < len(wl)
    for (_el, w), got, given in zip(wl, pa.edge_images, images):
        if w not in blind:
            assert got == tuple(given)
    assert collapses
    for parent, edge_ids, out in collapses:
        g = parent.graph
        gone = {g.eindex[e] for e in edge_ids}
        kept = [k for k in range(g.ne) if k not in gone]
        pos = {k: p for p, k in enumerate(kept)}
        for em, vm, got in zip(parent.edge_images, out.vertex_images, out.edge_images):
            if vm.count(None) == len(vm):
                assert got == (None,) * len(kept)
            else:
                assert got == tuple(pos.get(em[k]) for k in kept)
