import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from cutforge.cuts import (
    AtomPieces,
    Cut,
    CutAlgebra,
    CutError,
    act_left_cut,
    act_left_mask,
    boolean_closure,
    cut_from_members,
    full_mask,
    nested_report,
    orbit_cuts,
    refine,
)
from cutforge.ends import balanced_cut
from cutforge.graphs import Graph
from cutforge.groups import ZdOracle, ball, make_oracle
import cutforge.series as series_mod
import cutforge.sieve as sieve_mod
from cutforge.series import atom_pair_prefix, atom_pair_table, certified_length
from cutforge.sieve import (
    MAX_LISTED_ATOMS,
    SieveElement,
    SieveError,
    _cut_weight_buckets,
    _is_union,
    _paired_cuts,
    _series_by_mask,
    classify,
    full_series,
    irreducible_family,
    select_nested_generating,
)


def _verdicts(series, a):
    """The eager sieve: masks in (series, mask) order, and the status of
    every mask.  Elements are visited by increasing measure, one tie group
    at a time; `blocks` is the atom partition generated by every strictly
    smaller group, so a mask is reducible exactly when it is a union of
    blocks.  The reference for classify, which visits only the masks up to
    the point where the blocks are atoms."""
    full = (1 << a) - 1
    order = sorted(range(1 << a), key=lambda m: (series[m], m))
    status = [None] * (1 << a)
    blocks = [full] if full else []
    for _s, group in itertools.groupby(order, key=series.__getitem__):
        group = list(group)
        for m in group:
            status[m] = "reducible" if _is_union(m, blocks) else "irreducible"
        blocks = refine(blocks, group)
    return order, status


def _eager(rep):
    """The report read over every mask: the status of each, from the
    irreducible record, and each prefix series, summed over all 2^a masks
    from the atom-pair prefix that classify decides on."""
    algebra = rep.algebra
    a = algebra.n_atoms
    irr = {el.mask for el in rep.irreducible}
    status = ["irreducible" if m in irr else "reducible" for m in range(1 << a)]
    table = atom_pair_prefix(algebra.universe, algebra.atoms)
    return status, _series_by_mask(table, a, len(table) - 1)


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


def p4():
    return Graph(
        ["a", "b", "c", "d"],
        [("e0", "a", "b"), ("e1", "b", "c"), ("e2", "c", "d")],
    )


def test_power_set_of_k2():
    g = k2()
    rep = classify(boolean_closure([cut_from_members(g, ["u"], "A")]))
    assert rep.undecided_count == 0
    assert sorted(el.bits for el in rep.irreducible) == [0b01, 0b10]
    # the trivial elements are classified reducible
    algebra = rep.algebra
    status, _series = _eager(rep)
    statuses = {algebra.element_bits(m): s for m, s in zip(rep.elements, status)}
    assert statuses[0] == "reducible"
    assert statuses[full_mask(g)] == "reducible"


def test_trivial_algebra_has_no_irreducibles():
    g = k2()
    rep = classify(CutAlgebra(g, (full_mask(g),)))
    assert rep.irreducible == ()
    assert len(rep.elements) == 2


def test_crossing_pair_on_cycle():
    g = c4()
    A = cut_from_members(g, ["v1", "v2"], "A")
    B = cut_from_members(g, ["v2", "v3"], "B")
    rep = classify(boolean_closure([A, B]))
    assert rep.undecided_count == 0
    assert [el.mask for el in rep.irreducible] == [1, 2, 4, 7, 8, 11, 13, 14]
    irr = [Cut(g, el.bits) for el in rep.irreducible]
    for i in range(len(irr)):
        for j in range(i + 1, len(irr)):
            assert nested_report(irr[i], irr[j]).nested
    assert rep.complement_stable and rep.nested and rep.generates


def test_single_cut_family():
    g = k2()
    a = cut_from_members(g, ["u"], "A")
    rep, paired = irreducible_family([a])
    assert len(paired) == 2
    assert {c.bits for c in paired} == {a.bits, a.complement().bits}
    assert len(rep.elements) == 1 << rep.algebra.n_atoms == 4


def test_nested_chain_family():
    g = p4()
    A1 = cut_from_members(g, ["a"], "A1")
    A2 = cut_from_members(g, ["a", "b"], "A2")
    rep, paired = irreducible_family([A1, A2])
    assert len(rep.irreducible) == 4
    assert len(rep.elements) == 1 << rep.algebra.n_atoms == 8
    assert [c.name for c in paired] == ["c0", "~c0", "c1", "~c1"]


def test_empty_family_needs_a_universe():
    with pytest.raises(CutError):
        irreducible_family([])


def test_selection_single_cut_forced():
    g = k2()
    sel = select_nested_generating([cut_from_members(g, ["u"], "A")])
    assert len(sel.kept) == 2 and sel.removed == ()
    assert sel.system.valid


def test_selection_fixed_point_on_nested_family():
    g = p4()
    cuts = [
        cut_from_members(g, ["a"], "A1"),
        cut_from_members(g, ["a", "b"], "A2"),
    ]
    sel = select_nested_generating(cuts)
    assert len(sel.kept) == 4 and sel.removed == ()


def test_selection_on_z_orbit():
    bv = ball(ZdOracle(1), 6)
    o = bv.oracle
    members = [
        bv.graph.vertices[i] for i, el in enumerate(bv.elements) if el[0] <= 0
    ]
    half = cut_from_members(bv, members, "A")
    wl = [(o.identity(), ""), ((1,), "x"), ((-1,), "x^-1")]
    orb = orbit_cuts(bv, half, wl)
    sel = select_nested_generating(orb.cuts, action=wl)
    # three half-lines and their complements survive as a nested chain
    assert len(sel.kept) == 6 and sel.removed == ()
    assert sel.system.valid


def test_ball_window_classification():
    bv = ball(ZdOracle(1), 6)
    members = [
        bv.graph.vertices[i] for i, el in enumerate(bv.elements) if el[0] <= 0
    ]
    half = cut_from_members(bv, members, "A")
    algebra = boolean_closure([half])
    rep = classify(algebra)
    assert rep.undecided_count == 0
    # the window series that `sieve` prints at L = 16 give the same verdicts
    # as the certified ones
    a = algebra.n_atoms
    window = _verdicts(full_series(rep, 16), a)
    certified = _verdicts(full_series(rep, certified_length(bv)), a)
    assert window == certified
    assert window[1] == _eager(rep)[0]


def _random_algebra(rng):
    nv = rng.randint(2, 9)
    names = ["v%d" % i for i in range(nv)]
    edges = [("t%d" % i, names[rng.randrange(i)], names[i]) for i in range(1, nv)]
    edges += [
        ("x%d" % i, rng.choice(names), rng.choice(names))
        for i in range(rng.randint(0, nv))
    ]
    g = Graph(names, edges)
    cuts = [Cut(g, rng.getrandbits(nv)) for _ in range(rng.randint(1, 3))]
    return boolean_closure(cuts)


def _orbit_algebra(spec, radius=6, words=2):
    cut = balanced_cut(make_oracle(spec), radius)
    wl = cut.universe.oracle.words_up_to(words)
    return boolean_closure(list(orbit_cuts(cut.universe, cut, wl).cuts))


ORBITS = ({"kind": "zd", "d": 1}, {"kind": "free_product", "orders": [2, 2]})


@pytest.mark.parametrize("seed", range(6))
def test_prefix_verdicts_equal_full_length_verdicts(seed):
    """classify sorts on the degree-k prefix, k the number of blocks of the
    atoms' equitable partition; every verdict must be the one the full
    length-L series give, counted here by a plain per-vertex walk, at
    L = 4|V| + 1, at |V| and at a random L in (|V|, 4|V|], so no length
    changes a verdict.  This is the seeded witness on random multigraphs."""
    rng = random.Random("sieve-prefix-%d" % seed)
    algebras = [_random_algebra(rng) for _ in range(12)]
    algebras += [_orbit_algebra(spec) for spec in ORBITS]
    for algebra in algebras:
        n = algebra.universe.nv
        a = algebra.n_atoms
        rep = classify(algebra)
        got_status, got_series = _eager(rep)
        for L in (certified_length(algebra.universe), n, rng.randrange(n + 1, 4 * n + 1)):
            full = _series_by_mask(_walk_table(algebra, L), a, L)
            order, status = _verdicts(full, a)
            assert full_series(rep, L) == full
            assert got_status == status
            assert [el.mask for el in rep.irreducible] == [
                m for m in order if status[m] == "irreducible"
            ]
            assert rep.undecided_count == 0
            prefix = sorted(range(1 << a), key=lambda m: (got_series[m], m))
            assert prefix == order


def _path_algebra(n_atoms):
    """Singleton cuts of all but the last two vertices of a path on
    n_atoms + 1 vertices: n_atoms atoms."""
    g = Graph(["v%d" % i for i in range(n_atoms + 1)],
              [("e%d" % i, "v%d" % i, "v%d" % (i + 1)) for i in range(n_atoms)])
    return boolean_closure([cut_from_members(g, ["v%d" % i]) for i in range(n_atoms - 1)])


def _assert_like_the_eager_sieve(algebra):
    """Every status, the irreducible order and the three flags of classify
    equal those of the eager sieve over all 2^a masks of the prefix series;
    the series are summed by `_series_by_mask`, so no listing cap applies."""
    rep = classify(algebra)
    a = algebra.n_atoms
    got_status, series = _eager(rep)
    order, status = _verdicts(series, a)
    full = (1 << a) - 1
    assert rep.elements == range(1 << a)
    assert got_status == status
    irr = [m for m in order if status[m] == "irreducible"]
    assert [el.mask for el in rep.irreducible] == irr
    assert rep.irreducible == tuple(
        SieveElement(m, algebra.element_bits(m), series[m]) for m in irr)
    assert rep.undecided_count == 0
    assert rep.complement_stable == all(status[m] == status[full ^ m] for m in range(1 << a))
    cuts = [Cut(algebra.universe, algebra.element_bits(m)) for m in irr]
    assert rep.nested == all(nested_report(x, y).nested for x, y in itertools.combinations(cuts, 2))
    assert rep.generates == all(b.bit_count() == 1 for b in refine([full], irr) if full)
    return rep


def test_a_13_atom_path_algebra_is_classified_like_the_eager_sieve():
    algebra = _path_algebra(13)
    assert algebra.n_atoms == 13 > MAX_LISTED_ATOMS
    rep = _assert_like_the_eager_sieve(algebra)
    assert rep.complement_stable and rep.nested and rep.generates
    # the twelve prefixes of the path that the algebra holds, and their
    # complements: one crossing edge each, so all in the c_1 = 1 bucket
    assert len(rep.irreducible) == 24
    assert {el.series[1] for el in rep.irreducible} == {1}


def test_listing_every_element_above_the_cap_is_refused():
    """full_series lists 2^a series: above MAX_LISTED_ATOMS it refuses,
    naming the stage, the cap and the remedy.  At the cap it still lists."""
    message = (
        r"^measure sieve: algebra has 13 atoms; listing all 2\^13 elements is "
        r"capped at MAX_LISTED_ATOMS = 12; pass fewer cuts \(for sieve, drop "
        r"--json\)$"
    )
    rep = classify(_path_algebra(13))
    with pytest.raises(SieveError, match=message):
        full_series(rep, 3)
    rep = classify(_path_algebra(12))
    series = _eager(rep)[1]
    assert series == full_series(rep, len(series[0]) - 1)


@pytest.mark.parametrize("a", [62, 63, 64])
def test_element_count_and_lookups_need_no_len_from_63_atoms(a):
    """len() must fit a Py_ssize_t, so it refuses 2^63 and more.  The report
    counts its elements as an int, and its elements, the range of masks,
    check their bounds against that count."""
    rep = classify(_path_algebra(a))
    assert rep.element_count == 1 << a
    assert rep.elements == range(rep.element_count)
    if a >= 63:
        with pytest.raises(OverflowError):
            len(rep.elements)
    top = (1 << a) - 1
    assert rep.elements[top] == rep.elements[-1] == top
    assert top not in {el.mask for el in rep.irreducible}  # the whole universe
    table = atom_pair_prefix(rep.algebra.universe, rep.algebra.atoms)
    zero = (0,) * len(table)
    assert sieve_mod._union_series(sieve_mod._lanes(table), a, top, zero) == zero
    assert rep.irreducible[0].mask in rep.elements
    with pytest.raises(IndexError):
        rep.elements[1 << a]
    with pytest.raises(IndexError):
        rep.elements[-2 - top]


def test_the_report_is_a_plain_record():
    """classify keeps the irreducible elements and nothing lazy: an element
    is its mask, bits and prefix series, and the report's elements are the
    range of masks."""
    assert [f.name for f in dataclasses.fields(SieveElement)] == ["mask", "bits", "series"]
    rep = classify(_path_algebra(5))
    assert type(rep.elements) is range
    assert rep.elements == range(rep.element_count) == range(1 << 5)


def _symmetric_algebras():
    """Tie-heavy algebras: graphs with large automorphism groups cut into
    singleton atoms, or into a few orbit-shaped cuts, so that many unions
    share one series."""
    def graph(n, pairs):
        return Graph(["v%d" % i for i in range(n)],
                     [("e%d" % k, "v%d" % s, "v%d" % d) for k, (s, d) in enumerate(pairs)])

    cycle = graph(8, [(i, (i + 1) % 8) for i in range(8)])
    k5 = graph(5, list(itertools.combinations(range(5), 2)))
    cube = graph(8, [(i, i ^ (1 << b)) for i in range(8) for b in range(3) if i < i ^ (1 << b)])
    star = graph(7, [(0, i) for i in range(1, 7)])
    grid = graph(9, [(r * 3 + c, r * 3 + c + 1) for r in range(3) for c in range(2)]
                 + [(r * 3 + c, r * 3 + c + 3) for r in range(2) for c in range(3)])
    out = []
    for g in (cycle, k5, cube, star, grid):
        out.append(CutAlgebra(g, [1 << v for v in range(g.nv)]))
    out.append(boolean_closure([Cut(cycle, 0b00001111), Cut(cycle, 0b00111100),
                                Cut(cycle, 0b11110000)]))
    out.append(boolean_closure([Cut(cube, 0b00001111), Cut(cube, 0b00110011),
                                Cut(cube, 0b01010101)]))
    out.append(boolean_closure([Cut(grid, 0b000010000), Cut(grid, 0b101000101)]))
    return out


@pytest.mark.parametrize("seed", range(6))
def test_lazy_sieve_equals_the_eager_sieve(seed):
    """classify visits masks by c_1 bucket and stops once the blocks are
    atoms; the eager sieve sorts all 2^a masks.  Every status, the
    irreducible order and the flags agree, on seeded random multigraphs,
    on tie-heavy symmetric algebras and on ball orbits."""
    rng = random.Random("sieve-lazy-%d" % seed)
    algebras = [_random_algebra(rng) for _ in range(20)]
    algebras += _symmetric_algebras()[seed::6]
    algebras += [_orbit_algebra(spec) for spec in ORBITS]
    for algebra in algebras:
        _assert_like_the_eager_sieve(algebra)


def _cut_weight(weights, m):
    a = len(weights)
    return sum(weights[i][j] for i in range(a) for j in range(a)
               if (m >> i) & 1 and not (m >> j) & 1)


@pytest.mark.parametrize("seed", range(6))
def test_cut_weight_buckets_come_lightest_first(seed):
    """On random symmetric weight tables (zeros, so some quotients are
    disconnected, and a diagonal that must not count) the buckets hold every
    mask once, each bucket is exactly the masks of one cut weight, and the
    weights strictly increase: the brute-force grouping of all 2^a masks
    sorted by weight."""
    rng = random.Random("sieve-buckets-%d" % seed)
    for _ in range(15):
        a = rng.randint(1, 9)
        weights = [[0] * a for _ in range(a)]
        for i in range(a):
            weights[i][i] = rng.randrange(5)
            for j in range(i):
                weights[i][j] = weights[j][i] = rng.choice((0, 0, 1, 1, 2, 3, 7))
        got = [sorted(bucket) for bucket in _cut_weight_buckets(weights)]
        by_weight = {}
        for m in range(1 << a):
            by_weight.setdefault(_cut_weight(weights, m), []).append(m)
        assert got == [by_weight[w] for w in sorted(by_weight)]


def _fp(*orders):
    return {"kind": "free_product", "orders": list(orders)}


def _adjacency(u):
    """Neighbour lists of the universe, one entry per dart."""
    adj = [[] for _ in range(u.nv)]
    for s, d in u.index_edges:
        adj[s].append(d)
        adj[d].append(s)
    return adj


def _walk_table(algebra, L):
    """P[l][i][j] = number of length-l walks from atom i into atom j, by a
    plain per-vertex walk: the reference for the quotient walk of
    atom_pair_table."""
    u = algebra.universe
    n = u.nv
    adj = _adjacency(u)
    members = [[v for v in range(n) if (bits >> v) & 1] for bits in algebra.atoms]
    vecs = [[(bits >> v) & 1 for v in range(n)] for bits in algebra.atoms]
    table = []
    for _ in range(L + 1):
        table.append(tuple(tuple(sum(vec[v] for v in m) for m in members) for vec in vecs))
        vecs = [[sum(vec[w] for w in adj[v]) for v in range(n)] for vec in vecs]
    return tuple(table)


@pytest.mark.parametrize("seed", range(6))
def test_atom_pair_table_equals_the_vertex_walk(seed):
    """On random multigraphs with loops and parallel edges the quotient walk
    counts what the per-vertex walk counts, at L = 0, 1, |V| and 4|V| + 1."""
    rng = random.Random("sieve-table-%d" % seed)
    for _ in range(12):
        algebra = _random_algebra(rng)
        n = algebra.universe.nv
        for L in (0, 1, n, certified_length(algebra.universe)):
            assert atom_pair_table(algebra.universe, algebra.atoms, L) == _walk_table(algebra, L)


def _lane_width_cells():
    """(name, algebra) cells that push the lane width of the packed atom walk
    (|V| times the largest degree to the L, in bits): a hub with loops and
    parallel edges, a one-vertex atom beside a large atom, one atom, twelve
    atoms, and regular multigraphs whose walk counts reach the bound."""
    hub = Graph(
        ["h"] + ["x%d" % i for i in range(5)],
        [("l%d" % i, "h", "h") for i in range(6)]
        + [("p%d_%d" % (i, r), "h", "x%d" % i) for i in range(5) for r in range(3)]
        + [("q", "x0", "x1")],
    )
    path = Graph(["v%d" % i for i in range(20)],
                 [("e%d" % i, "v%d" % i, "v%d" % (i + 1)) for i in range(19)]
                 + [("s", "v0", "v0")])
    # a 20-cycle with a loop at every vertex: 4-regular, so the walks of
    # length l from a set S number exactly |S| 4^l; from the 19-vertex atom
    # about 18 4^l end in it, as many bits as the bound 20 4^l takes
    ring = Graph(["r%d" % i for i in range(20)],
                 [("c%d" % i, "r%d" % i, "r%d" % ((i + 1) % 20)) for i in range(20)]
                 + [("o%d" % i, "r%d" % i, "r%d" % i) for i in range(20)])
    rng = random.Random("sieve-lanes")
    names = ["w%d" % i for i in range(14)]
    dense = Graph(names,
                  [("t%d" % i, names[rng.randrange(i)], names[i]) for i in range(1, 14)]
                  + [("y%d" % i, rng.choice(names), rng.choice(names)) for i in range(20)])
    twelve = [1 << i for i in range(10)] + [0b11 << 10, 0b11 << 12]
    return [
        ("hub", CutAlgebra(hub, [1, full_mask(hub) ^ 1])),
        ("hub-leaves", CutAlgebra(hub, [0b1, 0b110, 0b111000])),
        ("one-vertex-atom", CutAlgebra(path, [1, full_mask(path) ^ 1])),
        ("one-atom-hub", CutAlgebra(hub, [full_mask(hub)])),
        ("one-atom-ring", CutAlgebra(ring, [full_mask(ring)])),
        ("ring-1-19", CutAlgebra(ring, [1, full_mask(ring) ^ 1])),
        ("twelve-atoms", CutAlgebra(dense, twelve)),
    ]


@pytest.mark.parametrize("name", [name for name, _ in _lane_width_cells()])
def test_packed_atom_walk_equals_the_vertex_walk_at_the_certified_length(name):
    """atom_pair_table packs every atom's walk into one vector, lane i at
    bit i * b; at the certified length the counts are at their widest, and
    every lane must read what the plain per-vertex walk counts."""
    algebra = dict(_lane_width_cells())[name]
    L = certified_length(algebra.universe)
    table = atom_pair_table(algebra.universe, algebra.atoms, L)
    assert table == _walk_table(algebra, L)
    if name == "one-atom-ring":  # the bound is met
        assert table[L] == ((20 * 4 ** L,),)
    if name == "ring-1-19":  # one lane of two fills its width
        assert table[L][1][1].bit_length() == (20 * 4 ** L).bit_length()


def test_series_by_mask_equals_a_plain_union_sum():
    """On seeded integer tables that are not symmetric (nor nonnegative),
    the series of every mask is the plain sum of T[l][i][j] over i in the
    mask and j outside it, for 0 to 9 atoms and L from 0 to 6."""
    rng = random.Random("sieve-masks")
    for a, L in itertools.product(range(10), range(7)):
        table = [
            [[rng.randrange(-9, 1000) for _j in range(a)] for _i in range(a)]
            for _l in range(L + 1)
        ]
        got = _series_by_mask(table, a, L)
        assert len(got) == 1 << a
        for m in range(1 << a):
            inside = [i for i in range(a) if (m >> i) & 1]
            outside = [j for j in range(a) if not (m >> j) & 1]
            want = tuple(
                sum(table[l][i][j] for i in inside for j in outside) for l in range(L + 1)
            )
            assert got[m] == want, (a, L, m)


def test_a_negative_length_is_refused_like_transfer_counts():
    g = p4()
    algebra = boolean_closure([cut_from_members(g, ["a", "b"])])
    for call in (
        lambda: atom_pair_table(g, algebra.atoms, -1),
        lambda: full_series(classify(algebra), -1),
        lambda: series_mod.transfer_counts(g, ("measure", 0b11), -1),
    ):
        with pytest.raises(series_mod.SeriesError, match=r"^L must be >= 0$"):
            call()


def _annihilator_degree(algebra):
    """Least d with q(A) w_i = 0 for every atom i and one monic q of degree
    d, by exact elimination on the adjacency matrix: the first k at which
    the atoms' stacked vectors (A^k w_1, ..., A^k w_a) depend on those of
    lower degree."""
    u = algebra.universe
    n = u.nv
    adj = [[0] * n for _ in range(n)]
    for s, d in u.index_edges:
        adj[s][d] += 1
        adj[d][s] += 1
    vecs = [[(bits >> v) & 1 for v in range(n)] for bits in algebra.atoms]
    basis = []  # (pivot, row) with row[pivot] == 1, pivots distinct
    for k in range(n + 1):
        row = [Fraction(x) for vec in vecs for x in vec]
        for pivot, b in basis:
            if row[pivot]:
                f = row[pivot]
                row = [x - f * y for x, y in zip(row, b)]
        pivot = next((i for i, x in enumerate(row) if x), None)
        if pivot is None:
            return k
        basis.append((pivot, [x / row[pivot] for x in row]))
        vecs = [[sum(adj[v][w] * vec[w] for w in range(n)) for v in range(n)] for vec in vecs]
    raise AssertionError("Cayley-Hamilton bounds the degree by |V|")


def _checked_blocks(algebra):
    """Number of blocks of the sieve's partition, after checking by brute
    force that it refines the atoms and is equitable: every vertex of a
    block lies in the same atom and has the same neighbour blocks, with
    multiplicity."""
    u = algebra.universe
    adj = _adjacency(u)
    block = series_mod._equitable_partition(adj, algebra.atoms)
    atom_of = {v: i for i, bits in enumerate(algebra.atoms) for v in range(u.nv) if (bits >> v) & 1}
    profile = {}
    for v in range(u.nv):
        seen = (atom_of[v], sorted(block[w] for w in adj[v]))
        assert profile.setdefault(block[v], seen) == seen
    return len(profile)


def _verdicts_at(algebra, P):
    """Order and statuses decided on the length-P prefix of the series."""
    a = algebra.n_atoms
    series = _series_by_mask(_walk_table(algebra, P), a, P)
    return _verdicts(series, a)


def _assert_verdicts(rep, order, status):
    got_status, series = _eager(rep)
    assert got_status == status
    assert [el.mask for el in rep.irreducible] == [m for m in order if status[m] == "irreducible"]
    assert rep.undecided_count == 0
    assert sorted(range(len(status)), key=lambda m: (series[m], m)) == order


@pytest.mark.parametrize("seed", range(6))
def test_prefix_stops_at_the_annihilator_degree(seed):
    """The walk stops at k, the number of blocks of the atoms' equitable
    partition: the degree of the annihilator that classify's proof takes,
    the characteristic polynomial of the quotient.  The least annihilator
    degree d is at most k."""
    rng = random.Random("sieve-degree-%d" % seed)
    for _ in range(12):
        algebra = _random_algebra(rng)
        u, atoms = algebra.universe, algebra.atoms
        k = _checked_blocks(algebra)
        assert _annihilator_degree(algebra) <= k <= u.nv
        table = atom_pair_prefix(u, atoms)
        assert len(table) - 1 == k
        assert table == _walk_table(algebra, k)


# (group, radius, word bound, k): three split-ladder sieves and the free:2
# --words 1 reach cell, k the number of blocks of their atoms' equitable
# partition (the least annihilator degrees read 17, 32, 41 and 17).  A
# silent fallback to |V| fails here.
DEGREE_CELLS = [
    (_fp(2, 2, 2), 6, 1, 29),
    (_fp(2, 3), 8, 2, 32),
    (_fp(2, 4), 6, 2, 45),
    ({"kind": "free", "k": 2}, 6, 1, 40),
]


@pytest.mark.parametrize("spec, radius, words, k", DEGREE_CELLS)
def test_ball_sieves_decide_on_the_annihilator_degree(spec, radius, words, k):
    algebra = _orbit_algebra(spec, radius, words)
    rep = classify(algebra)
    assert _checked_blocks(algebra) == k < algebra.universe.nv
    assert all(len(s) == k + 1 for s in _eager(rep)[1])
    assert all(len(el.series) == k + 1 for el in rep.irreducible)


WITNESS_ORBITS = [
    ({"kind": "zd", "d": 1}, 6, 2),
    (_fp(2, 2), 6, 2),
    (_fp(2, 3), 6, 2),
    (_fp(2, 2, 2), 6, 1),
    (_fp(3, 3), 6, 1),
    (_fp(3, 4), 6, 1),
]


@pytest.mark.parametrize("spec, radius, words", WITNESS_ORBITS)
def test_ball_verdicts_at_the_annihilator_degree_equal_those_at_v(spec, radius, words):
    algebra = _orbit_algebra(spec, radius, words)
    _assert_verdicts(classify(algebra), *_verdicts_at(algebra, algebra.universe.nv))


def _discrete_partition(nbrs, atoms):
    return list(range(len(nbrs)))


# (group, radius, word bound): ball sieves whose atoms' equitable partition
# has far fewer than |V| blocks.  Forced onto the discrete partition, k = |V|,
# each must decide on degrees 0..|V| with unchanged verdicts, irreducible
# order and selection.
DISCRETE_CELLS = [
    (_fp(2, 2, 2), 6, 1),
    (_fp(2, 3), 6, 2),
    (_fp(2, 3), 8, 2),
]


@pytest.mark.parametrize("spec, radius, words", DISCRETE_CELLS)
def test_discrete_partition_falls_back_to_v(monkeypatch, spec, radius, words):
    cut = balanced_cut(make_oracle(spec), radius)
    bv = cut.universe
    wl = bv.oracle.words_up_to(words)
    cuts = orbit_cuts(bv, cut, wl).cuts
    want = select_nested_generating(cuts, action=wl)
    want_status, want_series = _eager(want.report)
    assert len(want_series[0]) - 1 < bv.nv
    monkeypatch.setattr(series_mod, "_equitable_partition", _discrete_partition)
    got = select_nested_generating(cuts, action=wl)
    rep = got.report
    got_status, got_series = _eager(rep)
    assert all(len(s) == bv.nv + 1 for s in got_series)
    assert all(len(el.series) == bv.nv + 1 for el in rep.irreducible)
    _assert_verdicts(rep, *_verdicts_at(rep.algebra, bv.nv))
    assert got_status == want_status
    assert [el.mask for el in rep.irreducible] == [el.mask for el in want.report.irreducible]
    assert got.kept == want.kept and got.removed == want.removed
    assert got.images == want.images


# (group, word bound): W = 1 and 2 on groups that split, fp(3,3) and fp(3,4)
# at W = 1, where words go blind, and free:2 and fp(3,3) at W = 2 (18 and 19
# atoms)
IMAGE_CELLS = [
    (spec, w) for spec in ({"kind": "zd", "d": 1}, _fp(2, 2), _fp(2, 3), _fp(2, 2, 2))
    for w in (1, 2)
] + [(_fp(3, 3), 1), (_fp(3, 4), 1), ({"kind": "free", "k": 2}, 2), (_fp(3, 3), 2)]


@pytest.mark.parametrize("spec, words", IMAGE_CELLS)
def test_selection_images_are_the_translates_of_the_kept_cuts(spec, words):
    """Selection.images is what translating every kept cut by every word
    gives: the index of the translate among the kept cuts, or None when it
    is not representable or not kept."""
    cut = balanced_cut(make_oracle(spec), 6)
    bv = cut.universe
    wl = bv.oracle.words_up_to(words)
    sel = select_nested_generating(orbit_cuts(bv, cut, wl).cuts, action=wl)
    want = []
    for el, _word in wl:
        row = []
        for c in sel.kept:
            try:
                row.append(sel.system.bits_index.get(act_left_cut(bv, el, c).bits))
            except CutError:
                row.append(None)
        want.append(tuple(row))
    assert sel.images == tuple(want)
    assert sel.images[0] == tuple(range(len(sel.kept)))  # the identity
    # a kept cut far from the identity translates out of the ball
    assert any(None in row for row in sel.images)


# IMAGE_CELLS, and free:2 and fp(3,3) at W = 3 (54 and 41 atoms)
MASK_CELLS = IMAGE_CELLS + [({"kind": "free", "k": 2}, 3), (_fp(3, 3), 3)]


@pytest.mark.parametrize("spec, words", MASK_CELLS)
def test_mask_translates_equal_the_decomposed_cut_translates(spec, words):
    """act_left_mask reads the atom mask of every translate of every
    irreducible cut by every word off the translated coboundary; the
    reference translates the cut's bits and decomposes them, None on a
    CutError.  The selection's rows are those masks' indices, so its images
    are the reference's."""
    cut = balanced_cut(make_oracle(spec), 6)
    bv = cut.universe
    wl = bv.oracle.words_up_to(words)
    sel = select_nested_generating(orbit_cuts(bv, cut, wl).cuts, action=wl)
    algebra = sel.report.algebra
    irr = _paired_cuts(sel.report)
    pos = {c.bits: i for i, c in enumerate(irr)}
    pieces = AtomPieces(algebra)
    rows = []
    outcomes = set()
    for el, _word in wl:
        row = []
        for c in irr:
            try:
                want = algebra.decompose(act_left_cut(bv, el, c).bits)
            except CutError:
                want = None
            assert act_left_mask(pieces, el, c) == want, (el, c.name)
            outcomes.add(want is None)
            row.append(None if want is None else pos.get(algebra.element_bits(want)))
        rows.append(row)
    assert outcomes == {True, False}
    kept = [pos[c.bits] for c in sel.kept]
    kept_pos = {i: p for p, i in enumerate(kept)}
    assert sel.images == tuple(tuple(kept_pos.get(row[i]) for i in kept) for row in rows)


@pytest.mark.parametrize("spec, words", [(_fp(2, 3), 2), (_fp(3, 3), 2)])
def test_selection_translates_one_cut_of_each_complement_pair(monkeypatch, spec, words):
    """g·~c = ~(g·c), so the selection translates only the first cut of each
    pair: words x irreducible cuts / 2 mask translates."""
    cut = balanced_cut(make_oracle(spec), 6)
    bv = cut.universe
    wl = bv.oracle.words_up_to(words)
    cuts = orbit_cuts(bv, cut, wl).cuts
    calls = []
    monkeypatch.setattr(sieve_mod, "act_left_mask",
                        lambda *args: calls.append(args[2]) or act_left_mask(*args))
    sel = select_nested_generating(cuts, action=wl)
    n = len(sel.report.irreducible)
    assert n and n % 2 == 0
    assert len(calls) == len(wl) * n // 2
    assert {c.name for c in calls} == {"c%d" % t for t in range(n // 2)}


def test_selection_without_action_has_no_images():
    sel = select_nested_generating([cut_from_members(k2(), ["u"], "A")])
    assert sel.images == ()
