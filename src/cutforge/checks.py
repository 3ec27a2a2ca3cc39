"""Seeded property suites: the package's contracts in executable form.

Each suite draws its instances from a seeded generator, so a failure is
replayable from the transcript header alone.  Suites raise CheckError with
the first witness; they never print timings or anything else that could
differ between runs, because `check --suite all` is required to produce
byte-identical transcripts for a fixed seed.
"""

from __future__ import annotations

import random
from itertools import combinations

from . import sieve as sieve_mod
from .cuts import (
    Cut,
    boolean_closure,
    crossing_sources,
    full_mask,
    is_almost_right_stable,
    nested_report,
    refine,
    right_flip_bits,
)
from .ends import EndsError, ends_profile, splitting_pipeline
from .graphs import (
    Graph,
    collapse_blocks,
    components,
    enumerate_reduced_paths,
    graph_from_json_dict,
    graph_to_json_dict,
    is_reduced,
    is_tree,
    reduced_path,
    tree_distance,
)
from .groups import FreeOracle, FreeProductOracle, TableOracle, ZdOracle, ball
from .series import (
    corner_series,
    crossing_distance,
    enumeration_counts,
    measure,
    odd_crossing_series,
    series_scale,
    series_sum,
    transfer_counts,
)
from .sieve import classify
from .trees import (
    TreeAction,
    blow_up,
    collapse_compressible,
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

SUITE_NAMES = ("graph", "cuts", "bergman", "sieve", "tree", "ends")


class CheckError(AssertionError):
    pass


class _Tally:
    __slots__ = ("n",)

    def __init__(self):
        self.n = 0

    def hit(self, cond, msg):
        self.n += 1
        if not cond:
            raise CheckError(msg)


def _rng(tag, seed):
    # string seeding hashes with sha512, stable across interpreter runs
    return random.Random("%s:%d" % (tag, seed))


def _random_graph(rng, max_v, max_e, connected=False):
    nv = rng.randint(2, max_v)
    vertices = ["v%d" % (i,) for i in range(nv)]
    edges = []
    if connected:
        for i in range(1, nv):
            edges.append(
                ("e%d" % (len(edges),), "v%d" % (rng.randrange(i),), "v%d" % (i,))
            )
    target = rng.randint(len(edges), max(len(edges), max_e))
    while len(edges) < target:
        edges.append(
            (
                "e%d" % (len(edges),),
                "v%d" % (rng.randrange(nv),),
                "v%d" % (rng.randrange(nv),),
            )
        )
    return Graph(vertices, edges)


def _random_tree(rng, max_v):
    nv = rng.randint(2, max_v)
    vertices = ["v%d" % (i,) for i in range(nv)]
    edges = []
    for i in range(1, nv):
        s, d = "v%d" % (rng.randrange(i),), "v%d" % (i,)
        if rng.random() < 0.5:
            s, d = d, s
        edges.append(("t%d" % (i - 1,), s, d))
    return Graph(vertices, edges)


def _random_bounded_graph(rng, max_v, max_e, max_deg):
    """Multigraph with every vertex degree <= max_deg (a loop counts twice).
    The enumeration engine is exponential in the walk length with branching
    equal to the degree, so its instances must stay sparse."""
    nv = rng.randint(2, max_v)
    target = rng.randint(1, max_e)
    deg = [0] * nv
    edges = []
    for _ in range(8 * max_e):
        if len(edges) == target:
            break
        s = rng.randrange(nv)
        d = rng.randrange(nv)
        need = {s: 2} if s == d else {s: 1, d: 1}
        if any(deg[v] + k > max_deg for v, k in need.items()):
            continue
        for v, k in need.items():
            deg[v] += k
        edges.append(("e%d" % (len(edges),), "v%d" % (s,), "v%d" % (d,)))
    return Graph(["v%d" % (i,) for i in range(nv)], edges)


def _random_mask(rng, n, proper=True):
    while True:
        bits = rng.getrandbits(n)
        if not proper or (bits != 0 and bits != (1 << n) - 1):
            return bits


def _random_edge_subset(rng, g, nonempty=True):
    while True:
        ids = [e for (e, _s, _d) in g.edges if rng.random() < 0.4]
        if ids or not nonempty:
            return ids


# -- graph suite -----------------------------------------------------------------


def check_graph_basics(seed):
    rng = _rng("graph-basics", seed)
    t = _Tally()
    for i in range(60):
        g = _random_graph(rng, 10, 14)
        part = components(g)
        flat = sorted(v for b in part.blocks for v in b)
        t.hit(flat == sorted(g.vertices), "components do not partition sample %d" % i)
        sub = set(_random_edge_subset(rng, g, nonempty=False))
        cg, vmap = collapse_blocks(g, sorted(sub))
        shrunk = components(g, removed=[e for (e, _s, _d) in g.edges if e not in sub])
        t.hit(
            cg.nv == len(shrunk.blocks),
            "collapse vertex count disagrees with block count on sample %d" % i,
        )
        for (e, s, d) in g.edges:
            if e in sub:
                t.hit(vmap[s] == vmap[d], "collapsed edge %r kept two blocks apart" % e)
            else:
                t.hit(
                    cg.endpoints(e) == (vmap[s], vmap[d]),
                    "surviving edge %r moved under collapse" % e,
                )
        rt = graph_from_json_dict(graph_to_json_dict(g))
        t.hit(
            rt.vertices == g.vertices and rt.edges == g.edges,
            "serialization round trip altered sample %d" % i,
        )
    for i in range(20):
        tg = _random_tree(rng, 10)
        t.hit(is_tree(tg), "random tree %d fails is_tree" % i)
        u = tg.vertices[rng.randrange(tg.nv)]
        w = tg.vertices[rng.randrange(tg.nv)]
        p = reduced_path(tg, u, w)
        t.hit(is_reduced(tg, p), "reduced_path output is unreduced on tree %d" % i)
        all_paths = enumerate_reduced_paths(tg, u, w, tg.nv)
        t.hit(
            len(all_paths) == 1,
            "tree %d has %d reduced paths %r -> %r" % (i, len(all_paths), u, w),
        )
        t.hit(
            tree_distance(tg, u, w) == p.length == tree_distance(tg, w, u),
            "tree distance is not symmetric on tree %d" % i,
        )
    return t.n


# -- cuts suite ------------------------------------------------------------------


def _random_sphere_clean_bits(rng, bv):
    """Random membership on the ball interior, sphere vertices copying an
    inward neighbor, so the coboundary stays interior."""
    g = bv.graph
    full = full_mask(bv)
    while True:
        bits = 0
        for i in range(bv.nv):
            if i in bv.sphere:
                continue
            if rng.random() < 0.5:
                bits |= 1 << i
        for i in sorted(bv.sphere):
            inward = None
            for (other, _k, _dir) in g.darts[i]:
                if bv.dist[other] == bv.radius - 1:
                    inward = other
                    break
            if inward is None:
                raise CheckError("sphere vertex %d has no inward neighbor" % i)
            if (bits >> inward) & 1:
                bits |= 1 << i
        if bits not in (0, full):
            return bits


def check_translation_identity(seed):
    """A (symdiff) As^-1 equals the crossing sources of the s-edges, computed
    by two unrelated scans."""
    t = _Tally()
    for tag, oracle, radius in (
        ("zd:1", ZdOracle(1), 8),
        ("free:2", FreeOracle(2), 4),
    ):
        bv = ball(oracle, radius)
        rng = _rng("cuts-translation-%s" % tag, seed)
        for i in range(20):
            bits = _random_sphere_clean_bits(rng, bv)
            cut = Cut(bv, bits)
            for gi, (gname, gel) in enumerate(oracle.generators()):
                flip, valid = right_flip_bits(bv, bits, gel)
                t.hit(
                    flip & ~valid == 0,
                    "flip set leaves the decidable domain (%s, %s)" % (tag, gname),
                )
                t.hit(
                    flip == crossing_sources(bv, bits, gi),
                    "translation identity fails on %s sample %d generator %s"
                    % (tag, i, gname),
                )
            rs = is_almost_right_stable(bv, cut)
            t.hit(
                rs.status in ("ball_verified", "rejected"),
                "unexpected stability status %r on %s" % (rs.status, tag),
            )
    return t.n


def check_nested_reports(seed):
    rng = _rng("cuts-nested", seed)
    t = _Tally()
    for i in range(40):
        g = _random_graph(rng, 8, 10)
        a = Cut(g, _random_mask(rng, g.nv, proper=False))
        b = Cut(g, _random_mask(rng, g.nv, proper=False))
        rep = nested_report(a, b)
        t.hit(
            sum(rep.corner_sizes) == g.nv,
            "corner sizes do not add up on sample %d" % i,
        )
        t.hit(
            rep.nested == (0 in rep.corner_sizes),
            "nested flag disagrees with corner emptiness on sample %d" % i,
        )
        t.hit(
            nested_report(a.complement(), b).nested == rep.nested
            and nested_report(a, b.complement()).nested == rep.nested,
            "nestedness is not complement-invariant on sample %d" % i,
        )
    return t.n


# -- bergman suite ----------------------------------------------------------------


def check_measure_identities(seed):
    rng = _rng("bergman-identities", seed)
    t = _Tally()
    L = 12
    for i in range(200):
        g = _random_graph(rng, 10, 14)
        a = Cut(g, _random_mask(rng, g.nv, proper=False))
        ma = measure(g, a, L)
        t.hit(
            ma.coeffs == measure(g, a.complement(), L).coeffs,
            "measure differs from complement measure on sample %d" % i,
        )
        sd = odd_crossing_series(g, a.coboundary(), L)
        t.hit(
            sd.coeffs == series_scale(ma, 2).coeffs,
            "coboundary series is not twice the measure on sample %d" % i,
        )
        t.hit(
            sd.coeffs[0] == 0 and all(c % 2 == 0 for c in sd.coeffs),
            "odd-crossing parity broken on sample %d" % i,
        )
        t.hit(
            sd.coeffs[1] == 2 * len(a.coboundary()),
            "degree-1 coefficient is not twice the coboundary on sample %d" % i,
        )
    return t.n


def check_engine_agreement(seed):
    rng = _rng("bergman-engines", seed)
    t = _Tally()
    L = 7
    for i in range(200):
        g = _random_bounded_graph(rng, 8, 12, max_deg=3)
        a = _random_mask(rng, g.nv, proper=False)
        b = _random_mask(rng, g.nv, proper=False)
        s = tuple(_random_edge_subset(rng, g, nonempty=False))
        for spec in (("measure", a), ("odd", s), ("corner", a, b)):
            t.hit(
                transfer_counts(g, spec, L).coeffs
                == enumeration_counts(g, spec, L).coeffs,
                "engines disagree on sample %d spec %s" % (i, spec[0]),
            )
        ca, cb, cc, _cd = corner_series(g, a, b, L)
        t.hit(
            series_sum(ca, cb, cc).coeffs == measure(g, a, L).coeffs,
            "corner identity (a+b)+c fails on sample %d" % i,
        )
    return t.n


def check_crossing_subadditivity(seed):
    rng = _rng("bergman-crossing", seed)
    t = _Tally()
    for i in range(100):
        g = _random_graph(rng, 10, 14, connected=True)
        r = _random_edge_subset(rng, g)
        s = _random_edge_subset(rng, g)
        d = crossing_distance(g, r, s)
        u = sorted(set(r) | set(s))
        sr = odd_crossing_series(g, r, d)
        ss = odd_crossing_series(g, s, d)
        su = odd_crossing_series(g, u, d)
        for l in range(d):
            t.hit(
                su.coeffs[l] == sr.coeffs[l] + ss.coeffs[l],
                "subadditivity is not an equality below the crossing "
                "distance on sample %d (length %d)" % (i, l),
            )
        t.hit(
            su.coeffs[d] < sr.coeffs[d] + ss.coeffs[d],
            "no strict defect at the crossing distance on sample %d" % i,
        )
    return t.n


# -- sieve suite ------------------------------------------------------------------


def sieve_artifacts(seed):
    """The sieve runs shared by the soundness, dichotomy, and tree checks:
    (index, graph, algebra, sieve report) per seeded instance."""
    rng = _rng("sieve-soundness", seed)
    out = []
    for i in range(100):
        g = _random_graph(rng, 8, 12, connected=True)
        gens = [
            Cut(g, _random_mask(rng, g.nv), name="g%d" % (j,))
            for j in range(rng.randint(1, 3))
        ]
        algebra = boolean_closure(gens)
        out.append((i, g, algebra, classify(algebra)))
    return out


def check_sieve_soundness(artifacts):
    t = _Tally()
    for i, g, algebra, report in artifacts:
        keys = [(el.series, el.mask) for el in report.irreducible]
        t.hit(
            report.undecided_count == 0
            and report.element_count == 1 << algebra.n_atoms
            and all(m in report.elements for _s, m in keys)
            and len({m for _s, m in keys}) == len(keys)
            and all(x < y for x, y in zip(keys, keys[1:])),
            "the irreducible record is not distinct masks of the algebra in "
            "(series, mask) order on sample %d" % i,
        )
        t.hit(report.complement_stable, "irr not complement-stable on sample %d" % i)
        full = full_mask(g)
        for el in report.irreducible:
            t.hit(
                el.bits not in (0, full),
                "trivial element classified irreducible on sample %d" % i,
            )
        irr_cuts = [Cut(g, el.bits) for el in report.irreducible]
        for x in range(len(irr_cuts)):
            for y in range(x + 1, len(irr_cuts)):
                t.hit(
                    nested_report(irr_cuts[x], irr_cuts[y]).nested,
                    "irreducible pair crosses on sample %d" % i,
                )
        t.hit(report.nested, "nested flag false on sample %d" % i)
        regen = sorted(refine([full], [c.bits for c in irr_cuts]))
        t.hit(
            regen == sorted(algebra.atoms),
            "irreducibles do not regenerate the algebra on sample %d" % i,
        )
        t.hit(report.generates, "generates flag false on sample %d" % i)
    return t.n


def corner_choices(g, pairs):
    """For each pair (A, B) of vertex bit masks, the complement choice
    (A', B'), A' in {A, ~A} and B' in {B, ~B} in that order, whose meeting
    corner A' & B' has the least measure; ties keep the first minimal
    choice.

    The corner measures are computed through `measure`, once per distinct
    corner, and compared on degrees 0..|V|.  That picks what the untruncated
    series pick, by the proof in `sieve.classify` for the discrete
    partition, k = |V|: every corner measure is u^T A^l w for the one
    adjacency matrix A, so two of them that agree for l < |V| agree for
    every l, and two that differ do so first at some l < |V|.
    """
    full = full_mask(g)
    measured = {}

    def corner_measure(choice):
        bits = choice[0] & choice[1]
        if bits not in measured:
            measured[bits] = measure(g, bits, g.nv).coeffs
        return measured[bits]

    return [
        min(
            ((a, b), (a, full ^ b), (full ^ a, b), (full ^ a, full ^ b)),
            key=corner_measure,
        )
        for a, b in pairs
    ]


def check_corner_dichotomy(artifacts):
    """After the complement choice minimizing the measure of the meeting
    corner (`corner_choices`), that corner or its opposite is empty.  The
    measures are recomputed, not read from the sieve's own series."""
    t = _Tally()
    for i, g, _algebra, report in artifacts:
        full = full_mask(g)
        pairs = combinations([el.bits for el in report.irreducible], 2)
        for ca, cb in corner_choices(g, pairs):
            t.hit(
                ca & cb == 0 or (full ^ ca) & (full ^ cb) == 0,
                "corner dichotomy fails on sample %d" % i,
            )
    return t.n


# -- tree suite -------------------------------------------------------------------


def check_tree_invariants(artifacts):
    """Across the sieve runs: the paired tree exists, the label metric is
    the tree metric, and the vertex embedding's label identity holds."""
    t = _Tally()
    for i, g, _algebra, report in artifacts:
        paired = sieve_mod._paired_cuts(report)
        system = verify_system(paired)
        t.hit(system.valid, "paired irreducibles rejected on sample %d" % i)
        stree = paired_tree(system)
        t.hit(is_tree(stree.graph), "paired tree fails is_tree on sample %d" % i)
        gt = stree.graph
        n = len(system.cuts)
        for a in range(n):
            va = gt.edges[a][1]
            la = stree.label_of(va)
            for b in range(a + 1, n):
                vb = gt.edges[b][1]
                t.hit(
                    tree_distance(gt, va, vb)
                    == (la ^ stree.label_of(vb)).bit_count(),
                    "distance formula fails on sample %d (cuts %d, %d)" % (i, a, b),
                )
        for v in g.vertices:
            t.hit(
                vertex_embed(stree, v) in gt.vindex,
                "vertex embedding failed on sample %d at %r" % (i, v),
            )
    return t.n


def check_double_dual(seed):
    """U of the edge-cut family of a tree reproduces the tree with oriented
    incidences and labels intact."""
    rng = _rng("tree-roundtrip", seed)
    t = _Tally()
    for i in range(50):
        tg = _random_tree(rng, 20)
        side = edge_cuts(tg)
        cuts = []
        for (e, _s, _d) in tg.edges:
            bits = 0
            for v in side[e]:
                bits |= 1 << tg.vindex[v]
            cuts.append(Cut(tg, bits, name=e))
        system = verify_system(cuts)
        t.hit(
            system.complement_free and system.nested,
            "edge cuts of tree %d are not an unpaired nested family" % i,
        )
        u = unpaired_tree(system)
        t.hit(u.graph.nv == tg.nv and u.graph.ne == tg.ne, "size changed on %d" % i)
        phimap = {
            w: sum(1 << k for k, c in enumerate(cuts) if (c.bits >> tg.vindex[w]) & 1)
            for w in tg.vertices
        }
        t.hit(
            set(phimap.values()) == set(u.labels)
            and len(set(phimap.values())) == tg.nv,
            "vertex labels are not a bijection on tree %d" % i,
        )
        for k, (e, s, d) in enumerate(tg.edges):
            _ue, us, ud = u.graph.edges[k]
            t.hit(
                phimap[s] == u.label_of(us) and phimap[d] == u.label_of(ud),
                "oriented incidence broken on tree %d edge %r" % (i, e),
            )
    return t.n


def check_action_surgery():
    """Fixed small cases for the verified action layer: reflection on a
    2-edge path, induced action from a vertex swap, blow-up and collapse."""
    t = _Tally()
    z2 = TableOracle(["e", "s"], [[0, 1], [1, 0]], ["s"])
    g = Graph(["a", "m", "b"], [("l", "a", "m"), ("r", "b", "m")])
    act = TreeAction(g, z2, {0: (0, 1, 2), 1: (2, 1, 0)})
    t.hit(act.vertex_orbits() == ((0, 2), (1,)), "reflection vertex orbits wrong")
    t.hit(act.edge_orbits() == ((0, 1),), "reflection edge orbits wrong")
    t.hit(
        is_compressible(act, "l") and is_compressible(act, "r"),
        "path edges should be compressible",
    )
    t.hit(str(size_polynomial(act)) == "-1 + t", "size polynomial display wrong")
    red, log = collapse_compressible(act)
    t.hit(
        red.graph.nv == 1 and red.graph.ne == 0 and len(log) == 1,
        "reflection collapse went wrong",
    )

    k2 = Graph(["u", "w"], [("uw", "u", "w")])
    system = verify_system([Cut(k2, 0b01, "A"), Cut(k2, 0b10, "~A")])
    stree = paired_tree(system)
    t.hit(
        stree.graph.nv == 3 and stree.graph.ne == 2,
        "paired tree of one pair is not the 2-edge path",
    )
    act2 = induce_action(stree, z2, vertex_perms={"s": {"u": "w", "w": "u"}})
    t.hit(
        len(act2.vertex_orbits()) == 2 and len(act2.edge_orbits()) == 1,
        "induced swap has wrong orbits",
    )
    t.hit(str(size_polynomial(act2)) == "-1 + t", "induced size polynomial wrong")

    fiber = Graph(["x", "c", "y"], [("f1", "x", "c"), ("f2", "y", "c")])
    big = blow_up(act, {"m": (fiber, {1: {"x": "y", "y": "x", "c": "c"}})})
    t.hit(big.graph.nv == 5 and big.graph.ne == 4, "blow-up has wrong size")
    same = maximal_stabilizers(big) == maximal_stabilizers(act)
    t.hit(same, "blow-up changed the substabilizers")
    red2, log2 = collapse_compressible(big)
    t.hit(
        red2.graph.nv == 1 and len(log2) == 2,
        "blown-up path did not collapse in two orbit steps",
    )
    # collapse order must not matter: start from the other compressible orbit
    other = big.collapse([e for e in log2[1]])
    red3, _log3 = collapse_compressible(other)
    t.hit(
        str(size_polynomial(red3)) == str(size_polynomial(red2)),
        "collapse order changed the size polynomial",
    )
    return t.n


# -- ends suite -------------------------------------------------------------------


def _z6_oracle():
    names = [str(i) for i in range(6)]
    mul = [[(a + b) % 6 for b in range(6)] for a in range(6)]
    return TableOracle(names, mul, ["1"])


def check_end_counts():
    t = _Tally()
    p = ends_profile(ZdOracle(1), rmax=7)
    t.hit(p.classification == "two", "Z classified %r" % p.classification)
    for r, c in zip(p.radii, p.counts):
        if 2 <= r <= 6:
            t.hit(c == 2, "Z count at radius %d is %d" % (r, c))
    p = ends_profile(ZdOracle(2), rmax=5)
    t.hit(p.classification == "one", "Z^2 classified %r" % p.classification)
    for r, c in zip(p.radii, p.counts):
        if 2 <= r <= 4:
            t.hit(c == 1, "Z^2 count at radius %d is %d" % (r, c))
    p = ends_profile(FreeOracle(2), rmax=5)
    t.hit(
        p.classification == "infinitely_many",
        "free group classified %r" % p.classification,
    )
    for r, c in zip(p.radii, p.counts):
        if 1 <= r <= 4:
            t.hit(
                c == 4 * 3 ** (r - 1),
                "free group count at radius %d is %d" % (r, c),
            )
    p = ends_profile(_z6_oracle(), rmax=6)
    t.hit(p.classification == "zero", "Z/6 classified %r" % p.classification)
    t.hit(all(c == 0 for c in p.counts), "Z/6 has a nonzero count")
    return t.n


def check_pipeline_signatures():
    t = _Tally()
    rep = splitting_pipeline(ZdOracle(1), words=2, radius=6)
    t.hit(rep.status == "split", "Z pipeline undetermined: %s" % rep.diagnostics)
    t.hit(rep.final_edge_orbit_count == 1, "Z final tree edge orbits wrong")
    t.hit(rep.final_vertex_orbit_count == 1, "Z final tree vertex orbits wrong")
    t.hit(rep.final_edge_stabilizer_order == 1, "Z edge stabilizer not trivial")
    t.hit(
        rep.certificate.startswith("ball-verified(R=6, W=2"),
        "Z certificate is %r" % rep.certificate,
    )
    rep = splitting_pipeline(FreeProductOracle([2, 2]), words=2, radius=6)
    t.hit(rep.status == "split", "reflection pipeline undetermined: %s" % rep.diagnostics)
    t.hit(rep.final_edge_orbit_count == 1, "reflection final edge orbits wrong")
    t.hit(rep.final_vertex_orbit_count == 2, "reflection final vertex orbits wrong")
    t.hit(
        tuple(sorted(rep.final_vertex_stabilizer_orders)) == (2, 2),
        "reflection vertex stabilizer orders are %r"
        % (rep.final_vertex_stabilizer_orders,),
    )
    t.hit(rep.final_edge_stabilizer_order == 1, "reflection edge stabilizer wrong")
    t.hit(
        rep.certificate.startswith("ball-verified(R=6, W=2"),
        "reflection certificate is %r" % rep.certificate,
    )
    refused = False
    try:
        splitting_pipeline(ZdOracle(2), words=2, radius=6)
    except EndsError as exc:
        refused = "no balanced cut" in str(exc)
    t.hit(refused, "one-ended group was not refused at the balanced cut")
    return t.n


# -- runner -----------------------------------------------------------------------


def run_suite(name, seed, shared=None):
    """Transcript lines and assertion count of one suite.  `shared` is a
    dict kept across the suites of one run, so that the sieve and tree
    suites build their seeded sieve artifacts once."""
    lines = []
    total = 0
    if shared is None:
        shared = {}

    def seeded_artifacts():
        if "sieve" not in shared:
            shared["sieve"] = sieve_artifacts(seed)
        return shared["sieve"]

    def done(label, n):
        nonlocal total
        lines.append("[ok] %s (%d assertions)" % (label, n))
        total += n

    if name == "graph":
        done("components, collapse, paths, serialization", check_graph_basics(seed))
    elif name == "cuts":
        done(
            "right-translation flips equal coboundary crossings",
            check_translation_identity(seed),
        )
        done("corner reports and complement invariance", check_nested_reports(seed))
    elif name == "bergman":
        done("complement and coboundary measure identities", check_measure_identities(seed))
        done("transfer coefficients equal enumeration counts", check_engine_agreement(seed))
        done(
            "crossing-distance subadditivity with strict defect",
            check_crossing_subadditivity(seed),
        )
    elif name == "sieve":
        artifacts = seeded_artifacts()
        done(
            "irreducible families certified, nested, generating",
            check_sieve_soundness(artifacts),
        )
        done("corner dichotomy on irreducible pairs", check_corner_dichotomy(artifacts))
    elif name == "tree":
        done("tree metric and vertex embedding over sieve runs", check_tree_invariants(seeded_artifacts()))
        done("edge-cut double dual reproduces labeled trees", check_double_dual(seed))
        done("action surgery: orbits, collapse, blow-up", check_action_surgery())
    elif name == "ends":
        done("end counts of the built-in families", check_end_counts())
        done("splitting pipeline signatures", check_pipeline_signatures())
    else:
        raise CheckError("unknown suite %r" % (name,))
    return lines, total


def run_check(suite, seed):
    """Transcript lines and exit code for the check command."""
    names = SUITE_NAMES if suite == "all" else (suite,)
    out = ["check suite=%s seed=%d" % (suite, seed)]
    total = 0
    shared = {}
    for nm in names:
        out.append("suite %s" % nm)
        try:
            lines, n = run_suite(nm, seed, shared)
        except CheckError as exc:
            out.append("  FAIL: %s" % (exc,))
            return out, 1
        out.extend("  " + l for l in lines)
        total += n
    out.append("OK (%d assertions)" % total)
    return out, 0
