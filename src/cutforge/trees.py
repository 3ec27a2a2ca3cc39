"""Trees from nested cut systems, and equivariant surgery on them.

A verified system E of cuts yields a tree whose edges are the cuts
themselves.  In paired mode (complement-stable E) each cut e runs from the
vertex labeled {d | d contains e or d strictly contains the complement of
e} to the midpoint labeled {e, complement}; complementary cuts meet at the
midpoint, so each complement pair is a length-2 segment.  In unpaired mode
(no complement pairs in E) the cut runs between the two one-sided labels,
with no midpoints.  Vertex labels are materialized as explicit cut-index
sets: the tree metric equals the symmetric-difference size of labels, and
that identity is what the test suites check.

The action layer is one class.  PartialAction holds per-word vertex and
edge maps, None marking an image the evidence cannot determine, and every
query on them: orbits as reachability classes, stabilizers, fixed vertices
(only when every generator visibly fixes them), blind words and collapse.
Over a Cayley ball it is word-bounded evidence; its edge images are the
left translates that sieve.select_nested_generating made to close its
classes under the action (`Selection.images`), not new ones.  TreeAction is
its subclass for a full action of a finite group, verified once when made
(homomorphism plus incidence); compressible collapse, blow-up and the size
polynomial take one and read the same queries.  Collapse checks at every
step that the maximal vertex stabilizers stay the same, which is the
Dicks-Dunwoody condition that the vertex substabilizers stay the same.

Wherever edge images are the evidence, vertices move by one rule,
_agreeing_map: a vertex map is read off (point, image) evidence pairs, and
a point's image is the one value its pairs name.  The pairs come from edge
incidences (an edge with a known image sends its source to the image's
source and its target to the image's target) and, under a collapse, from
(block of x, block of the image of x).  When two pairs disagree the
evidence is not a map: a full action raises TreeError, while a partial
action drops the whole word, whose vertex and edge images all become None.
blow_up runs the other way: it starts from the fiber vertex actions and
reads each edge image off the images of its endpoints, since a tree has one
edge per ordered pair of vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

from .cuts import full_mask, universe_graph
from .graphs import Graph, collapse_blocks, components, index_classes, is_tree
from .groups import _letters, ball, search_tree


class TreeError(ValueError):
    pass


# -- nested systems -----------------------------------------------------------


@dataclass(frozen=True)
class NestedSystem:
    cuts: tuple
    complement_stable: bool
    complement_free: bool
    nested: bool
    nested_witness: object
    excludes_empty: bool
    excludes_full: bool
    # cut bits -> cut index, for O(1) complement lookups
    bits_index: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.bits_index is None:
            index = {c.bits: i for i, c in enumerate(self.cuts)}
            object.__setattr__(self, "bits_index", index)

    @property
    def valid(self):
        """Flags required by the paired builder."""
        return not self.failures()

    def failures(self):
        out = []
        if not self.complement_stable:
            out.append("complement_stable")
        if not self.nested:
            out.append("nested (witness %r)" % (self.nested_witness,))
        if not self.excludes_empty:
            out.append("excludes_empty")
        if not self.excludes_full:
            out.append("excludes_full")
        return tuple(out)

    @property
    def universe(self):
        return self.cuts[0].universe if self.cuts else None

    def index_of_bits(self, bits):
        return self.bits_index.get(bits)


def _cut_name(system, i):
    name = system.cuts[i].name
    return name if name is not None else "cut%d" % (i,)


def verify_system(cuts):
    cuts = tuple(cuts)
    if not cuts:
        return NestedSystem((), True, True, True, None, True, True)
    universe = cuts[0].universe
    for c in cuts:
        if c.universe is not universe:
            raise TreeError("system cuts live over different universes")
    seen = {}
    for i, c in enumerate(cuts):
        if c.bits in seen:
            raise TreeError(
                "duplicate cut in system: %r and %r"
                % (cuts[seen[c.bits]].name, c.name)
            )
        seen[c.bits] = i
    full = full_mask(universe)
    bits = [c.bits for c in cuts]
    comps = [full ^ b for b in bits]
    excludes_empty = all(b != 0 for b in bits)
    excludes_full = all(b != full for b in bits)
    comp_stable = all(cb in seen for cb in comps)
    comp_free = all(cb not in seen for cb in comps)
    nested = True
    witness = None
    for i in range(len(cuts)):
        a, ac = bits[i], comps[i]
        for j in range(i + 1, len(cuts)):
            b, bc = bits[j], comps[j]
            if a & b and a & bc and ac & b and ac & bc:
                nested = False
                witness = (cuts[i].name, cuts[j].name)
                break
        if not nested:
            break
    return NestedSystem(
        cuts,
        comp_stable,
        comp_free,
        nested,
        witness,
        excludes_empty,
        excludes_full,
        seen,
    )


# -- labels --------------------------------------------------------------------


def _subset(a, b):
    return a & ~b == 0


def _label(system, bits):
    """{d | d contains the set, or d strictly contains its complement}."""
    cbits = full_mask(system.universe) ^ bits
    return frozenset(
        d
        for d, c in enumerate(system.cuts)
        if _subset(bits, c.bits) or (_subset(cbits, c.bits) and c.bits != cbits)
    )


def _pair_label(system, i):
    full = full_mask(system.universe)
    j = system.index_of_bits(full ^ system.cuts[i].bits)
    return frozenset((i, j))


class StructureTree:
    """Tree whose edge k realizes cut k of the system; vertex labels are
    frozensets of cut indices."""

    __slots__ = (
        "graph",
        "mode",
        "system",
        "labels",
        "label_to_vertex",
    )

    def __init__(self, graph, mode, system, labels):
        self.graph = graph
        self.mode = mode
        self.system = system
        self.labels = tuple(labels)
        self.label_to_vertex = {}
        for vid, lab in zip(graph.vertices, self.labels):
            self.label_to_vertex[lab] = vid

    def label_of(self, vertex_id):
        return self.labels[self.graph.vindex[vertex_id]]

    def label_names(self, label):
        return tuple(_cut_name(self.system, i) for i in sorted(label))

    def __repr__(self):
        return "StructureTree(mode=%s, %d cuts)" % (self.mode, len(self.system.cuts))


def _build(system, mode):
    n = len(system.cuts)
    if n == 0:
        g = Graph(["n0"], [])
        return StructureTree(g, mode, system, [frozenset()])
    heads = [_label(system, c.bits) for c in system.cuts]
    if mode == "T":
        tails = [_pair_label(system, i) for i in range(n)]
    else:
        full = full_mask(system.universe)
        tails = [_label(system, full ^ c.bits) for c in system.cuts]
    names = {}
    order = []
    for lab in [l for pair in zip(heads, tails) for l in pair]:
        if lab not in names:
            names[lab] = "n%d" % (len(order),)
            order.append(lab)
    edges = [
        ("e%d" % (i,), names[heads[i]], names[tails[i]]) for i in range(n)
    ]
    g = Graph([names[lab] for lab in order], edges)
    if not is_tree(g):
        raise TreeError("construction did not produce a tree (internal)")
    return StructureTree(g, mode, system, order)


def paired_tree(system):
    """Tree of a complement-stable NestedSystem; cuts and their complements
    meet at shared midpoint vertices."""
    missing = system.failures()
    if missing:
        raise TreeError("system not usable: " + ", ".join(missing))
    return _build(system, "T")


def unpaired_tree(system):
    """Tree of a complement-free NestedSystem; each cut joins its two
    one-sided labels directly."""
    bad = [f for f in system.failures() if f != "complement_stable"]
    if not system.complement_free:
        bad.insert(0, "complement pair present")
    if bad:
        raise TreeError("system not usable: " + ", ".join(bad))
    return _build(system, "U")


def edge_cut(t, edge_id):
    """e**: the vertices on the source side of a tree edge."""
    if not is_tree(t):
        raise TreeError("edge_cut requires a tree")
    if edge_id not in t.eindex:
        raise TreeError("edge %r not in tree" % (edge_id,))
    src = t.edges[t.eindex[edge_id]][1]
    part = components(t, removed=(edge_id,))
    return frozenset(part.blocks[part.block_of(src)])


def edge_cuts(t):
    return {e: edge_cut(t, e) for (e, _s, _d) in t.edges}


def vertex_embed(stree, universe_vertex):
    """Tree vertex of a universe vertex: the label of a minimal cut
    containing it.  Verifies the label identity (the cuts containing the
    vertex are exactly that label) rather than trusting it."""
    if stree.mode != "T":
        raise TreeError("vertex embedding is defined on paired trees")
    system = stree.system
    g_univ = system.cuts[0].universe if system.cuts else None
    if not system.cuts:
        return stree.graph.vertices[0]
    vi = universe_graph(g_univ).vindex[universe_vertex]
    loc = [i for i, c in enumerate(system.cuts) if (c.bits >> vi) & 1]
    if not loc:
        raise TreeError(
            "vertex %r lies in no cut (system not complement-stable?)"
            % (universe_vertex,)
        )
    # any minimal cut containing the vertex does; nestedness makes the
    # running-minimum scan sound
    best = None
    for i in loc:
        if best is None or (
            _subset(system.cuts[i].bits, system.cuts[best].bits)
            and system.cuts[i].bits != system.cuts[best].bits
        ):
            best = i
    label = _label(system, system.cuts[best].bits)
    if frozenset(loc) != label:
        raise TreeError(
            "label identity fails at %r: cuts containing it are %r, label %r"
            % (universe_vertex, sorted(loc), sorted(label))
        )
    return stree.label_to_vertex[label]


# -- the vertex-transport rule ---------------------------------------------------


def _agreeing_map(n, pairs):
    """The map on range(n) read off (point, image) evidence pairs: a point's
    image is the one value all of its pairs name, and None when it has no
    pair.  Returns None when two pairs name different images for one point,
    since the evidence is then not a map."""
    out = [None] * n
    for x, y in pairs:
        if out[x] is None:
            out[x] = y
        elif out[x] != y:
            return None
    return tuple(out)


def _incidence_pairs(g, emap):
    """Vertex evidence of an edge map: an edge with a known image sends its
    source to the image's source and its target to the image's target."""
    ie = g.index_edges
    for k, j in enumerate(emap):
        if j is not None:
            yield ie[k][0], ie[j][0]
            yield ie[k][1], ie[j][1]


def _image_pairs(maps):
    """(point, image) pairs of the defined images of the maps; their
    index_classes are the orbits of a group action."""
    return ((i, y) for m in maps for i, y in enumerate(m) if y is not None)


def _collapse(g, edge_ids, vertex_maps, edge_maps):
    """Contract the named edges of g, which the edge maps must send into
    themselves, and push each (vertex map, edge map) pair through to the
    quotient.  A pushed vertex map is read off the pairs (block of x, block
    of the image of x); where those disagree it comes back as None."""
    idxs = set()
    for e in edge_ids:
        if e not in g.eindex:
            raise TreeError("edge %r not in tree" % (e,))
        idxs.add(g.eindex[e])
    for em in edge_maps:
        if any(em[k] is not None and em[k] not in idxs for k in idxs):
            raise TreeError("collapsed edge set is not closed under the maps")
    newg, rep = collapse_blocks(g, [g.edges[k][0] for k in idxs])
    block = [newg.vindex[rep[v]] for v in g.vertices]
    kept = [k for k in range(g.ne) if k not in idxs]
    kept_pos = {k: p for p, k in enumerate(kept)}
    vmaps = [
        _agreeing_map(
            newg.nv,
            ((block[x], block[y]) for x, y in enumerate(vm) if y is not None),
        )
        for vm in vertex_maps
    ]
    emaps = [tuple(kept_pos.get(em[k]) for k in kept) for em in edge_maps]
    return newg, vmaps, emaps


# -- tree actions ---------------------------------------------------------------


class PartialAction:
    """Per-word vertex and edge maps on a tree; None marks an image the
    evidence cannot determine.  words: (element, word string) pairs, one per
    element; gen_word_pos: the position in words of each generator.  A word
    whose vertex map is given as None (its evidence contradicted itself)
    gives no evidence at all: every one of its vertex and edge images is
    None.  Orbits are reachability classes of the defined images, a
    stabilizer is the set of elements whose images visibly fix, and a vertex
    counts as fixed only when every generator demonstrably fixes it."""

    __slots__ = ("graph", "words", "gen_word_pos", "vertex_images", "edge_images")

    def __init__(self, graph, words, gen_word_pos, vertex_images, edge_images):
        self.graph = graph
        self.words = tuple(words)
        self.gen_word_pos = tuple(gen_word_pos)
        self.vertex_images = tuple(
            (None,) * graph.nv if vm is None else tuple(vm) for vm in vertex_images
        )
        self.edge_images = tuple(
            (None,) * graph.ne if vm is None else tuple(em)
            for vm, em in zip(vertex_images, edge_images)
        )

    def vertex_orbits(self):
        return index_classes(self.graph.nv, _image_pairs(self.vertex_images))

    def edge_orbits(self):
        return index_classes(self.graph.ne, _image_pairs(self.edge_images))

    def vertex_stabilizer(self, vi):
        return frozenset(
            el for (el, _w), m in zip(self.words, self.vertex_images) if m[vi] == vi
        )

    def edge_stabilizer(self, k):
        return frozenset(
            el for (el, _w), m in zip(self.words, self.edge_images) if m[k] == k
        )

    def orbit_max_vertex_stabilizer(self, orbit):
        return max(len(self.vertex_stabilizer(v)) for v in orbit)

    def orbit_max_edge_stabilizer(self, orbit):
        return max(len(self.edge_stabilizer(k)) for k in orbit)

    def fixed_vertices(self):
        """Vertices every generator maps to themselves (defined images only:
        absence of evidence never counts as fixing)."""
        out = []
        for vi in range(self.graph.nv):
            if all(
                self.vertex_images[w][vi] == vi for w in self.gen_word_pos
            ):
                out.append(self.graph.vertices[vi])
        return tuple(out)

    def blind_words(self):
        """Word strings with no vertex image at all: their cut images were
        missing, or did not move the tree consistently."""
        return tuple(
            w
            for (_el, w), vm in zip(self.words, self.vertex_images)
            if vm.count(None) == len(vm)
        )

    def collapse(self, edge_ids):
        """Collapse an orbit-closed edge set, inducing partial maps on the
        blocks; a word whose block images disagree gives no evidence."""
        newg, vmaps, emaps = _collapse(
            self.graph, edge_ids, self.vertex_images, self.edge_images
        )
        return PartialAction(newg, self.words, self.gen_word_pos, vmaps, emaps)


class TreeAction(PartialAction):
    """Full action of a finite group on a tree, verified once, when made:
    every element permutes the vertices and the edges, commuting with
    incidences, and the maps compose as the group multiplies.  Its words are
    the group elements in oracle order, written by el_str; vertex_maps is a
    read-only view {element: vertex map}."""

    __slots__ = ("oracle", "vertex_maps")

    def __init__(self, graph, oracle, vertex_maps, edge_maps):
        if not oracle.finite_kind:
            raise TreeError("tree actions need a finite group oracle")
        if not is_tree(graph):
            raise TreeError("tree actions need a tree")
        els = tuple(oracle.elements())
        if set(vertex_maps) != set(els) or set(edge_maps) != set(els):
            raise TreeError("action must map every group element")
        at = {a: i for i, a in enumerate(els)}
        super().__init__(
            graph,
            [(a, oracle.el_str(a)) for a in els],
            [at[gel] for _name, gel in oracle.generators()],
            [vertex_maps[a] for a in els],
            [edge_maps[a] for a in els],
        )
        self.oracle = oracle
        self.vertex_maps = MappingProxyType(dict(zip(els, self.vertex_images)))
        vms, ems = self.vertex_images, self.edge_images
        vs, es = range(graph.nv), range(graph.ne)
        ident = at[oracle.identity()]
        if vms[ident] != tuple(vs):
            raise TreeError("identity does not act trivially on vertices")
        if ems[ident] != tuple(es):
            raise TreeError("identity does not act trivially on edges")
        for a, vm, em in zip(els, vms, ems):
            if sorted(vm) != list(vs) or sorted(em) != list(es):
                raise TreeError("element %s does not act bijectively" % (a,))
            if any(vm[x] != y for x, y in _incidence_pairs(graph, em)):
                raise TreeError("incidence broken: element %s" % (a,))
        for a, va, ea in zip(els, vms, ems):
            for b, vb, eb in zip(els, vms, ems):
                ab = at[oracle.multiply(a, b)]
                if vms[ab] != tuple(va[y] for y in vb):
                    raise TreeError("vertex maps are not a homomorphism")
                if ems[ab] != tuple(ea[j] for j in eb):
                    raise TreeError("edge maps are not a homomorphism")

    def elements(self):
        return tuple(el for el, _w in self.words)

    def collapse(self, edge_ids):
        """Collapse an action-closed edge set; returns the induced action."""
        newg, vmaps, emaps = _collapse(
            self.graph, edge_ids, self.vertex_images, self.edge_images
        )
        if None in vmaps:
            raise TreeError("collapse produced an inconsistent action")
        els = self.elements()
        return TreeAction(
            newg, self.oracle, dict(zip(els, vmaps)), dict(zip(els, emaps))
        )


def induce_action(stree, oracle, vertex_perms):
    """Action of a finite group on a structure tree, from vertex_perms
    (generator name -> universe vertex permutation dict): each generator
    moves the cuts as sets.  The family must be closed under the action."""
    system = stree.system
    n = len(system.cuts)
    bits_to_idx = system.bits_index
    if n:  # a system without cuts has no universe to read
        g_univ = universe_graph(system.universe)
        full = full_mask(g_univ)
        comp_idx = [bits_to_idx[full ^ c.bits] for c in system.cuts]
    gen_maps = {}
    for name, _el in oracle.generators():
        if name not in vertex_perms:
            raise TreeError("missing vertex permutation for generator %r" % (name,))
        perm = vertex_perms[name]
        amap = []
        for i, c in enumerate(system.cuts):
            img = 0
            for v in range(g_univ.nv):
                if (c.bits >> v) & 1:
                    img |= 1 << g_univ.vindex[perm[g_univ.vertices[v]]]
            if img not in bits_to_idx:
                raise TreeError(
                    "family not closed under the action: image of %r escapes"
                    % (_cut_name(system, i),)
                )
            amap.append(bits_to_idx[img])
        if any(amap[comp_idx[i]] != comp_idx[amap[i]] for i in range(n)):
            raise TreeError(
                "cut map for %r does not commute with complementation" % (name,)
            )
        gen_maps[name] = tuple(amap)

    # compose along the search tree of the whole group; relations are
    # re-verified by the TreeAction constructor
    letter_maps = []
    for name, _el, gj in _letters(oracle):
        if gj is None:  # the inverse permutation of the letter before it
            prev = letter_maps[-1]
            letter_maps.append(tuple(sorted(range(n), key=prev.__getitem__)))
        else:
            letter_maps.append(gen_maps[name])
    order = len(oracle.elements())
    bv = ball(oracle, order, cap=order)
    maps = [tuple(range(n))]
    for parent, letter in search_tree(bv)[1:]:
        base = maps[parent]
        maps.append(tuple(base[i] for i in letter_maps[letter]))
    cut_action = dict(zip(bv.elements, maps))

    # a tree with edges has every vertex on one; a tree without has one vertex
    g = stree.graph
    vertex_maps = {}
    for el, amap in cut_action.items():
        vm = _agreeing_map(g.nv, _incidence_pairs(g, amap)) if g.ne else (0,)
        if vm is None:
            raise TreeError(
                "cut maps do not move the tree (they do not preserve the "
                "nesting order)"
            )
        vertex_maps[el] = vm
    return TreeAction(g, oracle, vertex_maps, cut_action)


def is_compressible(action, edge_id):
    """An edge is compressible when its endpoints lie in distinct orbits and
    one endpoint stabilizer contains the other; the edge stabilizer then
    equals the smaller endpoint stabilizer (checked)."""
    g = action.graph
    if edge_id not in g.eindex:
        raise TreeError("edge %r not in tree" % (edge_id,))
    k = g.eindex[edge_id]
    si, di = g.index_edges[k]
    if di in next(o for o in action.vertex_orbits() if si in o):
        return False
    gs, gd = action.vertex_stabilizer(si), action.vertex_stabilizer(di)
    for small, big in ((gs, gd), (gd, gs)):
        if small <= big:
            if action.edge_stabilizer(k) != small:
                raise TreeError(
                    "edge stabilizer differs from the smaller endpoint "
                    "stabilizer at %r (internal)" % (edge_id,)
                )
            return True
    return False


def maximal_stabilizers(action):
    """The vertex stabilizers that no other vertex stabilizer strictly
    contains, as a frozenset of frozensets.

    A subgroup is a vertex substabilizer (it lies in some vertex stabilizer)
    exactly when it lies in a maximal one, so two actions have the same
    substabilizers exactly when they have the same maximal stabilizers.  If
    the substabilizers agree, each maximal stabilizer of one action lies in
    a maximal stabilizer of the other, and that one lies in a stabilizer of
    the first; by maximality all three are equal.

    On a TreeAction the result is {G}: a finite group acting on a finite
    tree without inversion fixes a vertex (Serre, Trees, I.4.3)."""
    stabs = {action.vertex_stabilizer(v) for v in range(action.graph.nv)}
    return frozenset(h for h in stabs if not any(h < st for st in stabs))


def collapse_compressible(action):
    """Collapse compressible edge orbits, smallest edge first, until none
    remain.  The maximal vertex stabilizers, and with them the vertex
    substabilizers, are asserted unchanged at every step."""
    log = []
    while True:
        g = action.graph
        comp = (k for k in range(g.ne) if is_compressible(action, g.edges[k][0]))
        first = next(comp, None)
        if first is None:
            return action, tuple(log)
        orbit = next(o for o in action.edge_orbits() if first in o)
        edge_ids = tuple(g.edges[k][0] for k in orbit)
        before = maximal_stabilizers(action)
        action = action.collapse(edge_ids)
        if maximal_stabilizers(action) != before:
            raise TreeError("collapse changed the vertex substabilizers")
        log.append(edge_ids)


@dataclass(frozen=True)
class SizePolynomial:
    constant: int
    terms: tuple  # sorted (stabilizer order n, edge orbit count) pairs

    def __str__(self):
        parts = [str(self.constant)]
        for n, count in self.terms:
            t = "t" if n == 1 else "t^%d" % (n,)
            parts.append(t if count == 1 else "%d %s" % (count, t))
        return " + ".join(parts)


def size_polynomial(action):
    ne_orbits = action.edge_orbits()
    nv_orbits = action.vertex_orbits()
    counts = {}
    for orb in ne_orbits:
        n = len(action.edge_stabilizer(orb[0]))
        counts[n] = counts.get(n, 0) + 1
    return SizePolynomial(
        len(ne_orbits) - len(nv_orbits), tuple(sorted(counts.items()))
    )


# -- blow-up --------------------------------------------------------------------


def _first_transporter(action, images, src, dst):
    """The first element whose map (vertex_images or edge_images of the
    action) sends src to dst."""
    for (a, _w), m in zip(action.words, images):
        if m[src] == dst:
            return a
    raise TreeError("no transporter found (distinct orbits?)")


def blow_up(action, fibers):
    """Equivariantly replace each vertex by a fiber tree.

    fibers: {vertex id of an orbit representative: (fiber Graph,
    {stabilizer element: {fiber vertex: fiber vertex}})}.  Orbits without an
    entry keep a single-vertex fiber.  Each side of an orbit-representative
    edge attaches at the first fiber vertex, in fiber order, that the edge
    stabilizer fixes, and the rest of the orbit at its translates; a fiber
    with no such vertex (its action inverts an edge) is refused.  Every
    edge image is read off the images of its endpoints.  The result
    collapses back to the base along the fiber edges (asserted)."""
    g = action.graph
    oracle = action.oracle
    vorbits = action.vertex_orbits()
    rep_of_vertex = {}
    for orb in vorbits:
        for v in orb:
            rep_of_vertex[v] = orb[0]
    for vid in fibers:
        vi = g.vindex[vid]
        if rep_of_vertex[vi] != vi:
            raise TreeError(
                "fiber must be assigned to the orbit representative %r"
                % (g.vertices[rep_of_vertex[vi]],)
            )

    single = Graph(["*"], [])
    fiber_tree = {}
    fiber_vact = {}
    for orb in vorbits:
        rep = orb[0]
        spec = fibers.get(g.vertices[rep])
        if spec is None:
            fiber_tree[rep] = single
            fiber_vact[rep] = {a: {"*": "*"} for a in action.vertex_stabilizer(rep)}
            continue
        ftree, fact = spec
        if not is_tree(ftree):
            raise TreeError("fiber of %r is not a tree" % (g.vertices[rep],))
        stab = action.vertex_stabilizer(rep)
        vact = {}
        for a in stab:
            if a == oracle.identity():
                vact[a] = {x: x for x in ftree.vertices}
                continue
            if a not in fact:
                raise TreeError(
                    "fiber action of %r is missing stabilizer element %s"
                    % (g.vertices[rep], a)
                )
            vact[a] = dict(fact[a])
            if sorted(vact[a]) != sorted(ftree.vertices) or sorted(
                vact[a].values()
            ) != sorted(ftree.vertices):
                raise TreeError("fiber action of %r is not a permutation" % (g.vertices[rep],))
        fiber_tree[rep] = ftree
        fiber_vact[rep] = vact

    transporter = {}
    for orb in vorbits:
        for v in orb:
            transporter[v] = _first_transporter(
                action, action.vertex_images, orb[0], v
            )

    def fiber_point(v, x):
        return "%s|%s" % (g.vertices[v], x)

    def act_point(a, v, x):
        """Image of the fiber point (v, x) under a."""
        v2 = action.vertex_maps[a][v]
        rep = rep_of_vertex[v]
        inner = oracle.multiply(
            oracle.invert(transporter[v2]), oracle.multiply(a, transporter[v])
        )
        return v2, fiber_vact[rep][inner][x]

    # attachment points per edge, transported from the orbit representatives
    attach = {}
    for orb in action.edge_orbits():
        rep_k = orb[0]
        stab = action.edge_stabilizer(rep_k)
        for side, vi in enumerate(g.index_edges[rep_k]):
            choice = next(
                (
                    x
                    for x in fiber_tree[rep_of_vertex[vi]].vertices
                    if all(act_point(a, vi, x)[1] == x for a in stab)
                ),
                None,
            )
            if choice is None:
                raise TreeError(
                    "no vertex of the fiber of %r is fixed by the stabilizer "
                    "of edge %r" % (g.vertices[vi], g.edges[rep_k][0])
                )
            for k in orb:
                a = _first_transporter(action, action.edge_images, rep_k, k)
                v2, x2 = act_point(a, vi, choice)
                if v2 != g.index_edges[k][side]:
                    raise TreeError("edge transport mismatch (internal)")
                attach[(k, side)] = (v2, x2)

    # fiber edges come first, then the base edges in base order
    new_vertices, new_edges, fiber_edge_ids = [], [], []
    for v in range(g.nv):
        ftree = fiber_tree[rep_of_vertex[v]]
        new_vertices.extend(fiber_point(v, x) for x in ftree.vertices)
        for (fe, fs, fd) in ftree.edges:
            eid = "%s|%s" % (g.vertices[v], fe)
            new_edges.append((eid, fiber_point(v, fs), fiber_point(v, fd)))
            fiber_edge_ids.append(eid)
    for k, (e, _s, _d) in enumerate(g.edges):
        sv, sx = attach[(k, 0)]
        dv, dx = attach[(k, 1)]
        new_edges.append((e, fiber_point(sv, sx), fiber_point(dv, dx)))
    newg = Graph(new_vertices, new_edges)
    # a tree has one edge per ordered pair of vertices
    edge_at = {pair: k for k, pair in enumerate(newg.index_edges)}

    vertex_maps = {}
    edge_maps = {}
    for a in action.elements():
        nvm = []
        for v in range(g.nv):
            for x in fiber_tree[rep_of_vertex[v]].vertices:
                v2, x2 = act_point(a, v, x)
                nvm.append(newg.vindex[fiber_point(v2, x2)])
        nem = []
        for k, (si, di) in enumerate(newg.index_edges):
            img = edge_at.get((nvm[si], nvm[di]))
            if img is None:
                raise TreeError(
                    "fiber action is not a tree automorphism at %r"
                    % (newg.edges[k][0],)
                )
            nem.append(img)
        vertex_maps[a] = tuple(nvm)
        edge_maps[a] = tuple(nem)
    out = TreeAction(newg, oracle, vertex_maps, edge_maps)

    # collapsing the fibers must give back the base
    collapsed, vmap = collapse_blocks(newg, fiber_edge_ids)
    if collapsed.nv != g.nv or collapsed.ne != g.ne:
        raise TreeError("fiber collapse does not recover the base (internal)")
    for (e, s, d) in collapsed.edges:
        be = g.edges[g.eindex[e]]
        if s.split("|", 1)[0] != str(be[1]) or d.split("|", 1)[0] != str(be[2]):
            raise TreeError("fiber collapse does not recover the base (internal)")
    return out


# -- word-bounded partial actions ------------------------------------------------


def build_partial_action(stree, words, edge_images):
    """Word-bounded action evidence on a paired tree over a Cayley ball.
    words: (element, word string) pairs, the identity included.
    edge_images: per word, per cut of the system (so per tree edge), the
    index of the cut's exact left translate, or None when that translate is
    not representable or not in the system; `Selection.images` is this
    table.  Vertex images are read off the incident edges; a word whose
    edges disagree gives no evidence."""
    system = stree.system
    if not system.cuts:
        raise TreeError("partial actions need a nonempty system")
    if not hasattr(system.universe, "oracle"):
        raise TreeError("partial actions need a ball universe")
    n = len(system.cuts)
    if len(edge_images) != len(words) or any(len(em) != n for em in edge_images):
        raise TreeError("edge images need one row per word and one entry per cut")
    oracle = system.universe.oracle
    g = stree.graph

    gen_word_pos = []
    for _name, gel in oracle.generators():
        pos = None
        for i, (el, _w) in enumerate(words):
            if el == gel:
                pos = i
                break
        if pos is None:
            raise TreeError("words must include every generator")
        gen_word_pos.append(pos)

    vertex_images = [
        _agreeing_map(g.nv, _incidence_pairs(g, em)) for em in edge_images
    ]
    return PartialAction(g, words, gen_word_pos, vertex_images, edge_images)


# -- rendering -------------------------------------------------------------------


def _dot_quote(s):
    return '"%s"' % (str(s).replace('"', '\\"'),)


def graph_dot(graph, vertex_labels=None, edge_labels=None):
    lines = ["graph cutforge {"]
    for v in graph.vertices:
        lab = vertex_labels.get(v) if vertex_labels else None
        if lab is None:
            lines.append("  %s;" % (_dot_quote(v),))
        else:
            lines.append("  %s [label=%s];" % (_dot_quote(v), _dot_quote(lab)))
    for (e, s, d) in graph.edges:
        lab = edge_labels.get(e) if edge_labels else e
        lines.append(
            "  %s -- %s [label=%s];" % (_dot_quote(s), _dot_quote(d), _dot_quote(lab))
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def tree_dot(stree):
    vlabels = {
        vid: "{%s}" % (",".join(stree.label_names(lab)),)
        for vid, lab in zip(stree.graph.vertices, stree.labels)
    }
    elabels = {
        e: _cut_name(stree.system, k)
        for k, (e, _s, _d) in enumerate(stree.graph.edges)
    }
    return graph_dot(stree.graph, vlabels, elabels)


def tree_json_dict(stree):
    return {
        "mode": stree.mode,
        "vertices": [
            {"id": vid, "label": list(stree.label_names(lab))}
            for vid, lab in zip(stree.graph.vertices, stree.labels)
        ],
        "edges": [
            {
                "id": e,
                "cut": _cut_name(stree.system, k),
                "src": s,
                "dst": d,
            }
            for k, (e, s, d) in enumerate(stree.graph.edges)
        ],
    }
