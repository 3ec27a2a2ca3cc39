"""Trees from nested cut systems, and equivariant surgery on them.

A verified system E of cuts yields a tree whose edges are the cuts
themselves.  In paired mode (complement-stable E) each cut e runs from the
vertex labeled {d | d contains e or d strictly contains the complement of
e} to the midpoint labeled {e, complement}; complementary cuts meet at the
midpoint, so each complement pair is a length-2 segment.  In unpaired mode
(no complement pairs in E) the cut runs between the two one-sided labels,
with no midpoints.  A vertex label is an int bit mask over cut indices,
bit k set when cut k is in the label, the form in which nestedness and
the labels come from one pass over the atoms of the system,
`cuts.containment`: one transpose of the cut bit rows gives each universe
vertex its signature (the cuts containing it), the distinct signatures are
the atoms, and ANDs and ORs of atom signatures give, per cut d, the cuts
that contain d, those that contain ~d and those that cross d, at
O(cuts·|V|) bit work plus O(cuts·atoms) big-integer operations.
verify_system reads nestedness and its witness off the crossing masks and
keeps the other two on the system, and the builders OR every label out of
them.  The tree metric equals the symmetric-difference size of labels, the
popcount of the XOR of two masks, and that identity is what the test
suites check; vertex_embed reads the built tree's label and checks it
against the mask of the cuts that contain the vertex.

The action layer is one class.  PartialAction holds per-word vertex maps,
None marking an image the evidence cannot determine, and reads every edge
image off them: a tree has one edge per ordered pair of adjacent vertices,
so the image of the edge (s, d) is the edge at (image of s, image of d),
and None when an end has no image or the pair is no edge.  It answers every
query on them: orbits as reachability classes, stabilizers, fixed vertices
(only when every generator visibly fixes them), blind words and collapse.
Over a Cayley ball it is word-bounded evidence, read off the left
translates that sieve.select_nested_generating made to close its classes
under the action (`Selection.images`), not new ones.  TreeAction is its
subclass for a full action of a finite group, verified once (bijections,
automorphisms, trivial identity, homomorphism); compressible collapse,
blow-up and the size polynomial take one and read the same queries.
Collapse checks at every step that the maximal vertex stabilizers stay the
same, which is the Dicks-Dunwoody condition that the vertex substabilizers
stay the same.

One rule moves vertices, and edges always follow their endpoints.
_agreeing_map reads a vertex map off (point, image) evidence pairs: a
point's image is the one value its pairs name.  Edge evidence (the cut
images of build_partial_action and of induce_action's generators) enters
once, as incidence pairs: an edge with a known image sends its source to
the image's source and its target to the image's target.  A collapse
pushes the vertex maps alone, by the pairs (block of x, block of the image
of x).  When two pairs disagree the evidence is not a map, and a partial
action drops the whole word, whose vertex and edge images all become None;
a full action never disagrees under a collapse that it closes.  blow_up
hands TreeAction vertex maps on index points: a point is a (base vertex
index, fiber vertex) pair, each map is a tuple of point indices, and the
transporters that move fibers are found in one pass over the elements; the
"v|x" ids only name the result's vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, count
from types import MappingProxyType

from .cuts import bit_flags, containment, full_mask, universe_graph
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
    # (A, B) of cuts.containment: per cut d, the masks of the cuts e with
    # d ⊆ e and with ~d ⊆ e; the tree labels are read off them
    containment: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.bits_index is None:
            index = {c.bits: i for i, c in enumerate(self.cuts)}
            object.__setattr__(self, "bits_index", index)
        if self.containment is None:
            width = self.universe.nv if self.cuts else 0
            inside, outside, _ = containment([c.bits for c in self.cuts], width)
            object.__setattr__(self, "containment", (inside, outside))

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
    inside, outside, crossing = containment(bits, universe.nv)
    # the least i crossed by a later cut, with the least such cut: the
    # lexicographically first crossing pair
    witness = None
    for i, x in enumerate(crossing):
        later = x >> (i + 1)
        if later:
            witness = (cuts[i].name, cuts[i + (later & -later).bit_length()].name)
            break
    return NestedSystem(
        cuts,
        comp_stable,
        comp_free,
        witness is None,
        witness,
        excludes_empty,
        excludes_full,
        seen,
        (inside, outside),
    )


# -- labels --------------------------------------------------------------------


def _labels(system, mode):
    """Head and tail labels of each cut's edge, where the label of a set S
    is {d | S ⊆ d, or ~S ⊊ d}, as a bit mask over cut indices.  With
    (A, B) = system.containment, the head label of cut d is
    A(d) ∪ (B(d) − {~d}) and, in U mode, the tail label is
    the label of ~d, B(d) ∪ (A(d) − {d}): verify_system refuses duplicate
    cuts, so d is the one cut equal to d, and ~d is the one cut equal to ~d
    in a complement-stable system and none in a complement-free one, where
    the head is A(d) ∪ B(d).  A T-mode tail is the midpoint {d, ~d}."""
    inside, outside = system.containment
    full = full_mask(system.universe)
    heads, tails = [], []
    for d, c in enumerate(system.cuts):
        a, b = inside[d], outside[d]
        if mode == "T":
            j = system.index_of_bits(full ^ c.bits)
            heads.append(a | (b & ~(1 << j)))
            tails.append(1 << d | 1 << j)
        else:
            heads.append(a | b)
            tails.append(b | (a & ~(1 << d)))
    return heads, tails


class StructureTree:
    """Tree whose edge k realizes cut k of the system; vertex labels are
    int bit masks over cut indices, bit k for cut k.  cut_names[k] is the
    printed name of cut k, read once per tree; label_names reads a label's
    names in index order off its bit flags, with no sort."""

    __slots__ = (
        "graph",
        "mode",
        "system",
        "labels",
        "cut_names",
    )

    def __init__(self, graph, mode, system, labels):
        self.graph = graph
        self.mode = mode
        self.system = system
        self.labels = tuple(labels)
        self.cut_names = tuple(_cut_name(system, k) for k in range(len(system.cuts)))

    def label_of(self, vertex_id):
        return self.labels[self.graph.vindex[vertex_id]]

    def label_names(self, label):
        return tuple(compress(self.cut_names, bit_flags(label)))

    def __repr__(self):
        return "StructureTree(mode=%s, %d cuts)" % (self.mode, len(self.system.cuts))


def _build(system, mode):
    n = len(system.cuts)
    if n == 0:
        g = Graph(["n0"], [])
        return StructureTree(g, mode, system, [0])
    heads, tails = _labels(system, mode)
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
    """e** of every tree edge, in one pass: rooted at vertex 0, an edge's
    side away from the root is the subtree below it, so the source side is
    that subtree when the source lies below the edge, and the rest when it
    does not.  The subtrees are bit masks ORed up in reverse BFS order."""
    if not t.edges:
        return {}
    if not is_tree(t):
        raise TreeError("edge_cut requires a tree")
    n = t.nv
    nbrs = [[] for _ in range(n)]
    for k, (s, d) in enumerate(t.index_edges):
        nbrs[s].append((d, k))
        nbrs[d].append((s, k))
    up = [None] * n  # up[v]: the index of the edge from v towards the root
    order = [0]
    for v in order:
        for w, k in nbrs[v]:
            if k != up[v]:
                up[w] = k
                order.append(w)
    below = [1 << v for v in range(n)]
    for v in reversed(order[1:]):
        s, d = t.index_edges[up[v]]
        below[s if d == v else d] |= below[v]
    full = (1 << n) - 1
    out = {}
    for k, ((e, _s, _d), (s, d)) in enumerate(zip(t.edges, t.index_edges)):
        side = below[s] if up[s] == k else full ^ below[d]
        out[e] = frozenset(compress(t.vertices, bit_flags(side)))
    return out


def vertex_embed(stree, universe_vertex):
    """Tree vertex of a universe vertex: the head of the edge of a minimal
    cut containing it.  Verifies the label identity (the mask of the cuts
    containing the vertex is that head's label) rather than trusting it."""
    if stree.mode != "T":
        raise TreeError("vertex embedding is defined on paired trees")
    system = stree.system
    if not system.cuts:
        return stree.graph.vertices[0]
    vi = universe_graph(system.universe).vindex[universe_vertex]
    loc = [i for i, c in enumerate(system.cuts) if (c.bits >> vi) & 1]
    if not loc:
        raise TreeError(
            "vertex %r lies in no cut (system not complement-stable?)"
            % (universe_vertex,)
        )
    # any minimal cut containing the vertex does; nestedness makes the
    # running-minimum scan sound, and with no duplicate cuts a cut inside
    # another is strictly inside it
    best = loc[0]
    for i in loc:
        if system.cuts[i].bits & ~system.cuts[best].bits == 0:
            best = i
    head = stree.graph.index_edges[best][0]
    label = stree.labels[head]
    if sum(1 << i for i in loc) != label:  # distinct bits: the sum is the OR
        raise TreeError(
            "label identity fails at %r: cuts containing it are %r, label %r"
            % (universe_vertex, loc, list(compress(count(), bit_flags(label))))
        )
    return stree.graph.vertices[head]


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


def _collapse(action, edge_ids):
    """Contract the named edges of the action's tree, which its edge images
    must send into themselves, and push each vertex map through to the
    quotient; returns (quotient graph, pushed vertex maps).  A pushed map is
    read off the pairs (block of x, block of the image of x); where those
    disagree it comes back as None."""
    g = action.graph
    idxs = set()
    for e in edge_ids:
        if e not in g.eindex:
            raise TreeError("edge %r not in tree" % (e,))
        idxs.add(g.eindex[e])
    for em in action.edge_images:
        if any(em[k] is not None and em[k] not in idxs for k in idxs):
            raise TreeError("collapsed edge set is not closed under the action")
    newg, rep = collapse_blocks(g, [g.edges[k][0] for k in idxs])
    block = [newg.vindex[rep[v]] for v in g.vertices]
    vmaps = [
        _agreeing_map(
            newg.nv,
            ((block[x], block[y]) for x, y in enumerate(vm) if y is not None),
        )
        for vm in action.vertex_images
    ]
    return newg, vmaps


# -- tree actions ---------------------------------------------------------------


class PartialAction:
    """Per-word vertex maps on a tree; None marks an image the evidence
    cannot determine.  words: (element, word string) pairs, one per element;
    gen_word_pos: the position in words of each generator.  A word whose
    vertex map is given as None (its evidence contradicted itself) gives no
    evidence at all.  The image of the edge (s, d) is the edge at (image of
    s, image of d), or None.  Orbits are reachability classes of the
    defined images, a stabilizer is the set of elements whose images
    visibly fix, and a vertex counts as fixed only when every generator
    demonstrably fixes it."""

    __slots__ = ("graph", "words", "gen_word_pos", "vertex_images", "edge_images")

    def __init__(self, graph, words, gen_word_pos, vertex_images):
        self.graph = graph
        self.words = tuple(words)
        self.gen_word_pos = tuple(gen_word_pos)
        self.vertex_images = tuple(
            (None,) * graph.nv if vm is None else tuple(vm) for vm in vertex_images
        )
        ie = graph.index_edges
        edge_at = {pair: k for k, pair in enumerate(ie)}
        self.edge_images = tuple(
            tuple(edge_at.get((vm[s], vm[d])) for s, d in ie)
            for vm in self.vertex_images
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
        """Collapse an edge set that the defined edge images close, inducing
        partial maps on the blocks; a word whose block images disagree gives
        no evidence."""
        newg, vmaps = _collapse(self, edge_ids)
        return PartialAction(newg, self.words, self.gen_word_pos, vmaps)


class TreeAction(PartialAction):
    """Full action of a finite group on a tree, given by its vertex maps and
    verified once, when made: every element permutes the vertices, the
    identity fixes them all, and the maps compose as the group multiplies.
    PartialAction reads each edge image off the images of the edge's ends;
    a map that sends an edge to no edge is no automorphism and is refused.
    Its words are the group elements in oracle order, written by el_str;
    vertex_maps is a read-only view {element: vertex map}."""

    __slots__ = ("oracle", "vertex_maps")

    def __init__(self, graph, oracle, vertex_maps):
        if not oracle.finite_kind:
            raise TreeError("tree actions need a finite group oracle")
        if not is_tree(graph):
            raise TreeError("tree actions need a tree")
        els = tuple(oracle.elements())
        if set(vertex_maps) != set(els):
            raise TreeError("action must map every group element")
        vms = [tuple(vertex_maps[a]) for a in els]
        at = {a: i for i, a in enumerate(els)}
        vs = tuple(range(graph.nv))
        if vms[at[oracle.identity()]] != vs:
            raise TreeError("identity does not act trivially on vertices")
        for a, vm in zip(els, vms):
            if tuple(sorted(vm)) != vs:
                raise TreeError("element %s does not act bijectively" % (a,))
        super().__init__(
            graph,
            [(a, oracle.el_str(a)) for a in els],
            [at[gel] for _name, gel in oracle.generators()],
            vms,
        )
        for a, em in zip(els, self.edge_images):
            if None in em:
                raise TreeError(
                    "element %s is not a tree automorphism at %r"
                    % (a, graph.edges[em.index(None)][0])
                )
        for a, va in zip(els, vms):
            for b, vb in zip(els, vms):
                if vms[at[oracle.multiply(a, b)]] != tuple(va[y] for y in vb):
                    raise TreeError("vertex maps are not a homomorphism")
        self.oracle = oracle
        self.vertex_maps = MappingProxyType(dict(zip(els, self.vertex_images)))

    def elements(self):
        return tuple(el for el, _w in self.words)

    def collapse(self, edge_ids):
        """Collapse an action-closed edge set; returns the induced action.
        Every pushed vertex map is total and well defined: a path of
        collapsed edges joins any two points x, y of one block, and an
        element a sends it to a path from a x to a y whose edges, by
        closure, are collapsed too, so a x and a y share a block.
        TreeAction re-verifies the result."""
        newg, vmaps = _collapse(self, edge_ids)
        return TreeAction(newg, self.oracle, dict(zip(self.elements(), vmaps)))


def induce_action(stree, oracle, vertex_perms):
    """Action of a finite group on a structure tree, from vertex_perms
    (generator name -> universe vertex permutation dict): each generator
    moves the cuts as sets, and its tree vertex map is read off that cut map
    by _agreeing_map.  The family must be closed under the action.  The
    vertex maps of the other elements are composed along the search tree of
    the group, and TreeAction derives the edge images back from them.
    The incidence pairs always agree: a bijection p of the universe keeps
    inclusion and complements, so on a closed family it permutes the cuts
    and sends the label of each set S to the label of p(S); each end of an
    edge goes to the vertex with the image of its own label."""
    system = stree.system
    n = len(system.cuts)
    bits_to_idx = system.bits_index
    if n:  # a system without cuts has no universe to read
        g_univ = universe_graph(system.universe)
    g = stree.graph
    gen_maps = {}
    for name, _el in oracle.generators():
        if name not in vertex_perms:
            raise TreeError("missing vertex permutation for generator %r" % (name,))
        perm = vertex_perms[name]
        if n and not perm.keys() == set(perm.values()) == g_univ.vindex.keys():
            raise TreeError(
                "vertex permutation for generator %r is not a bijection of the "
                "universe vertices" % (name,)
            )
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
        # a tree with edges has every vertex on one; a tree without has one
        vm = _agreeing_map(g.nv, _incidence_pairs(g, amap)) if g.ne else (0,)
        gen_maps[name] = vm

    # compose along the search tree of the whole group; relations are
    # re-verified by the TreeAction constructor
    letter_maps = []
    for name, _el, gj in _letters(oracle):
        if gj is None:  # the inverse permutation of the letter before it
            prev = letter_maps[-1]
            letter_maps.append(tuple(sorted(range(g.nv), key=prev.__getitem__)))
        else:
            letter_maps.append(gen_maps[name])
    order = len(oracle.elements())
    bv = ball(oracle, order, cap=order)
    maps = [tuple(range(g.nv))]
    for parent, letter in search_tree(bv)[1:]:
        base = maps[parent]
        maps.append(tuple(base[i] for i in letter_maps[letter]))
    return TreeAction(g, oracle, dict(zip(bv.elements, maps)))


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


def _edge_owner(edge, base_vertex):
    if base_vertex is None:
        return "base edge %r" % (edge,)
    return "fiber edge %r of %r" % (edge, base_vertex)


def blow_up(action, fibers):
    """Equivariantly replace each vertex by a fiber tree.

    fibers: {vertex id of an orbit representative: (fiber Graph,
    {stabilizer element: {fiber vertex: fiber vertex}})}.  Orbits without an
    entry keep a single-vertex fiber.  The result's vertices are the points
    (v, x), v a base vertex index and x a vertex of v's fiber, named "v|x";
    its vertex maps are tuples of point indices.  Each transporter table
    takes one pass over the elements in word order: t(v) is the first that
    sends the representative of v's orbit to v, and a sends (v, x) to
    (a v, t(a v)^-1 a t(v) x).  Each side of an orbit-representative edge
    attaches at the first fiber vertex, in fiber order, that the edge
    stabilizer fixes; a fiber with no such vertex (its action inverts an
    edge) is refused.  Every other edge of the orbit attaches at the image
    of that point under the first element that sends the representative
    edge to it, which lies over the edge's own endpoint because TreeAction
    reads an edge image off its endpoint images.  The result is made from
    its vertex maps alone, so TreeAction refuses a fiber action that is no
    tree automorphism.  It collapses back to the base along the fiber edges
    (asserted on point indices).  Two points with one id, or two edges with
    one id, are refused."""
    g = action.graph
    oracle = action.oracle
    vorbits = action.vertex_orbits()
    rep_of_vertex = [None] * g.nv
    for orb in vorbits:
        for v in orb:
            rep_of_vertex[v] = orb[0]
    for vid in fibers:
        if vid not in g.vindex:
            raise TreeError("fiber given for %r, which is not a tree vertex" % (vid,))
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
        ftree, fact = fibers.get(g.vertices[rep], (single, None))
        if not is_tree(ftree):
            raise TreeError("fiber of %r is not a tree" % (g.vertices[rep],))
        vact = {}
        for a in action.vertex_stabilizer(rep):
            if fact is None or a == oracle.identity():
                vact[a] = {x: x for x in ftree.vertices}
                continue
            if a not in fact:
                raise TreeError(
                    "fiber action of %r is missing stabilizer element %s"
                    % (g.vertices[rep], a)
                )
            vact[a] = dict(fact[a])
            if not vact[a].keys() == set(vact[a].values()) == set(ftree.vertices):
                raise TreeError("fiber action of %r is not a permutation" % (g.vertices[rep],))
        fiber_tree[rep] = ftree
        fiber_vact[rep] = vact

    els = action.elements()
    eorbits = action.edge_orbits()
    transporter, edge_transporter = {}, {}
    for a, vm, em in zip(els, action.vertex_images, action.edge_images):
        for orb in vorbits:
            transporter.setdefault(vm[orb[0]], a)
        for orb in eorbits:
            edge_transporter.setdefault(em[orb[0]], a)

    def act_point(a, v, x):
        """Image of the point (v, x) under a."""
        v2 = action.vertex_maps[a][v]
        inner = oracle.multiply(
            oracle.invert(transporter[v2]), oracle.multiply(a, transporter[v])
        )
        return v2, fiber_vact[rep_of_vertex[v]][inner][x]

    points = [
        (v, x) for v in range(g.nv) for x in fiber_tree[rep_of_vertex[v]].vertices
    ]
    point_index = {p: i for i, p in enumerate(points)}
    names = ["%s|%s" % (g.vertices[v], x) for v, x in points]
    first_point = {}
    for p, name in zip(points, names):
        q = first_point.setdefault(name, p)
        if q != p:
            raise TreeError(
                "blown-up vertex id %r names two points: fiber vertex %r of "
                "%r and fiber vertex %r of %r"
                % (name, q[1], g.vertices[q[0]], p[1], g.vertices[p[0]])
            )

    # attachment points per edge side, transported from the orbit representatives
    attach = {}
    for orb in eorbits:
        rep_k = orb[0]
        stab = action.edge_stabilizer(rep_k)
        for side, vi in enumerate(g.index_edges[rep_k]):
            fixed = (
                x
                for x in fiber_tree[rep_of_vertex[vi]].vertices
                if all(act_point(a, vi, x)[1] == x for a in stab)
            )
            choice = next(fixed, None)
            if choice is None:
                raise TreeError(
                    "no vertex of the fiber of %r is fixed by the stabilizer "
                    "of edge %r" % (g.vertices[vi], g.edges[rep_k][0])
                )
            for k in orb:
                a = edge_transporter[k]
                attach[k, side] = point_index[act_point(a, vi, choice)]

    # fiber edges come first, then the base edges in base order; an owner is
    # (fiber edge, base vertex) or (base edge, None)
    fiber_edges, owners = [], []
    for v in range(g.nv):
        for fe, fs, fd in fiber_tree[rep_of_vertex[v]].edges:
            s, d = point_index[v, fs], point_index[v, fd]
            fiber_edges.append(("%s|%s" % (g.vertices[v], fe), names[s], names[d]))
            owners.append((fe, g.vertices[v]))
    base_edges = [
        (e, names[attach[k, 0]], names[attach[k, 1]])
        for k, (e, _s, _d) in enumerate(g.edges)
    ]
    owners.extend((e, None) for e, _s, _d in g.edges)
    first_owner = {}
    for (eid, _s, _d), own in zip(fiber_edges + base_edges, owners):
        prev = first_owner.setdefault(eid, own)
        if prev != own:
            raise TreeError(
                "blown-up edge id %r names two edges: %s and %s"
                % (eid, _edge_owner(*prev), _edge_owner(*own))
            )
    newg = Graph(names, fiber_edges + base_edges)
    vertex_maps = {
        a: tuple(point_index[act_point(a, v, x)] for v, x in points)
        for a in els
    }
    out = TreeAction(newg, oracle, vertex_maps)

    # collapsing the fibers must give back the base: one block per base
    # vertex, in base order, joined as the base edges join them
    collapsed, _rep = collapse_blocks(newg, [e for e, _s, _d in fiber_edges])
    block_base = [points[newg.vindex[b]][0] for b in collapsed.vertices]
    if block_base != list(range(g.nv)) or g.index_edges != tuple(
        (block_base[s], block_base[d]) for s, d in collapsed.index_edges
    ):
        raise TreeError("fiber collapse does not recover the base (internal)")
    return out


# -- word-bounded partial actions ------------------------------------------------


def build_partial_action(stree, words, edge_images):
    """Word-bounded action evidence on a paired tree over a Cayley ball.
    words: (element, word string) pairs, the identity included.
    edge_images: per word, per cut of the system (so per tree edge), the
    index of the cut's exact left translate, or None when that translate is
    not representable or not in the system; `Selection.images` is this
    table.  This is the one place where ball evidence becomes vertex maps:
    each word's map is read off the incidence pairs of its edge images, and
    a word whose edges disagree gives no evidence.  PartialAction reads the
    edge images back off those maps."""
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
    return PartialAction(g, words, gen_word_pos, vertex_images)


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
        e: name for (e, _s, _d), name in zip(stree.graph.edges, stree.cut_names)
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
                "cut": name,
                "src": s,
                "dst": d,
            }
            for (e, s, d), name in zip(stree.graph.edges, stree.cut_names)
        ],
    }
