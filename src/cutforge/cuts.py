"""Cuts: vertex subsets with edge coboundaries, over a finite graph or a
Cayley ball.

Membership is a dense bit mask over vertex indices (corner arithmetic is
the hot loop downstream).  On ball universes a Cut carries the interior
contract: every coboundary edge has both endpoints at distance <= R-1, so
corner emptiness and nestedness decided on the trace are exact for the
half-space families the pipeline produces.

A Graph and a BallView both carry `nv` and `index_edges`, the (source,
target) vertex index pair of every edge, and cuts are built, checked and
translated on those alone.  Edge and vertex ids are read from the string
graph only where they are printed or parsed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, index_classes
from .groups import BallView, ball as make_ball


class CutError(ValueError):
    pass


def universe_graph(universe):
    if isinstance(universe, BallView):
        return universe.graph
    if isinstance(universe, Graph):
        return universe
    raise CutError("universe must be a Graph or a BallView")


def full_mask(universe):
    if not isinstance(universe, (BallView, Graph)):
        raise CutError("universe must be a Graph or a BallView")
    return (1 << universe.nv) - 1


def bits_of_members(universe, members):
    g = universe_graph(universe)
    bits = 0
    for v in members:
        if v not in g.vindex:
            raise CutError("member %r not a universe vertex" % (v,))
        bits |= 1 << g.vindex[v]
    return bits


def members_of_bits(universe, bits):
    g = universe_graph(universe)
    return tuple(g.vertices[i] for i in range(g.nv) if (bits >> i) & 1)


def _sides(bits, n):
    """Per-vertex membership characters '0' / '1' of a bit set."""
    return format(bits, "0%db" % n)[::-1]


def coboundary_indices(universe, bits):
    """Indices of edges with exactly one endpoint in the bit set."""
    side = _sides(bits, universe.nv)
    return [k for k, (s, d) in enumerate(universe.index_edges) if side[s] != side[d]]


def _check_interior(universe, bits):
    """The coboundary indices of a ball cut, checked to be interior; None on
    a graph, where there is nothing to check."""
    if not isinstance(universe, BallView):
        return None
    limit = universe.radius - 1
    dist = universe.dist
    cob = tuple(coboundary_indices(universe, bits))
    for k in cob:
        s, d = universe.index_edges[k]
        if dist[s] > limit or dist[d] > limit:
            raise CutError(
                "interior-coboundary violated: edge %r" % (universe.graph.edges[k][0],)
            )
    return cob


class Cut:
    """Immutable cut; equality and hashing are by universe identity and
    member bits, so complements and translates dedupe exactly."""

    __slots__ = ("universe", "bits", "name", "_cob")

    def __init__(self, universe, bits, name=None):
        if bits < 0 or bits > full_mask(universe):
            raise CutError("member bits out of range for universe")
        self._cob = _check_interior(universe, bits)
        self.universe = universe
        self.bits = bits
        self.name = name

    @classmethod
    def _checked(cls, universe, bits, name):
        """A cut whose bits the caller has already shown to be in range and
        to have an interior coboundary, built without checking them again."""
        cut = cls.__new__(cls)
        cut.universe = universe
        cut.bits = bits
        cut.name = name
        cut._cob = None
        return cut

    def members(self):
        return members_of_bits(self.universe, self.bits)

    def size(self):
        return self.bits.bit_count()

    def complement(self, name=None):
        if name is None and self.name is not None:
            name = self.name[1:] if self.name.startswith("~") else "~" + self.name
        return Cut(self.universe, full_mask(self.universe) ^ self.bits, name)

    def _coboundary_indices(self):
        """Indices of the coboundary edges, counted once per cut."""
        if self._cob is None:
            self._cob = tuple(coboundary_indices(self.universe, self.bits))
        return self._cob

    def coboundary(self):
        edges = universe_graph(self.universe).edges
        return frozenset(edges[k][0] for k in self._coboundary_indices())

    def __eq__(self, other):
        return (
            isinstance(other, Cut)
            and self.universe is other.universe
            and self.bits == other.bits
        )

    def __hash__(self):
        return hash((id(self.universe), self.bits))

    def __repr__(self):
        label = self.name if self.name is not None else "%d members" % self.size()
        return "Cut(%s)" % (label,)


def cut_from_members(universe, members, name=None):
    return Cut(universe, bits_of_members(universe, members), name)


def almost_equal(a, b):
    """(almost equal?, symmetric difference).  Exact on finite graphs; on a
    ball the answer is certified only when the difference avoids the sphere
    (otherwise it may keep growing outside the window)."""
    _same_universe(a, b)
    diff = a.bits ^ b.bits
    if isinstance(a.universe, BallView):
        ok = (diff & a.universe.sphere_mask()) == 0
    else:
        ok = True
    return ok, frozenset(members_of_bits(a.universe, diff))


def _same_universe(a, b):
    if a.universe is not b.universe:
        raise CutError("cuts live over different universes")


CORNER_NAMES = ("A&B", "A&~B", "~A&B", "~A&~B")


@dataclass(frozen=True)
class NestedReport:
    corner_sizes: tuple
    nested: bool
    empty_corners: tuple


def nested_report(a, b):
    """Corner census for two cuts.  Nested iff some corner is empty."""
    _same_universe(a, b)
    full = full_mask(a.universe)
    corners = (
        a.bits & b.bits,
        a.bits & (full ^ b.bits),
        (full ^ a.bits) & b.bits,
        (full ^ a.bits) & (full ^ b.bits),
    )
    sizes = tuple(c.bit_count() for c in corners)
    empty = tuple(CORNER_NAMES[i] for i in range(4) if sizes[i] == 0)
    return NestedReport(sizes, bool(empty), empty)


def is_nested_bits(full, abits, bbits):
    return (
        abits & bbits == 0
        or abits & (full ^ bbits) == 0
        or (full ^ abits) & bbits == 0
        or (full ^ abits) & (full ^ bbits) == 0
    )


class CutAlgebra:
    """Finite Boolean algebra of vertex sets, generated by cuts.  Atoms are
    the refinement blocks, ordered by smallest vertex index; every element
    is a union of atoms."""

    __slots__ = ("universe", "atoms")

    def __init__(self, universe, atoms):
        self.universe = universe
        self.atoms = tuple(atoms)

    @property
    def n_atoms(self):
        return len(self.atoms)

    def element_bits(self, subset):
        bits = 0
        for i in range(self.n_atoms):
            if (subset >> i) & 1:
                bits |= self.atoms[i]
        return bits

    def decompose(self, bits):
        """Atom subset index of an element, or None if bits is not in the
        algebra."""
        subset = 0
        rest = bits
        for i, atom in enumerate(self.atoms):
            inter = bits & atom
            if inter == atom:
                subset |= 1 << i
                rest &= ~atom
            elif inter:
                return None
        if rest:
            return None
        return subset


def refine(blocks, masks):
    """Split every block by every mask, dropping empty pieces: the atoms of
    the Boolean algebra the blocks and masks generate inside the blocks."""
    for m in masks:
        nxt = []
        for b in blocks:
            inside = b & m
            outside = b & ~m
            if inside:
                nxt.append(inside)
            if outside:
                nxt.append(outside)
        blocks = nxt
    return blocks


def boolean_closure(cuts):
    """The algebra the cuts generate, one `refine` pass over them.  It is
    cheap at any number of cuts; what costs is the sieve's pass over the
    2^atoms elements, which `sieve.MAX_SIEVE_ATOMS` guards."""
    if not cuts:
        raise CutError("boolean_closure needs at least one generating cut")
    universe = cuts[0].universe
    for c in cuts[1:]:
        _same_universe(cuts[0], c)
    full = full_mask(universe)
    if full == 0:
        raise CutError("empty universe has no cut algebra")
    blocks = refine([full], [c.bits for c in cuts])
    blocks.sort(key=lambda b: (b & -b).bit_length())
    return CutAlgebra(universe, blocks)


@dataclass(frozen=True)
class RightStability:
    """Certificate for near-invariance under right translation by the
    generators: status is 'exact' (whole finite group seen),
    'ball_verified' (no growth between the probe radius and R), or
    'rejected' (a generator's difference set grew; witness attached)."""

    status: str
    per_generator: tuple  # (name, size at probe, size at R)
    witness: object


def right_flip_bits(bv, bits, s_element):
    """(A (symdiff) As^-1) restricted to the decidable domain
    {x : xs in ball}.  Returns (flip bits, valid-domain bits)."""
    o = bv.oracle
    flip = 0
    valid = 0
    for i, el in enumerate(bv.elements):
        img = o.multiply(el, s_element)
        j = bv.el_to_idx.get(img)
        if j is None:
            continue
        valid |= 1 << i
        if ((bits >> i) & 1) != ((bits >> j) & 1):
            flip |= 1 << i
    return flip, valid


def crossing_sources(bv, bits, gen_index):
    """Sources x of Cayley edges (x, s) that cross the bit set, for the
    generator with the given index."""
    side = _sides(bits, bv.nv)
    out = 0
    for (src_i, di), gj in zip(bv.index_edges, bv.edge_gen):
        if gj == gen_index and side[src_i] != side[di]:
            out |= 1 << src_i
    return out


def is_almost_right_stable(bv, cut):
    if not isinstance(bv, BallView):
        raise CutError("right-stability check needs a ball universe")
    if cut.universe is not bv:
        raise CutError("cut does not live on this ball")
    o = bv.oracle
    gens = o.generators()

    def checked_flip(view, bits, gen_index, g):
        flip, _valid = right_flip_bits(view, bits, g)
        if flip != crossing_sources(view, bits, gen_index):
            raise CutError("translation identity violated (internal)")
        return flip

    if bv.exhausted:
        per = []
        for gi, (name, g) in enumerate(gens):
            n = checked_flip(bv, cut.bits, gi, g).bit_count()
            per.append((name, n, n))
        return RightStability("exact", tuple(per), None)
    probe = max(2, bv.radius // 2)
    if probe >= bv.radius:
        raise CutError("probe radius must be smaller than the ball radius")
    # ball(probe) is a prefix of ball(R), so its bits are the low bits
    small = make_ball(o, probe, cap=bv.nv)
    small_bits = cut.bits & ((1 << small.nv) - 1)
    per = []
    witness = None
    for gi, (name, g) in enumerate(gens):
        nb = checked_flip(bv, cut.bits, gi, g).bit_count()
        ns = checked_flip(small, small_bits, gi, g).bit_count()
        per.append((name, ns, nb))
        if nb > ns and witness is None:
            witness = (name, ns, nb)
    status = "rejected" if witness is not None else "ball_verified"
    return RightStability(status, tuple(per), witness)


@dataclass(frozen=True)
class LeftMap:
    """Left translation by g on a ball, as index data.

    pre[i] is the index of g^-1 x_i, or None when it escapes the ball.
    mapped holds (s, d, pre[s], pre[d]) for every ball edge s -> d whose two
    endpoints have preimages in the ball, in edge order.  fringe holds the
    classes (`graphs.index_classes`, least member first) of the other edges
    that contain a vertex without a preimage: the fringe classes.  Every
    vertex without a preimage lies in exactly one of them."""

    pre: tuple
    mapped: tuple
    fringe: tuple


def _left_map(bv, g):
    o = bv.oracle
    ginv = o.invert(g)
    get = bv.el_to_idx.get
    pre = tuple([get(o.multiply(ginv, el)) for el in bv.elements])
    mapped = []
    other = []
    for s, d in bv.index_edges:
        ps, pd = pre[s], pre[d]
        if ps is None or pd is None:
            other.append((s, d))
        else:
            mapped.append((s, d, ps, pd))
    fringe = tuple(
        c for c in index_classes(bv.nv, other) if any(pre[i] is None for i in c)
    )
    return LeftMap(pre, tuple(mapped), fringe)


def act_left_cut(bv, g, cut, name=None):
    """Left translate of an interior-coboundary cut, as a cut of the same
    ball.  The translated coboundary must stay interior; membership on the
    fringe (where g^-1 x escapes) is filled in per residual component.

    Reads the `LeftMap` of g, built once and kept on the ball: pre[i] the
    index of g^-1 x_i (None when it escapes), the mapped edges (both
    preimages in the ball) and the fringe classes.  A mapped edge whose preimages lie on opposite
    sides is the image of a coboundary edge.  Left translation is a
    bijection on Cayley edges, and a mapped edge is the image of a ball
    edge, so the translated coboundary stays in the ball exactly when there
    are as many such edges as coboundary edges (counted once per cut and
    kept on it).

    Every other edge is residual, and each residual component takes one
    side.  A vertex with a preimage takes its preimage's side.  A residual
    edge whose two preimages are in the ball joins two vertices on the same
    side, and every other residual edge lies in a fringe class, so a
    residual component is a union of fringe classes and of vertices with
    preimages, held together by same-side edges.  So it is mixed, or has no
    vertex with a preimage, exactly when one of its fringe classes is.  The
    fringe classes therefore decide the fill and both checks: each one
    gives its vertices without preimages the one side of the rest.  The
    two failures never meet, so no order between them is lost: a class
    with no preimage at all is closed under every ball edge, hence the
    whole (connected) ball.

    The identity translate is the cut itself.  Every other result is built
    without a second interior check: its coboundary is exactly the image
    edges (each residual component takes one side), and the pass has just
    checked those against radius - 1.  (On an exhausted ball the limit
    reads radius, but no vertex lies beyond radius - 1 there.)"""
    if cut.universe is not bv:
        raise CutError("cut does not live on this ball")
    if g == bv.oracle.identity():
        return Cut._checked(bv, cut.bits, name)
    lm = bv.left_map(g, _left_map)
    pre = lm.pre
    side = _sides(cut.bits, bv.nv)
    n_cob = len(cut._coboundary_indices())
    dist = bv.dist
    limit = bv.radius - 1 if not bv.exhausted else bv.radius
    n_img = 0
    exposed = False
    for s, d, ps, pd in lm.mapped:
        if side[ps] != side[pd]:
            n_img += 1
            exposed = exposed or dist[s] > limit or dist[d] > limit
    if n_img != n_cob:
        raise CutError("radius too small: translated coboundary escapes the ball")
    if exposed:
        raise CutError("radius too small: translated coboundary not interior")
    out = ["0" if p is None else side[p] for p in pre]
    for block in lm.fringe:
        sides = {side[pre[i]] for i in block if pre[i] is not None}
        if not sides:
            raise CutError("radius too small: a fringe component is undecidable")
        if len(sides) > 1:
            raise CutError("translated cut is inconsistent on a component")
        if "1" in sides:
            for i in block:
                out[i] = "1"
    return Cut._checked(bv, int("".join(reversed(out)), 2), name)


@dataclass(frozen=True)
class OrbitCuts:
    cuts: tuple
    words: tuple  # word witness per cut, aligned


def orbit_cuts(bv, cut, words):
    """Distinct left translates of `cut` under the given (element, word)
    list; first word witness per distinct translate is kept."""
    base = cut.name if cut.name else "A"
    seen = {}
    out = []
    wit = []
    for el, word in words:
        label = base if word == "" else "%s*%s" % (word, base)
        img = act_left_cut(bv, el, cut, name=label)
        if img.bits in seen:
            continue
        seen[img.bits] = word
        out.append(img)
        wit.append(word)
    return OrbitCuts(tuple(out), tuple(wit))
