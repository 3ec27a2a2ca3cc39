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

from dataclasses import dataclass, field
from functools import reduce
from itertools import compress, repeat
from operator import and_, eq, is_, itemgetter, or_

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
    """The bit set of the members: a 0/1 flag per vertex, set in a bytearray
    and read as binary digits once, where ORing in one shifted bit per
    member would cost O(|V|) each on a large universe."""
    g = universe_graph(universe)
    index = g.vindex
    flags = bytearray(g.nv + 1)  # the reversed digits lead with a 0
    try:
        for v in members:
            flags[index[v]] = 1
    except KeyError:
        raise CutError("member %r not a universe vertex" % (v,)) from None
    return int(flags[::-1].translate(_TO_DIGITS), 2)


def members_of_bits(universe, bits):
    g = universe_graph(universe)
    return tuple(compress(g.vertices, bit_flags(bits)))


def _sides(bits, n):
    """Per-vertex membership characters '0' / '1' of a bit set."""
    return format(bits, "0%db" % n)[::-1]


# '0'/'1' digits -> 0/1 bytes, 0/1 bytes -> digits, and 0/1 bytes flipped,
# for moving bit masks through C-level bytes operations
_TO_FLAGS = bytes.maketrans(b"01", b"\x00\x01")
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def bit_flags(bits):
    """Membership bytes 0 / 1 of vertices 0, 1, ... in a bit set, through
    its highest member, read off one digit string: linear in the mask's
    length, where shifting the mask once per vertex is quadratic."""
    return bin(bits)[:1:-1].encode().translate(_TO_FLAGS)


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


def containment(masks, width):
    """Containment and crossing of a family of vertex bit masks over a
    universe of `width` vertices.  Returns three lists of masks over the
    family's indices: per member d,
        A(d) = {e | d ⊆ e},  B(d) = {e | ~d ⊆ e},  X(d) = {e | e crosses d}.

    The signature of a universe vertex has bit e set when the vertex lies in
    e; it is a column of the bit matrix of the family, so one transpose
    gives them all.  Vertices with one signature form an atom, and every
    member is a union of atoms (at most members + 1 of them when the family
    is nested).  Hence d ⊆ e exactly when e contains every atom inside d,
    so A(d) is the AND of the signatures of the atoms inside d, and B(d)
    the AND of those outside d; an empty AND is every member.  Likewise
    OR_in(d) and OR_out(d), the ORs of the same signatures, hold the e that
    meet d and ~d.  X(d) = OR_in(d) & ~A(d) & OR_out(d) & ~B(d).  Proof: e
    crosses d exactly when the four corners d∩e, d∩~e, ~d∩e and ~d∩~e all
    hold a vertex, hence an atom, and the four terms say in turn that an atom
    inside d lies in e, one inside d lies outside e, one outside d lies in
    e, and one outside d lies outside e.

    The matrices are strings of binary digits, one row after another, so a
    column is a strided slice; the atom-major one becomes bytes of 0/1 flags
    for `compress`.  The cost is O(members·width) bit work for the
    transpose plus O(members·atoms) ANDs and ORs of members-bit integers,
    all in C-level loops.  An empty family gives three empty lists.

    A complement pair costs one row.  When ~d is a member too, its row is
    (B(d), A(d), X(d)): ~~d = d, so A(~d) = {e | ~d ⊆ e} = B(d) and
    B(~d) = {e | d ⊆ e} = A(d), and the four corners of ~d against e are
    the four corners of d against e, so e crosses ~d exactly when it crosses
    d.  A complement-stable family therefore reduces half its rows."""
    n = len(masks)
    if not n:
        return [], [], []
    full = (1 << width) - 1
    at = {m: i for i, m in enumerate(masks)}
    spec = "0%db" % (width,)
    # row e: member e's digits, vertices in reverse index order (any order does)
    rows = "".join([format(m, spec) for m in masks])
    atoms = list(dict.fromkeys([rows[v::width] for v in range(width)]))
    sigs = [int(a[::-1], 2) for a in atoms]
    # atom-major, so row d is in_rows[d::n]
    in_rows = "".join(atoms).encode().translate(_TO_FLAGS)
    out_rows = in_rows.translate(_FLIP)
    every = (1 << n) - 1
    inside, outside, crossing = [None] * n, [None] * n, [None] * n
    for d in range(n):
        if inside[d] is not None:  # filled as the complement of an earlier cut
            continue
        sig_in = list(compress(sigs, in_rows[d::n]))
        sig_out = list(compress(sigs, out_rows[d::n]))
        a = reduce(and_, sig_in, every)
        b = reduce(and_, sig_out, every)
        x = reduce(or_, sig_in, 0) & reduce(or_, sig_out, 0) & ~(a | b)
        inside[d], outside[d], crossing[d] = a, b, x
        j = at.get(full ^ masks[d])
        if j is not None and inside[j] is None:
            inside[j], outside[j], crossing[j] = b, a, x
    return inside, outside, crossing


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
    cheap at any number of cuts, and so is `sieve.classify`, which visits
    the 2^atoms elements lazily; only a pass that lists all of them is
    capped, at `sieve.MAX_LISTED_ATOMS`."""
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

    pre[i] is the index of g^-1 x_i and img[i] the index of g x_i, or None
    when that element escapes the ball; the two are inverse partial maps.
    Both are filled along the ball's search tree (see `_left_map`).
    fringe holds one (lost, seen) mask pair per fringe class: a class
    (`graphs.index_classes`, least member first) of the edges that have an
    endpoint without a preimage, kept when it holds such a vertex.  lost
    has the bits of its vertices without a preimage, seen the bits of the
    preimages of its other vertices.  Every vertex without a preimage lies
    in exactly one fringe class.  gather reads a cut's translate off its
    side string (see `act_left_cut`)."""

    pre: tuple
    img: tuple
    fringe: tuple
    gather: itemgetter = field(compare=False, repr=False)


def _left_map(bv, g):
    """The `LeftMap` of g on the ball, filled along its search tree.

    Write x_i = x_p t, with p = tree_parent[i] < i and t the letter
    tree_letter[i].  Then g^-1 x_i = (g^-1 x_p) t.  So when g^-1 x_p is the
    ball element of index pre[p], pre[i] = right[t][pre[p]]: the index of
    that element times t, or None when the product leaves the ball, which
    `BallView.right` reads exactly off the edges.  Only where pre[p] is
    None has the tree left the ball, and there g^-1 x_i is formed by one
    multiply and looked up.  One pass in index order meets every parent
    before its children.  img inverts pre by a scatter: left
    multiplication is injective, so img[pre[i]] = i, and every other entry
    is None.

    Only the vertices without a preimage and the ends of their edges lie in
    a fringe class, and every class among them holds such a vertex, so the
    classes are read off those vertices and their neighbours in the table
    alone: every edge at a vertex x joins it to x t for some letter t."""
    o = bv.oracle
    ginv = o.invert(g)
    get = bv.el_to_idx.get
    multiply = o.multiply
    right = bv.right
    n = bv.nv
    pre = [get(ginv)]
    for el, p, t in zip(bv.elements[1:], bv.tree_parent[1:], bv.tree_letter[1:]):
        q = pre[p]
        pre.append(get(multiply(ginv, el)) if q is None else right[t][q])
    pre = tuple(pre)
    # el_to_idx's values are the indices 0, 1, ..., n - 1 in order, so every
    # map shares their int objects; the None key is never looked up
    inverse = dict(zip(pre, bv.el_to_idx.values()))
    img = tuple(map(inverse.get, range(n)))
    unmapped = list(compress(range(n), map(is_, pre, repeat(None))))
    other = [
        (i, j)
        for column in right
        for i, j in zip(unmapped, map(column.__getitem__, unmapped))
        if j is not None
    ]
    touched = sorted({*unmapped, *map(itemgetter(1), other)})
    fringe = []
    for block in index_classes(n, other, touched):
        lost = seen = 0
        for i in block:
            p = pre[i]
            if p is None:
                lost |= 1 << i
            else:
                seen |= 1 << p
        fringe.append((lost, seen))
    # A side string format(bits, "0{n+1}b") holds bit i at n - i and a
    # sentinel '0' at 0 (bits < 2^n), which a vertex without a preimage
    # reads.  The leading sentinel keeps the gather a tuple on a 1-vertex
    # ball and only adds a leading zero to the translate's binary string.
    gather = itemgetter(0, *[0 if p is None else n - p for p in reversed(pre)])
    return LeftMap(pre, img, tuple(fringe), gather)


def _image_ends(bv, lm, cut):
    """The image endpoints of the cut's coboundary edges under the map lm,
    two per edge in edge order, after the escape and exposure tests of
    `act_left_cut`; raises CutError when one fails."""
    img, edges = lm.img, bv.index_edges
    ends = [img[x] for k in cut._coboundary_indices() for x in edges[k]]
    if None in ends:
        raise CutError("radius too small: translated coboundary escapes the ball")
    limit = bv.radius - 1 if not bv.exhausted else bv.radius
    if ends and max(map(bv.dist.__getitem__, ends)) > limit:
        raise CutError("radius too small: translated coboundary not interior")
    return ends


def _fringe_fill(lm, bits):
    """The bits of the vertices without a preimage that the translate of
    bits by the map lm holds, after the fringe tests of `act_left_cut`;
    raises CutError when one fails."""
    fill = 0
    for lost, seen in lm.fringe:
        if not seen:
            raise CutError("radius too small: a fringe component is undecidable")
        inside = bits & seen
        if inside:
            if inside != seen:
                raise CutError("translated cut is inconsistent on a component")
            fill |= lost
    return fill


def act_left_cut(bv, g, cut, name=None):
    """Left translate of an interior-coboundary cut, as a cut of the same
    ball.  The translated coboundary must stay interior; membership on the
    fringe (where g^-1 x escapes) is filled in per residual component.

    Reads the `LeftMap` of g, built once and kept on the ball, and the
    cut's coboundary, counted once and kept on the cut; `_image_ends` and
    `_fringe_fill` make the tests below, which `act_left_mask` shares.
    Left translation is a bijection on Cayley edges, sending the edge
    x -> xs to gx -> gxs, and the ball holds every Cayley edge between two
    of its vertices.  So
    the image of a coboundary edge (s, d) lies in the ball exactly when
    img[s] and img[d] are both indices, and the translated coboundary, the
    image of the coboundary, escapes exactly when some coboundary edge has
    an endpoint whose image is None.  It is interior exactly when, besides,
    no image endpoint lies beyond radius - 1.  The check costs
    O(|coboundary|) steps, and an escape is reported before an exposure.

    Every other ball edge is residual, and each residual component takes
    one side.  A vertex with a preimage takes its preimage's side: one
    gather of the side string.  A residual edge whose two endpoints have
    preimages is the image of the ball edge between them, which is not a
    coboundary edge, so it joins two vertices on the same side; every
    other residual edge lies in a fringe class.  So a residual component
    is a union of fringe classes and of vertices with preimages, held
    together by same-side edges, and it is mixed, or has no vertex with a
    preimage, exactly when one of its fringe classes is.  The fringe
    classes therefore decide the fill and both checks: with
    inside = bits & seen, a class is undecidable when seen is 0,
    inconsistent when 0 < inside < seen, and gives its lost vertices side
    1 when inside == seen.  The two failures never meet, so no order
    between them is lost: a class with no preimage at all is closed under
    every ball edge, hence the whole (connected) ball.

    Complements: g·~c = ~(g·c), or both raise the same CutError.  The two
    cuts share one coboundary, so the escape and exposure checks agree.
    The gather flips the side of every vertex with a preimage, and each
    fringe class reads inside' = seen ^ inside, so the undecidable and
    inconsistent tests coincide class by class, and exactly one of the two
    translates fills lost.

    The identity translate is the cut itself.  Every other result is built
    without a second interior check: its coboundary is exactly the image
    edges (each residual component takes one side), and the check above
    has just held those to radius - 1.  (On an exhausted ball the limit
    reads radius, but no vertex lies beyond radius - 1 there.)"""
    if cut.universe is not bv:
        raise CutError("cut does not live on this ball")
    if g == bv.oracle.identity():
        return Cut._checked(bv, cut.bits, name)
    lm = bv.left_map(g, _left_map)
    _image_ends(bv, lm, cut)
    bits = cut.bits
    out = int("".join(lm.gather(format(bits, "0%db" % (bv.nv + 1)))), 2)
    return Cut._checked(bv, out | _fringe_fill(lm, bits), name)


class AtomPieces:
    """The connected pieces of the atoms of a cut algebra over a ball: the
    classes (`graphs.index_classes`) of the edges that join two vertices
    of one atom, so each atom is the union of its pieces.  piece[v] is the
    piece of vertex v; per piece, reps holds its least vertex and atoms
    the bit of its atom in the algebra's atom masks."""

    __slots__ = ("algebra", "piece", "reps", "atoms")

    def __init__(self, algebra):
        universe = algebra.universe
        n = universe.nv
        atom_of = [0] * n
        for k, atom in enumerate(algebra.atoms):
            for v in compress(range(n), bit_flags(atom)):
                atom_of[v] = k
        inner = [(s, d) for s, d in universe.index_edges if atom_of[s] == atom_of[d]]
        classes = index_classes(n, inner)
        piece = [0] * n
        for c, block in enumerate(classes):
            for v in block:
                piece[v] = c
        self.algebra = algebra
        self.piece = tuple(piece)
        self.reps = tuple(block[0] for block in classes)
        self.atoms = tuple(1 << atom_of[block[0]] for block in classes)


def act_left_mask(pieces, g, cut):
    """The atom mask of the left translate g·cut in the algebra of
    `pieces`, or None when `act_left_cut` would raise CutError or its
    result is not a union of atoms: what `algebra.decompose` of that
    result gives, read without gathering the side string.

    Proof.  When the translate passes the tests of `act_left_cut`
    (`_image_ends`, `_fringe_fill`), its coboundary is exactly the image
    edges.  It is a union of atoms exactly when it is constant on every
    atom, that is on every piece of it, with the pieces of one atom
    agreeing.  A piece is connected by the edges that join two of its
    vertices, and every edge that does so joins two vertices of one atom,
    so it is one of those edges.  Hence the translate is constant on a
    piece exactly when no image coboundary edge has both ends in the piece.
    Its value on a piece is then its value at the piece's representative
    r: the cut's bit at pre[r], or the fill when r has no preimage, as
    `act_left_cut` builds it.  The mask is the set of atoms whose pieces
    read 1, when no atom has pieces on both sides.  Every failure gives
    None, so the order of the tests is free: the piece test, which reads
    only the image ends, runs before the fringe tests, which read every
    fringe class.  The identity translate is the cut itself, decomposed
    once.

    The cost is O(|coboundary| + pieces) steps, plus the fringe classes
    when the piece test passes, with no pass over every vertex."""
    bv = pieces.algebra.universe
    if cut.universe is not bv:
        raise CutError("cut does not live on this ball")
    if g == bv.oracle.identity():
        return pieces.algebra.decompose(cut.bits)
    lm = bv.left_map(g, _left_map)
    bits, at = cut.bits, pieces.piece.__getitem__
    try:
        ends = _image_ends(bv, lm, cut)
        if any(map(eq, map(at, ends[::2]), map(at, ends[1::2]))):
            return None
        fill = _fringe_fill(lm, bits)
    except CutError:
        return None
    pre = lm.pre
    ones = zeros = 0
    for r, atom in zip(pieces.reps, pieces.atoms):
        p = pre[r]
        if (fill >> r if p is None else bits >> p) & 1:
            ones |= atom
        else:
            zeros |= atom
    return None if ones & zeros else ones


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
