"""Ends from ball data, and the splitting pipeline.

The end count of a finitely generated group is approximated exactly on the
built-in families by counting residual components of a large ball after the
edges of a smaller ball are deleted; a component is flagged infinite when it
reaches the outer sphere.  `ends_profile` gets every radius from one
union-find sweep over the ball's index edges, shell by shell from the
outside in, and never builds the ball's string graph.  A balanced cut is
one infinite side of a small central edge set.  The pipeline pushes such a
cut through its word orbit, the measure sieve, and the paired tree, then
collapses partial edge orbits one at a time until the remaining evidence
first pins down a fixed vertex; the orbit collapsed at that stage is the
edge set of the reported one-orbit tree.  A `split` report is audited
against two facts about group actions on trees before it is printed
(`_audit`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from . import trees
from .cuts import Cut, CutError, full_mask, orbit_cuts
from .graphs import index_classes, path_vertices, reduced_path
from .groups import ball
from .series import certified_length
from .sieve import DepthTieError, select_nested_generating

DEFAULT_RADIUS = 6
DEFAULT_WORD_BOUND = 2


class EndsError(ValueError):
    pass


@dataclass(frozen=True)
class EndsProfile:
    radii: tuple
    counts: tuple
    classification: str  # zero | one | two | infinitely_many | undetermined
    witness: object  # growth window for infinitely_many, else None


def _growth_window(radii, counts):
    for i in range(len(counts) - 2):
        if counts[i] < counts[i + 1] < counts[i + 2]:
            return (radii[i], radii[i + 1], radii[i + 2])
    return None


def ends_profile(oracle, rmax=DEFAULT_RADIUS):
    """Infinite-component counts of ball(rmax) minus the edges of ball(R),
    for R = 1..rmax-1, with the sphere-touching rule.

    An edge lies in ball(R) when both of its endpoints do, so removing the
    edges of ball(R) keeps exactly the edges whose farther endpoint is at
    distance > R, the shells R+1..rmax.  As R falls the kept edge set only
    grows, so one union-find over vertex indices serves every radius: R
    walks from rmax-1 down to 1, and at each step the edges of shell R+1
    are united in.  The count at R is the number of blocks that hold a
    sphere vertex.  Before any union every vertex is its own block, so the
    count starts at |sphere|; a union changes it only when it joins two
    blocks that both hold sphere vertices, and then lowers it by one.  A
    finite (exhausted) ball has an empty sphere, so every count is 0.
    """
    if rmax < 2:
        raise EndsError("rmax must be at least 2")
    bv = ball(oracle, rmax)
    dist = bv.dist
    shells = [[] for _ in range(rmax + 1)]
    for edge in bv.index_edges:
        s, d = edge
        shells[max(dist[s], dist[d])].append(edge)
    parent = list(range(bv.nv))
    flagged = [False] * bv.nv
    for i in bv.sphere:
        flagged[i] = True
    live = len(bv.sphere)
    counts = []
    for r in range(rmax - 1, 0, -1):
        for s, d in shells[r + 1]:
            while parent[s] != s:
                parent[s] = s = parent[parent[s]]
            while parent[d] != d:
                parent[d] = d = parent[parent[d]]
            if s == d:
                continue
            if flagged[s]:
                if flagged[d]:
                    live -= 1
                flagged[d] = True
            parent[s] = d
        counts.append(live)
    radii = tuple(range(1, rmax))
    counts = tuple(reversed(counts))
    if bv.exhausted:
        cls, witness = "zero", None
    elif all(c == 1 for c in counts):
        cls, witness = "one", None
    elif all(c == 2 for c in counts):
        cls, witness = "two", None
    else:
        witness = _growth_window(radii, counts)
        cls = "infinitely_many" if witness is not None else "undetermined"
    return EndsProfile(radii, counts, cls, witness)


def _candidate_edges(bv):
    """The edge index sets that `balanced_cut` tries, in order: per
    generator, the class of the edges that join the identity to it, then
    the edge sets of the balls of radius 1 and 2.  The generator classes
    come from one pass over the edges: the identity has index 0, so an edge
    at it has 0 for one endpoint, and its other endpoint names the class."""
    edges = bv.index_edges
    dist = bv.dist
    at_identity = defaultdict(set)
    for k, (s, d) in enumerate(edges):
        if not (s and d):
            at_identity[s or d].add(k)
    # at R = 0 a generator is not in the ball, and None names no class
    candidates = [at_identity.get(bv.el_to_idx.get(gel), set())
                  for _name, gel in bv.oracle.generators()]
    for r in (1, 2):
        candidates.append(
            {k for k, (s, d) in enumerate(edges) if dist[s] <= r and dist[d] <= r}
        )
    return candidates


def balanced_cut(oracle, radius=DEFAULT_RADIUS):
    """One infinite side (plus enclosed finite components) of a small central
    edge set: per-generator parallel classes at the identity are tried first,
    then the edge sets of balls 1 and 2, each only when it avoids the
    sphere, so that the cut's coboundary is interior."""
    bv = ball(oracle, radius)
    if bv.exhausted:
        raise EndsError("no balanced cut: the group is finite")
    edges = bv.index_edges
    dist = bv.dist
    # the sphere is the index suffix range(lo, nv) and a block is sorted, so
    # a block meets the sphere exactly when its largest index does
    lo = bv.sphere.start
    for cls in _candidate_edges(bv):
        # the side's coboundary lies in cls: a class reaching the sphere is
        # not interior
        if not cls or any(dist[i] >= radius for k in cls for i in edges[k]):
            continue
        blocks = index_classes(bv.nv, [p for k, p in enumerate(edges) if k not in cls])
        flagged = [b for b in blocks if b[-1] >= lo]
        if len(flagged) < 2:
            continue
        bits = 0
        for b in blocks:
            if b is flagged[0] or b[-1] < lo:
                for i in b:
                    bits |= 1 << i
        cut = Cut(bv, bits, name="A")
        full = full_mask(bv)
        sm = bv.sphere_mask()
        if not (cut.bits & sm) or not ((full ^ cut.bits) & sm):
            raise EndsError("candidate side lost its sphere contact (internal)")
        return cut
    # a candidate inside the radius-r ball (r = 1 for a generator class)
    # reaches the sphere exactly when r >= R, so the refusal names the others
    if radius < 2:
        raise EndsError(
            "no balanced cut: at radius R=%d, every candidate edge set of "
            "balanced_cut (the generator edge classes at the identity and the "
            "edge sets of the radius-1 and radius-2 balls) reaches the sphere, "
            "so none was tried; pass a larger --radius (at 3 or more, all are "
            "tried)" % (radius,)
        )
    raise EndsError(
        "no balanced cut: at radius R=%d, balanced_cut tried the generator "
        "edge classes at the identity and the %s inside R, and no candidate "
        "left two sides that touch the sphere; a one-ended group such as zd:2 "
        "has no such cut, and a group with more ends may need a larger "
        "--radius"
        % (radius, "edge sets of the radius-1 and radius-2 balls"
           if radius > 2 else "edge set of the radius-1 ball")
    )


@dataclass(frozen=True)
class SplittingReport:
    status: str  # split | undetermined
    cut_name: str
    cut_size: int
    orbit_words: tuple
    sieve_elements: int
    sieve_irreducible: int
    sieve_undecided: int
    certificate: str
    # the selection and the paired tree; a report that stops at the sieve
    # (a crossing tie of the depth order) has neither
    kept: tuple = ()
    removed: tuple = ()
    tree_vertices: int = 0
    tree_edges: int = 0
    edge_orbit_count: int = 0
    vertex_orbit_count: int = 0
    collapse_log: tuple = ()  # per stage, the cut names of the collapsed orbit
    stree: object = None
    stage: object = None  # first fixing stage (1-based), or None
    # the final tree's figures, set on a split report only.  Stabilizer
    # "orders" are counts within the word ball, not group orders: the number
    # of distinct elements of length <= W (identity included) that fix a
    # vertex or edge, maximised over the orbit.  They grow with W where the
    # true stabilizer is infinite.
    final_edge_orbit_count: object = None
    final_vertex_orbit_count: object = None
    final_vertex_stabilizer_orders: tuple = ()  # per vertex orbit
    final_edge_stabilizer_order: object = None  # its one edge orbit
    final_partial: object = None
    diagnostics: object = None  # why an undetermined report is one

    def lines(self):
        out = [
            "cut %s (%d vertices), orbit of %d translates"
            % (self.cut_name, self.cut_size, len(self.orbit_words)),
            "sieve: %d algebra elements, %d irreducible, %d undecided"
            % (self.sieve_elements, self.sieve_irreducible, self.sieve_undecided),
        ]
        if self.stree is not None:
            out += [
                "system kept %d cuts (%d dropped)" % (len(self.kept), len(self.removed)),
                "tree: %d vertices, %d edges, %d edge orbits, %d vertex orbits"
                % (
                    self.tree_vertices,
                    self.tree_edges,
                    self.edge_orbit_count,
                    self.vertex_orbit_count,
                ),
            ]
        for i, names in enumerate(self.collapse_log, start=1):
            out.append("stage %d: collapse {%s}" % (i, ", ".join(names)))
        if self.status == "split":
            out.append(
                "final tree: 1 edge orbit, %d vertex orbits, vertex stabilizers "
                "%s, edge stabilizer %d"
                % (
                    self.final_vertex_orbit_count,
                    list(self.final_vertex_stabilizer_orders),
                    self.final_edge_stabilizer_order,
                )
            )
        else:
            out.append("undetermined: %s" % (self.diagnostics,))
        out.append(self.certificate)
        return out


def _fixes_no_vertex(tree, vm):
    """How the defined images of the vertex map vm show that it fixes no
    vertex of the tree without inverting an edge (see `_audit`), or None
    when they do not show it."""
    names = tree.vertices
    for v, img in enumerate(vm):
        if img is None or img == v:
            continue
        seq = path_vertices(tree, reduced_path(tree, names[v], names[img]))
        if len(seq) % 2 == 0:
            return "moves a vertex of the final tree an odd distance"
        mid = tree.vindex[seq[len(seq) // 2]]
        if vm[mid] not in (None, mid):
            return (
                "moves the midpoint of a vertex of the final tree and its image"
            )
    return None


def _audit(oracle, final):
    """Why a one-edge-orbit final tree cannot be right, or None.

    Rule 1: a generator of finite order (`GroupOracle.order`) must fix a
    vertex of the final tree.  It generates a finite group, and a finite
    group acting on a tree without inversion fixes a vertex (Serre, Trees,
    I.4.3).  A report reads as an amalgam or an HNN extension, which
    presumes an action without inversion.  The evidence is partial, and a
    fixed vertex may well have no defined image, so the rule fails a
    generator only on moves that no vertex-fixing element makes.  If g
    fixes a vertex, let p be the fixed vertex nearest to v.  The paths
    from p to v and from p to gv start on different edges (an edge that
    g fixes would put a fixed vertex nearer to v), so d(v, gv) = 2 d(v, p)
    is even and the midpoint p of v and gv is fixed.  A move v -> gv at an
    odd distance, or one whose midpoint has a defined image other than
    itself, therefore fails the rule.

    Rule 2: if every generator fixes a vertex, the final tree needs at
    least two vertex orbits.  A group acting on a tree maps onto the
    fundamental group of the quotient graph, and every vertex stabilizer
    lies in the kernel; a group generated by elements that fix vertices
    therefore has a tree as its quotient graph (Serre, Trees, I.6.5).  A
    tree with one edge has two vertices, while one vertex orbit and one
    edge orbit make a loop: an HNN extension, which maps onto Z.  So
    Z/3*Z/4, whose abelianization Z/12 is finite, has no such splitting."""
    fixing = []
    for (name, g), w in zip(oracle.generators(), final.gen_word_pos):
        vm = final.vertex_images[w]
        fixing.append(any(img == v for v, img in enumerate(vm)))
        order = oracle.order(g)
        how = _fixes_no_vertex(final.graph, vm) if order is not None else None
        if how is not None:
            return (
                "the split fails its audit: generator %s has order %d but %s, "
                "so it fixes no vertex, and a finite group acting on a tree "
                "without inversion fixes a vertex (Serre, Trees, I.4.3)"
                % (name, order, how)
            )
    if all(fixing) and len(final.vertex_orbits()) < 2:
        return (
            "the split fails its audit: every generator (%s) fixes a vertex "
            "of the final tree, so its quotient graph is a tree (Serre, "
            "Trees, I.6.5), but the final tree has one edge orbit and one "
            "vertex orbit" % (", ".join(name for name, _g in oracle.generators()),)
        )
    return None


def splitting_pipeline(
    oracle,
    cut=None,
    words=DEFAULT_WORD_BOUND,
    radius=DEFAULT_RADIUS,
):
    """Cut orbit -> sieve -> paired tree -> staged orbit collapse.

    Stops at the first stage whose cumulative collapse leaves a vertex fixed
    by every generator; the report's final tree keeps exactly the orbit
    collapsed at that stage.  When collapsing the other orbits already
    fixes a vertex, that final tree shows no splitting and the report is
    undetermined, naming the stage.  A final tree that fails `_audit` also
    ends undetermined, naming the generator and the rule.  A word bound
    below 1 is refused first, then an empty or whole-ball cut; one-ended
    and finite groups are refused by balanced_cut when no cut is supplied.
    The certificate names the certified length L = 4|V| + 1 of the ball.
    The sieve orders the orbit's algebra by the walk levels 0..D that every
    translate sees alike (`sieve.invariant_depth`); when those levels tie a
    crossing pair, the report is undetermined at the sieve and names D and
    the remedy, a larger radius."""
    if words < 1:
        raise EndsError(
            "word bound: W=%d gives the cut no translates to compare; pass "
            "--words 1 or more" % (words,)
        )
    if cut is None:
        cut = balanced_cut(oracle, radius)
    bv = cut.universe
    if not hasattr(bv, "oracle"):
        raise EndsError("the pipeline needs a cut over a Cayley ball")
    if cut.bits in (0, full_mask(bv)):
        raise EndsError(
            "cut: %s is %s (R=%d); pass a cut with vertices on both sides"
            % (cut.name or "A", "the whole ball" if cut.bits else "empty", bv.radius)
        )
    wlist = bv.oracle.words_up_to(words)
    try:
        orb = orbit_cuts(bv, cut, wlist)
    except CutError as exc:
        raise EndsError(
            "cut orbit: %s (R=%d, W=%d); pass a larger --radius or a smaller "
            "--words" % (exc, bv.radius, words)
        )
    L = certified_length(bv)
    certificate = "ball-verified(R=%d, W=%d, L=%d)" % (bv.radius, words, L)
    evidence = "(R=%d, W=%d)" % (bv.radius, words)

    def sieved(report):
        return dict(
            cut_name=cut.name or "A",
            cut_size=cut.bits.bit_count(),
            orbit_words=orb.words,
            sieve_elements=report.element_count,
            sieve_irreducible=len(report.irreducible),
            sieve_undecided=report.undecided_count,
            certificate=certificate,
        )

    try:
        selection = select_nested_generating(orb.cuts, action=wlist)
    except DepthTieError as exc:
        return SplittingReport(
            status="undetermined",
            diagnostics=(
                "the sieve's order ties a crossing pair of irreducible cuts "
                "on walk levels 0..D=%d, the levels every translate sees alike "
                "within the ball evidence %s, so its family is not nested; "
                "pass --radius %d for more such levels"
                % (exc.depth, evidence, bv.radius + 1)
            ),
            **sieved(exc.report),
        )
    report = selection.report
    stree = trees.paired_tree(selection.system)
    paction = trees.build_partial_action(stree, wlist, selection.images)
    eorbs = paction.edge_orbits()
    vorbs = paction.vertex_orbits()
    g = stree.graph

    def orbit_names(block):
        return tuple(map(stree.cut_names.__getitem__, block))

    common = dict(
        **sieved(report),
        kept=selection.kept,
        removed=selection.removed,
        tree_vertices=g.nv,
        tree_edges=g.ne,
        edge_orbit_count=len(eorbs),
        vertex_orbit_count=len(vorbs),
        stree=stree,
    )

    stage = None
    acc = []
    for m, block in enumerate(eorbs, start=1):
        acc.extend(block)
        collapsed = paction.collapse([g.edges[k][0] for k in acc])
        if collapsed.fixed_vertices():
            stage = m
            break
    if stage is None:
        diagnostics = (
            "no vertex is fixed by all generators at any collapse stage within "
            "the ball evidence %s; words that gave no evidence (cut images "
            "missing or inconsistent on the tree): %s"
            % (evidence, ", ".join(paction.blind_words()) or "none")
        )
    else:
        final = paction.collapse(
            [g.edges[k][0] for i, b in enumerate(eorbs) if i != stage - 1 for k in b]
        )
        f_eorbs = final.edge_orbits()
        if len(f_eorbs) != 1:
            raise EndsError("final tree has %d edge orbits, expected 1" % (len(f_eorbs),))
        if final.fixed_vertices():
            diagnostics = (
                "the stage %d orbit {%s} gives no splitting: collapsing the other "
                "edge orbits already fixes a vertex within the ball evidence %s"
                % (stage, ", ".join(orbit_names(eorbs[stage - 1])), evidence)
            )
        else:
            failed = _audit(bv.oracle, final)
            diagnostics = (
                None if failed is None else "%s; ball evidence %s" % (failed, evidence)
            )
    # eorbs[:None] is every orbit: with no fixing stage, the log names them all
    common.update(
        collapse_log=tuple(orbit_names(b) for b in eorbs[:stage]), stage=stage
    )
    if diagnostics is not None:
        return SplittingReport(status="undetermined", diagnostics=diagnostics, **common)
    f_vorbs = final.vertex_orbits()
    return SplittingReport(
        status="split",
        final_edge_orbit_count=1,
        final_vertex_orbit_count=len(f_vorbs),
        final_vertex_stabilizer_orders=tuple(
            final.orbit_max_vertex_stabilizer(b) for b in f_vorbs
        ),
        final_edge_stabilizer_order=final.orbit_max_edge_stabilizer(f_eorbs[0]),
        final_partial=final,
        **common,
    )
