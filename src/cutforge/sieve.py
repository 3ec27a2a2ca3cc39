"""Measure sieve over a finite cut algebra.

An element C of the algebra is reducible when it lies in the Boolean
subalgebra generated by the elements of strictly smaller measure, where
measure is the path-count series under lexicographic order.  On a
connected universe the irreducible elements form a complement-stable,
pairwise nested family that still generates the whole algebra; that family
is what the tree builders consume.

Exactness: `classify` compares the series on degrees 0..k, k the number of
blocks of the atoms' equitable partition, and two series that agree there
agree at every degree (the proof is in its docstring).  So every verdict is
the one of the untruncated series, and no length L enters it; L only sets
how many coefficients `full_series` prints.

Laziness: `classify` visits the atom unions by increasing c_1, their cut
weight in the atom quotient, which is the first coefficient the
lexicographic order reads (c_0 is always 0), and stops once the elements
seen so far generate every atom: all later elements are reducible.  So it
lists no table over the 2^atoms elements, and the proofs of both steps are
in its docstring.  Its report is a plain record of the irreducible
elements; only `full_series` (and so `sieve --json`) lists the series of
every element, up to MAX_LISTED_ATOMS atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain, groupby
from operator import add, itemgetter, sub

from .cuts import (
    AtomPieces,
    Cut,
    act_left_mask,
    boolean_closure,
    containment,
    refine,
)
from .graphs import index_classes
from .series import atom_pair_prefix, atom_pair_table
from . import trees

# the most atoms whose 2^atoms element series full_series lists
MAX_LISTED_ATOMS = 12


class SieveError(ValueError):
    pass


@dataclass(frozen=True)
class SieveElement:
    mask: int  # atom-subset index
    bits: int  # vertex bit mask
    # measure coefficients 0..k: the prefix that decides the order (see
    # classify); full_series(report, L) gives coefficients 0..L
    series: tuple


@dataclass(frozen=True)
class SieveReport:
    algebra: object
    # range(1 << atoms), the elements by atom mask; kept because the
    # benchmark's classify hook reads len(elements), which overflows at 63
    # atoms
    elements: range
    # 1 << atoms, the number of elements, as the transcripts print it
    element_count: int
    # the irreducible SieveElements, by (series, mask); every other element
    # is reducible
    irreducible: tuple
    # always 0, as every verdict is exact; kept because the split and sieve
    # transcripts print it and the benchmark's classify hook reads it
    undecided_count: int
    complement_stable: bool
    nested: bool
    generates: bool


def _is_union(m, blocks):
    for b in blocks:
        x = m & b
        if x and x != b:
            return False
    return True


def _lanes(table):
    """lanes[i*a + j] = T_ij = (table[0][i][j], ..., table[L][i][j])."""
    return list(zip(*map(chain.from_iterable, table)))


def _series_by_mask(table, a, L):
    """Series of every atom union, one lane operation per mask.

    Write T_ij for the lane (table[0][i][j], ..., table[L][i][j]) of walks
    from atom i into atom j, add and subtract lanes degree by degree, and
    let c(m) = sum over i in m, j not in m of T_ij, the series of the union
    of the atoms in mask m.  Let k be the lowest atom of m and p = m - {k},
    so p holds only atoms above k.  Then
        c(m) = c(p) + F_k(p),  F_k(p) = (R_k - T_kk) - D_k(p),
    with R_k = sum over every j of T_kj and D_k(p) = sum over i in p of
    (T_ki + T_ik).  Proof: split the sum of c(m) at i = k.  The atoms
    outside m are those outside p less k, so the part with i in p is c(p)
    less the walks from p into k, sum over i in p of T_ik; and the part
    with i = k is the walks from k to every atom but k and those of p,
    R_k - T_kk - sum over i in p of T_ki.  No symmetry of T is used.
    F_k is a subset sum over the atoms above k, built by the same rule:
    F_k(empty) = R_k - T_kk, and F_k(q) = F_k(q - {i}) - (T_ki + T_ik) for
    any atom i of q (the build takes the highest, so F_k stays in mask
    order).  Atom k runs from a - 1 down to 0, so c(p) is known when the
    masks with lowest atom k need it: p is empty, with c = 0, or has a
    higher lowest atom.  A mask costs two `map` passes over its L + 1
    lanes, and F_k lives only while atom k is built."""
    zero = (0,) * (L + 1)
    lanes = _lanes(table)
    out = [zero] * (1 << a)
    for k in reversed(range(a)):
        row = lanes[k * a:(k + 1) * a]
        # f[q]: F_k of the atoms k + 1 + t for the bits t of q
        f = [tuple(map(sum, zip(zero, *row[:k], *row[k + 1:])))]
        for i in range(k + 1, a):
            s = tuple(map(add, row[i], lanes[i * a + k]))
            f += [tuple(map(sub, x, s)) for x in f]
        # the masks with lowest atom k, 2^k + q 2^(k+1), from p = q 2^(k+1)
        out[1 << k::2 << k] = [tuple(map(add, c, x)) for c, x in zip(out[::2 << k], f)]
    return out


def _cut_weight_buckets(weights):
    """Every atom union, in buckets of equal cut weight, lightest first.

    The cut weight of mask m is w(m) = sum over i in m, j not in m of
    weights[i][j], for a symmetric table (the diagonal is never read), so
    w(m) = w(~m).  A best-first search over partial assignments lists the
    masks without sorting all 2^a of them.  Atoms are decided in BFS order
    of the quotient from atom 0, and the first one always goes inside, so a
    complete assignment m stands for the pair m, ~m, which its bucket lists
    side by side.  A state that has decided the atoms before position d
    has the key
        cut + sum over undecided v of min(in_v, out_v),
    where cut is the weight between its decided inside and outside atoms,
    and in_v, out_v are the weights from v to them.  Every completion of the
    state pays at least that: each undecided atom goes to one side and pays
    its weight to the decided atoms of the other.  Deciding one more atom
    never lowers the key: its own term becomes its weight to the other side,
    at least the minimum, and the others' weights only grow.  A complete
    state's key is w(m).  So states leave the heap by nondecreasing key, a
    complete one leaves it after every lighter mask, and once no state in
    the heap has a key as low as w, the bucket of weight w is complete.
    Each bucket is yielded as soon as it is; the caller stops the search
    when it has seen enough, so the search only expands the states lighter
    than the last bucket it asks for."""
    a = len(weights)
    full = (1 << a) - 1
    order = [0]
    seen = {0}
    for i in order:
        for j in range(a):
            if weights[i][j] and j not in seen:
                seen.add(j)
                order.append(j)
    order += [j for j in range(a) if j not in seen]
    # rows[d]: the weights from the atom at position d to the later ones
    rows = [tuple(weights[order[d]][j] for j in order[d + 1:]) for d in range(a)]
    # (key, -depth, cut, mask, in_v, out_v): keys tie deepest first, and
    # (depth, mask) names a state, so the weight tuples are never compared
    heap = [(0, -1, 0, 1 << order[0], rows[0], (0,) * (a - 1))]
    bucket, weight = [], 0
    while heap:
        if bucket and heap[0][0] > weight:
            yield bucket
            bucket = []
        key, neg_d, cut, mask, ins, outs = heappop(heap)
        d = -neg_d
        if d == a:
            bucket += (mask, full ^ mask)
            weight = key
            continue
        row, bit = rows[d], 1 << order[d]
        rest_in, rest_out = ins[1:], outs[1:]
        grown = tuple(map(add, rest_in, row))
        c = cut + outs[0]
        heappush(heap, (c + sum(map(min, grown, rest_out)), -d - 1, c, mask | bit,
                        grown, rest_out))
        grown = tuple(map(add, rest_out, row))
        c = cut + ins[0]
        heappush(heap, (c + sum(map(min, rest_in, grown)), -d - 1, c, mask,
                        rest_in, grown))
    yield bucket  # the search ends on a complete state


def _union_series(lanes, a, m, zero):
    """Series of the union of the atoms in mask m, summed from its
    |m| (a - |m|) lanes T_ij, i in m and j not (see `_series_by_mask`)."""
    ins = [i * a for i in range(a) if (m >> i) & 1]
    outs = [j for j in range(a) if not (m >> j) & 1]
    return tuple(map(sum, zip(zero, *[lanes[i + j] for i in ins for j in outs])))


def classify(algebra):
    """Sieve every element of the algebra by its measure series.

    Exactness.  The verdicts are computed from the prefix of degree k, and
    they are the verdicts of the untruncated series.  Here A is the
    adjacency matrix of the universe, w_i the atom indicators, and k the
    number of blocks of the coarsest equitable partition that refines the
    atoms (`series.atom_pair_prefix`): every vertex of block X has the same
    number B[X][Y] of darts into block Y (Godsil and Royle, "Algebraic
    Graph Theory", 2001, section 9.3).  So A 1_Y = sum_X B[X][Y] 1_X: the
    span of the k block indicators is A-invariant, A acts on it by the
    integer k x k matrix B, and it holds every w_i.  The characteristic
    polynomial q of B is monic of degree k, and q(A) kills that span by
    Cayley-Hamilton, so q(A) w_i = 0 for every atom.  (The discrete
    partition, k = n = |V|, gives the characteristic polynomial of A.)
    Proof: every series here is a sum of terms u^T A^l w_i for 0/1 vectors
    u, so is the difference D_l of two element series, D_l = sum_i
    u_i^T A^l w_i for fixed u_i.  With q = x^k + q_(k-1) x^(k-1) + ... + q_0,
    A^(l+k) w_i = -(q_(k-1) A^(l+k-1) w_i + ... + q_0 A^l w_i), hence
    D_(l+k) = -(q_(k-1) D_(l+k-1) + ... + q_0 D_l) for every l >= 0.  If
    D_l = 0 for l < k, then D_l = 0 for every l.  Two series that agree
    through degree k therefore agree at every degree, and two that differ
    do so first at a pivot l < k, where the prefix already holds both
    coefficients.  The lexicographic order, the tie groups and so every
    status, the irreducible order and the class order of
    `select_nested_generating` are those of the series at any length
    L >= k; `full_series` builds them for the callers that print them.

    Order.  The sieve visits the elements by increasing measure, one tie
    group at a time, and `blocks` is the atom partition that every strictly
    smaller group generates, so an element is reducible exactly when it is
    a union of blocks.  Every series starts c_0 = 0 (a walk of length 0
    stays in its set), and c_1 is the cut weight of the union in the atom
    quotient, table[1][i][j] summed over i in the union and j outside it.
    So the lexicographic (series, mask) order of all 2^a masks is the
    order of (c_1, series, mask): the c_1 buckets, lightest first, each
    sorted by (series, mask), and a tie group never spans two buckets.
    `_cut_weight_buckets` lists the buckets without listing the masks.  It
    needs table[1] symmetric, and every level is: a walk from atom i to
    atom j, reversed, is one from j to i.  So a union and its complement
    have the same series, and each complement pair is summed once.

    Stopping.  Once the blocks are the atoms, every mask is a union of
    blocks, so every later mask is reducible, and refining by it changes
    nothing.  The visit stops at the end of that bucket, and every mask it
    did not visit is reducible.  It does stop: refining by every mask ends
    at the atoms.  On the split ladder that is after about 2a masks.  Only
    the irreducible elements are kept, in `SieveReport.irreducible`, and
    every mask not in it is reducible; the report holds no table, so the
    atom-pair prefix is freed when classify returns.

    The report's flags are computed, not assumed: `complement_stable` holds
    when the irreducible set is closed under complement, which is the same
    as every status equalling its complement's, since the complement map is
    an involution and the reducible masks, visited or not, are the rest;
    `nested` holds when `cuts.containment` over the irreducible atom masks,
    at width a, finds no crossing pair.  Atoms are disjoint and nonempty, so
    a union of atoms contains, meets or misses another exactly when its
    mask does, and the masks cross exactly where the vertex bits do.
    `generates` refines the atoms by the irreducible masks.
    """
    universe = algebra.universe
    if len(index_classes(universe.nv, universe.index_edges)) != 1:
        raise SieveError("measure sieve needs a connected universe")
    a = algebra.n_atoms
    table = atom_pair_prefix(universe, algebra.atoms)
    lanes = _lanes(table)
    zero = (0,) * len(table)
    full = (1 << a) - 1
    blocks = [full] if full else []
    irr = []
    if len(blocks) < a:
        for bucket in _cut_weight_buckets(table[1]):
            ranked = []
            for m in bucket[::2]:  # a bucket lists complement pairs m, ~m
                series = _union_series(lanes, a, m, zero)
                ranked += ((series, m), (series, full ^ m))
            ranked.sort()
            for series, group in groupby(ranked, key=itemgetter(0)):
                group = [m for _s, m in group]
                irr += [SieveElement(m, algebra.element_bits(m), series)
                        for m in group if not _is_union(m, blocks)]
                blocks = refine(blocks, group)
            if len(blocks) == a:
                break
    irr_masks = [e.mask for e in irr]
    comp_stable = {full ^ m for m in irr_masks} == set(irr_masks)
    _, _, crossing = containment(irr_masks, a)
    nested = not any(crossing)
    generates = all(
        b.bit_count() == 1 for b in refine([full], irr_masks)
    ) if full else True
    return SieveReport(algebra, range(1 << a), 1 << a, tuple(irr), 0, comp_stable, nested,
                       generates)


def full_series(report, L):
    """Measure series of every element at length L, in mask order; classify
    keeps only the prefix that decides its verdicts."""
    algebra = report.algebra
    a = algebra.n_atoms
    if a > MAX_LISTED_ATOMS:
        raise SieveError(
            "measure sieve: algebra has %d atoms; listing all 2^%d elements "
            "is capped at MAX_LISTED_ATOMS = %d; pass fewer cuts (for sieve, "
            "drop --json)" % (a, a, MAX_LISTED_ATOMS)
        )
    return _series_by_mask(atom_pair_table(algebra.universe, algebra.atoms, L), a, L)


def _paired_cuts(report):
    """Irreducible elements as named Cuts: complement pairs c0/~c0, c1/~c1,
    ... in (series, mask) order, the smaller atom mask of a pair unmarked,
    so cuts 2t and 2t + 1 are complements.  A mask and its complement have
    one series, and each is a union of blocks when the other is, so the
    irreducible set holds both."""
    universe = report.algebra.universe
    full = (1 << report.algebra.n_atoms) - 1
    by_mask = {el.mask: el for el in report.irreducible}
    cuts = []
    for el in report.irreducible:
        if el.mask in by_mask:  # else its pair is named already
            label = "c%d" % (len(cuts) // 2,)
            for name, m in zip((label, "~" + label), sorted((el.mask, full ^ el.mask))):
                cuts.append(Cut(universe, by_mask.pop(m).bits, name))
    return tuple(cuts)


def irreducible_family(cuts):
    """Sieve the closure of a cut family and return (report, irreducible
    cuts).  The guarantees of the sieve (complement-stable, nested,
    regenerates the algebra) are verified and enforced, not assumed."""
    report = classify(boolean_closure(list(cuts)))
    if not report.complement_stable:
        raise SieveError("irreducibility is not complement-stable (internal)")
    if not report.nested:
        raise SieveError("irreducible family is not pairwise nested")
    if not report.generates:
        raise SieveError("irreducible family does not regenerate the algebra")
    return report, _paired_cuts(report)


@dataclass(frozen=True)
class Selection:
    system: object  # trees.NestedSystem
    report: SieveReport
    kept: tuple  # Cuts
    removed: tuple  # names of cuts dropped by the greedy pass, in drop order
    # per action word, per kept cut: the kept index of the cut's left
    # translate, or None when it is not representable or not in the family
    images: tuple


def select_nested_generating(cuts, action=None):
    """Thin the irreducible family down to a nested system that still
    generates every input cut.

    action: optional (element, word) pairs; removal then only drops whole
    classes closed under complementation and the partial left action (an
    image counts when it is representable and lands in the family).  The
    greedy pass visits classes by descending measure, then first-appearance
    order, and keeps a class whenever dropping it would lose some input cut.
    The translates made here are returned as `Selection.images`, the edge
    images of `trees.build_partial_action`; a kept class is closed under the
    action, so the image of a kept cut in the family is a kept cut.

    A translate is read only as its atom mask: `cuts.act_left_mask` reads it
    off the translated coboundary and one representative per connected
    piece of each atom (`cuts.AtomPieces`, built once here), and gives None
    exactly where `act_left_cut` refuses or its result is not a union of
    atoms.  No translate gathers its side string.
    """
    cuts = list(cuts)
    report, irr = irreducible_family(cuts)
    algebra = report.algebra
    universe = algebra.universe
    full = (1 << algebra.n_atoms) - 1
    masks = [algebra.decompose(c.bits) for c in irr]
    pos = {m: i for i, m in enumerate(masks)}

    # complement pairs 2t, 2t + 1 (`_paired_cuts`), then representable
    # translates in the family.  As g·~c = ~(g·c) (`act_left_cut`), only cut
    # 2t is translated: when it goes to cut j, cut 2t + 1 goes to j ^ 1.
    pairs = [(i, i ^ 1) for i in range(len(irr))]
    rows = []  # per word, per irreducible cut: the index of its translate
    if action:
        if not hasattr(universe, "oracle"):
            raise SieveError("action data needs a ball universe")
        pieces = AtomPieces(algebra)
        for el, _word in action:
            row = []
            for i in range(0, len(irr), 2):
                j = pos.get(act_left_mask(pieces, el, irr[i]))
                if j is not None:
                    pairs.append((i, j))
                row += (j, None if j is None else j ^ 1)
            rows.append(row)
    classes = index_classes(len(irr), pairs)
    targets = [algebra.decompose(c.bits) for c in cuts]
    series = {el.mask: el.series for el in report.irreducible}

    def covers(kept_indices):
        blocks = refine([full], [masks[i] for i in kept_indices])
        return all(_is_union(t, blocks) for t in targets)

    order = sorted(
        classes,
        key=lambda idxs: (
            tuple(-c for c in max(series[masks[i]] for i in idxs)),
            min(idxs),
        ),
    )
    kept = set(range(len(irr)))
    removed = []
    for idxs in order:
        trial = kept.difference(idxs)
        if covers(trial):
            kept = trial
            removed.extend(irr[i].name for i in idxs)
    kept = sorted(kept)
    kept_cuts = tuple(irr[i] for i in kept)
    system = trees.verify_system(kept_cuts)
    if not system.valid:
        raise SieveError(
            "selected family fails system flags: %s" % (system.failures(),)
        )
    kept_pos = {i: p for p, i in enumerate(kept)}
    images = tuple(tuple(kept_pos.get(row[i]) for i in kept) for row in rows)
    return Selection(system, report, kept_cuts, tuple(removed), images)
