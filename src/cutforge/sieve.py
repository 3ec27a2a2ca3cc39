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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from .cuts import (
    Cut,
    CutError,
    act_left_cut,
    boolean_closure,
    full_mask,
    is_nested_bits,
    refine,
)
from .graphs import index_classes
from .series import atom_pair_prefix, atom_pair_table
from . import trees

MAX_SIEVE_ATOMS = 12


class SieveError(ValueError):
    pass


@dataclass(frozen=True)
class SieveElement:
    mask: int  # atom-subset index
    bits: int  # vertex bit mask
    # measure coefficients 0..k: the prefix that decides the order (see
    # classify); full_series(report, L) gives coefficients 0..L
    series: tuple
    status: str  # "reducible" | "irreducible"


@dataclass(frozen=True)
class SieveReport:
    algebra: object
    elements: tuple  # SieveElement per atom subset, in mask order
    irreducible: tuple  # the irreducible SieveElements, by (series, mask)
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


def _series_by_mask(table, a, L):
    """Series of every atom union, assembled incrementally: adding atom k to
    a set gains the walks k -> outside and loses the walks inside -> k."""
    out = [None] * (1 << a)
    out[0] = (0,) * (L + 1)
    for m in range(1, 1 << a):
        k = (m & -m).bit_length() - 1
        prev = m ^ (1 << k)
        base = out[prev]
        coeffs = []
        for l in range(L + 1):
            row = table[l][k]
            gain = 0
            for j in range(a):
                if not (m >> j) & 1:
                    gain += row[j]
            loss = 0
            pm = prev
            while pm:
                i = (pm & -pm).bit_length() - 1
                loss += table[l][i][k]
                pm &= pm - 1
            coeffs.append(base[l] + gain - loss)
        out[m] = tuple(coeffs)
    return out


def _verdicts(series, a):
    """Masks in (series, mask) order, and the status of every mask.

    Elements are visited by increasing measure, one tie group at a time;
    `blocks` is the atom partition generated by every strictly smaller
    group, so a mask is reducible exactly when it is a union of blocks."""
    full = (1 << a) - 1
    order = sorted(range(1 << a), key=lambda m: (series[m], m))
    status = [None] * (1 << a)
    blocks = [full] if full else []
    for _s, group in groupby(order, key=series.__getitem__):
        group = list(group)
        for m in group:
            status[m] = "reducible" if _is_union(m, blocks) else "irreducible"
        blocks = refine(blocks, group)
    return order, status


def classify(algebra):
    """Sieve every element of the algebra by its measure series.

    The verdicts are computed from the prefix of degree k, and they are the
    verdicts of the untruncated series.  Here A is the adjacency matrix of
    the universe, w_i the atom indicators, and k the number of blocks of
    the coarsest equitable partition that refines the atoms
    (`series.atom_pair_prefix`): every vertex of block X has the same
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
    """
    universe = algebra.universe
    if len(index_classes(universe.nv, universe.index_edges)) != 1:
        raise SieveError("measure sieve needs a connected universe")
    a = algebra.n_atoms
    if a > MAX_SIEVE_ATOMS:
        raise SieveError(
            "measure sieve: algebra has %d atoms; sieve cap MAX_SIEVE_ATOMS "
            "= %d; pass fewer cuts (for split, a smaller --words)"
            % (a, MAX_SIEVE_ATOMS)
        )
    table = atom_pair_prefix(universe, algebra.atoms)
    series = _series_by_mask(table, a, len(table) - 1)
    full = (1 << a) - 1
    order, status = _verdicts(series, a)

    elements = tuple(
        SieveElement(m, algebra.element_bits(m), series[m], status[m])
        for m in range(1 << a)
    )
    irr = tuple(elements[m] for m in order if status[m] == "irreducible")
    comp_stable = all(status[m] == status[full ^ m] for m in range(1 << a))
    nested = True
    fullv = full_mask(universe)
    for i in range(len(irr)):
        for j in range(i + 1, len(irr)):
            if not is_nested_bits(fullv, irr[i].bits, irr[j].bits):
                nested = False
                break
        if not nested:
            break
    generates = all(
        b.bit_count() == 1 for b in refine([full], [e.mask for e in irr])
    ) if full else True
    return SieveReport(algebra, elements, irr, 0, comp_stable, nested, generates)


def full_series(report, L):
    """Measure series of every element at length L, in mask order; classify
    keeps only the prefix that decides its verdicts."""
    algebra = report.algebra
    table = atom_pair_table(algebra.universe, algebra.atoms, L)
    return _series_by_mask(table, algebra.n_atoms, L)


def _paired_cuts(report):
    """Irreducible elements as named Cuts: complement pairs c0/~c0, c1/~c1,
    ... in (series, mask) order, the smaller atom mask of a pair unmarked."""
    algebra = report.algebra
    universe = algebra.universe
    full = (1 << algebra.n_atoms) - 1
    seen = {}
    cuts = []
    for el in report.irreducible:
        if el.mask in seen:
            continue
        label = "c%d" % (len(seen) // 2,)
        rep, other = el.mask, full ^ el.mask
        if other < rep:
            rep, other = other, rep
        seen[rep] = label
        seen[other] = "~" + label
        for m in (rep, other):
            cuts.append(Cut(universe, algebra.element_bits(m), seen[m]))
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
    """
    cuts = list(cuts)
    report, irr = irreducible_family(cuts)
    algebra = report.algebra
    universe = algebra.universe
    full = (1 << algebra.n_atoms) - 1
    masks = [algebra.decompose(c.bits) for c in irr]
    pos = {m: i for i, m in enumerate(masks)}

    # complement pairs, then representable translates in the family
    pairs = [(i, pos[full ^ m]) for i, m in enumerate(masks)]
    rows = []  # per word, per irreducible cut: the index of its translate
    if action:
        if not hasattr(universe, "oracle"):
            raise SieveError("action data needs a ball universe")
        for el, _word in action:
            row = []
            for i, c in enumerate(irr):
                try:
                    j = pos.get(algebra.decompose(act_left_cut(universe, el, c).bits))
                except CutError:
                    j = None
                if j is not None:
                    pairs.append((i, j))
                row.append(j)
            rows.append(row)
    classes = index_classes(len(irr), pairs)
    targets = [algebra.decompose(c.bits) for c in cuts]

    def covers(kept_indices):
        blocks = refine([full], [masks[i] for i in kept_indices])
        return all(_is_union(t, blocks) for t in targets)

    order = sorted(
        classes,
        key=lambda idxs: (
            tuple(-c for c in max(report.elements[masks[i]].series for i in idxs)),
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
