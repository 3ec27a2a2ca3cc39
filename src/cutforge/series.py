"""Path-count series over a finite graph, truncated at degree L.

For a vertex set A, coefficient c_l is the number of length-l walks that
begin in A and end outside A (walks may repeat vertices and edges; each
edge is traversable in both directions, so a loop contributes two darts).
The odd-crossing variant counts walks crossing a given edge set an odd
number of times, and the corner variant counts walks from one set into
another.

Two engines compute the same coefficients.  The first is one sparse
walk-count kernel: every series is u^T A^l w for a start set u and an end
set w, where A is the adjacency matrix of the universe or, for odd
crossings, of its parity-doubled state space.  The kernel steps over the
darts of the graph in exact big integers, so it costs O(L |darts|) per
start vector, against O(L |V|^2) for a dense matrix.  The second is a
literal walk enumeration: it lists every walk, level by level, one byte per
walk (the walk's end state within a page of 256 states), and advances a
level with `bytes.translate`, so its time and memory still grow with the
number of length-L walks.
They are kept separate on purpose (the enumeration shares no stepping code
with the kernel); the test suites require them to agree.

Comparison is lexicographic.  A strict verdict at some pivot l <= L is
exact regardless of truncation; equality through L is certified only when
L >= 4|V| + 1, because the parity-augmented transfer system has <= 2|V|
states, so each coefficient sequence satisfies a linear recurrence of
order <= 2|V| and two such sequences agreeing on the first 4|V| + 1 terms
agree everywhere.  That length stays the reported contract.  The sieve
decides on less: `atom_pair_prefix` walks the k blocks of the coarsest
equitable partition that refines the atoms instead of the |V| vertices, and
two of its series that agree below degree k agree at every degree (the
proof is in `sieve.classify`'s docstring).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cuts import bits_of_members, full_mask, universe_graph, Cut

DEFAULT_BALL_L = 16


class SeriesError(ValueError):
    pass


def certified_length(universe):
    return 4 * full_mask(universe).bit_length() + 1


@dataclass(frozen=True)
class TruncatedSeries:
    coeffs: tuple

    @property
    def L(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __str__(self):
        parts = []
        for l, c in enumerate(self.coeffs):
            if l == 0:
                parts.append(str(c))
            elif l == 1:
                parts.append("%d t" % (c,))
            else:
                parts.append("%d t^%d" % (c, l))
        return " + ".join(parts)

    def json_coeffs(self):
        return [str(c) for c in self.coeffs]


def _as_bits(universe, spec_set):
    if isinstance(spec_set, Cut):
        if spec_set.universe is not universe:
            raise SeriesError("cut lives over a different universe")
        return spec_set.bits
    if isinstance(spec_set, int):
        if spec_set < 0 or spec_set > full_mask(universe):
            raise SeriesError("bit mask out of range")
        return spec_set
    return bits_of_members(universe, spec_set)


def _edge_indices(universe, edge_ids):
    g = universe_graph(universe)
    out = set()
    for e in edge_ids:
        if e not in g.eindex:
            raise SeriesError("edge %r not in universe" % (e,))
        out.add(g.eindex[e])
    return out


def _normalize_spec(universe, spec):
    kind = spec[0]
    if kind == "measure":
        return ("measure", _as_bits(universe, spec[1]))
    if kind == "odd":
        return ("odd", frozenset(_edge_indices(universe, spec[1])))
    if kind == "corner":
        return ("corner", _as_bits(universe, spec[1]), _as_bits(universe, spec[2]))
    raise SeriesError("unknown series spec kind %r" % (kind,))


# -- engine 1: sparse walk-count kernel ----------------------------------------


def _successors(g, crossing=None):
    """Sparse rows of the walk matrix A: nbrs[u] lists, with multiplicity,
    the state a dart at u steps to, so (A v)[u] = sum of v over nbrs[u].
    Without `crossing` the states are the vertices, read off `index_edges`,
    so a ball needs no string graph.  With a set of edge indices the space
    is parity-doubled: state v + p|V| steps along edge k to
    w + (p xor [k in crossing])|V|."""
    n = g.nv
    if crossing is None:
        nbrs = [[] for _ in range(n)]
        for s, d in g.index_edges:
            nbrs[s].append(d)
            nbrs[d].append(s)
        return nbrs
    even = [[w + n if k in crossing else w for (w, k, _dir) in ds] for ds in g.darts]
    odd = [[w if k in crossing else w + n for (w, k, _dir) in ds] for ds in g.darts]
    return even + odd


def _walk_counts(nbrs, starts, L):
    """Yield, for l = 0..L, the list of vectors A^l v over the start vectors
    v.  One step costs O(|darts|) per vector."""
    vecs = starts
    yield vecs
    for _ in range(L):
        vecs = [[sum(map(v.__getitem__, ns)) for ns in nbrs] for v in vecs]
        yield vecs


def _indicator(bits, n):
    return [(bits >> i) & 1 for i in range(n)]


def _members(bits, n):
    return [i for i in range(n) if (bits >> i) & 1]


def _project(levels, pairs):
    """One coefficient tuple per (start position, end index list) pair:
    coefficient l sums that start's vector at level l over the end set."""
    coeffs = [[] for _ in pairs]
    for vecs in levels:
        for out, (s, end) in zip(coeffs, pairs):
            out.append(sum(map(vecs[s].__getitem__, end)))
    return [tuple(c) for c in coeffs]


def transfer_counts(universe, spec, L):
    """Coefficients 0..L from the walk-count kernel: walks from a start set
    to an end set of vertices, or, for odd crossings, from parity 0 to
    parity 1 in the parity-doubled space."""
    if L < 0:
        raise SeriesError("L must be >= 0")
    g = universe_graph(universe)
    n = g.nv
    kind_spec = _normalize_spec(universe, spec)
    kind = kind_spec[0]
    if kind == "odd":
        nbrs = _successors(g, kind_spec[1])
        start = [1] * n + [0] * n
        end = range(n, 2 * n)
    else:
        full = full_mask(universe)
        if kind == "measure":
            start_bits, end_bits = kind_spec[1], full ^ kind_spec[1]
        else:
            cbits, dbits = kind_spec[1], kind_spec[2]
            start_bits, end_bits = cbits & (full ^ dbits), (full ^ cbits) & dbits
        nbrs = _successors(g)
        start = _indicator(start_bits, n)
        end = _members(end_bits, n)
    (coeffs,) = _project(_walk_counts(nbrs, [start], L), [(0, end)])
    return TruncatedSeries(coeffs)


# -- engine 2: walk enumeration -----------------------------------------------


_PAGE = 256
_ALL_LOCAL = bytes(range(_PAGE))


def enumeration_counts(universe, spec, L):
    """Same coefficients by literal walk enumeration, the independent oracle
    for the transfer engine.  Each level lists every walk once, as one byte:
    its end state's index within a page of 256 states, in the `bytes` of
    that page.  A level becomes the next by one `bytes.translate` per (dart
    slot j, source page, target page): the table maps each state to its
    j-th dart's end, and the delete set drops the states whose j-th dart is
    missing or lands in another page.  c_l counts the length-l walks that
    end in the end set (the bytes left after deleting every other state);
    odd crossings walk the parity-doubled state space.  Nothing is
    aggregated per vertex, so memory (one byte per walk), like time, grows
    with the number of length-L walks (exponential in L)."""
    if L < 0:
        raise SeriesError("L must be >= 0")
    g = universe_graph(universe)
    n = g.nv
    kind_spec = _normalize_spec(universe, spec)
    kind = kind_spec[0]
    if kind == "odd":
        crossing = kind_spec[1]
        nbrs = [
            [w + n * (p ^ (k in crossing)) for (w, k, _dir) in g.darts[u]]
            for p in (0, 1)
            for u in range(n)
        ]
        starts = range(n)
        ends = range(n, 2 * n)
    else:
        full = full_mask(universe)
        if kind == "measure":
            start_bits, end_bits = kind_spec[1], full ^ kind_spec[1]
        else:
            cbits, dbits = kind_spec[1], kind_spec[2]
            start_bits, end_bits = cbits & (full ^ dbits), (full ^ cbits) & dbits
        nbrs = [[w for (w, _k, _dir) in ds] for ds in g.darts]
        starts = _members(start_bits, n)
        ends = _members(end_bits, n)
    moves = {}  # (dart slot, source page, target page) -> {source: target}
    for s, ns in enumerate(nbrs):
        p, i = divmod(s, _PAGE)
        for j, w in enumerate(ns):
            q, t = divmod(w, _PAGE)
            moves.setdefault((j, p, q), {})[i] = t
    steps = []  # (source page, target page, table, delete)
    for (_j, p, q), move in moves.items():
        table = bytearray(_PAGE)
        for i, t in move.items():
            table[i] = t
        steps.append((p, q, table, _ALL_LOCAL.translate(None, bytes(move))))
    pages = range(-(-len(nbrs) // _PAGE))

    def local(states, p):
        return bytes(s - p * _PAGE for s in states if s // _PAGE == p)

    off_end = [_ALL_LOCAL.translate(None, local(ends, p)) for p in pages]
    level = [local(starts, p) for p in pages]

    def count(level):
        return sum(len(w.translate(None, d)) for w, d in zip(level, off_end))

    counts = [count(level)]
    for _ in range(L):
        parts = [[] for _ in pages]
        for p, q, table, delete in steps:
            parts[q].append(level[p].translate(table, delete))
        level = [b"".join(ps) for ps in parts]
        counts.append(count(level))
    return TruncatedSeries(tuple(counts))


# -- named series -------------------------------------------------------------


def measure(universe, a, L=None):
    """Series of walks from a set into its complement; c_0 is always 0."""
    if L is None:
        L = certified_length(universe)
    return transfer_counts(universe, ("measure", _as_bits(universe, a)), L)


def odd_crossing_series(universe, edge_ids, L=None):
    if L is None:
        L = certified_length(universe)
    return transfer_counts(universe, ("odd", tuple(edge_ids)), L)


def corner_series(universe, a, b, L=None):
    """The four corner series of an ordered cut pair (A, B):
    a* = walks A&B -> ~A&B, b* = walks A&B -> ~A&~B,
    c* = walks A&~B -> ~A,  d* = walks A&~B -> A&B.
    Coefficientwise (a* + b*) + c* equals the measure of A."""
    if L is None:
        L = certified_length(universe)
    g = universe_graph(universe)
    n = g.nv
    abits = _as_bits(universe, a)
    bbits = _as_bits(universe, b)
    full = full_mask(universe)
    starts = [_indicator(abits & bbits, n), _indicator(abits & (full ^ bbits), n)]
    pairs = (
        (0, _members((full ^ abits) & bbits, n)),
        (0, _members((full ^ abits) & (full ^ bbits), n)),
        (1, _members(full ^ abits, n)),
        (1, _members(abits & bbits, n)),
    )
    return tuple(
        TruncatedSeries(coeffs)
        for coeffs in _project(_walk_counts(_successors(g), starts, L), pairs)
    )


def series_sum(*series):
    L = series[0].L
    for s in series[1:]:
        if s.L != L:
            raise SeriesError("cannot add series of different truncation")
    coeffs = tuple(sum(s.coeffs[l] for s in series) for l in range(L + 1))
    return TruncatedSeries(coeffs)


def series_scale(s, k):
    return TruncatedSeries(tuple(k * c for c in s.coeffs))


# -- crossing distance ---------------------------------------------------------


def crossing_distance(universe, r_edges, s_edges):
    """Minimum length of a walk that crosses both edge sets at least once.
    BFS over (vertex, crossed R?, crossed S?) states."""
    g = universe_graph(universe)
    r_idx = _edge_indices(universe, r_edges)
    s_idx = _edge_indices(universe, s_edges)
    cap = 2 * g.nv + 2
    seen = set()
    frontier = [(v, False, False) for v in range(g.nv)]
    seen.update(frontier)
    for depth in range(1, cap + 1):
        nxt = []
        for (u, cr, cs) in frontier:
            for (w, k, _dir) in g.darts[u]:
                state = (w, cr or k in r_idx, cs or k in s_idx)
                if state[1] and state[2]:
                    return depth
                if state not in seen:
                    seen.add(state)
                    nxt.append(state)
        frontier = nxt
        if not frontier:
            break
    raise SeriesError("no walk crosses both edge sets within cap %d" % (cap,))


# -- atom pair tables (shared with the sieve) ----------------------------------


def _equitable_partition(nbrs, atoms):
    """Block index of every vertex in the coarsest equitable partition that
    refines the atoms (colour refinement): starting from the atoms, split
    blocks by (own block, sorted neighbour blocks) until their number stops
    growing.  Then every vertex of a block has the same number of darts
    into each block."""
    block = [0] * len(nbrs)
    for i, bits in enumerate(atoms):
        for v in _members(bits, len(nbrs)):
            block[v] = i + 1
    count = len(set(block))
    while True:
        ids = {}
        block = [
            ids.setdefault((b, tuple(sorted(map(block.__getitem__, ns)))), len(ids))
            for b, ns in zip(block, nbrs)
        ]
        if len(ids) == count:
            return block
        count = len(ids)


def _quotient(universe, atoms):
    """The atoms' walk on the k blocks of `_equitable_partition`.  Entry X
    of atom i's vector at level l counts the length-l walks from atom i that
    end in block X.  Every vertex of X has the same number of darts into
    block Y, so such a walk extends into Y in that many ways: row Y of the
    quotient lists block X that many times.  Returns the k rows, the atom
    start vectors (block sizes inside the atom), and per atom its blocks."""
    nbrs = _successors(universe)
    block = _equitable_partition(nbrs, atoms)
    k = max(block, default=-1) + 1
    rows = [[] for _ in range(k)]
    starts = [[0] * k for _ in atoms]
    seen = [False] * k
    for v, b in enumerate(block):
        if not seen[b]:
            seen[b] = True
            for w in nbrs[v]:
                rows[block[w]].append(b)
    for start, bits in zip(starts, atoms):
        for v in _members(bits, len(block)):
            start[block[v]] += 1
    ends = [[b for b in range(k) if start[b]] for start in starts]
    return rows, starts, ends


def _atom_table(quotient, L):
    rows, starts, ends = quotient
    return tuple(
        tuple(tuple([sum(map(vec.__getitem__, end)) for end in ends]) for vec in vecs)
        for vecs in _walk_counts(rows, starts, L)
    )


def atom_pair_table(universe, atoms, L):
    """P[l][i][j] = number of length-l walks from atom i into atom j, for
    atoms that partition the vertices, walked on the atoms' equitable
    quotient.  Lets callers assemble the series of every union of atoms by
    addition."""
    return _atom_table(_quotient(universe, atoms), L)


def atom_pair_prefix(universe, atoms):
    """atom_pair_table through degree k, the number of blocks of the
    coarsest equitable partition that refines the atoms: the prefix on
    which `sieve.classify` decides every verdict exactly (the proof is in
    classify's docstring)."""
    quotient = _quotient(universe, atoms)
    return _atom_table(quotient, len(quotient[0]))
