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
literal walk enumeration: it lists every walk, level by level, one entry
per walk, so its time and memory grow with the number of length-L walks.
They are kept separate on purpose (the enumeration shares no stepping code
with the kernel); the test suites require them to agree.

Comparison is lexicographic.  A strict verdict at some pivot l <= L is
exact regardless of truncation; equality through L is certified only when
L >= 4|V| + 1, because the parity-augmented transfer system has <= 2|V|
states, so each coefficient sequence satisfies a linear recurrence of
order <= 2|V| and two such sequences agreeing on the first 4|V| + 1 terms
agree everywhere.  That length stays the reported contract.  The sieve
decides on less: its measure series all come from the one symmetric
|V|-state matrix A applied to the atom indicators w_i, so once a monic q of
degree d with q(A) w_i = 0 for every atom is known, the difference of two
of them vanishes for good once it vanishes for l < d.  Cayley-Hamilton
gives d = |V|; `atom_pair_prefix` finds the least d in the same kernel pass
that builds the table (Berlekamp-Massey on a Krylov sequence, as in
Wiedemann, "Solving sparse linear equations over finite fields", 1986),
proves it exactly and stops there, and `sieve.classify` orders elements on
the terms through degree min(L, d) (the proof is in its docstring).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, zip_longest
from operator import mul

from .cuts import bits_of_members, full_mask, universe_graph, Cut

DEFAULT_BALL_L = 16


class SeriesError(ValueError):
    pass


def certified_length(universe):
    return 4 * universe_graph(universe).nv + 1


@dataclass(frozen=True)
class TruncatedSeries:
    coeffs: tuple
    provenance: str
    certified: bool

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


@dataclass(frozen=True)
class SeriesOrdering:
    outcome: str  # "less" | "greater" | "equal_up_to" | "certified_equal"
    pivot: object  # first differing degree, or None
    upto: int


def compare(s1, s2):
    if s1.L != s2.L:
        raise SeriesError("cannot compare series of different truncation")
    for l in range(s1.L + 1):
        if s1.coeffs[l] != s2.coeffs[l]:
            outcome = "less" if s1.coeffs[l] < s2.coeffs[l] else "greater"
            return SeriesOrdering(outcome, l, s1.L)
    if s1.certified and s2.certified:
        return SeriesOrdering("certified_equal", None, s1.L)
    return SeriesOrdering("equal_up_to", None, s1.L)


def _as_bits(universe, spec_set):
    if isinstance(spec_set, Cut):
        if spec_set.universe is not universe:
            raise SeriesError("cut lives over a different universe")
        return spec_set.bits
    if isinstance(spec_set, int):
        if spec_set < 0 or spec_set >> universe_graph(universe).nv:
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
    Without `crossing` the states are the vertices.  With a set of edge
    indices the space is parity-doubled: state v + p|V| steps along edge k
    to w + (p xor [k in crossing])|V|."""
    if crossing is None:
        return [[w for (w, _k, _dir) in ds] for ds in g.darts]
    n = g.nv
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
    certified = L >= certified_length(universe)
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
    return TruncatedSeries(coeffs, "transfer", certified)


# -- engine 2: walk enumeration -----------------------------------------------


def enumeration_counts(universe, spec, L):
    """Same coefficients by literal walk enumeration, the independent oracle
    for the transfer engine.  `walks` holds one entry per walk, its end
    state, and grows level by level: each walk is extended along every
    dart at its end.  c_l counts the length-l walks that end in the end
    set; odd crossings walk the parity-doubled state space.  Nothing is
    aggregated per vertex, so memory, like time, grows with the number of
    length-L walks (exponential in L)."""
    if L < 0:
        raise SeriesError("L must be >= 0")
    g = universe_graph(universe)
    n = g.nv
    kind_spec = _normalize_spec(universe, spec)
    certified = L >= certified_length(universe)
    kind = kind_spec[0]
    if kind == "odd":
        crossing = kind_spec[1]
        nbrs = [
            [w + n * (p ^ (k in crossing)) for (w, k, _dir) in g.darts[u]]
            for p in (0, 1)
            for u in range(n)
        ]
        walks = list(range(n))
        is_end = [0] * n + [1] * n
    else:
        full = full_mask(universe)
        if kind == "measure":
            start_bits, end_bits = kind_spec[1], full ^ kind_spec[1]
        else:
            cbits, dbits = kind_spec[1], kind_spec[2]
            start_bits, end_bits = cbits & (full ^ dbits), (full ^ cbits) & dbits
        nbrs = [[w for (w, _k, _dir) in ds] for ds in g.darts]
        walks = _members(start_bits, n)
        is_end = _indicator(end_bits, n)
    counts = [sum(map(is_end.__getitem__, walks))]
    for _ in range(L):
        walks = [w for u in walks for w in nbrs[u]]
        counts.append(sum(map(is_end.__getitem__, walks)))
    return TruncatedSeries(tuple(counts), "enumeration", certified)


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
    certified = L >= certified_length(universe)
    return tuple(
        TruncatedSeries(coeffs, "transfer", certified)
        for coeffs in _project(_walk_counts(_successors(g), starts, L), pairs)
    )


def series_sum(*series):
    L = series[0].L
    for s in series[1:]:
        if s.L != L:
            raise SeriesError("cannot add series of different truncation")
    coeffs = tuple(sum(s.coeffs[l] for s in series) for l in range(L + 1))
    return TruncatedSeries(
        coeffs, "sum", all(s.certified for s in series)
    )


def series_scale(s, k):
    return TruncatedSeries(tuple(k * c for c in s.coeffs), s.provenance, s.certified)


# -- crossing distance ---------------------------------------------------------


def crossing_distance(universe, r_edges, s_edges, cap=None):
    """Minimum length of a walk that crosses both edge sets at least once.
    BFS over (vertex, crossed R?, crossed S?) states."""
    g = universe_graph(universe)
    r_idx = _edge_indices(universe, r_edges)
    s_idx = _edge_indices(universe, s_edges)
    if cap is None:
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

# Berlekamp-Massey runs modulo this Mersenne prime; it also bounds the
# recurrences `atom_pair_prefix` can certify (see there).
_PRIME = 2**521 - 1


def _atom_levels(g, atoms, L):
    """Yield, for l = 0..L, the atom vectors A^l w_i and the table level
    P[l][i][j] = number of length-l walks from atom i into atom j."""
    n = g.nv
    members = [_members(bits, n) for bits in atoms]
    starts = [_indicator(bits, n) for bits in atoms]
    for vecs in _walk_counts(_successors(g), starts, L):
        yield vecs, tuple(
            tuple([sum(map(vec.__getitem__, mem)) for mem in members]) for vec in vecs
        )


def atom_pair_table(universe, atoms, L):
    """P[l][i][j] = number of length-l walks from atom i into atom j.
    Lets callers assemble the series of every union of atoms by addition."""
    return tuple(level for _vecs, level in _atom_levels(universe_graph(universe), atoms, L))


class _Recurrence:
    """Berlekamp-Massey over GF(_PRIME), fed one term at a time (Massey,
    "Shift-register synthesis and BCH decoding", 1969): `conn` is, up to a
    nonzero factor, the connection polynomial 1 + c_1 x + ... + c_D x^D of
    the shortest linear recurrence of the terms pushed so far, and `length`
    is D.  Each update is scaled by the last discrepancy instead of divided
    by it, so no inverse is taken until the recurrence is lifted."""

    def __init__(self):
        self.terms = []
        self.conn = [1]
        self.length = 0
        self._before = [1]  # conn before the last length change
        self._disc = 1  # the discrepancy that made that change
        self._gap = 1  # terms pushed since then

    def push(self, t):
        p = _PRIME
        s = self.terms
        s.append(t % p)
        delta = sum(map(mul, self.conn, reversed(s))) % p
        if delta == 0:
            self._gap += 1
            return
        old, disc = self.conn, self._disc
        shifted = [0] * self._gap + self._before
        new = [
            (disc * x - delta * y) % p
            for x, y in zip_longest(old, shifted, fillvalue=0)
        ]
        if 2 * self.length < len(s):
            self._before, self._disc = old, delta
            self.length = len(s) - self.length
            self._gap = 1
        else:
            self._gap += 1
        self.conn = new

    def certifies(self, n, deg):
        """Whether the integer lift q of the recurrence, monic of degree D,
        is proven to satisfy sum_i |q(A) w_i|^2 = 0 (see atom_pair_prefix)
        from the terms T_0..T_2D, for n vertices of degree <= deg."""
        d = self.length
        p = _PRIME
        unit = pow(self.conn[0], -1, p)
        conn = self.conn + [0] * (d + 1 - len(self.conn))
        q = [c * unit % p for c in reversed(conn[: d + 1])]
        q = [c - p if 2 * c > p else c for c in q]
        if n * sum(abs(c) * deg**k for k, c in enumerate(q)) ** 2 >= p:
            return False
        s = self.terms
        return sum(qj * sum(map(mul, q, s[j:])) for j, qj in enumerate(q)) % p == 0


def atom_pair_prefix(universe, atoms, L):
    """atom_pair_table through degree P = min(L, d), the prefix on which
    `sieve.classify` decides.  d is the degree of the annihilator of the
    atom indicators w_i, the least degree of a monic q with q(A) w_i = 0 for
    every atom i, when the walk proves it below min(L, |V|); otherwise
    P = min(L, |V|), as Cayley-Hamilton allows.

    The detector rides on the one kernel pass.  A is symmetric, so
    T_k = sum_i w_i^T A^k w_i = sum_i (A^j w_i).(A^(k-j) w_i), and level l
    gives T_(2l-1) and T_2l from the vectors of levels l - 1 and l.  Over
    the eigenvalues x of A, T_k = sum_x x^k m_x with weights
    m_x = sum_i |E_x w_i|^2 > 0 on exactly the eigenvalues the w_i see, so
    the shortest recurrence of T over Q is the annihilator.  That is monic
    with integer coefficients (it divides the minimal polynomial of the
    integer matrix A; Gauss's lemma), so it still holds modulo the prime p,
    and Berlekamp-Massey modulo p finds a recurrence of length D <= d,
    settled (D <= l) by level l = d.

    A settled recurrence is lifted to the monic q with coefficients in
    (-p/2, p/2] and certified: S = sum_i |q(A) w_i|^2 = sum_(j,k) q_j q_k
    T_(j+k) is an integer >= 0, and as |A|_2 <= deg, the largest vertex
    degree, S <= B = |V| (sum_k |q_k| deg^k)^2.  If S = 0 mod p and B < p,
    then S = 0, so q(A) w_i = 0 for every atom: d <= D, hence P = D = d.
    The detector ends, and the walk runs on to min(L, |V|), when a settled
    recurrence fails, when no monic q of length D can pass (B >= |V|
    deg^(2D), and D never shrinks), or when it could stop the walk no
    earlier than min(L, |V|).  So the prime and the detector move where the
    walk stops, never a term of the table."""
    g = universe_graph(universe)
    n = g.nv
    top = min(L, n)
    deg = max(map(len, g.darts), default=0)
    rec = _Recurrence()
    table = []
    prev = None
    for level, (vecs, row) in enumerate(_atom_levels(g, atoms, top)):
        table.append(row)
        if rec is None:
            continue
        flat = list(chain.from_iterable(vecs))
        if prev is not None:
            rec.push(sum(map(mul, prev, flat)))
        rec.push(sum(map(mul, flat, flat)))
        prev = flat
        d = rec.length
        if d <= level:
            if rec.certifies(n, deg):
                break
            rec = None
        elif d >= top or n * deg ** (2 * d) >= _PRIME:
            rec = None
    return tuple(table)
