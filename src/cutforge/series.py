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
start vector, against O(L |V|^2) for a dense matrix.  Its step comes in
three layouts, picked by `_walk_step` from the walk length L and the shape
of the rows, never from an option.  A walk of _COMPILE_LEVELS levels or
more, such as a measure at the certified length, steps by one compiled
straight-line function (`_compiled_step`), with no gathers and no padded
slots, which repays its compile only over many levels.  It adds once per
dart, less the pairs its rows share: a pair of states that two or more rows
sum, as the two corners of a 4-cycle do on a Z^d ball, is added once into a
local that those rows read (`_shared_pairs`, greedy pair elimination), which
takes a level of the Z^2 ball of radius 10 from 579 additions to 399.  Past
_COMPILE_ROWS states it is compiled in chunks of rows, each pairing its own
rows into its own locals, so compiling it holds a bounded transient.  Such a
walk also sums each end set by one compiled sum (`_end_sum`).  A shorter
walk steps per row when its states number at most _ROW_SPAN times its top
degree D, as on most of `check`'s small multigraphs (`_row_step`): one
getter per state reads that state's dart ends, a level is one `map(sum,
...)` over the getters with no Python-level loop, and building it takes one
getter per state.  With more states, as on the near-regular Cayley balls
of the split path, it steps by a few degree-bucketed gathers
(`_walk_plan`): the states are cut into buckets of near-equal degree, and a
bucket adds its rows' j-th dart ends lane by lane with `map(add, ...)`, so
the interpreter runs O(buckets * degree) calls and the at most 2 |darts|
big-integer additions run in C.  A walk from a zero start vector or into an empty end set takes no step:
its coefficients are zeros (`_walk_counts`).  The vertex walk's step is
kept on the Graph, and once compiled it serves every later walk.  The
second engine is a literal walk enumeration: it lists every walk, level by
level, one byte per walk (the walk's end state within a page of 256
states), and advances a level with `bytes.translate`, so its time and
memory still grow with the number of length-L walks.
They are kept separate on purpose (the enumeration shares no stepping code
with the kernel); the test suites require them to agree.

Comparison is lexicographic.  A strict verdict at some pivot l <= L is
exact regardless of truncation; equality through L is certified only when
L >= 4|V| + 1, because the parity-augmented transfer system has <= 2|V|
states, so each coefficient sequence satisfies a linear recurrence of
order <= 2|V| and two such sequences agreeing on the first 4|V| + 1 terms
agree everywhere.  That length stays the reported contract.  The sieve
decides on less.  For `sieve` and `check`, `atom_pair_prefix` walks the k
blocks of the coarsest equitable partition that refines the atoms instead
of the |V| vertices, and two of its series that agree below degree k agree
at every degree (the proof is in `sieve.classify`'s docstring).  The split
path reads only the D + 1 walk levels that every translate shares
(`sieve.invariant_depth`), from `atom_pair_table` on the vertices
themselves: D is at most R + 1, too few levels to repay a refinement.
`sieve.full_series` lists every element's series at any L on the k blocks,
as `atom_pair_prefix` does.  All of these walks are one kernel,
`_atom_table`: all atoms share the walk, their start vectors packed into
disjoint bit lanes of one vector, wide enough that no count carries into
the next lane.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import Counter
from itertools import chain, combinations, compress, repeat, zip_longest
from operator import add, itemgetter

from .cuts import bit_flags, bits_of_members, full_mask, universe_graph, Cut

DEFAULT_BALL_L = 16

# Chained maps nest one C call per gather; `_walk_plan` folds longer runs
# into listed gathers, so a vertex of huge degree cannot overflow the C stack.
# `_compiled_step` folds its long sums into runs of the same length, so the
# compiler's nesting depth stays bounded too.
_MAX_CHAIN = 256

# A walk of this many levels or more runs on the compiled step and compiled
# end sums, a shorter one on the per-row or bucketed step.  Measured with
# Python 3.11 on a 2-vCPU x86-64 VM, on perfbench's reference clock, on the
# Z^2 balls of radius 6-10, ball(free:2, 6) and ball(free_product:3,3, 6):
# compiling, the pairing pass included, costs 4.5-4.7 us per dart on the
# Z^2 balls, whose rows share pairs, and 3.6-4.4 us on the others, and a
# compiled level saves about 20-43 ns per dart against a bucketed one, so a
# walk repays its compile after about 85-225 levels.  256 leaves a margin,
# and keeps every walk of `check` (L <= 12) and of the split path
# (D + 1 <= R + 2) off the compiled step.
_COMPILE_LEVELS = 256

# A shorter walk steps per row when its n states number at most this many
# times the top degree D, and by buckets when there are more.  A per-row
# level makes n getter calls, a bucketed level at least D gathers (in the
# one bucket of a near-regular graph, D gathers over all n states), so n/D
# decides.  Measured with Python 3.11 on a 2-vCPU x86-64 VM, build included:
# on random multigraphs of 6-10 vertices and 8-14 edges and their
# parity-doubled spaces, a 7-level per-row walk took 0.79-0.83x the bucketed
# time where n <= 2D and 0.99-1.11x where n > 2D.  The near-regular balls
# stay bucketed: on ball(zd:1, 6), n = 13 and D = 2, a 5-level walk took
# 26 us bucketed against 41 us per-row, and on the Z^2 ball of radius 4 and
# ball(free_product:2,3, 6) a bucketed walk took 0.65-0.76x the per-row
# time.  Over every kernel walk of check seeds 0-5, spans of 1, 1.5, 2 and 3
# and a plain 24-state bound took 0.97, 0.96, 0.96, 0.98 and 0.97x the
# all-bucketed time; 2 also sends the parity-doubled space of every graph
# with n <= D per row.
_ROW_SPAN = 2

# A compiled step of more states than this is compiled in chunks of this many
# rows.  Compiling one source holds its text and syntax tree at once, about
# 1.5 kB per dart: on ball(free:3, 6), 23437 states and 46872 darts, one
# source peaked at 71 MB under tracemalloc, chunks of 1024 rows at 10 MB.
# The bound is above the 442 parity-doubled states of the largest Z^2 ball
# (R = 10) that `measure` walks, so every such step compiles from one source.
_COMPILE_ROWS = 1024

# `_shared_pairs` pairs the terms of rows of at most this many darts, so it
# enumerates at most (_PAIR_DEGREE - 1) / 2 pairs per dart, at about 65 ns a
# pair (Python 3.11, 2-vCPU x86-64 VM, reference clock).  8 takes in the Z^d
# balls up to d = 4: at 4 the Z^3 ball of radius 4 keeps its 399 additions
# a level, at 6 and above it drops to 343, and the Z^4 ball of radius 3
# drops 399 -> 343 from 8 on.  The tree-like ball(free:3, 6) shares no pair
# and pays only the count, 23 ms at 6-8 (3 ms at 4) against a 190 ms
# compile; K_16 shares pairs only from 16 on (224 -> 120 additions),
# at 7.5 pairs per dart.
_PAIR_DEGREE = 8


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
    """("odd", crossing edge indices) for an odd-crossing spec; otherwise
    ("walk", start bits, end bits): a measure of A walks from A to its
    complement, a corner (C, D) from C - D to D - C."""
    kind = spec[0]
    if kind == "odd":
        return ("odd", frozenset(_edge_indices(universe, spec[1])))
    if kind == "measure":
        a = _as_bits(universe, spec[1])
        return ("walk", a, full_mask(universe) ^ a)
    if kind == "corner":
        c, d = _as_bits(universe, spec[1]), _as_bits(universe, spec[2])
        full = full_mask(universe)
        return ("walk", c & (full ^ d), (full ^ c) & d)
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


def _walk_plan(nbrs):
    """The walk matrix A as degree-bucketed gathers: (buckets, back).

    From the top degree down, a bucket takes the next lower degree while its
    rows, padded to its top degree D, hold at most twice its darts.  A bucket
    is its state count s and D gathers; gather j reads the j-th dart end of
    every row, or index n, where the vector carries a zero.  Each bucket has
    s * D <= 2 * (its darts): its top degree alone holds exactly its darts,
    and a degree joins only while the bound holds.  So a step reads at most
    2 |darts| slots, with O(buckets * D) interpreter calls, and adds in C.
    When n * max degree <= 2 |darts| the rule takes every degree into one
    bucket (degrees join in decreasing order, so the darts-to-slots ratio
    only falls), so the sort is skipped and the states stay in state order,
    as on the Z^2 balls.  Otherwise `back` gathers a step's output (its
    padding zero at n) back from degree order into state order.
    `_bucket_step` runs the plan; `_walk_step` picks it for a walk of fewer
    than _COMPILE_LEVELS levels, where compiling would not pay, over more
    states than _ROW_SPAN times its top degree, where `_row_step` would make
    more calls."""
    n = len(nbrs)
    degs = [len(ns) for ns in nbrs]
    if n * max(degs, default=0) <= 2 * sum(degs):
        order, sizes, back = range(n), [n] if n else [], None
    else:
        order = sorted(range(n), key=degs.__getitem__, reverse=True)
        sizes, top, held = [], 0, 0  # held: the darts of the last bucket
        for d in sorted(set(degs), reverse=True):
            c = degs.count(d)
            if sizes and (sizes[-1] + c) * top <= 2 * (held + c * d):
                sizes[-1], held = sizes[-1] + c, held + c * d
            else:
                sizes.append(c)
                top, held = d, c * d
        back = itemgetter(*sorted(range(n), key=order.__getitem__), n)
    buckets, lo = [], 0
    for size in sizes:
        rows = [nbrs[u] for u in order[lo:lo + size]]
        lo += size
        gathers = tuple(
            itemgetter(*slot) if size > 1 else itemgetter(slice(slot[0], slot[0] + 1))
            for slot in zip_longest(*rows, fillvalue=n)
        )
        while len(gathers) > _MAX_CHAIN:  # each run becomes one listed gather
            gathers = tuple(
                lambda v, run=gathers[i:i + _MAX_CHAIN]: list(_chain(run, v))
                for i in range(0, len(gathers), _MAX_CHAIN)
            )
        buckets.append((size, gathers))
    return buckets, back


def _chain(gathers, v):
    """Lane sums of the gathers' reads of v, as chained maps."""
    acc = gathers[0](v)
    for gj in gathers[1:]:
        acc = map(add, acc, gj(v))
    return acc


def _bucket_step(nbrs):
    """The step v -> A v of `_walk_plan`'s bucketed gathers: vectors carry a
    zero pad slot at index n, which the gathers read for a missing dart.  A
    level makes O(buckets * degree) calls whatever the state count, so
    `_walk_step` picks it for short walks over many states of near-equal
    degree, such as the Cayley balls of the split path."""
    buckets, back = _walk_plan(nbrs)

    def step(v):
        w = []
        for size, gathers in buckets:
            w += _chain(gathers, v) if gathers else repeat(0, size)
        w.append(0)
        return back(w) if back else w

    return step


def _sum_source(terms):
    """The terms joined by `+`, or "0" for none.  Past _MAX_CHAIN terms the
    sum is folded into parenthesised runs of at most _MAX_CHAIN terms, and
    the runs again, so the compiler's nesting depth stays bounded."""
    while len(terms) > _MAX_CHAIN:
        terms = ["(%s)" % "+".join(terms[i:i + _MAX_CHAIN])
                 for i in range(0, len(terms), _MAX_CHAIN)]
    return "+".join(terms) or "0"


def _shared_pairs(nbrs):
    """Greedy pair elimination (Paar, 1997) over the rows: (temps, taken,
    left).  temps lists the state pairs (a, b), a <= b, that become one
    local each, taken[u] the temps row u sums and left[u] its other terms.

    Only rows of 2.._PAIR_DEGREE darts are paired.  One C-level pass counts
    the pairs of every such row; when no pair is counted twice, as on a
    tree-like ball, nothing more is done.  Otherwise each pair counted twice
    or more lists the rows that hold it, and the pairs are taken highest
    count first, ties in pair order, so the result is deterministic: a pair
    becomes a temp when two or more rows still hold both of its terms, and
    each of those rows gives them up for it.  Integer addition is exact, so
    every row sums what it summed before."""
    small = [sorted(ns) if 1 < len(ns) <= _PAIR_DEGREE else () for ns in nbrs]
    counts = Counter(chain.from_iterable(map(combinations, small, repeat(2))))
    if max(counts.values(), default=0) < 2:
        return [], [()] * len(nbrs), nbrs
    shared = {p for p, c in counts.items() if c > 1}
    users = {}
    for u, ns in enumerate(small):
        for p in shared.intersection(combinations(ns, 2)):
            users.setdefault(p, []).append(u)
    left = [list(ns) for ns in nbrs]
    taken = [[] for _ in nbrs]
    temps = []
    order = sorted(shared)
    order.sort(key=counts.__getitem__, reverse=True)  # stable: ties keep pair order
    for p in order:
        a, b = p
        rows = [u for u in users[p]
                if (left[u].count(a) > 1 if a == b else a in left[u] and b in left[u])]
        if len(rows) > 1:
            for u in rows:
                left[u].remove(a)
                left[u].remove(b)
                taken[u].append(len(temps))
            temps.append(p)
    return temps, taken, left


def _step_source(nbrs, pad=True):
    """The source of `_compiled_step`, a function `step(v)` that returns
    [row 0, ..., row n - 1, 0]: row u sums v over nbrs[u] (0 for a state
    with no darts), and the trailing 0 is the pad slot at index n, left out
    of a chunk of rows when pad is False.  A pair of states that two or more
    rows sum is added once, into a local t_k = v[a] + v[b] that those rows
    read (`_shared_pairs`); the locals are the function's own, so every
    chunk pairs its own rows and its names cannot meet another chunk's.  It
    holds only int indices, and every sum is folded by `_sum_source`."""
    temps, taken, left = _shared_pairs(nbrs)
    lines = ["def step(v):"]
    lines += ["    t%d = v[%d] + v[%d]" % (k, a, b) for k, (a, b) in enumerate(temps)]
    rows = []
    for ks, ws in zip(taken, left):
        terms = ["v[%d]" % w for w in ws]
        if ks:
            terms += ["t%d" % k for k in ks]
        rows.append(_sum_source(terms))
    lines.append("    return [%s]" % ",".join(rows + ["0"] if pad else rows))
    return "\n".join(lines)


def _compile(source):
    """The function `step` that the source defines."""
    scope = {}
    exec(source, scope)
    return scope["step"]


def _compiled_step(nbrs):
    """The step v -> A v as straight-line code, compiled from
    `_step_source`: a level costs one specialised addition per dart, less
    one per row that reads a shared pair, plus one per shared pair, with no
    gather calls and no padded slots.  Up to _COMPILE_ROWS states it is one
    function.  A larger step is compiled in chunks of _COMPILE_ROWS rows,
    one source at a time, each with its own shared pairs, so the compiler's
    transient memory stays bounded; a level then joins the chunks' lists
    and appends the pad slot."""
    n = len(nbrs)
    if n <= _COMPILE_ROWS:
        return _compile(_step_source(nbrs))
    chunks = [
        _compile(_step_source(nbrs[i:i + _COMPILE_ROWS], pad=False))
        for i in range(0, n, _COMPILE_ROWS)
    ]

    def step(v):
        w = []
        for chunk in chunks:
            w += chunk(v)
        w.append(0)
        return w

    return step


def _row_step(nbrs):
    """The step v -> A v with one getter per state: row u's getter reads v
    at nbrs[u] and twice at the pad slot n, so it always returns a tuple,
    and a level is `[*map(sum, map(itemgetter.__call__, rows, repeat(v))),
    0]`, with no Python-level loop.  Building it takes one getter per state:
    no degree sort, no buckets, no back gather."""
    n = len(nbrs)
    rows = [itemgetter(*ns, n, n) for ns in nbrs]
    call = itemgetter.__call__

    def step(v):
        return [*map(sum, map(call, rows, repeat(v))), 0]

    return step


def _walk_step(nbrs, L):
    """The step of a walk of L levels, picked from L and the shape of the
    rows, never from an option: compiled (`_compiled_step`) when L >=
    _COMPILE_LEVELS, where the walk repays the compile; otherwise per-row
    (`_row_step`) when the n states number at most _ROW_SPAN times the top
    degree D, and bucketed (`_bucket_step`) when there are more.  A per-row
    level makes n getter calls and a bucketed one at least D gathers, so
    the state count alone does not decide: a 13-state path ball stays
    bucketed, a 20-state parity-doubled multigraph with a vertex of 10
    darts goes per row.  The measurements are at _COMPILE_LEVELS and
    _ROW_SPAN."""
    if L >= _COMPILE_LEVELS:
        return _compiled_step(nbrs)
    if len(nbrs) <= _ROW_SPAN * max(map(len, nbrs), default=0):
        return _row_step(nbrs)
    return _bucket_step(nbrs)


def _vertex_step(g, L):
    """The vertex walk's step, kept on the Graph: the first walk makes it by
    `_walk_step`, and a bucketed one is replaced by a compiled one when a
    walk of _COMPILE_LEVELS or more levels asks.  A compiled step then
    serves every later walk, of any length."""
    long = L >= _COMPILE_LEVELS
    if g._walk_step is None or (long and not g._walk_step[0]):
        g._walk_step = long, _walk_step(_successors(g), L)
    return g._walk_step[1]


def _end_sum(ends):
    """v -> the sum of v over the end indices, one compiled sum folded by
    `_sum_source` (a flat sum of 20000 terms overflows CPython 3.11's
    compiler), for a walk of _COMPILE_LEVELS or more levels."""
    return eval("lambda v: %s" % _sum_source(["v[%d]" % w for w in ends]), {})


def _walk_counts(step, starts, pairs, L):
    """One coefficient tuple per (start position, end index list) pair:
    coefficient l sums that start's vector A^l v over the end set, where
    `step` maps a vector, padded with a zero at index n, to the next one
    (`_walk_step`).  A walk of _COMPILE_LEVELS or more levels sums each end
    set by one compiled sum (`_end_sum`), about 15-20 ns a term a level less
    than an itemgetter and `sum` on the Z^2 balls; a shorter one, as in
    `check` and the split path, keeps the itemgetter, where the compile
    would not pay.  A zero start vector or an empty end list gives L + 1
    zeros without a step, since u^T A^l w = 0 when u or w is 0."""
    coeffs = [[] for _ in pairs]
    long = L >= _COMPILE_LEVELS
    for s, start in enumerate(starts):
        n = len(start)
        ends = [(c, e if long else itemgetter(*e, n, n))
                for c, (t, e) in zip(coeffs, pairs) if t == s and e]
        if not (ends and any(start)):
            continue
        if long:
            ends = [(c, _end_sum(e)) for c, e in ends]
        v = [*start, 0]
        for l in range(L + 1):
            if l:
                v = step(v)
            if long:
                for out, total in ends:
                    out.append(total(v))
            else:
                for out, get in ends:
                    out.append(sum(get(v)))
    zeros = (0,) * (L + 1)
    return [tuple(c) or zeros for c in coeffs]


def _indicator(bits, n):
    return list(bit_flags(bits).ljust(n, b"\0")[:n])


def _members(bits, n):
    return list(compress(range(n), bit_flags(bits)))


def transfer_counts(universe, spec, L):
    """Coefficients 0..L from the walk-count kernel: walks from a start set
    to an end set of vertices, or, for odd crossings, from parity 0 to
    parity 1 in the parity-doubled space."""
    if L < 0:
        raise SeriesError("L must be >= 0")
    g = universe_graph(universe)
    n = g.nv
    kind, *sets = _normalize_spec(universe, spec)
    if kind == "odd":
        step = _walk_step(_successors(g, sets[0]), L)
        start = [1] * n + [0] * n
        end = range(n, 2 * n)
    else:
        start_bits, end_bits = sets
        step = _vertex_step(g, L)
        start = _indicator(start_bits, n)
        end = _members(end_bits, n)
    (coeffs,) = _walk_counts(step, [start], [(0, end)], L)
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
    kind, *sets = _normalize_spec(universe, spec)
    if kind == "odd":
        (crossing,) = sets
        nbrs = [
            [w + n * (p ^ (k in crossing)) for (w, k, _dir) in g.darts[u]]
            for p in (0, 1)
            for u in range(n)
        ]
        starts = range(n)
        ends = range(n, 2 * n)
    else:
        start_bits, end_bits = sets
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
        for coeffs in _walk_counts(_vertex_step(g, L), starts, pairs, L)
    )


def series_sum(*series):
    """The coefficientwise sum of one or more series of the same truncation."""
    if not series:
        raise SeriesError("series_sum needs at least one series; none was given")
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


def _atom_labels(atoms, n):
    """The index of every vertex's atom, for atoms that partition the n
    vertices."""
    label = [0] * n
    for i, bits in enumerate(atoms):
        for v in _members(bits, n):
            label[v] = i
    return label


def _quotient(universe, atoms):
    """The atoms' walk on the k blocks of `_equitable_partition`: per block
    Y, row Y of the quotient lists block X once per dart from a vertex of
    X into Y.  Every vertex of X has the same number of darts into Y, so a
    walk from atom i that ends in X extends into Y in that many ways.
    Returns the k rows, and per block its size and its atom."""
    nbrs = _successors(universe)
    block = _equitable_partition(nbrs, atoms)
    label = _atom_labels(atoms, len(nbrs))
    k = max(block, default=-1) + 1
    rows = [[] for _ in range(k)]
    sizes = [0] * k
    atom_of = [None] * k
    for v, b in enumerate(block):
        sizes[b] += 1
        if atom_of[b] is None:
            atom_of[b] = label[v]
            for w in nbrs[v]:
                rows[block[w]].append(b)
    return rows, sizes, atom_of


def _atom_table(rows, sizes, atom_of, a, L):
    """P[l][i][j] from one packed walk over the blocks of a partition that
    refines the a atoms: row Y lists, with multiplicity, the blocks a walk
    steps from into Y, block X holds sizes[X] vertices of atom atom_of[X],
    and every vertex of X has the same degree.  Lane i of the start vector
    holds atom i's start vector at bit i * b, one `_walk_counts` call sums
    the packed vector over each atom's blocks, and lane i of end j's sum,
    read by shift and mask, is the series of atom i into atom j.

    The lanes stay apart because every count fits in b bits, for
    b = (|V| * max(D, 1)^L).bit_length() and D the largest vertex degree.
    Proof: let v_l be atom i's vector at level l (entry X counts the
    length-l walks from atom i that end in block X) and t_l = sum_X v_l[X]
    the number of length-l walks from atom i.  A step gives
    v_(l+1)[Y] = sum of v_l over row Y, so t_(l+1) = sum_X d_X v_l[X] <=
    D t_l, where d_X, the number of times block X occurs in the rows, is
    the degree of every vertex of X.  So t_l <= |atom i| D^l <= |V|
    max(D, 1)^L < 2^b for l <= L (D = 0 leaves walks of length 0 only),
    and every entry v_l[X] and end sum P[l][i][j] lies in [0, t_l].  The
    kernel only adds, so entry X of the packed vector at level l is
    sum_i v_l[X] 2^(i b) and end j's sum is sum_i P[l][i][j] 2^(i b): a
    number whose base-2^b digits are the counts, read off exactly."""
    degree = max(Counter(chain.from_iterable(rows)).values(), default=0)
    b = (sum(sizes) * max(degree, 1) ** L).bit_length()
    shifts = [i * b for i in range(a)]
    start = [s << shifts[i] for s, i in zip(sizes, atom_of)]
    ends = [[] for _ in range(a)]
    for x, i in enumerate(atom_of):
        ends[i].append(x)
    counts = _walk_counts(_walk_step(rows, L), [start], [(0, end) for end in ends], L)
    mask = (1 << b) - 1
    # level l holds, per atom i, lane i of every end's sum; without atoms,
    # the L + 1 levels are empty
    return tuple(
        tuple([tuple([(x >> s) & mask for x in sums]) for s in shifts])
        for sums in zip(*counts)
    ) or ((),) * (L + 1)


def atom_pair_table(universe, atoms, L):
    """P[l][i][j] = number of length-l walks from atom i into atom j, for
    atoms that partition the vertices, for l = 0..L.  It walks the
    universe's own vertices (the discrete partition), with no colour
    refinement: the split path (`sieve.classify` with a depth) asks for
    D + 1 levels, D the invariant depth of `sieve.invariant_depth`, too few
    to repay a refinement.  The callers that refine, `sieve` and `check`
    through `classify` without a depth and `sieve.full_series` at any L,
    call `atom_pair_prefix`.  Lets callers assemble the series of every
    union of atoms by addition."""
    if L < 0:
        raise SeriesError("L must be >= 0")
    n = universe.nv
    label = _atom_labels(atoms, n)
    return _atom_table(_successors(universe), [1] * n, label, len(atoms), L)


def atom_pair_prefix(universe, atoms, L=None):
    """The atom-pair table through degree L, walked on the k blocks of the
    coarsest equitable partition that refines the atoms.  L defaults to k:
    the prefix on which `sieve.classify` decides every verdict exactly when
    it is given no depth, as `sieve` and `check` do (the Cayley-Hamilton
    proof is in classify's docstring).  `sieve.full_series` asks for its
    own L, up to the certified 4|V| + 1, on the same k blocks."""
    if L is not None and L < 0:
        raise SeriesError("L must be >= 0")
    rows, sizes, atom_of = _quotient(universe, atoms)
    return _atom_table(rows, sizes, atom_of, len(atoms), len(rows) if L is None else L)
