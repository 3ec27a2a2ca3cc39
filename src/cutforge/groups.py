"""Group oracles and Cayley-graph balls.

An oracle answers identity / multiply / invert and owns a fixed generating
tuple.  Finite kinds (multiplication table, permutation generators) know
their full element list; the lazy kinds (Z^d, free, free products of finite
cyclics) work with canonical normal forms and are only ever observed
through balls of finite radius.

`ball` is the one search over a group, so ball(r).elements is a prefix of
ball(R).elements for r <= R.  Word lists, a permutation group's elements, a
table's generation check and `trees.induce_action` all read a ball.  The
search keeps its own tree, the parent and letter that first reached each
element, and reads an element's product back to its parent off that
record instead of forming it; `search_tree` returns the record.

Cayley edges are pairs (g, s) with s a generator, drawn g -> gs.  A ball of
radius R carries every edge with both endpoints at distance <= R, plus the
breadth-first layering that certifies those distances.  The ball keeps its
edges as (source, target) vertex index pairs with aligned generator
indices, the same `index_edges` form a Graph has; the Graph on element
strings is built only when a caller asks for `BallView.graph`.  Left
translation of cuts reads a per-element map that `cuts.act_left_cut`
builds once for each element g it translates by and keeps on the ball
(`BallView.left_map`): the indices of g^-1 x and gx for every element x
of the ball, and its fringe classes.  The map is filled along the search
tree from the ball's right-neighbour table (`BallView.right`, the index
of x t for every element x and letter t, read off the edges), so it
multiplies only where the tree leaves the ball.  A translate then reads
only the index pairs of the cut's coboundary.

Free and free-product elements are normal forms packed into ints, one
fixed-width field per letter or syllable, so a ball hashes and joins
machine words.  `multiply` reads only the junction where two of them meet:
letters cancel, and syllables merge, there and nowhere else.
"""

from __future__ import annotations

import math
import os
import sys
from operator import add, neg

from .graphs import Graph, str_list

DEFAULT_VERTEX_CAP = 200_000
CAP_ENV_VAR = "CUTFORGE_CAP_VERTICES"
PERM_CLOSURE_CAP = 20000


class GroupError(ValueError):
    pass


def _vertex_cap(explicit=None):
    if explicit is not None:
        return int(explicit)
    env = os.environ.get(CAP_ENV_VAR)
    if not env:
        return DEFAULT_VERTEX_CAP
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise GroupError("%s must be a positive integer, not %r" % (CAP_ENV_VAR, env))
    return cap


def _int(value, what):
    """An integer field: not a bool, a float or a string of digits."""
    if type(value) is not int:
        raise GroupError("%s must be an integer" % (what,))
    return value


def _int_tuple(value, what):
    """A list of integers as a tuple, not a string read digit by digit."""
    if not isinstance(value, (list, tuple)) or any(type(x) is not int for x in value):
        raise GroupError("%s must be a list of integers" % (what,))
    return tuple(value)


class GroupOracle:
    """Base oracle: subclasses provide identity/multiply/invert/el_str."""

    kind = None
    finite_kind = False

    def generators(self):
        """Tuple of (name, element).  Fixed canonical order."""
        return self._gens

    def identity(self):
        raise NotImplementedError

    def multiply(self, a, b):
        raise NotImplementedError

    def invert(self, a):
        raise NotImplementedError

    def el_str(self, a):
        raise NotImplementedError

    def order(self, a):
        """The order of a, or None when it is infinite.  This default is
        for the finite kinds, where the powers of a return to the identity;
        the lazy kinds decide it on normal forms."""
        if not self.finite_kind:
            raise NotImplementedError
        e = self.identity()
        x, k = a, 1
        while x != e:
            x, k = self.multiply(x, a), k + 1
        return k

    def words_up_to(self, max_len):
        """(element, word) pairs of `ball(self, max_len)`, in its order, each
        word spelling the search-tree path that first reached the element.
        Words are bounded by their length, not by the vertex cap."""
        bv = ball(self, max(max_len, 0), cap=sys.maxsize)
        names = [name for name, _g, _gj in _letters(self)]
        words = [""]
        for parent, letter in search_tree(bv)[1:]:
            words.append((words[parent] + " " + names[letter]).strip())
        return list(zip(bv.elements, words))

    def element_from_word(self, word):
        """Parse a word string: space-separated tokens `name` or `name^k`
        (k may be negative).  The empty string is the identity.  A power is
        taken by repeated squaring, its exponent first reduced modulo the
        generator's order when that is finite, so it costs O(log k)
        products."""
        gens = dict(self.generators())
        el = self.identity()
        for tok in word.split():
            if "^" in tok:
                name, _, exp = tok.partition("^")
                try:
                    k = int(exp)
                except ValueError:
                    raise GroupError("bad exponent in token %r" % (tok,))
            else:
                name, k = tok, 1
            if name not in gens:
                raise GroupError("unknown generator %r in word %r" % (name, word))
            g = gens[name]
            n = self.order(g)
            if n is not None:
                k %= n
            elif k < 0:
                g, k = self.invert(g), -k
            while k:
                if k & 1:
                    el = self.multiply(el, g)
                k >>= 1
                if k:
                    g = self.multiply(g, g)
        return el


class TableOracle(GroupOracle):
    kind = "table"
    finite_kind = True

    def __init__(self, elements, mul, gens):
        elements = str_list(elements, "table elements", GroupError)
        gens = str_list(gens, "table gens", GroupError)
        n = len(elements)
        if n == 0:
            raise GroupError("empty multiplication table")
        if len(set(elements)) != n:
            raise GroupError("duplicate element names in table")
        rows = mul if isinstance(mul, (list, tuple)) else ()
        mul = tuple(_int_tuple(row, "table row %d" % (i,)) for i, row in enumerate(rows))
        if len(mul) != n or any(len(row) != n for row in mul):
            raise GroupError("multiplication table must be %d x %d" % (n, n))
        for row in mul:
            for x in row:
                if not (0 <= x < n):
                    raise GroupError("table entry %r out of range" % (x,))
        self.names = elements
        self.mul = mul
        # identity: two-sided
        ident = None
        for e in range(n):
            if all(self.mul[e][x] == x and self.mul[x][e] == x for x in range(n)):
                ident = e
                break
        if ident is None:
            raise GroupError("table has no two-sided identity")
        self._identity = ident
        # inverses
        inv = [None] * n
        for a in range(n):
            for b in range(n):
                if self.mul[a][b] == ident and self.mul[b][a] == ident:
                    inv[a] = b
                    break
            if inv[a] is None:
                raise GroupError(
                    "element %r has no two-sided inverse" % (self.names[a],)
                )
        self._inv = tuple(inv)
        # associativity, exhaustively (tables are desk scale)
        for a in range(n):
            for b in range(n):
                ab = self.mul[a][b]
                for c in range(n):
                    if self.mul[ab][c] != self.mul[a][self.mul[b][c]]:
                        raise GroupError(
                            "associativity fails at (%s, %s, %s)"
                            % (self.names[a], self.names[b], self.names[c])
                        )
        name_to_idx = {nm: i for i, nm in enumerate(self.names)}
        gen_list = []
        for gname in gens:
            if gname not in name_to_idx:
                raise GroupError("generator %r not an element" % (gname,))
            gi = name_to_idx[gname]
            if gi == ident:
                raise GroupError("identity listed as a generator")
            gen_list.append((gname, gi))
        if not gen_list:
            raise GroupError("table oracle needs at least one generator")
        if len(set(i for _, i in gen_list)) != len(gen_list):
            raise GroupError("duplicate generator")
        self._gens = tuple(gen_list)
        if ball(self, n, cap=n).nv != n:
            raise GroupError("generators do not generate the group")
        self._elements = tuple(range(n))

    def elements(self):
        return self._elements

    def identity(self):
        return self._identity

    def multiply(self, a, b):
        return self.mul[a][b]

    def invert(self, a):
        return self._inv[a]

    def el_str(self, a):
        return self.names[a]


class PermOracle(GroupOracle):
    """Permutation group: generators as image tuples on 0..degree-1;
    elements enumerated by closure."""

    kind = "perm"
    finite_kind = True

    def __init__(self, degree, gens, names=None):
        self.degree = _int(degree, "perm degree")
        ident = tuple(range(self.degree))
        if not isinstance(gens, (list, tuple)):
            raise GroupError("perm gens must be a list of permutations")
        if names is not None and len(str_list(names, "perm names", GroupError)) != len(gens):
            raise GroupError("perm oracle needs one name per generator")
        gen_list = []
        for i, perm in enumerate(gens):
            p = _int_tuple(perm, "generator %d" % (i,))
            if sorted(p) != list(range(self.degree)):
                raise GroupError("generator %d is not a permutation" % (i,))
            if p == ident:
                raise GroupError("identity listed as a generator")
            name = names[i] if names else "s%d" % (i,)
            gen_list.append((name, p))
        if not gen_list:
            raise GroupError("perm oracle needs at least one generator")
        if len({name for name, _p in gen_list}) != len(gen_list):
            raise GroupError("duplicate generator name")
        self._gens = tuple(gen_list)
        cap = PERM_CLOSURE_CAP
        try:
            self._elements = ball(self, cap, cap=cap).elements
        except GroupError:
            raise GroupError("permutation closure exceeds cap %d" % (cap,)) from None

    def elements(self):
        return self._elements

    def identity(self):
        return tuple(range(self.degree))

    def multiply(self, a, b):
        # left action convention: (a*b)(x) = a(b(x))
        return tuple(a[b[x]] for x in range(self.degree))

    def invert(self, a):
        out = [0] * self.degree
        for i, img in enumerate(a):
            out[img] = i
        return tuple(out)

    def el_str(self, a):
        return "(" + " ".join(str(x) for x in a) + ")"


class ZdOracle(GroupOracle):
    kind = "zd"

    def __init__(self, d):
        d = _int(d, "zd dimension d")
        if d < 1:
            raise GroupError("zd needs d >= 1")
        self.d = d
        gens = []
        for i in range(d):
            e = tuple(1 if j == i else 0 for j in range(d))
            gens.append(("x%d" % (i,) if d > 1 else "x", e))
        self._gens = tuple(gens)

    def identity(self):
        return (0,) * self.d

    def multiply(self, a, b):
        return tuple(map(add, a, b))

    def invert(self, a):
        return tuple(map(neg, a))

    def order(self, a):
        return None if any(a) else 1  # Z^d is torsion-free

    def el_str(self, a):
        return ",".join(str(x) for x in a)


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class FreeOracle(GroupOracle):
    """Free group of rank k <= 26, generated by a to z.  An element is its
    reduced word packed into a non-negative int: one `width`-bit field per
    letter, the first letter most significant, and the identity is 0.  The
    i-th generator (0-based) has code 2i + 2 and its inverse 2i + 3, so the
    inverse of a code is `code ^ 1`; no code is 0, so a word of n letters
    fills exactly n fields."""

    kind = "free"

    def __init__(self, k):
        k = _int(k, "free rank k")
        if k < 1:
            raise GroupError("free needs k >= 1")
        if k > len(_LETTERS):
            raise GroupError("free needs k <= 26: generators are named a to z")
        self.k = k
        self.width = (2 * k + 1).bit_length()
        self.mask = (1 << self.width) - 1
        self._gens = tuple((_LETTERS[i], 2 * i + 2) for i in range(k))

    def identity(self):
        return 0

    def multiply(self, a, b):
        """The reduced word of ab.  a and b are reduced, so a letter pair
        can cancel only where they meet, and once a pair fails to cancel
        the words join there: only the junction is read, a's last field
        against b's first, and the untouched parts are joined by a shift.
        n is the bit width of what is left of b, so its first field is
        b >> (n - width)."""
        if not a or not b:
            return a | b
        w, mask = self.width, self.mask
        n = w if b <= mask else ((b.bit_length() - 1) // w + 1) * w
        while (a & mask) == (b >> (n - w)) ^ 1:
            a >>= w
            n -= w
            b &= (1 << n) - 1
            if not a or not n:
                break
        return (a << n) | b

    def invert(self, a):
        w, mask = self.width, self.mask
        out = 0
        while a:
            out = (out << w) | ((a & mask) ^ 1)
            a >>= w
        return out

    def order(self, a):
        return None if a else 1  # free groups are torsion-free

    def el_str(self, a):
        w, mask = self.width, self.mask
        toks = []
        while a:  # last letter first
            code = a & mask
            name = _LETTERS[(code >> 1) - 1]
            toks.append(name + "^-1" if code & 1 else name)
            a >>= w
        toks.reverse()
        return " ".join(toks)


class FreeProductOracle(GroupOracle):
    """Free product of m <= 26 finite cyclic groups Z/n_1 * ... * Z/n_m,
    generated by a to z.  An element is its normal form, alternating
    syllables (f, e) with 1 <= e < n_f, packed into a non-negative int: one
    `width`-bit field per syllable, the first most significant, and the
    identity is 0.  The syllable (f, e) has code f + m e, so f = code % m
    and e = code // m; no code is 0.  Nothing is indexed by code, so an
    oracle's size does not grow with the orders."""

    kind = "free_product"

    def __init__(self, orders):
        orders = _int_tuple(orders, "free_product orders")
        if not orders or any(n < 2 for n in orders):
            raise GroupError("free_product needs cyclic orders >= 2")
        if len(orders) > len(_LETTERS):
            raise GroupError(
                "free_product needs at most 26 factors: generators are named a to z"
            )
        self.orders = orders
        m = self.factors = len(orders)
        self.width = (m * max(orders) - 1).bit_length()
        self.mask = (1 << self.width) - 1
        self._gens = tuple((_LETTERS[f], f + m) for f in range(m))

    def identity(self):
        return 0

    def multiply(self, a, b):
        """The normal form of ab.  a and b alternate factors, so only their
        meeting syllables can share a factor.  Those merge; a nonzero sum
        ends the merging (its neighbours lie in other factors), while a
        zero sum cancels both and brings the next pair to the junction.
        The untouched parts are joined by a shift.  n is the bit width of
        what is left of b, so its first field is b >> (n - width)."""
        if not a or not b:
            return a | b
        w, mask, m = self.width, self.mask, self.factors
        if b <= mask:
            n, first = w, b
        else:
            n = ((b.bit_length() - 1) // w + 1) * w
            first = b >> (n - w)
        last = a & mask
        while not (last - first) % m:
            f = first % m
            e = (last // m + first // m) % self.orders[f]
            a >>= w
            n -= w
            b &= (1 << n) - 1
            if e:
                return (((a << w) | (f + m * e)) << n) | b
            if not a or not n:
                break
            last, first = a & mask, b >> (n - w)
        return (a << n) | b

    def invert(self, a):
        w, mask, m = self.width, self.mask, self.factors
        out = 0
        while a:
            e, f = divmod(a & mask, m)
            out = (out << w) | (f + m * (self.orders[f] - e))
            a >>= w
        return out

    def order(self, a):
        """Conjugating by the first syllable while the first and last share
        a factor leaves a cyclically reduced conjugate.  One with two or
        more syllables has powers of growing length, so infinite order; one
        syllable (f, e) has order n_f / gcd(n_f, e)."""
        w, m = self.width, self.factors
        while a >> w:
            s = a >> ((a.bit_length() - 1) // w * w)
            if (s - (a & self.mask)) % m:
                return None
            a = self.multiply(self.multiply(self.invert(s), a), s)
        if not a:
            return 1
        e, f = divmod(a, m)
        return self.orders[f] // math.gcd(self.orders[f], e)

    def el_str(self, a):
        w, mask, m = self.width, self.mask, self.factors
        toks = []
        while a:  # last syllable first
            e, f = divmod(a & mask, m)
            toks.append(_LETTERS[f] if e == 1 else "%s^%d" % (_LETTERS[f], e))
            a >>= w
        toks.reverse()
        return " ".join(toks)


def make_oracle(spec):
    """Build an oracle from a spec dict: {"kind": "zd", "d": 2},
    {"kind": "free", "k": 2}, {"kind": "free_product", "orders": [2, 3]},
    {"kind": "table", "elements": [...], "mul": [[...]], "gens": [...]},
    {"kind": "perm", "degree": n, "gens": [[...]], "names": [...]}."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise GroupError("group spec must be a dict with a 'kind'")
    kind = spec["kind"]
    try:
        if kind == "zd":
            return ZdOracle(spec["d"])
        if kind == "free":
            return FreeOracle(spec["k"])
        if kind == "free_product":
            return FreeProductOracle(spec["orders"])
        if kind == "table":
            return TableOracle(spec["elements"], spec["mul"], spec["gens"])
        if kind == "perm":
            return PermOracle(spec["degree"], spec["gens"], spec.get("names"))
    except KeyError as exc:
        raise GroupError("group spec for kind %r is missing %s" % (kind, exc))
    raise GroupError("unknown group kind %r" % (kind,))


class BallView:
    """Cayley ball of radius R: the element list, breadth-first distances,
    the sphere (distance == R), and the Cayley edges as index data:
    index_edges[k] = (source index, target index) and edge_gen[k] = the
    generator index, in (source, generator) order.  These are the
    index_edges of `graph`, so cuts read a ball and a Graph alike.
    The search tree is kept as two int tuples: tree_parent[j] and
    tree_letter[j] are the indices of the element and of the `_letters`
    letter that first reached element j (-1 for the identity).

    The Graph on element strings (`graph`) is built on first access, so
    balls that only count ends or translate cuts never name their elements.
    Likewise the left-translation map of an element (`left_map`) is built on
    the first translate by it, and the right-neighbour table (`right`) on
    the first map, so a ball that nothing translates holds neither.

    exhausted is True when the group ran out before radius R (finite group);
    then the ball is the whole Cayley graph and the sphere is empty.
    """

    __slots__ = (
        "oracle",
        "radius",
        "elements",
        "el_to_idx",
        "dist",
        "sphere",
        "exhausted",
        "index_edges",
        "edge_gen",
        "tree_parent",
        "tree_letter",
        "_graph",
        "_left",
        "_right",
    )

    def __init__(self, oracle, radius, elements, el_to_idx, dist, sphere,
                 exhausted, index_edges, edge_gen, tree_parent, tree_letter):
        self.oracle = oracle
        self.radius = radius
        self.elements = elements
        self.el_to_idx = el_to_idx  # element -> index into elements
        self.dist = dist
        self.sphere = sphere  # frozenset of vertex indices
        self.exhausted = exhausted
        self.index_edges = index_edges  # per edge: (src_vertex_idx, dst_vertex_idx)
        self.edge_gen = edge_gen  # per edge: gen_idx
        self.tree_parent = tree_parent
        self.tree_letter = tree_letter
        self._graph = None  # see graph
        self._left = None  # see left_map
        self._right = None  # see right

    @property
    def nv(self):
        return len(self.elements)

    @property
    def graph(self):
        """Graph on el_str names with edge ids "source|generator", in edge
        order; built on first access and cached."""
        if self._graph is None:
            names = [self.oracle.el_str(el) for el in self.elements]
            gens = self.oracle.generators()
            self._graph = Graph(
                names,
                [
                    ("%s|%s" % (names[i], gens[gj][0]), names[i], names[d])
                    for (i, d), gj in zip(self.index_edges, self.edge_gen)
                ],
            )
        return self._graph

    @property
    def right(self):
        """right[t][i], the index of x_i t for the letter t (in `_letters`
        order), or None when x_i t lies outside the ball; built on first
        access from the edges, with no multiply, and cached.

        It is exact because the ball holds every Cayley edge between two of
        its vertices: x_i t lies in the ball exactly when an edge joins x_i
        to it.  A generator's letter reads each of its edges x -> xs forward;
        its inverse's letter reads it backward, as (xs) s^-1 = x.  An
        involution has one letter, which reads its edges both ways."""
        if self._right is None:
            right, forward, backward = [], [], []
            for _name, _g, gj in _letters(self.oracle):
                right.append([None] * self.nv)
                if gj is None:
                    backward[-1] = right[-1]
                else:
                    forward.append(right[-1])
                    backward.append(right[-1])
            for (s, d), gj in zip(self.index_edges, self.edge_gen):
                forward[gj][s] = d
                backward[gj][d] = s
            self._right = tuple(right)
        return self._right

    def left_map(self, g, build):
        """build(self, g), made on the first call for g and cached on the
        ball (the left-translation map of `cuts.act_left_cut`)."""
        maps = self._left
        if maps is None:
            maps = self._left = {}
        m = maps.get(g)
        if m is None:
            m = maps[g] = build(self, g)
        return m

    def sphere_mask(self):
        m = 0
        for i in self.sphere:
            m |= 1 << i
        return m

    def index_of(self, element):
        if element not in self.el_to_idx:
            raise GroupError(
                "element %s outside ball of radius %d"
                % (self.oracle.el_str(element), self.radius)
            )
        return self.el_to_idx[element]


def _letters(oracle):
    """The search's letter order: each generator, then its inverse when that
    differs, as (name, element, generator index or None)."""
    out = []
    for gj, (name, g) in enumerate(oracle.generators()):
        out.append((name, g, gj))
        gi = oracle.invert(g)
        if gi != g:
            out.append((name + "^-1", gi, None))
    return out


def ball(oracle, radius, cap=None):
    """Breadth-first ball of the given radius.  Each frontier element, in
    index order, is multiplied by each letter in `_letters` order, so a
    smaller ball is a prefix of a larger one.  An element inside the
    sphere has every product with a letter formed by the search, and those
    products lie in the ball, so its edges are recorded there; only the
    sphere is multiplied again, in a final pass.

    The search records its tree: an element x that it first reaches as
    p t, from the element p by the letter t, keeps the indices of p and t
    (`BallView.tree_parent`, `BallView.tree_letter`).  In every group
    x t^-1 = (p t) t^-1 = p, so the product of x by the letter of t^-1 is
    p, read off the record with no multiply and no lookup.  That letter is
    t itself for an involution, and in the sphere pass, which multiplies
    only by generators, it counts when it is a generator.  Every other
    product is looked up with one `setdefault`, so a new element is hashed
    once.  The first discovery of x is by its least parent index, and from
    that parent by its least letter: the least (parent, letter) pair one
    step nearer the identity."""
    if radius < 0:
        raise GroupError("radius must be >= 0")
    cap = _vertex_cap(cap)
    e = oracle.identity()
    idx = {e: 0}
    order = [e]
    dist = [0]
    parent = [-1]  # the search tree: parent index and letter index
    via = [-1]
    letters = _letters(oracle)
    inverse = []  # inverse[t]: the letter of t^-1
    for t, (_name, _g, gj) in enumerate(letters):
        if gj is None:
            inverse[-1] = t
            inverse.append(t - 1)
        else:
            inverse.append(t)
    # plans[t]: (letter, generator index or None, letter index) in search
    # order for an element that letter t reached, with the letter back to
    # its parent as None; plans[-1], read at the identity's via -1, skips none
    plans = [
        [(None if k == inverse[t] else g, gj, k) for k, (_n, g, gj) in enumerate(letters)]
        for t in range(len(letters))
    ]
    plans.append([(g, gj, k) for k, (_n, g, gj) in enumerate(letters)])
    multiply = oracle.multiply
    insert = idx.setdefault
    index_edges = []
    edge_gen = []
    exhausted = False
    lo, n = 0, 1
    for r in range(1, radius + 1):
        hi = n
        for src in range(lo, hi):
            el, p = order[src], parent[src]
            for g, gj, k in plans[via[src]]:
                if g is None:
                    j = p
                else:
                    img = multiply(el, g)
                    j = insert(img, n)
                    if j == n:
                        n += 1
                        if n > cap:
                            raise GroupError(
                                "ball of radius %d exceeds vertex cap %d" % (radius, cap)
                            )
                        order.append(img)
                        parent.append(src)
                        via.append(k)
                if gj is not None:
                    index_edges.append((src, j))
                    edge_gen.append(gj)
        dist += [r] * (n - hi)
        lo = hi
        if n == hi:
            exhausted = True
            break
    # breadth-first order: the last frontier is the sphere, a suffix of order
    if exhausted:
        sphere = frozenset()
    else:
        sphere = frozenset(range(lo, n))
        for src in range(lo, n):
            el, p = order[src], parent[src]
            for g, gj, _k in plans[via[src]]:
                if gj is None:
                    continue
                j = p if g is None else idx.get(multiply(el, g))
                if j is not None:
                    index_edges.append((src, j))
                    edge_gen.append(gj)
    return BallView(
        oracle,
        radius,
        tuple(order),
        idx,
        tuple(dist),
        sphere,
        exhausted,
        tuple(index_edges),
        tuple(edge_gen),
        tuple(parent),
        tuple(via),
    )


def search_tree(bv):
    """Per element, the (parent index, letter index) that first reached it
    in `ball`'s search (None for the identity), as the search recorded it."""
    return (None,) + tuple(zip(bv.tree_parent[1:], bv.tree_letter[1:]))
