"""Group oracles and Cayley-graph balls.

An oracle answers identity / multiply / invert and owns a fixed generating
tuple.  Finite kinds (multiplication table, permutation generators) know
their full element list; the lazy kinds (Z^d, free, free products of finite
cyclics) work with canonical normal forms and are only ever observed
through balls of finite radius.

`ball` is the one search over a group, so ball(r).elements is a prefix of
ball(R).elements for r <= R.  Word lists, a permutation group's elements, a
table's generation check and `trees.induce_action` all read a ball.

Cayley edges are pairs (g, s) with s a generator, drawn g -> gs.  A ball of
radius R carries every edge with both endpoints at distance <= R, plus the
breadth-first layering that certifies those distances.  The ball keeps its
edges as (source, target) vertex index pairs with aligned generator
indices, the same `index_edges` form a Graph has; the Graph on element
strings is built only when a caller asks for `BallView.graph`.  Left
translation of cuts reads the index pairs through a per-element map that
`cuts.act_left_cut` builds once for each element it translates by and keeps
on the ball (`BallView.left_map`).
"""

from __future__ import annotations

import math
import os
import sys

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
    if env:
        return int(env)
    return DEFAULT_VERTEX_CAP


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
        (k may be negative).  The empty string is the identity."""
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
            g = gens[name] if k >= 0 else self.invert(gens[name])
            for _ in range(abs(k)):
                el = self.multiply(el, g)
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
        return tuple(x + y for x, y in zip(a, b))

    def invert(self, a):
        return tuple(-x for x in a)

    def order(self, a):
        return None if any(a) else 1  # Z^d is torsion-free

    def el_str(self, a):
        return ",".join(str(x) for x in a)


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class FreeOracle(GroupOracle):
    """Free group of rank k; elements are reduced words as tuples of nonzero
    ints (+i / -i for the i-th generator and its inverse, 1-based)."""

    kind = "free"

    def __init__(self, k):
        k = _int(k, "free rank k")
        if k < 1:
            raise GroupError("free needs k >= 1")
        self.k = k
        self._gens = tuple((_LETTERS[i], (i + 1,)) for i in range(k))

    def identity(self):
        return ()

    def multiply(self, a, b):
        out = list(a)
        for x in b:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        return tuple(out)

    def invert(self, a):
        return tuple(-x for x in reversed(a))

    def order(self, a):
        return None if a else 1  # free groups are torsion-free

    def el_str(self, a):
        toks = []
        for x in a:
            name = _LETTERS[abs(x) - 1]
            toks.append(name if x > 0 else name + "^-1")
        return " ".join(toks)


class FreeProductOracle(GroupOracle):
    """Free product of finite cyclic groups Z/n_1 * ... * Z/n_m; elements are
    alternating syllable tuples ((factor, exp), ...) with 1 <= exp < n."""

    kind = "free_product"

    def __init__(self, orders):
        orders = _int_tuple(orders, "free_product orders")
        if not orders or any(n < 2 for n in orders):
            raise GroupError("free_product needs cyclic orders >= 2")
        self.orders = orders
        self._gens = tuple((_LETTERS[i], ((i, 1),)) for i in range(len(orders)))

    def identity(self):
        return ()

    def multiply(self, a, b):
        out = list(a)
        for (f, e) in b:
            if out and out[-1][0] == f:
                e2 = (out[-1][1] + e) % self.orders[f]
                out.pop()
                if e2:
                    out.append((f, e2))
            else:
                out.append((f, e))
        return tuple(out)

    def invert(self, a):
        return tuple((f, self.orders[f] - e) for (f, e) in reversed(a))

    def order(self, a):
        """Conjugating by the first syllable while the first and last share
        a factor leaves a cyclically reduced conjugate.  One with two or
        more syllables has powers of growing length, so infinite order; one
        syllable (f, e) has order n_f / gcd(n_f, e)."""
        while len(a) > 1 and a[0][0] == a[-1][0]:
            s = a[:1]
            a = self.multiply(self.multiply(self.invert(s), a), s)
        if len(a) > 1:
            return None
        if not a:
            return 1
        (f, e), = a
        return self.orders[f] // math.gcd(self.orders[f], e)

    def el_str(self, a):
        toks = []
        for (f, e) in a:
            name = _LETTERS[f]
            toks.append(name if e == 1 else "%s^%d" % (name, e))
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

    The Graph on element strings (`graph`) is built on first access, so
    balls that only count ends or translate cuts never name their elements.
    Likewise the left-translation map of an element (`left_map`) is built on
    the first translate by it, so a ball that nothing translates holds none.

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
        "_graph",
        "_left",
    )

    def __init__(self, oracle, radius, elements, el_to_idx, dist, sphere,
                 exhausted, index_edges, edge_gen):
        self.oracle = oracle
        self.radius = radius
        self.elements = elements
        self.el_to_idx = el_to_idx  # element -> index into elements
        self.dist = dist
        self.sphere = sphere  # frozenset of vertex indices
        self.exhausted = exhausted
        self.index_edges = index_edges  # per edge: (src_vertex_idx, dst_vertex_idx)
        self.edge_gen = edge_gen  # per edge: gen_idx
        self._graph = None  # see graph
        self._left = None  # see left_map

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
    sphere is multiplied again, in a final pass."""
    if radius < 0:
        raise GroupError("radius must be >= 0")
    cap = _vertex_cap(cap)
    e = oracle.identity()
    idx = {e: 0}
    order = [e]
    dist = [0]
    frontier = [e]
    # (letter, generator index); an inverse letter has no edge of its own
    letters = [(g, gj) for _name, g, gj in _letters(oracle)]
    gens = [g for _name, g in oracle.generators()]
    index_edges = []
    edge_gen = []
    exhausted = False
    src = 0
    for r in range(1, radius + 1):
        nxt = []
        for el in frontier:
            for g, gj in letters:
                img = oracle.multiply(el, g)
                j = idx.get(img)
                if j is None:
                    j = idx[img] = len(order)
                    order.append(img)
                    dist.append(r)
                    nxt.append(img)
                    if len(order) > cap:
                        raise GroupError(
                            "ball of radius %d exceeds vertex cap %d" % (radius, cap)
                        )
                if gj is not None:
                    index_edges.append((src, j))
                    edge_gen.append(gj)
            src += 1
        frontier = nxt
        if not frontier:
            exhausted = True
            break
    # breadth-first order: the last frontier is the sphere, a suffix of order
    if exhausted:
        sphere = frozenset()
    else:
        sphere = frozenset(range(src, len(order)))
        for el in frontier:
            for gj, g in enumerate(gens):
                j = idx.get(oracle.multiply(el, g))
                if j is not None:
                    index_edges.append((src, j))
                    edge_gen.append(gj)
            src += 1
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
    )


def search_tree(bv):
    """Per element, the (parent index, letter index) that first reached it
    in `ball`'s search (None for the identity): the least such pair one step
    nearer the identity.  An edge i -> j of generator s is letter s from i
    and letter s^-1 from j; an involution has the edge j -> i of its own."""
    fwd, back = [], []
    for k, (_name, _g, gj) in enumerate(_letters(bv.oracle)):
        if gj is None:
            back[-1] = k
        else:
            fwd.append(k)
            back.append(None)
    dist = bv.dist
    tree = [None] * bv.nv
    for (i, j), s in zip(bv.index_edges, bv.edge_gen):
        for parent, child, letter in ((i, j, fwd[s]), (j, i, back[s])):
            if letter is None or dist[child] != dist[parent] + 1:
                continue
            if tree[child] is None or (parent, letter) < tree[child]:
                tree[child] = (parent, letter)
    return tuple(tree)
