"""Finite multigraphs with explicit edge identities.

Edges are first class: parallel edges and loops are allowed, and incidence
is a pair of maps edge -> vertex (src, dst), kept once as the vertex index
pairs `index_edges` (a Cayley ball keeps the same field, so cuts read both
alike).  Everything is immutable after construction, and every derived
order (components, collapses, DOT output) follows input order, so
downstream artifacts are reproducible byte for byte.  Components,
collapses, the forest test and the orbits of tree actions share one
union-find, `index_classes` (Tarjan, 1975).
"""

from __future__ import annotations

from dataclasses import dataclass

FORWARD = 1
INVERSE = -1


class GraphError(ValueError):
    pass


class Graph:
    """Multigraph on opaque hashable ids.

    vertices: tuple of vertex ids, in input order.
    edges: tuple of (edge_id, src_id, dst_id) triples, in input order.
    index_edges: the aligned (src index, dst index) pairs.
    """

    __slots__ = (
        "vertices", "edges", "vindex", "eindex", "index_edges", "darts", "_tree"
    )

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        self.edges = tuple((e, s, d) for (e, s, d) in edges)
        self.vindex = {}
        for i, v in enumerate(self.vertices):
            if v in self.vindex:
                raise GraphError("duplicate vertex id: %r" % (v,))
            self.vindex[v] = i
        self.eindex = {}
        pairs = []
        for k, (e, s, d) in enumerate(self.edges):
            if e in self.eindex:
                raise GraphError("duplicate edge id: %r" % (e,))
            if e in self.vindex:
                raise GraphError("edge id collides with vertex id: %r" % (e,))
            if s not in self.vindex:
                raise GraphError("edge %r has dangling src %r" % (e, s))
            if d not in self.vindex:
                raise GraphError("edge %r has dangling dst %r" % (e, d))
            self.eindex[e] = k
            pairs.append((self.vindex[s], self.vindex[d]))
        self.index_edges = tuple(pairs)
        # darts[v] = list of (other vertex index, edge index, direction);
        # a loop contributes two darts at its vertex.
        darts = [[] for _ in self.vertices]
        for k, (si, di) in enumerate(self.index_edges):
            darts[si].append((di, k, FORWARD))
            darts[di].append((si, k, INVERSE))
        self.darts = tuple(tuple(ds) for ds in darts)
        self._tree = None  # is_tree's answer, once asked

    @property
    def nv(self):
        return len(self.vertices)

    @property
    def ne(self):
        return len(self.edges)

    def endpoints(self, edge_id):
        _, s, d = self.edges[self.eindex[edge_id]]
        return s, d

    def __repr__(self):
        return "Graph(%d vertices, %d edges)" % (self.nv, self.ne)


@dataclass(frozen=True)
class ComponentPartition:
    """Vertex blocks in order of smallest member index; optional per-block
    flag marking blocks that touch a designated boundary set."""

    blocks: tuple
    touches_boundary: tuple

    def block_of(self, vid):
        for i, b in enumerate(self.blocks):
            if vid in b:
                return i
        raise GraphError("vertex %r not in partition" % (vid,))


def index_classes(n, pairs):
    """Classes of range(n) under the equivalence the (i, j) pairs generate,
    least member first, each sorted.  A union hangs the larger root under
    the smaller, so every parent index is below its child's and one
    ascending pass reads off the classes."""
    parent = list(range(n))
    for i, j in pairs:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i < j:
            parent[j] = i
        elif j < i:
            parent[i] = j
    classes = []
    for i, p in enumerate(parent):
        if p == i:
            parent[i] = len(classes)
            classes.append([i])
        else:
            # parent[p], p < i, was set above to the class of p's root
            parent[i] = parent[p]
            classes[parent[i]].append(i)
    return tuple(map(tuple, classes))


def components(g, removed=(), boundary=()):
    """Connected components of g with the edges in `removed` deleted.

    removed: iterable of edge ids.  boundary: vertex ids; a block is flagged
    when it contains one of them.
    """
    removed_idx = set()
    for e in removed:
        if e not in g.eindex:
            raise GraphError("removed edge %r not in graph" % (e,))
        removed_idx.add(g.eindex[e])
    pairs = g.index_edges
    if removed_idx:
        pairs = [p for k, p in enumerate(pairs) if k not in removed_idx]
    boundary_idx = {g.vindex[v] for v in boundary}
    classes = index_classes(g.nv, pairs)
    vs = g.vertices
    return ComponentPartition(
        tuple(tuple(vs[i] for i in c) for c in classes),
        tuple(not boundary_idx.isdisjoint(c) for c in classes),
    )


def collapse_blocks(g, collapsed):
    """Collapse the edge set `collapsed`: the result keeps the other edges,
    and its vertices are the components of (V, collapsed).  Each new vertex
    is named by the first (input order) old vertex of its block.  Returns
    the new graph and {old vertex id: new vertex id}."""
    collapsed = set(collapsed)
    for e in collapsed:
        if e not in g.eindex:
            raise GraphError("collapsed edge %r not in graph" % (e,))
    vs = g.vertices
    rep = {}
    for c in index_classes(g.nv, [g.index_edges[g.eindex[e]] for e in collapsed]):
        for i in c:
            rep[vs[i]] = vs[c[0]]
    new_vertices = [v for v in vs if rep[v] == v]
    new_edges = [(e, rep[s], rep[d]) for (e, s, d) in g.edges if e not in collapsed]
    return Graph(new_vertices, new_edges), rep


def is_forest(g):
    # acyclic iff every component has one edge fewer than vertices
    return g.ne == g.nv - len(index_classes(g.nv, g.index_edges))


def is_tree(g):
    """Connected and acyclic.  A Graph never changes, so the answer is
    computed once and kept on it: the tree checks of path queries, edge
    cuts and actions on one tree cost one union-find pass in all."""
    if g._tree is None:
        g._tree = g.nv > 0 and g.ne == g.nv - 1 and is_forest(g)
    return g._tree


@dataclass(frozen=True)
class Path:
    """A walk: start vertex plus (edge_id, direction) steps.  direction is
    FORWARD when the edge is traversed src -> dst."""

    start: object
    steps: tuple

    @property
    def length(self):
        return len(self.steps)


def path_vertices(g, path):
    """Vertex sequence of a path; raises on an incidence mismatch."""
    if path.start not in g.vindex:
        raise GraphError("path start %r not in graph" % (path.start,))
    seq = [path.start]
    cur = path.start
    for (e, direction) in path.steps:
        s, d = g.endpoints(e)
        if direction == FORWARD:
            frm, to = s, d
        elif direction == INVERSE:
            frm, to = d, s
        else:
            raise GraphError("bad direction %r" % (direction,))
        if frm != cur:
            raise GraphError("step %r does not start at %r" % (e, cur))
        cur = to
        seq.append(cur)
    return tuple(seq)


def is_reduced(g, path):
    path_vertices(g, path)
    for i in range(1, len(path.steps)):
        e0, d0 = path.steps[i - 1]
        e1, d1 = path.steps[i]
        if e0 == e1 and d0 != d1:
            return False
    return True


def reduced_path(t, v, w):
    """The unique reduced path v -> w in a tree."""
    if not is_tree(t):
        raise GraphError("reduced_path requires a tree")
    vi, wi = t.vindex[v], t.vindex[w]
    prev = {vi: None}
    queue = [vi]
    qi = 0
    while qi < len(queue):
        u = queue[qi]
        qi += 1
        if u == wi:
            break
        for (x, k, direction) in t.darts[u]:
            if x not in prev:
                prev[x] = (u, k, direction)
                queue.append(x)
    if wi not in prev:
        raise GraphError("no path from %r to %r" % (v, w))
    steps = []
    cur = wi
    while prev[cur] is not None:
        u, k, direction = prev[cur]
        steps.append((t.edges[k][0], direction))
        cur = u
    steps.reverse()
    return Path(v, tuple(steps))


def enumerate_reduced_paths(g, v, w, max_len):
    """All reduced paths v -> w of length <= max_len (definitional oracle
    for the tree predicate; exponential, use on small graphs only)."""
    vi, wi = g.vindex[v], g.vindex[w]
    out = []

    def rec(u, steps, last):
        if len(steps) > max_len:
            return
        if u == wi:
            out.append(tuple(steps))
        if len(steps) == max_len:
            return
        for (x, k, direction) in g.darts[u]:
            if last is not None and last[0] == k and last[1] != direction:
                continue
            steps.append((g.edges[k][0], direction))
            rec(x, steps, (k, direction))
            steps.pop()

    rec(vi, [], None)
    return out


def tree_distance(t, v, w):
    return reduced_path(t, v, w).length


def graph_to_json_dict(g):
    return {
        "vertices": [str(v) for v in g.vertices],
        "edges": [{"id": str(e), "src": str(s), "dst": str(d)} for (e, s, d) in g.edges],
    }


def str_list(value, what, error=GraphError):
    """A list of strings as a tuple, not a string read one character at a
    time; anything else raises error."""
    if not isinstance(value, (list, tuple)) or any(type(x) is not str for x in value):
        raise error("%s must be a list of strings" % (what,))
    return tuple(value)


def graph_from_json_dict(data):
    try:
        vertices = data["vertices"]
        edges = [(e["id"], e["src"], e["dst"]) for e in data["edges"]]
    except (KeyError, TypeError) as exc:
        raise GraphError("malformed graph document: %s" % (exc,))
    str_list([x for e in edges for x in e], "graph edge ids and ends")
    return Graph(str_list(vertices, "graph vertices"), edges)
