"""Finite multigraphs with explicit edge identities.

Edges are first class: parallel edges and loops are allowed, and incidence
is a pair of maps edge -> vertex (src, dst).  Everything is immutable after
construction, and every derived order (components, collapses, DOT output)
follows input order, so downstream artifacts are reproducible byte for byte.
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
    """

    __slots__ = ("vertices", "edges", "vindex", "eindex", "darts")

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        self.edges = tuple((e, s, d) for (e, s, d) in edges)
        self.vindex = {}
        for i, v in enumerate(self.vertices):
            if v in self.vindex:
                raise GraphError("duplicate vertex id: %r" % (v,))
            self.vindex[v] = i
        self.eindex = {}
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
        # darts[v] = list of (other_vertex_index, edge_index, direction);
        # a loop contributes two darts at its vertex.
        darts = [[] for _ in self.vertices]
        for k, (e, s, d) in enumerate(self.edges):
            si, di = self.vindex[s], self.vindex[d]
            darts[si].append((di, k, FORWARD))
            darts[di].append((si, k, INVERSE))
        self.darts = tuple(tuple(ds) for ds in darts)

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
    boundary_idx = set()
    for v in boundary:
        boundary_idx.add(g.vindex[v])
    seen = [False] * g.nv
    blocks = []
    flags = []
    for start in range(g.nv):
        if seen[start]:
            continue
        seen[start] = True
        block = [start]
        stack = [start]
        while stack:
            u = stack.pop()
            for (w, k, _dir) in g.darts[u]:
                if k in removed_idx or seen[w]:
                    continue
                seen[w] = True
                block.append(w)
                stack.append(w)
        block.sort()
        blocks.append(tuple(g.vertices[i] for i in block))
        flags.append(any(i in boundary_idx for i in block))
    return ComponentPartition(tuple(blocks), tuple(flags))


def collapse(g, collapsed):
    """Collapse the edge set `collapsed`: the result keeps the other edges,
    and its vertices are the components of (V, collapsed).  Each new vertex
    is named by the first (input order) old vertex of its block."""
    return collapse_blocks(g, collapsed)[0]


def collapse_blocks(g, collapsed):
    """Like collapse() but also returns {old vertex id: new vertex id}."""
    collapsed = set(collapsed)
    for e in collapsed:
        if e not in g.eindex:
            raise GraphError("collapsed edge %r not in graph" % (e,))
    keep = [t for t in g.edges if t[0] not in collapsed]
    only_collapsed = [t for t in g.edges if t[0] in collapsed]
    part = components(Graph(g.vertices, only_collapsed))
    rep = {}
    for block in part.blocks:
        for v in block:
            rep[v] = block[0]
    new_vertices = [block[0] for block in part.blocks]
    new_edges = [(e, rep[s], rep[d]) for (e, s, d) in keep]
    return Graph(new_vertices, new_edges), rep


def is_forest(g):
    part = components(g)
    # count edges per block; acyclic iff |E_c| = |V_c| - 1 everywhere
    where = {}
    for i, block in enumerate(part.blocks):
        for v in block:
            where[v] = i
    counts = [0] * len(part.blocks)
    for (_e, s, _d) in g.edges:
        counts[where[s]] += 1
    return all(counts[i] == len(part.blocks[i]) - 1 for i in range(len(part.blocks)))


def is_tree(g):
    if g.nv == 0:
        return False
    return g.ne == g.nv - 1 and len(components(g).blocks) == 1


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


def graph_from_json_dict(data):
    try:
        vertices = list(data["vertices"])
        edges = [(e["id"], e["src"], e["dst"]) for e in data["edges"]]
    except (KeyError, TypeError) as exc:
        raise GraphError("malformed graph document: %s" % (exc,))
    return Graph(vertices, edges)
