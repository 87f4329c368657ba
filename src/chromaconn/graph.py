"""Simple undirected graphs: construction, graph6 I/O, generators, connectivity.

Vertices are 0..n-1.  Edges are stored as a sorted tuple of (a, b) pairs with
a < b; the position of an edge in that tuple is its stable edge index, used by
colorings, cuts and certificates throughout the package.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

GRAPH6_HEADER = ">>graph6<<"


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph with a canonical (sorted) edge list."""

    n: int
    edges: tuple = ()

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        prev = None
        for e in self.edges:
            if len(e) != 2:
                raise ValueError(f"malformed edge {e!r}")
            a, b = e
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ValueError(f"edge {e!r} out of range for n={self.n}")
            if a == b:
                raise ValueError(f"loop at vertex {a} not allowed")
            if a > b:
                raise ValueError(f"edge {e!r} not normalized; use build_graph")
            if prev is not None and e <= prev:
                raise ValueError("edges not sorted/deduplicated; use build_graph")
            prev = e
        # adjacency cache: adj[v] = tuple of (neighbor, edge index), neighbor-sorted
        adj = [[] for _ in range(self.n)]
        for i, (a, b) in enumerate(self.edges):
            adj[a].append((b, i))
            adj[b].append((a, i))
        object.__setattr__(self, "_adj", tuple(tuple(sorted(x)) for x in adj))
        object.__setattr__(self, "_eidx", {e: i for i, e in enumerate(self.edges)})

    @property
    def m(self) -> int:
        return len(self.edges)

    def adjacency(self):
        """adjacency()[v] is a sorted tuple of (neighbor, edge_index)."""
        return self._adj

    def edge_index(self, a: int, b: int) -> int:
        """Index of edge {a, b}; raises KeyError if absent."""
        return self._eidx[(a, b) if a < b else (b, a)]

    def has_edge(self, a: int, b: int) -> bool:
        return ((a, b) if a < b else (b, a)) in self._eidx

    def degree(self, v: int) -> int:
        return len(self._adj[v])


def build_graph(n: int, edges: Iterable) -> Graph:
    """Construct a Graph from arbitrary (u, v) pairs, normalizing edge order.

    Rejects loops, duplicate edges and out-of-range endpoints.
    """
    normalized = []
    seen = set()
    for e in edges:
        u, v = e
        if u == v:
            raise ValueError(f"loop at vertex {u} not allowed")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"duplicate edge {key}")
        seen.add(key)
        normalized.append(key)
    return Graph(n, tuple(sorted(normalized)))


@dataclass(frozen=True)
class Path:
    """A simple path: vertex sequence plus the edge indices joining it.

    A single vertex with no edges is the zero-length path.
    """

    vertices: tuple
    edges: tuple = ()

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("path needs at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("path revisits a vertex")
        if len(self.edges) != len(self.vertices) - 1:
            raise ValueError("edge count must be vertex count - 1")

    @classmethod
    def from_vertices(cls, graph: Graph, vertices: Sequence) -> "Path":
        vs = tuple(vertices)
        eidx = []
        for a, b in zip(vs, vs[1:]):
            try:
                eidx.append(graph.edge_index(a, b))
            except KeyError:
                raise ValueError(f"vertices {a},{b} not adjacent in graph")
        return cls(vs, tuple(eidx))

    @property
    def length(self) -> int:
        return len(self.edges)


# ---------------------------------------------------------------------------
# graph6

def _g6_bytes_for_n(n: int) -> str:
    if n <= 62:
        return chr(63 + n)
    if n <= 258047:
        return "~" + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))
    raise ValueError("graph too large for this graph6 writer")


def write_graph6(graph: Graph) -> str:
    """Encode as a graph6 string (no header)."""
    n = graph.n
    out = [_g6_bytes_for_n(n)]
    present = set(graph.edges)
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if (i, j) in present else 0)
    for k in range(0, len(bits), 6):
        group = bits[k:k + 6]
        group += [0] * (6 - len(group))
        val = 0
        for b in group:
            val = (val << 1) | b
        out.append(chr(63 + val))
    return "".join(out)


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string; the optional '>>graph6<<' header is accepted."""
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise ValueError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(d < 0 or d > 63 for d in data):
        raise ValueError("graph6 byte out of range 63..126")
    if data[0] <= 62:
        n, pos = data[0], 1
    else:
        if len(data) >= 2 and data[1] == 63:
            raise ValueError("graph6 sizes beyond 258047 vertices unsupported")
        if len(data) < 4:
            raise ValueError("truncated graph6 size field")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        pos = 4
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[pos:]
    if len(body) != nbytes:
        raise ValueError(f"graph6 body has {len(body)} bytes, expected {nbytes}")
    bits = []
    for d in body:
        for s_ in (5, 4, 3, 2, 1, 0):
            bits.append((d >> s_) & 1)
    if any(bits[nbits:]):
        raise ValueError("nonzero padding bits in graph6 body")
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return Graph(n, tuple(sorted(edges)))


def to_dot(graph: Graph) -> str:
    """DOT text for visualization; vertex ids as labels, no color attributes."""
    lines = ["graph G {"]
    for v in range(graph.n):
        lines.append(f"  {v};")
    for a, b in graph.edges:
        lines.append(f"  {a} -- {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# connectivity

def bfs_distances(graph: Graph, source: int):
    """List of BFS distances from source; -1 for unreachable vertices."""
    dist = [-1] * graph.n
    dist[source] = 0
    q = deque([source])
    adj = graph.adjacency()
    while q:
        x = q.popleft()
        for y, _ in adj[x]:
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                q.append(y)
    return dist


def is_connected(graph: Graph) -> bool:
    if graph.n <= 1:
        return True
    return min(bfs_distances(graph, 0)) >= 0


def diameter(graph: Graph) -> int:
    """Greatest BFS distance over all pairs; errors on a disconnected graph."""
    if graph.n == 0:
        raise ValueError("diameter undefined for the empty graph")
    best = 0
    for v in range(graph.n):
        d = bfs_distances(graph, v)
        if min(d) < 0:
            raise ValueError("diameter requires a connected graph")
        best = max(best, max(d))
    return best


# ---------------------------------------------------------------------------
# simple paths

def simple_paths(adj, u: int, v: int, fits=None, first: bool = False):
    """Every simple u-v path as (vertices, edges), adj being a graph's
    adjacency(): depth first, neighbours in ascending order, so in
    lexicographic order of the vertex tuples.  The path tables and the
    pattern-path search both run this one walk.

    fits(edges, end), if given, tests each extension: edges ends with the
    new edge, and end says whether it reaches v.  A false answer drops the
    extension and every path through it.  first stops at the first path."""
    out = []
    _extend_paths(adj, v, 1 << u, [u], [], out, fits, first)
    return out


def _extend_paths(adj, v: int, visited: int, verts, edges, out, fits,
                  first) -> bool:
    """simple_paths' walk from verts (edges), the bits of visited."""
    for y, e in adj[verts[-1]]:
        if visited >> y & 1:
            continue
        verts.append(y)
        edges.append(e)
        if fits is None or fits(edges, y == v):
            if y == v:
                out.append((tuple(verts), tuple(edges)))
                if first:
                    return True
            elif _extend_paths(adj, v, visited | 1 << y, verts, edges, out,
                               fits, first):
                return True
        verts.pop()
        edges.pop()
    return False


# ---------------------------------------------------------------------------
# disjoint paths (unit-capacity max flow)

def _max_flow_unit(num_nodes: int, arcs, s: int, t: int):
    """Edmonds-Karp on unit/small integer capacities.

    arcs: dict (a, b) -> capacity.  Returns (value, flow dict).
    """
    cap = dict(arcs)
    out = {}
    for (a, b) in cap:
        out.setdefault(a, set()).add(b)
        out.setdefault(b, set()).add(a)  # residual arcs
    nbr = {x: sorted(ys) for x, ys in out.items()}
    flow = {}
    value = 0
    while True:
        parent = {s: None}
        q = deque([s])
        while q and t not in parent:
            x = q.popleft()
            for y in nbr.get(x, ()):
                if y not in parent and cap.get((x, y), 0) > 0:
                    parent[y] = x
                    q.append(y)
        if t not in parent:
            return value, flow
        y = t
        while parent[y] is not None:
            x = parent[y]
            cap[(x, y)] = cap.get((x, y), 0) - 1
            cap[(y, x)] = cap.get((y, x), 0) + 1
            flow[(x, y)] = flow.get((x, y), 0) + 1
            y = x
        value += 1


def _decompose_unit_paths(value: int, used, s: int, t: int):
    """Split a set of unit-flow arcs into `value` arc-disjoint s-t node walks,
    dropping flow cycles, and return them as vertex sequences."""
    succ = {}
    for (a, b) in sorted(used):
        succ.setdefault(a, deque()).append(b)
    paths = []
    for _ in range(value):
        walk = [s]
        pos = {s: 0}
        x = s
        while x != t:
            y = succ[x].popleft()
            if y in pos:
                # flow cycle: drop the loop just traversed
                walk = walk[: pos[y] + 1]
                pos = {v: i for i, v in enumerate(walk)}
                x = y
                continue
            walk.append(y)
            pos[y] = len(walk) - 1
            x = y
        paths.append(tuple(walk))
    return paths


def max_disjoint_paths(graph: Graph, u: int, v: int, mode: str = "edge"):
    """Maximum number of pairwise edge-disjoint (mode='edge') or internally
    vertex-disjoint (mode='vertex') u-v paths, with one witnessing family.

    Returns (count, tuple_of_Paths).  Equals the minimum u-v cut size of the
    corresponding kind (max-flow/min-cut).
    """
    if mode not in ("edge", "vertex"):
        raise ValueError(f"unknown mode {mode!r}")
    if not (0 <= u < graph.n and 0 <= v < graph.n):
        raise ValueError("endpoint out of range")
    if u == v:
        raise ValueError("endpoints must differ")
    if mode == "edge":
        arcs = {}
        for (a, b) in graph.edges:
            arcs[(a, b)] = 1
            arcs[(b, a)] = 1
        value, flow = _max_flow_unit(graph.n, arcs, u, v)
        used = set()
        for (a, b) in graph.edges:
            net = flow.get((a, b), 0) - flow.get((b, a), 0)
            if net > 0:
                used.add((a, b))
            elif net < 0:
                used.add((b, a))
        walks = _decompose_unit_paths(value, used, u, v)
    else:
        # split every internal vertex w into in-node 2w and out-node 2w+1
        def node_in(w):
            return 2 * w

        def node_out(w):
            return 2 * w + 1

        arcs = {}
        for w in range(graph.n):
            arcs[(node_in(w), node_out(w))] = 1 if w not in (u, v) else graph.n
        for (a, b) in graph.edges:
            arcs[(node_out(a), node_in(b))] = 1
            arcs[(node_out(b), node_in(a))] = 1
        value, flow = _max_flow_unit(2 * graph.n, arcs, node_out(u), node_in(v))
        used = set()
        for (a, b), f in flow.items():
            back = flow.get((b, a), 0)
            if f - back > 0:
                used.add((a, b))
        walks = _decompose_unit_paths(value, used, node_out(u), node_in(v))
        # a split walk reads out(u), in(x1), out(x1), ..., in(v); the even
        # positions give u and the internal vertices, and v is re-appended
        walks = [tuple(x // 2 for x in w[0::2]) + (v,) for w in walks]
    paths = tuple(
        sorted((Path.from_vertices(graph, w) for w in walks),
               key=lambda p: p.vertices)
    )
    return value, paths


# ---------------------------------------------------------------------------
# cuts

def crossing_cut(graph: Graph, side: Iterable) -> frozenset:
    """Edge indices with exactly one endpoint in `side`.

    `side` must be a nonempty proper subset of the vertices.
    """
    s = set(side)
    if not s or not s.issubset(range(graph.n)) or len(s) == graph.n:
        raise ValueError("side must be a nonempty proper vertex subset")
    return frozenset(
        i for i, (a, b) in enumerate(graph.edges) if (a in s) != (b in s)
    )


def uv_bipartitions(graph: Graph, u: int, v: int):
    """Yield (side, cut) for every vertex set with u inside and v outside.

    side is a sorted vertex tuple containing u; cut is the sorted tuple of
    crossing edge indices.  2^(n-2) bipartitions are produced.
    """
    if u == v or not (0 <= u < graph.n and 0 <= v < graph.n):
        raise ValueError("invalid endpoint pair")
    others = [w for w in range(graph.n) if w != u and w != v]
    for mask in range(1 << len(others)):
        side = {u}
        for i, w in enumerate(others):
            if (mask >> i) & 1:
                side.add(w)
        cut = tuple(
            i for i, (a, b) in enumerate(graph.edges) if (a in side) != (b in side)
        )
        yield tuple(sorted(side)), cut


def _induces_connected(adj, mask: int) -> bool:
    """Whether the vertices in the nonzero bitmask mask induce a connected
    subgraph, adj being neighbour_masks(graph)."""
    reach = frontier = mask & -mask
    while frontier:
        w = frontier.bit_length() - 1
        new = adj[w] & mask & ~reach
        reach |= new
        frontier = (frontier ^ 1 << w) | new
    return reach == mask


def bonds(graph: Graph):
    """Yield (side, cut) for every bond: a bipartition of the vertices whose
    two sides both induce connected subgraphs.  side is the sorted vertex
    tuple of the side holding vertex 0; cut is the sorted tuple of crossing
    edge indices.  In a connected graph the bonds separating u from v are
    exactly its inclusion-minimal u-v cuts.
    """
    adj = neighbour_masks(graph)
    full = (1 << graph.n) - 1
    for side in range(1, full, 2):  # vertex 0 in, some vertex out
        if not (_induces_connected(adj, side)
                and _induces_connected(adj, full ^ side)):
            continue
        cut = tuple(i for i, (a, b) in enumerate(graph.edges)
                    if (side >> a ^ side >> b) & 1)
        yield tuple(w for w in range(graph.n) if side >> w & 1), cut


# ---------------------------------------------------------------------------
# derived graphs

def line_graph(graph: Graph) -> Graph:
    """Vertices are edge indices of the input; adjacency is sharing an endpoint."""
    m = graph.m
    edges = []
    for i in range(m):
        a, b = graph.edges[i]
        for j in range(i + 1, m):
            c, d = graph.edges[j]
            if a == c or a == d or b == c or b == d:
                edges.append((i, j))
    return Graph(m, tuple(edges))


# ---------------------------------------------------------------------------
# neighbour bitmasks and canonical form

def neighbour_masks(graph: Graph) -> tuple:
    """adj[v] with bit w set iff vw is an edge, for every vertex v."""
    adj = [0] * graph.n
    for a, b in graph.edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return tuple(adj)


def _graph_from_mask(n: int, mask: int) -> Graph:
    # bit k of mask is the k-th pair (a, b), a < b, in lexicographic order
    pairs = itertools.combinations(range(n), 2)
    return Graph(n, tuple(e for k, e in enumerate(pairs) if mask >> k & 1))


def canonical_form(adj: tuple):
    """(n, adjacency bitmask) minimized over vertex relabelings of the graph
    whose neighbour bitmasks are adj (bit w of adj[v] set iff vw is an edge).

    Two graphs are isomorphic iff their canonical forms are equal.  The
    minimum runs over all relabelings that sort degrees in nonincreasing
    order; pair (p, q), p < q, is bit p*n - p(p+1)/2 + (q-p-1).

    Exact search: the bits of row p (pairs (p, q), q > p) form one block,
    above every block of a lower row, so comparing masks compares row n-2,
    then n-3, and so on down.  Positions are filled from n-1 to 0, each from
    the degree class the sorted order assigns it; placing a vertex at p
    fixes row p.  A partial labelling whose row p exceeds the frontier's
    least row p loses to every completion of one that has it, so only ties
    are kept.  Two partial labellings with the same unplaced vertices, each
    adjacent to the same placed positions, have the same remaining rows, so
    they are kept once: a state is that tuple of position bitmasks, -1 for a
    placed vertex.
    """
    n = len(adj)
    if n == 0:
        return (0, 0)
    classes = {}
    for v, x in enumerate(adj):
        classes.setdefault(x.bit_count(), []).append(v)
    slot = [classes[d] for d in sorted(classes, reverse=True)
            for _ in classes[d]]
    nbrs = [[w for w in range(n) if x >> w & 1] for x in adj]
    frontier = [(0,) * n]
    mask = 0
    for p in range(n - 1, -1, -1):
        # an unplaced vertex's bitmask holds only positions above p
        cls = slot[p]
        best = min([s[v] for s in frontier for v in cls if s[v] >= 0])
        bit = 1 << p
        states = set()
        for s in frontier:
            for v in cls:
                if s[v] == best:
                    child = list(s)
                    child[v] = -1
                    for w in nbrs[v]:
                        if child[w] >= 0:
                            child[w] |= bit
                    states.add(tuple(child))
        frontier = states
        mask |= (best >> (p + 1)) << (p * n - p * (p + 1) // 2)
    return (n, mask)


# ---------------------------------------------------------------------------
# generators

def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph(n, tuple(itertools.combinations(range(n), 2)))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("complete bipartite graph needs both sides >= 1")
    return Graph(a + b, tuple((i, a + j) for i in range(a) for j in range(b)))


def star_graph(leaves: int) -> Graph:
    """Star with one center (vertex `leaves`) and `leaves` leaves."""
    if leaves < 1:
        raise ValueError("star needs at least one leaf")
    return complete_bipartite_graph(leaves, 1)


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, outer + spokes + inner)


def connected_graphs_up_to(max_n: int) -> Iterator[Graph]:
    """Every connected graph with 1..max_n vertices, once per isomorphism class.

    Builds level k from level k-1 by attaching one new vertex with every
    nonempty neighborhood, deduplicating by canonical_form.  Every connected
    graph arises this way (remove a non-cut vertex, e.g. a leaf of a spanning
    tree).  A class is kept as its first candidate's neighbour bitmasks; a
    Graph is built only to yield it, in key order.  max_n = 8 builds 12,113
    graphs from about 108k canonical forms.
    """
    if not (1 <= max_n <= 8):
        raise ValueError("supported range is 1 <= n <= 8")
    yield Graph(1)
    level = [(0,)]
    for k in range(2, max_n + 1):
        bit = 1 << (k - 1)
        nxt = {}
        for adj in level:
            for nb_mask in range(1, bit):
                h = tuple(x | bit if nb_mask >> w & 1 else x
                          for w, x in enumerate(adj)) + (nb_mask,)
                nxt.setdefault(canonical_form(h), h)
        level = nxt.values()
        for key in sorted(nxt):
            yield _graph_from_mask(*key)


_FAMILIES = {
    "path": (1, path_graph),
    "cycle": (1, cycle_graph),
    "complete": (1, complete_graph),
    "complete_bipartite": (2, complete_bipartite_graph),
    "star": (1, star_graph),
    "petersen": (0, petersen_graph),
    "all_connected_up_to": (1, connected_graphs_up_to),
}


def generate(family: str, params: Sequence = ()):
    """Build a named family member; all_connected_up_to returns an iterator."""
    if family not in _FAMILIES:
        raise ValueError(
            f"unknown family {family!r}; choose from {sorted(_FAMILIES)}"
        )
    arity, fn = _FAMILIES[family]
    params = tuple(params)
    if len(params) != arity:
        raise ValueError(f"family {family!r} takes {arity} parameter(s)")
    return fn(*params)
