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
# pair covers by connected vertex sets

class _CoverGaveUp(Exception):
    """tree_cover spent its allowance of work."""


COVER_WORK = 100_000  # sets grown plus search nodes, per tree_cover call


def _sets_through(adj, u: int, to_v, largest: int, room: int):
    """(blocks, room left): blocks holds (|S| - 2, vertex mask, pair mask)
    for every vertex set S of at most largest vertices that holds u and v
    and induces a connected subgraph, cheapest first, then by vertex mask.
    adj is neighbour_masks(graph), to_v the distances to v; the pair mask
    holds pair (a, b), a < b, of S as bit a*n + b.  Each set grown takes
    one unit of room, and _CoverGaveUp is raised when none is left.

    Each connected set through u is found once (Wernicke's ESU rooted at
    u): it grows by vertices of an extension set, to which an added vertex
    brings only its neighbours that are neither in nor next to the set, and
    a vertex tried is left out of the later branches.  A branch is cut when
    v is further from the set than the set may still grow."""
    n = len(adj)
    out = []

    def grow(s, size, ext, closed, spread, pairs, near):
        # closed: s and its neighbours; spread: bit a*n for each a in s;
        # near: the least distance from a member of s to v
        nonlocal room
        room -= 1
        if room < 0:
            raise _CoverGaveUp
        if not near:
            out.append((size - 2, s, pairs))
        while ext:
            w = ext & -ext
            ext ^= w
            i = w.bit_length() - 1
            if size + 1 + min(near, to_v[i]) > largest:
                continue
            below = spread & (1 << i * n) - 1  # members under i
            with_i = below << i | (s >> i + 1 << i + 1) << i * n
            grow(s | w, size + 1, ext | adj[i] & ~closed, closed | adj[i],
                 spread | 1 << i * n, pairs | with_i, min(near, to_v[i]))

    try:
        grow(1 << u, 1, adj[u], adj[u] | 1 << u, 1 << u * n, 0, to_v[u])
    finally:
        # grow's closure refers to grow: a reference cycle that only the
        # cyclic collector would free
        del grow
    out.sort(key=lambda block: block[:2])
    return out, room


def min_cover(need: tuple, best: int, lower, blocks_with):
    """(cost, blocks) of a cheapest family of blocks that covers each pair
    as often as need asks, or None if every such family costs best or more.

    A block is a (cost, vertex mask, pair mask) triple and covers each pair
    of its pair mask once.  need[j] is the pair mask of the pairs still to
    be covered more than j times, so need[0] holds every pair still
    uncovered.  lower(need) is a lower bound on the cost of covering need;
    blocks_with(pair, cap) lists the blocks that cover the pair bit pair,
    cheapest first, with every one costing less than cap among them.  The
    search branches on the lowest pair of need[0] and tries the blocks
    holding it in order, and drops a branch once its cost plus lower
    reaches best, before it asks for any block.

    With one level of need the family's blocks are kept pairwise pair
    disjoint.  That is complete when blocks are closed under merging: the
    union of two blocks that share two vertices is a block and costs at
    most their sum, as with connected sets at cost |S| - 2.  A cheapest
    family with the fewest blocks then has no two blocks sharing a pair,
    and it is reached: each lowest uncovered pair lies in one of its blocks
    that shares no pair with those already taken.
    """
    best_family = None
    family = []

    def grow(need, taken, cost):
        nonlocal best, best_family
        if not need[0]:
            best, best_family = cost, tuple(family)
            return
        if cost + lower(need) >= best:
            return
        for block in blocks_with(need[0] & -need[0], best - cost):
            if cost + block[0] >= best:
                break
            if len(need) == 1 and block[2] & taken:
                continue
            family.append(block)
            pairs = block[2]
            grow(tuple((x & ~pairs) | (y & pairs)
                       for x, y in zip(need, need[1:] + (0,))),
                 taken | pairs, cost + block[0])
            family.pop()

    try:
        grow(need, 0, 0)
    finally:
        # as in _sets_through; this cycle would also hold lower and
        # blocks_with, and through them the caller's graph and grown sets
        del grow
    return None if best_family is None else (best, best_family)


def tree_cover(graph: Graph):
    """(c, family) for a connected graph: c is at most, and as a rule
    equal to, the least sum of |S| - 2 over a family of vertex sets S, each
    inducing a connected subgraph on at least three vertices, such that
    every nonadjacent pair lies inside some S; family is such a family of
    cost c or more, as sorted vertex tuples.

    Branch and bound (min_cover) seeded with the cover {V} of cost n - 2,
    so c never exceeds n - 2.  The connected sets holding a pair are grown
    when the search first branches on it (_sets_through), and only as
    large as the branch can afford, so a graph whose lower bound reaches
    n - 2 at the root (any graph with a vertex of degree 1) grows none.  A
    complete graph has c = 0 and the empty family.  If the search spends
    COVER_WORK (sets grown plus nodes) it gives up and returns the root's
    lower bound with the family {V}; on the graphs of order 8 or less it
    never spends a tenth of that.

    Lower bound: covering the pairs still uncovered costs at least the
    number of them at any one vertex w.  A set S holding k of them at w
    also holds a neighbour of w, as G[S] is connected, so it costs
    |S| - 2 >= k; each such pair lies in some set through w.
    """
    n = graph.n
    adj = neighbour_masks(graph)
    need = 0
    for u in range(n):  # pair (u, v), v > u, is bit u*n + v
        later = (1 << n) - (2 << u)  # vertices above u
        need |= (later & ~adj[u]) << u * n
    if not need:
        return 0, ()
    spread = sum(1 << u * n for u in range(n))
    at = [((1 << n) - 1) << w * n | spread << w for w in range(n)]
    grown = {}  # pair bit -> (cap, the sets through the pair costing < cap)
    room = COVER_WORK

    def lower(need):
        nonlocal room
        room -= 1
        if room < 0:
            raise _CoverGaveUp
        return max((need[0] & x).bit_count() for x in at)

    def blocks_with(pair, cap):
        nonlocal room
        if pair not in grown or grown[pair][0] < cap:
            u, v = divmod(pair.bit_length() - 1, n)
            blocks, room = _sets_through(adj, u, bfs_distances(graph, v),
                                         cap + 1, room)
            grown[pair] = cap, blocks
        return grown[pair][1]

    everything = (tuple(range(n)),)
    try:
        found = min_cover((need,), n - 2, lower, blocks_with)
    except _CoverGaveUp:
        return max((need & x).bit_count() for x in at), everything
    if found is None:
        return n - 2, everything
    return found[0], tuple(tuple(w for w in range(n) if s >> w & 1)
                           for _, s, _ in found[1])


# ---------------------------------------------------------------------------
# blocks and ear decompositions

def _bits(mask: int):
    """The set bits of mask, lowest first, as vertex numbers."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _blocks(adj) -> list:
    """Vertex masks of the blocks (maximal 2-connected subgraphs and
    bridges) of a connected graph with at least one edge, adj being
    neighbour_masks(graph): Tarjan's depth-first low points, without
    recursion.  Two vertices of a block are adjacent in the graph iff they
    are adjacent in the block, so a block is its vertex mask."""
    disc = [-1] * len(adj)
    low = [0] * len(adj)
    disc[0] = 0
    count = 1  # vertices discovered
    found = []
    stack = [0]  # vertices not yet in a block, in discovery order
    frames = [[0, adj[0]]]  # vertex and its neighbours still to try
    while True:
        frame = frames[-1]
        v, rest = frame
        if rest:
            w = (rest & -rest).bit_length() - 1
            frame[1] = rest & (rest - 1)
            if disc[w] < 0:
                disc[w] = low[w] = count
                count += 1
                stack.append(w)
                frames.append([w, adj[w]])
            elif disc[w] < low[v]:
                low[v] = disc[w]
            continue
        frames.pop()
        if not frames:
            return found
        p = frames[-1][0]
        low[p] = min(low[p], low[v])
        if low[v] >= disc[p]:  # p separates v's subtree from the rest
            block = 1 << p
            while True:
                x = stack.pop()
                block |= 1 << x
                if x == v:
                    break
            found.append(block)


def _hop(adj, x: int, inside: int, ends: int, limit: int):
    """(edges, inner mask) of a shortest path from x to a vertex of ends
    whose inner vertices, at least one, all lie in inside, or None if every
    such path has limit edges or more.  Breadth first on masks; ties go to
    the lowest vertex at each step back from the end."""
    levels = []
    seen = 0
    front = adj[x] & inside
    while front and len(levels) + 2 < limit:
        levels.append(front)
        seen |= front
        hit = 0
        reach = 0
        for w in _bits(front):
            if adj[w] & ends:
                hit |= 1 << w
            reach |= adj[w]
        if hit:
            w = (hit & -hit).bit_length() - 1
            inner = 1 << w
            for level in reversed(levels[:-1]):
                back = level & adj[w]
                w = (back & -back).bit_length() - 1
                inner |= 1 << w
            return len(levels) + 1, inner
        front = reach & inside & ~seen
    return None


def _ear_total(adj, block: int) -> int:
    """The least over the block's edges uv of floor(k/2) + sum of
    floor((l_i - 1)/2): k edges on a shortest cycle through uv, then l_i
    edges on each open ear, taken greedily as a shortest ear with at least
    one new vertex until the ears span the block.  Ears of one edge add 0
    and are left out.  A 2-connected block has an ear from any vertex set
    S of at least two of its vertices while some vertex r lies outside:
    from a neighbour x in S of r's, a path in the block minus x from r to
    S - x, stopped at S."""
    best = len(adj)  # above any total, which is at most half the block
    for u in _bits(block):
        for v in _bits(adj[u] & block & ~((2 << u) - 1)):  # v > u
            cycle = _hop(adj, u, block & ~(1 << u | 1 << v), 1 << v,
                         2 * best - 1)
            if cycle is None:
                continue  # its cycle alone counts best or more
            total = (cycle[0] + 1) // 2
            have = cycle[1] | 1 << u | 1 << v
            while have != block and total < best:
                ear = (len(adj) + 1, 0)
                outside = block & ~have
                for x in _bits(have):
                    if adj[x] & outside:
                        ear = _hop(adj, x, outside, have & ~(1 << x),
                                   ear[0]) or ear
                        if ear[0] == 2:
                            break
                total += (ear[0] - 1) // 2
                have |= ear[1]
            best = min(best, total)
            if best == 1:
                return 1
    return best


def ear_bound(graph: Graph) -> int:
    """An upper bound on md(G) for a connected graph: the sum over its
    blocks of 1 for a bridge and of _ear_total for a 2-connected block, a
    start cycle of k edges and open ears of l_1, l_2, ... edges (Whitney's
    open ear decomposition), counted floor(k/2) + sum floor((l_i - 1)/2).
    The proof that md(G) is at most any such sum, whatever the cycle and
    the ears, is in solve.disconnection_number; the greedy choices affect
    only how tight it is.

    It is at most min(m, n - 1).  The cycle's floor(k/2) and each ear's
    floor((l - 1)/2) are at most half the vertices they add, so a block
    of n_B vertices and m_B >= n_B edges counts at most floor(n_B/2) <=
    n_B - 1, and a bridge 1 = n_B - 1 = m_B.  Over the blocks, the n_B - 1
    sum to n - 1 and the m_B to m.  A graph of at most one vertex has 0.
    """
    if graph.n <= 1:
        return 0
    if not is_connected(graph):
        raise ValueError("ear_bound requires a connected graph")
    adj = neighbour_masks(graph)
    return sum(1 if block.bit_count() == 2 else _ear_total(adj, block)
               for block in _blocks(adj))


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

    Builds level k from level k-1 by attaching one new vertex v with every
    nonempty neighborhood M to each representative P, deduplicating by
    canonical_form.  A class is kept as its first kept candidate's neighbour
    bitmasks; a Graph is built only to yield it, in key order.  max_n = 8
    builds 12,113 graphs from 22,648 canonical forms.

    Two rules skip a candidate before it is keyed (McKay's canonical
    augmentation, J. Algorithms 1998); neither changes which classes are
    found, so keys and output are those of keying every candidate.

    Least-degree deletion: skip P + M if some vertex w != v of it has
    degree below v's and is not a cut vertex.  Every connected G has a
    non-cut vertex (a leaf of a spanning tree); let v* have least degree
    among them.  G - v* is connected, so it is isomorphic to some P, and
    the candidate P + M that maps to G with v* onto v has no non-cut vertex
    of lower degree than v: it is kept.

    Twins: vertices a < b of P are twins when their neighbourhoods agree
    outside {a, b}; swapping them is an automorphism of P.  Skip M if it
    holds b but not a for some twin pair.  The swap maps such an M to M'
    with P + M' isomorphic to P + M and M' < M as integers, so repeated
    swaps end at a mask that passes.

    Together: the swaps extend to isomorphisms of the candidates that fix
    v, so they keep v's degree and every vertex's degree and cut status.
    The candidate the first rule keeps for G thus swaps to one that both
    rules keep.
    """
    if not (1 <= max_n <= 8):
        raise ValueError("supported range is 1 <= n <= 8")
    yield Graph(1)
    level = [(0,)]
    for k in range(2, max_n + 1):
        bit = 1 << (k - 1)
        full = (bit << 1) - 1
        nxt = {}
        for adj in level:
            twins = [(1 << a | 1 << b, 1 << b)
                     for b in range(k - 1) for a in range(b)
                     if adj[a] & ~(1 << b) == adj[b] & ~(1 << a)]
            for nb_mask in range(1, bit):
                if any(nb_mask & pair == b for pair, b in twins):
                    continue
                h = tuple(x | bit if nb_mask >> w & 1 else x
                          for w, x in enumerate(adj)) + (nb_mask,)
                d = nb_mask.bit_count()
                if any(x.bit_count() < d
                       and _induces_connected(h, full ^ 1 << w)
                       for w, x in enumerate(h)):
                    continue
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
