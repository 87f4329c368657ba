"""Independent brute-force reference implementations.

Everything here works on plain (n, edges, colors) data and imports nothing
from the package under test: own adjacency building, own path enumeration,
own union-find, own partition generator.  Deliberately simple and slow.

Two routes are provided.  The literal route enumerates all t^m labeled
colorings directly.  The quotient route enumerates set partitions of the edge
set instead, relying on one lemma: every property checked here compares edge
colors only for equality, so a labeled coloring satisfies the property iff
its kernel partition (edges grouped by color) does, and a surjective
t-coloring exists iff some feasible partition has exactly t blocks.  The
quotient route is affordable on every graph up to 10 edges (Bell(10) =
115975); the literal route explodes as soon as the optimum is large.
test_oracles.py checks the two routes against each other on every graph where
the literal route is affordable.
"""

from itertools import combinations, permutations, product

# --------------------------------------------------------------- primitives


def adjacency(n, edges):
    adj = {v: [] for v in range(n)}
    for i, (a, b) in enumerate(edges):
        adj[a].append((b, i))
        adj[b].append((a, i))
    return adj


def all_pairs(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def nonadjacent_pairs(n, edges):
    es = {tuple(sorted(e)) for e in edges}
    return [(u, v) for u, v in all_pairs(n) if (u, v) not in es]


def simple_paths(n, edges, u, v):
    """All simple u-v paths, each as a tuple of edge indices in walk order."""
    adj = adjacency(n, edges)
    out = []

    def walk(at, seen, trail):
        if at == v:
            out.append(tuple(trail))
            return
        for nxt, eid in adj[at]:
            if nxt not in seen:
                seen.add(nxt)
                trail.append(eid)
                walk(nxt, seen, trail)
                trail.pop()
                seen.remove(nxt)

    walk(u, {u}, [])
    return out


def seq_satisfies(seq, pattern):
    """Pattern test for the color sequence along a path (walk order)."""
    if len(seq) <= 1:
        return True
    if pattern == "rainbow":
        return len(set(seq)) == len(seq)
    if pattern == "proper":
        return all(seq[i] != seq[i + 1] for i in range(len(seq) - 1))
    if pattern == "monochromatic":
        return len(set(seq)) == 1
    if pattern == "conflict_free":
        return any(seq.count(c) == 1 for c in set(seq))
    raise ValueError(pattern)


class DSU:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def same(self, a, b):
        return self.find(a) == self.find(b)


def is_connected(n, edges):
    if n == 0:
        return False
    d = DSU(n)
    for a, b in edges:
        d.union(a, b)
    return all(d.same(0, w) for w in range(1, n))


def set_partitions(items):
    """All partitions of a list, as lists of blocks (insertion order)."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [head]] + part[i + 1:]
        yield [[head]] + part


def _block_ids(m, blocks):
    ids = [0] * m
    for bi, block in enumerate(blocks):
        for e in block:
            ids[e] = bi
    return ids


# ------------------------------------------------------------------- cuts


def separates(n, edges, removed, u, v):
    """True when deleting the edge set `removed` leaves u,v in different
    components."""
    d = DSU(n)
    for i, (a, b) in enumerate(edges):
        if i not in removed:
            d.union(a, b)
    return not d.same(u, v)


def u_side(n, edges, removed, u):
    """The sorted vertices of u's component once the edge set `removed` is
    deleted."""
    d = DSU(n)
    for i, (a, b) in enumerate(edges):
        if i not in removed:
            d.union(a, b)
    return tuple(w for w in range(n) if d.same(u, w))


def minimal_separating_sets(n, edges, u, v):
    """All inclusion-minimal u-v separating edge sets, by full subset scan."""
    m = len(edges)
    separating = {}
    for mask in range(1 << m):
        subset = frozenset(i for i in range(m) if mask >> i & 1)
        separating[subset] = separates(n, edges, subset, u, v)
    out = []
    for subset, sep in separating.items():
        if sep and all(not separating[subset - {e}] for e in subset):
            out.append(subset)
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def _share_endpoint(e1, e2):
    return bool(set(e1) & set(e2))


def cut_satisfies(edges, cut, colors, pattern):
    """Pattern test for an edge cut.  Proper means edges sharing an endpoint
    get different colors; rainbow all distinct; monochromatic all equal.

    All three only remove constraints when edges are removed, so a separating
    set satisfying the pattern contains a minimal separating set that also
    satisfies it; scanning minimal sets is complete.
    """
    cols = [colors[e] for e in cut]
    if pattern == "rainbow":
        return len(set(cols)) == len(cols)
    if pattern == "monochromatic":
        return len(set(cols)) <= 1
    if pattern == "proper":
        cut = list(cut)
        for i in range(len(cut)):
            for j in range(i + 1, len(cut)):
                if (_share_endpoint(edges[cut[i]], edges[cut[j]])
                        and colors[cut[i]] == colors[cut[j]]):
                    return False
        return True
    raise ValueError(pattern)


def bipartition_min_cut(n, edges, u, v):
    """Minimum crossing-cut size over all vertex bipartitions with u,v apart."""
    others = [w for w in range(n) if w not in (u, v)]
    best = None
    for mask in range(1 << len(others)):
        side = {u} | {others[i] for i in range(len(others)) if mask >> i & 1}
        cut = sum(1 for a, b in edges if (a in side) != (b in side))
        if best is None or cut < best:
            best = cut
    return best


def min_vertex_separator(n, edges, u, v):
    """The most internally vertex-disjoint u-v paths, by Menger's theorem:
    the fewest vertices other than u and v whose removal separates them,
    by a scan of vertex sets in size order.  An edge uv is a path that no
    removal breaks, so it counts 1 and is deleted first."""
    rest = [e for e in edges if set(e) != {u, v}]
    if len(rest) < len(edges):
        return 1 + min_vertex_separator(n, rest, u, v)
    others = [w for w in range(n) if w not in (u, v)]
    for size in range(len(others) + 1):
        for removed in combinations(others, size):
            kept = [e for e in edges if not set(e) & set(removed)]
            if separates(n, kept, (), u, v):
                return size


def is_disjoint_family(edges, u, v, paths, mode):
    """Whether paths, vertex tuples, are distinct simple u-v paths along
    edges that pairwise share no edge (mode "edge") or no interior vertex
    (mode "vertex")."""
    index = {tuple(sorted(e)): i for i, e in enumerate(edges)}
    walks = []
    for p in paths:
        if p[0] != u or p[-1] != v or len(set(p)) != len(p):
            return False
        steps = [tuple(sorted(step)) for step in zip(p, p[1:])]
        if not all(step in index for step in steps):
            return False
        walks.append(tuple(index[step] for step in steps))
    return len(set(paths)) == len(paths) and _disjoint(edges, walks, mode)


def is_two_edge_connected(n, edges):
    """Connected, at least two vertices, and no single edge disconnects it."""
    if n < 2 or not is_connected(n, edges):
        return False
    return all(not separates(n, edges, frozenset([i]), *edges[i])
               for i in range(len(edges)))


def is_two_vertex_connected(n, edges):
    """At least three vertices, connected, and no single vertex removal
    disconnects it."""
    if n < 3 or not is_connected(n, edges):
        return False
    for cut in range(n):
        keep = [w for w in range(n) if w != cut]
        index = {w: i for i, w in enumerate(keep)}
        rest = [(index[a], index[b]) for a, b in edges if cut not in (a, b)]
        if not is_connected(n - 1, rest):
            return False
    return True


# ------------------------------------------------------- connection oracles


def _pair_paths(n, edges):
    """Simple paths for every nonadjacent pair; a one-edge path satisfies
    every pattern, so adjacent pairs always pass."""
    return [simple_paths(n, edges, u, v) for u, v in nonadjacent_pairs(n, edges)]


def _connected_under(colors, pattern, pair_paths):
    for paths in pair_paths:
        if not any(seq_satisfies([colors[e] for e in p], pattern)
                   for p in paths):
            return False
    return True


def oracle_connection_number(n, edges, pattern):
    """Reference connection number via the quotient route.

    Minimizing patterns take the fewest blocks over feasible partitions, the
    maximizing monochromatic pattern the most.
    """
    m = len(edges)
    if n == 1:
        return 0
    pair_paths = _pair_paths(n, edges)
    best = None
    for blocks in set_partitions(list(range(m))):
        ids = _block_ids(m, blocks)
        if _connected_under(ids, pattern, pair_paths):
            b = len(blocks)
            if best is None:
                best = b
            elif pattern == "monochromatic":
                best = max(best, b)
            else:
                best = min(best, b)
    if best is None:
        raise AssertionError("no feasible coloring found")
    return best


def literal_connection_number(n, edges, pattern):
    """Fully literal route: all t^m labeled colorings, ascending t.

    For minimizing patterns the smallest feasible t is the answer: a feasible
    coloring at t using fewer colors would rename into a feasible coloring at
    that smaller t.  The maximizing pattern scans all m^m colorings and takes
    the most distinct colors among feasible ones, so it is affordable only on
    tiny graphs.
    """
    m = len(edges)
    if n == 1:
        return 0
    pair_paths = _pair_paths(n, edges)
    if pattern == "monochromatic":
        best = 0
        for colors in product(range(m), repeat=m):
            if _connected_under(colors, pattern, pair_paths):
                best = max(best, len(set(colors)))
        return best
    for t in range(1, m + 1):
        for colors in product(range(t), repeat=m):
            if _connected_under(colors, pattern, pair_paths):
                return t
    raise AssertionError("no feasible coloring found")


def _disjoint(edges, paths, mode):
    """Whether the paths (edge-index tuples in walk order) share no edge
    (mode "edge") or no interior vertex (mode "vertex")."""
    seen = set()
    for p in paths:
        if mode == "edge":
            used = set(p)
        else:
            ends = [v for e in p for v in edges[e]]
            used = {v for v in ends if ends.count(v) == 2}
        if used & seen:
            return False
        seen |= used
    return True


def oracle_k_connection_number(n, edges, pattern, k, mode):
    """Reference k-connection number via the quotient route: every pair,
    adjacent ones included, needs k distinct pairwise disjoint pattern
    paths; minimizing patterns take the fewest blocks over feasible
    partitions, the monochromatic pattern the most."""
    m = len(edges)
    if n == 1:
        return 0
    # per pair, every k-set of pairwise disjoint simple paths
    pair_sets = [[ps for ps in combinations(simple_paths(n, edges, u, v), k)
                  if _disjoint(edges, ps, mode)]
                 for u, v in all_pairs(n)]
    best = None
    for blocks in set_partitions(list(range(m))):
        ids = _block_ids(m, blocks)
        if all(any(all(seq_satisfies([ids[e] for e in p], pattern)
                       for p in ps) for ps in sets) for sets in pair_sets):
            b = len(blocks)
            if best is None:
                best = b
            elif pattern == "monochromatic":
                best = max(best, b)
            else:
                best = min(best, b)
    if best is None:
        raise AssertionError("no feasible coloring found")
    return best


# ---------------------------------------------------- disconnection oracles


def _pair_cut_families(n, edges):
    return [minimal_separating_sets(n, edges, u, v) for u, v in all_pairs(n)]


def _disconnected_under(edges, colors, pattern, cut_families):
    for cuts in cut_families:
        if not any(cut_satisfies(edges, c, colors, pattern) for c in cuts):
            return False
    return True


def oracle_disconnection_number(n, edges, pattern):
    """Reference disconnection number via the quotient route."""
    m = len(edges)
    if n == 1:
        return 0
    cut_families = _pair_cut_families(n, edges)
    best = None
    for blocks in set_partitions(list(range(m))):
        ids = _block_ids(m, blocks)
        if _disconnected_under(edges, ids, pattern, cut_families):
            b = len(blocks)
            if best is None:
                best = b
            elif pattern == "monochromatic":
                best = max(best, b)
            else:
                best = min(best, b)
    if best is None:
        raise AssertionError("no feasible coloring found")
    return best


def literal_disconnection_number(n, edges, pattern):
    """Fully literal route with full edge-subset cut checking per pair."""
    m = len(edges)
    if n == 1:
        return 0
    cut_families = _pair_cut_families(n, edges)
    if pattern == "monochromatic":
        best = 0
        for colors in product(range(m), repeat=m):
            if _disconnected_under(edges, colors, pattern, cut_families):
                best = max(best, len(set(colors)))
        return best
    for t in range(1, m + 1):
        for colors in product(range(t), repeat=m):
            if _disconnected_under(edges, colors, pattern, cut_families):
                return t
    raise AssertionError("no feasible coloring found")


# ------------------------------------------------------------ local oracles


def count_proper_vertex_colorings(n, edges, t):
    total = 0
    for assign in product(range(t), repeat=n):
        if all(assign[a] != assign[b] for a, b in edges):
            total += 1
    return total


def count_proper_edge_colorings(n, edges, t):
    total = 0
    m = len(edges)
    for assign in product(range(t), repeat=m):
        ok = True
        for i in range(m):
            for j in range(i + 1, m):
                if _share_endpoint(edges[i], edges[j]) \
                        and assign[i] == assign[j]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            total += 1
    return total


# -------------------------------------------------------- canonical labels


def canonical_key(n, edges):
    """(n, mask) least over every vertex order whose degrees do not increase,
    pair (p, q), p < q, being bit p*n - p(p+1)/2 + (q-p-1)."""
    deg = [0] * n
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    best = None
    for order in permutations(range(n)):
        if any(deg[order[i]] < deg[order[i + 1]] for i in range(n - 1)):
            continue
        pos = {v: i for i, v in enumerate(order)}
        mask = 0
        for a, b in edges:
            p, q = sorted((pos[a], pos[b]))
            mask |= 1 << (p * n - p * (p + 1) // 2 + q - p - 1)
        if best is None or mask < best:
            best = mask
    return (n, best)
