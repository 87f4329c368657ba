"""Coloring verifiers and machine-checkable certificates.

A certificate carries one witness per unordered vertex pair: a pattern path
(connection), k pairwise disjoint pattern paths (k_connection), or the u-side
of a bipartition whose crossing cut fits the pattern (disconnection).
verify_certificate revalidates everything in polynomial time.  It returns
False on malformed input; an internal error propagates, so a bug in the
verifier cannot pass for a rejected certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Optional, Sequence

from .coloring import (
    _CONFLICT_FREE,
    _MONOCHROMATIC,
    _PROPER,
    _RAINBOW,
    EdgeColoring,
    Pattern,
    PathSearch,
    _prefix_test,
    _seq_satisfies,
)
from .graph import (
    Graph,
    bfs_distances,
    bonds,
    crossing_cut,
    is_connected,
    max_disjoint_paths,
    simple_paths,
    # not called here; it stays because perfbench/tracing.py patches this
    # name and perfbench/test_bench.py checks it is graph.uv_bipartitions
    uv_bipartitions,
)
from .local import is_proper_edge_coloring

PROPER_RAINBOW = "proper_rainbow"

CUT_PATTERNS = (Pattern.RAINBOW, Pattern.PROPER, Pattern.MONOCHROMATIC)


@dataclass(frozen=True)
class PairWitness:
    u: int
    v: int
    paths: Optional[tuple] = None  # tuple of vertex tuples
    side: Optional[tuple] = None   # sorted vertex tuple containing u


@dataclass(frozen=True)
class Certificate:
    kind: str                      # connection | k_connection | disconnection
    pattern: str                   # pattern name, or proper_rainbow
    pairs: tuple
    k: Optional[int] = None        # k_connection only
    mode: Optional[str] = None     # k_connection only


def certificate_to_dict(cert: Certificate) -> dict:
    """JSON-ready dict with stable field order."""
    out = {"kind": cert.kind, "pattern": cert.pattern}
    if cert.kind == "k_connection":
        out["k"] = cert.k
        out["mode"] = cert.mode
    pairs = []
    for w in cert.pairs:
        entry = {"u": w.u, "v": w.v}
        if w.side is not None:
            entry["side"] = list(w.side)
        else:
            entry["paths"] = [list(p) for p in (w.paths or ())]
        pairs.append(entry)
    out["pairs"] = pairs
    return out


def _is_int(x) -> bool:
    """An integer that is not a bool (JSON true would pass isinstance int)."""
    return isinstance(x, int) and not isinstance(x, bool)


def certificate_from_dict(data: dict) -> Certificate:
    """Parse the JSON layout; raises ValueError on structural problems."""
    if not isinstance(data, dict):
        raise ValueError("certificate must be an object")
    kind = data.get("kind")
    pattern = data.get("pattern")
    if kind not in ("connection", "k_connection", "disconnection"):
        raise ValueError(f"unknown certificate kind {kind!r}")
    known = {p.value for p in Pattern} | {PROPER_RAINBOW}
    if pattern not in known:
        raise ValueError(f"unknown certificate pattern {pattern!r}")
    pairs = []
    raw = data.get("pairs")
    if not isinstance(raw, list):
        raise ValueError("certificate pairs must be a list")
    for entry in raw:
        if not isinstance(entry, dict):
            raise ValueError("pair witness must be an object")
        u, v = entry.get("u"), entry.get("v")
        if not _is_int(u) or not _is_int(v):
            raise ValueError("pair endpoints must be integers")
        if ("side" in entry) == ("paths" in entry):
            raise ValueError("pair witness needs exactly one of side, paths")
        if "side" in entry:
            side = entry["side"]
            if not isinstance(side, list) or not all(_is_int(x) for x in side):
                raise ValueError("side must be a list of integers")
            pairs.append(PairWitness(u, v, side=tuple(side)))
        else:
            paths = entry.get("paths")
            if not isinstance(paths, list):
                raise ValueError("paths must be a list")
            parsed = []
            for p in paths:
                if not isinstance(p, list) or not all(_is_int(x) for x in p):
                    raise ValueError("each path must be a list of integers")
                parsed.append(tuple(p))
            pairs.append(PairWitness(u, v, paths=tuple(parsed)))
    k = data.get("k")
    mode = data.get("mode")
    if kind == "k_connection":
        if not _is_int(k):
            raise ValueError("k_connection certificate needs integer k")
        if mode not in ("edge", "vertex"):
            raise ValueError("k_connection certificate needs mode edge|vertex")
    elif k is not None or mode is not None:
        raise ValueError("k and mode apply only to k_connection certificates")
    return Certificate(kind, pattern, tuple(pairs), k=k, mode=mode)


# ---------------------------------------------------------------------------
# reusable per-graph checkers (shared by public verifiers and the solvers)

def _all_pairs(n: int):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def _first_disjoint(masks, k: int, avail: Optional[int] = None,
                    used: int = 0):
    """Indices of the first k pairwise disjoint masks, the least index tuple
    in lexicographic order, among the indices set in the bitmask avail (all
    by default) whose masks miss used; None if there are none.  An index is
    never taken twice, so a zero mask is not its own partner."""
    if avail is None:
        avail = (1 << len(masks)) - 1
    if avail.bit_count() < k:
        return None
    while avail:
        low = avail & -avail
        avail ^= low
        i = low.bit_length() - 1
        if masks[i] & used:
            continue
        if k == 1:
            return [i]
        rest = _first_disjoint(masks, k - 1, avail, used | masks[i])
        if rest is not None:
            return [i] + rest
    return None


def _disjoint_order(adj, u: int, v: int, fits=None):
    """The simple u-v paths that fits keeps (all by default) as (sorted
    edges, vertices), in the (length, vertices) order of _first_disjoint."""
    return sorted(((tuple(sorted(es)), vs)
                   for vs, es in simple_paths(adj, u, v, fits)),
                  key=lambda p: (len(p[0]), p[1]))


class _GraphTables:
    """What the checkers of one graph read that no pattern changes, each
    part built when first read.  Every list here is shared by all the
    checkers of the graph, so none of them may change it.  A family is a
    list of (member, witness) pairs, member being a sorted edge tuple; it
    is a list, not a tuple: CPython keeps thousands of freed tuples of each
    short length on free lists, and discarding a graph's tuple families
    would fill them (a measured 14% rise in peak memory)."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.pairs = _all_pairs(graph.n)
        self.flows = {}  # mode -> per pair, max_disjoint_paths' count
        self.pools = {}  # name of a shared list -> its _Pool

    @cached_property
    def nonadjacent(self):
        """The nonadjacent pairs, most distant first.  Single-edge paths
        satisfy every pattern, so only these pairs can fail, and the most
        distant ones fail fastest."""
        graph = self.graph
        dist = [bfs_distances(graph, u) for u in range(graph.n)]
        return sorted((p for p in self.pairs if not graph.has_edge(*p)),
                      key=lambda p: (-dist[p[0]][p[1]], p))

    @cached_property
    def paths(self):
        """Per nonadjacent pair (u, v), its simple paths as (sorted edge
        tuple, vertices from u) in simple_paths order."""
        adj = self.graph.adjacency()
        return [[(tuple(sorted(es)), vs)
                 for vs, es in simple_paths(adj, u, v)]
                for u, v in self.nonadjacent]

    @cached_property
    def disjoint_paths(self):
        """Per pair, adjacent pairs included, its simple paths in
        _disjoint_order."""
        adj = self.graph.adjacency()
        return [_disjoint_order(adj, u, v) for u, v in self.pairs]

    @cached_property
    def bonds(self):
        """_pair_bonds of every pair; the graph must be connected."""
        return _pair_bonds(self.graph, self.pairs)

    def pool(self, families) -> _Pool:
        """The _Pool of families: built once for each shared list above and
        kept in pools under its name, built afresh for any other list
        (prc's paths and stars)."""
        for name in ("paths", "disjoint_paths", "bonds"):
            if vars(self).get(name) is families:
                if name not in self.pools:
                    self.pools[name] = _Pool(families, self.graph.m)
                return self.pools[name]
        return _Pool(families, self.graph.m)


class _Pool:
    """A family list's members pooled, one bit per distinct member in order
    of first appearance, and what every rule's rows are read from; nothing
    here depends on the pattern, so the tables of all patterns share it and
    none may change it.  bits gives each family's member bits in family
    order, family_masks their unions, initial every bit.  Per edge e,
    has[e] is the mask of the members containing e, head[e] of those whose
    first edge is e, and last[e] of those whose last edge is e.  An empty
    member (a star of an isolated vertex) is in no mask.  needs holds each
    member's need under a rule, as masks by need (above)."""

    def __init__(self, families, m: int):
        bit = {}  # distinct member -> its bit
        self.bits = []
        self.family_masks = []
        for family in families:
            bits = []
            mask = 0
            for s, _ in family:
                b = bit.get(s)
                if b is None:
                    b = bit[s] = len(bit)
                bits.append(b)
                mask |= 1 << b
            self.bits.append(bits)
            self.family_masks.append(mask)
        self.members = list(bit)  # bit -> member
        self.initial = (1 << len(bit)) - 1
        self.has, self.head, self.last = [0] * m, [0] * m, [0] * m
        for b, s in enumerate(self.members):
            if s:
                one = 1 << b
                self.head[s[0]] |= one
                self.last[s[-1]] |= one
                for e in s:
                    self.has[e] |= one
        self.disjoint = {}  # mode -> DisjointCheck's (members, owner)
        self.needs = {}     # rule -> above's list

    def above(self, rule: str, need) -> list:
        """above[t], the members s with need(s) > t, for t from 0 up to the
        largest need less one (none beyond), computed once per rule."""
        if rule not in self.needs:
            by_need = {}  # need -> its members' bits
            for b, s in enumerate(self.members):
                by_need.setdefault(need(s), []).append(b)
            above = [0] * max(by_need, default=0)
            mask = 0
            for t in range(len(above) - 1, -1, -1):
                for b in by_need.get(t + 1, ()):
                    mask |= 1 << b
                above[t] = mask
            self.needs[rule] = above
        return self.needs[rule]

    @cached_property
    def decided(self):
        """Per edge i, (s, bit mask) for each member s of two or more edges
        whose last edge is i, in bit order: the conflict-free rows."""
        rows = [[] for _ in self.has]
        for b, s in enumerate(self.members):
            if len(s) > 1:
                rows[s[-1]].append((s, 1 << b))
        return rows

    @cached_property
    def done(self):
        """done[i], the members whose last edge is at most i."""
        done = list(self.last)
        for i in range(1, len(done)):
            done[i] |= done[i - 1]
        return done


@lru_cache(maxsize=1)
def _tables(graph: Graph) -> _GraphTables:
    """The _GraphTables of graph.  One graph is held at a time, so the
    columns of a table row, which run back to back on one graph, build its
    paths and bonds once, and the next graph replaces them.  Graph is a
    frozen dataclass, compared by (n, edges), so a relabeled copy is
    another key."""
    return _GraphTables(graph)


class ConnCheck:
    """Pattern-connectivity tests for one graph across many colorings; the
    witnesses are read from table(pattern), a search's forward checker."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.tables = _tables(graph)
        self.pairs = self.tables.pairs
        self.nonadjacent = self.tables.nonadjacent

    def table(self, pattern) -> DisconnCheck:
        """The DisconnCheck of the graph's shared nonadjacent path families;
        for PROPER_RAINBOW, under the rainbow rule, then each vertex's star
        as a one-member family with witness None, in a new list.  A path's
        edges fix its ends, so the paths take their bits in family order,
        and the stars take later bits or share a path's."""
        families = self.tables.paths
        if pattern == PROPER_RAINBOW:
            pattern = Pattern.RAINBOW
            families = families + [[(tuple(sorted(e for _, e in nbrs)), None)]
                                   for nbrs in self.graph.adjacency()]
        return DisconnCheck(self.graph, pattern, families)

    # no caller in the package; kept for perfbench/tracing.py's patch and
    # perfbench/build_reference.py
    def connected(self, colors: Sequence, pattern: Pattern) -> bool:
        find = PathSearch(self.graph).find
        for u, v in self.nonadjacent:
            if find(colors, u, v, pattern) is None:
                return False
        return True

    def witnesses(self, colors: Sequence, table: DisconnCheck):
        """Per pair, its witness path under table's pattern, or None if a
        pair has none: an adjacent pair's own edge, which fits every
        pattern, and a nonadjacent pair's first fitting path in simple_paths
        order, read by table.first, table being from self.table."""
        first = table.first(colors)
        if first is None:
            return None
        found = dict(zip(self.nonadjacent, first))
        return tuple(PairWitness(u, v, paths=(found.get((u, v), (u, v)),))
                     for u, v in self.pairs)


def _resources(family, mode: str):
    """Per path (edges, vertices) of family, what k disjoint paths may not
    share: the bitmask of its edges (edge mode) or of its interior
    vertices."""
    if mode == "edge":
        return [sum(1 << e for e in es) for es, _ in family]
    return [sum(1 << w for w in vs[1:-1]) for _, vs in family]


class KConnCheck:
    """k-disjoint pattern-path tests (edge- or internally-vertex-disjoint);
    callers check k and mode first, with _check_k_connected.  As in
    ConnCheck, the witnesses are read from table(pattern)."""

    def __init__(self, graph: Graph, k: int, mode: str):
        self.graph, self.k, self.mode = graph, k, mode
        self.tables = _tables(graph)
        self.pairs = self.tables.pairs

    def table(self, pattern: Pattern) -> DisjointCheck:
        """The DisjointCheck of the graph's shared disjoint_paths."""
        return DisjointCheck(self.graph, pattern, self.tables.disjoint_paths,
                             self.k, self.mode)

    # no caller in the package; kept for perfbench/tracing.py's patch, and
    # tests compare the k >= 2 tables with it
    def connected(self, colors: Sequence, pattern: Pattern) -> bool:
        fits = _prefix_test(colors, pattern)
        adj = self.graph.adjacency()
        for u, v in self.pairs:
            paths = _disjoint_order(adj, u, v, fits)
            if _first_disjoint(_resources(paths, self.mode), self.k) is None:
                return False
        return True

    def witnesses(self, colors: Sequence, table: DisjointCheck):
        """Per pair, the first k disjoint fitting paths in _disjoint_order,
        or None if a pair has none: table.first, table being from
        self.table."""
        first = table.first(colors)
        if first is None:
            return None
        return tuple(PairWitness(u, v, paths=paths)
                     for (u, v), paths in zip(self.pairs, first))


def _edge_ends(graph: Graph):
    """Per edge, the bitmask of its two endpoints."""
    return [1 << a | 1 << b for a, b in graph.edges]


def _adjacent_pairs(ends, s):
    """The pairs (s[i], s[j]), i < j, of edges sharing an endpoint, ends
    being _edge_ends(graph)."""
    return [(e, f) for e, f in combinations(s, 2) if ends[e] & ends[f]]


def _pair_bonds(graph: Graph, pairs):
    """Per pair (u, v) of pairs, its bonds as (cut, u-side), sorted by
    (size, edges): small first, as a pair's first live cut is its witness.
    The bonds are found and sorted once, then dealt to the pairs they
    separate."""
    index = {p: k for k, p in enumerate(pairs)}
    out = [[] for _ in pairs]
    for side, cut in sorted(bonds(graph),
                            key=lambda bond: (len(bond[1]), bond[1])):
        rest = tuple(w for w in range(graph.n) if w not in side)
        for a in side:
            for b in rest:
                if a < b:
                    out[index[a, b]].append((cut, side))
                else:
                    out[index[b, a]].append((cut, rest))
    return out


def _max_degree(edges, s) -> int:
    """The largest number of edges of s at one vertex, edges being the
    graph's edge list."""
    degree = {}
    for e in s:
        for w in edges[e]:
            degree[w] = degree.get(w, 0) + 1
    return max(degree.values(), default=0)


def _cut_ok(colors, cut, adjacent, pattern: Pattern) -> bool:
    if pattern is _RAINBOW:
        seen = set()
        for e in cut:
            c = colors[e]
            if c in seen:
                return False
            seen.add(c)
        return True
    if pattern is _MONOCHROMATIC:
        first = colors[cut[0]]
        return all(colors[e] == first for e in cut)
    if pattern is _PROPER:
        return all(colors[e] != colors[f] for e, f in adjacent)
    raise ValueError(f"pattern {pattern.value} has no cut form")


class DisconnCheck:
    """Table of edge-set families under one of the four pattern rules: a
    coloring passes when every family keeps a member that fits.  It tests
    and certifies disconnection, and it is the forward checker of
    solve._search for cuts, paths and stars.

    A family lists (member, witness) pairs, member a sorted edge tuple; the
    table keeps the families list it is given and never changes it.  It
    defaults to the pair cut families, _tables.bonds: pair k's bonds
    (minimal cuts) with their u-sides, sorted by (size, edges); G must be
    connected.  Why bonds suffice is below.  Given families hold paths
    with their vertex tuples, or vertex stars with None.  The edges of a
    simple path that share an endpoint are its consecutive ones, so the
    proper rule is the proper-path rule, and a one-member family holding a
    vertex's star, under the rainbow rule, says its edges differ.

    Members are pooled, one bit each, and the state of a colored prefix
    (edges are colored in index order) is the bitmask of members still
    alive.  The pooling does not depend on the pattern, so it is a _Pool,
    built once per shared family list (_GraphTables.pool).  The rainbow,
    proper and monochromatic rules are pairwise constraints, so when edge i
    gets its color it is compared with a member's earlier edges only: with
    every one (rainbow), with those sharing an endpoint (proper), or with
    the first (monochromatic, equality being transitive).  rows[i] lists
    (f, mask), mask being the members comparing edge i with edge f < i;
    they die when the colors are equal (rainbow, proper) or differ
    (monochromatic), for every completion of the prefix.  The masks are
    read from the pool's per-edge masks; f < i and members are sorted edge
    tuples.  A member compares i with f under the rainbow rule exactly
    when it contains both, has[f] & has[i]; under the proper rule exactly
    when it contains both and f and i share an endpoint, the same mask
    where they do and none where they do not; under the monochromatic rule
    exactly when f is its first edge and it contains i, head[f] & has[i]
    (a member whose first edge is f < i holds i among its later edges).
    Zero masks are left out, so each row holds the same (f, mask) pairs as
    one gathered member by member over each member's compared edge pairs.

    The conflict-free rule is not pairwise and has no cut form, so it needs
    explicit families.  A member is decided when its last (highest-index)
    edge is colored: rows[i] lists (s, mask) for each member s of two or
    more edges whose last edge is i, and it dies then if no color occurs on
    s exactly once (a one-edge member always fits).  Edges are colored in
    index order, so by then every edge of s has its color, the same in
    every completion: the member dies exactly when no completion makes it
    fit, and a conflict-free path is never killed.

    So under every rule a member dies only when no completion of the prefix
    makes it fit, and at a complete coloring, where every member has been
    fully compared or decided, the live members are exactly the fitting
    ones.  A prefix is rejected as soon as a family has no live member: it
    rejects no prefix with a feasible completion, whose fitting members are
    never killed, and a complete coloring that survives has a fitting
    member in every family.  first folds extend over a whole coloring and
    gives each family's first live, so first fitting, witness (k disjoint
    ones in DisjointCheck); every witnesses method reads it.

    A band t starts from start(t): initial less above[t], the members whose
    need is above t.  Under the rainbow rule a member's need is its number
    of edges: by pigeonhole a member of more than t edges repeats a color
    under t colors.  Under the proper rule, for the cut families only, it is
    the largest number of the member's edges at one vertex, as those edges
    must all differ; a cut is bipartite, so by Konig's edge-coloring theorem
    that many colors suffice, and the test is exact.  A string of band t has
    exactly t colors, so a cleared member fits no completion of any prefix.
    Its family's fitting members are never cleared, so no prefix with a
    feasible completion is rejected, and at a complete coloring the live
    members are still exactly the fitting ones.  So the band accepts the
    same strings: the lex-first string, the value and the counts stay.  A
    family left with no member (k disjoint ones in DisjointCheck) makes the
    band infeasible, and start gives None.  first folds from initial, so
    the first live witness stays too; only the nodes move.  Proper paths
    have need at most 2 and are left whole: the rule could refute only
    their band 1, which is cheap, and costs a pass over every path.

    A pair's bonds give the same nodes and witnesses as all its crossing
    cuts d(S), u in S, which suffice: a u-v separating edge set contains
    the crossing cut of u's side after its removal.
    - A non-bond d(S) contains a bond.  Let S' be u's component of G[S] and
      T v's component of G - S'.  V - T is connected, as every other
      component of G - S' is adjacent to S', so d(T) is a bond, and d(T)
      lies in d(S'), which lies in d(S).
    - Under the rainbow, proper and monochromatic rules a subset of a live
      member is live at every prefix (monochromatic: the subset's first
      edge is colored no earlier than the superset's).  So a live d(S)
      contains a live bond: no family empties at a different prefix, and
      the nodes stay.
    - As G is connected, a u-v cut fixes its u-side, so d(T) is strictly
      smaller than a non-bond d(S) and sorts first: a pair's first live cut
      is a bond, and the witnesses stay.  The minimum cuts behind rd's
      lambda+ bound are bonds too.

    DisjointCheck is the same table for k >= 2 pairwise disjoint paths: a
    family stays alive while its live members hold k pairwise disjoint ones
    (k distinct members, so a one-edge path, which has no interior vertex,
    is never its own partner).  This rejects no prefix with a feasible
    completion: the k disjoint paths that fit it in each pair are never
    killed on its prefixes, so they stay live.  At a complete coloring the
    live members are exactly the fitting paths, so a surviving coloring has
    k disjoint fitting paths per pair.  Both hold under all four rules, by
    the argument above.  So it keeps extend and start, which find the
    members a rule kills, and changes only _lose, which says whether every
    family survives their loss.  Each family watches k live disjoint
    members, and _lose re-picks only the families that lost a watched
    member; the others still hold their k.  The watched sets are neither
    restored on backtracking nor picked afresh at each band.  Every watched
    set lies inside initial.  start(t) re-picks inside the state it returns
    the sets that above[t] meets, so none then meets above[t] and each lies
    inside that state.  extend keeps each inside the state it returns, or
    on a rejection inside the state it was given, and a walk (or a fold
    from initial) gives extend a state containing every state returned
    below it.  So a watched set always lies inside the state that extend is
    given, and it is still live if no dead member is in it; when no live
    member dies, extend returns the state as it is.
    """

    def __init__(self, graph: Graph, pattern: Pattern, families=None):
        if families is None and pattern not in CUT_PATTERNS:
            raise ValueError(f"pattern {pattern.value} has no cut form")
        self.graph = graph
        self.pattern = pattern
        tables = _tables(graph)
        self.pairs = tables.pairs
        cuts = families is None
        if cuts:
            _require_connected(graph)
            families = tables.bonds
        self.families = families
        self.pool = pool = tables.pool(families)
        self.bits = pool.bits
        self.family_masks = pool.family_masks
        self.initial = pool.initial
        self.above = []  # above[t]: the members that fit no t colors
        if pattern is _RAINBOW:
            self.above = pool.above("edges", len)
        elif pattern is _PROPER and cuts:
            self.above = pool.above("degree",
                                    lambda s: _max_degree(graph.edges, s))
        if pattern is _CONFLICT_FREE:
            self.rows = pool.decided
            return
        has = pool.has
        left = pool.head if pattern is _MONOCHROMATIC else has
        ends = _edge_ends(graph)
        self.rows = [[] for _ in range(graph.m)]
        for i, row in enumerate(self.rows):
            for f in range(i):
                if pattern is _PROPER and not ends[f] & ends[i]:
                    continue
                mask = left[f] & has[i]
                if mask:
                    row.append((f, mask))

    def start(self, t: int):
        """The state band t starts from: initial less the members that fit
        no coloring with t colors, or None when a family cannot survive
        their loss."""
        if t >= len(self.above):
            return self.initial
        return self._lose(self.initial & ~self.above[t], self.above[t])

    def extend(self, i: int, prefix, live: int):
        """State after coloring edge i, or None when some family cannot
        survive the members it killed."""
        c = prefix[i]
        dead = 0
        if self.pattern is _MONOCHROMATIC:
            for f, mask in self.rows[i]:
                if prefix[f] != c:
                    dead |= mask
        elif self.pattern is _CONFLICT_FREE:
            # the members on whose edges no color occurs exactly once
            for s, mask in self.rows[i]:
                once = twice = 0
                for e in s:
                    bit = 1 << prefix[e]
                    twice |= once & bit
                    once |= bit
                if not once & ~twice:
                    dead |= mask
        else:
            for f, mask in self.rows[i]:
                if prefix[f] == c:
                    dead |= mask
        if not dead & live:
            return live
        return self._lose(live & ~dead, dead)

    def _lose(self, live: int, dead: int):
        """live, the state less the members dead, or None when a family has
        no member in it: the one-member survival test."""
        for mask in self.family_masks:
            if not live & mask:
                return None
        return live

    def settle_masks(self) -> list:
        """done[i], the members whose last edge is at most i (the pool's
        list, not to be changed).  Once its last edge is colored a live
        member stays live: rows[i] only lists members containing edge i.  So
        below a prefix ending at edge i whose live & done[i] meets every
        family mask, extend rejects nothing.  This is the one-member rule;
        DisjointCheck's families need k."""
        return self.pool.done

    def _live(self, colors: Sequence):
        live = self.initial
        for i in range(self.graph.m):
            live = self.extend(i, colors, live)
            if live is None:
                break
        return live

    def first(self, colors: Sequence):
        """Per family, _pick's witness under the complete coloring colors;
        None if a family has no fitting member."""
        live = self._live(colors)
        return None if live is None else [
            self._pick(f, live) for f in range(len(self.families))]

    def _pick(self, f: int, live: int):
        """The witness of family f's first live member."""
        return next(w for (_, w), b in zip(self.families[f], self.bits[f])
                    if live >> b & 1)

    # no caller in the package; perfbench/tracing.py patches it by name
    def disconnected(self, colors: Sequence) -> bool:
        return self._live(colors) is not None

    def witnesses(self, colors: Sequence):
        """Per pair, the side of its first fitting cut; None if a pair has
        none."""
        first = self.first(colors)
        if first is None:
            return None
        return tuple(PairWitness(u, v, side=side)
                     for (u, v), side in zip(self.pairs, first))


class DisjointCheck(DisconnCheck):
    """The table of DisconnCheck for k >= 2 disjoint paths per pair; see its
    docstring for why the rule is exact.  families lists each pair's paths
    as (sorted edge tuple, vertices), in the order the first-disjoint rule
    tries them, and mode says what disjoint paths may not share; a simple
    path's edges fix its ends, so no two families share a member and each
    family's bits are consecutive."""

    def __init__(self, graph: Graph, pattern: Pattern, families, k: int,
                 mode: str):
        super().__init__(graph, pattern, families)
        self.k = k
        if mode not in self.pool.disjoint:
            members = []  # per family: lowest bit, all bits, resources
            owner = []    # bit -> family
            for f, (family, bits) in enumerate(zip(families, self.bits)):
                members.append((bits[0], (1 << len(family)) - 1,
                                _resources(family, mode)))
                owner += [f] * len(family)
            self.pool.disjoint[mode] = members, owner
        self.members, self.owner = self.pool.disjoint[mode]
        self.watched = [0] * len(families)  # per family: its k members' bits
        self.watched_all = 0
        for f in range(len(families)):
            if not self._watch(f, self.initial):
                raise ValueError(f"pair {self.pairs[f]} has no {k} "
                                 f"disjoint paths")

    def _watch(self, f: int, live: int) -> bool:
        """Watch the first k disjoint live members of family f; False if
        there are none."""
        lo, full, res = self.members[f]
        chosen = _first_disjoint(res, self.k, live >> lo & full)
        if chosen is None:
            return False
        new = 0
        for j in chosen:
            new |= 1 << j
        new <<= lo
        self.watched_all = self.watched_all & ~self.watched[f] | new
        self.watched[f] = new
        return True

    def _pick(self, f: int, live: int):
        """The vertex tuples of family f's first k disjoint live members,
        as _watch picks them."""
        lo, full, res = self.members[f]
        chosen = _first_disjoint(res, self.k, live >> lo & full)
        return tuple(self.families[f][j][1] for j in chosen)

    def _lose(self, live: int, dead: int):
        """live, or None when a family no longer holds k disjoint members in
        it: only the families that lost a watched member to dead are
        re-picked, inside live."""
        hit = dead & self.watched_all  # the watched members that died
        while hit:
            f = self.owner[hit.bit_length() - 1]
            hit &= ~self.watched[f]
            if not self._watch(f, live):
                return None
        return live


# ---------------------------------------------------------------------------
# public verifiers

def _require_connected(graph: Graph):
    if not is_connected(graph):
        raise ValueError("requires a connected graph")


def _check_coloring(graph: Graph, coloring: EdgeColoring):
    if len(coloring.colors) != graph.m:
        raise ValueError("coloring length differs from edge count")


def _check_k_connected(graph: Graph, k: int, mode: str):
    if k < 1:
        raise ValueError("k must be >= 1")
    if mode not in ("edge", "vertex"):
        raise ValueError(f"unknown mode {mode!r}")
    if graph.n <= 1 or k == 1:
        return  # k=1 is plain connectivity, checked separately
    tables = _tables(graph)  # each pair's max flow, once per mode
    if mode not in tables.flows:
        tables.flows[mode] = [max_disjoint_paths(graph, u, v, mode)[0]
                              for u, v in tables.pairs]
    for (u, v), have in zip(tables.pairs, tables.flows[mode]):
        if have < k:
            raise ValueError(
                f"graph is not {k}-{mode}-connected: pair ({u},{v}) "
                f"supports only {have} disjoint paths"
            )


def is_pattern_connected(graph: Graph, coloring: EdgeColoring,
                         pattern: Pattern) -> Optional[Certificate]:
    """Certificate with one pattern path per pair, or None if some pair has
    none.  A pair's witness is the one ConnCheck.witnesses reads from a
    solver's table: an adjacent pair's own edge, and a nonadjacent pair's
    first fitting path in simple_paths order (PathSearch.find), found
    without listing every path of every pair."""
    _require_connected(graph)
    _check_coloring(graph, coloring)
    find = PathSearch(graph).find
    wit = []
    for u, v in _all_pairs(graph.n):
        if graph.has_edge(u, v):
            wit.append(PairWitness(u, v, paths=((u, v),)))
            continue
        path = find(coloring.colors, u, v, pattern)
        if path is None:
            return None
        wit.append(PairWitness(u, v, paths=(path.vertices,)))
    return Certificate("connection", pattern.value, tuple(wit))


def is_pattern_k_connected(graph: Graph, coloring: EdgeColoring,
                           pattern: Pattern, k: int,
                           mode: str = "edge") -> Optional[Certificate]:
    """Certificate with k disjoint pattern paths per pair, or None.

    Requires the graph to support k disjoint paths between every pair
    (checked with max_disjoint_paths).  With k=1 the answer coincides with
    is_pattern_connected.
    """
    _require_connected(graph)
    _check_coloring(graph, coloring)
    _check_k_connected(graph, k, mode)
    tester = KConnCheck(graph, k, mode)
    wit = tester.witnesses(coloring.colors, tester.table(pattern))
    if wit is None:
        return None
    return Certificate("k_connection", pattern.value, wit, k=k, mode=mode)


def is_pattern_disconnected(graph: Graph, coloring: EdgeColoring,
                            pattern: Pattern) -> Optional[Certificate]:
    """Certificate with one pattern-cut side per pair, or None.

    Defined for rainbow, proper and monochromatic cut patterns; a cut is
    proper when no two of its edges sharing an endpoint get equal colors.
    """
    if pattern not in CUT_PATTERNS:
        raise ValueError(f"pattern {pattern.value} has no disconnection variant")
    _require_connected(graph)
    _check_coloring(graph, coloring)
    wit = DisconnCheck(graph, pattern).witnesses(coloring.colors)
    if wit is None:
        return None
    return Certificate("disconnection", pattern.value, wit)


def is_proper_rainbow_connected(graph: Graph,
                                coloring: EdgeColoring) -> Optional[Certificate]:
    """Proper edge coloring that also rainbow-connects every pair."""
    _require_connected(graph)
    _check_coloring(graph, coloring)
    if not is_proper_edge_coloring(graph, coloring):
        return None
    cert = is_pattern_connected(graph, coloring, Pattern.RAINBOW)
    return None if cert is None else Certificate("connection", PROPER_RAINBOW,
                                                 cert.pairs)


# ---------------------------------------------------------------------------
# certificate validation

def _valid_path(graph: Graph, colors, u, v, vs, pattern: Pattern) -> bool:
    if not vs or vs[0] != u or vs[-1] != v:
        return False
    if len(set(vs)) != len(vs):
        return False
    if any(not _is_int(x) or not (0 <= x < graph.n) for x in vs):
        return False
    eidx = []
    for a, b in zip(vs, vs[1:]):
        if not graph.has_edge(a, b):
            return False
        eidx.append(graph.edge_index(a, b))
    return _seq_satisfies([colors[e] for e in eidx], pattern)


def verify_certificate(graph: Graph, coloring: EdgeColoring,
                       cert: Certificate) -> bool:
    """Recheck a certificate against graph and coloring in polynomial time.

    True only if every pair of distinct vertices is covered exactly once and
    every witness is structurally valid and satisfies its pattern; malformed
    certificates yield False.  Any other error is a verifier bug and raises.
    """
    try:
        return _verify(graph, coloring, cert)
    except (ValueError, TypeError, KeyError, IndexError):
        return False


def _verify(graph: Graph, coloring: EdgeColoring, cert: Certificate) -> bool:
    if not isinstance(cert, Certificate) or not isinstance(cert.pattern, str):
        return False
    if len(coloring.colors) != graph.m:
        return False
    if cert.kind not in ("connection", "k_connection", "disconnection"):
        return False
    colors = coloring.colors
    covered = set()
    for w in cert.pairs:
        if not isinstance(w, PairWitness):
            return False
        if not (_is_int(w.u) and _is_int(w.v) and 0 <= w.u < graph.n
                and 0 <= w.v < graph.n) or w.u == w.v:
            return False
        key = (w.u, w.v) if w.u < w.v else (w.v, w.u)
        if key in covered:
            return False
        covered.add(key)
    if covered != set(_all_pairs(graph.n)):
        return False

    # an unknown pattern name raises ValueError: False, via verify_certificate
    if cert.kind == "disconnection":
        pattern = Pattern.from_name(cert.pattern)
        if pattern not in CUT_PATTERNS:
            return False
        ends = _edge_ends(graph)
        for w in cert.pairs:
            if w.side is None or w.paths is not None:
                return False
            side = set(w.side)
            if not side or not all(
                _is_int(x) and 0 <= x < graph.n for x in side
            ):
                return False
            if w.u not in side or w.v in side:
                return False
            cut = tuple(sorted(crossing_cut(graph, side)))
            if not cut:
                return False
            if not _cut_ok(colors, cut, _adjacent_pairs(ends, cut), pattern):
                return False
        return True

    # path kinds
    if cert.pattern == PROPER_RAINBOW:
        if cert.kind != "connection":
            return False
        if not is_proper_edge_coloring(graph, coloring):
            return False
        pattern = Pattern.RAINBOW
    else:
        pattern = Pattern.from_name(cert.pattern)

    if cert.kind == "connection":
        want = 1
        mode = None
    else:
        if not _is_int(cert.k) or cert.k < 1:
            return False
        if cert.mode not in ("edge", "vertex"):
            return False
        want = cert.k
        mode = cert.mode

    for w in cert.pairs:
        if w.paths is None or w.side is not None:
            return False
        if len(w.paths) != want:
            return False
        if len(set(w.paths)) != len(w.paths):
            return False
        for vs in w.paths:
            if not _valid_path(graph, colors, w.u, w.v, vs, pattern):
                return False
        if want > 1:
            if mode == "edge":
                claims = [
                    frozenset(
                        graph.edge_index(a, b) for a, b in zip(vs, vs[1:])
                    )
                    for vs in w.paths
                ]
            else:
                claims = [frozenset(vs[1:-1]) for vs in w.paths]
            for i in range(len(claims)):
                for j in range(i + 1, len(claims)):
                    if claims[i] & claims[j]:
                        return False
    return True
