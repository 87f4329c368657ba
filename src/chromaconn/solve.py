"""Exact optimization and counting of connection and disconnection colorings.

Search space is canonical colorings (restricted growth strings), surjective at
each palette size t.  Minimizing patterns scan t upward from a lower bound,
the maximizing (monochromatic) pattern scans t downward from an upper bound;
the first feasible t is optimal because any coloring with exactly t' distinct
colors is enumerated at t'.  Within the optimal t the first feasible string in
lexicographic order is returned, so results are deterministic.  All three
optimizers run this search through _optimize and differ only in their
preconditions, their t-scan and their forward checker.  count_colorings runs
the same walk over t = 1..min(palette, m) without an early exit and weights
each feasible string by its labelings.

_search is the one walk.  It visits restricted-growth prefixes depth first,
coloring edges in index order and trying values in increasing order, so
complete strings arrive in the order of restricted_growth_strings(m, t,
surjective=True).  A forward checker may reject a prefix as soon as an edge
is colored, which cuts its whole subtree; it only rejects prefixes that no
completion could make feasible, so the first accepted string is the same as
without it.  Every forward checker is a verify.DisconnCheck table of pair
cut families (disconnection) or of path and star families
(_connection_checks), and at k >= 2 its DisjointCheck form, whose families
must keep k disjoint live paths.  Every string a checker keeps is feasible,
so no search tests its complete strings.  Each band starts from the
checker's start(t), which has cleared the members that fit no t colors.

One node of work is a complete string reached or a prefix rejected.  Runtimes
are exponential; a budget of nodes turns an over-large instance into an
explicit BudgetExceededError rather than a wrong answer.  Each prefix the walk
visits has a node below it, so a node costs at most m prefix steps.  Counting
stops at settled prefixes, below which every string is feasible, and adds
their strings as nodes in closed form without visiting them, so its nodes
are those of the full walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import perm
from typing import Optional

# restricted_growth_strings: no caller, kept for perfbench/tracing.py's patch
from .coloring import EdgeColoring, Pattern, restricted_growth_strings
# max_disjoint_paths: no caller, kept for perfbench/tracing.py's patch
from .graph import (Graph, diameter, ear_bound, is_connected,
                    max_disjoint_paths, tree_cover, write_graph6)
from .local import is_proper_edge_coloring
from .verify import (
    PROPER_RAINBOW,
    Certificate,
    ConnCheck,
    CUT_PATTERNS,
    DisconnCheck,
    KConnCheck,
    _check_k_connected,
    certificate_to_dict,
)


class BudgetExceededError(RuntimeError):
    """Raised when a solver runs out of its node budget."""

    def __init__(self, budget: int, explored: int, t: int,
                 nodes_per_t: Optional[dict] = None):
        super().__init__(
            f"budget of {budget} nodes exhausted after {explored}, "
            f"searching palette size t={t}"
        )
        self.budget = budget
        self.explored = explored
        self.t = t  # palette size being searched when the budget ran out
        # nodes spent in each palette size searched, in scan order
        self.nodes_per_t = dict(nodes_per_t or {})


@dataclass(frozen=True)
class Bounds:
    lower: int
    upper: int
    provenance: tuple

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("lower bound exceeds upper bound")


@dataclass(frozen=True)
class SolveResult:
    value: int
    optimal_coloring: EdgeColoring
    certificate: Certificate
    nodes_explored: int
    objective: str


def bounds(graph: Graph, pattern: Pattern, k: int = 1,
           mode: str = "edge") -> Bounds:
    """Safe search window for connection_number with the same preconditions.

    Monochromatic at k = 1: m - n + 2 <= mc <= m - c, c from
    graph.tree_cover, at most the cost of a cheapest cover.  Lower: a
    spanning tree in one color and every other edge in a color of its own.
    Upper: in a coloring with mc colors every color class is a tree.  Else split a disconnected class into its
    components, or give one edge e on a cycle of a class a new color: the
    class minus e still spans its vertices connectedly.  Either way every
    monochromatic pair stays so and t grows.  A tree class on vertex set S
    has |S| - 1 edges, so m = mc + sum(|S| - 2), and the classes with
    |S| >= 3 cover every nonadjacent pair, whose monochromatic path lies
    in one class: sum(|S| - 2) >= c.  So every band above m - c is
    infeasible, and a scan from there finds the same lex-first coloring.
    At k >= 2 the lemma is not proven, and the upper bound stays m.
    """
    if not is_connected(graph):
        raise ValueError("connection numbers require a connected graph")
    _check_k_connected(graph, k, mode)
    m = graph.m
    if m == 0:
        return Bounds(0, 0, ("trivial", "edge-count"))
    if pattern.objective == "max":
        if k > 1:
            return Bounds(1, m, ("trivial", "edge-count"))
        return Bounds(m - graph.n + 2, m - tree_cover(graph)[0],
                      ("spanning-tree", "tree-cover"))
    if pattern is Pattern.RAINBOW:
        # between a most distant pair every path needs >= diameter edges
        return Bounds(max(1, diameter(graph)), m, ("diameter", "edge-count"))
    return Bounds(1, m, ("trivial", "edge-count"))


def _trivial_result(pattern_name: str, kind: str, objective: str,
                    k=None, mode=None) -> SolveResult:
    cert = Certificate(kind, pattern_name, (), k=k, mode=mode)
    return SolveResult(0, EdgeColoring((), 0), cert, 0, objective)


@cache
def _tails(r: int, u: int, t: int) -> int:
    """N(r, u, t): restricted-growth tails of length r that start with u
    colors used and end with exactly t."""
    if r == 0 or u + r < t:
        return int(u == t)
    return u * _tails(r - 1, u, t) + (_tails(r - 1, u + 1, t) if u < t
                                      else 0)


def _search(m: int, ts, checker, budget: Optional[int], leaf, tally=None):
    """The one prefix walk: for each t in ts, the restricted-growth strings
    of length m with exactly t colors, depth first in value order.

    checker has start(t), the state band t starts from, or None to skip
    the band at zero nodes, and extend(i, prefix, state), called right
    after prefix[i] is colored with the state of prefix[:i]; it returns the
    state of prefix[:i+1], or None to reject that prefix and its subtree.
    The walk keeps one state per depth, so backtracking restores it.
    leaf(t, colors) gets each complete string the checker kept (colors is
    the walk's own list); a true result stops the walk.

    tally(t, n), if given, adds settled subtrees in closed form; leaf must
    then never stop the walk, and checker must be a DisconnCheck (not its
    DisjointCheck form).  A prefix ending at edge i, or the root with i =
    -1 and done[-1] = 0, is settled when live & done[i] meets every family
    mask, done being checker.settle_masks(): every family has a live member
    whose last edge is colored.  The walk then hands tally the number n =
    N(slack, used, t) (_tails) of strings below it and does not descend.
    Proof: a member dies only in extend(j) for an edge j of its own, as
    rows[j] lists only members containing j and conflict-free members are
    decided at their last edge.  So a member live once its last edge is
    colored stays live in every completion, no prefix below a settled one
    is rejected, and each of its n strings would reach leaf as one node.

    Every string handed to leaf or counted by tally and every prefix
    rejected is one node against the budget, so the nodes, the strings
    counted and the budget errors are those of the full walk: when a
    settled subtree would pass the budget, the error has explored = budget,
    as leaf by leaf.
    BudgetExceededError carries the nodes spent per t.  Returns (t, colors,
    nodes) where leaf stopped, colors None if it never did.
    """
    prefix = [0] * m
    nodes = 0
    first = m  # lowest depth a settled prefix can have; -1 is the root
    if tally is not None:
        done = checker.settle_masks()
        families = checker.family_masks
        first = -1 if not families else next(
            (i for i in range(m) if all(done[i] & f for f in families)), m)

    def settle(used: int, slack: int):
        nonlocal nodes
        n = _tails(slack, used, t)
        if budget is not None and nodes + n > budget:
            raise BudgetExceededError(budget, budget, t)
        nodes += n
        tally(t, n)

    def walk(i: int, used: int, state) -> bool:
        nonlocal nodes
        last = i == m - 1
        slack = m - 1 - i  # edges still to color after i
        for val in range(min(used + 1, t)):
            nused = used if val < used else used + 1
            if nused + slack < t:
                continue  # too few edges left to reach t colors
            prefix[i] = val
            nstate = checker.extend(i, prefix, state)
            if nstate is not None and not last:
                if i >= first:
                    good = nstate & done[i]
                    for f in families:
                        if not good & f:
                            break
                    else:
                        settle(nused, slack)
                        continue
                if walk(i + 1, nused, nstate):
                    return True
                continue
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceededError(budget, nodes - 1, t)
            if nstate is not None and leaf(t, prefix):
                return True
        return False

    per_t = {}
    try:
        for t in ts:
            start = nodes
            state = checker.start(t)
            if state is None:
                per_t[t] = 0
                continue
            try:
                if first < 0:
                    settle(0, m)
                    stop = False
                else:
                    stop = walk(0, 0, state)
            except BudgetExceededError as err:
                per_t[t] = err.explored - start
                err.nodes_per_t = per_t
                raise
            per_t[t] = nodes - start
            if stop:
                return t, tuple(prefix), nodes
    finally:
        # walk's closure refers to walk: a reference cycle that would keep
        # the checker's tables alive until the cyclic collector runs
        del walk
    return None, None, nodes


def _optimize(m: int, ts, make_certificate, objective: str,
              budget: Optional[int], checker) -> SolveResult:
    """The first t in ts, and within it the first canonical string, that
    the checker keeps; make_certificate(colors) builds the witnesses of
    that string."""
    t, colors, nodes = _search(m, ts, checker, budget,
                               lambda t, colors: True)
    if colors is None:
        raise AssertionError("search space exhausted unexpectedly")
    return SolveResult(t, EdgeColoring(colors, t), make_certificate(colors),
                       nodes, objective)


def _connection_checks(graph: Graph, pattern, k: int = 1,
                       mode: str = "edge"):
    """(tester, checker) of a connection search for a Pattern or
    PROPER_RAINBOW: a ConnCheck (k = 1) or KConnCheck, and its table of
    simple paths, a DisconnCheck or DisjointCheck, from which
    tester.witnesses reads the witnesses.  Either table keeps exactly the
    feasible strings, under the conflict-free rule too, which decides a
    path when its last edge is colored."""
    tester = ConnCheck(graph) if k == 1 else KConnCheck(graph, k, mode)
    return tester, tester.table(pattern)


def connection_number(graph: Graph, pattern: Pattern, k: int = 1,
                      mode: str = "edge",
                      budget: Optional[int] = None) -> SolveResult:
    """Fewest (most, for monochromatic) colors in a coloring giving k pairwise
    disjoint pattern paths between every vertex pair.

    Requires a connected graph supporting k disjoint paths per pair in the
    given mode.  A graph of at most one vertex has no pairs, value 0.
    """
    if not isinstance(pattern, Pattern):
        raise ValueError("pattern must be a Pattern")
    b = bounds(graph, pattern, k, mode)
    objective = pattern.objective
    kind = "connection" if k == 1 else "k_connection"
    cert_k, cert_mode = (None, None) if k == 1 else (k, mode)
    if graph.n <= 1:
        return _trivial_result(pattern.value, kind, objective, cert_k,
                               cert_mode)
    tester, checker = _connection_checks(graph, pattern, k, mode)
    m = graph.m
    ts = (range(b.lower, b.upper + 1) if objective == "min"
          else range(b.upper, b.lower - 1, -1))
    return _optimize(
        m, ts,
        lambda colors: Certificate(kind, pattern.value,
                                   tester.witnesses(colors, checker),
                                   k=cert_k, mode=cert_mode),
        objective, budget, checker)


def disconnection_number(graph: Graph, pattern: Pattern,
                         budget: Optional[int] = None) -> SolveResult:
    """Fewest (most, for monochromatic) colors in a coloring giving every
    vertex pair a separating cut that fits the pattern.

    Defined for rainbow, proper and monochromatic patterns on connected
    graphs; a graph of at most one vertex has no pairs, value 0.

    Rainbow scans t upward from lambda+ = max over pairs of the local edge
    connectivity lambda(u,v), the size of a minimum u-v cut: a rainbow u-v
    cut is a u-v cut, so it has at least lambda(u,v) edges, all of distinct
    colors.

    Monochromatic scans t downward from graph.ear_bound, a sum over the
    blocks of 1 per bridge and of floor(k/2) + sum floor((l_i - 1)/2) per
    2-connected block, for a start cycle of k edges and open ears of l_i
    edges.  Every band above it is infeasible, so the scan finds the same
    first feasible band and lex-first string as one from min(m, n-1), which
    the bound never exceeds.  Proof, for any cycle and ears: feasible means
    that each pair u, v has a color c such that G - E_c separates them.
    - Restriction.  The coloring stays feasible on any subgraph H, for H's
      pairs, as H - E_c is a subgraph of G - E_c.
    - Cycle.  An edge uv of color c is separated only by c, so on a cycle
      through uv the rest of the cycle, a u-v path, holds another c edge.
      Each color on a cycle of k edges appears at least twice, so the cycle
      carries at most floor(k/2) colors.
    - Ear.  Let P be an open ear of l edges with ends x != y, added to H,
      which has an x-y path Q; H + P is feasible by restriction.  A color
      new to H appears at least twice on P, by the cycle rule on P + Q.
      The color separating x and y meets Q, so it is old, and meets P.  So
      at most l - 1 edges of P carry new colors: at most floor((l - 1)/2).
    - Blocks.  Each edge lies in one block, so each color on some block;
      restricted to a bridge the coloring has one color.
    md is additive over blocks on every graph of order <= 7, but solving
    blocks apart would change which coloring is lex-first.
    """
    if pattern not in CUT_PATTERNS:
        raise ValueError(f"pattern {pattern.value} has no disconnection variant")
    if not is_connected(graph):
        raise ValueError("disconnection numbers require a connected graph")
    objective = pattern.objective
    if graph.n <= 1:
        return _trivial_result(pattern.value, "disconnection", objective)
    checker = DisconnCheck(graph, pattern)
    m = graph.m
    if pattern is Pattern.MONOCHROMATIC:
        ts = range(ear_bound(graph), 0, -1)
    elif pattern is Pattern.RAINBOW:
        # each pair's cuts are sorted by size, the first is a minimum cut
        lam = max(len(family[0][0]) for family in checker.families)
        ts = range(lam, m + 1)
    else:
        ts = range(1, m + 1)
    return _optimize(
        m, ts,
        lambda colors: Certificate("disconnection", pattern.value,
                                   checker.witnesses(colors)),
        objective, budget, checker)


def proper_rainbow_connection_number(graph: Graph,
                                     budget: Optional[int] = None) -> SolveResult:
    """Fewest colors in a proper edge coloring under which the graph is also
    rainbow connected."""
    if not is_connected(graph):
        raise ValueError("connection numbers require a connected graph")
    if graph.n <= 1:
        return _trivial_result(PROPER_RAINBOW, "connection", "min")
    tester, checker = _connection_checks(graph, PROPER_RAINBOW)
    m = graph.m
    maxdeg = max(graph.degree(v) for v in range(graph.n))
    lower = max(1, diameter(graph), maxdeg)
    result = _optimize(
        m, range(lower, m + 1),
        lambda colors: Certificate("connection", PROPER_RAINBOW,
                                   tester.witnesses(colors, checker)),
        "min", budget, checker)
    assert is_proper_edge_coloring(graph, result.optimal_coloring)
    return result


def count_colorings(graph: Graph, pattern: Pattern, t: int,
                    prop: str = "connected",
                    budget: Optional[int] = None) -> int:
    """Number of labeled colorings (all t^m maps, not canonical classes)
    satisfying the connection/disconnection property.

    Walks the canonical classes band by band, j = 1..min(t, m) distinct
    colors, and weights each feasible class with the number of its
    labelings, t (t-1) ... (t-j+1), which is exact because the properties
    are invariant under renaming colors.  Disconnected counts forward-check
    prefixes with the pair cut families, and connected counts with the pair
    path families (DisconnCheck), so every string they reach is feasible
    and none is tested.  Below a settled prefix, where every family keeps a
    live member whose edges are all colored, _search adds the number of
    strings in closed form instead of visiting them.  Nodes and budget are
    those of the full walk from each band's start state: a complete string
    reached, visited or not, or a prefix rejected, and none for a band whose
    start is None; BudgetExceededError names the requested t, and its
    nodes_per_t is keyed by band j.
    """
    if t < 1:
        raise ValueError("palette size t must be >= 1")
    if prop not in ("connected", "disconnected"):
        raise ValueError(f"unknown property {prop!r}")
    if not is_connected(graph):
        raise ValueError("counting requires a connected graph")
    if prop == "disconnected" and pattern not in CUT_PATTERNS:
        raise ValueError(f"pattern {pattern.value} has no disconnection variant")
    m = graph.m
    if m == 0:
        return 1  # the empty coloring; both properties hold vacuously
    top = min(t, m)
    hits = [0] * (top + 1)  # feasible canonical strings per band j
    if prop == "connected":
        _, checker = _connection_checks(graph, pattern)
    else:
        checker = DisconnCheck(graph, pattern)

    def tally(j, n):
        hits[j] += n

    def leaf(j, colors):  # returns None, so the walk never stops
        hits[j] += 1
    try:
        _search(m, range(1, top + 1), checker, budget, leaf, tally)
    except BudgetExceededError as err:
        raise BudgetExceededError(budget, err.explored, t,
                                  err.nodes_per_t) from None
    return sum(hits[j] * perm(t, j) for j in range(1, top + 1))


def result_to_dict(graph: Graph, result: SolveResult, pattern_name: str,
                   k: Optional[int], mode: Optional[str]) -> dict:
    """JSON-ready result record with stable field order."""
    return {
        "graph": write_graph6(graph),
        "pattern": pattern_name,
        "k": k,
        "mode": mode,
        "objective": result.objective,
        "value": result.value,
        "coloring": result.optimal_coloring.to_text(),
        "certificate": certificate_to_dict(result.certificate),
        "nodes_explored": result.nodes_explored,
    }
