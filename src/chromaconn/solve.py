"""Exact optimization of connection and disconnection colorings.

Search space is canonical colorings (restricted growth strings), surjective at
each palette size t.  Minimizing patterns scan t upward from a lower bound,
the maximizing (monochromatic) pattern scans t downward from an upper bound;
the first feasible t is optimal because any coloring with exactly t' distinct
colors is enumerated at t'.  Within the optimal t the first feasible string in
lexicographic order is returned, so results are deterministic.  All three
optimizers run this search through one loop, _optimize, and differ only in
their preconditions, their t-scan, their leaf test and their forward checker;
count_colorings enumerates without a t-scan or early exit.

_optimize walks restricted-growth prefixes depth first, coloring edges in
index order and trying values in increasing order, so complete strings
arrive in the order of restricted_growth_strings(m, t, surjective=True).  A
forward checker may reject a prefix as soon as an edge is colored, which cuts
its whole subtree; it only rejects prefixes that no completion could make
feasible, so the first accepted string is the same as without it.  The
disconnection numbers pass their table of pair cut families
(verify.DisconnCheck, which also certifies the accepted string),
proper-rainbow connection a checker for "adjacent edges differ"; the
connection numbers pass none.

One node of work is a complete string tested or a prefix rejected.  Runtimes
are exponential; a budget of nodes turns an over-large instance into an
explicit BudgetExceededError rather than a wrong answer.  Each prefix the walk
visits has a node below it, so a node costs at most m prefix steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .coloring import EdgeColoring, Pattern, restricted_growth_strings
from .graph import (Graph, diameter, is_connected, line_graph,
                    max_disjoint_paths, write_graph6)
from .local import is_proper_edge_coloring
from .verify import (
    PROPER_RAINBOW,
    Certificate,
    ConnCheck,
    CUT_PATTERNS,
    DisconnCheck,
    KConnCheck,
    certificate_to_dict,
)


class BudgetExceededError(RuntimeError):
    """Raised when a solver runs out of its node budget."""

    def __init__(self, budget: int, explored: int, t: int):
        super().__init__(
            f"budget of {budget} nodes exhausted after {explored}, "
            f"searching palette size t={t}"
        )
        self.budget = budget
        self.explored = explored
        self.t = t  # palette size being searched when the budget ran out


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


def _check_k_connected(graph: Graph, k: int, mode: str):
    if k < 1:
        raise ValueError("k must be >= 1")
    if mode not in ("edge", "vertex"):
        raise ValueError(f"unknown mode {mode!r}")
    if graph.n <= 1 or k == 1:
        return  # k=1 is plain connectivity, checked separately
    for u in range(graph.n):
        for v in range(u + 1, graph.n):
            have = max_disjoint_paths(graph, u, v, mode)[0]
            if have < k:
                raise ValueError(
                    f"graph is not {k}-{mode}-connected: pair ({u},{v}) "
                    f"supports only {have} disjoint paths"
                )


def bounds(graph: Graph, pattern: Pattern, k: int = 1,
           mode: str = "edge") -> Bounds:
    """Safe search window for connection_number with the same preconditions."""
    if not is_connected(graph):
        raise ValueError("connection numbers require a connected graph")
    _check_k_connected(graph, k, mode)
    m = graph.m
    if m == 0:
        return Bounds(0, 0, ("trivial", "edge-count"))
    if pattern.objective == "max":
        # a spanning tree in one color plus distinct leftovers connects
        # monochromatically, valid for the single-path case
        lower = m - graph.n + 2 if k == 1 else 1
        return Bounds(lower, m, ("spanning-tree" if k == 1 else "trivial",
                                 "edge-count"))
    if pattern is Pattern.RAINBOW:
        # between a most distant pair every path needs >= diameter edges
        return Bounds(max(1, diameter(graph)), m, ("diameter", "edge-count"))
    return Bounds(1, m, ("trivial", "edge-count"))


def _trivial_result(pattern_name: str, kind: str, objective: str,
                    k=None, mode=None) -> SolveResult:
    cert = Certificate(kind, pattern_name, (), k=k, mode=mode)
    return SolveResult(0, EdgeColoring((), 0), cert, 0, objective)


def _optimize(m: int, ts, feasible, make_certificate, objective: str,
              budget: Optional[int], checker=None) -> SolveResult:
    """The one search loop: the first t in ts, and within it the first
    canonical string, that the checker keeps and that passes feasible.

    checker, if given, has an initial state and extend(i, prefix, state),
    called right after prefix[i] is colored with the state of prefix[:i]; it
    returns the state of prefix[:i+1], or None to reject that prefix and its
    subtree.  The walk keeps one state per depth, so backtracking restores
    it.  feasible(colors) tests each complete string the checker kept (None
    accepts it); colors is the walk's own list, valid during the call.
    make_certificate(colors) builds the witnesses of the accepted string.
    Every complete string tested and every prefix rejected is one node
    counted against the budget.
    """
    prefix = [0] * m
    nodes = 0
    t = 0

    def walk(i: int, used: int, state) -> bool:
        nonlocal nodes
        last = i == m - 1
        slack = m - 1 - i  # edges still to color after i
        for val in range(min(used + 1, t)):
            nused = used if val < used else used + 1
            if nused + slack < t:
                continue  # too few edges left to reach t colors
            prefix[i] = val
            nstate = state if checker is None else checker.extend(
                i, prefix, state)
            if nstate is not None and not last:
                if walk(i + 1, nused, nstate):
                    return True
                continue
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceededError(budget, nodes - 1, t)
            if nstate is not None and (feasible is None or feasible(prefix)):
                return True
        return False

    initial = 0 if checker is None else checker.initial
    try:
        for t in ts:
            if walk(0, 0, initial):
                colors = tuple(prefix)
                return SolveResult(t, EdgeColoring(colors, t),
                                   make_certificate(colors), nodes, objective)
    finally:
        # walk's closure refers to walk: a reference cycle that would keep
        # the checker's tables alive until the cyclic collector runs
        del walk
    raise AssertionError("search space exhausted unexpectedly")


class _AdjacentEdgesDiffer:
    """Forward checker for proper edge colorings: edge i must differ from
    every earlier edge sharing an endpoint.  Stateless."""

    initial = 0

    def __init__(self, graph: Graph):
        self.earlier = [[] for _ in range(graph.m)]
        for f, i in line_graph(graph).edges:
            self.earlier[i].append(f)

    def extend(self, i: int, prefix, state):
        c = prefix[i]
        for f in self.earlier[i]:
            if prefix[f] == c:
                return None
        return state


def connection_number(graph: Graph, pattern: Pattern, k: int = 1,
                      mode: str = "edge",
                      budget: Optional[int] = None) -> SolveResult:
    """Fewest (most, for monochromatic) colors in a coloring giving k pairwise
    disjoint pattern paths between every vertex pair.

    Requires a connected graph supporting k disjoint paths per pair in the
    given mode.  The one-vertex graph has no pairs; its value is 0.
    """
    if not isinstance(pattern, Pattern):
        raise ValueError("pattern must be a Pattern")
    b = bounds(graph, pattern, k, mode)
    objective = pattern.objective
    kind = "connection" if k == 1 else "k_connection"
    cert_k, cert_mode = (None, None) if k == 1 else (k, mode)
    if graph.n == 1:
        return _trivial_result(pattern.value, kind, objective, cert_k,
                               cert_mode)
    checker = ConnCheck(graph) if k == 1 else KConnCheck(graph, k, mode)
    m = graph.m
    ts = (range(max(1, b.lower), m + 1) if objective == "min"
          else range(m, 0, -1))
    return _optimize(
        m, ts, lambda colors: checker.connected(colors, pattern),
        lambda colors: Certificate(kind, pattern.value,
                                   checker.witnesses(colors, pattern),
                                   k=cert_k, mode=cert_mode),
        objective, budget)


def disconnection_number(graph: Graph, pattern: Pattern,
                         budget: Optional[int] = None) -> SolveResult:
    """Fewest (most, for monochromatic) colors in a coloring giving every
    vertex pair a separating cut that fits the pattern.

    Defined for rainbow, proper and monochromatic patterns on connected
    graphs; the one-vertex graph has no pairs, value 0.

    Rainbow scans t upward from lambda+ = max over pairs of the local edge
    connectivity lambda(u,v), the size of a minimum u-v cut: a rainbow u-v
    cut is a u-v cut, so it has at least lambda(u,v) edges, all of distinct
    colors.

    Monochromatic scans t downward from min(m, n-1).  Take a feasible
    coloring, a cycle C and an edge uv on C.  Some u-v cut is monochromatic;
    the crossing cut of u's component after its removal is a subset of it,
    so it is monochromatic too, contains uv and meets C in an even number of
    edges.  So another edge of C has the color of uv: no cycle carries a
    color exactly once, and one edge of each color forms a forest, t <= n-1.
    """
    if pattern not in CUT_PATTERNS:
        raise ValueError(f"pattern {pattern.value} has no disconnection variant")
    if not is_connected(graph):
        raise ValueError("disconnection numbers require a connected graph")
    objective = pattern.objective
    if graph.n == 1:
        return _trivial_result(pattern.value, "disconnection", objective)
    checker = DisconnCheck(graph, pattern)
    m = graph.m
    if pattern is Pattern.MONOCHROMATIC:
        ts = range(min(m, graph.n - 1), 0, -1)
    elif pattern is Pattern.RAINBOW:
        # each pair's cuts are sorted by size, the first is a minimum cut
        lam = max(len(cuts[0][0]) for cuts in checker.cuts)
        ts = range(lam, m + 1)
    else:
        ts = range(1, m + 1)
    return _optimize(
        m, ts, None,
        lambda colors: Certificate("disconnection", pattern.value,
                                   checker.witnesses(colors)),
        objective, budget, checker)


def proper_rainbow_connection_number(graph: Graph,
                                     budget: Optional[int] = None) -> SolveResult:
    """Fewest colors in a proper edge coloring under which the graph is also
    rainbow connected."""
    if not is_connected(graph):
        raise ValueError("connection numbers require a connected graph")
    if graph.n == 1:
        return _trivial_result(PROPER_RAINBOW, "connection", "min")
    checker = ConnCheck(graph)
    m = graph.m
    maxdeg = max(graph.degree(v) for v in range(graph.n))
    lower = max(1, diameter(graph), maxdeg)
    result = _optimize(
        m, range(lower, m + 1),
        lambda colors: checker.connected(colors, Pattern.RAINBOW),
        lambda colors: Certificate("connection", PROPER_RAINBOW,
                                   checker.witnesses(colors, Pattern.RAINBOW)),
        "min", budget, _AdjacentEdgesDiffer(graph))
    assert is_proper_edge_coloring(graph, result.optimal_coloring)
    return result


def count_colorings(graph: Graph, pattern: Pattern, t: int,
                    prop: str = "connected",
                    budget: Optional[int] = None) -> int:
    """Number of labeled colorings (all t^m maps, not canonical classes)
    satisfying the connection/disconnection property.

    Enumerates canonical classes and weights each feasible class with the
    number of its labelings, t (t-1) ... (t-j+1) for j distinct colors, which
    is exact because the properties are invariant under renaming colors.
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
    if prop == "connected":
        checker = ConnCheck(graph)
        test = lambda colors: checker.connected(colors, pattern)
    else:
        checker = DisconnCheck(graph, pattern)
        test = checker.disconnected
    total = 0
    nodes = 0
    for colors in restricted_growth_strings(m, min(t, m)):
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceededError(budget, nodes - 1, t)
        if test(colors):
            j = max(colors) + 1
            weight = 1
            for i in range(j):
                weight *= t - i
            total += weight
    return total


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
