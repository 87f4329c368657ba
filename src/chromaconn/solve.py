"""Exact optimization of connection and disconnection colorings.

Search space is canonical colorings (restricted growth strings), surjective at
each palette size t.  Minimizing patterns scan t upward from a lower bound,
the maximizing (monochromatic) pattern scans t downward from the edge count;
the first feasible t is optimal because any coloring with exactly t' distinct
colors is enumerated at t'.  Within the optimal t the first feasible string in
lexicographic order is returned, so results are deterministic.  All three
optimizers run this search through one loop, _optimize, and differ only in
their preconditions, their t-scan and their feasibility test;
count_colorings enumerates without a t-scan or early exit.

Runtimes are exponential; a budget (number of colorings tested) turns an
over-large instance into an explicit BudgetExceededError rather than a wrong
answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .coloring import EdgeColoring, Pattern, restricted_growth_strings
from .graph import Graph, diameter, is_connected, max_disjoint_paths, write_graph6
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
    """Raised when a solver runs out of its assignment budget."""

    def __init__(self, budget: int, explored: int):
        super().__init__(
            f"budget of {budget} colorings exhausted after testing {explored}"
        )
        self.budget = budget
        self.explored = explored


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
              budget: Optional[int]) -> SolveResult:
    """The one search loop: the first t in ts, and within it the first
    canonical string, that passes feasible(colors).

    make_certificate(colors) builds the witnesses of the accepted string.
    Every tested string counts against the budget.
    """
    nodes = 0
    for t in ts:
        for colors in restricted_growth_strings(m, t, surjective=True):
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceededError(budget, nodes - 1)
            if feasible(colors):
                return SolveResult(t, EdgeColoring(colors, t),
                                   make_certificate(colors), nodes, objective)
    raise AssertionError("search space exhausted unexpectedly")


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
    """
    if pattern not in CUT_PATTERNS:
        raise ValueError(f"pattern {pattern.value} has no disconnection variant")
    if not is_connected(graph):
        raise ValueError("disconnection numbers require a connected graph")
    objective = pattern.objective
    if graph.n == 1:
        return _trivial_result(pattern.value, "disconnection", objective)
    checker = DisconnCheck(graph)
    m = graph.m
    ts = range(1, m + 1) if objective == "min" else range(m, 0, -1)
    return _optimize(
        m, ts, lambda colors: checker.disconnected(colors, pattern),
        lambda colors: Certificate("disconnection", pattern.value,
                                   checker.witnesses(colors, pattern)),
        objective, budget)


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
    # colors < t <= m, so m is a valid palette for the proper-edge test
    return _optimize(
        m, range(lower, m + 1),
        lambda colors: (
            is_proper_edge_coloring(graph, EdgeColoring(colors, m))
            and checker.connected(colors, Pattern.RAINBOW)),
        lambda colors: Certificate("connection", PROPER_RAINBOW,
                                   checker.witnesses(colors, Pattern.RAINBOW)),
        "min", budget)


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
        checker = DisconnCheck(graph)
        test = lambda colors: checker.disconnected(colors, pattern)
    total = 0
    nodes = 0
    for colors in restricted_growth_strings(m, min(t, m)):
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceededError(budget, nodes - 1)
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
