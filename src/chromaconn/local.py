"""Per-edge/per-vertex baseline checks: proper colorings, chromatic polynomials,
a symmetric Lovasz Local Lemma threshold test, and the incident-edge difference
product whose nonvanishing characterizes proper edge colorings.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from .coloring import EdgeColoring
# canonical_form: no caller, kept for perfbench/tracing.py's patch
from .graph import (
    Graph,
    build_graph,
    canonical_form,
    contract_edge,
    delete_edge,
    identify_vertices,
    line_graph,
)


@dataclass(frozen=True)
class Polynomial:
    """Integer polynomial as coefficients low power to high, normalized so the
    trailing coefficient is nonzero (the zero polynomial is (0,))."""

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(int(c) for c in self.coeffs)
        while len(cs) > 1 and cs[-1] == 0:
            cs = cs[:-1]
        if not cs:
            cs = (0,)
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, t: int) -> int:
        return evaluate_polynomial(self, t)

    def to_text(self) -> str:
        return ",".join(str(c) for c in self.coeffs)

    @classmethod
    def from_text(cls, text: str) -> "Polynomial":
        return cls(tuple(int(tok) for tok in text.strip().split(",")))


def evaluate_polynomial(poly: Polynomial, t: int) -> int:
    """Exact integer evaluation (Horner)."""
    acc = 0
    for c in reversed(poly.coeffs):
        acc = acc * t + c
    return acc


def _padd(a, b):
    n = max(len(a), len(b))
    return tuple(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def _psub(a, b):
    n = max(len(a), len(b))
    return tuple(
        (a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)
    )


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _falling(n):
    # k (k-1) ... (k-n+1)
    poly = (1,)
    for i in range(n):
        poly = _pmul(poly, (-i, 1))
    return poly


def _components(graph: Graph):
    seen = [False] * graph.n
    adj = graph.adjacency()
    for s in range(graph.n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        q = deque([s])
        while q:
            x = q.popleft()
            for y, _ in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
                    q.append(y)
        comp.sort()
        relabel = {v: i for i, v in enumerate(comp)}
        edges = tuple(
            sorted(
                (relabel[a], relabel[b])
                for (a, b) in graph.edges
                if a in relabel and b in relabel
            )
        )
        yield Graph(len(comp), edges)


def _add_edge(graph: Graph, u: int, v: int) -> Graph:
    return build_graph(graph.n, list(graph.edges) + [(u, v)])


def _chrom_connected(g: Graph, memo) -> tuple:
    n, m = g.n, g.m
    if m == 0:
        return (0,) * n + (1,)
    if m == n - 1:
        return _tree_poly(n)
    if m == n * (n - 1) // 2:
        return _falling(n)
    hit = memo.get(g)
    if hit is not None:
        return hit
    nonedges = n * (n - 1) // 2 - m
    if nonedges < m:
        # dense: grow toward the complete graph
        # f(G) = f(G + uv) + f(G with u,v identified)
        u, v = _first_nonedge(g)
        val = _padd(
            _chrom(_add_edge(g, u, v), memo),
            _chrom(identify_vertices(g, u, v), memo),
        )
    else:
        # f(G) = f(G - e) - f(G . e), contraction merging parallel edges;
        # a bridge e leaves G - e in two components, which _chrom multiplies
        e = m - 1
        val = _psub(
            _chrom(delete_edge(g, e), memo), _chrom(contract_edge(g, e), memo)
        )
    memo[g] = val
    return val


def _tree_poly(n):
    # k (k-1)^(n-1)
    poly = (0, 1)
    for _ in range(n - 1):
        poly = _pmul(poly, (-1, 1))
    return poly


def _first_nonedge(g: Graph):
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.has_edge(u, v):
                return u, v
    raise AssertionError("no nonedge in incomplete graph")


def _chrom(g: Graph, memo) -> tuple:
    parts = list(_components(g))
    if len(parts) == 1:
        return _chrom_connected(parts[0], memo)
    poly = (1,)
    for comp in parts:
        poly = _pmul(poly, _chrom_connected(comp, memo))
    return poly


def chromatic_polynomial(graph: Graph) -> Polynomial:
    """Proper-vertex-coloring counting polynomial by deletion-contraction.

    f(G, k) = f(G - e, k) - f(G . e, k) with e the last edge and edgeless
    base case k^n; the contraction merges parallel edges.  Components
    multiply, so a bridge e splits G - e, and trees and complete graphs
    short-circuit.  Dense subproblems apply the same identity in the
    edge-adding direction, f(G) = f(G + uv) + f(G / uv) for the first
    nonedge uv.  Each connected subproblem is memoized by its Graph, whose
    sorted edges make equal labeled graphs equal keys.  Coefficients are
    exact ints.
    """
    return Polynomial(_chrom(graph, {}))


def edge_chromatic_polynomial(graph: Graph) -> Polynomial:
    """Proper-edge-coloring counting polynomial: vertex version of the line graph."""
    return chromatic_polynomial(line_graph(graph))


def four_color_check(graph: Graph) -> bool:
    """Whether f(G, 4) > 0.  Intended for planar inputs (not validated)."""
    return evaluate_polynomial(chromatic_polynomial(graph), 4) > 0


def is_proper_edge_coloring(graph: Graph, coloring: EdgeColoring) -> bool:
    """No two edges sharing an endpoint get the same color."""
    if len(coloring.colors) != graph.m:
        raise ValueError("coloring length differs from edge count")
    for v in range(graph.n):
        seen = set()
        for _, e in graph.adjacency()[v]:
            c = coloring.colors[e]
            if c in seen:
                return False
            seen.add(c)
    return True


def lll_condition(p: float, d: int) -> bool:
    """Symmetric Local Lemma premise: p <= 1/(e (d+1)).

    p is the common probability bound of the bad events and d the dependency
    degree.  The comparison is done in floating point against the rounded
    threshold, so results within one ulp of the boundary follow float
    rounding.
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")
    if d < 0:
        raise ValueError("d must be nonnegative")
    return p <= 1.0 / (math.e * (d + 1))


def nullstellensatz_value(graph: Graph, assignment: Sequence) -> int:
    """Product over vertices of degree >= 2 of the pairwise differences of the
    values on their incident edges.  Nonzero exactly when the assignment is a
    proper edge coloring; the empty product is 1.
    """
    if len(assignment) != graph.m:
        raise ValueError("assignment length differs from edge count")
    total = 1
    for v in range(graph.n):
        inc = [e for _, e in graph.adjacency()[v]]
        if len(inc) < 2:
            continue
        for i in range(len(inc)):
            for j in range(i + 1, len(inc)):
                total *= assignment[inc[i]] - assignment[inc[j]]
    return total
