"""Per-edge/per-vertex baseline checks: proper colorings, chromatic polynomials,
a symmetric Lovasz Local Lemma threshold test, and the incident-edge difference
product whose nonvanishing characterizes proper edge colorings.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache
from itertools import starmap, zip_longest
from operator import add, sub
from typing import Sequence

from .coloring import EdgeColoring
# canonical_form: no caller, kept for perfbench/tracing.py's patch
from .graph import Graph, canonical_form, line_graph, neighbour_masks


@dataclass(frozen=True)
class Polynomial:
    """Integer polynomial as coefficients low power to high, normalized so the
    trailing coefficient is nonzero (the zero polynomial is (0,)).  A
    coefficient that is not an integer raises TypeError."""

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(map(operator.index, self.coeffs))
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
    return tuple(starmap(add, zip_longest(a, b, fillvalue=0)))


def _psub(a, b):
    return tuple(starmap(sub, zip_longest(a, b, fillvalue=0)))


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


# leaf polynomials, cached per vertex count (one immutable tuple per n)
@cache
def _falling(n):
    # k (k-1) ... (k-n+1)
    poly = (1,)
    for i in range(n):
        poly = _pmul(poly, (-i, 1))
    return poly


def _components(adj: tuple) -> list:
    """Each component's masks, relabeled to 0..k-1 keeping vertex order."""
    n = len(adj)
    full = (1 << n) - 1
    rest = full
    parts = []
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = adj[low.bit_length() - 1] & ~comp
            comp |= new
            frontier |= new
        if comp == full:
            return [adj]
        rest &= ~comp
        verts = [v for v in range(n) if comp >> v & 1]
        parts.append(tuple(
            sum(1 << i for i, w in enumerate(verts) if adj[v] >> w & 1)
            for v in verts
        ))
    return parts


def _simplicial(adj: tuple):
    """The first vertex whose neighbours are pairwise adjacent, or None.  Each
    neighbour is checked against the neighbours above it, so a vertex is
    dismissed at its first nonadjacent pair of neighbours."""
    for v, nbrs in enumerate(adj):
        rest = nbrs
        while rest:
            w = rest & -rest
            rest ^= w
            if rest & ~adj[w.bit_length() - 1]:
                break
        else:
            return v
    return None


def _drop(adj: tuple, v: int) -> tuple:
    """Delete v; vertices above v shift down by one."""
    low = (1 << v) - 1
    return tuple(x & low | (x >> 1) & ~low
                 for w, x in enumerate(adj) if w != v)


def _identify(adj: tuple, a: int, b: int) -> tuple:
    """Merge b into a < b, dropping loops and parallels; vertices above b
    shift down by one, so vertex w > b becomes w - 1."""
    bit_a, bit_b = 1 << a, 1 << b
    low = bit_b - 1
    out = []
    for w, x in enumerate(adj):
        if w == b:
            continue
        if w == a:
            x = (x | adj[b]) & ~(bit_a | bit_b)
        elif x & bit_b:
            x = x ^ bit_b | bit_a
        out.append(x & low | (x >> 1) & ~low)
    return tuple(out)


def _chrom_connected(adj: tuple, memo) -> tuple:
    n = len(adj)
    m = sum(map(int.bit_count, adj)) >> 1
    if m == 0:
        return (0,) * n + (1,)
    if m == n - 1:
        return _tree_poly(n)
    if m == n * (n - 1) // 2:
        return _falling(n)
    hit = memo.get(adj)
    if hit is not None:
        return hit
    # G - v, G + uv, G / uv and G . e stay connected; only G - e can split
    v = _simplicial(adj)
    nonedges = n * (n - 1) // 2 - m
    if v is not None:
        # f(G) = (k - d) f(G - v) for a simplicial v of degree d
        val = _pmul((-adj[v].bit_count(), 1),
                    _chrom_connected(_drop(adj, v), memo))
    elif nonedges < m:
        # dense: grow toward the complete graph
        # f(G) = f(G + uv) + f(G with u,v identified)
        u, v = _first_nonedge(adj)
        plus = list(adj)
        plus[u] |= 1 << v
        plus[v] |= 1 << u
        val = _padd(
            _chrom_connected(tuple(plus), memo),
            _chrom_connected(_identify(adj, u, v), memo),
        )
    else:
        # f(G) = f(G - e) - f(G . e) for the last edge e = ab in sorted order,
        # contraction merging parallel edges; a bridge e leaves G - e in two
        # components, which _chrom multiplies
        a = n - 2
        while not adj[a] >> (a + 1):
            a -= 1
        b = adj[a].bit_length() - 1
        minus = list(adj)
        minus[a] ^= 1 << b
        minus[b] ^= 1 << a
        val = _psub(
            _chrom(tuple(minus), memo),
            _chrom_connected(_identify(adj, a, b), memo),
        )
    memo[adj] = val
    return val


@cache
def _tree_poly(n):
    # k (k-1)^(n-1)
    poly = (0, 1)
    for _ in range(n - 1):
        poly = _pmul(poly, (-1, 1))
    return poly


def _first_nonedge(adj: tuple):
    full = (1 << len(adj)) - 1
    for u, x in enumerate(adj):
        above = full & ~x & ~((2 << u) - 1)
        if above:
            return u, (above & -above).bit_length() - 1
    raise AssertionError("no nonedge in incomplete graph")


def _chrom(adj: tuple, memo) -> tuple:
    parts = _components(adj)
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
    nonedge uv.  Before either, a simplicial vertex v, one whose d
    neighbours are pairwise adjacent, is peeled off: f(G) = (k - d) f(G - v).
    Proof: in any proper k-coloring of G - v the d neighbours of v hold d
    distinct colors, so v has exactly k - d choices.  G - v stays connected,
    as a path through v enters and leaves it by two adjacent neighbours.
    Line graphs, and the subproblems deletion-contraction makes of them, have
    many such vertices (a pendant edge, or a clique at a vertex), and the
    first in index order is taken.  The recursion runs on neighbour bitmasks
    (bit w of adj[v] set iff vw is an edge), and each connected subproblem is
    memoized by that tuple, which determines the labeled graph as its sorted
    edge list does.  Coefficients are exact ints.
    """
    return Polynomial(_chrom(neighbour_masks(graph), {}))


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
