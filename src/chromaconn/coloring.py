"""Edge colorings, path patterns, and pattern-path search: graph.simple_paths
under a prefix test of the pattern.

A pattern constrains the color sequence read along a path:

* rainbow        - all colors distinct
* proper         - no two consecutive edges share a color
* monochromatic  - all colors equal
* conflict_free  - at least one color occurs exactly once

Zero-length and one-edge paths satisfy every pattern.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional, Sequence

from .graph import Graph, Path, simple_paths


class Pattern(Enum):
    RAINBOW = "rainbow"
    PROPER = "proper"
    MONOCHROMATIC = "monochromatic"
    CONFLICT_FREE = "conflict_free"

    @property
    def objective(self) -> str:
        """Optimization direction of the associated connection number.

        Monochromatic asks for the most colors (fewest is trivially easy);
        the others ask for the fewest.
        """
        return "max" if self is Pattern.MONOCHROMATIC else "min"

    @classmethod
    def from_name(cls, name: str) -> "Pattern":
        key = name.strip().lower().replace("-", "_")
        for p in cls:
            if p.value == key:
                return p
        raise ValueError(f"unknown pattern {name!r}")


@dataclass(frozen=True)
class EdgeColoring:
    """Color identifiers per edge index, drawn from 0..palette-1."""

    colors: tuple
    palette: int

    def __post_init__(self):
        if self.palette < 0:
            raise ValueError("palette size must be nonnegative")
        for c in self.colors:
            if not (0 <= c < self.palette):
                raise ValueError(f"color {c} outside palette 0..{self.palette - 1}")

    @classmethod
    def from_text(cls, text: str, palette: Optional[int] = None) -> "EdgeColoring":
        """Parse the comma format, e.g. "0,1,0,2"."""
        s = text.strip()
        colors = tuple(int(tok) for tok in s.split(",")) if s else ()
        if palette is None:
            palette = max(colors) + 1 if colors else 0
        return cls(colors, palette)

    def to_text(self) -> str:
        return ",".join(str(c) for c in self.colors)

    @property
    def distinct(self) -> int:
        return len(set(self.colors))


# Enum member lookups (Pattern.X) cost about ten times a plain name lookup;
# the hot loops below compare against these module-level aliases instead
_RAINBOW = Pattern.RAINBOW
_PROPER = Pattern.PROPER
_MONOCHROMATIC = Pattern.MONOCHROMATIC
_CONFLICT_FREE = Pattern.CONFLICT_FREE


def _seq_satisfies(seq: Sequence, pattern: Pattern) -> bool:
    if len(seq) <= 1:
        return True
    if pattern is _RAINBOW:
        return len(set(seq)) == len(seq)
    if pattern is _PROPER:
        return all(a != b for a, b in zip(seq, seq[1:]))
    if pattern is _MONOCHROMATIC:
        return len(set(seq)) == 1
    if pattern is _CONFLICT_FREE:
        return any(k == 1 for k in Counter(seq).values())
    raise ValueError(f"unknown pattern {pattern!r}")


def path_satisfies(coloring: EdgeColoring, path: Path, pattern: Pattern) -> bool:
    """Whether the color sequence along the path fits the pattern."""
    m = len(coloring.colors)
    for e in path.edges:
        if not (0 <= e < m):
            raise ValueError(f"path edge index {e} outside colored graph")
    return _seq_satisfies([coloring.colors[e] for e in path.edges], pattern)


def _prefix_test(colors: Sequence, pattern: Pattern):
    """fits(edges, end) for graph.simple_paths: whether the walk's edges,
    ending with the new one, can still start (or, with end, be) a pattern
    path.  Rainbow, proper and monochromatic are prefix-closed, so the new
    edge's color is compared only with every earlier edge's, the previous
    edge's, or the first edge's.  Conflict-free is tested at the end."""
    if pattern is _RAINBOW:
        return lambda edges, end: colors[edges[-1]] not in [
            colors[f] for f in edges[:-1]]
    if pattern is _PROPER:
        return lambda edges, end: (len(edges) < 2 or
                                   colors[edges[-2]] != colors[edges[-1]])
    if pattern is _MONOCHROMATIC:
        return lambda edges, end: colors[edges[0]] == colors[edges[-1]]
    if pattern is _CONFLICT_FREE:
        return lambda edges, end: not end or _seq_satisfies(
            [colors[f] for f in edges], _CONFLICT_FREE)
    raise ValueError(f"unknown pattern {pattern!r}")


class PathSearch:
    """Pattern-path queries against one graph, reusable across colorings:
    graph.simple_paths under the pattern's prefix test.

    Search is over simple paths only.  A state-space walk over (vertex, last
    color) would accept proper walks that shortcut to no proper simple path.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self.adj = graph.adjacency()

    def find(self, colors: Sequence, u: int, v: int,
             pattern: Pattern) -> Optional[Path]:
        """First pattern path from u to v in simple_paths order."""
        g = self.graph
        if not (0 <= u < g.n and 0 <= v < g.n):
            raise ValueError("endpoint out of range")
        if len(colors) != g.m:
            raise ValueError("coloring length differs from edge count")
        if u == v:
            return Path((u,), ())
        found = simple_paths(self.adj, u, v, _prefix_test(colors, pattern),
                             first=True)
        return Path(*found[0]) if found else None

    # no caller in the package; kept for perfbench/tracing.py's patch
    def all_pattern_paths(self, colors: Sequence, u: int, v: int,
                          pattern: Pattern):
        """Every simple u-v path satisfying the pattern, in search order."""
        return [Path(*p) for p in simple_paths(
            self.adj, u, v, _prefix_test(colors, pattern))]


def exists_pattern_path(graph: Graph, coloring: EdgeColoring, u: int, v: int,
                        pattern: Pattern) -> Optional[Path]:
    """One pattern path from u to v, or None.  One-shot convenience wrapper."""
    return PathSearch(graph).find(coloring.colors, u, v, pattern)


def restricted_growth_strings(m: int, k: int,
                              surjective: bool = False) -> Iterator:
    """Length-m color tuples canonical under color renaming, lexicographically.

    Each new color, at its first occurrence left to right, is the smallest
    unused identifier; values stay below k.  With surjective=True exactly k
    distinct values must appear.  One tuple per partition of the edge
    positions into at most (resp. exactly) k blocks.
    """
    if m < 0 or k < 0:
        raise ValueError("m and k must be nonnegative")
    if m == 0:
        if k == 0 or not surjective:
            yield ()
        return
    if k == 0:
        return

    prefix = [0] * m

    def rec(i: int, used: int):
        if i == m:
            if not surjective or used == k:
                yield tuple(prefix)
            return
        top = min(used, k - 1)
        for val in range(top + 1):
            nused = used if val < used else used + 1
            if surjective and nused + (m - i - 1) < k:
                continue
            prefix[i] = val
            yield from rec(i + 1, nused)

    yield from rec(0, 0)


def canonical_colorings(graph_edges: int, k: int,
                        surjective: bool = False) -> Iterator[EdgeColoring]:
    """restricted_growth_strings wrapped as EdgeColoring objects (palette k)."""
    for colors in restricted_growth_strings(graph_edges, k, surjective):
        yield EdgeColoring(colors, k)
