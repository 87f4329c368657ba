#!/usr/bin/env python3
"""Build ``reference.json``: the expected value of every benchmark cell.

Keys are the graph6 strings of the census graphs that
``connected_graphs_up_to(7)`` yields (already in canonical form).  Values are
computed once with the package's own solvers at a large budget:

* orders 1..6: the eight table columns;
* order 7: rc, pc and cfc;
* order 6, where the graph allows it: rc, pc and cfc with k=2, edge and
  vertex mode;
* orders 1..5: ``count_colorings`` for seven pattern/property pairs at t=3, 4;
* orders 1..7: the chromatic polynomial, and the edge-chromatic one where
  the graph has at most ``EDGE_CHROMATIC_MAX_EDGES`` edges (the workloads
  draw no denser one).

A table cell that exhausts the reference budget is solved by a search of
the benchmark's own instead: rd, pd and md by an exhaustive search over
the vertex-pair cuts (``disconnection_by_cut_search``), prc by a search over
proper edge colorings only.  Both searches are also run on every order <= 6
graph and must agree with every value the package's solvers found, so each
table value is known.

``--oracle`` then cross-checks every stored connection and disconnection
value on graphs with at most ``ORACLE_MAX_EDGES`` edges against the
independent quotient route in ``tests/oracles.py``, and every chromatic
polynomial against a brute-force count at t=3.  Any disagreement aborts.

Usage (from the repository root):
    python3 perfbench/build_reference.py            # solve, write the file
    python3 perfbench/build_reference.py --oracle   # cross-check the file
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    CENSUS_SIZES,
    COLUMNS,
    EDGE_CHROMATIC_MAX_EDGES,
    COUNT_PATTERNS,
    COUNT_TS,
    K2_MODES,
    K2_PATTERNS,
    REFERENCE,
    ROOT,
    answer_of,
    cell_call,
    count_key,
    k2_key,
    load_package,
    load_reference,
)

REFERENCE_BUDGET = 200_000
ORACLE_MAX_EDGES = 10
CUT_PATTERNS = {"rd": "rainbow", "pd": "proper", "md": "monochromatic"}


def pair_cuts(graph):
    """For each vertex pair, its inclusion-minimal separating edge sets.

    A minimal u-v separating set R is exactly the set of edges leaving the
    component of u in G - R, so it is the crossing set of some vertex set S
    with u in S and v not; the minimal ones among those crossing sets are
    all of them.
    """
    n, edges = graph.n, graph.edges
    out = []
    for u in range(n):
        for v in range(u + 1, n):
            others = [w for w in range(n) if w not in (u, v)]
            cuts = set()
            for mask in range(1 << len(others)):
                side = {u} | {w for i, w in enumerate(others) if mask >> i & 1}
                cuts.add(frozenset(i for i, (a, b) in enumerate(edges)
                                   if (a in side) != (b in side)))
            out.append([sorted(c) for c in cuts
                        if not any(d < c for d in cuts)])
    return out


def cut_coloring_exists(graph, families, pattern: str, t: int,
                        exact: bool) -> bool:
    """Is there a coloring with at most (``exact``: exactly) t colors under
    which every vertex pair has a separating set of the given pattern?

    Edges are colored in order, colors in restricted growth order.  A
    separating set is dead once its colored edges break the pattern (two
    equal colors for rainbow, two adjacent equal ones for proper, two
    different ones for monochromatic) or, for rainbow, once it has more
    edges than t.  Coloring more edges never revives a set, so a branch is
    cut as soon as some pair has only dead sets left; with every edge
    colored, live means satisfied.
    """
    edges = graph.edges
    m = len(edges)
    adjacent = [[bool(set(a) & set(b)) for b in edges] for a in edges]
    touching = [[p for p, cuts in enumerate(families)
                 if any(e in cut for cut in cuts)] for e in range(m)]
    colors = [None] * m

    def alive(cut):
        done = [e for e in cut if colors[e] is not None]
        seen = {colors[e] for e in done}
        if pattern == "monochromatic":
            return len(seen) <= 1
        if pattern == "rainbow":
            return len(seen) == len(done) and len(cut) <= t
        return not any(colors[e] == colors[f] and adjacent[e][f]
                       for i, e in enumerate(done) for f in done[i + 1:])

    def pairs_ok(pairs):
        return all(any(alive(cut) for cut in families[p]) for p in pairs)

    def extend(i: int, used: int) -> bool:
        if exact and used + (m - i) < t:
            return False
        if i == m:
            return True
        for c in range(min(used + 1, t)):
            colors[i] = c
            if pairs_ok(touching[i]) and extend(i + 1, max(used, c + 1)):
                return True
        colors[i] = None
        return False

    return pairs_ok(range(len(families))) and extend(0, 0)


def disconnection_by_cut_search(graph, col: str) -> int:
    """rd, pd or md by an exhaustive search over vertex-pair cuts.

    Independent of the package's solvers; used where they run out of budget.
    rd and pd take the least t with a feasible coloring of at most t colors.
    md takes the most: merging two colors keeps a monochromatic set
    monochromatic, so exactly-t feasibility holds for every t up to md and
    the scan stops at the first t that fails.
    """
    if graph.n == 1:
        return 0
    pattern = CUT_PATTERNS[col]
    families = pair_cuts(graph)
    if pattern == "monochromatic":
        t = 1
        while t < graph.m and cut_coloring_exists(graph, families, pattern,
                                                  t + 1, True):
            t += 1
        return t
    for t in range(1, graph.m + 1):
        if cut_coloring_exists(graph, families, pattern, t, False):
            return t
    raise AssertionError("no feasible coloring")


def proper_rainbow_by_proper_search(cc, graph) -> int:
    """prc by a search over proper edge colorings only.

    Used where the enumerate-then-filter solver runs out of budget.  Colors
    are assigned edge by edge in restricted growth order, and an edge may
    not repeat the color of an earlier edge sharing an endpoint; complete
    colorings with exactly t colors are tested for rainbow connection.  The
    smallest t with a hit is prc.
    """
    if graph.n == 1:
        return 0
    m = graph.m
    earlier = [[f for f in range(e) if set(graph.edges[e]) & set(graph.edges[f])]
               for e in range(m)]
    checker = cc.verify.ConnCheck(graph)
    colors = [0] * m

    def hit(i: int, used: int, t: int) -> bool:
        if used + (m - i) < t:
            return False
        if i == m:
            return checker.connected(colors, cc.Pattern.RAINBOW)
        for c in range(min(used + 1, t)):
            if any(colors[f] == c for f in earlier[i]):
                continue
            colors[i] = c
            if hit(i + 1, max(used, c + 1), t):
                return True
        return False

    for t in range(1, m + 1):
        if hit(0, 0, t):
            return t
    raise AssertionError("no proper rainbow coloring")


def solve_all(cc) -> dict:
    census = list(cc.connected_graphs_up_to(7))
    sizes = {}
    for g in census:
        sizes[g.n] = sizes.get(g.n, 0) + 1
    if sizes != CENSUS_SIZES or len(census) != 996:
        raise SystemExit(f"census sizes {sizes} differ from {CENSUS_SIZES}")
    graphs = {}
    spent = {}
    searched = []
    for g in census:
        g6 = cc.write_graph6(g)
        keys = []
        if g.n <= 6:
            keys += list(COLUMNS)
        else:
            keys += ["rc", "pc", "cfc"]
        if g.n == 6:
            for mode in K2_MODES:
                if all(cc.max_disjoint_paths(g, u, v, mode)[0] >= 2
                       for u in range(g.n) for v in range(u + 1, g.n)):
                    keys += [k2_key(col, mode) for col in K2_PATTERNS]
        if g.n <= 5:
            keys += [count_key(p, prop, t)
                     for p, prop in COUNT_PATTERNS for t in COUNT_TS]
        values, nodes = {}, {}
        for key in keys:
            t0 = time.perf_counter()
            budget = None if key.startswith("count.") else REFERENCE_BUDGET
            try:
                result = cell_call(cc, g, key, budget)()
            except cc.BudgetExceededError:
                if key in CUT_PATTERNS:
                    values[key] = disconnection_by_cut_search(g, key)
                elif key == "prc":
                    values[key] = proper_rainbow_by_proper_search(cc, g)
                else:
                    raise SystemExit(f"{g6} {key}: budget exhausted; "
                                     f"raise REFERENCE_BUDGET")
                searched.append(f"{g6} {key}")
                continue
            values[key] = answer_of(result)
            if not key.startswith("count."):
                nodes[key] = result.nodes_explored
            spent[key] = spent.get(key, 0.0) + time.perf_counter() - t0
        values["chromatic"] = answer_of(cc.chromatic_polynomial(g))
        if g.m <= EDGE_CHROMATIC_MAX_EDGES:
            values["edge_chromatic"] = answer_of(
                cc.edge_chromatic_polynomial(g))
        graphs[g6] = {"n": g.n, "m": g.m, "values": values, "nodes": nodes}
        print(f"{g6} n={g.n} m={g.m}", file=sys.stderr, flush=True)
    for key in sorted(spent):
        print(f"{key}: {spent[key]:.1f} s", file=sys.stderr)
    return {
        "census_sizes": {str(k): v for k, v in sorted(CENSUS_SIZES.items())},
        "reference_budget": REFERENCE_BUDGET,
        "searched": searched,
        "search_check": search_check(cc, graphs),
        "graphs": graphs,
    }


def search_check(cc, graphs: dict) -> dict:
    """Run the fallback searches on every order <= 6 graph and require them
    to agree with every value the package's solvers found."""
    checked = 0
    for g6, entry in graphs.items():
        if entry["n"] > 6:
            continue
        g = cc.parse_graph6(g6)
        for key in list(CUT_PATTERNS) + ["prc"]:
            if key not in entry["nodes"]:
                continue
            if key == "prc":
                got = proper_rainbow_by_proper_search(cc, g)
            else:
                got = disconnection_by_cut_search(g, key)
            if got != entry["values"][key]:
                raise SystemExit(f"{g6} {key}: search gives {got}, "
                                 f"solver {entry['values'][key]}")
            checked += 1
    return {"cells_checked": checked}


def oracle_check(cc, ref: dict) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    import oracles

    names = {"rc": "rainbow", "pc": "proper", "mc": "monochromatic",
             "cfc": "conflict_free", "rd": "rainbow", "pd": "proper",
             "md": "monochromatic"}
    checked = 0
    for g6, entry in ref["graphs"].items():
        g = cc.parse_graph6(g6)
        edges = list(g.edges)
        # brute-force proper 3-colorings against the polynomial at t=3
        want = oracles.count_proper_vertex_colorings(g.n, edges, 3)
        if cc.evaluate_polynomial(cc.Polynomial(entry["values"]["chromatic"]),
                                  3) != want:
            raise SystemExit(f"{g6}: chromatic polynomial disagrees at t=3")
        checked += 1
        if g.m > ORACLE_MAX_EDGES:
            continue
        t0 = time.perf_counter()
        for col, pattern in names.items():
            if col not in entry["values"]:
                continue
            have = entry["values"][col]
            if col in ("rd", "pd", "md"):
                want = oracles.oracle_disconnection_number(g.n, edges, pattern)
            else:
                want = oracles.oracle_connection_number(g.n, edges, pattern)
            if have != want:
                raise SystemExit(f"{g6} {col}: reference {have}, oracle {want}")
            checked += 1
        print(f"{g6} m={g.m} oracle ok in {time.perf_counter() - t0:.1f}s",
              file=sys.stderr, flush=True)
    return {"max_edges": ORACLE_MAX_EDGES, "cells_checked": checked}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--oracle", action="store_true",
                        help="cross-check an existing reference file")
    args = parser.parse_args(argv)
    cc = load_package()
    if args.oracle:
        ref = load_reference()
        ref["oracle"] = oracle_check(cc, ref)
    else:
        ref = solve_all(cc)
    tmp = REFERENCE + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    os.replace(tmp, REFERENCE)
    return 0


if __name__ == "__main__":
    sys.exit(main())
