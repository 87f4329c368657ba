#!/usr/bin/env python3
"""Coloring-count profile of the connected census.

For every connected graph up to a given order this script evaluates the
vertex and edge coloring-count polynomials and reports, per graph: the
chromatic number and chromatic index (smallest argument with a positive
count), the number of proper 4-colorings, the edge-coloring class (whether
the chromatic index equals the maximum degree or exceeds it by one), and
the smallest palette size at which the symmetric Local Lemma already
guarantees a proper edge coloring of a random assignment.  A summary
compares the Local Lemma threshold against the exact chromatic index and
spot-checks the difference-product characterization of proper edge
colorings on random assignments.

Usage:
    python scripts/counting_profile.py --max-n 5
    python scripts/counting_profile.py --max-n 6 --samples 500 --seed 7
"""

from __future__ import annotations

import argparse
import random

from chromaconn import (
    EdgeColoring,
    chromatic_polynomial,
    connected_graphs_up_to,
    edge_chromatic_polynomial,
    is_proper_edge_coloring,
    line_graph,
    lll_condition,
    nullstellensatz_value,
    write_graph6,
)
from chromaconn.cli import print_text_table


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=6,
                        help="largest graph order to include (default 6)")
    parser.add_argument("--samples", type=int, default=200,
                        help="random assignments per graph for the "
                             "difference-product spot check")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.max_n <= 6:
        parser.error("--max-n must be between 1 and 6")
    return args


def first_positive(poly, limit):
    for t in range(limit + 1):
        if poly(t) > 0:
            return t
    raise AssertionError("no positive value up to the limit")


def dependency_degree(graph) -> int:
    """Largest number of conflict events sharing an edge with a given one.

    Conflict events are adjacent edge pairs of the graph, i.e. edges of its
    line graph; two events are dependent when they share a graph edge."""
    lg = line_graph(graph)
    deg = [0] * lg.n
    for a, b in lg.edges:
        deg[a] += 1
        deg[b] += 1
    return max((deg[a] + deg[b] - 2 for a, b in lg.edges), default=0)


def lemma_palette_threshold(graph) -> int:
    """Smallest palette size whose uniform random edge coloring satisfies the
    symmetric Local Lemma premise for the conflict events (probability 1/t
    per adjacent pair)."""
    d = dependency_degree(graph)
    t = 1
    while not lll_condition(1.0 / t, d):
        t += 1
    return t


def profile_row(graph):
    vertex_poly = chromatic_polynomial(graph)
    edge_poly = edge_chromatic_polynomial(graph)
    max_degree = max(
        (sum(1 for e in graph.edges if v in e) for v in range(graph.n)),
        default=0,
    )
    chromatic_index = first_positive(edge_poly, graph.m)
    return {
        "graph": write_graph6(graph),
        "n": graph.n,
        "m": graph.m,
        "chromatic_number": first_positive(vertex_poly, graph.n),
        "four_colorings": vertex_poly(4),
        "chromatic_index": chromatic_index,
        "max_degree": max_degree,
        "edge_class": 1 if chromatic_index == max_degree else 2,
        "lemma_threshold": lemma_palette_threshold(graph),
    }


def spot_check_products(graph, samples, rng) -> int:
    """Number of random assignments where the difference product disagrees
    with the direct properness check (expected: zero)."""
    bad = 0
    for _ in range(samples):
        assign = tuple(rng.randrange(3) for _ in range(graph.m))
        nonzero = nullstellensatz_value(graph, assign) != 0
        proper = is_proper_edge_coloring(graph, EdgeColoring(assign, 3))
        if nonzero != proper:
            bad += 1
    return bad


def main(argv=None) -> int:
    args = parse_args(argv)
    rng = random.Random(args.seed)
    rows = []
    disagreements = 0
    for graph in connected_graphs_up_to(args.max_n):
        rows.append(profile_row(graph))
        disagreements += spot_check_products(graph, args.samples, rng)

    headers = ("graph", "n", "m", "chromatic_number", "four_colorings",
               "chromatic_index", "max_degree", "edge_class",
               "lemma_threshold")
    print_text_table(headers, [[r[h] for h in headers] for r in rows])

    multi = [r for r in rows if r["m"] > 0]
    class1 = sum(1 for r in multi if r["edge_class"] == 1)
    overshoot = [r["lemma_threshold"] - r["chromatic_index"] for r in multi]
    print()
    print(f"graphs with edges: {len(multi)} "
          f"(class 1: {class1}, class 2: {len(multi) - class1})")
    if overshoot:
        print("local-lemma palette overshoot vs exact chromatic index: "
              f"min {min(overshoot)}, "
              f"mean {sum(overshoot) / len(overshoot):.2f}, "
              f"max {max(overshoot)}")
    print(f"difference-product spot checks: {args.samples} random assignments "
          f"per graph, {disagreements} disagreements")
    return 0 if disagreements == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
