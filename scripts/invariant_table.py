#!/usr/bin/env python3
"""Invariant table with aggregate statistics over the connected census.

Computes the eight coloring invariants (four connection numbers, three
disconnection numbers, and the proper-rainbow connection number) for every
connected graph up to a given order, prints the per-graph table, and then
summarizes how tight the standard bounds are across the census: how often
the rainbow value meets its diameter lower bound, how often the
monochromatic value meets m - n + 2, the value distribution of each column,
and the extremal graphs per column.  A solve that exhausts --budget ends
the run with one error line naming the graph and column, and exit status 2.

Usage:
    python scripts/invariant_table.py --max-n 5
    python scripts/invariant_table.py --max-n 4 --format json
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from chromaconn import (BudgetExceededError, connected_graphs_up_to,
                        diameter, write_graph6)
from chromaconn.cli import (DEFAULT_BUDGET, EXIT_BUDGET, TABLE_COLUMNS,
                            print_text_table)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=5,
                        help="largest graph order to include (default 5)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="coloring budget per solver call")
    args = parser.parse_args(argv)
    if not 1 <= args.max_n <= 7:
        parser.error("--max-n must be between 1 and 7")
    if args.budget < 1:
        parser.error("--budget must be >= 1")
    return args


def invariant_row(graph, budget):
    """The table row of one graph, or None after an error line on stderr
    naming the graph and the column that ran out of budget."""
    row = {"graph": write_graph6(graph), "n": graph.n, "m": graph.m}
    for col, solve in TABLE_COLUMNS.items():
        try:
            row[col] = solve(graph, budget=budget).value
        except BudgetExceededError as exc:
            print(f"error: graph {row['graph']} column {col}: {exc}",
                  file=sys.stderr)
            return None
    row["diameter"] = diameter(graph)
    return row


def summarize(rows):
    multi = [r for r in rows if r["n"] >= 2]
    summary = {
        "graphs": len(rows),
        "rainbow_meets_diameter": sum(1 for r in multi if r["rc"] == r["diameter"]),
        "rainbow_meets_edge_count": sum(1 for r in multi if r["rc"] == r["m"]),
        "mono_meets_cycle_bound": sum(
            1 for r in multi if r["mc"] == r["m"] - r["n"] + 2
        ),
        "proper_below_rainbow": sum(1 for r in multi if r["pc"] < r["rc"]),
        "distributions": {
            col: dict(sorted(Counter(r[col] for r in multi).items()))
            for col in TABLE_COLUMNS
        },
        "extremal": {
            col: {
                "max": max(r[col] for r in multi),
                "graphs": [r["graph"] for r in multi
                           if r[col] == max(x[col] for x in multi)],
            }
            for col in TABLE_COLUMNS
        },
    }
    return summary


def print_text(rows, summary):
    headers = ("graph", "n", "m", *TABLE_COLUMNS, "diameter")
    print_text_table(headers, [[r[h] for h in headers] for r in rows])
    print()
    print(f"graphs: {summary['graphs']}")
    print(f"rainbow value equals diameter on "
          f"{summary['rainbow_meets_diameter']} graphs, equals edge count on "
          f"{summary['rainbow_meets_edge_count']}")
    print(f"monochromatic value meets m-n+2 on "
          f"{summary['mono_meets_cycle_bound']} graphs")
    print(f"proper value strictly below rainbow on "
          f"{summary['proper_below_rainbow']} graphs")
    for col in TABLE_COLUMNS:
        dist = summary["distributions"][col]
        ext = summary["extremal"][col]
        body = ", ".join(f"{v}x{c}" for v, c in dist.items())
        print(f"{col:>4}: {body}; max {ext['max']} at "
              f"{' '.join(ext['graphs'])}")


def main(argv=None) -> int:
    args = parse_args(argv)
    rows = []
    for graph in connected_graphs_up_to(args.max_n):
        row = invariant_row(graph, args.budget)
        if row is None:
            return EXIT_BUDGET
        rows.append(row)
    summary = summarize(rows)
    if args.format == "json":
        print(json.dumps({"rows": rows, "summary": summary}, indent=2))
    else:
        print_text(rows, summary)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
