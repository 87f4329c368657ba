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
from dataclasses import dataclass

from chromaconn import (BudgetExceededError, connected_graphs_up_to,
                        diameter, write_graph6)
from chromaconn.cli import EXIT_BUDGET, TABLE_COLUMNS


@dataclass(frozen=True)
class Config:
    max_n: int = 5
    fmt: str = "text"
    budget: int = 10_000_000


def parse_config(argv=None) -> Config:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=5,
                        help="largest graph order to include (default 5)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--budget", type=int, default=10_000_000,
                        help="coloring budget per solver call")
    args = parser.parse_args(argv)
    if not 1 <= args.max_n <= 7:
        parser.error("--max-n must be between 1 and 7")
    if args.budget < 1:
        parser.error("--budget must be >= 1")
    return Config(max_n=args.max_n, fmt=args.format, budget=args.budget)


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


def print_text(rows, summary, out):
    headers = ("graph", "n", "m", *TABLE_COLUMNS, "diameter")
    table = [headers] + [tuple(str(r[h]) for h in headers) for r in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    for row in table:
        out.write("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        out.write("\n")
    out.write("\n")
    multi = summary["graphs"]
    out.write(f"graphs: {multi}\n")
    out.write(
        f"rainbow value equals diameter on {summary['rainbow_meets_diameter']} "
        f"graphs, equals edge count on {summary['rainbow_meets_edge_count']}\n"
    )
    out.write(
        f"monochromatic value meets m-n+2 on "
        f"{summary['mono_meets_cycle_bound']} graphs\n"
    )
    out.write(
        f"proper value strictly below rainbow on "
        f"{summary['proper_below_rainbow']} graphs\n"
    )
    for col in TABLE_COLUMNS:
        dist = summary["distributions"][col]
        ext = summary["extremal"][col]
        body = ", ".join(f"{v}x{c}" for v, c in dist.items())
        out.write(
            f"{col:>4}: {body}; max {ext['max']} at {' '.join(ext['graphs'])}\n"
        )


def main(argv=None) -> int:
    cfg = parse_config(argv)
    rows = []
    for graph in connected_graphs_up_to(cfg.max_n):
        row = invariant_row(graph, cfg.budget)
        if row is None:
            return EXIT_BUDGET
        rows.append(row)
    summary = summarize(rows)
    if cfg.fmt == "json":
        json.dump({"rows": rows, "summary": summary}, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        print_text(rows, summary, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
