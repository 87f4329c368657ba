"""Golden answers on the connected census up to order 5.

Pins, per graph, what the solvers return: value, lex-first optimal coloring,
node count and a digest of the certificate JSON for the eight table columns
and for k=2 connection in both modes (or the precondition error text), plus
the explored count at which md and prc stop on small budgets.  A refactor of
the search must leave every field unchanged.

A change that alters answers on purpose regenerates the file with
``PYTHONPATH=src python tests/test_golden.py`` and says so in CHANGES.md.
"""

import hashlib
import json
import os

from chromaconn import (
    BudgetExceededError,
    Pattern,
    certificate_to_dict,
    connected_graphs_up_to,
    connection_number,
    disconnection_number,
    proper_rainbow_connection_number,
    write_graph6,
)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_census5.json")

PATH_PATTERNS = {"rc": Pattern.RAINBOW, "pc": Pattern.PROPER,
                 "mc": Pattern.MONOCHROMATIC, "cfc": Pattern.CONFLICT_FREE}
CUT_PATTERNS = {"rd": Pattern.RAINBOW, "pd": Pattern.PROPER,
                "md": Pattern.MONOCHROMATIC}
BUDGETS = (1, 7, 50)


def _cells(graph):
    """(name, zero-argument solve) for every pinned cell of one graph."""
    cells = [(c, lambda p=p, b=None: connection_number(graph, p, budget=b))
             for c, p in PATH_PATTERNS.items()]
    cells += [(c, lambda p=p, b=None: disconnection_number(graph, p, budget=b))
              for c, p in CUT_PATTERNS.items()]
    cells.append(("prc", lambda b=None: proper_rainbow_connection_number(
        graph, budget=b)))
    for mode in ("edge", "vertex"):
        cells += [(f"{c}.k2.{mode}",
                   lambda p=p, mode=mode: connection_number(graph, p, k=2,
                                                            mode=mode))
                  for c, p in PATH_PATTERNS.items()]
    return cells


def _record(solve):
    try:
        r = solve()
    except ValueError as exc:
        return {"error": str(exc)}
    cert = json.dumps(certificate_to_dict(r.certificate),
                      separators=(",", ":"))
    return {"value": r.value, "coloring": r.optimal_coloring.to_text(),
            "nodes": r.nodes_explored,
            "certificate_sha256": hashlib.sha256(cert.encode()).hexdigest()}


def _budget_record(solve, budget):
    try:
        return {"nodes": solve(b=budget).nodes_explored}
    except BudgetExceededError as exc:
        return {"explored": exc.explored}


def golden_records() -> dict:
    out = {}
    for graph in connected_graphs_up_to(5):
        cells = _cells(graph)
        entry = {name: _record(solve) for name, solve in cells}
        by_name = dict(cells)
        for col in ("md", "prc"):
            for budget in BUDGETS:
                entry[f"{col}.budget{budget}"] = _budget_record(
                    by_name[col], budget)
        out[write_graph6(graph)] = entry
    return out


def test_census_answers_match_golden():
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        want = json.load(fh)
    have = golden_records()
    assert list(have) == list(want)
    moved = [(g6, cell, want[g6].get(cell), rec)
             for g6, entry in have.items() for cell, rec in entry.items()
             if want[g6].get(cell) != rec]
    assert not moved, moved[:5]
    assert all(set(have[g6]) == set(want[g6]) for g6 in want)


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden_records(), fh, indent=1)
        fh.write("\n")
