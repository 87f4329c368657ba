"""Paths, imports and shared helpers for the benchmark.

The benchmark measures the package in ``src/`` of the checkout it runs from,
never an installed copy: ``load_package`` puts that directory first on
``sys.path`` and refuses to continue when the package is missing there.
"""

from __future__ import annotations

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")

COLUMNS = ("rc", "pc", "mc", "cfc", "rd", "pd", "md", "prc")
K2_PATTERNS = ("rc", "pc", "cfc")
K2_MODES = ("edge", "vertex")
COUNT_PATTERNS = (
    ("rainbow", "connected"),
    ("proper", "connected"),
    ("monochromatic", "connected"),
    ("conflict_free", "connected"),
    ("rainbow", "disconnected"),
    ("proper", "disconnected"),
    ("monochromatic", "disconnected"),
)
COUNT_TS = (3, 4)
# the edge-chromatic polynomial is stored and drawn only for graphs with at
# most this many edges: one order-7 graph with 12 edges costs as much as a
# dozen with 9, and K7's line graph (21 vertices, 105 edges) does not finish
EDGE_CHROMATIC_MAX_EDGES = 10
# connected graphs on 1..7 vertices, one per isomorphism class
CENSUS_SIZES = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


class MissingPackage(RuntimeError):
    """The checkout has no importable ``src/chromaconn``."""


def load_package():
    """Import chromaconn from ``<checkout>/src`` and return the module."""
    init = os.path.join(SRC, "chromaconn", "__init__.py")
    if not os.path.isfile(init):
        raise MissingPackage(f"no package source at {init}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import chromaconn

    where = os.path.realpath(os.path.dirname(chromaconn.__file__))
    if where != os.path.realpath(os.path.join(SRC, "chromaconn")):
        raise MissingPackage(f"chromaconn imported from {where}, not {SRC}")
    return chromaconn


def load_reference(path: str = REFERENCE) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# keys of non-table cells in the reference and in a run's answers
def k2_key(col: str, mode: str) -> str:
    return f"{col}.k2.{mode}"


def count_key(pattern: str, prop: str, t: int) -> str:
    return f"count.{pattern}.{prop}.{t}"


def cell_call(cc, graph, key: str, budget):
    """A zero-argument callable that solves one cell the way the CLI does.

    Table columns follow ``cli._table_row``; ``<col>.k2.<mode>`` is
    ``compute --k 2 --mode <mode>``; ``count.*`` is ``count``; ``chromatic``
    and ``edge_chromatic`` are the deletion-contraction polynomials.
    """
    P = cc.Pattern
    solve = cc.solve
    local = cc.local
    path_pattern = {"rc": P.RAINBOW, "pc": P.PROPER, "mc": P.MONOCHROMATIC,
                    "cfc": P.CONFLICT_FREE}
    cut_pattern = {"rd": P.RAINBOW, "pd": P.PROPER, "md": P.MONOCHROMATIC}
    if key in path_pattern:
        return lambda: solve.connection_number(graph, path_pattern[key],
                                               budget=budget)
    if key in cut_pattern:
        return lambda: solve.disconnection_number(graph, cut_pattern[key],
                                                  budget=budget)
    if key == "prc":
        return lambda: solve.proper_rainbow_connection_number(graph,
                                                              budget=budget)
    if ".k2." in key:
        col, _, mode = key.split(".")
        return lambda: solve.connection_number(graph, path_pattern[col], k=2,
                                               mode=mode, budget=budget)
    if key.startswith("count."):
        _, pattern, prop, t = key.split(".")
        return lambda: solve.count_colorings(graph, P.from_name(pattern),
                                             int(t), prop=prop, budget=budget)
    if key == "chromatic":
        return lambda: local.chromatic_polynomial(graph)
    if key == "edge_chromatic":
        return lambda: local.edge_chromatic_polynomial(graph)
    raise ValueError(f"unknown cell {key!r}")


def answer_of(result):
    """The reference-comparable value of a cell result."""
    if isinstance(result, int):
        return result
    if hasattr(result, "coeffs"):
        return list(result.coeffs)
    return result.value
