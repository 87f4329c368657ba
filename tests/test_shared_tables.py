"""The per-graph tables that every checker of one graph shares.

verify._tables holds one graph's pair order, path families, bonds and
disjoint-path counts, and the columns of a table row read them in turn.
Sharing must change nothing: each column gives the same result whatever ran
before it on the graph, no solve changes the shared lists, and a relabeled
graph never reads the tables of the graph it was relabeled from.
"""

from copy import deepcopy
from random import Random

import pytest

from chromaconn import (
    BudgetExceededError,
    Pattern,
    build_graph,
    connected_graphs_up_to,
    connection_number,
    proper_rainbow_connection_number,
    verify_certificate,
)
from chromaconn import verify
from chromaconn.cli import TABLE_COLUMNS
from chromaconn.solve import _connection_checks
from chromaconn.verify import (CUT_PATTERNS, PROPER_RAINBOW, DisconnCheck,
                               _tables)

CENSUS = [g for g in connected_graphs_up_to(6) if g.n <= 5]
ORDER6 = [g for g in connected_graphs_up_to(6) if g.n == 6][::4]
# k >= 2 cells: every k-connected pattern, in both modes
K2_CELLS = [(p, mode) for p in (Pattern.RAINBOW, Pattern.PROPER,
                                Pattern.MONOCHROMATIC, Pattern.CONFLICT_FREE)
            for mode in ("edge", "vertex")]


def _outcome(solve, budget):
    """The full SolveResult, or what an exhausted budget reports."""
    try:
        return solve(budget=budget)
    except BudgetExceededError as err:
        return ("exhausted", err.explored, err.t, err.nodes_per_t)
    except ValueError as err:  # a graph without k disjoint paths per pair
        return ("precondition", str(err))


def _cells(graph):
    cells = [(name, lambda budget, f=f: f(graph, budget=budget))
             for name, f in TABLE_COLUMNS.items()]
    if graph.n <= 5:
        cells += [(f"{p.value}.k2.{mode}",
                   lambda budget, p=p, mode=mode: connection_number(
                       graph, p, k=2, mode=mode, budget=budget))
                  for p, mode in K2_CELLS]
    return cells


@pytest.mark.parametrize("graphs, budget", ((CENSUS, None), (ORDER6, 1000)),
                         ids=("census5", "order6-sample"))
def test_columns_give_the_same_results_in_any_order(graphs, budget):
    """The columns in table order, in reverse, and each alone on a cleared
    cache agree on value, coloring, certificate and nodes."""
    for g in graphs:
        cells = _cells(g)
        forward = {name: _outcome(solve, budget) for name, solve in cells}
        backward = {name: _outcome(solve, budget)
                    for name, solve in reversed(cells)}
        alone = {}
        for name, solve in cells:
            _tables.cache_clear()
            alone[name] = _outcome(solve, budget)
        assert forward == backward == alone, g


def test_no_solve_changes_the_shared_tables():
    """prc adds the stars to a copy of the path families, and the cut and
    k >= 2 solves only read theirs."""
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    tables = _tables(g)
    before = deepcopy((tables.nonadjacent, tables.paths,
                       tables.disjoint_paths, tables.bonds))
    for solve in TABLE_COLUMNS.values():
        solve(g)
    for p, mode in K2_CELLS:
        connection_number(g, p, k=2, mode=mode)
    assert _tables(g) is tables
    assert (tables.nonadjacent, tables.paths, tables.disjoint_paths,
            tables.bonds) == before


def test_tables_hold_the_shared_families_and_first_keeps_them():
    """The rc, pc, mc, cfc, rd, pd, md and k = 2 tables keep the graph's
    family list itself, and reading witnesses from them with first leaves
    it as it was; prc adds its stars to a new list."""
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    tables = _tables(g)
    checkers = [(_connection_checks(g, p)[1], tables.paths)
                for p in (Pattern.RAINBOW, Pattern.PROPER,
                          Pattern.MONOCHROMATIC, Pattern.CONFLICT_FREE)]
    checkers += [(DisconnCheck(g, p), tables.bonds) for p in CUT_PATTERNS]
    checkers += [(_connection_checks(g, p, 2, mode)[1],
                  tables.disjoint_paths) for p, mode in K2_CELLS]
    for checker, shared in checkers:
        assert checker.families is shared
    prc = _connection_checks(g, PROPER_RAINBOW)[1]
    assert prc.families is not tables.paths
    assert prc.families[:len(tables.paths)] == tables.paths
    before = deepcopy((tables.paths, tables.disjoint_paths, tables.bonds))
    colorings = (tuple(range(g.m)), (0,) * g.m, (0, 1) * 3)
    for checker in [c for c, _ in checkers] + [prc]:
        found = [checker.first(colors) for colors in colorings]
        assert any(first is not None for first in found)
    assert _tables(g) is tables
    assert (tables.paths, tables.disjoint_paths, tables.bonds) == before


def test_k_connectivity_is_checked_once_per_graph_and_mode(monkeypatch):
    """Every k = 2 cell of a graph checks its k-connectivity, but each
    pair's max flow runs once per mode; the first failing pair is still
    the one named."""
    calls = []
    real = verify.max_disjoint_paths

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verify, "max_disjoint_paths", counting)
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    _tables.cache_clear()
    for p, mode in K2_CELLS:
        connection_number(g, p, k=2, mode=mode)
    assert len(calls) == 2 * len(_tables(g).pairs)
    # pair (0,3) is the first with one disjoint path: 3 hangs off 2
    g = build_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    for p in (Pattern.RAINBOW, Pattern.PROPER):
        with pytest.raises(ValueError, match=r"not 2-edge-connected: pair "
                           r"\(0,3\) supports only 1 disjoint paths"):
            connection_number(g, p, k=2)


def test_a_relabeled_copy_reads_its_own_tables():
    """Solving G and then a relabeling of G: every certificate of the copy
    verifies against the copy, so no table of G was read for it."""
    rng = Random(7)
    for g in CENSUS[10:] + ORDER6[:4]:
        perm = list(range(g.n))
        while perm == list(range(g.n)):
            rng.shuffle(perm)
        copy = build_graph(g.n, [(perm[a], perm[b]) for a, b in g.edges])
        if copy == g:
            continue
        for solve in TABLE_COLUMNS.values():
            want = _outcome(lambda budget: solve(g, budget=budget), 1000)
            result = _outcome(lambda budget: solve(copy, budget=budget),
                              1000)
            if isinstance(want, tuple) or isinstance(result, tuple):
                continue  # exhausted: the node counts may differ
            assert result.value == want.value, (g, copy)
            assert verify_certificate(copy, result.optimal_coloring,
                                      result.certificate), (g, copy)
    # prc right after rc on another graph of the same size
    a = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    b = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    connection_number(a, Pattern.RAINBOW)
    result = proper_rainbow_connection_number(b)
    assert result.value == 3
    assert verify_certificate(b, result.optimal_coloring, result.certificate)
