"""The per-graph tables that every checker of one graph shares.

verify._tables holds one graph's pair order, path families, bonds,
disjoint-path counts and the pooled form of each family list, and the
columns of a table row read them in turn.  Sharing must change nothing:
each column gives the same result whatever ran before it on the graph, no
solve changes the shared lists or pools, every rule's rows read from a pool
are those of the member-pair rule, and a relabeled graph gets the same
values and never reads the tables of the graph it was relabeled from.
"""

from copy import deepcopy
from itertools import combinations
from random import Random

import pytest

from chromaconn import (
    BudgetExceededError,
    Pattern,
    build_graph,
    connected_graphs_up_to,
    connection_number,
    count_colorings,
    proper_rainbow_connection_number,
    verify_certificate,
)
from chromaconn import verify
from chromaconn.cli import TABLE_COLUMNS
from chromaconn.solve import _connection_checks
from chromaconn.verify import (CUT_PATTERNS, PROPER_RAINBOW, DisconnCheck,
                               _adjacent_pairs, _edge_ends, _tables)

CENSUS = [g for g in connected_graphs_up_to(6) if g.n <= 5]
ORDER6 = [g for g in connected_graphs_up_to(6) if g.n == 6][::4]
RULES = (Pattern.RAINBOW, Pattern.PROPER, Pattern.MONOCHROMATIC,
         Pattern.CONFLICT_FREE)
# k >= 2 cells: every k-connected pattern, in both modes
K2_CELLS = [(p, mode) for p in RULES for mode in ("edge", "vertex")]


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


def _pooled(tables):
    """Every pool of tables, as plain data to compare."""
    return {name: vars(pool) for name, pool in tables.pools.items()}


def test_no_solve_changes_the_shared_tables():
    """prc adds the stars to a copy of the path families, and the cut and
    k >= 2 solves only read theirs; a second round of the same solves
    leaves every pool, built in the first, as it was."""
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    _tables.cache_clear()
    tables = _tables(g)
    before = deepcopy((tables.nonadjacent, tables.paths,
                       tables.disjoint_paths, tables.bonds))
    pools = None
    for _ in range(2):
        for solve in TABLE_COLUMNS.values():
            solve(g)
        for p, mode in K2_CELLS:
            connection_number(g, p, k=2, mode=mode)
        if pools is None:
            pools = deepcopy(_pooled(tables))
    assert _tables(g) is tables
    assert (tables.nonadjacent, tables.paths, tables.disjoint_paths,
            tables.bonds) == before
    assert set(pools) == {"paths", "disjoint_paths", "bonds"}
    assert _pooled(tables) == pools


def test_each_shared_list_is_pooled_once_per_graph(monkeypatch):
    """A graph's eight table columns, its count cells and its k = 2 cells
    pool paths, bonds and disjoint_paths once each; prc pools its own
    paths + stars list; the k = 2 tables read the pool of disjoint_paths."""
    calls = []
    real = verify._Pool

    def counting(families, m):
        calls.append(families)
        return real(families, m)

    monkeypatch.setattr(verify, "_Pool", counting)
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    _tables.cache_clear()
    for solve in TABLE_COLUMNS.values():
        solve(g)
    for p in RULES:
        count_colorings(g, p, 3)
    for p in CUT_PATTERNS:
        count_colorings(g, p, 3, prop="disconnected")
    for p, mode in K2_CELLS:
        connection_number(g, p, k=2, mode=mode)
    tables = _tables(g)
    for shared in (tables.paths, tables.bonds, tables.disjoint_paths):
        assert sum(families is shared for families in calls) == 1
    assert len(calls) == 4  # the three shared lists and prc's
    for p, mode in K2_CELLS:
        table = _connection_checks(g, p, 2, mode)[1]
        assert table.pool is tables.pools["disjoint_paths"]
    assert len(calls) == 4  # the k = 2 tables built again pooled nothing


def _member_pair_rule(graph, pattern, families):
    """(rows as {(f, i): mask}, or as [(i, member, mask)] for the
    conflict-free rule, settle masks), gathered member by member: each
    distinct member, one bit each in order of first appearance, adds its
    bit to the mask of every pair of its edges the rule compares."""
    ends = _edge_ends(graph)
    bit = {}
    for family in families:
        for s, _ in family:
            bit.setdefault(s, len(bit))
    compare = {}
    decided = []
    done = [0] * graph.m
    for s, b in bit.items():
        if s:
            done[s[-1]] |= 1 << b
        pairs = ()
        if pattern is Pattern.MONOCHROMATIC:
            pairs = [(s[0], e) for e in s[1:]]
        elif pattern is Pattern.RAINBOW:
            pairs = combinations(s, 2)
        elif pattern is Pattern.PROPER:
            pairs = _adjacent_pairs(ends, s)
        elif len(s) > 1:
            decided.append((s[-1], s, 1 << b))
        for fi in pairs:
            compare[fi] = compare.get(fi, 0) | 1 << b
    for i in range(1, graph.m):
        done[i] |= done[i - 1]
    if pattern is Pattern.CONFLICT_FREE:
        return sorted(decided, key=lambda row: row[0]), done
    return compare, done


@pytest.mark.parametrize("graphs", (CENSUS, ORDER6),
                         ids=("census5", "order6-sample"))
def test_rows_from_masks_are_the_member_pair_rule(graphs):
    """Under every rule and for every family list (paths, bonds, prc's
    paths + stars, disjoint_paths), a table's rows and settle masks equal
    those gathered member by member."""
    for g in graphs:
        tables = _tables(g)
        prc = _connection_checks(g, PROPER_RAINBOW)[1].families
        lists = (tables.paths, tables.bonds, prc, tables.disjoint_paths)
        for families in lists:
            for pattern in RULES:
                table = DisconnCheck(g, pattern, families)
                want, done = _member_pair_rule(g, pattern, families)
                if pattern is Pattern.CONFLICT_FREE:
                    got = [(i, s, mask) for i, row in enumerate(table.rows)
                           for s, mask in row]
                else:
                    got = {(f, i): mask for i, row in enumerate(table.rows)
                           for f, mask in row}
                    assert len(got) == sum(map(len, table.rows))
                assert got == want, (g, pattern)
                assert table.settle_masks() == done, (g, pattern)


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
    """Solving G and then a fixed random relabeling of G, for every graph of
    order at most 5 and every 4th of order 6, under every table column:
    the values are equal, as the invariants do not depend on the labels,
    and every certificate of the copy verifies against the copy, so no
    table of G was read for it.  Node counts are not compared: the search
    colors edges in index order, so they depend on the labels."""
    rng = Random(7)
    for g in CENSUS + ORDER6:
        perm = list(range(g.n))
        while g.n > 1 and perm == list(range(g.n)):
            rng.shuffle(perm)
        copy = build_graph(g.n, [(perm[a], perm[b]) for a, b in g.edges])
        for name, solve in TABLE_COLUMNS.items():
            want, result = solve(g), solve(copy)
            assert result.value == want.value, (name, g, copy)
            assert verify_certificate(copy, result.optimal_coloring,
                                      result.certificate), (name, g, copy)
    # prc right after rc on another graph of the same size
    a = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    b = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    connection_number(a, Pattern.RAINBOW)
    result = proper_rainbow_connection_number(b)
    assert result.value == 3
    assert verify_certificate(b, result.optimal_coloring, result.certificate)
