"""The prefix walk of solve._search and its forward checkers.

With a checker that rejects nothing the walk must reach complete strings in
the order of restricted_growth_strings; with a table it must accept exactly
the strings that the whole-coloring tests accept, so every answer stays the
same.  The cut and
path tables are measured against the brute-force cut and path families of
oracles.py, as a table's whole-coloring test and its witnesses share it.
"""

from itertools import combinations, product
from math import perm

import pytest

from chromaconn import (
    BudgetExceededError,
    EdgeColoring,
    Pattern,
    complete_graph,
    connected_graphs_up_to,
    connection_number,
    count_colorings,
    cycle_graph,
    disconnection_number,
    parse_graph6,
    proper_rainbow_connection_number,
    restricted_growth_strings,
    verify_certificate,
)
from chromaconn.cli import DEFAULT_BUDGET
from chromaconn.local import is_proper_edge_coloring
from chromaconn.solve import _connection_checks, _search, _tails
from chromaconn.verify import (CUT_PATTERNS, PROPER_RAINBOW, DisconnCheck,
                               _check_k_connected)
from oracles import (_connected_under, _disconnected_under, _disjoint,
                     _pair_cut_families, _pair_paths, adjacency, all_pairs,
                     cut_satisfies, minimal_separating_sets,
                     nonadjacent_pairs, simple_paths, u_side)

PATH_PATTERNS = CUT_PATTERNS + (Pattern.CONFLICT_FREE,)

SMALL = [g for g in connected_graphs_up_to(5) if 1 <= g.m <= 7]


def _accepted(m, t, checker):
    """Every complete string the walk keeps at palette size t."""
    seen = []

    def record(t, colors):
        seen.append(tuple(colors))
        return False

    assert _search(m, (t,), checker, None, record)[1] is None
    return seen


class _KeepAll:
    """A checker that rejects no prefix."""

    @staticmethod
    def start(t):
        return 0

    @staticmethod
    def extend(i, prefix, state):
        return state


def test_walk_without_checker_visits_canonical_order():
    for m in range(1, 7):
        for t in range(1, m + 1):
            want = list(restricted_growth_strings(m, t, surjective=True))
            seen = []

            def last(t, colors):
                seen.append(tuple(colors))
                return len(seen) == len(want)

            assert _search(m, (t,), _KeepAll, None, last) == (
                t, want[-1], len(want))
            assert seen == want


def test_cut_checker_accepts_exactly_the_disconnected_strings():
    for g in SMALL:
        families = _pair_cut_families(g.n, g.edges)
        for pattern in CUT_PATTERNS:
            checker = DisconnCheck(g, pattern)
            for t in range(1, g.m + 1):
                want = [s for s in restricted_growth_strings(g.m, t, True)
                        if _disconnected_under(g.edges, s, pattern.value,
                                               families)]
                assert _accepted(g.m, t, checker) == want


def test_witnesses_side_with_the_first_fitting_minimal_cut():
    # a fitting cut's minimal subsets fit too and come first in (size,
    # edges) order, so each pair's first fitting cut is a bond, whose u-side
    # is u's component once it is removed
    for g in SMALL:
        pairs = all_pairs(g.n)
        families = [[(cut, u_side(g.n, g.edges, cut, u))
                     for cut in minimal_separating_sets(g.n, g.edges, u, v)]
                    for u, v in pairs]
        for pattern in CUT_PATTERNS:
            check = DisconnCheck(g, pattern)
            for s in restricted_growth_strings(g.m, min(g.m, 4)):
                sides = [next((side for cut, side in family
                               if cut_satisfies(g.edges, cut, s,
                                                pattern.value)), None)
                         for family in families]
                got = check.witnesses(s)
                if None in sides:
                    assert got is None, (g, pattern, s)
                else:
                    assert [(w.u, w.v, w.side) for w in got] == [
                        (u, v, side) for (u, v), side in zip(pairs, sides)
                    ], (g, pattern, s)


def test_path_table_accepts_exactly_the_connected_strings():
    for g in SMALL:
        paths = _pair_paths(g.n, g.edges)
        for pattern in PATH_PATTERNS:
            _, checker = _connection_checks(g, pattern)
            # no nonadjacent pair, no family: a complete graph's table
            # constrains nothing
            assert (checker.family_masks == []) == (paths == [])
            for t in range(1, g.m + 1):
                want = [s for s in restricted_growth_strings(g.m, t, True)
                        if _connected_under(s, pattern.value, paths)]
                assert _accepted(g.m, t, checker) == want


@pytest.mark.parametrize("mode", ("edge", "vertex"))
def test_k2_walk_accepts_exactly_the_k_connected_strings(mode):
    # the walk backtracks without restoring the watched disjoint sets
    for g in SMALL:
        try:
            _check_k_connected(g, 2, mode)
        except ValueError:
            continue
        for pattern in PATH_PATTERNS:
            tester, checker = _connection_checks(g, pattern, 2, mode)
            for t in range(1, g.m + 1):
                want = [s for s in restricted_growth_strings(g.m, t, True)
                        if tester.connected(s, pattern)]
                assert _accepted(g.m, t, checker) == want


@pytest.mark.parametrize("mode", ("edge", "vertex"))
def test_one_k2_table_serves_every_band_in_either_scan_order(mode):
    # start re-picks only the watched sets that its band clears, so the
    # sets left from the bands walked before, up or down, must still do
    for g in SMALL:
        try:
            _check_k_connected(g, 2, mode)
        except ValueError:
            continue
        bands = list(range(1, g.m + 1))
        for pattern in PATH_PATTERNS:
            checker = _connection_checks(g, pattern, 2, mode)[1]
            for t in bands + bands[::-1] + bands:
                fresh = _connection_checks(g, pattern, 2, mode)[1]
                assert _accepted(g.m, t, checker) == _accepted(
                    g.m, t, fresh), (g, pattern, t)


def test_adjacent_checker_accepts_exactly_the_proper_rainbow_strings():
    for g in SMALL:
        paths = _pair_paths(g.n, g.edges)
        _, checker = _connection_checks(g, PROPER_RAINBOW)
        for t in range(1, g.m + 1):
            want = [s for s in restricted_growth_strings(g.m, t, True)
                    if is_proper_edge_coloring(g, EdgeColoring(s, g.m))
                    and _connected_under(s, "rainbow", paths)]
            assert _accepted(g.m, t, checker) == want


def test_k6_solves_with_verified_certificates():
    k6 = parse_graph6("E~~w")
    b = DEFAULT_BUDGET
    solves = {
        "rd": lambda: disconnection_number(k6, Pattern.RAINBOW, budget=b),
        "pd": lambda: disconnection_number(k6, Pattern.PROPER, budget=b),
        "md": lambda: disconnection_number(k6, Pattern.MONOCHROMATIC,
                                           budget=b),
        "prc": lambda: proper_rainbow_connection_number(k6, budget=b),
    }
    values = {}
    for name, solve in solves.items():
        r = solve()
        assert verify_certificate(k6, r.optimal_coloring, r.certificate), name
        values[name] = r.value
    assert values == {"rd": 5, "pd": 3, "md": 1, "prc": 5}


def test_budget_error_names_the_palette_size():
    # rd(K4) starts at lambda+ = 3 and needs more than one node there
    with pytest.raises(BudgetExceededError) as err:
        disconnection_number(complete_graph(4), Pattern.RAINBOW, budget=1)
    assert (err.value.budget, err.value.explored, err.value.t) == (1, 1, 3)
    assert "t=3" in str(err.value)
    with pytest.raises(BudgetExceededError) as err:
        count_colorings(complete_graph(4), Pattern.RAINBOW, 3, budget=5)
    assert err.value.t == 3 and err.value.explored == 5


def test_budget_error_reports_nodes_per_t():
    # mc at k = 2 on K4 refutes t = 6, 5, 4 and finds its string at t = 3
    k4 = complete_graph(4)
    full = connection_number(k4, Pattern.MONOCHROMATIC, k=2)
    assert full.value == 3
    budget = full.nodes_explored - 1
    with pytest.raises(BudgetExceededError) as err:
        connection_number(k4, Pattern.MONOCHROMATIC, k=2, budget=budget)
    per_t = err.value.nodes_per_t
    assert list(per_t) == [6, 5, 4, 3]
    assert sum(per_t.values()) == err.value.explored == budget
    _, checker = _connection_checks(k4, Pattern.MONOCHROMATIC, 2, "edge")
    for t in (6, 5, 4):
        assert _search(k4.m, (t,), checker, None, None)[2] == per_t[t]
    assert str(err.value) == (f"budget of {budget} nodes exhausted after "
                              f"{budget}, searching palette size t=3")
    # counts: per band j; K4 has no nonadjacent pair, so every string is a
    # node, S(6, 1) + S(6, 2) of them below band 3
    with pytest.raises(BudgetExceededError) as err:
        count_colorings(k4, Pattern.RAINBOW, 3, budget=121)
    assert err.value.nodes_per_t == {1: 1, 2: 31, 3: 89}


# ------------------------------------------------------ settled subtrees


def _brute_tails(r, t):
    """counts[u]: the strings of length r over range(t) that continue a
    restricted-growth prefix with u colors used and end with exactly t."""
    counts = [0] * (t + 1)
    for tail in product(range(t), repeat=r):
        reached = 0  # 1 + the largest value so far
        need = 0     # a value above reached must be an old color: u >= it
        for c in tail:
            if c >= reached:
                if c > reached and c > need:
                    need = c
                reached = c + 1
        for u in range(need, t + 1):
            if max(u, reached) == t:
                counts[u] += 1
    return counts


def test_tails_count_the_restricted_growth_tails():
    for t in range(1, 6):
        for r in range(9):
            assert [_tails(r, u, t) for u in range(t + 1)] == \
                _brute_tails(r, t), (r, t)


def _budget_error(run):
    try:
        run()
    except BudgetExceededError as err:
        return err.budget, err.explored, err.t, err.nodes_per_t
    return None


def test_count_adds_settled_subtrees_as_the_walk_would():
    # count_colorings counts each settled subtree in closed form; the plain
    # walk, with no tally, reaches every string below it one by one
    for g in connected_graphs_up_to(5):
        if g.m == 0:
            continue
        for prop, patterns in (("connected", PATH_PATTERNS),
                               ("disconnected", CUT_PATTERNS)):
            for pattern in patterns:
                for t in range(1, 5):
                    top = min(t, g.m)
                    checker = (_connection_checks(g, pattern)[1]
                               if prop == "connected"
                               else DisconnCheck(g, pattern))
                    hits = [0] * (top + 1)

                    def leaf(j, colors):
                        hits[j] += 1

                    def plain(budget):
                        try:
                            return _search(g.m, range(1, top + 1), checker,
                                           budget, leaf)[2]
                        except BudgetExceededError as err:
                            raise BudgetExceededError(
                                budget, err.explored, t,
                                err.nodes_per_t) from None

                    def count(budget):
                        return count_colorings(g, pattern, t, prop, budget)

                    cell = (g, pattern, prop, t)
                    nodes = plain(None)
                    assert count(nodes) == sum(
                        hits[j] * perm(t, j) for j in range(1, top + 1)), cell
                    for budget in {1, 7, 100, nodes - 1} - {0}:
                        want = _budget_error(lambda: plain(budget))
                        assert _budget_error(lambda: count(budget)) == \
                            want, (cell, budget)


# ------------------------------------------------- per-band start states


def _cut_degree(edges, cut):
    """The most edges of cut at one vertex."""
    ends = [w for e in cut for w in edges[e]]
    return max(ends.count(w) for w in ends)


def _start_tables(g):
    """(name, checker, oracle families in the checker's family order, need,
    k, mode) for every table whose start clears members: rd and pd on the
    pair cut families, rc and prc on the nonadjacent pair paths (prc with
    every vertex's star), k = 2 rc in both modes on every pair's paths.
    The oracle members are edge-index collections.  At k = 1 the mode is
    moot: one member is disjoint in either."""
    cuts = _pair_cut_families(g.n, g.edges)
    out = [("rd", DisconnCheck(g, Pattern.RAINBOW), cuts, len, 1, "edge"),
           ("pd", DisconnCheck(g, Pattern.PROPER), cuts,
            lambda cut: _cut_degree(g.edges, cut), 1, "edge")]
    by_pair = dict(zip(nonadjacent_pairs(g.n, g.edges),
                       _pair_paths(g.n, g.edges)))
    tester, checker = _connection_checks(g, Pattern.RAINBOW)
    paths = [by_pair[p] for p in tester.nonadjacent]
    out.append(("rc", checker, paths, len, 1, "edge"))
    stars = [[[e for _, e in nbrs]] for nbrs in adjacency(g.n, g.edges).values()]
    out.append(("prc", _connection_checks(g, PROPER_RAINBOW)[1],
                paths + stars, len, 1, "edge"))
    for mode in ("edge", "vertex"):
        try:
            _check_k_connected(g, 2, mode)
        except ValueError:
            continue
        tester, checker = _connection_checks(g, Pattern.RAINBOW, 2, mode)
        out.append((f"rc.k2.{mode}", checker,
                    [simple_paths(g.n, g.edges, u, v) for u, v in tester.pairs],
                    len, 2, mode))
    return out


def test_start_clears_exactly_the_members_that_fit_no_t_colors():
    """On the <= 5 census at every t: start(t) clears the members of more
    than t edges under the rainbow rule (rd, rc, prc, k = 2 rc) and the cuts
    with a vertex of cut-degree above t under the proper rule (pd), counted
    from the oracle families; it is None exactly when a family keeps no
    member (k disjoint ones at k = 2), and such a band costs no node."""
    for g in connected_graphs_up_to(5):
        if g.m == 0:
            continue
        for name, checker, families, need, k, mode in _start_tables(g):
            assert [{frozenset(s) for s, _ in family}
                    for family in checker.families] == [
                {frozenset(s) for s in family} for family in families], name
            for t in range(1, g.m + 1):
                cell = (g, name, t)
                kept = [[s for s in family if need(s) <= t]
                        for family in families]
                live = checker.start(t)
                dead = any(not any(_disjoint(g.edges, c, mode)
                                   for c in combinations(family, k))
                           for family in kept)
                assert (live is None) == dead, cell
                if live is None:
                    assert _search(g.m, (t,), checker, None, None) == (
                        None, None, 0), cell
                    continue
                assert [{frozenset(s) for (s, _), b in zip(family, bits)
                         if not live >> b & 1}
                        for family, bits in zip(checker.families,
                                                checker.bits)] == [
                    {frozenset(s) for s in family if need(s) > t}
                    for family in families], cell


def test_start_is_initial_without_a_static_rule():
    """mc, md, cfc and pc (k = 1 and 2) clear no member before a band, so
    each band starts from initial."""
    for g in SMALL:
        checkers = [DisconnCheck(g, Pattern.MONOCHROMATIC)]
        for pattern in (Pattern.MONOCHROMATIC, Pattern.CONFLICT_FREE,
                        Pattern.PROPER):
            checkers.append(_connection_checks(g, pattern)[1])
            try:
                checkers.append(_connection_checks(g, pattern, 2, "edge")[1])
            except ValueError:
                pass
        for checker in checkers:
            for t in range(1, g.m + 1):
                assert checker.start(t) == checker.initial, (g, t)


def test_a_band_with_no_start_shows_zero_nodes_per_t():
    # C6's antipodal pairs have only paths of 3 edges, so rainbow bands 1
    # and 2 end at their start; band 3 then spends the budget
    with pytest.raises(BudgetExceededError) as err:
        count_colorings(cycle_graph(6), Pattern.RAINBOW, 3, budget=1)
    assert err.value.nodes_per_t == {1: 0, 2: 0, 3: 1}
