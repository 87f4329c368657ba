import gc
from itertools import product as iproduct

import pytest

from chromaconn import (
    BudgetExceededError,
    EdgeColoring,
    Pattern,
    bounds,
    build_graph,
    complete_graph,
    connection_number,
    connected_graphs_up_to,
    count_colorings,
    cycle_graph,
    diameter,
    disconnection_number,
    is_pattern_connected,
    path_graph,
    petersen_graph,
    proper_rainbow_connection_number,
    star_graph,
    verify_certificate,
)
from chromaconn import coloring as coloring_module
from chromaconn import graph as graph_module
from chromaconn.graph import ear_bound
from chromaconn.solve import _connection_checks, _search, result_to_dict
from chromaconn.verify import Certificate, DisconnCheck

from oracles import cut_satisfies, minimal_separating_sets, \
    oracle_disconnection_number, seq_satisfies, simple_paths

# ------------------------------------------------------------ fixed values


def test_connection_fixed_values():
    assert connection_number(complete_graph(4), Pattern.RAINBOW).value == 1
    assert connection_number(path_graph(5), Pattern.RAINBOW).value == 4
    assert connection_number(cycle_graph(4), Pattern.RAINBOW).value == 2
    assert connection_number(cycle_graph(5), Pattern.RAINBOW).value == 3
    assert connection_number(complete_graph(3), Pattern.MONOCHROMATIC).value == 3
    assert connection_number(path_graph(3), Pattern.MONOCHROMATIC).value == 1
    assert connection_number(path_graph(4), Pattern.PROPER).value == 2
    assert connection_number(path_graph(4), Pattern.CONFLICT_FREE).value == 2
    assert connection_number(cycle_graph(4), Pattern.RAINBOW, k=2).value == 4


def test_disconnection_fixed_values():
    assert disconnection_number(cycle_graph(4), Pattern.RAINBOW).value == 2
    assert disconnection_number(complete_graph(4), Pattern.RAINBOW).value == 3
    assert disconnection_number(path_graph(4), Pattern.MONOCHROMATIC).value == 3
    assert disconnection_number(star_graph(4), Pattern.RAINBOW).value == 1
    assert disconnection_number(star_graph(4), Pattern.MONOCHROMATIC).value == 4
    assert disconnection_number(complete_graph(3), Pattern.PROPER).value == 2


def test_proper_rainbow_fixed_values():
    assert proper_rainbow_connection_number(complete_graph(3)).value == 3
    assert proper_rainbow_connection_number(cycle_graph(4)).value == 2
    assert proper_rainbow_connection_number(path_graph(4)).value == 3


def _grid(a, b):
    """P_a box P_b, vertex (i, j) numbered i * b + j."""
    return build_graph(a * b,
                       [(v, v + b) for v in range((a - 1) * b)]
                       + [(v, v + 1) for v in range(a * b) if v % b < b - 1])


def test_grid_rainbow_connection_is_a_plus_b_minus_2():
    """rc(P_a box P_b) = a + b - 2.  Lower: the diameter, a + b - 2.  Upper:
    give the steps between rows i and i + 1 color i and those between
    columns j and j + 1 color a - 1 + j; a monotone path takes each step at
    most once, so it is rainbow.  Checked first on C4 = P2 box P2 and on
    P2 box P3."""
    for a, b in ((2, 2), (2, 3), (3, 4), (4, 4)):
        g = _grid(a, b)
        value = a + b - 2
        assert diameter(g) == value
        steps = EdgeColoring(tuple(p // b if q - p == b else a - 1 + p % b
                                   for p, q in g.edges), value)
        cert = is_pattern_connected(g, steps, Pattern.RAINBOW)
        assert cert is not None
        assert verify_certificate(g, steps, cert)
        r = connection_number(g, Pattern.RAINBOW, budget=200_000)
        assert r.value == value, (a, b)
        assert verify_certificate(g, r.optimal_coloring, r.certificate)


def test_petersen_rainbow_values():
    g = petersen_graph()
    for solve, value in ((connection_number, 3), (disconnection_number, 4)):
        r = solve(g, Pattern.RAINBOW, budget=200_000)
        assert r.value == value, solve
        assert verify_certificate(g, r.optimal_coloring, r.certificate)


def test_k1_conventions():
    k1 = build_graph(1, [])
    for p in Pattern:
        r = connection_number(k1, p)
        assert r.value == 0 and r.certificate.pairs == ()
    assert disconnection_number(k1, Pattern.RAINBOW).value == 0
    assert proper_rainbow_connection_number(k1).value == 0


# ----------------------------------------------------------- result shape


def test_results_carry_valid_certificates():
    cases = [
        (cycle_graph(4), lambda g: connection_number(g, Pattern.PROPER)),
        (cycle_graph(4), lambda g: connection_number(g, Pattern.RAINBOW, k=2)),
        (cycle_graph(5), lambda g: disconnection_number(g, Pattern.RAINBOW)),
        (complete_graph(4), lambda g: disconnection_number(
            g, Pattern.MONOCHROMATIC)),
        (complete_graph(4), lambda g: proper_rainbow_connection_number(g)),
    ]
    for g, solve in cases:
        r = solve(g)
        assert verify_certificate(g, r.optimal_coloring, r.certificate)
        assert r.optimal_coloring.distinct == r.value
        assert r.nodes_explored >= 1


def test_no_solve_walks_for_a_path(monkeypatch):
    """Every k = 1 connection solve, prc and connected count reads its
    witnesses from its table, an adjacent pair's being its own edge: on the
    census up to order 5 none calls PathSearch.find, and every certificate
    verifies."""
    def walk(*args):
        raise AssertionError("PathSearch.find called")

    monkeypatch.setattr(coloring_module.PathSearch, "find", walk)
    for g in connected_graphs_up_to(5):
        results = [connection_number(g, p) for p in Pattern]
        results.append(proper_rainbow_connection_number(g))
        for r in results:
            assert verify_certificate(g, r.optimal_coloring, r.certificate)
        for p in Pattern:
            count_colorings(g, p, 3)


def test_optimal_coloring_is_lex_first():
    r = connection_number(cycle_graph(4), Pattern.RAINBOW)
    assert r.optimal_coloring.colors == (0, 0, 0, 1)
    again = connection_number(cycle_graph(4), Pattern.RAINBOW)
    assert again == r  # rerun is bit-identical


def test_value_within_bounds_corpus():
    for g in connected_graphs_up_to(4):
        if g.n == 1:
            continue
        for p in Pattern:
            b = bounds(g, p)
            v = connection_number(g, p).value
            assert b.lower <= v <= b.upper, (g, p)


def test_bounds_content():
    b = bounds(cycle_graph(4), Pattern.RAINBOW)
    assert (b.lower, b.upper) == (diameter(cycle_graph(4)), 4)
    assert "diameter" in b.provenance
    b = bounds(complete_graph(3), Pattern.MONOCHROMATIC)
    assert (b.lower, b.upper) == (2, 3)
    with pytest.raises(ValueError):
        bounds(build_graph(3, [(0, 1)]), Pattern.RAINBOW)


def test_result_to_dict_schema():
    g = cycle_graph(4)
    r = connection_number(g, Pattern.RAINBOW)
    d = result_to_dict(g, r, "rainbow", None, None)
    assert list(d) == ["graph", "pattern", "k", "mode", "objective", "value",
                       "coloring", "certificate", "nodes_explored"]
    assert d["value"] == 2 and d["coloring"] == "0,0,0,1"
    assert d["objective"] == "min"


# ------------------------------------------------------------------ errors


def test_preconditions():
    disconnected = build_graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        connection_number(disconnected, Pattern.RAINBOW)
    with pytest.raises(ValueError):
        disconnection_number(disconnected, Pattern.RAINBOW)
    with pytest.raises(ValueError):
        proper_rainbow_connection_number(disconnected)
    with pytest.raises(ValueError, match="not 2-edge-connected"):
        connection_number(path_graph(3), Pattern.RAINBOW, k=2)
    with pytest.raises(ValueError):
        connection_number(cycle_graph(4), Pattern.RAINBOW, k=0)
    with pytest.raises(ValueError):
        connection_number(cycle_graph(4), Pattern.RAINBOW, k=2, mode="both")
    with pytest.raises(ValueError):
        disconnection_number(path_graph(3), Pattern.CONFLICT_FREE)


def test_budget_exhaustion():
    with pytest.raises(BudgetExceededError) as err:
        connection_number(cycle_graph(4), Pattern.RAINBOW, k=2, budget=2)
    assert err.value.budget == 2 and err.value.explored == 2
    with pytest.raises(BudgetExceededError):
        disconnection_number(complete_graph(4), Pattern.RAINBOW, budget=1)
    with pytest.raises(BudgetExceededError):
        count_colorings(complete_graph(4), Pattern.RAINBOW, 3, budget=5)
    # a budget equal to the needed work succeeds
    r = connection_number(cycle_graph(4), Pattern.RAINBOW, budget=1)
    assert r.value == 2


# ---------------------------------------------------------------- counting


def _literal_count(g, pattern, t, prop):
    n, edges = g.n, list(g.edges)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if prop == "connected":
        fams = {p: simple_paths(n, edges, *p) for p in pairs}
        ok = lambda colors: all(
            any(seq_satisfies([colors[e] for e in path], pattern.value)
                for path in fams[p]) for p in pairs)
    else:
        fams = {p: minimal_separating_sets(n, edges, *p) for p in pairs}
        ok = lambda colors: all(
            any(cut_satisfies(edges, c, colors, pattern.value)
                for c in fams[p]) for p in pairs)
    return sum(1 for colors in iproduct(range(t), repeat=g.m) if ok(colors))


def test_count_matches_literal_enumeration():
    for g in connected_graphs_up_to(4):
        if g.n < 2:
            continue
        for t in (1, 2, 3):
            for p in Pattern:
                assert count_colorings(g, p, t) == \
                    _literal_count(g, p, t, "connected"), (g, p, t)
            for p in (Pattern.RAINBOW, Pattern.PROPER, Pattern.MONOCHROMATIC):
                assert count_colorings(g, p, t, prop="disconnected") == \
                    _literal_count(g, p, t, "disconnected"), (g, p, t)


def test_count_known_values():
    assert count_colorings(path_graph(3), Pattern.RAINBOW, 2) == 2
    assert count_colorings(path_graph(3), Pattern.RAINBOW, 1) == 0
    assert count_colorings(build_graph(2, [(0, 1)]), Pattern.RAINBOW, 7) == 7
    assert count_colorings(path_graph(3), Pattern.MONOCHROMATIC, 1) == 1
    assert count_colorings(build_graph(1, []), Pattern.RAINBOW, 3) == 1


def test_count_budget_counts_nodes_of_the_walk():
    k4 = complete_graph(4)
    # disconnected counts forward-check prefixes: 27 nodes, 3 colorings
    assert count_colorings(k4, Pattern.MONOCHROMATIC, 3, prop="disconnected",
                           budget=27) == 3
    with pytest.raises(BudgetExceededError) as err:
        count_colorings(k4, Pattern.MONOCHROMATIC, 3, prop="disconnected",
                        budget=26)
    assert err.value.explored == 26 and err.value.t == 3
    # K4 has no nonadjacent pair, so its connected count is settled at the
    # root: each string with at most t colors is one node, counted without
    # being visited, S(6,1) + S(6,2) + S(6,3) = 1 + 31 + 90
    count_colorings(k4, Pattern.RAINBOW, 3, budget=122)
    with pytest.raises(BudgetExceededError) as err:
        count_colorings(k4, Pattern.RAINBOW, 3, budget=121)
    assert err.value.explored == 121
    # the error names the requested palette, not the band searched: K4's
    # band 2 alone has 31 strings
    with pytest.raises(BudgetExceededError) as err:
        count_colorings(k4, Pattern.RAINBOW, 5, budget=1)
    assert err.value.t == 5


def test_count_validation():
    with pytest.raises(ValueError):
        count_colorings(path_graph(3), Pattern.RAINBOW, 0)
    with pytest.raises(ValueError):
        count_colorings(path_graph(3), Pattern.RAINBOW, 2, prop="sideways")
    with pytest.raises(ValueError):
        count_colorings(path_graph(3), Pattern.CONFLICT_FREE, 2,
                        prop="disconnected")
    with pytest.raises(ValueError):
        count_colorings(build_graph(3, [(0, 1)]), Pattern.RAINBOW, 2)


# ------------------------------------------------------- tree-cover bound


def test_tree_cover_bound_keeps_the_scan_from_m():
    """On the <= 6 census, mc scanned from bounds(...).upper = m - c(G)
    gives the value, lex-first coloring and certificate of a scan forced
    from m with the same checker, in no more nodes, and the bound is mc."""
    mono = Pattern.MONOCHROMATIC
    checked = 0
    for g in connected_graphs_up_to(6):
        b = bounds(g, mono)
        r = connection_number(g, mono)
        assert b.upper == r.value, g
        checked += 1
        if g.n == 1:
            continue
        assert b.provenance == ("spanning-tree", "tree-cover")
        tester, checker = _connection_checks(g, mono)
        t, colors, nodes = _search(g.m, range(g.m, 0, -1), checker, None,
                                   lambda t, colors: True)
        assert t == r.value, g
        assert r.optimal_coloring.colors == colors, g
        assert r.certificate.pairs == tester.witnesses(colors, checker), g
        assert r.nodes_explored <= nodes, g
    assert checked == 143


def test_tree_cover_bound_named_cases():
    mono = Pattern.MONOCHROMATIC
    for n in range(2, 7):
        g = complete_graph(n)
        assert bounds(g, mono).upper == g.m
        assert bounds(path_graph(n), mono).upper == 1
        assert bounds(star_graph(n), mono).upper == 1
    for g in (cycle_graph(5), complete_graph(4)):
        for mode in ("edge", "vertex"):
            assert bounds(g, mono, k=2, mode=mode).upper == g.m
    # 25 vertices: the root's lower bound settles the cover at once
    assert bounds(star_graph(24), mono).upper == 1
    hub_and_edge = build_graph(25, [(0, w) for w in range(1, 25)] + [(1, 2)])
    assert bounds(hub_and_edge, mono).upper == 2


def test_tree_cover_bound_holds_when_the_cover_gives_up(monkeypatch):
    """With no allowance for the cover search, bounds falls back to the
    root's lower bound, and mc scanned from there is unchanged on the
    <= 5 census."""
    mono = Pattern.MONOCHROMATIC
    census = list(connected_graphs_up_to(5))
    exact = [connection_number(g, mono) for g in census]
    monkeypatch.setattr(graph_module, "COVER_WORK", 0)
    for g, r in zip(census, exact):
        assert bounds(g, mono).upper >= r.value, g
        fallback = connection_number(g, mono)
        assert (fallback.value, fallback.optimal_coloring,
                fallback.certificate) == (r.value, r.optimal_coloring,
                                          r.certificate), g
        assert fallback.nodes_explored >= r.nodes_explored, g


def test_ear_bound_is_at_least_md_by_the_oracle():
    """On the <= 5 census, the ear bound is at least md as the set-partition
    oracle finds it, and at most min(m, n - 1)."""
    for g in connected_graphs_up_to(5):
        b = ear_bound(g)
        assert b >= oracle_disconnection_number(g.n, g.edges,
                                                "monochromatic"), g
        assert b <= min(g.m, max(g.n - 1, 0)), g


def test_ear_bound_keeps_the_scan_from_min_m_n_minus_1():
    """On the <= 6 census, md scanned from ear_bound gives the value,
    lex-first coloring and certificate of a scan from min(m, n - 1) on a
    fresh checker, in no more nodes."""
    mono = Pattern.MONOCHROMATIC
    checked = 0
    for g in connected_graphs_up_to(6):
        if g.n <= 1:
            continue
        r = disconnection_number(g, mono)
        checker = DisconnCheck(g, mono)
        t, colors, nodes = _search(g.m, range(min(g.m, g.n - 1), 0, -1),
                                   checker, None, lambda t, colors: True)
        assert (r.value, r.optimal_coloring.colors) == (t, colors), g
        assert r.certificate == Certificate(
            "disconnection", mono.value, checker.witnesses(colors)), g
        assert r.nodes_explored <= nodes, g
        checked += 1
    assert checked == 142


def test_ear_bound_closed_forms():
    """A tree's bound is m, one bridge per edge; C_n's is floor(n/2), its
    own md; K_n's is 1, a triangle and ears of two edges; the Petersen
    graph has md 2."""
    mono = Pattern.MONOCHROMATIC
    trees = [g for g in connected_graphs_up_to(6) if g.m == g.n - 1]
    assert len(trees) == 14
    for g in trees:
        assert ear_bound(g) == g.m, g
    for n in range(3, 10):
        assert ear_bound(cycle_graph(n)) == n // 2
        assert disconnection_number(cycle_graph(n), mono).value == n // 2
    for n in range(3, 8):
        assert ear_bound(complete_graph(n)) == 1
        assert disconnection_number(complete_graph(n), mono).value == 1
    r = disconnection_number(petersen_graph(), mono, budget=200_000)
    assert r.value == 2
    assert verify_certificate(petersen_graph(), r.optimal_coloring,
                              r.certificate)


def test_md_budget_error_starts_at_the_ear_bound():
    """Petersen's ear bound is 3 (not n - 1 = 9), and band 3 alone spends
    a budget of 1,000 nodes."""
    with pytest.raises(BudgetExceededError) as err:
        disconnection_number(petersen_graph(), Pattern.MONOCHROMATIC,
                             budget=1000)
    assert err.value.t == 3
    assert err.value.nodes_per_t == {3: 1000}


def test_solves_leave_no_cyclic_garbage():
    """The cover search grows connected sets on C6 and the wheel W5, and
    every solve runs _search: with the cyclic collector off, a solve leaves
    nothing that only the collector could free (recursive closures drop
    their reference to themselves)."""
    wheel = build_graph(6, [(0, w) for w in range(1, 6)]
                        + [(w, w % 5 + 1) for w in range(1, 6)])
    gc.collect()
    gc.disable()
    try:
        for g in (cycle_graph(6), wheel):
            connection_number(g, Pattern.MONOCHROMATIC)
        connection_number(cycle_graph(5), Pattern.RAINBOW)
        assert gc.collect() == 0
    finally:
        gc.enable()
