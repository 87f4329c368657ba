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
    path_graph,
    proper_rainbow_connection_number,
    star_graph,
    verify_certificate,
)
from chromaconn.solve import result_to_dict

from oracles import cut_satisfies, minimal_separating_sets, seq_satisfies, \
    simple_paths

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
    # connected counts test every string with at most t colors:
    # S(6,1) + S(6,2) + S(6,3) = 1 + 31 + 90
    count_colorings(k4, Pattern.RAINBOW, 3, budget=122)
    with pytest.raises(BudgetExceededError) as err:
        count_colorings(k4, Pattern.RAINBOW, 3, budget=121)
    assert err.value.explored == 121
    # the error names the requested palette, not the band searched
    with pytest.raises(BudgetExceededError) as err:
        count_colorings(path_graph(3), Pattern.RAINBOW, 5, budget=1)
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
