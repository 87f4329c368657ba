import math

import pytest
from hypothesis import given, settings, strategies as st

from chromaconn import (
    EdgeColoring,
    Graph,
    Polynomial,
    build_graph,
    chromatic_polynomial,
    complete_bipartite_graph,
    complete_graph,
    connected_graphs_up_to,
    cycle_graph,
    edge_chromatic_polynomial,
    evaluate_polynomial,
    four_color_check,
    is_proper_edge_coloring,
    line_graph,
    lll_condition,
    nullstellensatz_value,
    path_graph,
    petersen_graph,
    star_graph,
)

from oracles import count_proper_edge_colorings, count_proper_vertex_colorings


def graph_strategy(max_n=6):
    def build(n, mask):
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        return build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])

    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(build, st.just(n),
                            st.integers(0, 2 ** (n * (n - 1) // 2) - 1)))


# -------------------------------------------------------------- polynomial


def test_polynomial_basics():
    p = Polynomial((0, 2, -3, 1))
    assert p.degree == 3
    assert p(0) == 0 and p(1) == 0 and p(3) == 6
    assert p.to_text() == "0,2,-3,1"
    assert Polynomial.from_text("0,2,-3,1") == p
    assert Polynomial((1, 0, 0)).coeffs == (1,)  # trailing zeros trimmed
    assert Polynomial((0, 0)).coeffs == (0,)
    assert evaluate_polynomial(p, 3) == 6
    with pytest.raises(ValueError):
        Polynomial.from_text("1,a")
    with pytest.raises(TypeError):  # not truncated to (0, 1)
        Polynomial((0.5, 1))


# --------------------------------------------------------------- chromatic


def test_chromatic_known_values():
    assert chromatic_polynomial(complete_graph(3)).coeffs == (0, 2, -3, 1)
    # path on 4 vertices: k (k-1)^3
    assert chromatic_polynomial(path_graph(4)).coeffs == (0, -1, 3, -3, 1)
    # 4-cycle: (k-1)^4 + (k-1)
    assert chromatic_polynomial(cycle_graph(4)).coeffs == (0, -3, 6, -4, 1)
    assert chromatic_polynomial(build_graph(1, [])).coeffs == (0, 1)
    assert chromatic_polynomial(build_graph(3, [])).coeffs == (0, 0, 0, 1)
    # disconnected graphs multiply componentwise: two disjoint edges
    two = build_graph(4, [(0, 1), (2, 3)])
    f = chromatic_polynomial(two)
    assert f(3) == 36  # (3*2)^2
    assert chromatic_polynomial(complete_graph(5))(4) == 0
    assert chromatic_polynomial(complete_graph(5))(5) == 120
    assert chromatic_polynomial(Graph(0)).coeffs == (1,)


def _assert_pinned(g):
    # n + 1 values fix a polynomial of degree n, so this pins all of it
    f = chromatic_polynomial(g)
    assert f.degree == g.n
    for t in range(g.n + 1):
        assert f(t) == count_proper_vertex_colorings(g.n, list(g.edges), t)


def test_chromatic_matches_enumeration_small():
    for g in (path_graph(4), cycle_graph(5), complete_graph(4),
              star_graph(3), build_graph(5, [(0, 1), (0, 2), (1, 2), (2, 3),
                                             (3, 4), (2, 4)]),
              *connected_graphs_up_to(5)):
        _assert_pinned(g)


@settings(max_examples=150, deadline=None)
@given(graph_strategy(5))
def test_chromatic_pinned_on_any_graph(g):
    # random labeled graphs: disconnected ones and isolated vertices included
    _assert_pinned(g)


@st.composite
def dense_relabeled(draw, max_n=7):
    """A graph with fewer nonedges than edges (deletion-contraction takes the
    dense branch) and the same graph under a random vertex relabeling."""
    n = draw(st.integers(3, max_n))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    missing = draw(st.sets(st.sampled_from(pairs),
                           max_size=(len(pairs) - 1) // 2))
    edges = [p for p in pairs if p not in missing]
    perm = draw(st.permutations(range(n)))
    return (build_graph(n, edges),
            build_graph(n, [(perm[a], perm[b]) for a, b in edges]))


@st.composite
def chordal_relabeled(draw, max_n=12):
    """A random chordal graph under a random vertex relabeling, and its clique
    sizes: vertex i joins a clique C_i of earlier vertices, a subset of
    C_j + {j} for some j < i (C_0 and any other C_i may be empty)."""
    n = draw(st.integers(1, max_n))
    cliques = [()]
    for i in range(1, n):
        j = draw(st.integers(0, i - 1))
        base = cliques[j] + (j,)
        keep = draw(st.integers(0, 2 ** len(base) - 1))
        cliques.append(tuple(w for b, w in enumerate(base) if keep >> b & 1))
    perm = draw(st.permutations(range(n)))
    graph = build_graph(n, [(perm[i], perm[w])
                            for i, clique in enumerate(cliques) for w in clique])
    return graph, [len(clique) for clique in cliques]


@settings(max_examples=150, deadline=None)
@given(chordal_relabeled())
def test_chordal_chromatic_is_product_over_its_elimination_order(pair):
    # each vertex, colored after its clique C_i, has k - |C_i| choices
    g, sizes = pair
    f = chromatic_polynomial(g)
    assert f.degree == g.n
    for t in range(g.n + 1):
        assert f(t) == math.prod(t - d for d in sizes)


@settings(max_examples=100, deadline=None)
@given(dense_relabeled())
def test_chromatic_invariant_under_relabeling(pair):
    # a memo key that confused two labeled subproblems would make the
    # answer depend on the labeling
    g, h = pair
    assert chromatic_polynomial(g) == chromatic_polynomial(h)


def test_edge_chromatic_is_line_graph_chromatic():
    for g in (path_graph(4), cycle_graph(4), complete_graph(4)):
        assert edge_chromatic_polynomial(g) == chromatic_polynomial(line_graph(g))
    # proper edge 5-colorings of the 5-clique, a classic count
    assert edge_chromatic_polynomial(complete_graph(5))(5) == 720
    # every connected graph up to order 5; line graphs reach 10 vertices
    for g in connected_graphs_up_to(5):
        f = edge_chromatic_polynomial(g)
        for t in range(4):
            assert f(t) == count_proper_edge_colorings(g.n, list(g.edges), t)
    # the line graph of the 6-clique has 15 vertices: the dense branch
    assert edge_chromatic_polynomial(complete_graph(6))(5) == 720
    # proper n-edge-colorings of K_{n,n} are the Latin squares of order n
    assert edge_chromatic_polynomial(complete_bipartite_graph(3, 3))(3) == 12
    assert edge_chromatic_polynomial(complete_bipartite_graph(4, 4))(4) == 576
    # Petersen's chromatic index is 4 (class 2)
    f = edge_chromatic_polynomial(petersen_graph())
    assert f(3) == 0 and f(4) > 0


def test_four_color_check():
    assert four_color_check(complete_graph(4))
    assert four_color_check(petersen_graph())
    assert not four_color_check(complete_graph(5))


# ------------------------------------------------------------------- local


def test_is_proper_edge_coloring():
    g = path_graph(3)
    assert is_proper_edge_coloring(g, EdgeColoring((0, 1), 2))
    assert not is_proper_edge_coloring(g, EdgeColoring((0, 0), 1))
    k3 = complete_graph(3)
    assert is_proper_edge_coloring(k3, EdgeColoring((0, 1, 2), 3))
    assert not is_proper_edge_coloring(k3, EdgeColoring((0, 1, 1), 2))
    with pytest.raises(ValueError):
        is_proper_edge_coloring(g, EdgeColoring((0,), 1))


def test_lll_condition():
    assert lll_condition(0.05, 5)
    assert not lll_condition(0.07, 5)
    assert lll_condition(1.0 / (math.e * 6), 5)
    assert lll_condition(0.0, 100)
    assert not lll_condition(1.0, 0)
    with pytest.raises(ValueError):
        lll_condition(-0.1, 3)
    with pytest.raises(ValueError):
        lll_condition(1.1, 3)
    with pytest.raises(ValueError):
        lll_condition(0.5, -1)


def test_nullstellensatz_value():
    k3 = complete_graph(3)
    assert nullstellensatz_value(k3, (0, 1, 2)) == -2
    assert nullstellensatz_value(k3, (0, 1, 1)) == 0
    # one vertex of degree >= 2: product over its incident pairs
    assert nullstellensatz_value(path_graph(3), (2, 5)) == -3
    assert nullstellensatz_value(path_graph(2), (7,)) == 1  # empty product
    with pytest.raises(ValueError):
        nullstellensatz_value(k3, (0, 1))


def test_nullstellensatz_iff_proper_small():
    from itertools import product as iproduct

    for g in (path_graph(4), cycle_graph(4), star_graph(3)):
        for vals in iproduct((0, 1, 2), repeat=g.m):
            nz = nullstellensatz_value(g, vals) != 0
            proper = is_proper_edge_coloring(g, EdgeColoring(vals, 3))
            assert nz == proper
