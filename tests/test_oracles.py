"""Self-checks for the reference implementations: the literal and quotient
routes must agree wherever the literal route is affordable, and the helpers
must reproduce hand-checked values."""

import pytest

from oracles import (
    bipartition_min_cut,
    count_proper_vertex_colorings,
    cut_satisfies,
    is_two_edge_connected,
    is_two_vertex_connected,
    literal_connection_number,
    literal_disconnection_number,
    minimal_separating_sets,
    oracle_connection_number,
    oracle_disconnection_number,
    oracle_k_connection_number,
    seq_satisfies,
    set_partitions,
    simple_paths,
)

from chromaconn import (Pattern, build_graph, connected_graphs_up_to,
                        connection_number)

P3 = (3, [(0, 1), (1, 2)])
C4 = (4, [(0, 1), (0, 3), (1, 2), (2, 3)])
K4 = (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])

CONNECTION_PATTERNS = ("rainbow", "proper", "monochromatic", "conflict_free")
CUT_PATTERNS = ("rainbow", "proper", "monochromatic")


def corpus(max_n):
    return [(g.n, list(g.edges)) for g in connected_graphs_up_to(max_n)]


@pytest.mark.parametrize("pattern", CONNECTION_PATTERNS)
def test_connection_routes_agree(pattern):
    for n, edges in corpus(4):
        assert oracle_connection_number(n, edges, pattern) == \
            literal_connection_number(n, edges, pattern), (n, edges)


@pytest.mark.parametrize("pattern", CUT_PATTERNS)
def test_disconnection_routes_agree(pattern):
    for n, edges in corpus(4):
        assert oracle_disconnection_number(n, edges, pattern) == \
            literal_disconnection_number(n, edges, pattern), (n, edges)


@pytest.mark.parametrize("mode", ("edge", "vertex"))
def test_k_connection_matches_oracle(mode):
    """connection_number at k = 2 against the oracle's own path enumeration
    and disjointness test, on the 2-connected graphs of order <= 5 with at
    most eight edges (and the one-vertex graph, value 0)."""
    two_connected = (is_two_edge_connected if mode == "edge"
                     else is_two_vertex_connected)
    checked = 0
    for n, edges in corpus(5):
        if len(edges) > 8:
            continue
        graph = build_graph(n, edges)
        if n > 1 and not two_connected(n, edges):
            with pytest.raises(ValueError, match="not 2-"):
                connection_number(graph, Pattern.RAINBOW, k=2, mode=mode)
            continue
        for pattern in CONNECTION_PATTERNS:
            have = connection_number(graph, Pattern.from_name(pattern), k=2,
                                     mode=mode).value
            assert have == oracle_k_connection_number(
                n, edges, pattern, 2, mode), (n, edges, pattern)
        checked += 1
    assert checked == (14 if mode == "edge" else 13)


def test_seq_satisfies_cases():
    assert seq_satisfies([], "rainbow")
    assert seq_satisfies([5], "monochromatic")
    assert seq_satisfies([0, 1, 2], "rainbow")
    assert not seq_satisfies([0, 1, 0], "rainbow")
    assert seq_satisfies([0, 1, 0], "proper")
    assert not seq_satisfies([0, 0, 1], "proper")
    assert seq_satisfies([2, 2, 2], "monochromatic")
    assert not seq_satisfies([2, 2, 1], "monochromatic")
    assert seq_satisfies([0, 1, 0], "conflict_free")
    assert not seq_satisfies([0, 1, 0, 1], "conflict_free")


def test_cut_satisfies_cases():
    n, edges = C4
    all_edges = [0, 1, 2, 3]
    assert cut_satisfies(edges, all_edges, [0, 1, 2, 3], "rainbow")
    assert not cut_satisfies(edges, all_edges, [0, 1, 2, 0], "rainbow")
    assert cut_satisfies(edges, all_edges, [7, 7, 7, 7], "monochromatic")
    assert not cut_satisfies(edges, all_edges, [7, 7, 7, 8], "monochromatic")
    # edges 0=(0,1) and 1=(0,3) share vertex 0: equal colors break properness
    assert not cut_satisfies(edges, [0, 1], [5, 5, 0, 0], "proper")
    # edges 0=(0,1) and 3=(2,3) are disjoint: equal colors are fine
    assert cut_satisfies(edges, [0, 3], [5, 0, 0, 5], "proper")


def test_minimal_separating_sets_path():
    n, edges = P3
    sets = minimal_separating_sets(n, edges, 0, 2)
    assert sorted(map(sorted, sets)) == [[0], [1]]


def test_minimal_separating_sets_cycle():
    n, edges = C4
    sets = minimal_separating_sets(n, edges, 0, 2)
    # opposite pairs of edges: each side's star and the two mixed pairs
    assert sorted(map(sorted, sets)) == [[0, 1], [0, 3], [1, 2], [2, 3]]


def test_bipartition_min_cut_values():
    assert bipartition_min_cut(*P3, 0, 2) == 1
    assert bipartition_min_cut(*C4, 0, 2) == 2
    assert bipartition_min_cut(*K4, 0, 1) == 3


def test_two_edge_connected():
    assert not is_two_edge_connected(*P3)
    assert is_two_edge_connected(*C4)
    assert is_two_edge_connected(*K4)
    assert not is_two_edge_connected(2, [(0, 1)])
    assert not is_two_edge_connected(1, [])
    assert not is_two_edge_connected(4, [(0, 1), (2, 3)])


def test_simple_paths_counts():
    assert len(simple_paths(*C4, 0, 2)) == 2
    assert len(simple_paths(*K4, 0, 1)) == 5
    # edge ids along the two C4 routes
    assert sorted(simple_paths(*C4, 0, 2)) == [(0, 2), (1, 3)]


def test_set_partition_counts():
    bell = [1, 1, 2, 5, 15, 52, 203]
    for m, b in enumerate(bell):
        assert sum(1 for _ in set_partitions(list(range(m)))) == b


def test_count_proper_vertex_colorings():
    assert count_proper_vertex_colorings(3, [(0, 1), (0, 2), (1, 2)], 3) == 6
    assert count_proper_vertex_colorings(3, [(0, 1), (1, 2)], 2) == 2
    assert count_proper_vertex_colorings(2, [(0, 1)], 4) == 12


def test_oracle_hand_values():
    assert oracle_connection_number(*P3, "rainbow") == 2
    assert oracle_connection_number(*P3, "monochromatic") == 1
    assert oracle_connection_number(*K4, "rainbow") == 1
    assert oracle_connection_number(*K4, "monochromatic") == 6
    assert oracle_disconnection_number(*P3, "rainbow") == 1
    assert oracle_disconnection_number(*P3, "monochromatic") == 2
    assert oracle_disconnection_number(*C4, "rainbow") == 2
    assert oracle_disconnection_number(*K4, "rainbow") == 3
