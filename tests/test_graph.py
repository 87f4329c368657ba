import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

import networkx as nx

from chromaconn import (
    Graph,
    Path,
    build_graph,
    complete_bipartite_graph,
    complete_graph,
    connected_graphs_up_to,
    crossing_cut,
    cycle_graph,
    diameter,
    generate,
    is_connected,
    line_graph,
    max_disjoint_paths,
    parse_graph6,
    path_graph,
    petersen_graph,
    star_graph,
    to_dot,
    write_graph6,
)
from chromaconn.graph import (
    GRAPH6_HEADER,
    bfs_distances,
    canonical_form,
    uv_bipartitions,
)
from oracles import canonical_key


def graph_strategy(max_n=7):
    def build(n, mask):
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        return build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])

    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(build, st.just(n),
                            st.integers(0, 2 ** (n * (n - 1) // 2) - 1)))


# ------------------------------------------------------------ construction


def test_build_graph_normalizes_order():
    g = build_graph(3, [(2, 1), (1, 0)])
    assert g.edges == ((0, 1), (1, 2))
    assert g.m == 2
    assert g.edge_index(2, 1) == 1
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)
    assert g.degree(1) == 2


def test_build_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        build_graph(3, [(0, 1), (1, 0)])  # duplicate after normalizing
    with pytest.raises(ValueError):
        build_graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        build_graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(3, ((1, 2), (0, 1)))  # direct construction demands sorted edges


def test_path_from_vertices():
    g = cycle_graph(4)
    p = Path.from_vertices(g, (0, 1, 2))
    assert p.vertices == (0, 1, 2)
    assert p.edges == (g.edge_index(0, 1), g.edge_index(1, 2))
    assert p.length == 2
    with pytest.raises(ValueError):
        Path.from_vertices(g, (0, 2))  # not an edge
    with pytest.raises(ValueError):
        Path.from_vertices(g, (0, 1, 0))  # repeated vertex


# ------------------------------------------------------------------ graph6


def test_graph6_known_encodings():
    # standard-format example: 'D?{' is the 5-vertex star centered at 4
    assert parse_graph6("D?{") == star_graph(4)
    assert write_graph6(star_graph(4)) == "D?{"
    assert write_graph6(build_graph(1, [])) == "@"
    assert write_graph6(build_graph(0, [])) == "?"


def test_graph6_header_and_errors():
    assert parse_graph6(GRAPH6_HEADER + "D?{") == star_graph(4)
    for bad in ("", "D?", "D?{{", "D?\x1f", "~~????", "D?z"):
        with pytest.raises(ValueError):
            parse_graph6(bad)


def test_graph6_large_size_tier():
    g = build_graph(100, [(0, 99), (3, 7)])
    s = write_graph6(g)
    assert s.startswith("~")
    assert parse_graph6(s) == g


def test_graph6_round_trip_corpus():
    for g in connected_graphs_up_to(5):
        assert parse_graph6(write_graph6(g)) == g


def test_graph6_against_networkx():
    for g in connected_graphs_up_to(5):
        h = nx.from_graph6_bytes(write_graph6(g).encode())
        assert set(h.nodes) == set(range(g.n))
        assert {tuple(sorted(e)) for e in h.edges} == set(g.edges)


@settings(max_examples=200, deadline=None)
@given(graph_strategy())
def test_graph6_round_trip_random(g):
    assert parse_graph6(write_graph6(g)) == g


# ------------------------------------------------------------ connectivity


def test_bfs_and_diameter():
    g = path_graph(4)
    assert bfs_distances(g, 0) == [0, 1, 2, 3]
    assert bfs_distances(build_graph(4, [(0, 1), (2, 3)]), 0) == [0, 1, -1, -1]
    assert diameter(g) == 3
    assert diameter(complete_graph(5)) == 1
    assert is_connected(build_graph(1, []))
    assert not is_connected(build_graph(3, [(0, 1)]))
    with pytest.raises(ValueError):
        diameter(build_graph(2, []))


def _check_disjoint_paths(g, u, v, mode, expected):
    count, paths = max_disjoint_paths(g, u, v, mode)
    assert count == expected
    assert len(paths) == count
    used_edges = []
    used_internal = []
    for p in paths:
        assert p.vertices[0] == u and p.vertices[-1] == v
        assert len(set(p.vertices)) == len(p.vertices)
        for a, b in zip(p.vertices, p.vertices[1:]):
            assert g.has_edge(a, b)
        used_edges.extend(p.edges)
        used_internal.extend(p.vertices[1:-1])
    if mode == "edge":
        assert len(set(used_edges)) == len(used_edges)
    else:
        assert len(set(used_internal)) == len(used_internal)


def test_max_disjoint_paths_values():
    _check_disjoint_paths(cycle_graph(4), 0, 2, "edge", 2)
    _check_disjoint_paths(cycle_graph(4), 0, 2, "vertex", 2)
    _check_disjoint_paths(complete_graph(4), 0, 1, "edge", 3)
    _check_disjoint_paths(complete_graph(4), 0, 1, "vertex", 3)
    _check_disjoint_paths(path_graph(5), 0, 4, "edge", 1)
    _check_disjoint_paths(petersen_graph(), 0, 7, "edge", 3)
    _check_disjoint_paths(petersen_graph(), 0, 7, "vertex", 3)
    with pytest.raises(ValueError):
        max_disjoint_paths(cycle_graph(4), 0, 0, "edge")
    with pytest.raises(ValueError):
        max_disjoint_paths(cycle_graph(4), 0, 2, "both")


def test_crossing_cut_and_bipartitions():
    g = cycle_graph(4)
    cut = crossing_cut(g, {0})
    assert cut == {g.edge_index(0, 1), g.edge_index(0, 3)}
    with pytest.raises(ValueError):
        crossing_cut(g, set())
    with pytest.raises(ValueError):
        crossing_cut(g, {0, 1, 2, 3})
    sides = list(uv_bipartitions(g, 0, 2))
    assert len(sides) == 4  # 2^(n-2)
    for side, cut_edges in sides:
        assert 0 in side and 2 not in side
        for e in cut_edges:
            a, b = g.edges[e]
            assert (a in side) != (b in side)


# ------------------------------------------------------------ local moves


def test_line_graph_shapes():
    assert line_graph(path_graph(3)) == build_graph(2, [(0, 1)])
    assert line_graph(complete_graph(3)) == complete_graph(3)
    lk4 = line_graph(complete_graph(4))
    assert lk4.n == 6 and lk4.m == 12
    assert all(lk4.degree(v) == 4 for v in range(6))


def test_canonical_form_identifies_isomorphs():
    a = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    b = build_graph(4, [(0, 2), (1, 3), (2, 3)])  # relabeled path
    assert canonical_form(a) == canonical_form(b)
    assert canonical_form(a) != canonical_form(star_graph(3))


def test_canonical_form_matches_oracle():
    rng = random.Random(10)
    for g in connected_graphs_up_to(6):
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = build_graph(g.n, [(perm[a], perm[b]) for a, b in g.edges])
            assert canonical_form(h) == canonical_key(h.n, h.edges)
    # whole degree classes tie at every position; the last is the 3-cube
    cube = build_graph(8, [(v, v | b) for v in range(8) for b in (1, 2, 4)
                           if not v & b])
    for g in (complete_graph(7), cycle_graph(7), complete_bipartite_graph(3, 4),
              cube):
        assert canonical_form(g) == canonical_key(g.n, g.edges)


# -------------------------------------------------------------- generators


def test_family_shapes():
    assert path_graph(1).m == 0
    assert path_graph(4).edges == ((0, 1), (1, 2), (2, 3))
    assert cycle_graph(3) == complete_graph(3)
    with pytest.raises(ValueError):
        cycle_graph(2)
    assert complete_graph(5).m == 10
    assert complete_bipartite_graph(2, 3).m == 6
    assert star_graph(4) == complete_bipartite_graph(4, 1)
    p = petersen_graph()
    assert (p.n, p.m) == (10, 15)
    assert all(p.degree(v) == 3 for v in range(10))
    assert diameter(p) == 2


def test_generate_dispatch():
    assert generate("cycle", (5,)) == cycle_graph(5)
    assert generate("complete_bipartite", (2, 2)) == complete_bipartite_graph(2, 2)
    assert generate("petersen", ()) == petersen_graph()
    with pytest.raises(ValueError):
        generate("moebius", (5,))
    with pytest.raises(ValueError):
        generate("cycle", ())


def test_connected_census():
    counts = {}
    for g in connected_graphs_up_to(6):
        counts[g.n] = counts.get(g.n, 0) + 1
        assert is_connected(g)
    assert counts == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
    with pytest.raises(ValueError):
        list(connected_graphs_up_to(9))


def test_census_pinned():
    text = "".join(write_graph6(g) + "\n" for g in connected_graphs_up_to(7))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "59e37a3d7f4f3112abd1fccac8b59b26893a476ef1df8df368bcba6f6b4b7331"


def test_census_is_isomorphism_free():
    seen = set()
    for g in connected_graphs_up_to(5):
        key = canonical_form(g)
        assert key not in seen
        seen.add(key)


def test_to_dot():
    out = to_dot(path_graph(3))
    assert out.startswith("graph")
    assert "0 -- 1" in out and "1 -- 2" in out
