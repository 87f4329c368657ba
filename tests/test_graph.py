import hashlib
import random
import time
from itertools import combinations

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
    _blocks,
    ear_bound,
    min_cover,
    tree_cover,
    GRAPH6_HEADER,
    bfs_distances,
    canonical_form,
    neighbour_masks,
    uv_bipartitions,
)
from chromaconn import graph as graph_module
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


def test_tree_cover_is_a_cheapest_cover():
    """tree_cover's family is a cover of its stated cost, and no family of
    connected sets of at least three vertices covering every nonadjacent
    pair costs less: brute force over families of cost at most n - 2 on
    the <= 5 census, connectivity from networkx."""
    for g in connected_graphs_up_to(5):
        c, family = tree_cover(g)
        ng = nx.Graph()
        ng.add_nodes_from(range(g.n))
        ng.add_edges_from(g.edges)
        apart = [p for p in combinations(range(g.n), 2) if not g.has_edge(*p)]
        sets = [s for size in range(3, g.n + 1)
                for s in combinations(range(g.n), size)
                if nx.is_connected(ng.subgraph(s))]

        def covers(fam):
            return all(any(u in s and v in s for s in fam) for u, v in apart)

        assert set(family) <= set(sets) and covers(family), g
        assert c == sum(len(s) - 2 for s in family) <= max(0, g.n - 2), g
        cheapest = min(sum(len(s) - 2 for s in fam)
                       for size in range(max(1, g.n - 1))
                       for fam in combinations(sets, size) if covers(fam))
        assert c == cheapest, g


def test_min_cover_with_multiplicities():
    """On K4, with the triangles at cost 1 and the whole vertex set at
    cost 2, and no lower bound: one cover of every pair costs 2 (the
    vertex set), two cost 4 (the vertex set twice, or all four triangles,
    which hold each pair twice), and nothing at or above best is
    returned."""
    n = 4
    pairs = {(u, v): 1 << (u * n + v) for u, v in combinations(range(n), 2)}
    blocks = sorted((len(s) - 2, sum(1 << w for w in s),
                     sum(pairs[p] for p in combinations(s, 2)))
                    for size in (3, 4) for s in combinations(range(n), size))
    every = sum(pairs.values())

    def nothing(need):
        return 0

    def blocks_with(pair, cap):
        return [b for b in blocks if b[2] & pair]

    assert min_cover((every,), 5, nothing, blocks_with)[0] == 2
    cost, family = min_cover((every, every), 5, nothing, blocks_with)
    assert cost == 4 == sum(b[0] for b in family)
    assert all(sum(b[2] & bit > 0 for b in family) >= 2
               for bit in pairs.values())
    assert min_cover((every, every), 4, nothing, blocks_with) is None


def _hub(n, rim):
    """Vertex 0 joined to 1..n-1, plus the edges rim."""
    return build_graph(n, [(0, w) for w in range(1, n)] + list(rim))


def test_tree_cover_grows_only_what_the_bound_leaves_open(monkeypatch):
    """A star, and a star with one edge between leaves, reach the lower
    bound n - 2 at the root (a leaf misses n - 2 vertices), so no
    connected set is grown; a wheel and a friendship graph on 25 vertices,
    whose connected sets through the hub number in the millions, stop
    within the allowance, at a c between the root's lower bound and the
    cost of the family returned."""
    grown = []
    real = graph_module._sets_through
    monkeypatch.setattr(graph_module, "_sets_through",
                        lambda *args: grown.append(args) or real(*args))
    for g in (star_graph(24), _hub(25, [(1, 2)])):
        assert tree_cover(g) == (23, (tuple(range(25)),))
    assert grown == []
    for g in (_hub(25, [(w, w % 24 + 1) for w in range(1, 25)]),
              _hub(25, [(w, w + 1) for w in range(1, 25, 2)])):
        start = time.perf_counter()
        c, family = tree_cover(g)
        assert time.perf_counter() - start < 5
        least = min(g.degree(w) for w in range(g.n))
        assert 24 - least <= c <= sum(len(s) - 2 for s in family) <= 23


def test_tree_cover_gives_up_at_the_root_bound(monkeypatch):
    """With no allowance left, tree_cover returns the root's lower bound,
    the most uncovered pairs at one vertex, and the cover {V}: never more
    than the cheapest cover, on the <= 6 census."""
    exact = {g: tree_cover(g)[0] for g in connected_graphs_up_to(6)}
    monkeypatch.setattr(graph_module, "COVER_WORK", 0)
    for g, c in exact.items():
        missing = max((g.n - 1 - g.degree(w) for w in range(g.n)), default=0)
        if c:
            assert tree_cover(g) == (missing, (tuple(range(g.n)),)), g
        assert missing <= c, g


# ------------------------------------------------------------ local moves


def test_line_graph_shapes():
    assert line_graph(path_graph(3)) == build_graph(2, [(0, 1)])
    assert line_graph(complete_graph(3)) == complete_graph(3)
    lk4 = line_graph(complete_graph(4))
    assert lk4.n == 6 and lk4.m == 12
    assert all(lk4.degree(v) == 4 for v in range(6))


def test_canonical_form_identifies_isomorphs():
    a = neighbour_masks(build_graph(4, [(0, 1), (1, 2), (2, 3)]))
    b = neighbour_masks(build_graph(4, [(0, 2), (1, 3), (2, 3)]))  # relabeled
    assert canonical_form(a) == canonical_form(b)
    assert canonical_form(a) != canonical_form(neighbour_masks(star_graph(3)))


def test_canonical_form_matches_oracle():
    rng = random.Random(10)
    for g in connected_graphs_up_to(6):
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = build_graph(g.n, [(perm[a], perm[b]) for a, b in g.edges])
            assert canonical_form(neighbour_masks(h)) == \
                canonical_key(h.n, h.edges)
    # whole degree classes tie at every position; the last is the 3-cube
    cube = build_graph(8, [(v, v | b) for v in range(8) for b in (1, 2, 4)
                           if not v & b])
    for g in (complete_graph(7), cycle_graph(7), complete_bipartite_graph(3, 4),
              cube):
        assert canonical_form(neighbour_masks(g)) == \
            canonical_key(g.n, g.edges)
    assert canonical_form(()) == (0, 0)


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


def test_blocks_match_networkx():
    """The block split gives networkx's biconnected components, bridges
    included, on every graph of the <= 6 census with an edge."""
    for g in connected_graphs_up_to(6):
        if not g.m:
            continue
        nxg = nx.Graph(list(g.edges))
        want = sorted(sum(1 << w for w in c)
                      for c in nx.biconnected_components(nxg))
        assert sorted(_blocks(neighbour_masks(g))) == want, g


def test_ear_bound_sums_its_blocks():
    """Two triangles and a bridge between them count 1 + 1 + 1; a
    disconnected graph is refused."""
    bowtie = build_graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5),
                             (4, 5)])
    assert ear_bound(bowtie) == 3
    with pytest.raises(ValueError):
        ear_bound(build_graph(4, [(0, 1), (2, 3)]))


def test_census_pinned():
    text = "".join(write_graph6(g) + "\n" for g in connected_graphs_up_to(7))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "59e37a3d7f4f3112abd1fccac8b59b26893a476ef1df8df368bcba6f6b4b7331"


def _unpruned_census(max_n):
    """The census keying every candidate: each level-(k-1) representative
    plus a new vertex with every nonempty neighbourhood."""
    yield Graph(1)
    level = [(0,)]
    for k in range(2, max_n + 1):
        bit = 1 << (k - 1)
        nxt = {}
        for adj in level:
            for nb_mask in range(1, bit):
                h = tuple(x | bit if nb_mask >> w & 1 else x
                          for w, x in enumerate(adj)) + (nb_mask,)
                nxt.setdefault(canonical_form(h), h)
        level = nxt.values()
        for key in sorted(nxt):
            yield graph_module._graph_from_mask(*key)


def test_census_equals_the_unpruned_census():
    pruned = list(connected_graphs_up_to(7))
    assert pruned == list(_unpruned_census(7))
    counts = [sum(g.n == n for g in pruned) for n in range(1, 8)]
    assert counts == [1, 1, 2, 6, 21, 112, 853]


def test_census_keys_only_the_candidates_the_rules_keep(monkeypatch):
    calls = []
    keyed = graph_module.canonical_form
    monkeypatch.setattr(graph_module, "canonical_form",
                        lambda adj: calls.append(adj) or keyed(adj))
    assert sum(1 for _ in connected_graphs_up_to(7)) == 996
    assert len(calls) == 1800


def test_census_is_isomorphism_free():
    seen = set()
    for g in connected_graphs_up_to(5):
        key = canonical_form(neighbour_masks(g))
        assert key not in seen
        seen.add(key)


def test_to_dot():
    out = to_dot(path_graph(3))
    assert out.startswith("graph")
    assert "0 -- 1" in out and "1 -- 2" in out
