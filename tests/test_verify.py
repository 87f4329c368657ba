import json
import random
import time
from itertools import combinations

import pytest

from chromaconn import (
    Certificate,
    EdgeColoring,
    PairWitness,
    Pattern,
    bounds,
    build_graph,
    certificate_from_dict,
    certificate_to_dict,
    complete_graph,
    connected_graphs_up_to,
    connection_number,
    count_colorings,
    cycle_graph,
    disconnection_number,
    is_pattern_connected,
    is_pattern_disconnected,
    is_pattern_k_connected,
    is_proper_rainbow_connected,
    path_graph,
    restricted_growth_strings,
    star_graph,
    verify_certificate,
)
from chromaconn.coloring import PathSearch
from chromaconn.graph import simple_paths as simple_paths_walk
from chromaconn.solve import _connection_checks
from chromaconn.verify import (CUT_PATTERNS, PROPER_RAINBOW, DisconnCheck,
                               _check_k_connected)

from oracles import (
    _disjoint,
    cut_satisfies,
    minimal_separating_sets,
    seq_satisfies,
    simple_paths,
    u_side,
)

# ------------------------------------------------------------ serialization


def test_certificate_dict_round_trip():
    cert = is_pattern_connected(cycle_graph(4), EdgeColoring((0, 0, 0, 1), 2),
                                Pattern.RAINBOW)
    data = certificate_to_dict(cert)
    assert list(data) == ["kind", "pattern", "pairs"]
    again = certificate_from_dict(json.loads(json.dumps(data)))
    assert again == cert


def test_certificate_dict_k_fields():
    cert = is_pattern_k_connected(cycle_graph(4), EdgeColoring((0, 1, 2, 3), 4),
                                  Pattern.RAINBOW, 2, "edge")
    data = certificate_to_dict(cert)
    assert list(data) == ["kind", "pattern", "k", "mode", "pairs"]
    assert data["k"] == 2 and data["mode"] == "edge"
    assert certificate_from_dict(data) == cert


def test_certificate_from_dict_rejects_garbage():
    good = certificate_to_dict(
        is_pattern_connected(path_graph(3), EdgeColoring((0, 1), 2),
                             Pattern.RAINBOW))
    for mutate in (
        lambda d: d.pop("kind"),
        lambda d: d.update(kind="magic"),
        lambda d: d.update(pattern="sparkly"),
        lambda d: d.update(pairs=3),
        lambda d: d["pairs"].append({"u": 0}),
        lambda d: d["pairs"][0].update(paths="nope"),
        # a pair with both witness forms was parsed as its side alone
        lambda d: d["pairs"][0].update(side=[0]),
        lambda d: d.update(k="two"),
        lambda d: d.update(mode="diagonal"),
    ):
        data = json.loads(json.dumps(good))
        mutate(data)
        with pytest.raises(ValueError):
            certificate_from_dict(data)


# ----------------------------------------------------------- property checks


def test_connected_check_agrees_with_enumeration():
    rng = random.Random(7)
    for g in connected_graphs_up_to(4):
        if g.m == 0 or g.n < 2:
            continue
        for _ in range(4):
            colors = tuple(rng.randrange(2) for _ in range(g.m))
            ec = EdgeColoring(colors, 2)
            for pattern in Pattern:
                want = all(
                    any(seq_satisfies([colors[e] for e in p], pattern.value)
                        for p in simple_paths(g.n, list(g.edges), u, v))
                    for u in range(g.n) for v in range(u + 1, g.n))
                cert = is_pattern_connected(g, ec, pattern)
                assert (cert is not None) == want
                if cert is not None:
                    assert verify_certificate(g, ec, cert)


def test_disconnected_check_agrees_with_enumeration():
    rng = random.Random(13)
    for g in connected_graphs_up_to(4):
        if g.m == 0 or g.n < 2:
            continue
        minsets = {
            (u, v): minimal_separating_sets(g.n, list(g.edges), u, v)
            for u in range(g.n) for v in range(u + 1, g.n)}
        for _ in range(4):
            colors = tuple(rng.randrange(3) for _ in range(g.m))
            ec = EdgeColoring(colors, 3)
            for pattern in (Pattern.RAINBOW, Pattern.PROPER,
                            Pattern.MONOCHROMATIC):
                want = all(
                    any(cut_satisfies(list(g.edges), c, colors, pattern.value)
                        for c in cuts)
                    for cuts in minsets.values())
                cert = is_pattern_disconnected(g, ec, pattern)
                assert (cert is not None) == want
                if cert is not None:
                    assert verify_certificate(g, ec, cert)


def test_k_connected_check():
    g = cycle_graph(4)
    rainbow = EdgeColoring((0, 1, 2, 3), 4)
    cert = is_pattern_k_connected(g, rainbow, Pattern.RAINBOW, 2)
    assert cert is not None and cert.k == 2 and cert.mode == "edge"
    for w in cert.pairs:
        assert len(w.paths) == 2
    assert verify_certificate(g, rainbow, cert)
    assert is_pattern_k_connected(g, EdgeColoring((0, 1, 0, 1), 2),
                                  Pattern.RAINBOW, 2) is None
    with pytest.raises(ValueError):
        is_pattern_k_connected(path_graph(3), EdgeColoring((0, 1), 2),
                               Pattern.RAINBOW, 2)
    vcert = is_pattern_k_connected(complete_graph(4),
                                   EdgeColoring(tuple(range(6)), 6),
                                   Pattern.RAINBOW, 3, "vertex")
    assert vcert is not None and vcert.mode == "vertex"
    assert verify_certificate(complete_graph(4),
                              EdgeColoring(tuple(range(6)), 6), vcert)


@pytest.mark.parametrize("mode", ("edge", "vertex"))
def test_k2_table_accepts_exactly_the_k_connected_colorings(mode):
    """Folding the k = 2 table's extend over a whole coloring accepts it
    exactly when KConnCheck finds two disjoint pattern paths per pair, on
    every canonical coloring of the 2-connected graphs of order <= 5 with at
    most seven edges.  K3 is among them: a one-edge path must not count as
    its own vertex-disjoint partner."""
    graphs = []
    for g in connected_graphs_up_to(5):
        if g.n < 3 or g.m > 7:
            continue
        try:
            _check_k_connected(g, 2, mode)
        except ValueError:
            continue
        graphs.append(g)
    assert complete_graph(3).edges in [g.edges for g in graphs]
    for g in graphs:
        for pattern in Pattern:
            tester, checker = _connection_checks(g, pattern, 2, mode)
            for colors in restricted_growth_strings(g.m, g.m):
                assert (checker._live(colors) is not None) == \
                    tester.connected(colors, pattern), (g.edges, colors)


def test_k_and_mode_checked_in_one_order():
    # the certifier and the solver check k before mode, with one message
    g = cycle_graph(4)
    with pytest.raises(ValueError, match="k must be >= 1"):
        is_pattern_k_connected(g, EdgeColoring((0, 1, 2, 3), 4),
                               Pattern.RAINBOW, 0, "x")
    with pytest.raises(ValueError, match="k must be >= 1"):
        connection_number(g, Pattern.RAINBOW, k=0, mode="x")
    with pytest.raises(ValueError, match="unknown mode 'x'"):
        is_pattern_k_connected(g, EdgeColoring((0, 1, 2, 3), 4),
                               Pattern.RAINBOW, 2, "x")


def test_conflict_free_has_no_disconnection():
    with pytest.raises(ValueError, match="conflict_free has no disconnection"):
        is_pattern_disconnected(path_graph(3), EdgeColoring((0, 1), 2),
                                Pattern.CONFLICT_FREE)
    with pytest.raises(ValueError, match="conflict_free has no disconnection"):
        disconnection_number(path_graph(3), Pattern.CONFLICT_FREE)
    with pytest.raises(ValueError, match="conflict_free has no disconnection"):
        count_colorings(path_graph(3), Pattern.CONFLICT_FREE, 2,
                        prop="disconnected")
    # the table takes the conflict-free rule only with explicit families
    with pytest.raises(ValueError, match="conflict_free has no cut form"):
        DisconnCheck(path_graph(3), Pattern.CONFLICT_FREE)


_K4_COLORING = EdgeColoring((0, 0, 1, 1, 0, 0), 2)


@pytest.mark.parametrize("call, proper", [
    (lambda p: count_colorings(cycle_graph(5), p, 3), 150),
    (lambda p: count_colorings(cycle_graph(5), p, 3, prop="disconnected"),
     243),
    (lambda p: is_pattern_k_connected(complete_graph(4), _K4_COLORING, p, 2)
     is not None, True),
    (lambda p: is_pattern_disconnected(complete_graph(4), _K4_COLORING, p)
     is not None, True),
    (lambda p: connection_number(cycle_graph(5), p).value, 2),
    (lambda p: disconnection_number(cycle_graph(5), p).value, 1),
    (lambda p: bounds(cycle_graph(5), p).upper, 5),
], ids=["count", "count-disconnected", "k-connected", "disconnected",
        "connection", "disconnection", "bounds"])
def test_a_pattern_name_is_refused_not_read_as_rainbow(call, proper):
    """Every rule test falls through to the rainbow rule, so a name such as
    "proper" would count C5's 90 rainbow 3-colorings, not its 150 proper
    ones: each entry point refuses a pattern that is not a Pattern."""
    assert call(Pattern.PROPER) == proper
    for name in ("proper", None):
        with pytest.raises(ValueError, match="pattern must be a Pattern"):
            call(name)


def test_cut_tables_list_exactly_each_pairs_bonds():
    """Per pair, on the census up to order 5, the cut table lists the
    oracle's minimal separating edge sets in (size, edges) order, each with
    u's component once it is removed as its side."""
    for g in connected_graphs_up_to(5):
        want = [[(tuple(sorted(s)), u_side(g.n, g.edges, s, u))
                 for s in minimal_separating_sets(g.n, g.edges, u, v)]
                for u in range(g.n) for v in range(u + 1, g.n)]
        for pattern in CUT_PATTERNS:
            assert DisconnCheck(g, pattern).families == want, (g, pattern)


def test_cut_tables_require_a_connected_graph():
    # a pair in different components would get an empty family, which
    # extend, looking only when a member dies, would never notice
    g = build_graph(4, [(0, 1), (2, 3)])
    for pattern in CUT_PATTERNS:
        with pytest.raises(ValueError, match="connected"):
            DisconnCheck(g, pattern)


def test_simple_paths_lists_every_path_in_search_order():
    """The one path walker gives each pair's simple paths on the census up
    to order 6: those of the oracle, sorted by vertex tuple, as a depth
    first walk with ascending neighbours yields them."""
    for g in connected_graphs_up_to(6):
        for u in range(g.n):
            for v in range(u + 1, g.n):
                want = sorted(
                    (_vertices_of(g, u, es), es)
                    for es in simple_paths(g.n, g.edges, u, v))
                assert simple_paths_walk(g.adjacency(), u, v) == want


def _fitting(g, colors, pattern, u, v):
    """The oracle's simple u-v paths that fit the pattern, as (vertices,
    edges), sorted by vertex tuple."""
    return sorted((_vertices_of(g, u, es), es)
                  for es in simple_paths(g.n, g.edges, u, v)
                  if seq_satisfies([colors[e] for e in es], pattern))


def _witness_colorings(g, rng):
    return ([tuple(rng.randrange(3) for _ in range(g.m)) for _ in range(5)]
            + [tuple(range(g.m)), (0,) * g.m])


def _witness_map(witnesses):
    return None if witnesses is None else {(w.u, w.v): w.paths
                                           for w in witnesses}


def test_path_witnesses_are_the_first_fitting_oracle_paths():
    """On the census up to order 5, under every pattern and a few random
    colorings, find gives each pair the first fitting oracle path in
    vertex-tuple order, the walker's order, and the k = 1 table's
    witnesses give each nonadjacent pair that path and each adjacent pair
    its own edge, which fits every pattern.  The proper-rainbow table,
    whose stars follow the paths, does the same under all-distinct
    colors."""
    rng = random.Random(16)
    for g in connected_graphs_up_to(5):
        pairs = list(combinations(range(g.n), 2))
        search = PathSearch(g)
        for pattern in Pattern:
            tester, table = _connection_checks(g, pattern)
            for colors in _witness_colorings(g, rng):
                want = {}
                for u, v in pairs:
                    fit = _fitting(g, colors, pattern.value, u, v)
                    first = fit[0][0] if fit else None
                    got = search.find(colors, u, v, pattern)
                    assert (got.vertices if got else None) == first
                    if g.has_edge(u, v):
                        first = (u, v)
                    want[u, v] = (first,) if first else None
                if None in want.values():
                    want = None
                assert _witness_map(tester.witnesses(colors, table)) == want
                cert = is_pattern_connected(
                    g, EdgeColoring(colors, max(colors, default=0) + 1),
                    pattern)
                assert _witness_map(cert and cert.pairs) == want
        tester, table = _connection_checks(g, PROPER_RAINBOW)
        colors = tuple(range(g.m))
        want = {(u, v): ((u, v) if g.has_edge(u, v) else
                         _fitting(g, colors, "rainbow", u, v)[0][0],)
                for u, v in pairs}
        assert _witness_map(tester.witnesses(colors, table)) == want
        cert = is_proper_rainbow_connected(g, EdgeColoring(colors, g.m))
        assert _witness_map(cert.pairs) == want


def test_one_shot_verifier_walks_each_pair_once():
    """is_pattern_connected stops at each pair's first fitting path: a 4x5
    grid under all-distinct colors, whose pairs have up to thousands of
    simple paths, certifies in well under a second."""
    grid = build_graph(20, [(r * 5 + c, r * 5 + c + 1)
                            for r in range(4) for c in range(4)]
                       + [(r * 5 + c, r * 5 + c + 5)
                          for r in range(3) for c in range(5)])
    coloring = EdgeColoring(tuple(range(grid.m)), grid.m)
    start = time.perf_counter()
    cert = is_proper_rainbow_connected(grid, coloring)
    assert time.perf_counter() - start < 1.0
    assert verify_certificate(grid, coloring, cert)


@pytest.mark.parametrize("mode", ("edge", "vertex"))
def test_k2_witnesses_are_the_first_disjoint_fitting_oracle_paths(mode):
    """On the census up to order 5, under every pattern and a few random
    colorings, the k = 2 table's witnesses give each pair the least index
    pair of disjoint fitting oracle paths in (length, vertices) order."""
    rng = random.Random(17)
    for g in connected_graphs_up_to(5):
        if g.n < 2:
            continue
        try:
            _check_k_connected(g, 2, mode)
        except ValueError:
            continue
        for pattern in Pattern:
            tester, table = _connection_checks(g, pattern, 2, mode)
            for colors in _witness_colorings(g, rng):
                want = {}
                for u, v in combinations(range(g.n), 2):
                    fit = sorted(_fitting(g, colors, pattern.value, u, v),
                                 key=lambda p: (len(p[1]), p[0]))
                    want[u, v] = next(
                        (tuple(vs for vs, _ in two)
                         for two in combinations(fit, 2)
                         if _disjoint(g.edges, [es for _, es in two], mode)),
                        None)
                if None in want.values():
                    want = None
                assert _witness_map(tester.witnesses(colors, table)) == want


def test_proper_rainbow_check():
    k3 = complete_graph(3)
    cert = is_proper_rainbow_connected(k3, EdgeColoring((0, 1, 2), 3))
    assert cert is not None and cert.pattern == "proper_rainbow"
    assert verify_certificate(k3, EdgeColoring((0, 1, 2), 3), cert)
    # improper coloring fails even though it rainbow-connects
    assert is_proper_rainbow_connected(k3, EdgeColoring((0, 0, 1), 2)) is None
    p3 = path_graph(3)
    assert is_proper_rainbow_connected(p3, EdgeColoring((0, 1), 2)) is not None
    assert is_proper_rainbow_connected(p3, EdgeColoring((0, 0), 1)) is None


def test_star_disconnection_sides():
    g = star_graph(4)  # leaves 0..3, center 4
    ec = EdgeColoring((0, 0, 0, 0), 1)
    cert = is_pattern_disconnected(g, ec, Pattern.RAINBOW)
    assert cert is not None
    for w in cert.pairs:
        assert w.side is not None and w.u in w.side and w.v not in w.side
    assert verify_certificate(g, ec, cert)


# -------------------------------------------------------- verifier rejects


def _rainbow_cert():
    g = cycle_graph(4)
    ec = EdgeColoring((0, 0, 0, 1), 2)
    return g, ec, is_pattern_connected(g, ec, Pattern.RAINBOW)


def test_verify_rejects_structural_damage():
    g, ec, cert = _rainbow_cert()
    assert verify_certificate(g, ec, cert)
    # dropped pair
    assert not verify_certificate(
        g, ec, Certificate(cert.kind, cert.pattern, cert.pairs[1:]))
    # duplicated pair
    assert not verify_certificate(
        g, ec, Certificate(cert.kind, cert.pattern,
                           cert.pairs + (cert.pairs[0],)))
    # vertex off the graph
    w = cert.pairs[0]
    broken = PairWitness(w.u, w.v, (w.paths[0] + (99,),), None)
    assert not verify_certificate(
        g, ec, Certificate(cert.kind, cert.pattern,
                           (broken,) + cert.pairs[1:]))
    # endpoint mismatch
    broken = PairWitness(w.u, w.v, ((w.u,),), None)
    assert not verify_certificate(
        g, ec, Certificate(cert.kind, cert.pattern,
                           (broken,) + cert.pairs[1:]))
    # wrong kind for the witness shape
    assert not verify_certificate(
        g, ec, Certificate("disconnection", "rainbow", cert.pairs))
    # unknown pattern name, for either witness shape
    for kind in ("connection", "disconnection"):
        assert not verify_certificate(
            g, ec, Certificate(kind, "sparkly", cert.pairs))
    # coloring length mismatch
    assert not verify_certificate(g, EdgeColoring((0, 1), 2), cert)


def test_verify_rejects_pattern_violations():
    g = cycle_graph(4)
    ec = EdgeColoring((0, 0, 0, 0), 1)
    # hand-built "rainbow" certificate over a constant coloring
    pairs = []
    for u in range(4):
        for v in range(u + 1, 4):
            paths = simple_paths(4, list(g.edges), u, v)
            vs = _vertices_of(g, u, paths[0])
            pairs.append(PairWitness(u, v, (vs,), None))
    cert = Certificate("connection", "rainbow", tuple(pairs))
    assert not verify_certificate(g, ec, cert)
    # same witnesses pass under the monochromatic pattern
    cert2 = Certificate("connection", "monochromatic", tuple(pairs))
    assert verify_certificate(g, ec, cert2)


def _vertices_of(g, start, edge_ids):
    vs = [start]
    for e in edge_ids:
        a, b = g.edges[e]
        vs.append(b if vs[-1] == a else a)
    return tuple(vs)


def test_verify_rejects_disjointness_lies():
    g = cycle_graph(4)
    ec = EdgeColoring((0, 1, 2, 3), 4)
    cert = is_pattern_k_connected(g, ec, Pattern.RAINBOW, 2)
    w = cert.pairs[0]
    # claim the same path twice
    fake = PairWitness(w.u, w.v, (w.paths[0], w.paths[0]), None)
    assert not verify_certificate(
        g, ec, Certificate("k_connection", "rainbow",
                           (fake,) + cert.pairs[1:], k=2, mode="edge"))
    # claim only one path where k=2 are required
    fake = PairWitness(w.u, w.v, (w.paths[0],), None)
    assert not verify_certificate(
        g, ec, Certificate("k_connection", "rainbow",
                           (fake,) + cert.pairs[1:], k=2, mode="edge"))


def test_verify_rejects_bad_sides():
    g = path_graph(3)
    ec = EdgeColoring((0, 1), 2)
    cert = is_pattern_disconnected(g, ec, Pattern.RAINBOW)
    assert verify_certificate(g, ec, cert)
    w = cert.pairs[0]
    # side containing both endpoints separates nothing
    fake = PairWitness(w.u, w.v, None, tuple(sorted(set(w.side) | {w.v})))
    assert not verify_certificate(
        g, ec, Certificate("disconnection", "rainbow",
                           (fake,) + cert.pairs[1:]))


def test_verify_handles_malformed_without_raising():
    g, ec, cert = _rainbow_cert()
    assert not verify_certificate(g, ec, "not a certificate")
    assert not verify_certificate(g, ec, None)
    assert not verify_certificate(
        g, ec, Certificate("connection", "rainbow", ("junk",)))


def _swap_zero(vertices):
    return tuple(False if x == 0 else x for x in vertices)


def test_verify_rejects_booleans_as_integers():
    # certificate_from_dict rejects JSON booleans; so must the Python API,
    # though False == 0 and True == 1
    g = cycle_graph(4)
    r = connection_number(g, Pattern.RAINBOW)
    ec, cert = r.optimal_coloring, r.certificate
    assert verify_certificate(
        g, ec, Certificate("k_connection", "rainbow", cert.pairs, k=1,
                           mode="edge"))
    assert not verify_certificate(
        g, ec, Certificate("k_connection", "rainbow", cert.pairs, k=True,
                           mode="edge"))
    w = cert.pairs[0]
    assert w.u == 0 and w.paths[0][0] == 0
    for fake in (PairWitness(False, w.v, w.paths),
                 PairWitness(w.u, w.v, (_swap_zero(w.paths[0]),))):
        assert not verify_certificate(
            g, ec, Certificate(cert.kind, cert.pattern,
                               (fake,) + cert.pairs[1:]))
    r = disconnection_number(g, Pattern.RAINBOW)
    ec, cert = r.optimal_coloring, r.certificate
    w = cert.pairs[0]
    assert 0 in w.side
    fake = PairWitness(w.u, w.v, None, _swap_zero(w.side))
    assert not verify_certificate(
        g, ec, Certificate(cert.kind, cert.pattern, (fake,) + cert.pairs[1:]))


@pytest.mark.parametrize("name", ["_valid_path", "_cut_ok"])
def test_verify_internal_error_propagates(monkeypatch, name):
    import chromaconn.verify as verify

    def broken(*args, **kwargs):
        raise RuntimeError("verifier bug")

    g, ec, cert = _rainbow_cert()
    if name == "_cut_ok":
        cert = is_pattern_disconnected(g, ec, Pattern.RAINBOW)
    assert verify_certificate(g, ec, cert)
    monkeypatch.setattr(verify, name, broken)
    with pytest.raises(RuntimeError, match="verifier bug"):
        verify_certificate(g, ec, cert)
