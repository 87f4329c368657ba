"""End-to-end acceptance checks.

Each test here covers one headline guarantee of the package and prints a
single ``ACCEPTANCE <name>: PASS/FAIL`` line.  Expected values come from the
independent reference implementations in oracles.py (which import nothing
from the package), from closed-form values for named graph families, and
from byte-level comparison of repeated command-line runs.

The exhaustive recoloring oracle is used literally (all t^m labeled
colorings) for every minimizing objective, where the optimum is small.  For
the maximizing monochromatic objective the literal scan is hopeless on dense
graphs (m^m colorings), so those checks use the partition quotient route
from oracles.py instead; the two routes are proved against each other on
every graph where both are affordable in test_oracles.py.
"""

import json
import random
from functools import cache
from itertools import combinations, product

import chromaconn as cc
from oracles import (
    bipartition_min_cut,
    count_proper_vertex_colorings,
    is_two_edge_connected,
    literal_connection_number,
    literal_disconnection_number,
    oracle_connection_number,
    oracle_disconnection_number,
)


def _report(name, ok, detail):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _census(max_n):
    return list(cc.connected_graphs_up_to(max_n))


# ------------------------------------------------------------------ 1


def test_connection_numbers_match_brute_force():
    """Solver connection numbers equal brute-force recoloring search on
    every connected graph with at most five vertices, for all four
    patterns."""
    graphs = _census(5)
    assert len(graphs) == 31
    mismatches = []
    checks = 0
    for g in graphs:
        for pattern in cc.Pattern:
            if pattern is cc.Pattern.MONOCHROMATIC:
                expected = oracle_connection_number(g.n, g.edges, pattern.value)
            else:
                expected = literal_connection_number(g.n, g.edges, pattern.value)
            got = cc.connection_number(g, pattern).value
            checks += 1
            if got != expected:
                mismatches.append((cc.write_graph6(g), pattern.value, got, expected))
    _report(
        "connection numbers vs brute force",
        not mismatches,
        f"{checks} graph/pattern checks, {len(mismatches)} mismatches",
    )


# ------------------------------------------------------------------ 2


def test_disconnection_numbers_match_brute_force():
    """Solver disconnection numbers equal brute-force cut search on the
    same corpus for the three cut patterns."""
    graphs = _census(5)
    mismatches = []
    checks = 0
    for g in graphs:
        for pattern in (cc.Pattern.RAINBOW, cc.Pattern.PROPER,
                        cc.Pattern.MONOCHROMATIC):
            if pattern is cc.Pattern.MONOCHROMATIC:
                expected = oracle_disconnection_number(g.n, g.edges, pattern.value)
            else:
                expected = literal_disconnection_number(g.n, g.edges, pattern.value)
            got = cc.disconnection_number(g, pattern).value
            checks += 1
            if got != expected:
                mismatches.append((cc.write_graph6(g), pattern.value, got, expected))
    _report(
        "disconnection numbers vs brute force",
        not mismatches,
        f"{checks} graph/pattern checks, {len(mismatches)} mismatches",
    )


# ------------------------------------------------------------------ 3


def test_disjoint_paths_match_min_cuts():
    """Maximum edge-disjoint path count equals minimum bipartition cut size
    for every vertex pair of every connected graph with at most six
    vertices."""
    mismatches = []
    pairs = 0
    for g in _census(6):
        for u in range(g.n):
            for v in range(u + 1, g.n):
                have, _ = cc.max_disjoint_paths(g, u, v, "edge")
                want = bipartition_min_cut(g.n, g.edges, u, v)
                pairs += 1
                if have != want:
                    mismatches.append((cc.write_graph6(g), u, v, have, want))
    _report(
        "edge-disjoint paths vs minimum cuts",
        pairs == 1933 and not mismatches,
        f"{pairs} pairs, {len(mismatches)} mismatches",
    )


# ------------------------------------------------------------------ 4


def _key(g):
    return cc.graph.canonical_form(cc.graph.neighbour_masks(g))


@cache
def _census_values(max_n):
    """(graph, its eight column values) for every connected graph with at
    most max_n vertices, keyed by canonical form."""
    P = cc.Pattern
    out = {}
    for g in _census(max_n):
        values = {name: cc.connection_number(g, p).value for name, p in (
            ("rc", P.RAINBOW), ("pc", P.PROPER), ("mc", P.MONOCHROMATIC),
            ("cfc", P.CONFLICT_FREE))}
        values.update((name, cc.disconnection_number(g, p).value)
                      for name, p in (("rd", P.RAINBOW), ("pd", P.PROPER),
                                      ("md", P.MONOCHROMATIC)))
        values["prc"] = cc.proper_rainbow_connection_number(g).value
        out[_key(g)] = (g, values)
    return out


def test_bounds_hold_across_census():
    """Ordering and counting bounds hold on every connected graph with at
    most six vertices: proper and conflict-free never exceed rainbow,
    rainbow never exceeds proper rainbow (a rainbow path is proper and
    conflict-free), proper disconnection never exceeds rainbow disconnection
    (a rainbow cut is proper), rainbow sits between diameter and edge
    count, monochromatic is at least m - n + 2 and at most m, with equality
    exactly on complete graphs (else a nonadjacent pair's monochromatic
    path repeats a color), and adding a disjointness requirement never
    lowers the rainbow value on graphs that support it."""
    violations = []
    checked = 0
    two_edge_connected = 0
    for g, val in _census_values(6).values():
        rc, pc, cfc, mc = val["rc"], val["pc"], val["cfc"], val["mc"]
        name = cc.write_graph6(g)
        if g.n >= 2:
            if not pc <= rc:
                violations.append((name, "proper <= rainbow", pc, rc))
            if not cfc <= rc:
                violations.append((name, "conflict-free <= rainbow", cfc, rc))
            if not rc <= val["prc"]:
                violations.append((name, "rainbow <= proper rainbow", rc,
                                   val["prc"]))
            if not val["pd"] <= val["rd"]:
                violations.append((name, "proper <= rainbow disconnection",
                                   val["pd"], val["rd"]))
            if not cc.diameter(g) <= rc <= g.m:
                violations.append((name, "diameter <= rainbow <= m", rc))
            if not mc >= g.m - g.n + 2:
                violations.append((name, "monochromatic >= m-n+2", mc))
            complete = 2 * g.m == g.n * (g.n - 1)
            if not mc <= g.m - (not complete):
                violations.append((name, "monochromatic <= m, < m unless "
                                   "complete", mc))
        if is_two_edge_connected(g.n, g.edges):
            two_edge_connected += 1
            rc2 = cc.connection_number(g, cc.Pattern.RAINBOW, k=2).value
            if not rc <= rc2:
                violations.append((name, "rainbow <= two-disjoint rainbow", rc, rc2))
        checked += 1
    _report(
        "value bounds across the census",
        checked == 143 and two_edge_connected > 0 and not violations,
        f"{checked} graphs ({two_edge_connected} two-edge-connected), "
        f"{len(violations)} violations",
    )


def test_columns_move_as_proven_when_an_edge_is_added():
    """For every connected graph G with at most six vertices and every
    nonedge e, looked up as G + e in the census:
    - rc, pc and cfc do not grow: give e a color already used, and every
      fitting path survives;
    - mc(G + e) >= mc(G) + 1: give e a new color;
    - rd and pd do not shrink, and md(G) >= md(G + e) - 1: restrict a
      coloring of G + e to G, where C - e is a u-v cut whenever C is one
      of G + e, and a subset of a rainbow or proper cut is one too; the
      restriction uses t or t - 1 colors."""
    census = _census_values(6)
    violations = []
    pairs = 0
    for g, val in census.values():
        present = set(g.edges)
        for e in combinations(range(g.n), 2):
            if e in present:
                continue
            plus = census[_key(cc.build_graph(g.n, g.edges + (e,)))][1]
            pairs += 1
            for relation, ok in (
                    ("rc does not grow", plus["rc"] <= val["rc"]),
                    ("pc does not grow", plus["pc"] <= val["pc"]),
                    ("cfc does not grow", plus["cfc"] <= val["cfc"]),
                    ("mc grows", plus["mc"] >= val["mc"] + 1),
                    ("rd does not shrink", val["rd"] <= plus["rd"]),
                    ("pd does not shrink", val["pd"] <= plus["pd"]),
                    ("md shrinks by at most one",
                     val["md"] >= plus["md"] - 1)):
                if not ok:
                    violations.append((cc.write_graph6(g), e, relation))
    _report(
        "column relations under edge addition",
        pairs == 821 and not violations,
        f"{pairs} (G, G + e) pairs, {len(violations)} violations",
    )


# ------------------------------------------------------------------ 5


def test_known_graph_family_values():
    """Closed-form values for named families come out exactly."""
    failures = []

    def expect(label, got, want):
        if got != want:
            failures.append((label, got, want))

    for n in range(2, 7):
        expect(f"rainbow K_{n}",
               cc.connection_number(cc.complete_graph(n), cc.Pattern.RAINBOW).value, 1)
        expect(f"rainbow P_{n}",
               cc.connection_number(cc.path_graph(n), cc.Pattern.RAINBOW).value, n - 1)
    c4 = cc.cycle_graph(4)
    expect("rainbow C_4", cc.connection_number(c4, cc.Pattern.RAINBOW).value, 2)
    expect("two-disjoint rainbow C_4",
           cc.connection_number(c4, cc.Pattern.RAINBOW, k=2).value, 4)
    expect("monochromatic K_3",
           cc.connection_number(cc.complete_graph(3), cc.Pattern.MONOCHROMATIC).value, 3)
    expect("monochromatic P_3",
           cc.connection_number(cc.path_graph(3), cc.Pattern.MONOCHROMATIC).value, 1)
    trees = [cc.path_graph(2), cc.path_graph(3), cc.path_graph(5),
             cc.star_graph(4),
             cc.build_graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])]
    for tree in trees:
        label = cc.write_graph6(tree)
        expect(f"monochromatic disconnection of tree {label}",
               cc.disconnection_number(tree, cc.Pattern.MONOCHROMATIC).value, tree.m)
        expect(f"rainbow disconnection of tree {label}",
               cc.disconnection_number(tree, cc.Pattern.RAINBOW).value, 1)
    expect("proper-rainbow K_3",
           cc.proper_rainbow_connection_number(cc.complete_graph(3)).value, 3)
    _report(
        "named family values",
        not failures,
        f"{len(failures)} wrong values" + (f": {failures}" if failures else ""),
    )


# ------------------------------------------------------------------ 6


def test_counting_baselines_agree():
    """Deletion-contraction counting matches direct enumeration, the product
    certificate is nonzero exactly on proper edge colorings, and every
    planar graph in the census admits a proper 4-coloring."""
    import networkx as nx

    violations = []
    poly_checks = 0
    for g in _census(6):
        poly = cc.chromatic_polynomial(g)
        for t in range(5):
            want = count_proper_vertex_colorings(g.n, g.edges, t)
            poly_checks += 1
            if poly(t) != want:
                violations.append(("vertex counting", cc.write_graph6(g), t))

    product_checks = 0
    for g in _census(5):
        for assign in product(range(3), repeat=g.m):
            value = cc.nullstellensatz_value(g, assign)
            proper = cc.is_proper_edge_coloring(g, cc.EdgeColoring(assign, 3))
            product_checks += 1
            if (value != 0) != proper:
                violations.append(("product certificate", cc.write_graph6(g), assign))

    planar_checks = 0
    for g in _census(6):
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges)
        if nx.check_planarity(nxg)[0]:
            planar_checks += 1
            if cc.chromatic_polynomial(g)(4) <= 0:
                violations.append(("planar 4-coloring", cc.write_graph6(g)))

    _report(
        "counting baselines",
        poly_checks == 143 * 5 and product_checks > 100_000
        and planar_checks > 100 and not violations,
        f"{poly_checks} polynomial evaluations, {product_checks} product "
        f"evaluations, {planar_checks} planar graphs, "
        f"{len(violations)} violations",
    )


# ------------------------------------------------------------------ 7


def _solver_results():
    """A spread of solver runs covering every certificate shape."""
    out = []
    for g in _census(4):
        for pattern in cc.Pattern:
            out.append((g, cc.connection_number(g, pattern)))
        for pattern in (cc.Pattern.RAINBOW, cc.Pattern.PROPER,
                        cc.Pattern.MONOCHROMATIC):
            out.append((g, cc.disconnection_number(g, pattern)))
        out.append((g, cc.proper_rainbow_connection_number(g)))
        if is_two_edge_connected(g.n, g.edges):
            out.append((g, cc.connection_number(g, cc.Pattern.RAINBOW, k=2)))
            out.append((g, cc.connection_number(g, cc.Pattern.PROPER, k=2,
                                                mode="vertex")))
    for g in [h for h in _census(5) if h.n == 5][:8]:
        out.append((g, cc.connection_number(g, cc.Pattern.RAINBOW)))
        out.append((g, cc.connection_number(g, cc.Pattern.PROPER)))
        out.append((g, cc.disconnection_number(g, cc.Pattern.RAINBOW)))
    return out


def _drop_pair(d, rng):
    d["pairs"].pop(rng.randrange(len(d["pairs"])))
    return d


def _vertex_out_of_range(d, rng):
    d["pairs"][rng.randrange(len(d["pairs"]))]["u"] = 99
    return d


def _swap_endpoints(d, rng):
    p = d["pairs"][rng.randrange(len(d["pairs"]))]
    p["u"], p["v"] = p["v"], p["u"]
    return d


def _merge_endpoints(d, rng):
    p = d["pairs"][rng.randrange(len(d["pairs"]))]
    p["v"] = p["u"]
    return d


def _flip_kind(d, rng):
    d["kind"] = "disconnection" if d["kind"] != "disconnection" else "connection"
    return d


def _truncate_path(d, rng):
    pairs = [p for p in d["pairs"] if p.get("paths")]
    if not pairs:
        return None
    p = pairs[rng.randrange(len(pairs))]
    p["paths"][0] = p["paths"][0][:1]
    return d


def _drop_path(d, rng):
    pairs = [p for p in d["pairs"] if p.get("paths")]
    if not pairs:
        return None
    p = pairs[rng.randrange(len(pairs))]
    p["paths"].pop()
    return d


def _side_gains_far_end(d, rng):
    pairs = [p for p in d["pairs"] if "side" in p]
    if not pairs:
        return None
    p = pairs[rng.randrange(len(pairs))]
    p["side"] = sorted(set(p["side"]) | {p["v"]})
    return d


_MUTATIONS = [_drop_pair, _vertex_out_of_range, _swap_endpoints,
              _merge_endpoints, _flip_kind, _truncate_path, _drop_path,
              _side_gains_far_end]


def test_certificates_verify_and_corruptions_fail():
    """Every solver certificate passes independent verification, and a
    thousand corrupted variants of those certificates all fail it."""
    results = _solver_results()
    bad_genuine = sum(
        1 for g, res in results
        if not cc.verify_certificate(g, res.optimal_coloring, res.certificate)
    )

    base = [(g, res.optimal_coloring, cc.certificate_to_dict(res.certificate))
            for g, res in results if res.certificate.pairs]
    rng = random.Random(99173)
    produced = 0
    rejected = 0
    i = 0
    while produced < 1000:
        g, coloring, cert_dict = base[i % len(base)]
        i += 1
        mutate = rng.choice(_MUTATIONS)
        mutant = mutate(json.loads(json.dumps(cert_dict)), rng)
        if mutant is None:
            continue
        produced += 1
        try:
            cert = cc.certificate_from_dict(mutant)
        except (ValueError, TypeError, KeyError):
            rejected += 1
            continue
        if not cc.verify_certificate(g, coloring, cert):
            rejected += 1
    _report(
        "certificate round trip",
        bad_genuine == 0 and rejected == 1000,
        f"{len(results)} genuine certificates ({bad_genuine} failed), "
        f"{rejected}/1000 corrupted certificates rejected",
    )


# ------------------------------------------------------------------ 8


def test_table_runs_are_deterministic(run_cli):
    """Two invariant-table runs over the full five-vertex census produce
    byte-identical output, in both output formats."""
    corpus = run_cli(["generate", "--all-connected", "5"])
    assert corpus.returncode == 0
    differing = []
    for fmt in ("json", "text"):
        first = run_cli(["table", "--format", fmt], stdin=corpus.stdout)
        second = run_cli(["table", "--format", fmt], stdin=corpus.stdout)
        if not (first.returncode == second.returncode == 0):
            differing.append((fmt, "nonzero exit"))
        elif first.stdout.encode() != second.stdout.encode():
            differing.append((fmt, "output differs"))
    _report(
        "deterministic tables",
        not differing,
        f"2 formats x 2 runs over 31 graphs, {len(differing)} discrepancies",
    )
