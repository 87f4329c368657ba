"""Self-tests of the benchmark (not of the package).

Run from the repository root:

    python3 -m pytest -q perfbench/test_bench.py

They use short slices of each workload, so they take seconds, not minutes.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    COLUMNS,
    ROOT,
    cell_call,
    answer_of,
    load_package,
    load_reference,
)
from build_reference import (  # noqa: E402
    disconnection_by_cut_search,
    proper_rainbow_by_proper_search,
)
from run import END_TO_END, _unit  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Instance,
    build_inputs,
    check_answers,
    layer_metrics,
    pass_summary,
    relabel,
    run_info,
    run_pass,
)

cc = load_package()
REF = load_reference()


def _slice(workload, seed, keep):
    return [inst for inst in build_inputs(cc, REF, workload, seed)
            if keep(inst)]


def _small_slices(seed):
    """A few instances of every workload, covering every cell kind."""
    table = _slice("table6", seed,
                   lambda i: i.graph.n in (4, 6) and i.graph.m <= 7)[:4]
    connect = _slice("connect7", seed, lambda i: i.graph.m <= 7)[:2] + \
        _slice("connect7", seed, lambda i: ".k2." in i.keys[0])[:1]
    count = _slice("count", seed, lambda i: i.graph.n <= 4)[:3]
    # five vertices, six edges: deletion-contraction reaches the memo
    g6 = min(k for k, e in REF["graphs"].items() if (e["n"], e["m"]) == (5, 6))
    poly = Instance(len(table + connect + count) + 1000, g6,
                    cc.parse_graph6(g6), ("chromatic", "edge_chromatic"),
                    None)
    return table + connect + count + [poly]


def test_reference_census_size():
    sizes = {int(k): v for k, v in REF["census_sizes"].items()}
    assert sizes == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
    assert sum(sizes.values()) == 996 == len(REF["graphs"])


def test_reference_knows_every_table_value():
    for entry in REF["graphs"].values():
        if entry["n"] <= 6:
            assert all(isinstance(entry["values"][col], int)
                       for col in COLUMNS)


def test_fallback_searches_match_the_solvers():
    graphs = REF["graphs"]
    for g6 in ("C~", "D~{", "E~]?"):
        graph = cc.parse_graph6(g6)
        for col in ("rd", "pd", "md"):
            assert disconnection_by_cut_search(graph, col) == \
                graphs[g6]["values"][col], (g6, col)
        assert proper_rainbow_by_proper_search(cc, graph) == \
            graphs[g6]["values"]["prc"], g6


def test_relabeling_keeps_reference_values():
    import random

    rng = random.Random(7)
    graphs = REF["graphs"]
    picks = [min(g6 for g6 in graphs if (graphs[g6]["n"], graphs[g6]["m"])
                 == size) for size in ((3, 3), (4, 4), (5, 6), (6, 7))]
    for g6 in picks:
        entry = graphs[g6]
        graph = relabel(cc, cc.parse_graph6(g6), rng)
        for key in ("rc", "pc", "md", "prc", "chromatic", "edge_chromatic"):
            got = answer_of(cell_call(cc, graph, key, 100_000)())
            assert got == entry["values"][key], (g6, key)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_picks_inputs(workload):
    def edges(seed):
        return [(i.g6, i.graph.edges, i.keys)
                for i in build_inputs(cc, REF, workload, seed)]

    assert edges(1) == edges(1)
    assert edges(1) != edges(2)


def test_run_info_records_provenance():
    info = run_info("count", 5)
    assert info["seed"] == 5
    assert info["python"].count(".") == 2
    assert info["nproc"] >= 1
    assert len(info["src_sha256"]) == 64
    assert "commit" in info
    if os.path.isdir(os.path.join(ROOT, ".git")):
        assert len(info["commit"]) == 40


def test_mismatch_and_bad_certificate_are_reported():
    instances = _slice("table6", 3, lambda i: i.graph.n == 4)[:2]
    _, answers = run_pass(cc, instances, NullTracer())
    assert check_answers(REF, instances, answers) == []
    key = (instances[0].idx, "rc")
    value, nodes, exhausted, ok = answers[key]
    answers[key] = (value + 1, nodes, exhausted, ok)
    assert len(check_answers(REF, instances, answers)) == 1
    answers[key] = (value, nodes, exhausted, False)
    assert "certificate rejected" in check_answers(REF, instances,
                                                   answers)[0]


def _traced(instances, census=False):
    tracer = Tracer()
    tracer.install(cc)
    try:
        _, answers = run_pass(cc, instances, tracer, census)
    finally:
        tracer.uninstall()
        tracer.finish()
    _, _, counts = pass_summary(instances, answers)
    return answers, layer_metrics(tracer, counts, 0.0), tracer


def _exact(metrics):
    return {k: v for k, v in metrics.items() if _unit(k) != "s"}


def test_traced_and_untraced_agree_and_counts_repeat():
    instances = _small_slices(11)
    _, plain = run_pass(cc, instances, NullTracer())
    traced, metrics, tracer = _traced(instances)
    assert traced == plain
    assert check_answers(REF, instances, traced) == []
    again, metrics2, _ = _traced(instances)
    assert again == plain
    assert _exact(metrics) == _exact(metrics2)
    # every layer boundary was crossed, and the patches came off again
    for key in ("coloring.find_calls", "coloring.all_paths_calls",
                "verify.conn_tests", "verify.kconn_tests",
                "verify.disconn_tests", "verify.certificate_calls",
                "local.proper_checks", "local.chromatic_calls",
                "graph.canonical_form_calls", "graph.disjoint_paths_calls",
                "coloring.enum_yielded", "solve.count_nodes"):
        assert metrics[key] > 0, key
    assert cc.solve.restricted_growth_strings is \
        cc.coloring.restricted_growth_strings
    assert cc.verify.uv_bipartitions is cc.graph.uv_bipartitions
    # spans nest: every parent id names an earlier span or the root
    ids = {0}
    for span in tracer.spans:
        assert span.parent in ids
        assert span.self_s >= 0
        ids.add(span.id)


def test_budget_exhaustion_is_recorded_per_column():
    instances = _slice("table6", 1, lambda i: i.g6 == "E~~w")
    _, answers = run_pass(cc, instances, NullTracer())
    cells, exhausted, counts = pass_summary(instances, answers)
    assert cells == len(COLUMNS)
    assert counts["solve.exhausted.md"] == 1
    assert counts["solve.nodes.md"] == instances[0].budget
    assert check_answers(REF, instances, answers) == []


def test_benchmark_json_declares_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"] for m in bench["end_to_end"]} == set(END_TO_END)
    for m in bench["end_to_end"]:
        assert m["unit"] == END_TO_END[m["name"]]
    _, metrics, _ = _traced(_small_slices(2)[:2])
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert set(declared) == set(metrics)
    for name, unit in declared.items():
        assert unit == _unit(name), name
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
