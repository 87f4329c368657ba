#!/usr/bin/env python3
"""One benchmark workload in one process: seeded inputs, timed passes, checks.

``run.py`` starts this file once per workload, and a few more times with
``--setup-only`` to sample set-up time.  The process:

1. imports the package from ``src/``, loads ``reference.json`` and builds the
   workload's instance list from the seed (sample and vertex relabeling);
2. runs passes over the whole instance list for up to ``--seconds``, at
   least one; a pass solves every cell and re-checks every certificate
   with ``verify_certificate``, as ``compute | verify`` does, and samples
   the calibration loop between instances (``calibration.py``), which
   scales the pass's times;
3. compares every answer with the reference, untimed, and requires every
   pass to give the same answers and node counts;
4. with ``--trace 1``, runs one untraced and one traced pass instead and
   reports the per-layer metrics, the tracing overhead, and whether both
   passes agree.

The last stdout line is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    COLUMNS,
    OUT_DIR,
    ROOT,
    SRC,
    answer_of,
    cell_call,
    load_package,
    load_reference,
)
import calibration  # noqa: E402
from tracing import Hot, NullTracer, Tracer  # noqa: E402

WORKLOADS = ("table6", "connect7", "count")
# budget of table6's order-6 cells: md, rd, prc (and some mc, pd) cells
# exhaust it, and a pass takes 9 to 13 s on a shared 2-core Xeon VM
TABLE6_BUDGET = 1_000
# sample fractions: one graph from each run of STRATUM in cost order
CONNECT7_STRATUM = 8
K2_STRATUM = 8
POLY_STRATUM = 4


class Instance:
    """One relabeled graph and the cells to solve on it."""

    __slots__ = ("idx", "g6", "graph", "keys", "budget")

    def __init__(self, idx, g6, graph, keys, budget):
        self.idx = idx
        self.g6 = g6
        self.graph = graph
        self.keys = keys
        self.budget = budget


def relabel(cc, graph, rng):
    perm = list(range(graph.n))
    rng.shuffle(perm)
    return cc.build_graph(graph.n, [(perm[a], perm[b])
                                    for a, b in graph.edges])


def stratified(items, cost, stratum, rng):
    """A seeded sample whose total cost hardly depends on the seed.

    Returns ``(heavy, drawn)``.  Heavy items cost at least two strata's share
    (``2 * stratum`` times the mean); they are few and always taken, since
    one of them in or out of the sample would swing its cost.  Of the rest,
    one item is drawn from each run of ``stratum`` items in cost order.
    """
    mean = sum(cost(x) for x in items) / len(items)
    heavy = [x for x in items if cost(x) >= 2 * stratum * mean]
    ranked = sorted((x for x in items if x not in heavy),
                    key=lambda x: (cost(x), x))
    return heavy, [rng.choice(ranked[i:i + stratum])
                   for i in range(0, len(ranked), stratum)]


def build_inputs(cc, ref, workload, seed):
    """The workload's instance list for one seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    graphs = ref["graphs"]
    by_order = {}
    for g6 in sorted(graphs):
        by_order.setdefault(graphs[g6]["n"], []).append(g6)
    small = [g6 for n in range(1, 6) for g6 in by_order[n]]
    plan = []  # (g6, keys, budget, relabel)
    if workload == "table6":
        plan += [(g6, COLUMNS, None, True) for g6 in small]
        plan += [(g6, COLUMNS, TABLE6_BUDGET, True) for g6 in by_order[6]]
    elif workload == "connect7":
        def nodes(g6, keys):
            return sum(graphs[g6]["nodes"].get(k, 0) for k in keys)
        keys7 = ("rc", "pc", "cfc")
        heavy, drawn = stratified(by_order[7], lambda g6: nodes(g6, keys7),
                                  CONNECT7_STRATUM, rng)
        # path search keeps the census labeling here: a relabeling moves its
        # cost by up to 3x (rc on F~|{?: 10k to 30k nodes), which both swamps
        # the seed-to-seed spread and unties the cost the sample is
        # stratified on
        plan += [(g6, keys7, None, False) for g6 in heavy + drawn]
        # k=2 cost follows node counts too loosely to stratify on (one graph
        # takes a fifth of the total) and swings up to 4x with a relabeling,
        # so these graphs are fixed, census labeling and all: the middle one
        # of each run of K2_STRATUM in cost order.
        k2 = {g6: tuple(k for k in graphs[g6]["values"] if ".k2." in k)
              for g6 in by_order[6]}
        ranked = sorted((g6 for g6 in by_order[6] if k2[g6]),
                        key=lambda g6: (nodes(g6, k2[g6]), g6))
        for g6 in ranked[K2_STRATUM // 2::K2_STRATUM]:
            plan.append((g6, k2[g6], None, False))
    else:
        for g6 in small:
            plan.append((g6, tuple(k for k in graphs[g6]["values"]
                                   if k.startswith("count.")), None, True))
        def size(g6):
            return graphs[g6]["m"]
        # the reference holds edge-chromatic polynomials only for graphs
        # with at most EDGE_CHROMATIC_MAX_EDGES edges
        for key in ("chromatic", "edge_chromatic"):
            have = [g6 for g6 in sorted(graphs) if key in graphs[g6]["values"]]
            heavy, drawn = stratified(have, size, POLY_STRATUM, rng)
            plan += [(g6, (key,), None, True) for g6 in heavy + drawn]
    out = []
    for idx, (g6, keys, budget, shuffle) in enumerate(plan):
        graph = cc.parse_graph6(g6)
        if shuffle:
            graph = relabel(cc, graph, rng)
        out.append(Instance(idx, g6, graph, tuple(keys), budget))
    return out


def _kind(key):
    if key.startswith("count."):
        return "count"
    if key in ("chromatic", "edge_chromatic"):
        return key
    return "solve"


def run_pass(cc, instances, tracer, census=False, clock=None):
    """Solve every cell once.  Returns (seconds per instance, answers).

    The census build, when asked for, is timed as one more instance.
    ``clock``, a ``calibration.Clock``, takes its samples between instances,
    outside their timing.
    ``answers[(idx, key)]`` is ``(value, nodes, exhausted, certificate_ok)``;
    value is None for an exhausted cell, nodes and certificate_ok are None
    where the cell has none.
    """
    verify = cc.verify
    budget_error = cc.BudgetExceededError
    answers = {}
    times = []
    tick = clock.tick if clock is not None else (lambda: None)
    if census:
        tick()
        t0 = time.perf_counter()
        tracer.open("census")
        try:
            answers[(-1, "census")] = (len(list(
                cc.graph.connected_graphs_up_to(7))), None, False, None)
        finally:
            tracer.close()
        times.append(time.perf_counter() - t0)
    for inst in instances:
        tick()
        t0 = time.perf_counter()
        for key in inst.keys:
            call = cell_call(cc, inst.graph, key, inst.budget)
            tracer.open("cell", key=key, graph=inst.idx, kind=_kind(key))
            try:
                try:
                    result = call()
                except budget_error as exc:
                    answers[(inst.idx, key)] = (None, exc.explored, True, None)
                    continue
            finally:
                tracer.close()
            if hasattr(result, "certificate"):
                ok = verify.verify_certificate(
                    inst.graph, result.optimal_coloring, result.certificate)
                answers[(inst.idx, key)] = (result.value,
                                            result.nodes_explored, False, ok)
            else:
                answers[(inst.idx, key)] = (answer_of(result), None, False,
                                            None)
        times.append(time.perf_counter() - t0)
    tick()
    return times, answers


def check_answers(ref, instances, answers):
    """Mismatches against the reference, as readable strings."""
    graphs = ref["graphs"]
    bad = []
    census = answers.get((-1, "census"))
    if census is not None and census[0] != sum(
            int(v) for v in ref["census_sizes"].values()):
        bad.append(f"census has {census[0]} graphs")
    for inst in instances:
        entry = graphs[inst.g6]
        for key in inst.keys:
            value, nodes, exhausted, cert_ok = answers[(inst.idx, key)]
            want = entry["values"][key]
            where = f"{inst.g6} (relabeled {inst.graph.edges}) {key}"
            if exhausted:
                if inst.budget is None:
                    bad.append(f"{where}: exhausted without a budget")
                continue
            if value != want:
                bad.append(f"{where}: got {value}, reference {want}")
            if cert_ok is False:
                bad.append(f"{where}: certificate rejected")
    return bad


def pass_summary(instances, answers):
    """Exact counts of one pass: cells, exhausted, nodes, per column."""
    out = {"solve.cells": 0, "solve.nodes": 0, "solve.exhausted": 0}
    for col in COLUMNS:
        out[f"solve.nodes.{col}"] = 0
        out[f"solve.exhausted.{col}"] = 0
    cells = exhausted = 0
    for inst in instances:
        for key in inst.keys:
            value, nodes, was_exhausted, _ = answers[(inst.idx, key)]
            cells += 1
            exhausted += was_exhausted
            if key.startswith("count."):
                out["solve.cells"] += 1
            if nodes is None:
                continue
            out["solve.cells"] += 1
            out["solve.nodes"] += nodes
            out["solve.exhausted"] += was_exhausted
            if key in COLUMNS:
                out[f"solve.nodes.{key}"] += nodes
                out[f"solve.exhausted.{key}"] += was_exhausted
    return cells, exhausted, out


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer, counts, overhead_s):
    """Per-layer metrics of one traced pass."""
    hot = tracer.hot

    def h(key):
        agg = hot.get(key)
        return agg if agg is not None else _EMPTY

    spans = tracer.span_sums()

    def span_s(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    solve_cells = tracer.cell_sums(("solve", "count"))
    count_cells = tracer.cell_sums(("count",))
    chromatic = tracer.cell_sums(("chromatic",))
    edge_chromatic = tracer.cell_sums(("edge_chromatic",))
    m = {
        "graph.census_s": span_s("census"),
        "graph.canonical_form_calls": h("graph.canonical_form").calls,
        "graph.canonical_form_s": h("graph.canonical_form").seconds,
        "graph.bipartitions_s": h("graph.bipartitions").seconds,
        "graph.disjoint_paths_calls": h("graph.disjoint_paths").calls,
        "graph.disjoint_paths_s": h("graph.disjoint_paths").seconds,
        "coloring.enum_yielded": h("coloring.enum").items,
        "coloring.enum_s": h("coloring.enum").seconds,
        "coloring.find_calls": h("coloring.find").calls,
        "coloring.find_s": h("coloring.find").seconds,
        "coloring.find_found_ratio": _ratio(h("coloring.find").accepted,
                                            h("coloring.find").calls),
        "coloring.all_paths_calls": h("coloring.all_paths").calls,
        "coloring.all_paths_s": h("coloring.all_paths").seconds,
        "coloring.all_paths_mean": _ratio(h("coloring.all_paths").items,
                                          h("coloring.all_paths").calls),
        "verify.checker_build_s": span_s("checker_build"),
        "verify.witness_s": span_s("witness"),
        "verify.certificate_calls": spans.get("certificate", (0,))[0],
        "verify.certificate_s": span_s("certificate"),
    }
    for name in ("conn", "kconn", "disconn"):
        agg = h(f"verify.{name}")
        m[f"verify.{name}_tests"] = agg.calls
        m[f"verify.{name}_s"] = agg.seconds
        m[f"verify.{name}_accept_ratio"] = _ratio(agg.accepted, agg.calls)
    m.update(counts)
    m["solve.infeasible_band_ratio"] = _ratio(tracer.infeasible_nodes,
                                              tracer.band_nodes)
    m["solve.self_s"] = solve_cells[2]
    m["solve.count_s"] = count_cells[1]
    m["solve.count_nodes"] = tracer.count_nodes
    proper = h("local.proper")
    m["local.proper_checks"] = proper.calls
    m["local.proper_s"] = proper.seconds
    m["local.proper_accept_ratio"] = _ratio(proper.accepted, proper.calls)
    m["local.chromatic_calls"] = chromatic[0]
    m["local.chromatic_s"] = chromatic[1]
    m["local.edge_chromatic_s"] = edge_chromatic[1]
    m["trace.overhead_s"] = overhead_s
    return m


_EMPTY = Hot()


def commit_of(root):
    """HEAD commit read from ``.git`` in the checkout, or None."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_digest(src=SRC):
    """sha256 over the package's Python sources, in path order."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def run_info(workload, seed):
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "commit": commit_of(ROOT),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
    }


def robust_wall(passes):
    """Time for the whole instance list: per instance, the median over
    passes, summed.  With one pass it is that pass's time.

    Load from other processes on the machine comes and goes within a pass;
    the median per instance drops a slow stretch that hit only one pass.
    """
    return sum(statistics.median(column) for column in zip(*passes))


def run_workload(workload, seed, seconds, trace, t0):
    cc = load_package()
    ref = load_reference()
    instances = build_inputs(cc, ref, workload, seed)
    census = workload == "count"
    raw_setup_s = time.monotonic() - t0
    setup_s = raw_setup_s / calibration.slowdown_now()

    passes, scaled, slowdowns = [], [], []
    first = None
    bad = []

    def timed_pass(tracer):
        clock = calibration.Clock()
        times, answers = run_pass(cc, instances, tracer, census, clock)
        slowdowns.append(clock.slowdown())
        return times, [t / slowdowns[-1] for t in times], answers

    start = time.perf_counter()
    while True:
        times, times_scaled, answers = timed_pass(NullTracer())
        passes.append(times)
        scaled.append(times_scaled)
        if first is None:
            first = answers
        elif answers != first:
            bad.append("passes disagree on answers or node counts")
        # stop before a pass that would end after ``seconds``, so that a
        # run's length does not depend on how a pass lines up with it
        elapsed = time.perf_counter() - start
        if trace or elapsed + max(map(sum, passes)) > seconds:
            break
    bad += check_answers(ref, instances, first)
    cells, exhausted, counts = pass_summary(instances, first)
    info = run_info(workload, seed)
    result = {
        "info": info,
        "cells": cells,
        "exhausted": exhausted,
        "passes": len(passes),
    }
    if trace:
        tracer = Tracer()
        tracer.install(cc)
        try:
            _, traced_scaled, traced = timed_pass(tracer)
        finally:
            tracer.uninstall()
            tracer.finish()
        if traced != first:
            bad.append("traced pass disagrees with the untraced pass")
        result["metrics"] = layer_metrics(
            tracer, counts, sum(traced_scaled) - sum(scaled[0]))
        result["trace_file"] = write_trace(workload, seed, info, tracer)
    else:
        result["metrics"] = {
            "wall_s": robust_wall(scaled),
            "setup_s": setup_s,
            "solved_frac": 1.0 - exhausted / cells,
            "exhausted_frac": exhausted / cells,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["raw_wall_s"] = robust_wall(passes)
        result["raw_setup_s"] = raw_setup_s
    result["slowdowns"] = slowdowns
    result["mismatches"] = bad[:20]
    result["mismatch_count"] = len(bad)
    return result


def write_trace(workload, seed, info, tracer):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"info": info}) + "\n")
        fh.write(json.dumps(tracer.root.to_dict()) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span.to_dict()) + "\n")
    return os.path.relpath(path, ROOT)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started us")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    args = parser.parse_args(argv)
    if args.setup_only:
        build_inputs(load_package(), load_reference(), args.workload,
                     args.seed)
        raw = time.monotonic() - args.t0
        print(json.dumps({"setup_s": raw / calibration.slowdown_now(),
                          "raw_setup_s": raw}))
        return 0
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.t0)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
