#!/usr/bin/env python3
"""The chromaconn benchmark: run workloads, check answers, print metrics.

Run from the root of a checkout (no build step; the package is imported
from ``src/``):

    python3 perfbench/run.py --workload table6 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in its own child process, one after another, with no
threads (``workloads.py``).  ``SETUP_PROBES`` more processes, half just
before it and half just after, only set up; ``setup_s`` is the median set-up
time over all of these processes.  Times are scaled to a reference machine
speed by a calibration loop timed in the same processes
(``calibration.py``); the summary line also gives them as measured.

With ``--trace 0`` the result line carries the end-to-end metrics
(``wall_s``, ``solved_frac``, ``setup_s``, ``peak_rss_mb``); with
``--trace 1`` the per-layer metrics of a traced pass, and the span records
go to ``.bench_out/``.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when every answer matched the reference and every certificate verified.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import REFERENCE, ROOT, SRC  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# the set-up time of a single process spread by 13-34% (quartile distance
# over median) across ten seeds on a shared 2-core VM
SETUP_PROBES = 8
CHILD_TIMEOUT_S = 170
END_TO_END = {"wall_s": "s", "solved_frac": "ratio", "setup_s": "s",
              "peak_rss_mb": "MB"}
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "workloads.py")


def _child_env():
    env = dict(os.environ)
    # int-only hashing already makes runs repeatable; this pins the rest.
    # Bytecode caches are written (under the checkout) as in normal use, so
    # only the first set-up of a checkout compiles the sources.
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPATH", None)
    return env


def _run_child(extra):
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, WORKER, "--t0", repr(t0)] + extra,
        cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process failed with code "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _unit(name):
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    # every per-layer count and ratio repeats exactly at one seed
    if name.endswith(("_ratio", "_mean")):
        return "exact_ratio"
    return "exact_count"


def _summary_line(workload, result, trace):
    m = result["metrics"]
    if trace:
        return (f"{workload}: traced, overhead {m['trace.overhead_s']:.3f} s, "
                f"trace in {result['trace_file']}")
    return (f"{workload}: wall_s={m['wall_s']:.4f} s "
            f"exhausted_frac={m['exhausted_frac']:.4f} "
            f"setup_s={m['setup_s']:.4f} s "
            f"peak_rss_mb={m['peak_rss_mb']:.2f} MB "
            f"(as measured: wall {result['raw_wall_s']:.4f} s, "
            f"setup {result['raw_setup_s']:.4f} s; {result['cells']} cells, "
            f"{result['exhausted']} exhausted, {result['passes']} passes)")


def _terminate(signum, frame):
    # unwinding through subprocess.run kills and reaps the running child
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for need in (os.path.join(SRC, "chromaconn", "__init__.py"), REFERENCE):
        if not os.path.isfile(need):
            print(f"error: {need} not found; run from a chromaconn checkout",
                  file=sys.stderr)
            return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    attempted = failed = 0
    metrics = {}
    for name in names:
        base = ["--workload", name, "--seed", str(args.seed)]
        probes = [_run_child(base + ["--setup-only"])
                  for _ in range(SETUP_PROBES // 2)]
        result = _run_child(base + ["--seconds", str(args.seconds),
                                    "--trace", str(args.trace)])
        probes += [_run_child(base + ["--setup-only"])
                   for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        print(json.dumps({"run": result["info"],
                          "slowdowns": result["slowdowns"]}))
        if not args.trace:
            probes.append({"setup_s": result["metrics"]["setup_s"],
                           "raw_setup_s": result["raw_setup_s"]})
            for key, out in (("setup_s", result["metrics"]),
                             ("raw_setup_s", result)):
                out[key] = statistics.median(p[key] for p in probes)
        for line in result["mismatches"]:
            print(f"{name}: MISMATCH {line}", file=sys.stderr)
        correct = correct and result["mismatch_count"] == 0
        attempted += result["cells"]
        failed += result["mismatch_count"]
        print(_summary_line(name, result, args.trace))
        prefix = "" if len(names) == 1 else f"{name}."
        for key, value in result["metrics"].items():
            if args.trace or key in END_TO_END:
                metrics[prefix + key] = {"value": value, "unit": _unit(key)}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
