"""The experiment scripts run end to end and agree with `chromaconn table`."""

import json
import os
import subprocess
import sys

from conftest import ROOT, SRC

TABLE_COLUMNS = ("rc", "pc", "mc", "cfc", "rd", "pd", "md", "prc")


def _run_script(name, *args):
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        capture_output=True, text=True, env=env)


def test_invariant_table_matches_cli_table(run_cli):
    r = _run_script("invariant_table.py", "--max-n", "4", "--format", "json")
    assert r.returncode == 0, r.stderr
    rows = json.loads(r.stdout)["rows"]
    assert len(rows) == 10  # connected graphs of order 1..4
    table = run_cli(["table"], stdin="".join(row["graph"] + "\n"
                                             for row in rows))
    assert table.returncode == 0, table.stderr
    records = [json.loads(line) for line in table.stdout.splitlines()]
    assert [rec["graph"] for rec in records] == [row["graph"] for row in rows]
    for row, rec in zip(rows, records):
        assert {c: row[c] for c in TABLE_COLUMNS} == \
            {c: rec[c] for c in TABLE_COLUMNS}


def test_invariant_table_budget():
    r = _run_script("invariant_table.py", "--max-n", "4", "--budget", "1")
    assert r.returncode == 2
    assert r.stdout == ""
    # one line naming the graph and column, no traceback
    assert r.stderr.startswith("error: graph Bo column pc: budget of 1 ")
    assert r.stderr.count("\n") == 1
    r = _run_script("invariant_table.py", "--max-n", "4", "--budget", "0")
    assert r.returncode == 2
    assert "--budget must be >= 1" in r.stderr


def test_counting_profile_runs():
    r = _run_script("counting_profile.py", "--max-n", "4")
    assert r.returncode == 0, r.stderr
    assert r.stdout
