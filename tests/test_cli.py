import json

import pytest

from chromaconn import (
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
    write_graph6,
)

C4 = write_graph6(cycle_graph(4))
P3 = write_graph6(path_graph(3))
K3 = write_graph6(complete_graph(3))


def _json_lines(out):
    return [json.loads(line) for line in out.splitlines() if line]


# ----------------------------------------------------------------- compute


def test_compute_c4_rainbow(run_cli):
    r = run_cli(["compute", "--pattern", "rainbow", "--k", "1",
                 "--graph", C4])
    assert r.returncode == 0
    rec = _json_lines(r.stdout)[0]
    assert rec["value"] == 2
    assert rec["graph"] == C4
    assert rec["pattern"] == "rainbow"
    assert rec["objective"] == "min"
    assert rec["coloring"] == "0,0,0,1"
    assert rec["certificate"]["kind"] == "connection"
    assert rec["k"] is None and rec["mode"] is None


def test_compute_text_format(run_cli):
    r = run_cli(["compute", "--pattern", "rainbow", "--format", "text",
                 "--graph", C4])
    assert r.returncode == 0
    assert r.stdout.split() == [C4, "rainbow", "connect", "value=2",
                                "coloring=0,0,0,1", "nodes=1"]


def test_compute_k_and_disconnect(run_cli):
    r = run_cli(["compute", "--pattern", "rainbow", "--k", "2",
                 "--graph", C4])
    rec = _json_lines(r.stdout)[0]
    assert rec["value"] == 4 and rec["k"] == 2 and rec["mode"] == "edge"
    assert rec["certificate"]["kind"] == "k_connection"
    r = run_cli(["compute", "--pattern", "monochromatic", "--task",
                 "disconnect", "--graph", write_graph6(star_graph(4))])
    rec = _json_lines(r.stdout)[0]
    assert rec["value"] == 4
    assert rec["certificate"]["kind"] == "disconnection"


def test_compute_proper_rainbow(run_cli):
    r = run_cli(["compute", "--pattern", "proper-rainbow", "--graph", K3])
    rec = _json_lines(r.stdout)[0]
    assert rec["value"] == 3 and rec["pattern"] == "proper_rainbow"
    r = run_cli(["compute", "--pattern", "proper-rainbow", "--task",
                 "disconnect", "--graph", K3])
    assert r.returncode == 1


def test_compute_objective_guard(run_cli):
    ok = run_cli(["compute", "--pattern", "rainbow", "--objective", "min",
                  "--graph", C4])
    assert ok.returncode == 0
    bad = run_cli(["compute", "--pattern", "rainbow", "--objective", "max",
                   "--graph", C4])
    assert bad.returncode == 1
    assert "objective" in bad.stderr


def test_compute_proper_rainbow_objective_guard(run_cli):
    ok = run_cli(["compute", "--pattern", "proper-rainbow", "--objective",
                  "min", "--graph", K3])
    assert ok.returncode == 0
    bad = run_cli(["compute", "--pattern", "proper-rainbow", "--objective",
                   "max", "--graph", K3])
    assert (bad.returncode, bad.stdout) == (1, "")
    assert bad.stderr == \
        "error: pattern proper_rainbow has objective min, not max\n"


# --------------------------------------------------------------- exit codes


def test_exit_codes(run_cli):
    bad = run_cli(["compute", "--pattern", "rainbow"], stdin="???bad\n")
    assert bad.returncode == 1
    assert "bad graph6" in bad.stderr
    disconnected = run_cli(["compute", "--pattern", "rainbow"],
                           stdin="A?\n")  # two isolated vertices
    assert disconnected.returncode == 1
    assert "connected" in disconnected.stderr
    tiny = run_cli(["compute", "--pattern", "rainbow", "--budget", "1",
                    "--graph", write_graph6(cycle_graph(5))])
    assert tiny.returncode == 2
    assert "budget" in tiny.stderr
    # input errors dominate budget exhaustion
    mixed = run_cli(["compute", "--pattern", "rainbow", "--budget", "1"],
                    stdin=f"???bad\n{write_graph6(cycle_graph(5))}\n")
    assert mixed.returncode == 1
    # stream continues past the bad line
    cont = run_cli(["compute", "--pattern", "rainbow"],
                   stdin=f"???bad\n{C4}\n")
    assert cont.returncode == 1
    assert _json_lines(cont.stdout)[0]["value"] == 2


ZERO_VERTEX_JOBS = [
    ["--pattern", p] for p in ("rainbow", "proper", "monochromatic",
                               "conflict-free", "proper-rainbow")
] + [
    ["--pattern", p, "--task", "disconnect"]
    for p in ("rainbow", "proper", "monochromatic")
] + [
    ["--pattern", p, "--k", "2", "--mode", mode]
    for p in ("rainbow", "proper", "monochromatic", "conflict-free")
    for mode in ("edge", "vertex")
]


@pytest.mark.parametrize("job", ZERO_VERTEX_JOBS, ids=" ".join)
def test_zero_vertex_graph_has_value_0(run_cli, job):
    # '?' is graph6 for n = 0: no pairs, so value 0 and no witnesses, and
    # the stream goes on
    r = run_cli(["compute", *job], stdin=f"?\n{C4}\n")
    assert r.returncode == 0, r.stderr
    empty, c4 = _json_lines(r.stdout)
    assert (empty["graph"], empty["value"], empty["coloring"]) == ("?", 0, "")
    assert empty["certificate"]["pairs"] == []
    assert c4["graph"] == C4


def test_zero_vertex_graph_in_table(run_cli):
    r = run_cli(["table"], stdin=f"?\n{C4}\n")
    assert r.returncode == 0, r.stderr
    empty, c4 = _json_lines(r.stdout)
    cols = ("rc", "pc", "mc", "cfc", "rd", "pd", "md", "prc")
    assert empty == {"graph": "?", **dict.fromkeys(cols, 0), "exhausted": []}
    assert c4["graph"] == C4 and c4["exhausted"] == []


def test_flag_errors_exit_1(run_cli):
    assert run_cli(["compute", "--pattern", "sparkly",
                    "--graph", C4]).returncode == 1
    assert run_cli(["compute", "--pattern", "rainbow", "--budget", "0",
                    "--graph", C4]).returncode == 1
    assert run_cli(["nonsense"]).returncode == 1


def test_budget_env(run_cli):
    r = run_cli(["compute", "--pattern", "rainbow",
                 "--graph", write_graph6(cycle_graph(5))],
                env_extra={"CHROMA_BUDGET": "1"})
    assert r.returncode == 2
    # explicit flag beats the environment
    r = run_cli(["compute", "--pattern", "rainbow", "--budget", "1000",
                 "--graph", write_graph6(cycle_graph(5))],
                env_extra={"CHROMA_BUDGET": "1"})
    assert r.returncode == 0
    r = run_cli(["compute", "--pattern", "rainbow", "--graph", C4],
                env_extra={"CHROMA_BUDGET": "zap"})
    assert r.returncode == 1


# ------------------------------------------------------------------ verify


def test_verify_property_route(run_cli):
    # a two-edge path is monochromatically connected by a constant coloring
    r = run_cli(["verify", "--pattern", "monochromatic", "--coloring", "0,0",
                 "--graph", P3])
    assert r.returncode == 0
    rec = _json_lines(r.stdout)[0]
    assert rec["connected"] is True and rec["certificate_valid"] is True
    t = run_cli(["verify", "--pattern", "monochromatic", "--coloring", "0,0",
                 "--graph", P3, "--format", "text"])
    assert t.stdout.strip() == f"{P3} connected: true"
    neg = run_cli(["verify", "--pattern", "rainbow", "--coloring", "0,0,0,0",
                   "--graph", C4])
    assert neg.returncode == 0
    assert _json_lines(neg.stdout)[0]["connected"] is False
    dis = run_cli(["verify", "--pattern", "rainbow", "--task", "disconnect",
                   "--coloring", "0,1,2,3", "--graph", C4])
    assert _json_lines(dis.stdout)[0]["disconnected"] is True
    k2 = run_cli(["verify", "--pattern", "rainbow", "--k", "2",
                  "--coloring", "0,1,2,3", "--graph", C4])
    assert _json_lines(k2.stdout)[0]["connected"] is True


def test_verify_record_route(run_cli):
    rec = run_cli(["compute", "--pattern", "rainbow", "--graph", C4]).stdout
    ver = run_cli(["verify"], stdin=rec)
    assert ver.returncode == 0
    assert _json_lines(ver.stdout)[0] == {"graph": C4, "valid": True}
    # tampered certificate still parses but fails verification
    data = json.loads(rec)
    data["certificate"]["pairs"] = data["certificate"]["pairs"][1:]
    ver = run_cli(["verify"], stdin=json.dumps(data) + "\n")
    assert ver.returncode == 0
    assert _json_lines(ver.stdout) == [{"graph": C4, "valid": False}]
    # structurally broken record is an input error
    ver = run_cli(["verify"], stdin="{\"graph\": \"Cl\"}\n")
    assert ver.returncode == 1


@pytest.mark.parametrize("bad", [
    {"graph": "Bw", "coloring": 5, "certificate": {}},
    {"graph": 5, "coloring": "0,1", "certificate": {}},
])
def test_verify_record_non_string_field(run_cli, bad):
    good = run_cli(["compute", "--pattern", "rainbow", "--graph", C4]).stdout
    ver = run_cli(["verify"], stdin=json.dumps(bad) + "\n" + good)
    assert ver.returncode == 1
    assert "bad record" in ver.stderr and "line 1" in ver.stderr
    assert "Traceback" not in ver.stderr
    assert _json_lines(ver.stdout) == [{"graph": C4, "valid": True}]


def test_verify_record_rejects_boolean_vertex(run_cli):
    # JSON true is not the vertex 1, although Python's bool is an int
    data = json.loads(run_cli(["compute", "--pattern", "rainbow",
                               "--graph", "Bw"]).stdout)
    assert data["certificate"]["pairs"][2]["u"] == 1
    data["certificate"]["pairs"][2]["u"] = True
    ver = run_cli(["verify"], stdin=json.dumps(data) + "\n")
    assert ver.returncode == 1
    assert "bad record" in ver.stderr
    assert ver.stdout == ""


@pytest.mark.parametrize("stdin", [f"{P3}\n{K3}\n", ""],
                         ids=["two-lines", "empty"])
def test_verify_flag_combination_fails_once(run_cli, stdin):
    # a combination that does not exist is one error before input is read
    r = run_cli(["verify", "--pattern", "proper-rainbow", "--task",
                 "disconnect", "--coloring", "0,1"], stdin=stdin)
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == \
        "error: proper-rainbow supports only --task connect with k=1\n"


@pytest.mark.parametrize("stdin", [f"{P3}\n{K3}\n", ""],
                         ids=["two-lines", "empty"])
@pytest.mark.parametrize("command", [["compute"],
                                     ["verify", "--coloring", "0,1"],
                                     ["count", "-t", "2"]],
                         ids=["compute", "verify", "count"])
def test_conflict_free_disconnect_fails_once(run_cli, command, stdin):
    # conflict-free has no cut form, whatever the graph
    r = run_cli(command + ["--pattern", "conflict-free", "--task",
                           "disconnect"], stdin=stdin)
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == \
        "error: pattern conflict_free has no disconnection variant\n"


def test_verify_requires_pattern_with_coloring(run_cli):
    r = run_cli(["verify", "--coloring", "0,0", "--graph", P3])
    assert r.returncode == 1
    assert "--pattern" in r.stderr


# ------------------------------------------------------------------- count


def test_count(run_cli):
    r = run_cli(["count", "--pattern", "rainbow", "-t", "2", "--graph", P3])
    assert _json_lines(r.stdout)[0] == {
        "graph": P3, "pattern": "rainbow", "property": "connected",
        "t": 2, "count": 2}
    r = run_cli(["count", "--pattern", "monochromatic", "--task", "disconnect",
                 "-t", "2", "--graph", P3, "--format", "text"])
    assert r.stdout.strip().endswith("count=4")


# ------------------------------------------------------------------- table


def test_table_shape_and_consistency(run_cli):
    gen = run_cli(["generate", "--all-connected", "4"])
    corpus = gen.stdout
    assert len(corpus.splitlines()) == 10
    js = run_cli(["table"], stdin=corpus)
    assert js.returncode == 0
    recs = _json_lines(js.stdout)
    assert len(recs) == 10
    cols = ("rc", "pc", "mc", "cfc", "rd", "pd", "md", "prc")
    for rec in recs:
        assert list(rec) == ["graph", *cols, "exhausted"]
        assert all(isinstance(rec[c], int) for c in cols)
        assert rec["exhausted"] == []
    txt = run_cli(["table", "--format", "text"], stdin=corpus)
    lines = txt.stdout.splitlines()
    assert lines[0].split() == ["graph", *cols]
    # the text table carries exactly the JSON values
    for rec, line in zip(recs, lines[1:]):
        cells = line.split()
        assert cells[0] == rec["graph"]
        assert [int(c) for c in cells[1:]] == [rec[c] for c in cols]


def test_table_budget_cells(run_cli):
    r = run_cli(["table", "--budget", "1",
                 "--graph", write_graph6(path_graph(5))])
    assert r.returncode == 2
    rec = _json_lines(r.stdout)[0]
    # the diameter bound pins rc at the first coloring; proper needs a second
    assert rec["rc"] == 4
    assert rec["pc"] is None and "pc" in rec["exhausted"]
    assert rec["rd"] == 1 and rec["md"] == 4


# ---------------------------------------------------------------- generate


def test_generate(run_cli):
    assert run_cli(["generate", "--family", "cycle", "--params", "4"]
                   ).stdout.strip() == C4
    pet = run_cli(["generate", "--family", "petersen"]).stdout.strip()
    assert pet.startswith("I")
    both = run_cli(["generate", "--family", "cycle", "--params", "4",
                    "--all-connected", "3"])
    assert both.returncode == 1
    bad = run_cli(["generate", "--family", "cycle", "--params", "x"])
    assert bad.returncode == 1
    missing = run_cli(["generate", "--family", "cycle"])
    assert missing.returncode == 1


def test_generate_census_family_equals_all_connected(run_cli):
    family = run_cli(["generate", "--family", "all_connected_up_to",
                      "--params", "3"])
    assert family.returncode == 0, family.stderr
    census = run_cli(["generate", "--all-connected", "3"])
    assert family.stdout == census.stdout
    assert len(family.stdout.splitlines()) == 4


def test_pipe_equals_file(run_cli, tmp_path):
    corpus = run_cli(["generate", "--all-connected", "4"]).stdout
    piped = run_cli(["compute", "--pattern", "proper"], stdin=corpus)
    path = tmp_path / "corpus.g6"
    path.write_text(corpus)
    filed = run_cli(["compute", "--pattern", "proper", "--file", str(path)])
    assert piped.returncode == filed.returncode == 0
    assert piped.stdout == filed.stdout


def test_file_and_stdin_fail_alike(run_cli, tmp_path):
    data = f"{C4}\n\xff\n{K3}\n".encode("latin-1")
    path = tmp_path / "bad.g6"
    path.write_bytes(data)
    piped = run_cli(["compute", "--pattern", "rainbow"], stdin=data)
    filed = run_cli(["compute", "--pattern", "rainbow", "--file", str(path)],
                    stdin=b"")
    assert (piped.returncode, piped.stdout, piped.stderr) == (
        filed.returncode, filed.stdout, filed.stderr)
    assert piped.returncode == 1
    assert len(_json_lines(piped.stdout.decode())) == 2
    assert piped.stderr.decode().startswith("error: bad graph6")
    for missing in (tmp_path / "missing.g6", tmp_path):
        r = run_cli(["compute", "--pattern", "rainbow", "--file",
                     str(missing)])
        assert r.returncode == 1
        assert r.stderr.startswith("error: ")
        assert len(r.stderr.splitlines()) == 1
        assert "Traceback" not in r.stderr and r.stdout == ""


def test_blank_lines_skipped(run_cli):
    r = run_cli(["compute", "--pattern", "rainbow"],
                stdin=f"\n{C4}\n\n")
    assert r.returncode == 0
    assert len(_json_lines(r.stdout)) == 1
