import hashlib
import json

import numpy as np
import pytest

from onejdom import (Graph, feasibility_threshold, parse_edge_list, verify_1j_set,
                     write_edge_list)
from onejdom.cli import main
from onejdom.generators import cycle_graph, path_graph, complete_graph, random_regular


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, g, name="g.edges"):
    path = tmp_path / name
    path.write_text(write_edge_list(g), encoding="utf-8")
    return str(path)


def test_solve_auto_tree(tmp_path, capsys):
    path = write_graph(tmp_path, path_graph(4))
    code, out, _ = run_cli(capsys, "solve", path, "--j", "2")
    assert code == 0
    report = json.loads(out)
    assert report["method"] == "tree"
    assert report["value"] == 2
    assert report["schema"] == 1
    assert len(report["input_digest"]) == 64


def test_solve_k5(tmp_path, capsys):
    path = write_graph(tmp_path, complete_graph(5))
    code, out, _ = run_cli(capsys, "solve", path, "--j", "1")
    assert code == 0
    assert json.loads(out)["value"] == 1


def test_solve_split_method_on_c4_is_precondition_error(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(4))
    code, _, err = run_cli(capsys, "solve", path, "--j", "2", "--method", "split")
    assert code == 3
    assert "split" in err


def test_solve_budget_infeasible_report(tmp_path, capsys):
    path = write_graph(tmp_path, path_graph(4))
    code, out, _ = run_cli(capsys, "solve", path, "--j", "2", "--method", "brute",
                           "--budget", "1")
    assert code == 0
    report = json.loads(out)
    assert report["value"] is None
    assert report["infeasible_within_budget"] is True


def test_solve_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("2 1\n0 0\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "solve", str(bad), "--j", "1")
    assert code == 2
    assert "self-loop" in err


def test_header_beyond_int32_ids_exit_2(tmp_path, capsys):
    bad = tmp_path / "huge.edges"
    bad.write_text("3000000000 0\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "construct", str(bad), "--j", "1", "--seed", "0")
    assert (code, out) == (2, "")
    assert err.startswith("parse error: line 1: vertex count 3000000000 does not fit int32")


def test_solve_missing_file_exit_2(capsys):
    code, _, _ = run_cli(capsys, "solve", "/nonexistent/g.edges", "--j", "1")
    assert code == 2


def test_solve_guard_exit_4(tmp_path, capsys):
    g = parse_edge_list("21 0\n")
    path = write_graph(tmp_path, g)
    code, _, err = run_cli(capsys, "solve", path, "--j", "1", "--method", "brute")
    assert code == 4
    assert "guard" in err


def test_solve_with_labels(tmp_path, capsys):
    path = write_graph(tmp_path, path_graph(3))
    labels = tmp_path / "labels.txt"
    labels.write_text("0 1 1\n1 1 1\n2 1 1\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "solve", path, "--method", "tree",
                           "--labels", str(labels))
    assert code == 0
    report = json.loads(out)
    assert report["value"] == 1
    assert report["witness"] == [1]


def test_solve_with_partition_file(tmp_path, capsys):
    gpath = write_graph(tmp_path, parse_edge_list("3 2\n0 1\n0 2\n"))
    ppath = tmp_path / "part.txt"
    ppath.write_text("K: 0 1\nS: 2\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "solve", gpath, "--j", "1", "--method", "split",
                           "--partition", str(ppath))
    assert code == 0
    assert json.loads(out)["value"] == 1


def test_verify_whole_set_valid(tmp_path, capsys):
    gpath = write_graph(tmp_path, cycle_graph(5))
    spath = tmp_path / "set.txt"
    spath.write_text("0 1 2 3 4\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", gpath, str(spath), "--j", "1")
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_verify_invalid_exit_1(tmp_path, capsys):
    gpath = write_graph(tmp_path, parse_edge_list("4 3\n0 1\n0 2\n0 3\n"))
    spath = tmp_path / "set.txt"
    spath.write_text("1 2 3\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", gpath, str(spath), "--j", "2")
    assert code == 1
    report = json.loads(out)
    assert report["valid"] is False
    assert report["overdominated"] == [0]


def test_gen_deterministic_files(tmp_path, capsys):
    out1 = tmp_path / "a.edges"
    out2 = tmp_path / "b.edges"
    code1, rep1, _ = run_cli(capsys, "gen", "--tree", "10", "--seed", "7",
                             "-o", str(out1))
    code2, rep2, _ = run_cli(capsys, "gen", "--tree", "10", "--seed", "7",
                             "-o", str(out2))
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert json.loads(rep1)["m"] == 9


def test_gen_regular_passes_degree_audit(tmp_path, capsys):
    out = tmp_path / "r.edges"
    code, _, _ = run_cli(capsys, "gen", "--regular", "48", "12", "--seed", "1",
                         "-o", str(out))
    assert code == 0
    g = parse_edge_list(out.read_text(encoding="utf-8"))
    assert all(g.degree(v) == 12 for v in range(g.n))


def test_gen_regular_restarts_exhausted_exit_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("onejdom.cli.random_regular",
                        lambda n, d, seed: random_regular(n, d, seed, max_restarts=0))
    code, out, err = run_cli(capsys, "gen", "--regular", "10", "3", "--seed", "0",
                             "-o", str(tmp_path / "r.edges"))
    assert code == 3
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("precondition:")] == [
        "precondition: pairing model failed 0 restarts for n=10, d=3"]
    assert "Traceback" not in err


def test_gen_split_writes_partition_sidecar(tmp_path, capsys):
    out = tmp_path / "s.edges"
    code, rep, _ = run_cli(capsys, "gen", "--split", "3", "4", "0.5", "--seed", "2",
                           "-o", str(out))
    assert code == 0
    sidecar = json.loads(rep)["partition_path"]
    text = (tmp_path / "s.edges.partition").read_text(encoding="utf-8")
    assert sidecar.endswith(".partition")
    assert text.startswith("K: 0 1 2")


def test_gen_requires_exactly_one_family(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "gen", "--seed", "1", "-o", str(tmp_path / "x"))
    assert code == 3


def test_construct_infeasible_exit_3_with_threshold(tmp_path, capsys):
    gpath = write_graph(tmp_path, cycle_graph(5))
    code, _, err = run_cli(capsys, "construct", gpath, "--j", "1", "--seed", "1")
    assert code == 3
    assert "threshold" in err


def test_construct_byte_identical_reruns(tmp_path, capsys):
    out = tmp_path / "r.edges"
    run_cli(capsys, "gen", "--regular", "60", "12", "--seed", "5", "-o", str(out))
    code1, rep1, _ = run_cli(capsys, "construct", str(out), "--j", "18",
                             "--seed", "11", "--trials", "6")
    code2, rep2, _ = run_cli(capsys, "construct", str(out), "--j", "18",
                             "--seed", "11", "--trials", "6")
    assert code1 == code2 == 0
    assert rep1 == rep2
    lines = [json.loads(ln) for ln in rep1.splitlines()]
    trials = [ln for ln in lines if ln["command"] == "construct"]
    summary = [ln for ln in lines if ln["command"] == "construct-summary"]
    assert len(trials) == 6 and len(summary) == 1
    assert all(t["valid"] for t in trials if t["terminated"])
    assert [t["trial"] for t in trials] == sorted(t["trial"] for t in trials)


def test_reduce_sidecar_and_witness(tmp_path, capsys):
    ex3c = tmp_path / "inst.ex3c"
    ex3c.write_text("1 1\n1 2 3\n", encoding="utf-8")
    cover = tmp_path / "cover.txt"
    cover.write_text("1\n", encoding="utf-8")
    out = tmp_path / "red.edges"
    code, rep, _ = run_cli(capsys, "reduce", "--ex3c", str(ex3c), "--j", "2",
                           "-o", str(out), "--emit-witness", str(cover))
    assert code == 0
    report = json.loads(rep)
    assert report["k"] == 8
    sidecar = json.loads((tmp_path / "red.edges.roles.json").read_text())
    assert sidecar["k"] == 8 and sidecar["n"] == 28
    assert len(sidecar["roles"]) == 28
    # the emitted witness verifies on the emitted graph
    g = parse_edge_list(out.read_text(encoding="utf-8"))
    ids = [int(tok) for tok in (tmp_path / "red.edges.witness").read_text().split()]
    assert verify_1j_set(g, ids, 2).valid
    code, out2, _ = run_cli(capsys, "verify", str(out),
                            str(tmp_path / "red.edges.witness"), "--j", "2")
    assert code == 0 and json.loads(out2)["valid"] is True


def test_solve_byte_identical_reruns(tmp_path, capsys):
    path = write_graph(tmp_path, path_graph(7))
    _, rep1, _ = run_cli(capsys, "solve", path, "--j", "2")
    _, rep2, _ = run_cli(capsys, "solve", path, "--j", "2")
    assert rep1 == rep2


BAD_UTF8 = b"3 2\n0 1\n1 \xff2\n"


def _bad_utf8_case(tmp_path, which):
    """argv for a subcommand where only the file named by `which` is not UTF-8."""
    bad = tmp_path / "bad.bin"
    bad.write_bytes(BAD_UTF8)
    tree = write_graph(tmp_path, path_graph(3), "tree.edges")
    split = write_graph(tmp_path, parse_edge_list("3 2\n0 1\n0 2\n"), "split.edges")
    part = tmp_path / "part.txt"
    part.write_text("K: 0 1\nS: 2\n", encoding="utf-8")
    vset = tmp_path / "set.txt"
    vset.write_text("1\n", encoding="utf-8")
    ex3c = tmp_path / "inst.ex3c"
    ex3c.write_text("1 1\n1 2 3\n", encoding="utf-8")
    cover = tmp_path / "cover.txt"
    cover.write_text("1\n", encoding="utf-8")
    out = str(tmp_path / "red.edges")
    return {
        "solve graph": ["solve", str(bad), "--j", "1"],
        "solve labels": ["solve", tree, "--method", "tree", "--labels", str(bad)],
        "solve partition": ["solve", split, "--j", "1", "--method", "split",
                            "--partition", str(bad)],
        "verify graph": ["verify", str(bad), str(vset), "--j", "1"],
        "verify set": ["verify", tree, str(bad), "--j", "1"],
        "construct graph": ["construct", str(bad), "--j", "18", "--seed", "1"],
        "reduce ex3c": ["reduce", "--ex3c", str(bad), "--j", "2", "-o", out],
        "reduce cover": ["reduce", "--ex3c", str(ex3c), "--j", "2", "-o", out,
                         "--emit-witness", str(bad)],
    }[which]


@pytest.mark.parametrize("which", ["solve graph", "solve labels", "solve partition",
                                   "verify graph", "verify set", "construct graph",
                                   "reduce ex3c", "reduce cover"])
def test_non_utf8_input_is_parse_error(tmp_path, capsys, which):
    code, out, err = run_cli(capsys, *_bad_utf8_case(tmp_path, which))
    assert code == 2
    assert out == ""
    lines = [ln for ln in err.splitlines() if not ln.startswith("elapsed_seconds=")]
    assert len(lines) == 1
    assert lines[0].startswith("parse error:") and "UTF-8" in lines[0]


@pytest.mark.parametrize("argv", [["--gnp", "10", "abc"], ["--gnp", "x", "0.5"],
                                  ["--split", "5", "x", ".3"], ["--split", "5", "4", "p"]])
def test_gen_malformed_numbers_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "g.edges"
    code, rep, err = run_cli(capsys, "gen", *argv, "--seed", "1", "-o", str(out))
    assert code == 2
    assert rep == ""
    assert err.startswith(f"parse error: {argv[0]}: ")
    assert not out.exists()


def test_tree_solve_checks_tree_at_most_twice(tmp_path, capsys, monkeypatch):
    import sys

    import onejdom
    from onejdom.graph import is_tree

    calls = []

    def counting(g):
        calls.append(g.n)
        return is_tree(g)

    for name, module in list(sys.modules.items()):
        if (name == "onejdom" or name.startswith("onejdom.")) \
                and getattr(module, "is_tree", None) is is_tree:
            monkeypatch.setattr(module, "is_tree", counting)
    assert onejdom.treesolve.is_tree is counting
    path = write_graph(tmp_path, path_graph(9))
    for argv in (["--j", "2"], ["--j", "2", "--method", "tree"]):
        calls.clear()
        code, out, _ = run_cli(capsys, "solve", path, *argv)
        assert code == 0 and json.loads(out)["method"] == "tree"
        assert 1 <= len(calls) <= 2, (argv, calls)


def test_split_solve_recognises_split_once(tmp_path, capsys, monkeypatch):
    import onejdom.cli
    from onejdom.recognize import split_recognition

    calls = []

    def counting(g):
        calls.append(g.n)
        return split_recognition(g)

    monkeypatch.setattr(onejdom.cli, "split_recognition", counting)
    path = write_graph(tmp_path, parse_edge_list("4 4\n0 1\n0 2\n1 2\n2 3\n"))
    for argv in (["--j", "2"], ["--j", "2", "--method", "split"]):
        calls.clear()
        code, out, _ = run_cli(capsys, "solve", path, *argv)
        assert code == 0 and json.loads(out)["method"] == "split"
        assert len(calls) == 1, (argv, calls)


def _failing_self_check(monkeypatch):
    """Make the witness self-check see every vertex outside the set as out of band."""
    import onejdom.oracle

    monkeypatch.setattr(onejdom.oracle, "_outside_band",
                        lambda selected, cnt, lower, upper: np.flatnonzero(~selected))


def test_construct_invalid_witness_is_internal_contradiction(tmp_path, capsys, monkeypatch):
    _failing_self_check(monkeypatch)
    path = write_graph(tmp_path, random_regular(40, 12, 9))
    code, out, err = run_cli(capsys, "construct", path, "--j", "18", "--seed", "1")
    assert code == 5 and out == ""
    lines = [ln for ln in err.splitlines() if not ln.startswith("elapsed_seconds=")]
    assert len(lines) == 1 and lines[0].startswith("internal contradiction:"), lines


@pytest.mark.parametrize("site", ["tree", "tree labels", "split", "bnb", "reduce"])
def test_failed_self_check_is_internal_contradiction(tmp_path, capsys, monkeypatch, site):
    # every engine's answer goes through the one witness self-check before it
    # is printed or written; a failure there exits 5 and prints nothing
    labels = tmp_path / "labels.txt"
    labels.write_text("0 1 1\n1 1 1\n2 1 1\n", encoding="utf-8")
    ex3c = tmp_path / "inst.ex3c"
    ex3c.write_text("1 1\n1 2 3\n", encoding="utf-8")
    cover = tmp_path / "cover.txt"
    cover.write_text("1\n", encoding="utf-8")
    split = write_graph(tmp_path, parse_edge_list("4 4\n0 1\n0 2\n1 2\n2 3\n"), "s.edges")
    argv, caller = {
        "tree": (["solve", write_graph(tmp_path, path_graph(5), "t.edges"), "--j", "2"],
                 "tree witness"),
        "tree labels": (["solve", write_graph(tmp_path, path_graph(3), "l.edges"), "--method", "tree",
                         "--labels", str(labels)], "tree witness"),
        "split": (["solve", split, "--j", "2"], "split case"),
        "bnb": (["solve", write_graph(tmp_path, cycle_graph(6), "b.edges"), "--j", "2"],
                "bnb witness"),
        "reduce": (["reduce", "--ex3c", str(ex3c), "--j", "2", "-o", str(tmp_path / "r.edges"),
                    "--emit-witness", str(cover)], "forward witness"),
    }[site]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out
    _failing_self_check(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert code == 5 and out == ""
    lines = [ln for ln in err.splitlines() if not ln.startswith("elapsed_seconds=")]
    assert len(lines) == 1 and lines[0].startswith(f"internal contradiction: {caller}"), lines


def test_tree_method_on_non_tree_with_labels_exit_3(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(3))
    labels = tmp_path / "labels.txt"
    labels.write_text("not a label file\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "solve", path, "--method", "tree", "--labels", str(labels))
    assert code == 3
    assert "requires a tree" in err


def _thinned_regular(n, d, seed, every):
    """random_regular(n, d, seed) minus every `every`-th edge: irregular degrees."""
    edges = [e for i, e in enumerate(random_regular(n, d, seed).edges()) if i % every]
    return Graph(n, edges)


def test_construct_stdout_pinned(tmp_path, capsys, monkeypatch):
    # relative paths keep the echoed argv (and so the digest) independent of tmp_path;
    # digest recorded before the array census replaced the per-vertex sweep
    monkeypatch.chdir(tmp_path)
    base = random_regular(120, 12, 77)
    graphs = {
        "r40": random_regular(40, 12, 9),
        "r60": random_regular(60, 12, 8),
        "r200": random_regular(200, 16, 4),
        "r2000": random_regular(2000, 12, 1),
        "irr120": Graph(120, [*base.edges(), (0, 2), (1, 3)]),
        "irr150": _thinned_regular(150, 14, 5, 9),
    }
    for name, g in graphs.items():
        (tmp_path / f"{name}.edges").write_text(write_edge_list(g), encoding="utf-8")
    jirr = {name: int(feasibility_threshold(graphs[name].max_degree(),
                                            graphs[name].min_degree())) + 1
            for name in ("irr120", "irr150")}
    runs = [
        ("r40", 18, 66, 4, 0), ("r40", 18, 1577, 3, 0), ("r40", 18, 359, 6, None),
        ("r40", 18, 5, 8, None), ("r60", 18, 831, 4, 0), ("r60", 18, 939, 4, None),
        ("r60", 18, 11, 6, None), ("r200", 19, 3, 4, None), ("r200", 19, 4, 4, 0),
        ("r2000", 18, 3, 2, None), ("irr120", jirr["irr120"], 123, 8, None),
        ("irr120", jirr["irr120"], 7, 8, 0), ("irr150", jirr["irr150"], 2, 6, None),
        ("irr150", jirr["irr150"], 9, 6, 0),
    ]
    digest = hashlib.sha256()
    capped = 0
    for name, j, seed, trials, cap in runs:
        argv = ["construct", f"{name}.edges", "--j", str(j), "--seed", str(seed),
                "--trials", str(trials)]
        if cap is not None:
            argv += ["--max-resamples", str(cap)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        capped += sum(1 for ln in out.splitlines() if '"terminated": false' in ln)
        digest.update(f"{code}\n{out}".encode())
    assert capped >= 2  # the pin covers runs that hit the cap
    assert digest.hexdigest() == "6a51ba23ee36b7c52830a906c08617ca64fc7159032738a25c3e1dabe03add9d"


@pytest.mark.parametrize("cap", ["-1", "-5"])
def test_construct_negative_resample_cap_exit_3(tmp_path, capsys, cap):
    path = write_graph(tmp_path, random_regular(40, 12, 9))
    code, out, err = run_cli(capsys, "construct", path, "--j", "18", "--seed", "1",
                             "--max-resamples", cap)
    assert code == 3
    assert out == ""
    lines = [ln for ln in err.splitlines() if not ln.startswith("elapsed_seconds=")]
    assert len(lines) == 1 and lines[0].startswith("precondition:")
    assert "max_resamples" in lines[0]
