import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import funcgraphs
import oracles
from funcgraphs import hitting, homsolver
from funcgraphs.cli import _label_list, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


def write_template(tmp_path, name, m, edges):
    path = tmp_path / name
    path.write_text(json.dumps({"m": m, "edges": [list(e) for e in edges]}))
    return str(path)


def two_three_path(tmp_path):
    return write_template(tmp_path, "h23.json", 4,
                          [(0, 1), (1, 0), (0, 2), (2, 3), (3, 0)])


def test_gen_stdout_and_file(tmp_path, capsys):
    code, doc, err = run(capsys, "gen", "--kind", "path", "--n", "5")
    assert code == 0
    assert doc == {"n": 5, "succ": [1, 2, 3, 4, -1]}
    assert "n=5" in err

    out = tmp_path / "g.json"
    code, report, _ = run(capsys, "gen", "--kind", "forest", "--n", "40",
                          "--seed", "3", "--out", str(out))
    assert code == 0
    assert report["out"] == str(out)
    saved = json.loads(out.read_text())
    assert saved["n"] == 40 and len(saved["succ"]) == 40


def test_gen_is_deterministic(capsys):
    first = run(capsys, "gen", "--kind", "forest", "--n", "30", "--seed", "7")
    second = run(capsys, "gen", "--kind", "forest", "--n", "30", "--seed", "7")
    assert first[1] == second[1]


def test_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("FUNCGRAPHS_SEED", "9")
    code, report, _ = run(capsys, "hit", "--kind", "forest", "--n", "60")
    assert code == 0
    assert report["source"]["seed"] == 9


def test_hit_reports_verified_set(capsys):
    code, report, err = run(capsys, "hit", "--kind", "forest", "--n", "200",
                            "--seed", "1", "-r", "3")
    assert code == 0
    assert report["ok"] and report["independent"] and report["hitting"]
    assert report["members"] == sorted(report["members"])
    assert "independent=True" in err


def test_hit_rejects_malformed_graph_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    code, report, err = run(capsys, "hit", "--graph", str(bad))
    assert code == 2
    assert report is None
    assert "error" in err


def test_drhom_round_trip_and_labels_file(tmp_path, capsys):
    code, report, _ = run(capsys, "drhom", "--kind", "path", "--n", "30",
                          "-r", "2")
    assert code == 0
    assert report["ok"] and report["round_trip"]
    assert report["countdown_violations"] == 0

    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"labels": report["labels"]}))
    code, back, _ = run(capsys, "drhom", "--kind", "path", "--n", "30",
                        "-r", "2", "--labels", str(labels))
    assert code == 0
    assert back["ok"]

    tampered = list(report["labels"])
    tampered[0] = 1 if tampered[0] != 1 else 2
    labels.write_text(json.dumps({"labels": tampered}))
    code, _, err = run(capsys, "drhom", "--kind", "path", "--n", "30",
                       "-r", "2", "--labels", str(labels))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("spacing", ["0", "-2"])
def test_drhom_labels_with_a_spacing_below_one_are_a_usage_error(
        tmp_path, capsys, spacing):
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"labels": [1, 0, 1, 0]}))
    assert_one_line_error(*run(capsys, "drhom", "--kind", "path", "--n", "4",
                               "--labels", str(labels), "-r", spacing))


def test_asdim_pipeline_passes(capsys):
    code, report, err = run(capsys, "asdim", "--kind", "path", "--n", "600",
                            "--t", "1")
    assert code == 0
    assert report["ok"]
    assert report["report"]["t"]["1"]["cover"]["ok"]
    assert "ok=True" in err


def test_asdim_runs_each_distinct_t_once(capsys, monkeypatch):
    from funcgraphs import asdim
    calls = []
    hitting = asdim.greedy_hitting
    monkeypatch.setattr(asdim, "greedy_hitting",
                        lambda g, spacing: calls.append(spacing)
                        or hitting(g, spacing))
    code, report, err = run(capsys, "asdim", "--kind", "path", "--n", "2",
                            "--t", "2", "--t", "1", "--t", "2")
    assert code == 0
    assert sorted(report["report"]["t"]) == ["1", "2"]
    assert calls == [576, 144]
    assert "pipeline t=[2, 1]:" in err


def test_classify_template(tmp_path, capsys):
    loop = write_template(tmp_path, "loop.json", 2, [(0, 0), (0, 1), (1, 0)])
    code, report, err = run(capsys, "classify", "--template", loop)
    assert code == 0
    assert report["class"] == "loop"
    assert err.strip() == "Loop"

    code, report, _ = run(capsys, "classify", "--template",
                          two_three_path(tmp_path))
    assert code == 0
    assert report["class"] == "ergodic_no_loop"
    assert report["witness"] == {"vertex": 0, "threshold": 2}

    sinky = write_template(tmp_path, "sink.json", 2, [(0, 1)])
    code, _, err = run(capsys, "classify", "--template", sinky)
    assert code == 2
    assert "error" in err


def test_power_walks(tmp_path, capsys):
    h = two_three_path(tmp_path)
    code, doc, _ = run(capsys, "power", "--template", h, "-p", "2")
    assert code == 0
    assert doc["m"] == 4
    assert [1, 0] not in doc["edges"]

    code, doc, _ = run(capsys, "power", "--template", h, "--walk", "fb")
    assert code == 0
    assert [0, 0] in doc["edges"]

    with pytest.raises(SystemExit) as exc:
        main(["power", "--template", h, "-p", "2", "--walk", "f"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_hom_decides_on_total_graphs(tmp_path, capsys):
    two_cycle = write_template(tmp_path, "c2.json", 2, [(0, 1), (1, 0)])
    g3 = tmp_path / "c3.json"
    g3.write_text(json.dumps({"n": 3, "succ": [1, 2, 0]}))
    code, report, err = run(capsys, "hom", "--template", two_cycle,
                            "--graph", str(g3))
    assert code == 1
    assert report["mode"] == "decide" and not report["present"]
    assert "no homomorphism" in err

    g4 = tmp_path / "c4.json"
    g4.write_text(json.dumps({"n": 4, "succ": [1, 2, 3, 0]}))
    code, report, _ = run(capsys, "hom", "--template", two_cycle,
                          "--graph", str(g4))
    assert code == 0
    assert report["present"] and report["labels"] in ([0, 1, 0, 1], [1, 0, 1, 0])


def test_hom_solves_on_acyclic_graphs(tmp_path, capsys):
    loop = write_template(tmp_path, "loop.json", 1, [(0, 0)])
    code, report, _ = run(capsys, "hom", "--template", loop,
                          "--kind", "path", "--n", "12")
    assert code == 0
    assert report["template_class"] == "loop"
    assert report["labels"] == [0] * 12 and report["violations"] == 0

    code, report, _ = run(capsys, "hom", "--template", two_three_path(tmp_path),
                          "--kind", "forest", "--n", "400", "--seed", "2")
    assert code == 0
    assert report["template_class"] == "ergodic_no_loop"
    assert report["violations"] == 0 and report["labeled"] > 0

    two_cycle = write_template(tmp_path, "c2.json", 2, [(0, 1), (1, 0)])
    code, _, err = run(capsys, "hom", "--template", two_cycle,
                       "--kind", "path", "--n", "12")
    assert code == 2
    assert "error" in err


def test_hom_solve_builds_template_data_once(tmp_path, capsys, monkeypatch):
    built = []
    original = homsolver.ergodic_solver_data
    monkeypatch.setattr(homsolver, "ergodic_solver_data",
                        lambda h: built.append(h) or original(h))
    code, report, _ = run(capsys, "hom", "--template", two_three_path(tmp_path),
                          "--kind", "forest", "--n", "200", "--seed", "4")
    assert code == 0 and report["labeled"] > 0
    assert len(built) == 1


def test_hom_solve_counts_interior_violations_only(tmp_path, capsys,
                                                  monkeypatch):
    # label 0 everywhere: (0, 0) is no edge of the template, so every edge
    # of the path breaks, but only the interior ones count
    monkeypatch.setattr(homsolver, "solve_ergodic",
                        lambda g, data, hs: np.zeros(g.n, np.int64))
    code, report, _ = run(capsys, "hom", "--template", two_three_path(tmp_path),
                          "--kind", "path", "--n", "30")
    assert code == 1 and 0 < report["interior_horizon"] < 30
    assert report["violations"] == 30 - report["interior_horizon"]


def test_shift_countdown_report(capsys):
    code, report, err = run(capsys, "shift", "-r", "1", "--length", "120",
                            "--count", "60", "--seed", "4")
    assert code == 0
    assert report["ok"] and report["violations"] == 0
    assert report["dense_found"] == 60
    assert "0 violations" in err


def test_shift_validates_each_sample_once(capsys, monkeypatch):
    validate, calls = funcgraphs.shift.validate_seq, []

    def counted(xs):
        calls.append(len(xs))
        return validate(xs)

    def no_second_pass(x, y, r):
        raise AssertionError("dense windows searched apart")

    monkeypatch.setattr(funcgraphs.shift, "validate_seq", counted)
    monkeypatch.setattr(funcgraphs.shift, "dense_window_index", no_second_pass)
    code, report, _ = run(capsys, "shift", "--length", "200", "--count", "7")
    assert code == 0 and report["dense_found"] == 7
    assert calls == [200] * (7 + 2)


@pytest.mark.parametrize("argv", [
    ["-r", "0", "--length", "3000000", "--count", "1"],
    ["--count", "-1", "--length", "3000000"],
    ["--length", str(funcgraphs.shift.MAX_LENGTH + 1)],
])
def test_shift_arguments_are_checked_before_any_draw(capsys, monkeypatch,
                                                      argv):
    monkeypatch.setattr(funcgraphs.shift.random, "Random", oracles.no_draws)
    assert_one_line_error(*run(capsys, "shift", *argv))


def test_local_ruling_and_template(tmp_path, capsys):
    code, report, _ = run(capsys, "local", "-r", "2", "--n", "64",
                          "--seed", "5")
    assert code == 0
    assert report["ok"] and report["rounds"] == 40

    code, report, _ = run(capsys, "local", "--template",
                          two_three_path(tmp_path), "--n", "80", "--seed", "5")
    assert code == 0
    assert report["ok"] and report["labeled"] > 0 and report["violations"] == 0

    code, _, err = run(capsys, "local", "-r", "2", "--n", "64", "--cap", "10")
    assert code == 2
    assert "error" in err

    code, _, err = run(capsys, "local", "-r", "2", "--template",
                       two_three_path(tmp_path))
    assert code == 2
    code, _, err = run(capsys, "local")
    assert code == 2


def test_reports_are_byte_identical(capsys):
    main(["hit", "--kind", "forest", "--n", "150", "--seed", "8"])
    first = capsys.readouterr().out
    main(["hit", "--kind", "forest", "--n", "150", "--seed", "8"])
    second = capsys.readouterr().out
    assert first == second


def assert_one_line_error(code, report, err):
    assert code == 2 and report is None
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("doc", [
    {"n": 2, "succ": [True, -1]},
    {"n": 2, "succ": [1.5, -1]},
    {"n": 2, "succ": ["1", -1]},
    {"n": 2.0, "succ": [1, -1]},
    {"n": True, "succ": [-1]},
])
def test_hom_rejects_mistyped_graph_json(tmp_path, capsys, doc):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(doc))
    template = write_template(tmp_path, "loop.json", 1, [(0, 0)])
    assert_one_line_error(*run(capsys, "hom", "--template", template,
                               "--graph", str(graph)))


@pytest.mark.parametrize("doc", [
    {"m": 2, "edges": [[0, True], [1, 0]]},
    {"m": 2, "edges": [[0, 1.0], [1, 0]]},
    {"m": 2, "edges": [[0, 1, 1], [1, 0]]},
    {"m": 2, "edges": [[0, 1], 1]},
    {"m": True, "edges": [[0, 0]]},
])
def test_hom_rejects_mistyped_template_json(tmp_path, capsys, doc):
    template = tmp_path / "h.json"
    template.write_text(json.dumps(doc))
    assert_one_line_error(*run(capsys, "hom", "--template", str(template),
                               "--kind", "total", "--n", "5"))


def test_hom_on_cyclic_partial_graph_is_a_usage_error(tmp_path, capsys):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"n": 3, "succ": [1, 0, -1]}))
    assert_one_line_error(*run(capsys, "hom",
                               "--template", two_three_path(tmp_path),
                               "--graph", str(graph)))
    # a loop template still labels any graph
    loop = write_template(tmp_path, "loop.json", 1, [(0, 0)])
    code, report, _ = run(capsys, "hom", "--template", loop,
                          "--graph", str(graph))
    assert code == 0 and report["labels"] == [0, 0, 0]


@pytest.mark.parametrize("argv", [
    ["gen", "--kind", "total", "--n", "0"],
    ["hit", "--n", "0"],
    ["asdim", "--kind", "path", "--n", "-1"],
    ["hom", "--kind", "total", "--n", "0"],
])
def test_generator_rejects_empty_graphs(tmp_path, capsys, argv):
    if argv[0] == "hom":
        argv = [*argv, "--template", two_three_path(tmp_path)]
    assert_one_line_error(*run(capsys, *argv))


def test_module_entry_point():
    src = os.path.dirname(os.path.dirname(funcgraphs.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-m", "funcgraphs", "gen", "--kind", "path",
         "--n", "3"], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0
    assert json.loads(done.stdout) == {"n": 3, "succ": [1, 2, -1]}


@pytest.mark.parametrize("argv", [
    ["hit", "--graph", "cyclic.json"],
    ["drhom", "--graph", "cyclic.json"],
    ["asdim", "--graph", "cyclic.json"],
    ["hit", "--kind", "path", "--n", "10", "-r", "0"],
    ["drhom", "--kind", "path", "--n", "10", "-r", "0"],
    ["asdim", "--kind", "path", "--n", "10", "--t", "0"],
    ["shift", "--length", "0"],
    ["shift", "-r", "0", "--count", "0"],
    ["shift", "--count", "-1"],
    ["local", "-r", "1", "--n", "5", "--segments", "9"],
    ["local", "-r", "1", "--n", "2097152"],
    ["drhom", "--graph", "path.json", "--labels", "nested.json"],
    ["drhom", "--graph", "path.json", "--labels", "float.json"],
    ["drhom", "--graph", "path.json", "--labels", "bool.json"],
    ["drhom", "--graph", "path.json", "--labels", "negative.json"],
])
def test_out_of_domain_input_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                               argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cyclic.json").write_text(json.dumps({"n": 2, "succ": [1, 0]}))
    (tmp_path / "path.json").write_text(json.dumps({"n": 2, "succ": [1, -1]}))
    bad_labels = {"nested": [[1], 0], "float": [1.7, 0], "bool": [True, 0],
                  "negative": [-1, 0]}
    for name, labels in bad_labels.items():
        (tmp_path / f"{name}.json").write_text(json.dumps({"labels": labels}))
    assert_one_line_error(*run(capsys, *argv))


@pytest.mark.parametrize("argv", [
    ["power", "--template", "h23.json", "--walk", ""],
    ["gen", "--n", "5", "--out", "missing/g.json"],
    ["power", "--template", "h23.json", "-p", "2", "--out", "missing/h.json"],
])
def test_empty_walk_and_unwritable_out_are_usage_errors(tmp_path, capsys,
                                                        monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    two_three_path(tmp_path)
    assert_one_line_error(*run(capsys, *argv))


@pytest.mark.parametrize("p", ["0", "-1", "100001", str(10 ** 20)])
def test_power_exponent_out_of_range_is_a_usage_error(tmp_path, capsys,
                                                      monkeypatch, p):
    def no_walk(h, walk):
        raise AssertionError("walk power built")

    monkeypatch.setattr(funcgraphs.digraphs, "power_walk", no_walk)
    code, report, err = run(capsys, "power", "--template",
                            two_three_path(tmp_path), "-p", p)
    assert_one_line_error(code, report, err)
    assert "-p" in err


@pytest.mark.parametrize("cap", [[], ["--cap", "10"]])
def test_unprintable_spacing_is_a_usage_error_before_the_build(
        capsys, monkeypatch, cap):
    # 4000 digits parse, but 3**13289 rounds exceed the 4300-digit limit
    # on printing an int
    def no_network(*args, **kwargs):
        raise AssertionError("network built")

    monkeypatch.setattr(funcgraphs.local_sim, "make_path_network", no_network)
    code, report, err = run(capsys, "local", "-r", "9" * 4000, "--n", "50",
                            *cap)
    assert_one_line_error(code, report, err)
    assert "-r" in err


@pytest.mark.parametrize("template", ["missing", "loop"])
def test_unusable_template_is_a_usage_error_before_the_build(
        tmp_path, capsys, monkeypatch, template):
    def no_network(*args, **kwargs):
        raise AssertionError("network built")

    monkeypatch.setattr(funcgraphs.local_sim, "make_path_network", no_network)
    path = (str(tmp_path / "missing.json") if template == "missing"
            else write_template(tmp_path, "loop.json", 2,
                                [(0, 1), (1, 1), (1, 0)]))
    code, report, err = run(capsys, "local", "--template", path,
                            "--n", "2097151")
    assert_one_line_error(code, report, err)


@pytest.mark.parametrize("command", ["hom", "local"])
@pytest.mark.parametrize("cap", [29, 30])
def test_ergodic_tables_above_the_cap_are_a_usage_error(
        tmp_path, capsys, monkeypatch, command, cap):
    # the template needs (m + c)(L + 1) = (4 + 2) * (4 + 1) = 30 entries
    monkeypatch.setattr(homsolver, "MAX_TABLE_ENTRIES", cap)
    if cap < 30:
        def no_walk(*args):
            raise AssertionError("tables built")

        monkeypatch.setattr(funcgraphs.Digraph, "least_walk", no_walk)
    code, report, err = run(capsys, command, "--template",
                            two_three_path(tmp_path), "--n", "200")
    if cap < 30:
        assert_one_line_error(code, report, err)
        assert "30 entries" in err
    else:
        assert code == 0 and report["labeled"] > 0


def test_huge_printable_spacing_runs(capsys):
    code, report, _ = run(capsys, "local", "-r", str(2 ** 2000), "--n", "50",
                          "--segments", "3")
    assert code == 0 and report["ok"] and report["members"] == 3
    assert report["gap_bound"] == 3 ** 2001


def test_inputs_too_large_to_allocate_are_usage_errors(tmp_path, capsys,
                                                       monkeypatch):
    def out_of_memory(h, walk):
        raise MemoryError

    monkeypatch.setattr(funcgraphs.digraphs, "power_walk", out_of_memory)
    assert_one_line_error(*run(capsys, "power", "--template",
                               two_three_path(tmp_path), "-p", "3"))


RANDOM_GRAPH_ARGV = [
    ["gen", "--kind", "forest"],
    ["gen", "--kind", "total"],
    ["hit"],
    ["drhom"],
    ["asdim"],
    ["hom", "--template", "h23.json"],
]


@pytest.mark.parametrize("argv",
                         RANDOM_GRAPH_ARGV + [["gen", "--kind", "path"]])
@pytest.mark.parametrize("n", [2 ** 63, 10 ** 20])
def test_generator_sizes_beyond_int64_are_usage_errors(tmp_path, capsys,
                                                       monkeypatch, argv, n):
    monkeypatch.chdir(tmp_path)
    two_three_path(tmp_path)
    monkeypatch.setattr(funcgraphs.graphs.random, "Random", oracles.no_draws)
    assert_one_line_error(*run(capsys, *argv, "--n", str(n)))


@pytest.mark.parametrize("argv", RANDOM_GRAPH_ARGV)
def test_random_graph_sizes_above_the_cap_are_usage_errors(tmp_path, capsys,
                                                           monkeypatch, argv):
    # MAX_GEN_NODES + 1: rejected before any draw, never generated
    monkeypatch.chdir(tmp_path)
    two_three_path(tmp_path)
    monkeypatch.setattr(funcgraphs.graphs.random, "Random", oracles.no_draws)
    code, report, err = run(capsys, *argv, "--n", "4294967296")
    assert_one_line_error(code, report, err)
    assert "4294967295" in err


@pytest.mark.parametrize("argv", [["classify"], ["hom", "--n", "10"]])
def test_sinky_template_with_a_huge_m_is_a_usage_error(tmp_path, capsys,
                                                       monkeypatch, argv):
    def no_adjacency(self):  # m lists: far too many to allocate
        raise AssertionError("adjacency lists built")

    monkeypatch.setattr(funcgraphs.digraphs.Digraph, "adj", no_adjacency)
    template = write_template(tmp_path, "h.json", 10 ** 20, [])
    code, report, err = run(capsys, *argv, "--template", template)
    assert_one_line_error(code, report, err)
    assert "sink" in err


@pytest.mark.parametrize("argv", [
    ["hit", "--n", "10"],
    ["classify", "--template", "h.json"],
])
def test_malformed_seed_variable_is_a_usage_error(capsys, monkeypatch, argv):
    # the variable is read while the parser is built, for every command
    monkeypatch.setenv("FUNCGRAPHS_SEED", "abc")
    assert_one_line_error(*run(capsys, *argv))


def test_drhom_labels_beyond_int64(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "path.json").write_text(json.dumps({"n": 2, "succ": [1, -1]}))
    labels = tmp_path / "big.json"
    labels.write_text(json.dumps({"labels": [2 ** 70, 2 ** 70 - 1]}))
    code, report, _ = run(capsys, "drhom", "--graph", "path.json",
                          "--labels", "big.json")
    assert code == 0
    assert report == {"source": "path.json", "spacing": 4, "members": [],
                      "ok": True}
    # off by one at 2**70 is still a countdown violation
    labels.write_text(json.dumps({"labels": [2 ** 70, 2 ** 70]}))
    assert_one_line_error(*run(capsys, "drhom", "--graph", "path.json",
                               "--labels", "big.json"))


def test_drhom_checks_the_labels_once(capsys, monkeypatch):
    calls = []
    label_array = hitting.label_array
    monkeypatch.setattr(hitting, "label_array",
                        lambda labels: calls.append(1) or label_array(labels))
    code, report, _ = run(capsys, "drhom", "--kind", "forest", "--n", "200")
    assert code == 0 and report["round_trip"] and len(calls) == 1


def test_drhom_reports_a_broken_labeling(capsys, monkeypatch):
    monkeypatch.setattr(hitting, "labeling_from_hitting",
                        lambda g, members: np.zeros(g.n, np.int64))
    code, report, err = run(capsys, "drhom", "--kind", "path", "--n", "5")
    assert code == 1 and report["countdown_violations"] == 4
    assert not report["round_trip"] and not report["ok"]
    assert "round trip BROKEN" in err


@pytest.mark.parametrize("spacing", [2 ** 63 - 1, 2 ** 63, 2 ** 70])
def test_spacings_beyond_int64(capsys, spacing):
    code, report, _ = run(capsys, "hit", "--kind", "path", "--n", "5",
                          "-r", str(spacing))
    assert code == 0 and report["members"] == [4]
    code, report, _ = run(capsys, "drhom", "--kind", "path", "--n", "5",
                          "-r", str(spacing))
    assert code == 0 and report["labels"] == [4, 3, 2, 1, 0]


def test_asdim_with_a_large_t(capsys):
    code, report, _ = run(capsys, "asdim", "--kind", "path", "--n", "50",
                          "--t", "1000000")
    assert code == 0 and report["ok"]
    params = report["report"]["t"]["1000000"]["params"]
    assert params["spacing"] == 144 * 10 ** 12


def test_asdim_t_beyond_int64_is_a_usage_error(capsys):
    assert_one_line_error(*run(capsys, "asdim", "--kind", "path", "--n",
                               "50", "--t", "10000000000"))


NEAR_INTS = st.sampled_from([0.0, 1.0, 0.5, True, False, "0", [0]])
JUNK = st.one_of(NEAR_INTS, st.floats(), st.text(max_size=3),
                 st.lists(st.integers(), max_size=2),
                 st.dictionaries(st.text(max_size=2), st.integers(),
                                 max_size=1))


@st.composite
def graph_files(draw):
    """(JSON text of a graph file, whether it is malformed)."""
    n = draw(st.integers(0, 8))
    succ = draw(st.lists(st.integers(-1, n - 1), min_size=n, max_size=n))
    doc: object = {"n": n, "succ": succ}
    kind = draw(st.sampled_from(
        ["ok", "ok", "ok", "length", "range", "entry", "entry", "n", "shape",
         "text"]))
    if kind in ("range", "entry") and n:
        i = draw(st.integers(0, n - 1))
        succ[i] = draw(st.one_of(st.integers(max_value=-2),
                                 st.integers(min_value=n)) if kind == "range"
                       else st.one_of(NEAR_INTS, st.none(), JUNK))
    elif kind == "length":
        doc["succ"] = succ + [-1]
    elif kind == "n":
        doc["n"] = draw(st.one_of(st.none(), JUNK, st.integers().filter(
            lambda k: k != n)))
    elif kind == "shape":
        doc = draw(st.sampled_from(
            [[], succ, "graph", n, {"n": n}, {"succ": succ},
             {"n": n, "succ": n + 1}, {"n": n, "succ": "ab"}]))
    elif kind == "text":
        return draw(st.sampled_from(["", "{", "nul", "[1,", "{\"n\": }"])), True
    return json.dumps(doc), kind != "ok" and (n or kind not in ("range",
                                                                 "entry"))


@st.composite
def labels_files(draw, n: int):
    """(JSON text of a labels file for n vertices, whether it is
    malformed)."""
    labels = draw(st.lists(st.one_of(
        st.none(), st.integers(0, 9), st.integers(2 ** 62, 2 ** 72)),
        min_size=n, max_size=n))
    doc: object = {"labels": labels}
    kind = draw(st.sampled_from(
        ["ok", "ok", "entry", "entry", "negative", "length", "shape"]))
    if kind in ("entry", "negative"):
        if draw(st.booleans()):  # no other label, so no countdown breaks
            labels[:] = [None] * n
        labels[draw(st.integers(0, n - 1))] = draw(
            JUNK if kind == "entry" else st.integers(max_value=-1))
    elif kind == "length":
        labels.append(0)
    elif kind == "shape":
        doc = draw(st.sampled_from([labels, {"labels": 5}, {"labels": "ab"},
                                    {"labels": {"a": 1}}, {"label": labels}]))
    return json.dumps(doc), kind != "ok"


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(graph_files(), st.sampled_from(["hit", "drhom", "hom"]),
       st.integers(1, 3))
def test_fuzzed_graph_files_give_a_verdict_or_a_usage_error(
        tmp_path, capsys, case, command, spacing):
    text, malformed = case
    graph = tmp_path / "g.json"
    graph.write_text(text)
    argv = [command, "--graph", str(graph)]
    argv += (["--template", write_template(tmp_path, "loop.json", 1,
                                           [(0, 0)])]
             if command == "hom" else ["-r", str(spacing)])
    code, report, err = run(capsys, *argv)
    assert code in (0, 1, 2)
    if malformed:
        assert_one_line_error(code, report, err)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data(), st.integers(1, 3))
def test_fuzzed_labels_files_give_a_verdict_or_a_usage_error(
        tmp_path, capsys, data, spacing):
    n = data.draw(st.integers(1, 8))
    succ = data.draw(st.lists(st.integers(-1, n - 1), min_size=n,
                              max_size=n))
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"n": n, "succ": succ}))
    text, malformed = data.draw(labels_files(n))
    labels = tmp_path / "labels.json"
    labels.write_text(text)
    code, report, err = run(capsys, "drhom", "--graph", str(graph),
                            "--labels", str(labels), "-r", str(spacing))
    assert code in (0, 2)
    if malformed:
        assert_one_line_error(code, report, err)
    if code == 0:
        assert report["members"] == [x for x, v in enumerate(
            json.loads(text)["labels"]) if v == 0]


@st.composite
def template_files(draw):
    """(JSON text of a template file, whether it is malformed)."""
    m = draw(st.integers(1, 4))
    pairs = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))
    edges = [list(e) for e in sorted(draw(st.sets(pairs, min_size=1)))]
    doc: object = {"m": m, "edges": edges}
    kind = draw(st.sampled_from(["ok", "ok", "ok", "range", "entry", "arity",
                                 "duplicate", "m", "shape"]))
    i = draw(st.integers(0, len(edges) - 1))
    if kind == "range":
        edges[i][draw(st.integers(0, 1))] = draw(st.one_of(
            st.integers(max_value=-1), st.integers(min_value=m)))
    elif kind == "entry":
        edges[i][draw(st.integers(0, 1))] = draw(st.one_of(
            NEAR_INTS, st.none(), JUNK))
    elif kind == "arity":
        edges[i] = draw(st.sampled_from([edges[i][:1], edges[i] + [0], []]))
    elif kind == "duplicate":
        edges.append(list(edges[i]))
    elif kind == "m":
        doc["m"] = draw(st.one_of(st.none(), JUNK))
    elif kind == "shape":
        doc = draw(st.sampled_from([[], edges, "h", {"m": m}, {"edges": edges},
                                    {"m": m, "edges": 3}]))
    return json.dumps(doc), kind != "ok"


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(template_files(), st.sampled_from([
    ["classify"], ["power", "-p", "2"], ["hom", "--kind", "total", "--n", "6"],
    ["hom", "--kind", "forest", "--n", "40"]]))
def test_fuzzed_template_files_give_a_verdict_or_a_usage_error(
        tmp_path, capsys, case, command):
    text, malformed = case
    template = tmp_path / "h.json"
    template.write_text(text)
    code, report, err = run(capsys, *command, "--template", str(template))
    assert code in (0, 1, 2)
    if malformed:
        assert_one_line_error(code, report, err)


@pytest.mark.parametrize("labels", [
    np.array([0, 3, 1, 2**40]), np.arange(1000), np.array([-1, 0, 5, -1]),
    np.array([-1]), np.array([], dtype=np.int64)])
def test_label_list_writes_ints_and_nulls(labels):
    got = _label_list(labels)
    assert json.dumps(got) == json.dumps(
        [None if v < 0 else v for v in labels.tolist()])
    assert all(v is None or type(v) is int for v in got)
