"""Tests of the benchmark itself, at toy sizes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from probe import REF_S, Probe, reference  # noqa: E402
from tracer import Tracer, self_times, summarize  # noqa: E402
from workloads import ROOT, WORKLOADS, import_funcgraphs, requests  # noqa: E402

TOY = {"asdim_n": 2_000, "hom_n": 3_000, "maps": 40, "map_size": 25,
       "ruling_n": 20_000, "template_n": 400, "countdown_n": 20_000,
       "shift_length": 200, "shift_count": 50}

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_untraced(workload):
    record = run.run(workload, 7, 0.2, trace=False, sizes=TOY, setup_reps=1)
    result = record["result"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(requests(workload, 7, "x", TOY))
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    for m in BENCH["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_outputs_equal_untraced(workload):
    record = run.run(workload, 7, 0.2, trace=True, sizes=TOY, setup_reps=1)
    result = record["result"]
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert all(m["unit"] == units[k] for k, m in result["metrics"].items())
    digests: dict[str, set[str]] = {}
    for rec in record["requests"]:
        digests.setdefault(rec["kind"], set()).add(rec["digest"])
    assert len(digests) == len(requests(workload, 7, "x", TOY))
    assert all(len(d) == 1 for d in digests.values())


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3].
    spans = [["root", 0.0, 10.0, -1, 0], ["a", 1.0, 4.0, 0, 0],
             ["c", 2.0, 3.0, 1, 0], ["b", 5.0, 9.0, 0, 0],
             ["a", 11.0, 12.0, -1, 1]]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    totals = summarize(spans)
    assert totals[(None, "a")] == [3.0, 2]
    by_req = summarize(spans, group=lambda r: r)
    assert by_req[(1, "a")] == [1.0, 1] and by_req[(0, "a")] == [2.0, 1]


def test_overlapping_children_count_once():
    spans = [["p", 0.0, 10.0, -1, 0], ["x", 2.0, 6.0, 0, 0],
             ["y", 4.0, 12.0, 0, 0]]
    assert self_times(spans)[0] == 2.0


def test_probe_samples_and_rescales():
    with Probe() as probe:
        while len(probe.samples) < 4:
            sum(range(10_000))
    assert probe.busy == sum(probe.samples[1:-1]) > 0
    assert 0 < probe.seconds < probe.end - probe.start
    assert reference(2.0, [REF_S, REF_S]) == 2.0
    assert reference(2.0, [2 * REF_S, 2 * REF_S]) == 1.0


def test_tracer_rebinds_and_restores():
    fg = import_funcgraphs()
    originals = (fg.asdim.greedy_hitting, fg.hitting.greedy_hitting,
                 fg.graphs.FunctionalGraph.ball,
                 fg.graphs.FunctionalGraph.__dict__["from_json_dict"])
    tracer = Tracer()
    tracer.install(fg)
    try:
        assert fg.asdim.greedy_hitting is fg.hitting.greedy_hitting
        assert fg.asdim.greedy_hitting is not originals[0]
        g = fg.graphs.FunctionalGraph.from_json_dict(
            {"n": 3, "succ": [1, 2, -1]})
        assert g.ball(0, 1) == {0, 1}
    finally:
        tracer.uninstall()
    assert (fg.asdim.greedy_hitting, fg.hitting.greedy_hitting,
            fg.graphs.FunctionalGraph.ball,
            fg.graphs.FunctionalGraph.__dict__["from_json_dict"]) == originals
    names = [s[0] for s in tracer.spans]
    assert names[0] == "graphs.from_json_dict" and "graphs.ball" in names


def test_fails_without_program_sources():
    bare = os.path.join(ROOT, run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "asdim",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == ""
