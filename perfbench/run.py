"""Benchmark of whole funcgraphs CLI requests, one workload per process.

    python3 perfbench/run.py --workload <asdim|hom|local|countdown> \\
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; funcgraphs is imported from its ``src``.
Set-up writes the workload's input files under ``.perfbench_out/``.
Requests are ``funcgraphs.cli.main(argv)`` calls made in-process, with
stdout and stderr captured, as a closed loop from a single client (one
process, one thread).  The fixed request list of the workload runs round
robin until ``--seconds`` is spent; the first pass always completes.

A request fails on an exception, a nonzero exit, a report without
``"ok": true`` (``"present": true`` for a decision), or a stdout sha256
that differs from the first run of the same request in this process or,
at the default seed, from ``perfbench/digests.json``.

Times reported as metrics are reference seconds: each measured time is
rescaled by a machine-speed probe sampled while it ran (see probe.py),
because the shared hosts this runs on drift in speed by more than any
useful regression bound.

``--trace 0`` reports the end-to-end metrics:
  setup_s      median over SETUP_REPS fresh processes that each import
               funcgraphs and write the inputs
  wall_s       time for one pass of the request list: the sum over
               request kinds of that kind's median latency
  peak_rss_mb  peak resident memory of this process
``--trace 1`` spends half the time untraced and half traced, in whole
passes, and reports per-layer metrics per pass of the request list:
self time and call counts of the wrapped functions (see tracer.py;
self times are wall seconds and include the probe's ~3%), counters
read from the reports, ``cli.<subcommand>.p50_s`` from the untraced
half, and ``trace.overhead_s`` (traced minus untraced wall_s).

The last line of stdout is the JSON result.  The environment, request
counts and latencies go to ``.perfbench_out/results/`` and stderr, and
the spans of a traced run to ``.perfbench_out/spans/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from collections import defaultdict
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from probe import Probe, reference  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402
from workloads import (ROOT, SIZES, WORKLOADS, import_funcgraphs,  # noqa: E402
                       requests)

DEFAULT_SEED = 0
SETUP_REPS = 5
OUT = ".perfbench_out"
DIGESTS = os.path.join(HERE, "digests.json")
SUBCOMMANDS = ("asdim", "hom", "local", "hit", "drhom", "shift")

# Per-layer span metrics; each name is a span name plus .self_s or .calls.
SPAN_METRICS = [
    "graphs.gen.self_s", "graphs.from_json_dict.self_s",
    "graphs.forward_iterates.self_s", "graphs.ball.self_s",
    "graphs.ball.calls", "graphs.proximity_classes.self_s",
    "graphs.class_diameters.self_s", "graphs.interior.self_s",
    "graphs.adjacency.self_s", "graphs.predecessors.self_s",
    "graphs.cycles.calls",
    "hitting.greedy_hitting.self_s", "hitting.is_forward_independent.self_s",
    "hitting.is_hitting.self_s", "hitting.hitting_from_cover.self_s",
    "hitting.hitting_from_equivalence.self_s",
    "hitting.labeling_from_hitting.self_s",
    "hitting.countdown_violations.self_s",
    "hitting.hitting_from_labeling.self_s",
    "asdim.distance_parity_coloring.self_s", "asdim.flip_dists.self_s",
    "asdim.anchors.self_s", "asdim.equivalence_from_hitting.self_s",
    "asdim.verify_cover_witness.self_s", "asdim.verify_eqrel_witness.self_s",
    "asdim.check_flip_bounds.self_s", "asdim.check_anchor_preimages.self_s",
    "asdim.check_class_reaches_anchor.self_s",
    "asdim.distance_parity_coloring.calls", "asdim.flip_dists.calls",
    "homsolver.decide_hom.self_s", "homsolver.solve_ergodic.self_s",
    "homsolver.hom_violations.self_s", "homsolver.ergodic_solver_data.calls",
    "digraphs.classify.self_s",
    "local_sim.make_path_network.self_s", "local_sim.verify_ruling.self_s",
    "local_sim.run_local.vector.self_s",
    "local_sim.run_local.reference.self_s",
    "shift.check_countdown_pairs.self_s", "shift.dense_window_index.self_s",
    "shift.dense_window_index.calls", "shift.sample_dominated.self_s",
    "cli.self_s",
]
# Counters read from the CLI reports.
REPORT_COUNTERS = ["asdim.checked_classes", "asdim.skipped_classes",
                   "asdim.checked_balls", "asdim.checked_pairs",
                   "local_sim.rounds", "local_sim.node_steps",
                   "cli.stdout_bytes"]


def execute(main, argv: list[str]) -> dict:
    """One CLI request: latency (wall and reference seconds), verdict,
    stdout digest and size."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with Probe() as probe:
        try:
            with (contextlib.redirect_stdout(out),
                  contextlib.redirect_stderr(err)):
                code = main(argv)
        except (Exception, SystemExit):
            error = traceback.format_exc()
    text = out.getvalue()
    report = None
    if code == 0:
        try:
            report = json.loads(text.splitlines()[-1])
        except (ValueError, IndexError):
            error = "stdout is not a JSON report"
    ok = (isinstance(report, dict)
          and (report.get("ok") is True or report.get("present") is True))
    if not ok and error is None:
        error = f"exit {code}: {err.getvalue().strip()}"
    data = text.encode()
    return {"seconds": probe.seconds, "ref_s": probe.reference_s(),
            "ok": ok, "error": error,
            "digest": hashlib.sha256(data).hexdigest(), "bytes": len(data),
            "counters": counters(report) if ok else {}}


def counters(report: dict) -> dict:
    """Work counts the CLI report states, keyed by metric name."""
    out: dict = defaultdict(int)
    for per_t in report.get("report", {}).get("t", {}).values():
        for section in ("cover", "equivalence", "class_reaches_anchor"):
            out["asdim.checked_classes"] += per_t[section]["checked_classes"]
            out["asdim.skipped_classes"] += per_t[section]["skipped_classes"]
        out["asdim.checked_balls"] += per_t["equivalence"]["checked_balls"]
        out["asdim.checked_pairs"] += \
            per_t["class_reaches_anchor"]["checked_pairs"]
    if "rounds" in report:
        out["local_sim.rounds"] += report["rounds"]
        if report["engine"] == "reference":
            out["local_sim.node_steps"] += report["rounds"] * report["n"]
    return out


class Phase:
    """Closed-loop run of a request list, untraced or traced."""

    def __init__(self, main, reqs, seconds: float, whole_passes: bool,
                 tracer: Tracer | None = None):
        self.reqs, self.tracer = reqs, tracer
        self.main = main if tracer is None else tracer.wrap("cli", main)
        self.seconds, self.whole_passes = seconds, whole_passes
        self.records: list[dict] = []
        self.latency: dict[str, list[float]] = defaultdict(list)
        self.ref_s: dict[str, list[float]] = defaultdict(list)

    def run(self, check) -> None:
        deadline = perf_counter() + self.seconds
        i = 0
        while True:
            k = i % len(self.reqs)
            kind, argv = self.reqs[k]
            if i >= len(self.reqs) and (k == 0 or not self.whole_passes):
                ahead = (self.reqs if self.whole_passes
                         else self.reqs[k:k + 1])
                guess = sum(statistics.median(self.latency[name])
                            for name, _ in ahead)
                if perf_counter() + guess > deadline:
                    break
            if self.tracer is not None:
                self.tracer.request = len(self.records)
            rec = execute(self.main, argv)
            rec["kind"] = kind
            check(rec)
            self.records.append(rec)
            self.latency[kind].append(rec["seconds"])
            self.ref_s[kind].append(rec["ref_s"])
            i += 1

    @property
    def passes(self) -> int:
        return len(self.records) // len(self.reqs)

    def wall_s(self) -> float:
        return sum(statistics.median(v) for v in self.ref_s.values())


class Checker:
    """Marks a request failed when its stdout digest is not the expected
    one: the committed default-seed digest, else the first one seen."""

    def __init__(self, expected: dict[str, str]):
        self.expected = dict(expected)
        self.failed = 0
        self.attempted = 0

    def __call__(self, rec: dict) -> None:
        want = self.expected.setdefault(rec["kind"], rec["digest"])
        if rec["ok"] and rec["digest"] != want:
            rec["ok"], rec["error"] = False, "stdout digest mismatch"
        self.attempted += 1
        if not rec["ok"]:
            self.failed += 1
            print(f"FAILED {rec['kind']}: {rec['error']}", file=sys.stderr)


def set_up(workload: str, seed: int, sizes: dict,
           reps: int) -> tuple[float, str, dict]:
    """Run set-up ``reps`` times in fresh processes; median time in
    reference seconds, rescaled by the probe each set-up ran."""
    in_dir = os.path.join(OUT, workload, "inputs")
    times = []
    argv = [sys.executable, os.path.join(HERE, "workloads.py"), workload,
            str(seed), in_dir, json.dumps(sizes)]
    for _ in range(reps):
        shutil.rmtree(in_dir, ignore_errors=True)
        start = perf_counter()
        proc = subprocess.Popen(argv)
        # A blocking wait; Popen.wait(timeout) polls in 50 ms steps.
        watchdog = threading.Timer(150, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        seconds = perf_counter() - start
        if code != 0:
            raise subprocess.CalledProcessError(code, argv)
        with open(os.path.join(in_dir, "probe.json")) as fh:
            probe = json.load(fh)
        times.append(reference(seconds - probe["busy"], probe["samples"]))
    with open(os.path.join(in_dir, "facts.json")) as fh:
        facts = json.load(fh)
    return statistics.median(times), in_dir, facts


def layer_metrics(untraced: Phase, traced: Phase,
                  tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per pass of the request list."""
    passes = traced.passes
    totals = summarize(tracer.spans)
    out: dict[str, tuple[float, str]] = {}
    for metric in SPAN_METRICS:
        span, _, field = metric.rpartition(".")
        self_s, calls = totals.get((None, span), (0.0, 0))
        out[metric] = ((self_s, "s") if field == "self_s"
                       else (calls, "count"))
    summed: dict = defaultdict(int)
    for rec in traced.records:
        for name, value in rec["counters"].items():
            summed[name] += value
        summed["cli.stdout_bytes"] += rec["bytes"]
    for name in REPORT_COUNTERS:
        out[name] = (summed[name], "bytes" if name.endswith("bytes")
                     else "count")
    out = {k: (v / passes, unit) for k, (v, unit) in out.items()}
    seen = out["asdim.checked_classes"][0] + out["asdim.skipped_classes"][0]
    out["asdim.skip_ratio"] = (
        out["asdim.skipped_classes"][0] / seen if seen else 0.0, "ratio")
    subcommand = {kind: argv[0] for kind, argv in untraced.reqs}
    by_sub: dict[str, list[float]] = defaultdict(list)
    for rec in untraced.records:
        by_sub[subcommand[rec["kind"]]].append(rec["ref_s"])
    for sub in SUBCOMMANDS:
        samples = by_sub.get(sub, [])
        out[f"cli.{sub}.p50_s"] = (
            statistics.median(samples) if samples else 0.0, "s")
        out[f"cli.{sub}.samples"] = (len(samples), "count")
    out["trace.overhead_s"] = (traced.wall_s() - untraced.wall_s(), "s")
    return out


def predictions(tracer: Tracer, traced: Phase, facts: dict) -> list[str]:
    """Check the predicted shape of the traced run, per request of a kind."""
    kinds = [rec["kind"] for rec in traced.records]
    per_kind = summarize(tracer.spans, group=lambda req: kinds[req])
    by_kind: dict[str, dict[str, tuple[float, float]]] = defaultdict(dict)
    for (kind, span), (self_s, calls) in per_kind.items():
        n = kinds.count(kind)
        by_kind[kind][span] = (self_s / n, calls / n)

    def top(kind: str) -> tuple[str, float]:
        spans = {k: v[0] for k, v in by_kind[kind].items() if k != "cli"}
        name = max(spans, key=spans.__getitem__)
        return name, spans[name]

    def self_s(kind: str, span: str) -> float:
        return by_kind[kind].get(span, (0.0, 0))[0]

    lines = []
    if "asdim.forest" in by_kind:
        want = "hitting.hitting_from_equivalence"
        got, most = top("asdim.forest")
        lines.append(_verdict(got == want,
                              f"largest self time on asdim.forest is {want} "
                              f"({self_s('asdim.forest', want):.3f} s; "
                              f"largest is {got}, {most:.3f} s)"))
    if "hom.maps" in by_kind:
        calls = by_kind["hom.maps"].get("graphs.cycles", (0.0, 0))[1]
        comps = facts["maps_components"]
        lines.append(_verdict(calls == comps,
                              f"graphs.cycles calls on hom.maps ({calls:g}) "
                              f"equal its weak components ({comps})"))
    if "local.template" in by_kind:
        got, most = top("local.template")
        lines.append(_verdict(got == "local_sim.run_local.reference",
                              "local_sim.run_local.reference dominates "
                              f"local.template (largest is {got}, "
                              f"{most:.3f} s)"))
    if "local.ruling" in by_kind:
        build = (self_s("local.ruling", "local_sim.make_path_network")
                 + self_s("local.ruling", "local_sim.verify_ruling"))
        vector = self_s("local.ruling", "local_sim.run_local.vector")
        lines.append(_verdict(build > vector,
                              f"make_path_network + verify_ruling ({build:.3f}"
                              f" s) exceed run_local.vector ({vector:.3f} s) "
                              "on local.ruling"))
    return lines


def _verdict(holds: bool, text: str) -> str:
    return f"prediction {'holds' if holds else 'FAILS'}: {text}"


def environment(seed: int, sizes: dict) -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "seed": seed, "sizes": sizes}


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: dict = SIZES, setup_reps: int = SETUP_REPS) -> dict:
    """Run one workload; the working directory must be the checkout root.

    Returns the result line plus a record of how it was obtained.
    """
    setup_s, in_dir, facts = set_up(workload, seed, sizes, setup_reps)
    funcgraphs = import_funcgraphs()
    import funcgraphs.cli
    main = funcgraphs.cli.main
    reqs = requests(workload, seed, in_dir, sizes)
    expected = {}
    if seed == DEFAULT_SEED and sizes == SIZES:
        with open(DIGESTS) as fh:
            expected = json.load(fh)[workload]
    check = Checker(expected)
    record: dict = {"workload": workload, "environment":
                    environment(seed, sizes), "seconds": seconds}
    if not trace:
        phase = Phase(main, reqs, seconds, whole_passes=False)
        phase.run(check)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"setup_s": (setup_s, "s"),
                   "wall_s": (phase.wall_s(), "s"),
                   "peak_rss_mb": (peak_mb, "MB")}
        phases = [phase]
    else:
        untraced = Phase(main, reqs, seconds / 2, whole_passes=False)
        untraced.run(check)
        tracer = Tracer()
        traced = Phase(main, reqs, seconds / 2, whole_passes=True,
                       tracer=tracer)
        tracer.install(funcgraphs)
        try:
            traced.run(check)
        finally:
            tracer.uninstall()
        metrics = layer_metrics(untraced, traced, tracer)
        record["predictions"] = predictions(tracer, traced, facts)
        record["spans"] = tracer.spans
        record["span_requests"] = [rec["kind"] for rec in traced.records]
        phases = [untraced, traced]
    record["requests"] = [{k: rec[k] for k in ("kind", "seconds", "ref_s",
                                               "ok", "digest", "bytes")}
                          for phase in phases for rec in phase.records]
    record["result"] = {
        "correct": check.failed == 0, "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}
    return record


def write_record(record: dict, trace: bool) -> None:
    """Write spans and the run record under OUT and summarize to stderr."""
    tag = f"{record['workload']}-seed{record['environment']['seed']}"
    spans = record.pop("spans", None)
    if spans is not None:
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        with open(os.path.join(OUT, "spans", f"{tag}.json"), "w") as fh:
            json.dump({"requests": record.pop("span_requests"),
                       "fields": ["name", "start", "end", "parent",
                                  "request"],
                       "spans": spans}, fh)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{tag}-trace{int(trace)}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    counts: dict[str, int] = defaultdict(int)
    for rec in record["requests"]:
        counts[rec["kind"]] += 1
    print(json.dumps({**record["environment"], "requests": counts}),
          file=sys.stderr)
    for line in record.get("predictions", []):
        print(line, file=sys.stderr)
    for name, m in record["result"]["metrics"].items():
        print(f"{record['workload']} {name} = {m['value']} {m['unit']}",
              file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    os.chdir(ROOT)
    import_funcgraphs()
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    write_record(record, bool(args.trace))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
