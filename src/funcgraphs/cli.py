"""Command-line entry point.

Every subcommand returns a machine-readable report, a one-line human
summary and a verdict.  ``main`` alone prints the report as JSON to
stdout (keys sorted, no timestamps, so identical inputs and seeds give
byte-identical output) and the summary to stderr, and picks the exit
code: 0 when the verdict holds (the check passes or the object exists),
1 when it does not, 2 on usage errors, malformed input files or
out-of-domain input (a cyclic graph where an acyclic one is needed, a
zero spacing, ...), reported as one ``error:`` line.

The default seed comes from the FUNCGRAPHS_SEED environment variable
and is echoed in every report that uses randomness.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import asdim, digraphs, graphs, hitting, homsolver, local_sim, shift
from .digraphs import Digraph
from .graphs import FunctionalGraph

PASS, FAIL, USAGE = 0, 1, 2
_MAX_POWER = 10 ** 5  # the largest -p: power_walk squares, O(m log p) steps
_Result = tuple[dict, str, bool]  # a subcommand's report, summary and verdict


def _default_seed() -> int:
    raw = os.environ.get("FUNCGRAPHS_SEED", "0")
    try:
        return int(raw)
    except ValueError:  # read while the parser is built, so for every command
        raise _Malformed(f"FUNCGRAPHS_SEED must be an integer, got {raw!r}")


class _Malformed(Exception):
    pass


def _load(path: str, cls=None, what: str = ""):
    """The JSON object in ``path``, or ``cls.from_json_dict`` of it."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _Malformed(f"cannot read {path}: {exc}")
    if not isinstance(data, dict):
        raise _Malformed(f"{path}: expected a JSON object")
    if cls is None:
        return data
    try:
        return cls.from_json_dict(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise _Malformed(f"{path}: not a {what}: {exc}")


def _out(args, doc: dict, summary: str, written: tuple[dict, str]) -> _Result:
    """``doc`` and ``summary``; with ``--out``, ``doc`` goes to that file
    and the ``written`` report and summary, which name it, come back."""
    if not args.out:
        return doc, summary, True
    try:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise _Malformed(f"cannot write {args.out}: {exc}")
    report, summary = written
    return {**report, "out": args.out}, f"{summary} to {args.out}", True


def _label_list(labels: np.ndarray) -> list[int | None]:
    """A labeling for a JSON report: null for unlabeled (-1)."""
    return [None if v < 0 else v for v in labels.tolist()]


def make_graph(kind: str, n: int, seed: int) -> FunctionalGraph:
    """The generator ``kind`` at size n; bad input is a usage error."""
    try:
        if kind == "path":
            return graphs.gen_path(n)
        if kind == "forest":
            return graphs.gen_random_forest(n, seed)
        if kind == "total":
            return graphs.gen_random_total(n, seed)
    except ValueError as exc:
        raise _Malformed(f"cannot generate a {kind} graph: {exc}")
    raise _Malformed(f"unknown graph kind {kind!r}")


def _graph_from_args(args) -> tuple[FunctionalGraph, dict]:
    if args.graph is not None:
        return (_load(args.graph, FunctionalGraph, "functional graph"),
                {"source": args.graph})
    g = make_graph(args.kind, args.n, args.seed)
    return g, {"source": {"kind": args.kind, "n": args.n, "seed": args.seed}}


def _add_graph_opts(p: argparse.ArgumentParser, default_n: int) -> None:
    p.add_argument("--graph", help="functional graph JSON file")
    p.add_argument("--kind", default="forest",
                   choices=["path", "forest", "total"],
                   help="generator used when no --graph is given")
    p.add_argument("--n", type=int, default=default_n)
    p.add_argument("--seed", type=int, default=_default_seed())


# ---- subcommands ----

def _cmd_gen(args) -> _Result:
    g = make_graph(args.kind, args.n, args.seed)
    return _out(args, g.to_json_dict(),
                f"{args.kind} graph n={g.n} seed={args.seed} "
                f"acyclic={g.acyclic}",
                ({"kind": args.kind, "n": g.n, "seed": args.seed,
                  "acyclic": g.acyclic}, f"wrote {args.kind} graph n={g.n}"))


def _cmd_hit(args) -> _Result:
    g, src = _graph_from_args(args)
    hs = hitting.greedy_hitting(g, args.spacing)
    independent = hitting.is_forward_independent(g, hs.members, hs.spacing)
    hits = hitting.is_hitting(g, hs.members, hs.horizon)
    ok = independent and hits
    report = {**src, "n": g.n, "spacing": hs.spacing, "horizon": hs.horizon,
              "members": hs.members.tolist(), "independent": independent,
              "hitting": hits, "ok": ok}
    return report, (f"greedy hitting set: {len(hs.members)} members, "
                    f"independent={independent} hitting={hits}"), ok


def _cmd_drhom(args) -> _Result:
    g, src = _graph_from_args(args)
    if args.labels:
        labels = _load(args.labels).get("labels")
        if not isinstance(labels, list):
            raise _Malformed(f"{args.labels}: expected a 'labels' array")
        hs = hitting.hitting_from_labeling(g, labels, args.spacing)
        return ({**src, "spacing": args.spacing,
                 "members": hs.members.tolist(), "ok": True},
                f"labeling converts to a {hs.spacing}-independent hitting "
                f"set with {len(hs.members)} members", True)
    hs = hitting.greedy_hitting(g, args.spacing)
    labels = hitting.labeling_from_hitting(g, hs.members)
    bad, back = hitting.check_labeling(g, labels, args.spacing)
    ok = back is not None and np.array_equal(back.members, hs.members)
    report = {**src, "spacing": args.spacing,
              "labels": _label_list(labels), "countdown_violations": len(bad),
              "round_trip": ok, "ok": ok}
    return report, (f"countdown labeling: {len(bad)} violations, "
                    f"round trip {'exact' if ok else 'BROKEN'}"), ok


def _cmd_asdim(args) -> _Result:
    g, src = _graph_from_args(args)
    report = asdim.asdim_pipeline(g, tuple(args.t or [1]))
    out = {**src, "n": g.n, "report": report, "ok": report["ok"]}
    diam = max(r["cover"]["max_diameter"] for r in report["t"].values())
    return out, (f"two-set witness pipeline t={list(report['t'])}: "
                 f"max class diameter {diam}, ok={report['ok']}"), report["ok"]


def _cmd_classify(args) -> _Result:
    h = _load(args.template, Digraph, "digraph")
    cls = digraphs.classify(h)
    report = {"source": args.template, "m": h.m, "class": cls.value}
    if cls is digraphs.TemplateClass.ERGODIC_NO_LOOP:
        w = h.is_ergodic()
        report["witness"] = {"vertex": w.vertex, "threshold": w.threshold}
    names = {digraphs.TemplateClass.LOOP: "Loop",
             digraphs.TemplateClass.ERGODIC_NO_LOOP: "ErgodicNoLoop",
             digraphs.TemplateClass.NON_ERGODIC: "NonErgodic"}
    return report, names[cls], True


def _cmd_power(args) -> _Result:
    if args.walk is None and not 1 <= args.p <= _MAX_POWER:
        raise _Malformed(f"-p must be in [1, {_MAX_POWER}], got {args.p}")
    h = _load(args.template, Digraph, "digraph")
    walk = args.walk if args.walk is not None else "f" * args.p
    powered = digraphs.power_walk(h, walk)
    edges = len(powered.edges)
    return _out(args, powered.to_json_dict(),
                f"walk power '{walk}': {edges} edges",
                ({"source": args.template, "walk": walk, "m": powered.m,
                  "edges": edges}, f"wrote walk power '{walk}'"))


def _cmd_hom(args) -> _Result:
    h = _load(args.template, Digraph, "digraph")
    g, src = _graph_from_args(args)
    if g.is_total:
        psi = homsolver.decide_hom(g, h)
        present = psi is not None
        report = {**src, "mode": "decide", "present": present,
                  "labels": psi.tolist() if present else None}
        return report, ("homomorphism present" if present
                        else "no homomorphism"), present
    cls = digraphs.classify(h)
    if cls is digraphs.TemplateClass.LOOP:
        psi = homsolver.solve_loop(g, h)
        horizon = 0
    elif cls is digraphs.TemplateClass.ERGODIC_NO_LOOP:
        if not g.acyclic:
            raise _Malformed("ergodic solving needs an acyclic graph; "
                             "this one is neither acyclic nor total")
        data = homsolver.ergodic_solver_data(h)
        hs = hitting.greedy_hitting(g, data.reach_all)
        psi = homsolver.solve_ergodic(g, data, hs)
        horizon = 2 * (data.reach_all + 1) + data.reach_all + 2
    else:
        raise _Malformed(
            "acyclic solving supports loop or ergodic templates only")
    bad = homsolver.hom_violations(g, psi, h)
    inside = g.interior_mask(horizon)
    bad_interior = [e for e in bad if inside[e[0]]]
    labeled = int(np.count_nonzero(psi >= 0))
    ok = not bad_interior
    report = {**src, "mode": "solve", "template_class": cls.value,
              "labels": _label_list(psi), "labeled": labeled,
              "interior_horizon": horizon,
              "violations": len(bad_interior), "ok": ok}
    return report, (f"solved via {cls.value}: {labeled}/{g.n} labeled, "
                    f"{len(bad_interior)} interior violations"), ok


def _cmd_shift(args) -> _Result:
    if args.spacing < 1:  # checked before the draws, as --count is
        raise _Malformed(f"-r must be >= 1, got {args.spacing}")
    if args.count < 0:
        raise _Malformed(f"--count must be >= 0, got {args.count}")
    x = shift.gen_increasing_seq(args.length, args.seed)
    report = shift.check_countdown_pairs(
        x, shift.sample_dominated(x, args.count, args.seed + 1), args.spacing)
    out = {"spacing": args.spacing, "length": args.length,
           "count": args.count, "seed": args.seed,
           "checked": report["checked"], "skipped": report["skipped"],
           "violations": len(report["violations"]),
           "resets": report["resets"], "min_reset": report["min_reset"],
           "dense_found": report["dense_found"], "ok": report["ok"]}
    return out, (f"countdown relation r={args.spacing}: "
                 f"{report['checked']} pairs checked, "
                 f"{len(report['violations'])} violations, dense windows "
                 f"{report['dense_found']}/{args.count}"), report["ok"]


def _cmd_local(args) -> _Result:
    if (args.spacing is None) == (args.template is None):
        raise _Malformed("give exactly one of --spacing or --template")
    if args.template is None:
        alg = local_sim.RulingSetAlgorithm(args.spacing)
        try:  # both grow as 3**levels, past what int-to-str may print
            json.dumps([alg.total_rounds(args.n), alg.gap_bound()])
        except ValueError:
            raise _Malformed("-r too large to print the round count") from None
    else:
        h = _load(args.template, Digraph, "digraph")
        alg = local_sim.TemplateSolverAlgorithm(h)
    net = local_sim.make_path_network(args.n, args.seed,
                                      segments=args.segments)
    trace = local_sim.run_local(alg, net, round_cap=args.cap)
    report = {"n": args.n, "seed": args.seed, "rounds": trace.rounds,
              "engine": trace.engine}
    if args.template is None:
        check = local_sim.verify_ruling(net, trace.outputs, args.spacing,
                                        alg.gap_bound())
        report.update(spacing=args.spacing, gap_bound=alg.gap_bound(),
                      **check)
        return report, (
            f"ruling set in {trace.rounds} rounds: {check['members']} "
            f"members, independent={check['independent']} "
            f"hitting={check['hitting']}"), check["ok"]
    labels = alg.labels(trace.outputs)
    bad = homsolver.hom_violations(net, labels, h)
    labeled = int(np.count_nonzero(labels >= 0))
    ok = not bad and labeled > 0
    report.update(template=args.template, labeled=labeled,
                  violations=len(bad), ok=ok)
    return report, (f"template solving in {trace.rounds} rounds: "
                    f"{labeled}/{args.n} labeled, {len(bad)} violations"), ok


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="funcgraphs",
        description="Hitting sets, homomorphisms, and distributed "
                    "constructions on functional graphs")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", help="generate a functional graph")
    sp.add_argument("--kind", default="forest",
                    choices=["path", "forest", "total"])
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, default=_default_seed())
    sp.add_argument("--out", help="write JSON here instead of stdout")
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("hit", help="greedy hitting set with verification")
    _add_graph_opts(sp, default_n=1000)
    sp.add_argument("-r", "--spacing", type=int, default=4)
    sp.set_defaults(func=_cmd_hit)

    sp = sub.add_parser("drhom",
                        help="countdown labeling round trip for a "
                             "hitting set")
    _add_graph_opts(sp, default_n=1000)
    sp.add_argument("-r", "--spacing", type=int, default=4)
    sp.add_argument("--labels",
                    help="JSON file {'labels': [...]} to convert back")
    sp.set_defaults(func=_cmd_drhom)

    sp = sub.add_parser("asdim",
                        help="two-set cover and equivalence witness "
                             "pipeline")
    _add_graph_opts(sp, default_n=10000)
    sp.add_argument("--t", type=int, action="append",
                    help="scale parameter, repeatable (default 1)")
    sp.set_defaults(func=_cmd_asdim)

    sp = sub.add_parser("classify", help="template trichotomy")
    sp.add_argument("--template", required=True)
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("power", help="walk power of a template")
    sp.add_argument("--template", required=True)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--walk", help="walk string over f/b, e.g. ffb")
    group.add_argument("-p", type=int, help="shorthand for p forward steps")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_power)

    sp = sub.add_parser("hom", help="decide or solve a homomorphism")
    sp.add_argument("--template", required=True)
    _add_graph_opts(sp, default_n=1000)
    sp.set_defaults(func=_cmd_hom)

    sp = sub.add_parser("shift",
                        help="countdown relation checks on increasing "
                             "sequences")
    sp.add_argument("-r", "--spacing", type=int, default=2)
    sp.add_argument("--length", type=int, default=400)
    sp.add_argument("--count", type=int, default=200)
    sp.add_argument("--seed", type=int, default=_default_seed())
    sp.set_defaults(func=_cmd_shift)

    sp = sub.add_parser("local", help="synchronous path simulation")
    sp.add_argument("--n", type=int, default=1000)
    sp.add_argument("-r", "--spacing", type=int)
    sp.add_argument("--template", help="solve into this template instead")
    sp.add_argument("--seed", type=int, default=_default_seed())
    sp.add_argument("--segments", type=int, default=1)
    sp.add_argument("--cap", type=int, help="round cap")
    sp.set_defaults(func=_cmd_local)
    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        report, summary, holds = args.func(args)
        print(json.dumps(report, sort_keys=True))
        print(summary, file=sys.stderr)
        return PASS if holds else FAIL
    except (_Malformed, ValueError, local_sim.RoundLimitError) as exc:
        # the library raises ValueError (GraphShapeError included) only
        # to reject out-of-domain input
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except MemoryError:  # an input too large to allocate is no verdict
        print("error: input too large to allocate", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
