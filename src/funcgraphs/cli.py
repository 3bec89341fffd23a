"""Command-line entry point.

Every subcommand prints a machine-readable JSON report to stdout (keys
sorted, no timestamps, so identical inputs and seeds give byte-identical
output) and a one-line human summary to stderr.  Exit codes: 0 when the
check passes or the object exists, 1 when it fails or is absent, 2 on
usage errors, malformed input files or out-of-domain input (a cyclic
graph where an acyclic one is needed, a zero spacing, ...), reported as
one ``error:`` line.

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
_MAX_POWER = 10 ** 5  # the largest power -p: p template steps, each O(edges)


def _default_seed() -> int:
    raw = os.environ.get("FUNCGRAPHS_SEED", "0")
    try:
        return int(raw)
    except ValueError:  # read while the parser is built, so for every command
        raise _Malformed(f"FUNCGRAPHS_SEED must be an integer, got {raw!r}")


def _emit(report: dict, summary: str) -> None:
    print(json.dumps(report, sort_keys=True))
    print(summary, file=sys.stderr)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _Malformed(f"cannot read {path}: {exc}")
    if not isinstance(data, dict):
        raise _Malformed(f"{path}: expected a JSON object")
    return data


class _Malformed(Exception):
    pass


def _write_json(path: str, doc: dict) -> None:
    try:
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise _Malformed(f"cannot write {path}: {exc}")


def _label_list(labels: np.ndarray) -> list[int | None]:
    """A labeling for a JSON report: null for unlabeled (-1)."""
    return [None if v < 0 else v for v in labels.tolist()]


def _load_graph(path: str) -> FunctionalGraph:
    try:
        return FunctionalGraph.from_json_dict(_load_json(path))
    except (ValueError, KeyError, TypeError) as exc:
        raise _Malformed(f"{path}: not a functional graph: {exc}")


def _load_template(path: str) -> Digraph:
    try:
        return Digraph.from_json_dict(_load_json(path))
    except (ValueError, KeyError, TypeError) as exc:
        raise _Malformed(f"{path}: not a digraph: {exc}")


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
        return _load_graph(args.graph), {"source": args.graph}
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

def _cmd_gen(args) -> int:
    g = make_graph(args.kind, args.n, args.seed)
    doc = g.to_json_dict()
    if args.out:
        _write_json(args.out, doc)
        _emit({"kind": args.kind, "n": g.n, "seed": args.seed,
               "acyclic": g.acyclic, "out": args.out},
              f"wrote {args.kind} graph n={g.n} to {args.out}")
    else:
        _emit(doc, f"{args.kind} graph n={g.n} seed={args.seed} "
              f"acyclic={g.acyclic}")
    return PASS


def _cmd_hit(args) -> int:
    g, src = _graph_from_args(args)
    hs = hitting.greedy_hitting(g, args.spacing)
    independent = hitting.is_forward_independent(g, hs.members, hs.spacing)
    hits = hitting.is_hitting(g, hs.members, hs.horizon)
    ok = independent and hits
    report = {**src, "n": g.n, "spacing": hs.spacing, "horizon": hs.horizon,
              "members": hs.members.tolist(), "independent": independent,
              "hitting": hits, "ok": ok}
    _emit(report, f"greedy hitting set: {len(hs.members)} members, "
          f"independent={independent} hitting={hits}")
    return PASS if ok else FAIL


def _cmd_drhom(args) -> int:
    g, src = _graph_from_args(args)
    if args.labels:
        doc = _load_json(args.labels)
        labels = doc.get("labels")
        if not isinstance(labels, list):
            raise _Malformed(f"{args.labels}: expected a 'labels' array")
        hs = hitting.hitting_from_labeling(g, labels, args.spacing)
        _emit({**src, "spacing": args.spacing,
               "members": hs.members.tolist(), "ok": True},
              f"labeling converts to a {hs.spacing}-independent hitting set "
              f"with {len(hs.members)} members")
        return PASS
    hs = hitting.greedy_hitting(g, args.spacing)
    labels = hitting.labeling_from_hitting(g, hs.members)
    bad, back = hitting.check_labeling(g, labels, args.spacing)
    ok = back is not None and np.array_equal(back.members, hs.members)
    report = {**src, "spacing": args.spacing,
              "labels": _label_list(labels), "countdown_violations": len(bad),
              "round_trip": ok, "ok": ok}
    _emit(report, f"countdown labeling: {len(bad)} violations, "
          f"round trip {'exact' if ok else 'BROKEN'}")
    return PASS if ok else FAIL


def _cmd_asdim(args) -> int:
    g, src = _graph_from_args(args)
    report = asdim.asdim_pipeline(g, tuple(args.t or [1]))
    out = {**src, "n": g.n, "report": report, "ok": report["ok"]}
    diam = max(r["cover"]["max_diameter"] for r in report["t"].values())
    _emit(out, f"two-set witness pipeline t={list(report['t'])}: "
          f"max class diameter {diam}, ok={report['ok']}")
    return PASS if report["ok"] else FAIL


def _cmd_classify(args) -> int:
    h = _load_template(args.template)
    cls = digraphs.classify(h)
    report = {"source": args.template, "m": h.m, "class": cls.value}
    if cls is digraphs.TemplateClass.ERGODIC_NO_LOOP:
        w = h.is_ergodic()
        report["witness"] = {"vertex": w.vertex, "threshold": w.threshold}
    names = {digraphs.TemplateClass.LOOP: "Loop",
             digraphs.TemplateClass.ERGODIC_NO_LOOP: "ErgodicNoLoop",
             digraphs.TemplateClass.NON_ERGODIC: "NonErgodic"}
    _emit(report, names[cls])
    return PASS


def _cmd_power(args) -> int:
    if args.walk is None and not 1 <= args.p <= _MAX_POWER:
        raise _Malformed(f"-p must be in [1, {_MAX_POWER}], got {args.p}")
    h = _load_template(args.template)
    walk = args.walk if args.walk is not None else "f" * args.p
    powered = digraphs.power_walk(h, walk)
    doc = powered.to_json_dict()
    if args.out:
        _write_json(args.out, doc)
        _emit({"source": args.template, "walk": walk, "m": powered.m,
               "edges": len(powered.edges), "out": args.out},
              f"wrote walk power '{walk}' to {args.out}")
    else:
        _emit(doc, f"walk power '{walk}': {len(powered.edges)} edges")
    return PASS


def _cmd_hom(args) -> int:
    h = _load_template(args.template)
    g, src = _graph_from_args(args)
    if g.is_total:
        psi = homsolver.decide_hom(g, h)
        present = psi is not None
        report = {**src, "mode": "decide", "present": present,
                  "labels": psi.tolist() if present else None}
        _emit(report, "homomorphism present" if present
              else "no homomorphism")
        return PASS if present else FAIL
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
    _emit(report, f"solved via {cls.value}: {labeled}/{g.n} labeled, "
          f"{len(bad_interior)} interior violations")
    return PASS if ok else FAIL


def _cmd_shift(args) -> int:
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
    _emit(out, f"countdown relation r={args.spacing}: "
          f"{report['checked']} pairs checked, "
          f"{len(report['violations'])} violations, dense windows "
          f"{report['dense_found']}/{args.count}")
    return PASS if report["ok"] else FAIL


def _cmd_local(args) -> int:
    if (args.spacing is None) == (args.template is None):
        raise _Malformed("give exactly one of --spacing or --template")
    if args.template is None:
        alg = local_sim.RulingSetAlgorithm(args.spacing)
        try:  # both grow as 3**levels, past what int-to-str may print
            json.dumps([alg.total_rounds(args.n), alg.gap_bound()])
        except ValueError:
            raise _Malformed("-r too large to print the round count") from None
    else:
        h = _load_template(args.template)
        alg = local_sim.TemplateSolverAlgorithm(h)
    net = local_sim.make_path_network(args.n, args.seed,
                                      segments=args.segments)
    if args.template is not None:
        trace = local_sim.run_local(alg, net, round_cap=args.cap)
        labels = alg.labels(trace.outputs)
        bad = homsolver.hom_violations(net, labels, h)
        labeled = int(np.count_nonzero(labels >= 0))
        ok = not bad and labeled > 0
        report = {"n": args.n, "seed": args.seed, "template": args.template,
                  "rounds": trace.rounds, "engine": trace.engine,
                  "labeled": labeled, "violations": len(bad), "ok": ok}
        _emit(report, f"template solving in {trace.rounds} rounds: "
              f"{labeled}/{args.n} labeled, {len(bad)} violations")
        return PASS if ok else FAIL
    trace = local_sim.run_local(alg, net, round_cap=args.cap)
    check = local_sim.verify_ruling(net, trace.outputs, args.spacing,
                                    alg.gap_bound())
    report = {"n": args.n, "seed": args.seed, "spacing": args.spacing,
              "rounds": trace.rounds, "engine": trace.engine,
              "gap_bound": alg.gap_bound(), **check}
    _emit(report, f"ruling set in {trace.rounds} rounds: "
          f"{check['members']} members, independent={check['independent']} "
          f"hitting={check['hitting']}")
    return PASS if check["ok"] else FAIL


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
        return args.func(args)
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
