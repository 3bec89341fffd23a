"""End-to-end acceptance gate.

One test per numbered criterion, each printing a single
"CRITERION k: PASS/FAIL" line outside pytest's capture so the gate
reads off the raw log.  The heavyweight scale instances (criteria 2
through 5) are built once and shared through module-level caches.
"""

import random
import time

import numpy as np
import pytest

import oracles
from funcgraphs.asdim import (
    WitnessParams, anchors, check_anchor_preimages, check_class_reaches_anchor,
    check_flip_bounds, distance_parity_coloring, equivalence_from_coloring,
    flip_dists, verify_cover_witness, verify_eqrel_witness)
from funcgraphs.digraphs import Digraph, GraphShapeError, TemplateClass, classify
from funcgraphs.graphs import (
    FunctionalGraph, class_diameters, gen_path, gen_random_forest,
    proximity_classes)
from funcgraphs.hitting import (
    greedy_hitting, hitting_from_cover, hitting_from_equivalence,
    hitting_from_labeling, is_forward_independent, is_hitting,
    labeling_from_hitting)
from funcgraphs.homsolver import (
    decide_hom, ergodic_solver_data, hom_violations, solve_ergodic)
from funcgraphs.local_sim import (
    RulingSetAlgorithm, make_path_network, run_local, verify_ruling)
from funcgraphs.shift import (
    check_countdown_pairs, dense_window_index, gen_increasing_seq,
    sample_dominated)

SCALE_N = 10_000


def _report(capsys, k, ok, detail):
    with capsys.disabled():
        print(f"\nCRITERION {k}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {k}: {detail}"


_cache: dict = {}


def scale_graphs() -> dict[str, FunctionalGraph]:
    if "graphs" not in _cache:
        _cache["graphs"] = {"path": gen_path(SCALE_N),
                            "forest": gen_random_forest(SCALE_N, 21)}
    return _cache["graphs"]


def cover_artifacts():
    """(graph, params, hitting set, cover witness) per (t, kind)."""
    if "cover" not in _cache:
        out = {}
        for t in (1, 2):
            params = WitnessParams(t)
            for kind, g in scale_graphs().items():
                hs = greedy_hitting(g, params.spacing)
                cover = distance_parity_coloring(g, hs.members, t)
                out[t, kind] = (g, params, hs, cover)
        _cache["cover"] = out
    return _cache["cover"]


def eq_artifacts():
    if "eq" not in _cache:
        out = {}
        for (t, kind), (g, params, hs, cover) in cover_artifacts().items():
            out[t, kind] = equivalence_from_coloring(
                g, cover, flip_dists(g, cover))
        _cache["eq"] = out
    return _cache["eq"]


def two_three_cycles() -> Digraph:
    return Digraph(4, [(0, 1), (1, 0), (0, 2), (2, 3), (3, 0)])


def cycle_pair_template(a: int, b: int) -> Digraph:
    """Two directed cycles of lengths a and b sharing vertex 0."""
    edges = []
    ring = [0] + list(range(1, a))
    for u, v in zip(ring, ring[1:] + [0]):
        edges.append((u, v))
    ring = [0] + list(range(a, a + b - 1))
    for u, v in zip(ring, ring[1:] + [0]):
        edges.append((u, v))
    return Digraph(a + b - 1, edges)


def test_criterion_01_labeling_round_trip(capsys):
    start = time.perf_counter()
    forests = 200
    trips = 0
    for i in range(forests):
        n = 50 + (i * 37) % 951
        g = gen_random_forest(n, i)
        for r in (1, 2, 4, 8):
            hs = greedy_hitting(g, r)
            labels = labeling_from_hitting(g, hs.members)
            assert oracles.countdown_violations(g, labels, r) == []
            back = hitting_from_labeling(g, labels, r)
            assert back.members.tolist() == hs.members.tolist()
            trips += 1
    elapsed = time.perf_counter() - start
    _report(capsys, 1, elapsed < 10.0,
            f"{trips} round trips on {forests} forests, 0 violations, "
            f"{elapsed:.1f}s < 10s")


def test_criterion_02_cover_class_diameters(capsys):
    start = time.perf_counter()
    checked = 0
    max_diam = 0
    oracle_checked = 0
    for (t, kind), (g, params, hs, cover) in cover_artifacts().items():
        report = verify_cover_witness(g, cover)
        assert report["violations"] == 0, (t, kind, report)
        assert report["checked_classes"] > 0, (t, kind)
        checked += report["checked_classes"]
        max_diam = max(max_diam, report["max_diameter"])
        inside = oracles.interior(g, params.verify_depth)
        for u in cover.sets:
            classes = proximity_classes(g, u, t)
            diams = class_diameters(g, classes)
            deep = [(cls, d) for cls, d in
                    zip(oracles.class_lists(classes, g.n), diams)
                    if all(x in inside for x in cls)]
            step = max(1, len(deep) // 40)
            for cls, diam in deep[::step]:
                assert oracles.naive_class_diameter(g.succ, set(cls)) == diam
                oracle_checked += 1
    elapsed = time.perf_counter() - start
    bound = 28 * 1 + 7
    _report(capsys, 2, elapsed < 60.0,
            f"{checked} interior cover classes <= 28t+7 (max {max_diam}), "
            f"{oracle_checked} BFS-oracle diameter matches, "
            f"{elapsed:.1f}s < 60s")
    assert bound == 35


def test_criterion_03_equivalence_bounds(capsys):
    checked_classes = 0
    checked_balls = 0
    worst_ball = 0
    for (t, kind), eq in eq_artifacts().items():
        g = scale_graphs()[kind]
        report = verify_eqrel_witness(g, eq, d=1)
        assert report["diameter_violations"] == 0, (t, kind, report)
        assert report["ball_violations"] == 0, (t, kind, report)
        assert report["checked_classes"] > 0 and report["checked_balls"] > 0
        checked_classes += report["checked_classes"]
        checked_balls += report["checked_balls"]
        worst_ball = max(worst_ball, report["max_ball_classes"])
    _report(capsys, 3, worst_ball <= 2,
            f"{checked_classes} interior classes within 28t+7, "
            f"{checked_balls} interior balls meet <= 2 classes "
            f"(max {worst_ball})")


def test_criterion_04_coloring_sub_invariants(capsys):
    flips_checked = 0
    anchor_checked = 0
    reach_checked = 0
    for (t, kind), (g, params, hs, cover) in cover_artifacts().items():
        flip = flip_dists(g, cover)
        anc = anchors(g, params, flip)
        flips = check_flip_bounds(g, cover, flip)
        assert flips["ok"] and flips["checked"] > 0, (t, kind, flips)
        assert flips["unlabeled"] == 0 and flips["max_flip"] <= 2 * params.stripe + 2
        pre = check_anchor_preimages(g, cover, anc)
        assert pre["ok"] and pre["checked"] > 0, (t, kind, pre)
        reach = check_class_reaches_anchor(g, cover, anc)
        assert reach["ok"] and reach["checked_classes"] > 0, (t, kind, reach)
        flips_checked += flips["checked"]
        anchor_checked += pre["checked"]
        reach_checked += reach["checked_pairs"]
    _report(capsys, 4, True,
            f"flip <= 2s+2 on {flips_checked} interior vertices, "
            f"{anchor_checked} anchors with opposite-part preimages, "
            f"{reach_checked} class-to-anchor walks")


def test_criterion_05_closure_both_directions(capsys):
    closures = 0
    for (t, kind), (g, params, hs, cover) in cover_artifacts().items():
        rev = hitting_from_cover(g, cover.sets[0], t)
        depth = params.label_depth + params.flip_bound + rev.horizon + 2
        assert is_forward_independent(g, rev.members, t), (t, kind)
        assert is_hitting(g, rev.members, depth), (t, kind)
        closures += 1

        eq = eq_artifacts()[t, kind]
        rev_eq, hyp = hitting_from_equivalence(g, eq.classes, t, 1)
        depth = params.label_depth + params.flip_bound + t + rev_eq.horizon + 1
        assert is_forward_independent(g, rev_eq.members, t), (t, kind)
        assert is_hitting(g, rev_eq.members, depth), (t, kind)
        closures += 1
    _report(capsys, 5, closures == 8,
            f"{closures} cover/equivalence closures back to verified "
            f"hitting sets (t in {{1,2}}, n={SCALE_N})")


def _classify_or_reject(h: Digraph) -> str:
    try:
        return classify(h).value
    except GraphShapeError:
        return "rejected"


def _oracle_or_reject(m: int, edges) -> str:
    try:
        return oracles.classify_oracle(m, list(edges))
    except ValueError:
        return "rejected"


def test_criterion_06_template_trichotomy(capsys):
    census = oracles.loopless_digraph_census(4)
    assert len(census) == 218
    for edges in census:
        h = Digraph(4, list(edges))
        assert _classify_or_reject(h) == _oracle_or_reject(4, edges), edges

    rng = random.Random(66)
    sampled = 0
    for m in (5, 6):
        for _ in range(150):
            edges = [(u, v) for u in range(m) for v in range(m)
                     if rng.random() < 0.25]
            h = Digraph(m, edges)
            assert _classify_or_reject(h) == _oracle_or_reject(m, edges), edges
            sampled += 1

    assert classify(Digraph(1, [(0, 0)])) is TemplateClass.LOOP
    assert classify(Digraph(2, [(0, 1), (1, 0)])) is TemplateClass.NON_ERGODIC
    h23 = two_three_cycles()
    assert classify(h23) is TemplateClass.ERGODIC_NO_LOOP
    witness = h23.is_ergodic()
    assert witness.threshold == 2
    assert h23.walk_lengths(0)[2] == 4
    _report(capsys, 6, True,
            f"census of 218 four-vertex digraphs + {sampled} samples at "
            f"m=5,6 agree with the closed-walk oracle; anchors "
            f"loop/2-cycle/2&3 give Loop/NonErgodic/ErgodicNoLoop(2,4)")


def test_criterion_07_ergodic_solver_instances(capsys):
    pairs = [(2, 3), (3, 4), (2, 5), (4, 5), (3, 5),
             (2, 7), (5, 6), (3, 7), (4, 7), (5, 7)]
    instances = 0
    labeled_total = 0
    for i in range(50):
        h = cycle_pair_template(*pairs[i % len(pairs)])
        data = ergodic_solver_data(h)
        n = 600 + 17 * i
        g = gen_path(n) if i % 2 == 0 else gen_random_forest(n, 1000 + i)
        hs = greedy_hitting(g, data.reach_all)
        psi = solve_ergodic(g, data, hs)
        horizon = 3 * data.reach_all + 4
        inside = oracles.interior(g, horizon)
        assert inside, (i, horizon)
        assert all(psi[x] >= 0 for x in inside), i
        bad = [e for e in hom_violations(g, psi, h) if e[0] in set(inside)]
        assert bad == [], (i, bad[:3])
        labeled_total += sum(1 for v in psi if v >= 0)
        instances += 1
    _report(capsys, 7, instances == 50,
            f"50 (G,H) instances over {len(pairs)} ergodic templates, "
            f"{labeled_total} labels, 0 interior edge violations")


def test_criterion_08_exact_decision_vs_enumeration(capsys):
    rng = random.Random(88)
    agreements = 0
    present = 0

    def run_pair(g: FunctionalGraph, h: Digraph):
        nonlocal agreements, present
        psi = decide_hom(g, h)
        brute = oracles.brute_force_hom(g.succ, h.m, list(h.edges))
        assert (psi is None) == (brute is None), (g.succ, h.edges)
        if psi is not None:
            assert hom_violations(g, psi, h) == []
            present += 1
        agreements += 1

    run_pair(FunctionalGraph([1, 2, 0]), Digraph(2, [(0, 1), (1, 0)]))
    assert present == 0
    while agreements < 2000:
        n = rng.randint(1, 8)
        g = FunctionalGraph([rng.randrange(n) for _ in range(n)])
        m = rng.randint(1, 4)
        edges = {(u, rng.randrange(m)) for u in range(m)}
        extra = rng.randint(0, 2 * m)
        edges |= {(rng.randrange(m), rng.randrange(m)) for _ in range(extra)}
        run_pair(g, Digraph(m, sorted(edges)))
    _report(capsys, 8, agreements == 2000 and 0 < present < 2000,
            f"2000 deterministic pairs agree with enumeration "
            f"({present} present, {2000 - present} absent, "
            f"including 3-cycle into 2-cycle)")


def test_criterion_09_countdown_relation(capsys):
    total_checked = 0
    witnesses = 0
    pairs_per_r = 1000
    for r in (1, 2, 3):
        x = gen_increasing_seq(20 * r * r + 40, 900 + r)
        ys = list(sample_dominated(x, pairs_per_r, 901 + r))
        report = check_countdown_pairs(x, ys, r)
        assert report["violations"] == [], (r, report["violations"][:3])
        assert report["checked"] >= 0.9 * pairs_per_r, (r, report)
        assert report["resets"] > 0 and report["min_reset"] >= r
        total_checked += report["checked"]
        found = sum(1 for y in ys if dense_window_index(x, y, r) is not None)
        assert found == pairs_per_r, (r, found)
        witnesses += found
    _report(capsys, 9, witnesses == 3 * pairs_per_r,
            f"{total_checked} countdown edges with 0 violations, "
            f"window witness found for {witnesses}/{3 * pairs_per_r} "
            f"dominated pairs (r in {{1,2,3}})")


def test_criterion_10_local_simulation_scaling(capsys):
    start = time.perf_counter()
    details = []
    for r in (1, 2, 4):
        alg = RulingSetAlgorithm(r)
        small_net = make_path_network(1000, seed=100 + r)
        big_net = make_path_network(10**6, seed=200 + r)
        small = run_local(alg, small_net)
        big = run_local(alg, big_net)
        assert verify_ruling(small_net, small.outputs, r, alg.gap_bound())["ok"]
        assert verify_ruling(big_net, big.outputs, r, alg.gap_bound())["ok"]
        assert big.rounds - small.rounds <= 2, (r, small.rounds, big.rounds)
        ref = run_local(oracles.reference_only(alg), small_net)
        assert np.array_equal(ref.outputs, small.outputs)
        for order_seed in range(10):
            again = run_local(oracles.reference_only(alg), small_net,
                              order_seed=order_seed)
            assert again.outputs == ref.outputs, (r, order_seed)
        details.append(f"r={r}:{small.rounds}->{big.rounds}")
    elapsed = time.perf_counter() - start
    _report(capsys, 10, elapsed < 120.0,
            f"verified at n=10^6, rounds {', '.join(details)}, "
            f"10 schedules stable, {elapsed:.1f}s < 120s")
