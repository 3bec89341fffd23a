import pytest
from hypothesis import given, settings, strategies as st

import oracles
from funcgraphs.asdim import (
    CoverWitness, EquivalenceWitness, WitnessParams, anchors, asdim_pipeline,
    check_anchor_preimages, check_class_reaches_anchor, check_flip_bounds,
    distance_parity_coloring, equivalence_from_coloring, flip_dists,
    verify_cover_witness, verify_eqrel_witness)
from funcgraphs.graphs import FunctionalGraph, gen_path, gen_random_forest
from funcgraphs.hitting import (
    greedy_hitting, hitting_from_cover, hitting_from_equivalence,
    periodic_hitting)
from funcgraphs.partition import Partition
from strategies import forest_graphs, functional_graphs


def test_interval_decomposition_t1():
    iv = oracles.stripe_intervals(6)
    assert len(iv) == 11
    assert [len(r) for r in iv] == [6] * 5 + [7] * 6
    assert sum(len(r) for r in iv) == 72
    flat = [p for r in iv for p in r]
    assert flat == list(range(72))


def test_interval_decomposition_degenerate_stripe():
    iv = oracles.stripe_intervals(1)
    assert len(iv) == 1
    assert list(iv[0]) == [0, 1]


def test_interval_index_consistent_with_ranges():
    params = WitnessParams(1)
    idx = oracles.interval_index(params)
    for k, r in enumerate(oracles.stripe_intervals(params.stripe)):
        for p in r:
            assert idx[p] == k


def test_params_scale_linearly():
    p1, p2 = WitnessParams(1), WitnessParams(2)
    assert (p1.stripe, p1.spacing) == (6, 144)
    assert (p2.stripe, p2.spacing) == (12, 576)
    assert p1.diameter_bound == 35
    assert p2.diameter_bound == 63
    assert p1.flip_bound == 14
    with pytest.raises(ValueError):
        WitnessParams(0)


def test_coloring_requires_acyclic_and_spacing():
    with pytest.raises(ValueError):
        distance_parity_coloring(FunctionalGraph([0]), {0}, 1)
    g = gen_path(300)
    with pytest.raises(ValueError):
        distance_parity_coloring(g, {10, 20}, 1)


@pytest.mark.parametrize("gap", [1, 144, 145])
def test_coloring_reads_members_once_and_spacing_exactly(gap):
    # members within spacing (144 at t = 1) steps are rejected; an
    # iterator of members is read once, giving the list's coloring
    g = gen_path(300)
    members = [10, 10 + gap]
    if gap <= 144:
        with pytest.raises(ValueError, match="not 144-forward-independent"):
            distance_parity_coloring(g, iter(members), 1)
        return
    got = distance_parity_coloring(g, iter(members), 1)
    want = distance_parity_coloring(g, members, 1)
    assert oracles.coloring_lists(got) == oracles.coloring_lists(want)
    assert oracles.labeled(got)


def test_coloring_matches_stripe_parity_oracle():
    g = gen_path(2000)
    hs = greedy_hitting(g, 144)
    col = distance_parity_coloring(g, hs.members, 1)
    dist, landing, bit = oracles.coloring_lists(col)
    succ = list(g.succ)
    s, half = 6, 72
    for x in oracles.labeled(col):
        k = oracles.naive_least_hit(succ, x, set(hs.members), g.n)
        assert dist[x] == k
        if k >= half:
            assert bit[x] == (k // s) % 2
    # greedy gaps are exactly 145, so every small distance lands on a
    # 0-colored member and reuses stripe parity
    for x in oracles.labeled(col):
        k = dist[x]
        if k < half:
            land = landing[x]
            assert land in oracles.vertex_set(hs.members)
            if bit[land] == 0:
                assert bit[x] == (k // s) % 2


def test_labels_defined_exactly_where_forward_data_exists():
    g = gen_path(500)
    hs = greedy_hitting(g, 144)
    col = distance_parity_coloring(g, hs.members, 1)
    dist, _, bit = oracles.coloring_lists(col)
    iters = oracles.forward_iterates(g)
    for x in range(g.n):
        if bit[x] is not None:
            assert dist[x] is not None
        if iters[x] >= WitnessParams(1).label_depth:
            assert bit[x] is not None, x


def test_interval_branch_fires_on_periodic_sets():
    params = WitnessParams(1)
    g = gen_path(4000)
    hs = periodic_hitting(g, params.spacing + params.stripe + 1)
    col = distance_parity_coloring(g, hs.members, 1)
    dist, landing, bit = oracles.coloring_lists(col)
    flipped = [x for x in oracles.labeled(col)
               if dist[x] < params.half
               and landing[x] is not None
               and bit[landing[x]] == 1]
    assert flipped, "periodic spacing should produce 1-colored landings"
    idx = oracles.interval_index(params)
    for x in flipped:
        assert bit[x] == (idx[dist[x]] + 1) % 2


def test_flip_distance_bounded_on_interior():
    g = gen_path(3000)
    hs = greedy_hitting(g, 144)
    col = distance_parity_coloring(g, hs.members, 1)
    flip = flip_dists(g, col)
    report = check_flip_bounds(g, col, flip)
    assert report["ok"], report
    assert report["max_flip"] <= WitnessParams(1).flip_bound


def test_cover_witness_verifies_on_path():
    g = gen_path(2000)
    hs = greedy_hitting(g, 144)
    wit = distance_parity_coloring(g, hs.members, 1)
    rep = verify_cover_witness(g, wit)
    assert rep["ok"] and rep["violations"] == 0
    assert rep["max_diameter"] <= 35
    assert rep["checked_classes"] > 0


def test_cover_witness_flags_hand_built_bad_cover():
    g = gen_path(400)
    params = WitnessParams(1)
    n = g.n
    # a fat left block in one part forms a single proximity class with a
    # huge diameter
    bit = [0 if x < 200 else 1 for x in range(n)]
    # the sets range(200) and range(200, n)
    bad = CoverWitness(params, *map(
        oracles.partial_array, ([0] * n, [None] * n, bit)))
    rep = verify_cover_witness(g, bad, horizon=0)
    assert not rep["ok"]
    assert rep["max_diameter"] >= 199


def test_eqrel_witness_verifies_on_forest():
    g = gen_random_forest(4000, 11)
    hs = greedy_hitting(g, 144)
    cover = distance_parity_coloring(g, hs.members, 1)
    wit = equivalence_from_coloring(g, cover, flip_dists(g, cover))
    rep = verify_eqrel_witness(g, wit)
    assert rep["ok"], rep
    assert rep["max_diameter"] <= 35
    assert rep["max_ball_classes"] <= 2


def test_eqrel_singleton_partition_has_zero_diameters():
    g = gen_path(50)
    singletons = oracles.partition_from_classes([{x} for x in range(50)])
    from funcgraphs.graphs import class_diameters
    assert class_diameters(g, singletons).tolist() == [0] * 50


def test_eqrel_one_class_fails_bound_on_long_path():
    g = gen_path(300)
    wit = EquivalenceWitness(
        WitnessParams(1), oracles.partition_from_classes([set(range(g.n))]))
    rep = verify_eqrel_witness(g, wit, horizon=0)
    assert rep["diameter_violations"] >= 1
    assert not rep["ok"]


def test_anchor_preimages_carry_opposite_color():
    g = gen_path(3000)
    hs = greedy_hitting(g, 144)
    wit = distance_parity_coloring(g, hs.members, 1)
    flip = flip_dists(g, wit)
    anc = anchors(g, wit.params, flip)
    rep = check_anchor_preimages(g, wit, anc)
    assert rep["ok"], rep
    rep2 = check_class_reaches_anchor(g, wit, anc)
    assert rep2["ok"], rep2


@settings(max_examples=10)
@given(st.integers(0, 10 ** 6))
def test_witness_pipeline_on_random_forests(seed):
    g = gen_random_forest(1500, seed)
    hs = greedy_hitting(g, 144)
    wit = distance_parity_coloring(g, hs.members, 1)
    rep = verify_cover_witness(g, wit)
    assert rep["ok"], (seed, rep)


def test_pipeline_reports_ok_on_midsize_instances():
    for g in (gen_path(1000), gen_random_forest(1000, 5)):
        rep = asdim_pipeline(g, (1,))
        assert rep["ok"], rep


def test_pipeline_rejects_cycles():
    with pytest.raises(ValueError):
        asdim_pipeline(FunctionalGraph([1, 0]), (1,))


def test_pipeline_partition_diameters_match_double_sweep_oracle():
    # the two cover sets and the equivalence, for t = 1 and 2, on a
    # forest and on a path: the twelve partitions the pipeline measures
    from funcgraphs.graphs import class_diameters
    for g in (gen_random_forest(20_000, 0), gen_path(20_000)):
        for t in (1, 2):
            cover = distance_parity_coloring(
                g, greedy_hitting(g, WitnessParams(t).spacing).members, t)
            eq = equivalence_from_coloring(g, cover, flip_dists(g, cover))
            for ids, diams in cover.classes(g):
                assert diams.tolist() == oracles.double_sweep_diameters(
                    g, Partition(ids)).tolist()
            assert class_diameters(g, eq.classes).tolist() == \
                oracles.double_sweep_diameters(g, eq.classes).tolist()


def test_cover_diameters_match_bfs_oracle_on_subsample():
    g = gen_random_forest(800, 23)
    hs = greedy_hitting(g, 144)
    wit = distance_parity_coloring(g, hs.members, 1)
    from funcgraphs.graphs import proximity_classes, class_diameters
    succ = list(g.succ)
    for part in wit.sets:
        classes = proximity_classes(g, part, 1)
        diams = class_diameters(g, classes)
        for cid, cls in enumerate(oracles.class_lists(classes, g.n)):
            assert diams[cid] == oracles.naive_class_diameter(succ, set(cls))


# ---- array verifiers against the scalar loops they replaced ----

def _compare_all(g, cover, eq, flip, anc, horizon, d=1):
    """Assert every verifier and extraction equals its scalar oracle;
    return the library reports by name."""
    t = cover.params.t
    reports = {
        "cover": (verify_cover_witness(g, cover, horizon),
                  oracles.verify_cover_witness(g, cover, horizon)),
        "eqrel": (verify_eqrel_witness(g, eq, d, horizon=horizon),
                  oracles.verify_eqrel_witness(g, eq, d, horizon=horizon)),
        "flips": (check_flip_bounds(g, cover, flip, horizon),
                  oracles.check_flip_bounds(g, cover, flip, horizon)),
        "preimages": (check_anchor_preimages(g, cover, anc, horizon),
                      oracles.check_anchor_preimages(g, cover, anc, horizon)),
        "reach": (check_class_reaches_anchor(g, cover, anc, horizon),
                  oracles.check_class_reaches_anchor(g, cover, anc,
                                                     horizon)),
    }
    for name, (got, want) in reports.items():
        assert got == want, (name, got, want)
    hs = hitting_from_cover(g, cover.sets[0], t)
    assert oracles.vertex_set(hs.members) == \
        oracles.hitting_from_cover(g, cover.sets[0], t)
    hs, hyp = hitting_from_equivalence(g, eq.classes, t, d)
    assert (oracles.vertex_set(hs.members), hyp) == \
        oracles.hitting_from_equivalence(
        g, eq.classes, t, d)
    return {name: got for name, (got, _) in reports.items()}


def _recolor(cover, xs, color):
    """The cover with the vertices ``xs`` given ``color``."""
    bit = oracles.partial_list(cover.bit)
    for x in xs:
        bit[x] = color(bit[x])
    return CoverWitness(cover.params, cover.dist, cover.landing,
                        oracles.partial_array(bit))


def _mutate(g, cover, eq, flip, anc, kind, pick):
    """One defect of the named kind, at a vertex or class chosen by
    ``pick`` (a float in [0, 1)).  Anchors, and flips except after a
    recolored run, stay as they were, as a faulty witness carries them."""
    classes = oracles.class_lists(eq.classes, g.n)
    labeled = oracles.labeled(cover)
    if kind == "merge" and len(classes) > 1:
        # classes five apart lie more than a diameter bound apart
        i = int(pick * (len(classes) - 1))
        j = min(i + 5, len(classes) - 1)
        rest = [c for k, c in enumerate(classes) if k not in (i, j)]
        eq = EquivalenceWitness(cover.params, oracles.partition_from_classes(
            rest + [classes[i] + classes[j]]))
    if kind == "drop" and classes:
        i = int(pick * len(classes))
        rest = classes[:i] + classes[i + 1:] + [classes[i][1:]]
        eq = EquivalenceWitness(cover.params, oracles.partition_from_classes(
            rest))
    if kind == "flip" and labeled:
        x = labeled[int(pick * len(labeled))]
        cover = _recolor(cover, [x], lambda b: 1 - b)
    if kind == "run" and labeled:
        # one color along 40 steps: a long class, and late flips
        x = labeled[int(pick * len(labeled))]
        cover = _recolor(cover, oracles.forward_orbit(g, x, 40),
                         lambda b: b if b is None else 0)
        flip = flip_dists(g, cover)
    anchor = oracles.partial_list(anc)
    defined = [x for x, e in enumerate(anchor) if e is not None]
    if kind == "shift" and defined:
        # one step off the orbit when the anchor has a side branch
        x = defined[int(pick * len(defined))]
        orbit = set(oracles.forward_orbit(g, x, g.n))
        side = [w for w, s in enumerate(g.succ)
                if s == anchor[x] and w not in orbit]
        anchor[x] = side[0] if side else g.succ[anchor[x]]
        anc = oracles.partial_array(anchor)
    return cover, eq, flip, anc


MUTATIONS = ["none", "merge", "drop", "flip", "run", "shift"]


def _pipeline_witnesses(g, t):
    hs = greedy_hitting(g, WitnessParams(t).spacing)
    cover = distance_parity_coloring(g, hs.members, t)
    flip = flip_dists(g, cover)
    eq = equivalence_from_coloring(g, cover, flip)
    return cover, eq, flip, anchors(g, cover.params, flip)


def test_array_verifiers_match_oracles_on_mutated_witnesses():
    seen = {"cover": 0, "eqrel": 0, "flips": 0, "preimages": 0, "reach": 0}

    # derandomized, so that the assertion after the run is not flaky
    @settings(max_examples=40, derandomize=True)
    @given(st.sampled_from(["forest", "path"]), st.integers(800, 1600),
           st.integers(0, 10 ** 6), st.sampled_from([1, 2]),
           st.sampled_from(MUTATIONS), st.floats(0, 0.999),
           st.sampled_from([None, 0, 150]))
    def check(kind, n, seed, t, mutation, pick, horizon):
        g = gen_path(n) if kind == "path" else gen_random_forest(n, seed)
        witnesses = _mutate(g, *_pipeline_witnesses(g, t), mutation, pick)
        reports = _compare_all(g, *witnesses, horizon)
        for name, rep in reports.items():
            bad = [v for k, v in rep.items() if k.endswith("violations")]
            seen[name] += sum(bad) > 0

    check()
    # the mutations really break witnesses, so the comparisons above
    # cover nonzero violation counts, not only clean reports
    assert all(seen.values()), seen


@st.composite
def hand_built_witnesses(draw):
    """Arbitrary colors, classes, flips and anchors on a small forest."""
    g = draw(forest_graphs())
    n = g.n
    vertex = st.integers(0, n - 1)
    bit = draw(st.lists(st.sampled_from([None, 0, 1]), min_size=n,
                        max_size=n))
    params = WitnessParams(draw(st.sampled_from([1, 2])))
    cover = CoverWitness(params, *map(
        oracles.partial_array, ([None] * n, [None] * n, bit)))
    ids = draw(st.lists(st.one_of(st.none(), st.integers(0, 4)),
                        min_size=n, max_size=n))
    part = Partition(oracles.partial_array(ids))
    eq = EquivalenceWitness(params, part)
    flip = oracles.partial_array(draw(st.lists(
        st.one_of(st.none(), st.integers(1, 30)), min_size=n, max_size=n)))
    anc = oracles.partial_array(draw(st.lists(
        st.one_of(st.none(), vertex), min_size=n, max_size=n)))
    return g, cover, eq, flip, anc, draw(st.integers(0, 4))


@settings(max_examples=150)
@given(hand_built_witnesses(), st.integers(0, 2))
def test_array_verifiers_match_oracles_on_hand_built_witnesses(wit, d):
    g, cover, eq, flip, anc, horizon = wit
    _compare_all(g, cover, eq, flip, anc, horizon, d)


@settings(max_examples=30)
@given(forest_graphs(), st.sampled_from([1, 2]))
def test_array_verifiers_match_oracles_on_strategy_forests(g, t):
    _compare_all(g, *_pipeline_witnesses(g, t), 0)


def test_reach_check_rejects_cyclic_graphs():
    g = FunctionalGraph([1, 2, 0, 0])
    params = WitnessParams(1)
    wit = CoverWitness(params, *map(  # the sets {0, 2} and {1, 3}
        oracles.partial_array, ([None] * 4, [None] * 4, [0, 1, 0, 1])))
    with pytest.raises(ValueError, match="acyclic"):
        check_class_reaches_anchor(g, wit, oracles.partial_array([1, 2, 0, 0]),
                                   horizon=0)
    # class diameters, and so the class verifiers, need a forest too
    with pytest.raises(ValueError, match="acyclic"):
        verify_cover_witness(g, wit, horizon=0)


def test_witness_caches_follow_the_graph():
    # a witness's classes and diameters are cached per graph: a verifier
    # called on a second graph reports that graph, not the first one
    g1, g2 = gen_random_forest(3000, 1), gen_random_forest(3000, 2)
    cover = distance_parity_coloring(g1, greedy_hitting(g1, 144).members, 1)
    eq = equivalence_from_coloring(g1, cover, flip_dists(g1, cover))
    first = verify_cover_witness(g1, cover), verify_eqrel_witness(g1, eq)
    second = verify_cover_witness(g2, cover), verify_eqrel_witness(g2, eq)
    assert second == (
        verify_cover_witness(g2, CoverWitness(
            cover.params, cover.dist, cover.landing, cover.bit)),
        verify_eqrel_witness(g2, EquivalenceWitness(eq.params, eq.classes)))
    assert second != first
    assert (verify_cover_witness(g1, cover),
            verify_eqrel_witness(g1, eq)) == first


def test_pipeline_builds_each_shared_quantity_once(monkeypatch):
    import funcgraphs.asdim as asdim_mod
    import funcgraphs.hitting as hitting_mod
    calls = {}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("distance_parity_coloring", "flip_dists",
                 "proximity_classes", "class_diameters"):
        counted(asdim_mod, name)
    counted(hitting_mod, "proximity_classes")
    counted(hitting_mod, "class_diameters")
    assert asdim_pipeline(gen_random_forest(600, 4), (1,))["ok"]
    # one coloring and one flip table; the two cover sets' proximity
    # classes and diameters, plus the equivalence's diameters
    assert calls == {"distance_parity_coloring": 1, "flip_dists": 1,
                     "proximity_classes": 2, "class_diameters": 3}, calls


@pytest.mark.parametrize("offset,ok", [(1, True), (53, True), (54, False)])
def test_reach_window_ends_at_walk_steps(offset, ok):
    # t = 1 allows 35 + 2 + 14 + 2 = 53 forward steps from each member
    g = gen_path(120)
    wit = CoverWitness(WitnessParams(1), *map(  # the sets {0, 1} and {}
        oracles.partial_array,
        ([None] * g.n, [None] * g.n, [0, 0] + [None] * (g.n - 2))))
    anc = oracles.partial_array([offset, offset] + [None] * (g.n - 2))
    rep = check_class_reaches_anchor(g, wit, anc, horizon=0)
    assert rep == oracles.check_class_reaches_anchor(g, wit, anc, horizon=0)
    assert rep["checked_pairs"] == 2 and rep["ok"] == ok
    assert rep["violations"] == (0 if ok else 1)


# ---- array colorings and flips against the folds they replaced ----

def _member_set(g, t, kind, extra):
    """Greedy or periodic members at t's spacing; ``extra`` stretches
    the periodic gaps past spacing + 1, up to where landing members
    colored 1 fire the interval branch."""
    params = WitnessParams(t)
    if kind == "greedy":
        return greedy_hitting(g, params.spacing).members
    return periodic_hitting(g, params.spacing + 1 + extra).members


def _assert_matches_folds(g, members, t):
    col = distance_parity_coloring(g, members, t)
    assert oracles.coloring_lists(col) == \
        oracles.distance_parity_coloring_fold(g, members, t)
    assert oracles.partial_list(flip_dists(g, col)) == \
        oracles.flip_dists_fold(g, oracles.partial_list(col.bit))
    return col


@settings(max_examples=40)
@given(st.one_of(
           forest_graphs(),
           st.builds(gen_random_forest, st.integers(1, 2500),
                     st.integers(0, 10 ** 6)),
           st.builds(gen_path, st.integers(1, 3000))),
       st.sampled_from([1, 2]), st.sampled_from(["greedy", "periodic"]),
       st.integers(0, 30))
def test_coloring_and_flips_match_folds(g, t, kind, extra):
    _assert_matches_folds(g, _member_set(g, t, kind, extra), t)


@pytest.mark.parametrize("t", [1, 2])
def test_coloring_matches_fold_in_the_interval_branch(t):
    params = WitnessParams(t)
    g = gen_path(8000 * t)
    members = periodic_hitting(g, params.spacing + params.stripe + 1).members
    col = _assert_matches_folds(g, members, t)
    # members colored 1 make distances below spacing/2 take the
    # interval parity, which differs from the stripe parity somewhere
    dist, landing, bit = oracles.coloring_lists(col)
    below = [x for x in oracles.labeled(col) if dist[x] < params.half
             and bit[landing[x]] == 1]
    assert any(bit[x] != dist[x] // params.stripe % 2 for x in below)


def _hand_colored(g, bit):
    n = g.n
    return CoverWitness(WitnessParams(1), *map(
        oracles.partial_array, ([None] * n, [None] * n, bit)))


@settings(max_examples=150)
@given(forest_graphs(), st.data())
def test_flip_dists_on_hand_built_colorings(g, data):
    # runs of None as well as single None colors
    bit = data.draw(st.lists(st.sampled_from([None, 0, 1]), min_size=g.n,
                             max_size=g.n))
    for x in data.draw(st.lists(st.integers(0, g.n - 1), max_size=3)):
        for v in oracles.forward_orbit(g, x, data.draw(st.integers(1, 6))):
            bit[v] = None
    flip = oracles.partial_list(flip_dists(g, _hand_colored(g, bit)))
    assert flip == oracles.flip_dists_fold(g, bit)
    assert flip == oracles.flip_dists_scan(g, bit)


@settings(max_examples=150)
@given(functional_graphs(), st.data())
def test_flip_dists_follow_the_forward_scan_on_graphs_with_cycles(g, data):
    bit = data.draw(st.lists(st.sampled_from([None, 0, 1]), min_size=g.n,
                             max_size=g.n))
    assert oracles.partial_list(flip_dists(g, _hand_colored(g, bit))) == \
        oracles.flip_dists_scan(g, bit)


def test_flip_dists_on_a_two_colored_cycle():
    # 0 -> 1 -> 2 -> 0 colored 0, 0, 1, and 3 -> 0; a one-color cycle
    # 4 <-> 5 never flips
    g = FunctionalGraph([1, 2, 0, 0, 5, 4])
    flip = oracles.partial_list(
        flip_dists(g, _hand_colored(g, [0, 0, 1, 0, 1, 1])))
    assert flip == [2, 1, 1, 3, None, None]
    assert oracles.flip_dists_fold(g, [0, 0, 1, 0, 1, 1])[:4] == [None] * 4


def test_asdim_pipeline_runs_without_tree_order(monkeypatch):
    import funcgraphs.homsolver as homsolver
    from funcgraphs.digraphs import Digraph

    def no_tree_order(succ, cap):
        raise AssertionError("tree_order called")
    monkeypatch.setattr(homsolver, "_peel", no_tree_order)
    g = gen_random_forest(1500, 3)
    assert asdim_pipeline(g, (1, 2))["ok"]
    h = Digraph(4, [(0, 1), (1, 0), (0, 2), (2, 3), (3, 0)])
    psi = homsolver.solve_ergodic(g, homsolver.ergodic_solver_data(h),
                                  greedy_hitting(g, 4))
    assert any(v is not None for v in oracles.partial_list(psi))
    # the total-graph homomorphism passes still walk it
    with pytest.raises(AssertionError, match="tree_order"):
        homsolver.decide_hom(FunctionalGraph([1, 0]), h)


def test_witness_params_fit_int64():
    largest = 206_641_710
    deepest = WitnessParams(largest).verify_depth + largest
    assert deepest == 216 * largest ** 2 + 22 * largest + 2 < 2 ** 63
    with pytest.raises(ValueError, match="206641710"):
        WitnessParams(largest + 1)


@settings(max_examples=150)
@given(functional_graphs(), st.sampled_from([1, 2, 3]), st.data())
def test_anchor_preimages_on_graphs_with_cycles(g, t, data):
    # stripe/3 = 2t steps wrap the short cycles of these graphs
    bit = data.draw(st.lists(st.sampled_from([None, 0, 1]), min_size=g.n,
                             max_size=g.n))
    anc = oracles.partial_array(data.draw(st.lists(
        st.one_of(st.none(), st.integers(0, g.n - 1)),
        min_size=g.n, max_size=g.n)))
    cover = CoverWitness(WitnessParams(t), *map(
        oracles.partial_array, ([None] * g.n, [None] * g.n, bit)))
    assert check_anchor_preimages(g, cover, anc, 0) == \
        oracles.check_anchor_preimages(g, cover, anc, 0)


def test_anchor_preimages_with_a_huge_t_on_a_cycle():
    g = FunctionalGraph([1, 0])
    cover = CoverWitness(WitnessParams(10 ** 8), *map(
        oracles.partial_array, ([None] * 2, [None] * 2, [0, 1])))
    # each vertex of the 2-cycle is a preimage of the other's anchor
    anchor = oracles.partial_array([0, 1])
    assert check_anchor_preimages(g, cover, anchor, 0)["violations"] == 2
