import pytest
from hypothesis import given, settings, strategies as st

import oracles
from funcgraphs.graphs import FunctionalGraph, gen_path, gen_random_forest
from funcgraphs.hitting import (
    check_labeling, greedy_hitting, hitting_from_cover,
    hitting_from_equivalence, hitting_from_labeling, is_forward_independent,
    is_hitting, labeling_from_hitting, periodic_hitting)
from funcgraphs.homsolver import hom_violations
from strategies import (
    forest_graphs, functional_graphs, member_sets, partial_graphs)


def test_independence_fails_inside_short_cycle():
    rho = FunctionalGraph([1, 2, 3, 1])
    assert not is_forward_independent(rho, {1}, 3)
    assert is_forward_independent(rho, {1}, 2)


def test_loop_hits_itself():
    loop = FunctionalGraph([0])
    assert is_hitting(loop, {0}, 0)


def test_greedy_on_short_path():
    g = gen_path(10)
    hs = greedy_hitting(g, 2)
    assert is_forward_independent(g, hs.members, 2)
    assert is_hitting(g, hs.members, hs.horizon)
    members = hs.members.tolist()
    assert members[-1] == 9
    assert all(b - a == 3 for a, b in zip(members, members[1:]))


def test_greedy_on_random_forest():
    g = gen_random_forest(100, 1)
    hs = greedy_hitting(g, 4)
    assert is_forward_independent(g, hs.members, 4)
    assert is_hitting(g, hs.members, hs.horizon)


def test_greedy_rejects_cycles():
    with pytest.raises(ValueError):
        greedy_hitting(FunctionalGraph([0]), 2)


@settings(max_examples=60)
@given(forest_graphs(), st.sampled_from([1, 2, 4, 8]))
def test_greedy_orbit_gaps_are_exactly_spacing_plus_one(g, spacing):
    hs = greedy_hitting(g, spacing)
    for x in hs.members:
        nxt = oracles.naive_least_hit(list(g.succ), x, set(hs.members), g.n)
        assert nxt is None or nxt == spacing + 1


@settings(max_examples=40)
@given(forest_graphs(), st.integers(2, 9))
def test_periodic_hitting_gaps_equal_period(g, period):
    hs = periodic_hitting(g, period)
    assert is_forward_independent(g, hs.members, period - 1)
    assert is_hitting(g, hs.members, period)
    for x in hs.members:
        nxt = oracles.naive_least_hit(list(g.succ), x, set(hs.members), g.n)
        assert nxt is None or nxt == period


def test_labeling_counts_down_to_member():
    g = gen_path(5)
    labels = labeling_from_hitting(g, {4})
    assert labels.tolist() == [4, 3, 2, 1, 0]


def test_labeling_none_past_last_member():
    g = gen_path(5)
    labels = oracles.partial_list(labeling_from_hitting(g, {2}))
    assert labels == [2, 1, 0, None, None]


@settings(max_examples=60)
@given(forest_graphs(), st.sampled_from([1, 2, 4, 8]))
def test_round_trip_hitting_labeling_hitting(g, spacing):
    hs = greedy_hitting(g, spacing)
    labels = labeling_from_hitting(g, hs.members)
    assert oracles.countdown_violations(g, labels, spacing) == []
    back = hitting_from_labeling(g, labels, spacing)
    assert back.members.tolist() == hs.members.tolist()


@settings(max_examples=60)
@given(forest_graphs())
def test_labels_match_least_hit_oracle(g):
    hs = greedy_hitting(g, 3)
    labels = oracles.partial_list(labeling_from_hitting(g, hs.members))
    succ = list(g.succ)
    for x in range(g.n):
        if x in oracles.vertex_set(hs.members):
            assert labels[x] == 0
        else:
            want = oracles.naive_least_hit(succ, x, set(hs.members), g.n)
            assert labels[x] == want


@settings(max_examples=150)
@given(partial_graphs(), st.data())
def test_orbit_folds_on_graphs_with_cycles(g, data):
    n = g.n
    succ = list(g.succ)
    order = g.tree_order()
    cycles = g.cycles()
    # tree order: each off-cycle vertex exactly once, after its successor
    on_cycle = {x for cyc in cycles for x in cyc}
    assert sorted(order) == sorted(set(range(n)) - on_cycle)
    where = {x: i for i, x in enumerate(order)}
    for x in order:
        if succ[x] is not None and succ[x] not in on_cycle:
            assert where[succ[x]] < where[x]
    # cycles: in successor order, each from its least vertex, sorted
    assert [cyc[0] for cyc in cycles] == sorted(min(cyc) for cyc in cycles)
    for cyc in cycles:
        assert [succ[x] for x in cyc] == cyc[1:] + cyc[:1]
    members = data.draw(st.sets(st.integers(0, n - 1)))
    labels = oracles.partial_list(labeling_from_hitting(g, members))
    least_hit = [oracles.naive_least_hit(succ, x, members, n)
                 for x in range(n)]
    for x in range(n):
        assert labels[x] == (0 if x in members else least_hit[x])
    horizon = data.draw(st.integers(0, n + 1))
    assert is_hitting(g, members, horizon) == all(
        least_hit[x] is not None for x in oracles.interior(g, horizon))


def test_tampered_labels_are_caught():
    g = gen_path(9)
    hs = greedy_hitting(g, 2)
    labels = labeling_from_hitting(g, hs.members)
    labels[3] = (labels[3] or 0) + 1
    assert oracles.countdown_violations(g, labels, 2)
    with pytest.raises(ValueError):
        hitting_from_labeling(g, labels, 2)


def test_zero_label_must_reset_high():
    g = gen_path(3)
    # 0 -> 1 -> 2 with labels 0, 1, 0: the 0 at vertex 0 is followed by
    # label 1 < spacing 2
    assert oracles.countdown_violations(g, [0, 1, 0], 2) == [(0, 1)]


def test_cover_extraction_on_even_vertices():
    g = gen_path(10)
    hs = hitting_from_cover(g, set(range(0, 10, 2)), 2)
    assert hs.members.tolist() == [8]


def test_cover_extraction_full_cover():
    g = gen_path(10)
    hs = hitting_from_cover(g, set(range(10)), 1)
    assert hs.members.tolist() == [9]


def test_cover_extraction_reads_the_cover_once():
    g = gen_path(100)
    cover = list(range(0, 100, 3))
    hs = hitting_from_cover(g, cover, 2)
    assert len(hs.members) == 34
    once = hitting_from_cover(g, iter(cover), 2)
    assert once.members.tolist() == hs.members.tolist()
    assert once.horizon == hs.horizon


@pytest.mark.parametrize("bad", [1.9, True])
def test_checked_labeling_needs_exact_ints(bad):
    # a float label used to be truncated, and this labeling passed
    with pytest.raises(ValueError, match="labels must be None or integers"):
        check_labeling(FunctionalGraph([1, None]), [bad, 0], 2)


@settings(max_examples=40)
@given(forest_graphs(), st.integers(1, 4), st.data())
def test_cover_extraction_always_independent(g, spacing, data):
    cover = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
    hs = hitting_from_cover(g, cover, spacing)
    assert is_forward_independent(g, hs.members, spacing) \
        or not len(hs.members)


def test_eqrel_extraction_singletons_keep_sinks():
    g = gen_path(6)
    eq = oracles.partition_from_classes([{x} for x in range(6)])
    hs, report = hitting_from_equivalence(g, eq, 1, 1)
    assert hs.members.tolist() == [5]
    assert report["max_class_diameter"] == 0


def test_eqrel_extraction_passes_verifiers_downstream():
    from funcgraphs.asdim import (
        distance_parity_coloring, equivalence_from_coloring, flip_dists)
    g = gen_random_forest(500, 2)
    base = greedy_hitting(g, 144)
    coloring = distance_parity_coloring(g, base.members, 1)
    wit = equivalence_from_coloring(g, coloring, flip_dists(g, coloring))
    hs, _ = hitting_from_equivalence(g, wit.classes, 1, 1)
    assert is_forward_independent(g, hs.members, 1)
    assert is_hitting(g, hs.members, hs.horizon)


def test_spacing_below_one_rejected():
    g = gen_path(4)
    with pytest.raises(ValueError):
        greedy_hitting(g, 0)
    with pytest.raises(ValueError):
        is_forward_independent(g, {0}, 0)
    with pytest.raises(ValueError):
        periodic_hitting(g, 1)


@pytest.mark.parametrize("spacing", [0, -2])
def test_labeling_spacing_below_one_rejected(spacing):
    # a valid countdown labeling for every spacing up to 2
    g, labels = gen_path(4), [2, 1, 0, 2]
    for call in (check_labeling, hitting_from_labeling):
        with pytest.raises(ValueError, match="spacing must be >= 1"):
            call(g, labels, spacing)


@settings(max_examples=200)
@given(functional_graphs(), st.data())
def test_label_arrays_match_orbit_folds(g, data):
    members = data.draw(member_sets(g))
    assert oracles.partial_list(labeling_from_hitting(g, members)) == \
        oracles.labeling_fold(g, members)
    hits = oracles.hits_forward_fold(g, members)
    for horizon in range(g.n + 2):
        assert is_hitting(g, members, horizon) == all(
            hits[x] for x in oracles.interior(g, horizon))
    for spacing in (1, 2, 3, 7):
        assert is_forward_independent(g, members, spacing) == \
            oracles.is_forward_independent_walk(g, members, spacing)


@settings(max_examples=100)
@given(forest_graphs(), st.integers(1, 9))
def test_greedy_is_depth_mod_spacing_plus_one(g, spacing):
    hs = greedy_hitting(g, spacing)
    assert oracles.vertex_set(hs.members) == \
        oracles.greedy_hitting_fold(g, spacing)
    assert (hs.spacing, hs.horizon) == (spacing, spacing + 1)


@pytest.mark.parametrize("seed", range(3))
def test_greedy_fold_on_generated_forests(seed):
    g = gen_random_forest(3000, seed)
    for spacing in (1, 4, 8, 144, 2999, 2 ** 63 - 1, 2 ** 70):
        assert oracles.vertex_set(greedy_hitting(g, spacing).members) == \
            oracles.greedy_hitting_fold(g, spacing)


def test_member_free_cycles_are_unlabeled_and_unhit():
    # cycles {0, 1} (no member) and {2, 3} (member 3); 4 -> 2
    g = FunctionalGraph([1, 0, 3, 2, 2])
    assert oracles.partial_list(labeling_from_hitting(g, {3})) == \
        [None, None, 1, 0, 2]
    assert not is_hitting(g, {3}, 0)
    assert is_hitting(g, {0, 3}, 0)
    assert labeling_from_hitting(g, set()).tolist() == [-1] * 5
    assert not is_hitting(g, set(), 0)
    assert is_hitting(gen_path(3), set(), 1) is False
    assert is_hitting(gen_path(3), set(), 3) is True


@st.composite
def labeled_graphs(draw):
    """A graph and labels: countdown labels of a member set, perturbed,
    random, or lifted past the int64 range."""
    g = draw(functional_graphs())
    labels = oracles.labeling_fold(g, draw(member_sets(g)))
    mode = draw(st.sampled_from(["exact", "noise", "random", "huge"]))
    small = st.one_of(st.none(), st.integers(0, 8))
    if mode == "noise":
        for x in draw(st.sets(st.integers(0, g.n - 1), max_size=3)):
            labels[x] = draw(small)
    elif mode == "random":
        labels = draw(st.lists(small, min_size=g.n, max_size=g.n))
    elif mode == "huge":
        lift = draw(st.sampled_from([2 ** 63 - 4, 2 ** 64, 2 ** 70]))
        labels = [None if v is None else v + lift for v in labels]
    return g, labels


@settings(max_examples=300)
@given(labeled_graphs(), st.integers(1, 5))
def test_countdown_edge_checks_match_edge_loop(case, spacing):
    g, labels = case
    want = oracles.countdown_violations_loop(g, labels, spacing)
    assert oracles.countdown_violations(g, labels, spacing) == want
    if want:
        with pytest.raises(ValueError):
            hitting_from_labeling(g, labels, spacing)
        return
    hs = hitting_from_labeling(g, labels, spacing)
    assert oracles.vertex_set(hs.members) == \
        {x for x, v in enumerate(labels) if v == 0}
    assert hs.horizon == max((v for v in labels if v is not None),
                             default=0)


@settings(max_examples=300)
@given(forest_graphs(), st.sampled_from(["countdown", "total", "partial"]),
       st.integers(1, 5), st.data())
def test_countdown_check_is_a_hom_into_the_countdown_digraph(g, mode,
                                                             spacing, data):
    if mode == "countdown":  # partial where no member lies ahead
        labels = oracles.labeling_fold(g, data.draw(member_sets(g)))
    else:
        label = st.integers(0, 8)
        if mode == "partial":
            label = st.one_of(st.none(), label)
        labels = data.draw(st.lists(label, min_size=g.n, max_size=g.n))
    top = max([spacing + 1] + [v for v in labels if v is not None])
    h = oracles.countdown_digraph(spacing, top)
    assert check_labeling(g, labels, spacing)[0] == \
        hom_violations(g, labels, h)


def test_members_must_be_vertices():
    g = gen_path(3)
    for members in ({3}, {-1}, {0, 2 ** 70}):
        with pytest.raises(ValueError):
            is_forward_independent(g, members, 1)
        with pytest.raises(ValueError):
            is_hitting(g, members, 0)
        with pytest.raises(ValueError):
            labeling_from_hitting(g, members)


def test_labels_must_be_none_or_non_negative():
    g = gen_path(3)
    for labels in ([2, -1, 0], [None, 1, -(2 ** 70)]):
        with pytest.raises(ValueError):
            oracles.countdown_violations(g, labels, 1)
        with pytest.raises(ValueError):
            hitting_from_labeling(g, labels, 1)
    with pytest.raises(ValueError):
        oracles.countdown_violations(g, [1, 0], 1)


@settings(max_examples=150)
@given(functional_graphs(), st.data())
def test_independence_walks_stop_after_n_steps(g, data):
    # spacings past n, where a walk from a member would wrap a cycle
    members = data.draw(member_sets(g))
    spacing = data.draw(st.integers(g.n, 2 * g.n + 5))
    assert is_forward_independent(g, members, spacing) == \
        oracles.is_forward_independent_walk(g, members, spacing)


def test_independence_with_a_huge_spacing_on_a_cycle():
    # 0 -> 1 <-> 2: the member's walk circles a member-free cycle
    g = FunctionalGraph([1, 2, 1])
    assert is_forward_independent(g, {0}, 10 ** 15)
    assert not is_forward_independent(g, {0, 2}, 10 ** 15)


@pytest.mark.parametrize("member", [-1, 10, 2 ** 70])
def test_members_out_of_range_are_rejected(member):
    g = gen_path(10)
    for check in (lambda m: is_forward_independent(g, m, 1),
                  lambda m: is_hitting(g, m, 0)):
        with pytest.raises(ValueError, match="member out of range"):
            check(frozenset({0, member}))
