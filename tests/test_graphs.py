import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from funcgraphs.graphs import (
    MAX_GEN_NODES, UNBOUNDED, FunctionalGraph, _randbelow_bulk,
    ball_class_counts, class_diameters, gen_path, gen_random_forest,
    gen_random_total, label_array, path_ends, proximity_classes,
    sorted_unique, vertex_array)
from funcgraphs.partition import Partition
from strategies import (
    forest_graphs, functional_graphs, partial_graphs, total_graphs)


def rho_shape():
    # 0 -> 1 -> 2 -> 3 -> 1
    return FunctionalGraph([1, 2, 3, 1])


def test_path_is_acyclic_with_sink():
    g = FunctionalGraph([1, 2, None])
    assert g.acyclic
    assert oracles.forward_iterates(g) == [2, 1, 0]
    assert not g.is_total


def test_self_loop_is_cyclic():
    g = FunctionalGraph([0])
    assert not g.acyclic
    assert oracles.forward_iterates(g) == [UNBOUNDED]


def test_rho_shape_is_cyclic():
    assert not rho_shape().acyclic


def test_forward_orbit_wraps_cycles():
    assert oracles.forward_orbit(rho_shape(), 0, 6) == [0, 1, 2, 3, 1, 2]


def test_orbit_truncates_at_sink():
    g = FunctionalGraph([1, 2, None])
    assert oracles.forward_orbit(g, 0, 10) == [0, 1, 2]
    assert oracles.iterate(g, 0, 2) == 2
    assert oracles.iterate(g, 0, 3) is None


def test_ball_on_tree():
    g = FunctionalGraph([2, 2, 3, None])
    assert g.ball(2, 1) == {0, 1, 2, 3}
    assert g.ball(3, 0) == {3}


def test_cyclic_points_examples():
    assert oracles.forward_iterates(rho_shape()) == [UNBOUNDED] * 4
    loop_and_path = FunctionalGraph([0, 2, None])
    assert oracles.forward_iterates(loop_and_path) == [UNBOUNDED, 1, 0]
    assert UNBOUNDED not in oracles.forward_iterates(gen_path(5))


def test_cycle_transversal_examples():
    assert [c[0] for c in oracles.cycles(rho_shape())] == [1]
    assert oracles.cycles(gen_path(4)) == []
    two_loops = FunctionalGraph([0, 1])
    assert oracles.cycles(two_loops) == [[0], [1]]


def test_transversal_hits_each_cycle_once():
    g = FunctionalGraph([1, 2, 0, 4, 5, 3, 0])
    trans = {c[0] for c in oracles.cycles(g)}
    for cyc in oracles.cycles(g):
        assert cyc[0] == min(cyc)
        assert len(trans & set(cyc)) == 1


def test_interior_example():
    g = FunctionalGraph([2, 2, 3, None])
    assert oracles.interior(g, 1) == {0, 1, 2}
    assert oracles.interior(g, 0) == {0, 1, 2, 3}
    assert oracles.interior(g, 3) == set()


def test_interior_unbounded_on_cycles():
    g = rho_shape()
    assert oracles.forward_iterates(g) == [UNBOUNDED] * 4
    assert oracles.interior(g, 10 ** 9) == {0, 1, 2, 3}


def test_forward_iterates_on_path():
    assert oracles.forward_iterates(gen_path(4)) == [3, 2, 1, 0]


@given(partial_graphs())
def test_forward_iterates_match_naive_walk(g):
    iters = oracles.forward_iterates(g)
    for x in range(g.n):
        naive = oracles.naive_forward_iterates(list(g.succ), x)
        assert iters[x] == (UNBOUNDED if naive is None else naive)


@given(partial_graphs(), st.integers(0, 6))
def test_ball_matches_bfs_oracle(g, radius):
    succ = list(g.succ)
    for x in range(min(g.n, 6)):
        assert g.ball(x, radius) == oracles.bfs_ball(succ, x, radius)


@given(partial_graphs(), st.integers(0, 5), st.data())
def test_proximity_classes_match_naive(g, radius, data):
    subset = data.draw(st.sets(st.integers(0, g.n - 1)))
    part = proximity_classes(g, subset, radius)
    naive = oracles.naive_proximity_classes(list(g.succ), subset, radius)
    assert sorted(oracles.class_lists(part, g.n)) == \
        sorted(map(sorted, (sorted(c) for c in naive)))


@given(forest_graphs(), st.integers(0, 5), st.data())
def test_class_diameters_match_bfs(g, radius, data):
    subset = data.draw(st.sets(st.integers(0, g.n - 1)))
    part = proximity_classes(g, subset, radius)
    diams = class_diameters(g, part)
    for cid, cls in enumerate(oracles.class_lists(part, g.n)):
        assert diams[cid] == oracles.naive_class_diameter(
            list(g.succ), set(cls))


@st.composite
def forest_partitions(draw):
    """A forest and a partition of some of its vertices: no classes,
    singletons, or arbitrary labels, whose classes may be split across
    trees."""
    g = draw(forest_graphs())
    labels = draw(st.one_of(
        st.just([-1] * g.n), st.just(list(range(g.n))),
        st.lists(st.integers(-1, 4), min_size=g.n, max_size=g.n)))
    return g, Partition(np.array(labels))


@given(forest_partitions())
def test_tree_diameters_match_double_sweep_oracle(case):
    g, part = case
    assert class_diameters(g, part).tolist() == \
        oracles.double_sweep_diameters(g, part).tolist()


@pytest.mark.parametrize("succ, classes, diams", [
    # a star: leaves at distance 2, the centre at 1 from each
    ([2, 2, None, 2], [{0, 1, 3}, {2}], [2, 0]),
    # two trees; class 0 lies in both and reports its least member's tree
    ([1, 2, None, 4, None], [{0, 2, 3, 4}, {1}], [2, 0]),
    # two branches of five into one root: 0 and 5 meet only at the
    # root, after 5 steps; the other pairs differ in depth
    ([1, 2, 3, 4, 10, 6, 7, 8, 9, 10, None], [{0, 5}, {1, 8}, {3, 9}],
     [10, 6, 3]),
])
def test_tree_diameters_on_hand_built_forests(succ, classes, diams):
    g = FunctionalGraph(succ)
    part = oracles.partition_from_classes(classes)
    assert class_diameters(g, part).tolist() == diams


def test_class_diameters_take_one_ends_pass(monkeypatch):
    # tree membership comes from the sweep's own distances, so depth's
    # pass is the only one, even with classes split across trees
    import funcgraphs.graphs as graphs_mod
    g = gen_random_forest(2000, 7)
    part = Partition(np.arange(g.n) % 5)
    want = oracles.double_sweep_diameters(g, part).tolist()
    g = FunctionalGraph(g.succ_array)  # no cached depth
    calls = []
    monkeypatch.setattr(graphs_mod, "path_ends",
                        lambda succ: calls.append(1) or path_ends(succ))
    assert class_diameters(g, part).tolist() == want
    assert len(calls) == 1


def test_proximity_single_class_on_spaced_path():
    g = gen_path(13)
    members = set(range(0, 13, 3))
    part = proximity_classes(g, members, 3)
    assert part.num_classes == 1


def test_proximity_splits_beyond_radius():
    g = gen_path(13)
    members = set(range(0, 13, 3))
    part = proximity_classes(g, members, 2)
    assert part.num_classes == len(members)


def test_json_round_trip():
    g = FunctionalGraph([1, None, 0])
    doc = g.to_json_dict()
    assert doc == {"n": 3, "succ": [1, -1, 0]}
    assert json.loads(json.dumps(doc)) == doc
    back = FunctionalGraph.from_json_dict(doc)
    assert back.succ == g.succ


def test_json_rejects_bad_length():
    with pytest.raises(ValueError):
        FunctionalGraph.from_json_dict({"n": 3, "succ": [1, -1]})


def test_successor_out_of_range_rejected():
    with pytest.raises(ValueError):
        FunctionalGraph([5])


def test_generators_deterministic():
    a = gen_random_forest(200, 9)
    b = gen_random_forest(200, 9)
    assert a.succ == b.succ
    assert a.acyclic
    c = gen_random_total(50, 9)
    assert c.succ == gen_random_total(50, 9).succ


def test_total_generator_always_cyclic():
    for seed in range(5):
        g = gen_random_total(10, seed)
        assert g.is_total
        assert not g.acyclic
        assert oracles.forward_iterates(g) == [UNBOUNDED] * 10


def test_forest_generator_keeps_deep_interior():
    g = gen_random_forest(1000, 3)
    assert g.acyclic
    assert len(oracles.interior(g, 200)) > 0


def assert_generators_match_loops(n, seed):
    assert gen_random_forest(n, seed).succ_array.tolist() == \
        oracles.gen_random_forest_loop(n, seed)
    assert gen_random_total(n, seed).succ_array.tolist() == \
        oracles.gen_random_total_loop(n, seed)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3000), st.integers())
def test_generators_replay_the_stdlib_loops(n, seed):
    assert_generators_match_loops(n, seed)


@pytest.mark.parametrize("n", sorted(
    {2 ** k + d for k in (1, 2, 4, 5, 8, 11, 14) for d in (-1, 0, 1)}
    | {2 * 10 ** 5}))
def test_generators_replay_the_stdlib_loops_at_powers_of_two(n):
    assert_generators_match_loops(n, n % 7)


MIXED_BOUNDS = [1, 2, 3, 4, 5, 7, 8, 9, 1, 1, 2 ** 31 - 1, 2 ** 31,
                2 ** 31 + 1, 2 ** 32 - 1, 16, 15, 17, 1, 2 ** 32 - 1, 6]


@pytest.mark.parametrize("bounds", [
    [], [1], [2 ** 32 - 1], MIXED_BOUNDS, MIXED_BOUNDS * 50,
    list(range(5000, 0, -1)), list(range(1, 5000)), [1] * 3000,
    [2 ** 16] * 3000 + [2 ** 16 + 1] * 3000])
def test_randbelow_bulk_matches_randrange(bounds):
    want, got = random.Random(5), random.Random(5)
    assert _randbelow_bulk(got, np.array(bounds, dtype=np.int64)).tolist() \
        == [want.randrange(b) for b in bounds]
    assert got.getstate() == want.getstate()  # no word drawn past them


@settings(max_examples=80)
@given(st.lists(st.one_of(st.integers(1, 70),
                          st.sampled_from([2 ** k for k in range(32)]),
                          st.integers(1, MAX_GEN_NODES))),
       st.integers())
def test_randbelow_bulk_matches_randrange_on_any_bounds(bounds, seed):
    want, got = random.Random(seed), random.Random(seed)
    assert _randbelow_bulk(got, np.array(bounds, dtype=np.int64)).tolist() \
        == [want.randrange(b) for b in bounds]
    assert got.random() == want.random()


@pytest.mark.parametrize("gen", [gen_random_forest, gen_random_total])
@pytest.mark.parametrize("n", [0, MAX_GEN_NODES + 1, 2 ** 63])
def test_generator_sizes_outside_the_cap_are_rejected(monkeypatch, gen, n):
    monkeypatch.setattr(random, "Random", oracles.no_draws)
    with pytest.raises(ValueError, match="n must be in"):
        gen(n, 0)


@settings(max_examples=30)
@given(forest_graphs())
def test_acyclic_strategy_graphs_have_no_cycles(g):
    assert g.acyclic
    assert UNBOUNDED not in oracles.forward_iterates(g)
    total = sum(1 for _ in oracles.edges(g))
    assert total == g.n - g.succ.count(None)


@st.composite
def classed_graphs(draw):
    """A graph (forest, partial with cycles, or total) and class ids."""
    g = draw(st.one_of(forest_graphs(), partial_graphs(), total_graphs()))
    ids = draw(st.lists(st.integers(-1, 5), min_size=g.n, max_size=g.n))
    return g, ids


@settings(max_examples=150)
@given(classed_graphs(), st.integers(0, 6))
def test_ball_class_counts_match_bfs_oracle(case, radius):
    g, ids = case
    got = ball_class_counts(g, Partition(ids), radius)
    assert got.tolist() == oracles.ball_class_counts(g, ids, radius)
    for x in range(g.n):  # and the plain BFS ball
        assert len({ids[y] for y in oracles.bfs_ball(list(g.succ), x, radius)
                    if ids[y] >= 0}) == got[x]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("radius", [1, 2, 4])
def test_ball_class_counts_on_random_total_maps(seed, radius):
    g = gen_random_total(300, seed)
    rng = np.random.default_rng(seed)
    ids = rng.integers(-1, 40, g.n)
    assert ball_class_counts(g, Partition(ids), radius).tolist() == \
        oracles.ball_class_counts(g, ids.tolist(), radius)


@given(partial_graphs(), st.data())
def test_jump_matches_iterate(g, data):
    xs = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1))
    ks = data.draw(st.lists(st.integers(0, 70), min_size=len(xs),
                            max_size=len(xs)))
    got = g.jump(np.array(xs), np.array(ks)).tolist()
    assert got == [-1 if y is None else y
                   for y in map(oracles.iterate, [g] * len(xs), xs, ks)]


@settings(max_examples=200)
@given(functional_graphs())
def test_path_ends_match_naive_walk_and_fold(g):
    depth, end = path_ends(g.succ_array)
    succ = list(g.succ)
    for x in range(g.n):
        assert (depth[x], end[x]) == (oracles.path_end(succ, x)
                                     or (UNBOUNDED, -1))
    assert depth.tolist() == oracles.forward_iterates_fold(g) \
        == oracles.forward_iterates(g)
    assert g.acyclic == (not oracles.cycles(g))
    for horizon in (0, 1, 3, g.n):
        assert oracles.interior(g, horizon) == {
            x for x in range(g.n) if depth[x] == UNBOUNDED
            or depth[x] >= horizon}


@pytest.mark.parametrize("g", [gen_path(1), gen_path(2), gen_path(300),
                               gen_random_forest(3000, 1),
                               gen_random_total(500, 2)])
def test_path_ends_on_deep_and_cyclic_graphs(g):
    depth, end = path_ends(g.succ_array)
    assert depth.tolist() == oracles.forward_iterates_fold(g)
    assert end.tolist() == [
        -1 if k == UNBOUNDED else oracles.forward_orbit(g, x, k + 1)[-1]
        for x, k in enumerate(depth.tolist())]


def test_path_ends_examples():
    # 0 -> 1 -> 2 (sink), 3 -> 3 (loop), 4 -> 3, 5 -> 6 -> 5 (2-cycle)
    depth, end = path_ends(np.array([1, 2, -1, 3, 3, 6, 5]))
    assert depth.tolist() == [2, 1, 0] + [UNBOUNDED] * 4
    assert end.tolist() == [2, 2, 2] + [-1] * 4
    depth, end = path_ends(np.array([], dtype=np.int64))
    assert depth.tolist() == end.tolist() == []


def test_successor_given_as_minus_one_or_huge_rejected():
    for succ in ([1, -1], [2 ** 70, None], [None, -5]):
        with pytest.raises(ValueError, match="out of range"):
            FunctionalGraph(succ)


@settings(max_examples=200)
@given(st.lists(st.one_of(st.integers(-2 ** 63, 2 ** 63 - 1),
                          st.integers(-3, 3)), max_size=60))
def test_sorted_unique_matches_np_unique(values):
    a = np.array(values, dtype=np.int64)
    got = sorted_unique(a)
    assert got.dtype == np.int64
    assert got.tolist() == np.unique(a).tolist()


@settings(max_examples=150)
@given(functional_graphs())
def test_graph_from_array_matches_graph_from_list(g):
    back = FunctionalGraph(g.succ_array.copy())
    assert back.succ == g.succ
    assert np.array_equal(back.succ_array, g.succ_array)
    assert np.array_equal(back.depth, g.depth)
    assert back.to_json_dict() == g.to_json_dict()
    assert back.is_total == g.is_total


def test_graph_keeps_the_sequence_it_was_built_from():
    succ = (1, 2, None)
    assert FunctionalGraph(succ).succ == succ
    assert "succ" not in vars(FunctionalGraph(np.array([1, 2, -1])))


@pytest.mark.parametrize("succ", [[5], [None, -2], [1, 0, 3], [-7, None]])
def test_array_and_list_graphs_report_the_same_range_error(succ):
    with pytest.raises(ValueError, match="out of range") as from_list:
        FunctionalGraph(succ)
    with pytest.raises(ValueError, match="out of range") as from_array:
        FunctionalGraph(np.array([-1 if s is None else s for s in succ]))
    assert str(from_list.value) == str(from_array.value)


@pytest.mark.parametrize("succ", [
    np.array([True, False]), np.array([1.0, -1.0]),
    np.array([[1], [-1]]), np.array([2 ** 64 - 1, 0], dtype=np.uint64),
    [1.0, None], [True, None], [np.int64(1), None], ["1", None]])
def test_graph_rejects_non_integer_successors(succ):
    with pytest.raises(ValueError):
        FunctionalGraph(succ)


@pytest.mark.parametrize("bad", [1.7, 1.0, True, np.int64(1), "1", [1]])
def test_labels_and_members_need_exact_ints(bad):
    # floats used to be truncated and bools read as 1, silently
    with pytest.raises(ValueError, match="labels must be None or integers"):
        label_array([bad, 0])
    with pytest.raises(ValueError, match="member must be integers"):
        vertex_array([bad, 3], 10)
    with pytest.raises(ValueError, match="member must be integers"):
        vertex_array(iter([3, bad]), 10)


def test_json_graph_is_checked_once_from_the_array():
    doc = {"n": 3, "succ": [1, 2, -1]}
    g = FunctionalGraph.from_json_dict(doc)
    assert "succ" not in vars(g)
    assert g.succ == (1, 2, None) and g.to_json_dict() == doc
    for bad in ({"n": 2, "succ": [1, True]}, {"n": 2, "succ": [1, 0.0]},
                {"n": 2, "succ": [1, 2 ** 64]}, {"n": 2, "succ": [1, -2]},
                {"n": 2.0, "succ": [1, -1]}):
        with pytest.raises(ValueError):
            FunctionalGraph.from_json_dict(bad)


def test_ball_class_counts_read_any_labels_through_a_partition():
    # labels offset by 2^57 would overflow a key packing of raw labels
    g = gen_random_forest(200, 0)
    ids = np.random.default_rng(0).integers(-1, 30, g.n)
    shifted = np.where(ids >= 0, ids + 2 ** 57, -1)
    assert ball_class_counts(g, Partition(shifted), 3).tolist() == \
        ball_class_counts(g, Partition(ids), 3).tolist() == \
        oracles.ball_class_counts(g, ids.tolist(), 3)
