import random
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from funcgraphs import local_sim
from funcgraphs.digraphs import Digraph, GraphShapeError
from funcgraphs.graphs import FunctionalGraph, path_ends
from funcgraphs.hitting import HittingSet
from funcgraphs.homsolver import hom_violations, solve_ergodic
from funcgraphs.local_sim import (
    MAX_NODES, PathNetwork, RoundLimitError, RulingSetAlgorithm,
    TemplateSolverAlgorithm, cv_iterations, make_path_network, run_local,
    verify_ruling)
from strategies import ergodic_templates


def two_three_cycles():
    return Digraph(4, [(0, 1), (1, 0), (0, 2), (2, 3), (3, 0)])


ID_LAYOUTS = st.sampled_from(["random", "sorted", "reversed"])


def id_layout(net: PathNetwork, layout: str) -> PathNetwork:
    """The network with its identifiers as drawn ("random") or laid out
    monotonically along the indices ("sorted", "reversed"), the
    adversarial cases for naive local-minimum tricks."""
    if layout == "random":
        return net
    ids = np.sort(net.id_array)
    return PathNetwork(ids[::-1] if layout == "reversed" else ids,
                       net.succ_array)


def permute_network(net: PathNetwork, seed: int) -> PathNetwork:
    """Same network under a random relabeling of node indices."""
    n = net.n
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    ids = [0] * n
    succ: list[int | None] = [None] * n
    for i in range(n):
        ids[perm[i]] = int(net.id_array[i])
        s = net.succ[i]
        succ[perm[i]] = None if s is None else perm[s]
    return PathNetwork(ids, succ)


@contextmanager
def blocks_of(size: int):
    """``local_sim._BLOCK`` set to ``size``, so that small cases span
    several blocks of the draw, the run ends, the first color step and
    the verifier."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(local_sim, "_BLOCK", size)
        yield


class ConstantOutput:
    """Zero-round baseline: every node outputs a constant."""

    def __init__(self, value=0):
        self.value = value

    def total_rounds(self, n: int) -> int:
        return 0

    def boot(self, view):
        return None, None, None

    def step(self, view, state, rnd, from_pred, from_succ):
        raise AssertionError("zero-round algorithm stepped")

    def finish(self, view, state):
        return self.value


class EchoNeighborIds:
    """One-round baseline: every node reports its neighbors' ids."""

    def total_rounds(self, n: int) -> int:
        return 1

    def boot(self, view):
        return None, view.ident, view.ident

    def step(self, view, state, rnd, from_pred, from_succ):
        return (from_pred, from_succ), None, None

    def finish(self, view, state):
        return state


def test_cv_iterations_is_flat_over_practical_sizes():
    values = {cv_iterations(n) for n in (10, 100, 10**3, 10**4, 10**6)}
    assert len(values) == 1


def test_network_validation():
    with pytest.raises(ValueError):
        PathNetwork([5, 5], [1, None])                # duplicate ids
    with pytest.raises(ValueError):
        PathNetwork([0, 9], [1, None])                 # id above n**3
    with pytest.raises(ValueError):
        PathNetwork([0, 1, 2], [2, 2, None])           # in-degree two
    with pytest.raises(ValueError):
        PathNetwork([0, 1], [1, 0])                    # cycle
    with pytest.raises(ValueError):
        make_path_network(10, segments=11)


def test_network_rejects_bad_successors_and_mismatched_segments():
    with pytest.raises(ValueError):
        PathNetwork([0, 1], [5, None])                 # successor >= n
    with pytest.raises(ValueError):
        PathNetwork([0, 1], [-1, None])                # -1 is not None
    with pytest.raises(ValueError):
        PathNetwork([0, 1], [2 ** 64, None])           # beyond int64
    with pytest.raises(ValueError):
        PathNetwork([0, 1], [True, None])              # bool successor
    with pytest.raises(ValueError):
        PathNetwork([0, 1], [1.0, None])               # float successor
    with pytest.raises(ValueError):
        PathNetwork([0, 2 ** 64], [1, None])           # id beyond int64
    net = PathNetwork([0, 1, 2], [1, None, None])
    assert net.depth.tolist() == [1, 0, 0]
    assert net.sinks.tolist() == [1, 1, 2]


def test_network_size_limit_is_checked_before_sampling(monkeypatch):
    assert MAX_NODES ** 3 < 2 ** 63 <= (MAX_NODES + 1) ** 3

    def no_sampling(seed):
        raise AssertionError("identifiers sampled")

    monkeypatch.setattr(local_sim.random, "Random", no_sampling)
    with pytest.raises(ValueError):
        make_path_network(MAX_NODES + 1)
    with pytest.raises(ValueError):
        PathNetwork(range(MAX_NODES + 1), range(MAX_NODES + 1))


SEEDS = st.one_of(st.integers(-2 ** 70, -1), st.just(0),
                  st.integers(2 ** 32, 2 ** 33), st.integers(2 ** 64, 2 ** 65))


def stdlib_ids(n, seed):
    return random.Random(seed).sample(range(n ** 3 + 1), n)


# n <= 2 takes sample's pool branch; 1625**3 + 1 < 2**32 < 1626**3 + 1,
# so those two sizes build each value from one word and from two
@settings(max_examples=150, deadline=None)
@given(n=st.one_of(st.integers(1, 3000), st.integers(3, 10),
                   st.sampled_from([1, 2, 1625, 1626])),
       seed=SEEDS, id_mode=ID_LAYOUTS, data=st.data())
def test_bulk_id_draw_replays_stdlib_sample(n, seed, id_mode, data):
    ids = stdlib_ids(n, seed)
    if id_mode != "random":
        ids.sort(reverse=id_mode == "reversed")
    with blocks_of(data.draw(st.integers(1, max(1, n // 2)))):
        net = make_path_network(n, seed)
    assert id_layout(net, id_mode).id_array.tolist() == ids


@pytest.mark.parametrize("n", range(3, 11))
def test_bulk_id_draw_small_n_every_seed(n):
    # rejections and repeats are common here, and a draw of exactly
    # n**3 + 1 comes up often enough to be caught
    for seed in range(200):
        assert make_path_network(n, seed).id_array.tolist() == \
            stdlib_ids(n, seed)


def test_bulk_id_draw_at_1e5():
    assert make_path_network(10 ** 5, 7).id_array.tolist() == \
        stdlib_ids(10 ** 5, 7)


@pytest.mark.parametrize("n", [3, 5, 1626])
def test_bulk_id_draw_tops_up_a_short_first_batch(monkeypatch, n):
    class MT19937(np.random.MT19937):  # the state setter checks the name
        def random_raw(self, size=None, output=True):
            return super().random_raw(min(size, 6))

    monkeypatch.setattr(np.random, "MT19937", MT19937)
    for seed in range(20):
        assert make_path_network(n, seed).id_array.tolist() == \
            stdlib_ids(n, seed)


def test_path_ends_match_forward_orbits():
    for segments in (1, 3, 7):
        net = make_path_network(50, seed=segments, segments=segments)
        for case in (net, permute_network(net, seed=segments)):
            assert case.depth.tolist() == oracles.forward_iterates(case)
            assert case.sinks.tolist() == [
                oracles.forward_orbit(case, x, case.n)[-1]
                for x in range(case.n)]


def test_vector_runs_leave_predecessors_unbuilt():
    net = make_path_network(100, seed=1, segments=2)
    alg = RulingSetAlgorithm(2)
    trace = run_local(alg, net)
    assert verify_ruling(net, trace.outputs, 2, alg.gap_bound())["ok"]
    assert "succ" not in vars(net)
    run_local(oracles.reference_only(alg), net)
    assert "succ" in vars(net)


def test_make_path_network_segments_and_id_modes():
    net = make_path_network(10, seed=3, segments=3)
    assert net.contiguous
    assert np.unique(net.sinks, return_counts=True)[1].tolist() == [4, 3, 3]
    assert [i for i, s in enumerate(net.succ) if s is None] == [3, 6, 9]
    assert len(set(net.id_array.tolist())) == 10
    assert all(0 <= v <= 1000 for v in net.id_array.tolist())
    inc = id_layout(make_path_network(9, seed=3), "sorted").id_array.tolist()
    dec = id_layout(make_path_network(9, seed=3),
                    "reversed").id_array.tolist()
    assert inc == sorted(inc) and dec == sorted(dec, reverse=True)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 2000))
def test_segment_ends_match_the_per_segment_formula(data, n):
    segments = data.draw(st.integers(1, n))
    base, extra = divmod(n, segments)
    ends = [k * base + min(k, extra) for k in range(1, segments + 1)]
    net = make_path_network(n, seed=0, segments=segments)
    assert (np.flatnonzero(net.succ_array < 0) + 1).tolist() == ends


def test_permute_network_preserves_ids_and_shape():
    net = make_path_network(30, seed=5, segments=4)
    shuffled = permute_network(net, seed=6)
    assert sorted(shuffled.id_array.tolist()) == sorted(net.id_array.tolist())
    assert net.succ.count(None) == shuffled.succ.count(None)
    assert not shuffled.contiguous
    assert run_local(RulingSetAlgorithm(1), shuffled).engine == "reference"


def test_constant_baseline_runs_in_zero_rounds():
    net = make_path_network(12, seed=0)
    trace = run_local(ConstantOutput(7), net)
    assert trace.rounds == 0
    assert trace.outputs == [7] * 12
    assert trace.engine == "reference"


def test_echo_baseline_reports_neighbor_ids():
    net = make_path_network(8, seed=1, segments=2)
    trace = run_local(EchoNeighborIds(), net)
    assert trace.rounds == 1
    ids, pred = net.id_array.tolist(), {s: i for i, s in enumerate(net.succ)}
    for i, (pred_id, succ_id) in enumerate(trace.outputs):
        p, s = pred.get(i), net.succ[i]
        assert pred_id == (None if p is None else ids[p])
        assert succ_id == (None if s is None else ids[s])


def test_single_node_is_its_own_member():
    net = make_path_network(1, seed=4)
    trace = run_local(oracles.reference_only(RulingSetAlgorithm(2)), net)
    assert trace.outputs == [True]


def test_ruling_set_on_small_path():
    net = make_path_network(16, seed=9)
    alg = RulingSetAlgorithm(2)
    trace = run_local(oracles.reference_only(alg), net)
    report = verify_ruling(net, trace.outputs, 2, alg.gap_bound())
    assert report["ok"], report
    run_local(oracles.reference_only(alg), net, round_cap=trace.rounds)
    with pytest.raises(RoundLimitError):
        run_local(alg, net, round_cap=trace.rounds - 1)


def test_round_cap_is_checked_before_the_schedule_is_built(monkeypatch):
    # about 1.5 * 3**20 * 10 rounds: far too many to tabulate
    def no_schedule(levels, n):
        raise AssertionError("schedule built")

    monkeypatch.setattr(local_sim, "_ruling_schedule", no_schedule)
    alg = RulingSetAlgorithm(2 ** 20)
    net = make_path_network(10, seed=1)
    with pytest.raises(RoundLimitError):
        run_local(oracles.reference_only(alg), net, round_cap=10)
    trace = run_local(alg, net, round_cap=alg.total_rounds(10))
    assert trace.engine == "vector"
    assert verify_ruling(net, trace.outputs, 2 ** 20, alg.gap_bound())["ok"]
    h = Digraph(4, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 0)])
    with pytest.raises(RoundLimitError):
        run_local(TemplateSolverAlgorithm(h), net, round_cap=10)


def test_ruling_set_midsize_passes_central_verifiers():
    net = make_path_network(1024, seed=2)
    alg = RulingSetAlgorithm(2)
    trace = run_local(alg, net)
    assert trace.engine == "vector"
    assert verify_ruling(net, trace.outputs, 2, alg.gap_bound())["ok"]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 300), data=st.data(),
       id_mode=ID_LAYOUTS,
       spacing=st.integers(1, 5), seed=st.integers(0, 99),
       order_seed=st.one_of(st.none(), st.integers(0, 99)))
def test_engines_agree(n, data, id_mode, spacing, seed, order_seed):
    net = id_layout(make_path_network(
        n, seed=seed, segments=data.draw(st.integers(1, n))), id_mode)
    alg = RulingSetAlgorithm(spacing)
    vec = run_local(alg, net)
    ref = run_local(oracles.reference_only(alg), net, order_seed=order_seed)
    assert (vec.engine, ref.engine) == ("vector", "reference")
    assert np.array_equal(ref.outputs, vec.outputs)
    assert ref.rounds == vec.rounds


@settings(max_examples=60, deadline=None)
@given(h=ergodic_templates(), n=st.integers(1, 80), data=st.data(),
       seed=st.integers(0, 99), shuffle=st.booleans())
def test_network_violations_match_its_functional_graph(h, n, data, seed,
                                                       shuffle):
    net = make_path_network(n, seed=seed,
                            segments=data.draw(st.integers(1, n)))
    if shuffle:
        net = permute_network(net, seed=seed)
    labels = np.array(data.draw(st.lists(st.integers(-1, h.m - 1),
                                         min_size=n, max_size=n)))
    assert hom_violations(net, labels, h) == \
        hom_violations(FunctionalGraph(net.succ_array), labels, h)


def test_outputs_ignore_update_order():
    net = make_path_network(200, seed=11, segments=2)
    alg = RulingSetAlgorithm(2)
    baseline = run_local(oracles.reference_only(alg), net).outputs
    for seed in range(10):
        again = run_local(oracles.reference_only(alg), net, order_seed=seed)
        assert again.outputs == baseline


def test_membership_follows_ids_not_indices():
    net = make_path_network(150, seed=12)
    alg = RulingSetAlgorithm(1)
    base = run_local(oracles.reference_only(alg), net).outputs
    shuffled = permute_network(net, seed=13)
    perm = run_local(oracles.reference_only(alg), shuffled).outputs
    base_ids = set(net.id_array[np.flatnonzero(base)].tolist())
    perm_ids = set(shuffled.id_array[np.flatnonzero(perm)].tolist())
    assert base_ids == perm_ids
    assert verify_ruling(shuffled, perm, 1, alg.gap_bound())["ok"]


def test_monotone_id_layouts():
    for mode in ("sorted", "reversed"):
        net = id_layout(make_path_network(300, seed=14), mode)
        alg = RulingSetAlgorithm(1)
        trace = run_local(alg, net)
        assert verify_ruling(net, trace.outputs, 1, alg.gap_bound())["ok"]


def test_round_counts_flat_in_network_size():
    expected = {1: 10, 2: 40, 4: 130}
    for spacing, rounds in expected.items():
        alg = RulingSetAlgorithm(spacing)
        small = alg.total_rounds(10**3)
        large = alg.total_rounds(10**6)
        assert small == rounds
        assert large - small <= 2


def test_total_rounds_is_the_sum_over_levels():
    for spacing in (1, 2, 3, 4, 5, 63, 64, 2 ** 20, 10 ** 6, 2 ** 200 + 1):
        alg = RulingSetAlgorithm(spacing)
        for n in (1, 2, 1000, MAX_NODES):
            assert alg.total_rounds(n) == (cv_iterations(n) + 6) * sum(
                3 ** k for k in range(alg.levels + 1))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 60), spacing=st.sampled_from([1, 2, 3, 4]),
       segments=st.integers(1, 3), seed=st.integers(0, 50))
def test_ruling_set_property(n, spacing, segments, seed):
    net = make_path_network(n, seed=seed, segments=min(segments, n))
    alg = RulingSetAlgorithm(spacing)
    trace = run_local(oracles.reference_only(alg), net)
    assert verify_ruling(net, trace.outputs, spacing, alg.gap_bound())["ok"]


def test_template_solver_matches_centralized():
    h = two_three_cycles()
    net = make_path_network(300, seed=15)
    alg = TemplateSolverAlgorithm(h)
    trace = run_local(oracles.reference_only(alg), net)
    assert trace.rounds == alg.ruling.total_rounds(300) + alg.window

    members_trace = run_local(oracles.reference_only(alg.ruling), net)
    members = np.flatnonzero(members_trace.outputs)
    hitting = HittingSet(members, alg.data.reach_all, net.n)
    central = solve_ergodic(net, alg.data, hitting)
    assert np.array_equal(alg.labels(trace.outputs), central)

    labels = oracles.partial_list(alg.labels(trace.outputs))
    labeled_edges = [(x, net.succ[x]) for x in range(net.n)
                     if net.succ[x] is not None
                     and labels[x] is not None
                     and labels[net.succ[x]] is not None]
    assert labeled_edges
    assert hom_violations(net, labels, h) == []


def test_template_solver_rejects_loop_template():
    with pytest.raises(GraphShapeError):
        TemplateSolverAlgorithm(Digraph(2, [(0, 0), (0, 1), (1, 0)]))


@settings(max_examples=30, deadline=None)
@given(h=ergodic_templates(), n=st.integers(1, 80),
       segments=st.integers(1, 3),
       id_mode=ID_LAYOUTS,
       seed=st.integers(0, 50))
def test_template_solver_matches_window_oracle(h, n, segments, id_mode,
                                               seed):
    net = id_layout(make_path_network(n, seed=seed,
                                      segments=min(segments, n)), id_mode)
    alg = TemplateSolverAlgorithm(h)
    trace = run_local(oracles.reference_only(alg), net)
    ruled = run_local(oracles.reference_only(alg.ruling), net).outputs
    hitting = HittingSet(np.flatnonzero(ruled), alg.data.reach_all, net.n)
    assert oracles.partial_list(alg.labels(trace.outputs)) == \
        oracles.solve_ergodic_by_windows(net, h, hitting)


@settings(max_examples=60, deadline=None)
@given(h=ergodic_templates(), n=st.integers(1, 80),
       segments=st.integers(1, 3), id_mode=ID_LAYOUTS,
       seed=st.integers(0, 50), shuffle=st.booleans(),
       order_seed=st.one_of(st.none(), st.integers(0, 99)))
@example(h=two_three_cycles(), n=80, segments=1, id_mode="random", seed=3,
         shuffle=False, order_seed=None)  # a node sees a member W steps on
def test_template_solver_outputs_match_window_pairs(h, n, segments, id_mode,
                                                    seed, shuffle,
                                                    order_seed):
    # the raw (first, gap) outputs are exactly what a walk of W steps
    # sees, so the gather rounds alone bound what a node reads
    net = id_layout(make_path_network(n, seed=seed,
                                      segments=min(segments, n)), id_mode)
    if shuffle:
        net = permute_network(net, seed=seed)
    alg = TemplateSolverAlgorithm(h)
    trace = run_local(oracles.reference_only(alg), net, order_seed=order_seed)
    ruled = run_local(oracles.reference_only(alg.ruling), net).outputs
    assert trace.outputs == oracles.window_pairs(net, ruled, alg.window)


def test_template_solver_outputs_stay_in_the_window():
    h = two_three_cycles()
    net = make_path_network(3000, seed=4, segments=5)
    alg = TemplateSolverAlgorithm(h)
    w = alg.window
    trace = run_local(oracles.reference_only(alg), net)
    far = [first + gap if gap >= 0 else first
           for first, gap in trace.outputs]
    assert all(first == gap == -1 or 1 <= first <= f <= w
               for (first, gap), f in zip(trace.outputs, far))
    assert max(far) == w  # the bound is met, so one more round shows


@st.composite
def ruling_instances(draw):
    """A network (index-contiguous or shuffled, one-node paths included),
    a member set that may fail independence or hitting, a spacing and a
    gap bound."""
    n = draw(st.integers(1, 60))
    net = make_path_network(n, seed=draw(st.integers(0, 99)),
                            segments=draw(st.one_of(
                                st.integers(1, min(n, 6)), st.just(n))))
    if draw(st.booleans()):
        net = permute_network(net, seed=draw(st.integers(0, 99)))
    kind = draw(st.sampled_from(["random", "periodic", "ruling"]))
    if kind == "random":
        members = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    elif kind == "periodic":
        period = draw(st.integers(1, 8))
        iters = oracles.forward_iterates(net)
        members = [k % period == 0 for k in iters]
    else:
        alg = RulingSetAlgorithm(draw(st.integers(1, 5)))
        members = run_local(oracles.reference_only(alg), net).outputs
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        members[i] = not members[i]
    return (net, members, draw(st.integers(1, 5)),
            draw(st.integers(1, 30)))


@settings(max_examples=200, deadline=None)
@given(instance=ruling_instances(), data=st.data())
def test_verify_ruling_matches_graph_oracle(instance, data):
    net, members, spacing, gap_bound = instance
    with blocks_of(data.draw(st.integers(1, max(1, net.n // 2)))):
        got = verify_ruling(net, members, spacing, gap_bound)
    assert got == oracles.verify_ruling_by_graph(net, members, spacing,
                                                 gap_bound)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 99),
       shuffle=st.booleans(), data=st.data(),
       fault=st.sampled_from(["duplicate id", "id above n^3",
                              "in-degree two", "cycle", "successor range"]))
def test_malformed_networks_are_rejected(n, seed, shuffle, data, fault):
    net = make_path_network(n, seed=seed,
                            segments=data.draw(st.integers(1, n)))
    if shuffle:
        net = permute_network(net, seed=seed)
    ids, succ = net.id_array.tolist(), list(net.succ)
    node = st.integers(0, n - 1)
    if fault == "duplicate id":
        if n < 2:
            return
        i, j = data.draw(st.lists(node, min_size=2, max_size=2,
                                  unique=True))
        ids[j] = ids[i]
    elif fault == "id above n^3":
        ids[data.draw(node)] = n ** 3 + data.draw(
            st.sampled_from([1, 2, 10 ** 6, 2 ** 63, 2 ** 70]))
    elif fault == "in-degree two":
        targets = [s for s in succ if s is not None]
        if not targets:
            return
        t = data.draw(st.sampled_from(targets))
        i = data.draw(node.filter(lambda x: succ[x] != t))
        succ[i] = t
    elif fault == "cycle":
        cyc = data.draw(st.lists(node, min_size=1, max_size=min(n, 5),
                                 unique=True))
        # detach the cycle's nodes from their predecessors, so that only
        # acyclicity is violated
        succ = [None if s in cyc else s for s in succ]
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            succ[a] = b
    else:
        succ[data.draw(node)] = data.draw(st.sampled_from(
            [n, n + 1, -1, -2, 2 ** 63, -2 ** 70]))
    with pytest.raises(ValueError):
        PathNetwork(ids, succ)


def network_views(net: PathNetwork):
    return (net.id_array.tolist(), net.depth.tolist(), net.sinks.tolist(),
            net.succ, net.contiguous)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 60), seed=st.integers(0, 99), data=st.data())
def test_network_from_arrays_matches_network_from_lists(n, seed, data):
    segments = data.draw(st.one_of(st.integers(1, n), st.just(n)))
    with blocks_of(data.draw(st.integers(1, max(1, n // 2)))):
        net = make_path_network(n, seed=seed, segments=segments)
        shuffled = permute_network(net, seed)
    for case in (net, shuffled):
        assert case.contiguous == all(s is None or s == i + 1
                                      for i, s in enumerate(case.succ))
        from_lists = PathNetwork(case.id_array.tolist(), list(case.succ))
        from_arrays = PathNetwork(
            case.id_array.copy(), np.array([-1 if s is None else s
                                            for s in case.succ]))
        assert network_views(from_lists) == network_views(from_arrays) \
            == network_views(case)
        # the segment-derived depth and sinks are path_ends' over the wiring
        assert [x.tolist() for x in path_ends(case.succ_array)] == \
            [case.depth.tolist(), case.sinks.tolist()]


# explicit ids keep each case's name in test reports
@pytest.mark.parametrize("ids, succ", [
    pytest.param(np.array([False, True]), np.array([1, -1]),
                 id="ids0-succ0-None"),                   # bool ids
    pytest.param(np.array([0, 1]), np.array([True, False]),
                 id="ids1-succ1-None"),                   # bool successors
    pytest.param(np.array([0.0, 1.0]), np.array([1, -1]),
                 id="ids2-succ2-None"),                   # float ids
    pytest.param(np.array([0, 1]), np.array([1.0, -1.0]),
                 id="ids3-succ3-None"),                   # float successors
    pytest.param(np.array([0, 2 ** 64 - 1], dtype=np.uint64),
                 np.array([1, -1]), id="ids4-succ4-None"),
    pytest.param(np.array([0, 1]), np.array([1, 2 ** 63], dtype=np.uint64),
                 id="ids5-succ5-None"),
    pytest.param(np.array([0, 1]), np.array([2, -1]),
                 id="ids6-succ6-None"),                   # successor >= n
    pytest.param(np.array([0, 1]), np.array([-2, -1]),
                 id="ids7-succ7-None"),                   # below -1
    pytest.param(np.array([0, 1]), np.array([2, -1]),
                 id="ids8-succ8-segments8"),              # successor >= n
    pytest.param(np.array([3, 3]), np.array([1, -1]),
                 id="ids9-succ9-segments9"),              # duplicate ids
    pytest.param(np.array([0, 9]), np.array([1, -1]),
                 id="ids10-succ10-None"),                 # id above n**3
    pytest.param(np.array([0, 1, 2]), np.array([2, 2, -1]),
                 id="ids11-succ11-None"),                 # in-degree two
    pytest.param(np.array([0, 1]), np.array([1, 0]),
                 id="ids12-succ12-None"),                 # cycle
    pytest.param(np.array([0, 1, 2]), np.array([1, -1, 1]),
                 id="ids17-succ17-segments17"),           # in-degree two
])
def test_malformed_array_networks_are_rejected(ids, succ):
    with pytest.raises(ValueError):
        PathNetwork(ids, succ)


def test_builder_networks_are_array_backed():
    net = make_path_network(1000, seed=2, segments=3)
    assert net.id_array.dtype == net.succ_array.dtype == np.int64
    assert not {"ids", "succ", "pred"} & set(vars(net))


def draw_heads(data, m: int) -> list[bool]:
    """Path starts: node 0 and any set of others, adjacent ones (one-node
    paths) included."""
    starts = data.draw(st.sets(st.integers(1, m - 1)) if m > 1
                       else st.just(set()))
    return [i == 0 or i in starts for i in range(m)]


def cv_fold(colors: list[int], heads: list[bool], iters: int) -> list[int]:
    for _ in range(iters):
        colors = [local_sim._cv_combine(c, None if h else p)
                  for c, h, p in zip(colors, heads, [None] + colors[:-1])]
    return colors


def mis_fold(colors: list[int], heads: list[bool]) -> list[bool]:
    """Six synchronous phases, node by node: in phase p a node of color
    p joins unless a neighbor on its path joined in an earlier phase."""
    m = len(colors)
    joined = [False] * m
    for phase in range(6):
        before = joined[:]
        for i in range(m):
            left = i > 0 and not heads[i] and before[i - 1]
            right = i + 1 < m and not heads[i + 1] and before[i + 1]
            if colors[i] == phase and not (left or right):
                joined[i] = True
    return joined


@settings(max_examples=150, deadline=None)
@given(ids=st.lists(st.one_of(st.integers(0, MAX_NODES ** 3),
                              st.sampled_from([0, 1, MAX_NODES ** 3,
                                               MAX_NODES ** 3 - 1,
                                               2 ** 62, 2 ** 62 - 1])),
                    min_size=1, max_size=40, unique=True),
       iters=st.integers(0, cv_iterations(MAX_NODES) + 1), data=st.data())
def test_cv_vector_matches_per_node_fold(ids, iters, data):
    heads = draw_heads(data, len(ids))
    with blocks_of(data.draw(st.integers(1, max(1, len(ids) // 2)))):
        got = local_sim._cv_vector(np.array(ids), np.array(heads), iters)
    assert got.tolist() == cv_fold(ids, heads, iters)
    assert got.dtype == (np.uint8 if iters else np.int64)


@settings(max_examples=200, deadline=None)
@given(colors=st.lists(st.integers(0, 6), min_size=1, max_size=40),
       data=st.data(), dtype=st.sampled_from([np.uint8, np.int64]))
def test_mis_vector_matches_per_node_fold(colors, data, dtype):
    # colors need not be proper: adjacent equal colors join together
    heads = draw_heads(data, len(colors))
    got = local_sim._mis_vector(np.array(colors, dtype=dtype),
                                np.array(heads))
    assert got.tolist() == mis_fold(colors, heads)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 400), data=st.data(),
       id_mode=ID_LAYOUTS,
       spacing=st.one_of(st.integers(1, 70), st.integers(1, 2 ** 20),
                         st.sampled_from([2 ** k for k in range(21)])),
       seed=st.integers(0, 99))
def test_vector_outputs_match_the_every_level_kernel(n, data, id_mode,
                                                     spacing, seed):
    net = id_layout(make_path_network(
        n, seed=seed, segments=data.draw(st.integers(1, n))), id_mode)
    alg = RulingSetAlgorithm(spacing)
    with blocks_of(data.draw(st.integers(1, max(1, n // 2)))):
        got = alg.vector_outputs(net)
    assert got.dtype == bool
    assert np.array_equal(got, oracles.ruling_outputs_every_level(alg, net))


@pytest.mark.parametrize("segments", [1, 3, 50])
def test_vector_outputs_stop_at_the_fixed_point(monkeypatch, segments):
    # 3**1000 rounds: past the fixed point every path keeps one member,
    # and the kernel stops there instead of running 1000 levels
    net = make_path_network(50, seed=segments, segments=segments)
    alg = RulingSetAlgorithm(2 ** 1000)
    want = oracles.ruling_outputs_every_level(RulingSetAlgorithm(2 ** 20),
                                              net)
    levels = []
    mis = local_sim._mis_vector

    def counted_mis(colors, heads):
        levels.append(len(colors))
        return mis(colors, heads)

    monkeypatch.setattr(local_sim, "_mis_vector", counted_mis)
    got = alg.vector_outputs(net)
    assert np.array_equal(got, want)
    assert np.unique(net.sinks[got]).size == np.count_nonzero(got) == segments
    assert len(levels) < 20


def test_ruling_request_memory_stays_near_the_network():
    # a request holds the network's four int64 arrays, 32 B/node; each
    # stage's scratch is a few bytes a node (bool and uint8 masks) plus
    # O(_BLOCK), not more n-sized int64 temporaries
    n = 2 * 10 ** 5
    tracemalloc.start()
    try:
        net = make_path_network(n, 0, segments=8)
        stages = [tracemalloc.get_traced_memory()[1]]
        alg = RulingSetAlgorithm(4)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        members = run_local(alg, net).outputs
        stages.append(tracemalloc.get_traced_memory()[1] - held)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        report = verify_ruling(net, members, 4, alg.gap_bound())
        stages.append(tracemalloc.get_traced_memory()[1] - held)
    finally:
        tracemalloc.stop()
    assert report["ok"]
    per_node = [peak / n for peak in stages]
    # the build's peak, and the engine's and the verifier's above what
    # they hold: 38, 10 and 3.4 B/node; 59, 21 and 29 B/node with
    # n-sized int64 temporaries in every stage
    assert per_node[0] <= 32 + 8 and per_node[1] <= 14 \
        and per_node[2] <= 6, per_node
