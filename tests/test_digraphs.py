import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from funcgraphs.digraphs import (
    Digraph, GraphShapeError, TemplateClass, classify, parse_walk,
    power_walk)
from funcgraphs.partition import Partition
from oracles import countdown_digraph, path_of_length, wielandt_bound
from strategies import digraph_templates, strongly_connected_templates


def two_three_cycles():
    # 2-cycle {0,1} and 3-cycle {0,2,3} sharing vertex 0
    return Digraph(4, [(0, 1), (1, 0), (0, 2), (2, 3), (3, 0)])


def test_countdown_digraph_small():
    d = countdown_digraph(1, 2)
    assert set(d.edges) == {(1, 0), (2, 1), (0, 1), (0, 2)}
    assert d.is_sinkless()
    assert not d.has_loop()


def test_countdown_digraph_structure():
    d = countdown_digraph(3, 8)
    assert d.m == 9
    for k in range(1, 9):
        assert (k, k - 1) in set(d.edges)
    resets = {v for u, v in d.edges if u == 0}
    assert resets == set(range(3, 9))
    with pytest.raises(ValueError):
        countdown_digraph(3, 3)


def test_scc_two_cycle_with_pendant():
    d = Digraph(3, [(0, 1), (1, 0), (2, 0)])
    classes = sorted(map(tuple, oracles.class_lists(d.scc(), d.m)))
    assert classes == [(0, 1), (2,)]


@settings(max_examples=200)
@given(digraph_templates(max_m=6))
def test_scc_matches_mutual_reachability(d):
    a = oracles.adjacency_matrix(d.m, d.edges)
    reach = np.eye(d.m, dtype=bool)
    for _ in range(d.m):
        reach |= reach @ a
    # each vertex's class named by its least mutually reachable vertex
    assert oracles.same_partition(
        d.scc(), Partition(np.argmax(reach & reach.T, axis=1)), d.m)


def test_is_ergodic_two_three_cycles():
    w = two_three_cycles().is_ergodic()
    assert w is not None
    assert (w.vertex, w.threshold) == (0, 2)


def test_two_cycle_not_ergodic():
    d = Digraph(2, [(0, 1), (1, 0)])
    assert d.is_ergodic() is None


def test_closed_walk_lengths_match_matrix_oracle():
    d = two_three_cycles()
    got = oracles.closed_walk_lengths(d, 0, 9) - {0}
    want = oracles.closed_walk_lengths_oracle(d.m, d.edges, 0, 9)
    assert got == want == {2, 3, 4, 5, 6, 7, 8, 9}


def test_reach_all_threshold_two_three():
    assert two_three_cycles().walk_lengths(0)[2] == 4


def test_reach_all_threshold_matches_oracle_on_chorded_cycle():
    # 3-cycle 0->1->2->0 with chord 0->2 (aperiodic, strongly connected)
    d = Digraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
    bound = wielandt_bound(3) + 6
    want = oracles.reach_all_threshold_oracle(3, d.edges, 0, bound)
    assert d.walk_lengths(0)[2] == want


@pytest.mark.parametrize("d, want", [
    (Digraph(1, [(0, 0)]), 0),
    # a loop at v0, but the length-0 walk reaches only v0
    (Digraph(2, [(0, 0), (0, 1), (1, 0)]), 1),
    (Digraph(3, [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)]), 1),
])
def test_reach_all_threshold_counts_the_length_zero_walk(d, want):
    assert d.walk_lengths(0)[2] == want


@settings(max_examples=200)
@given(strongly_connected_templates(max_m=5))
@example(Digraph(2, [(0, 0), (0, 1), (1, 0)]))
@example(Digraph(3, [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)]))
def test_reach_all_threshold_matches_oracle(d):
    assume(oracles.component_period(d, range(d.m)) == 1)
    bound = wielandt_bound(d.m) + d.m
    for v0 in range(d.m):
        assert d.walk_lengths(v0)[2] == \
            oracles.reach_all_threshold_oracle(d.m, d.edges, v0, bound)


def test_reach_all_threshold_requires_strong_connectivity():
    d = Digraph(2, [(0, 0), (0, 1), (1, 1)])
    with pytest.raises(ValueError):
        oracles.reach_all_threshold(d, 0)


def chorded_cycle(m):
    # m-cycle 0 -> 1 -> ... -> m-1 -> 0 with the chord m-1 -> 1
    return Digraph(m, [(i, (i + 1) % m) for i in range(m)] + [(m - 1, 1)])


@settings(max_examples=200)
@given(digraph_templates(max_m=6))
@example(Digraph(1, []))
@example(Digraph(2, [(0, 0), (0, 1), (1, 0)]))
def test_walk_lengths_match_matrix_oracles(d):
    horizon = 2 * d.m * d.m + d.m
    connected = d.scc().num_classes == 1
    for v in range(d.m):
        g, threshold, reach_all = d.walk_lengths(v)
        lengths = oracles.closed_walk_lengths_oracle(
            d.m, d.edges, v, horizon)
        assert g == min(lengths, default=None)
        # least t with closed walks at every length in [t, horizon]; a
        # periodic or acyclic v has no run longer than one length
        t = horizon + 1
        while t - 1 in lengths | {0}:
            t -= 1
        assert threshold == (t if t <= d.m * d.m else None)
        if connected:
            assert reach_all == oracles.reach_all_threshold_oracle(
                d.m, d.edges, v, horizon)


@settings(max_examples=200)
@given(digraph_templates(max_m=6))
def test_periods_match_component_oracle(d):
    periods = d.periods()
    classes = oracles.class_lists(d.scc(), d.m)
    assert len(periods) == len(classes)
    for period, component in zip(periods, classes):
        assert period == (oracles.component_period(d, component) or 0)


@pytest.mark.parametrize("m", range(3, 61))
def test_chorded_cycle_threshold_is_one_past_frobenius(m):
    # closed walks at 1 have lengths a(m - 1) + bm, whose Frobenius
    # number is (m - 1)(m - 2) - 1
    w = chorded_cycle(m).is_ergodic()
    assert (w.vertex, w.threshold) == (1, (m - 1) * (m - 2))


@pytest.mark.parametrize("v", [2, 5, -1])
def test_walk_lengths_rejects_vertices_outside_the_template(v):
    with pytest.raises(ValueError, match=f"vertex {v} out of range"):
        Digraph(2, [(0, 1), (1, 0)]).walk_lengths(v)


def test_components_and_witness_are_found_once(monkeypatch):
    d = two_three_cycles()
    assert d.scc() is d.scc()
    w = d.is_ergodic()

    def no_search(self, v):
        raise AssertionError("walk lengths searched again")

    monkeypatch.setattr(Digraph, "walk_lengths", no_search)
    assert d.is_ergodic() is w


def test_path_of_length_examples():
    d = two_three_cycles()
    walk = path_of_length(d, 0, 0, 5)
    assert walk is not None
    assert len(walk) == 6 and walk[0] == walk[-1] == 0
    edge_set = set(d.edges)
    for a, b in zip(walk, walk[1:]):
        assert (a, b) in edge_set
    assert path_of_length(d, 0, 0, 1) is None


@settings(max_examples=100)
@given(digraph_templates(max_m=4), st.data())
def test_path_of_length_matches_enumeration(d, data):
    u, w = (data.draw(st.integers(0, d.m - 1)) for _ in range(2))
    for length in range(7):
        assert path_of_length(d, u, w, length) == \
            oracles.path_of_length_oracle(d.m, d.edges, u, w, length)


@settings(max_examples=300)
@given(digraph_templates(max_m=4), st.data())
def test_least_walk_matches_enumeration(d, data):
    masks = data.draw(st.lists(st.integers(0, (1 << d.m) - 1),
                               min_size=1, max_size=7))
    allowed = [{v for v in range(d.m) if mask >> v & 1} for mask in masks]
    assert d.least_walk(masks) == oracles.least_walk_oracle(d.edges, allowed)


def test_power_forward_squares_three_cycle():
    d = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    p = power_walk(d, "ff")
    assert set(p.edges) == {(0, 2), (1, 0), (2, 1)}


def test_power_forward_backward_is_identity_on_cycle():
    d = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    p = power_walk(d, "fb")
    assert set(p.edges) == {(0, 0), (1, 1), (2, 2)}


@settings(max_examples=60)
@given(digraph_templates(max_m=4))
def test_power_walk_matches_matrix_oracle(d):
    for walk in ("f", "b", "ff", "fb", "bff"):
        got = set(power_walk(d, walk).edges)
        assert got == oracles.power_walk_oracle(d.m, d.edges, walk)


@settings(max_examples=40)
@given(digraph_templates(max_m=4), st.integers(1, 70), st.integers(1, 70))
def test_power_walk_matches_matrix_oracle_on_long_runs(d, k, j):
    for walk in ("f" * k, "b" * k + "f" * j, "fb" * k):
        got = set(power_walk(d, walk).edges)
        assert got == oracles.power_walk_oracle(d.m, d.edges, walk)


def test_parse_walk_rejects_junk():
    assert parse_walk("FfB") == "ffb"
    with pytest.raises(ValueError):
        parse_walk("")
    with pytest.raises(ValueError):
        parse_walk("fxb")


def test_classify_anchor_cases():
    assert classify(Digraph(1, [(0, 0)])) is TemplateClass.LOOP
    assert classify(Digraph(2, [(0, 1), (1, 0)])) is TemplateClass.NON_ERGODIC
    assert classify(two_three_cycles()) is TemplateClass.ERGODIC_NO_LOOP


def test_classify_rejects_sinks():
    with pytest.raises(GraphShapeError):
        classify(Digraph(2, [(0, 1)]))


def test_sinkless_check_reads_the_edge_set(monkeypatch):
    def no_adjacency(self):
        raise AssertionError("adjacency lists built")

    monkeypatch.setattr(Digraph, "adj", no_adjacency)
    assert not Digraph(10 ** 20, []).is_sinkless()
    assert not Digraph(3, [(0, 1), (1, 0), (1, 1)]).is_sinkless()
    assert Digraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)]).is_sinkless()
    with pytest.raises(GraphShapeError):
        classify(Digraph(300_000_000, [(0, 0)]))


@settings(max_examples=150)
@given(digraph_templates(max_m=5))
def test_classify_agrees_with_matrix_oracle(d):
    try:
        want = oracles.classify_oracle(d.m, d.edges)
    except ValueError:
        with pytest.raises(GraphShapeError):
            classify(d)
        return
    assert classify(d).value == want


def test_census_of_loopless_digraphs_on_three_vertices():
    census = oracles.loopless_digraph_census(3)
    assert len(census) == 16


def test_wielandt_bound_values():
    assert wielandt_bound(1) == 1
    assert wielandt_bound(2) == 2
    assert wielandt_bound(4) == 10


def test_induced_subgraph_relabels():
    d = two_three_cycles()
    sub, to_orig = oracles.induced(d, [0, 2, 3])
    assert sub.m == 3
    assert to_orig == [0, 2, 3]
    back = {(to_orig[u], to_orig[v]) for u, v in sub.edges}
    assert back == {(0, 2), (2, 3), (3, 0)}


def test_json_round_trip():
    d = two_three_cycles()
    doc = d.to_json_dict()
    assert doc["m"] == 4
    again = Digraph.from_json_dict(json.loads(json.dumps(doc)))
    assert set(again.edges) == set(d.edges)


def test_duplicate_and_out_of_range_edges_rejected():
    with pytest.raises(ValueError):
        Digraph(2, [(0, 2)])
    d = Digraph(2, [(0, 1), (0, 1), (1, 0)])
    assert len(d.edges) == 2
