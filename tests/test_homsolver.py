import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from funcgraphs.digraphs import Digraph, GraphShapeError
from funcgraphs.graphs import FunctionalGraph, gen_path, gen_random_forest, \
    gen_random_total, label_array
from funcgraphs.hitting import HittingSet, greedy_hitting, periodic_hitting
from funcgraphs.homsolver import (
    _is_edge, _peel, decide_hom, ergodic_solver_data, hom_violations,
    solve_ergodic, solve_loop)
from oracles import retract_to_strong_components, verify_hom
from strategies import (
    digraph_templates, ergodic_templates, forest_graphs, functional_graphs,
    total_graphs)


def two_three_cycles():
    return Digraph(4, [(0, 1), (1, 0), (0, 2), (2, 3), (3, 0)])


def interior_violations(g, psi, h, horizon):
    inside = oracles.interior(g, horizon)
    return [e for e in hom_violations(g, psi, h) if e[0] in inside]


def test_solve_loop_uses_least_loop_vertex():
    h = Digraph(3, [(0, 1), (1, 1), (2, 2), (2, 1)])
    g = gen_path(5)
    psi = solve_loop(g, h)
    assert psi.tolist() == [1] * 5
    assert verify_hom(g, psi, h)


def test_solve_loop_requires_a_loop():
    with pytest.raises(GraphShapeError):
        solve_loop(gen_path(3), Digraph(2, [(0, 1), (1, 0)]))


def test_solver_data_for_two_three_cycles():
    data = ergodic_solver_data(two_three_cycles())
    assert data.reach_all == 4
    assert data.cycle.tolist() == [0, 1]
    assert data.windows.tolist() == [[0, 1, 0, 1, 0], [0, 2, 3, 0, 1]]


def check_tables_against_per_target_walks(h, rows=None):
    """The cycle and the windows ``rows`` (all by default) against one
    least walk per target."""
    data = ergodic_solver_data(h)
    v0, ell0 = h.is_ergodic().vertex, data.reach_all
    cycle = data.cycle.tolist()
    c = len(cycle)
    closed = [oracles.path_of_length(h, v0, v0, k) for k in range(1, c + 1)]
    assert closed[:-1] == [None] * (c - 1)  # c is the least length
    assert cycle == closed[-1][:-1]
    assert data.windows.shape == (c, ell0 + 1)
    for p in range(c) if rows is None else rows:
        assert data.windows[p].tolist() == oracles.path_of_length(
            h, v0, cycle[p], ell0)
    return data


@settings(max_examples=150)
@given(digraph_templates(max_m=6, sinkless=True).map(
    lambda d: Digraph(d.m, [(u, v) for u, v in d.edges if u != v])).filter(
    lambda d: d.is_sinkless() and d.is_ergodic() is not None))
def test_ergodic_tables_match_per_target_walks(h):
    data = check_tables_against_per_target_walks(h)
    if h.m <= 4:  # and the walks that enumeration finds
        v0, ell0 = h.is_ergodic().vertex, data.reach_all
        assert [oracles.path_of_length_oracle(h.m, h.edges, v0, z, ell0)
                for z in data.cycle.tolist()] == data.windows.tolist()


def test_ergodic_tables_match_per_target_walks_on_chorded_cycles():
    for m in range(3, 61):  # every window up to m = 20, then three
        h = Digraph(m, [(i, (i + 1) % m) for i in range(m)] + [(m - 1, 1)])
        check_tables_against_per_target_walks(
            h, None if m <= 20 else {0, m // 2, m - 2})


def test_solver_data_rejects_wrong_shapes():
    with pytest.raises(GraphShapeError):
        ergodic_solver_data(Digraph(1, [(0, 0)]))  # loop
    with pytest.raises(GraphShapeError):
        ergodic_solver_data(Digraph(2, [(0, 1), (1, 0)]))  # periodic
    with pytest.raises(GraphShapeError):
        ergodic_solver_data(Digraph(2, [(0, 1)]))  # sink


def test_solve_ergodic_on_path():
    h = two_three_cycles()
    g = gen_path(200)
    hs = greedy_hitting(g, 4)
    psi = solve_ergodic(g, ergodic_solver_data(h), hs)
    horizon = 2 * (4 + 1) + 4 + 2
    assert not interior_violations(g, psi, h, horizon)
    assert all(psi[x] >= 0 for x in oracles.interior(g, horizon))


def test_solve_ergodic_on_forests_and_periodic_sets():
    h = two_three_cycles()
    data = ergodic_solver_data(h)
    for seed in range(5):
        g = gen_random_forest(800, seed)
        psi = solve_ergodic(g, data, greedy_hitting(g, 4))
        assert not interior_violations(g, psi, h, 16)
        hp = periodic_hitting(g, 9)
        psi2 = solve_ergodic(g, data, hp)
        assert not interior_violations(g, psi2, h, 2 * 9 + 4 + 2)


def test_solve_ergodic_demands_enough_spacing():
    h = two_three_cycles()
    g = gen_path(50)
    hs = greedy_hitting(g, 2)  # spacing 2 < reach_all 4
    with pytest.raises(ValueError):
        solve_ergodic(g, ergodic_solver_data(h), hs)


@pytest.mark.parametrize("gap", [4, 5])
def test_solve_ergodic_checks_spacing_exactly(gap):
    # reach_all is 4: members 4 steps apart are too close, 5 are not
    g = gen_path(50)
    hs = HittingSet(np.array([10, 10 + gap]), gap, 0)
    data = ergodic_solver_data(two_three_cycles())
    if gap <= 4:
        with pytest.raises(ValueError, match="not 4-forward-independent"):
            solve_ergodic(g, data, hs)
    else:
        assert solve_ergodic(g, data, hs)[9] >= 0


@pytest.mark.parametrize("gap", [4, 5])
def test_labels_refuse_members_within_reach_all(gap):
    # the rule itself holds the same line: a window read needs gap > 4
    data = ergodic_solver_data(two_three_cycles())
    first, gaps = np.array([1, 5, -1]), np.array([gap, -1, -1])
    if gap <= 4:
        with pytest.raises(AssertionError, match="members too close"):
            data.labels(first, gaps)
    else:
        assert data.labels(first, gaps).tolist() == [0, 1, -1]


def test_solve_ergodic_rejects_cyclic_input():
    h = two_three_cycles()
    rho = FunctionalGraph([1, 2, 3, 1])
    with pytest.raises(ValueError):
        solve_ergodic(rho, ergodic_solver_data(h),
                      HittingSet(np.array([1]), 4, 5))


@settings(max_examples=80)
@given(st.one_of(
           forest_graphs(),
           st.builds(gen_random_forest, st.integers(1, 400),
                     st.integers(0, 10 ** 6)),
           st.builds(gen_path, st.integers(1, 150))),
       ergodic_templates(), st.booleans(), st.integers(0, 5))
def test_solve_ergodic_matches_window_oracle(g, h, periodic, extra):
    data = ergodic_solver_data(h)
    ell0 = data.reach_all
    hs = (periodic_hitting(g, ell0 + 1 + extra) if periodic
          else greedy_hitting(g, ell0 + extra))
    assert oracles.partial_list(solve_ergodic(g, data, hs)) == \
        oracles.solve_ergodic_by_windows(g, h, hs)


def test_solve_ergodic_matches_fold_on_every_template():
    seen = set()

    # derandomized, so that the assertion after the run is not flaky
    @settings(max_examples=120, derandomize=True)
    @given(st.one_of(
               forest_graphs(),
               st.builds(gen_random_forest, st.integers(1, 1500),
                         st.integers(0, 10 ** 6)),
               st.builds(gen_path, st.integers(1, 300))),
           ergodic_templates(), st.booleans(), st.integers(0, 5))
    def check(g, h, periodic, extra):
        data = ergodic_solver_data(h)
        ell0 = data.reach_all
        hs = (periodic_hitting(g, ell0 + 1 + extra) if periodic
              else greedy_hitting(g, ell0 + extra))
        assert oracles.partial_list(solve_ergodic(g, data, hs)) == \
            oracles.solve_ergodic_fold(g, h, hs)
        seen.add(h.m)

    check()
    # the three templates have 4, 6 and 7 vertices
    assert seen == {4, 6, 7}


def test_decide_absent_three_to_two_cycle():
    tri = FunctionalGraph([1, 2, 0])
    two = Digraph(2, [(0, 1), (1, 0)])
    assert decide_hom(tri, two) is None
    assert oracles.brute_force_hom([1, 2, 0], 2, two.edges) is None


def test_decide_present_four_to_two_cycle():
    four = FunctionalGraph([1, 2, 3, 0])
    two = Digraph(2, [(0, 1), (1, 0)])
    psi = decide_hom(four, two)
    assert psi is not None
    assert verify_hom(four, psi, two)
    assert psi.tolist() in ([0, 1, 0, 1], [1, 0, 1, 0])


def test_decide_requires_total_graph_and_sinkless_template():
    two = Digraph(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        decide_hom(gen_path(3), two)
    with pytest.raises(GraphShapeError):
        decide_hom(FunctionalGraph([0]), Digraph(2, [(0, 1)]))


def test_decide_is_deterministic():
    g = gen_random_total(40, 8)
    h = two_three_cycles()
    a = decide_hom(g, h)
    b = decide_hom(g, h)
    assert oracles.partial_list(a) == oracles.partial_list(b)


@settings(max_examples=120)
@given(total_graphs(max_n=7), st.data())
def test_decide_matches_brute_force(g, data):
    m = data.draw(st.integers(1, 3))
    pairs = [(u, v) for u in range(m) for v in range(m)]
    edges = data.draw(st.sets(st.sampled_from(pairs)))
    tails = {u for u, _ in edges}
    for u in range(m):
        if u not in tails:
            edges.add((u, data.draw(st.integers(0, m - 1))))
    h = Digraph(m, edges)
    psi = decide_hom(g, h)
    want = oracles.brute_force_hom(list(g.succ), m, h.edges)
    assert (psi is None) == (want is None)
    if psi is not None:
        assert verify_hom(g, psi, h)


def test_hom_violations_flags_bad_edges():
    g = gen_path(3)
    h = Digraph(2, [(0, 1), (1, 0)])
    assert hom_violations(g, [0, 1, 0], h) == []
    assert hom_violations(g, [0, 0, 1], h) == [(0, 1)]
    assert hom_violations(g, [0, None, 1], h) == []
    with pytest.raises(ValueError):
        hom_violations(g, [0, 5, 0], h)


def test_verify_hom_rejects_partial_labelings():
    g = gen_path(3)
    h = Digraph(2, [(0, 1), (1, 0)])
    for psi in (np.array([0, -1, 0]), [0, None, 0]):
        with pytest.raises(ValueError, match="total labeling"):
            verify_hom(g, psi, h)


def test_label_arrays_pass_through_once_checked():
    lab = np.array([3, -1, 0])
    assert label_array(lab) is lab
    h = Digraph(2, [(0, 1), (1, 0)])
    for bad in (np.array([0, -2]), np.array([0.0, 1.0])):
        with pytest.raises(ValueError):
            label_array(bad)
        with pytest.raises(ValueError):
            hom_violations(gen_path(2), bad, h)
    with pytest.raises(ValueError, match="label 2 outside"):
        hom_violations(gen_path(3), np.array([-1, 0, 2]), h)


def test_retraction_moves_pendant_label_into_cycle():
    # template: strong 2-cycle {0,1} plus pendant 2 -> 0
    h = Digraph(3, [(0, 1), (1, 0), (2, 0)])
    # total graph: 2-cycle {0,1} with a tree vertex 2 -> 0
    g = FunctionalGraph([1, 0, 0])
    psi = [0, 1, 2]
    assert verify_hom(g, psi, h)
    psi2, parts = retract_to_strong_components(g, psi, h)
    assert verify_hom(g, psi2, h)
    assert 2 not in psi2
    assert psi2.tolist() == [0, 1, 1]
    assert parts.num_classes == 1


def test_retraction_validates_input():
    h = Digraph(3, [(0, 1), (1, 0), (2, 0)])
    g = FunctionalGraph([1, 0, 0])
    with pytest.raises(ValueError):
        retract_to_strong_components(g, [0, 0, 0], h)
    with pytest.raises(ValueError):
        retract_to_strong_components(gen_path(3), [0, 1, 0], h)


def test_retraction_on_random_instances():
    h = Digraph(4, [(0, 1), (1, 0), (2, 0), (3, 2), (3, 1)])
    rng = random.Random(5)
    for _ in range(40):
        g = gen_random_total(rng.randrange(2, 12), rng.randrange(10 ** 6))
        psi = decide_hom(g, h)
        if psi is None:
            continue
        psi2, parts = retract_to_strong_components(g, psi, h)
        assert verify_hom(g, psi2, h)
        # images now stay inside single strong components
        for cls in oracles.class_lists(parts, g.n):
            labels = {psi2[x] for x in cls}
            assert labels <= {0, 1}


def shuffled_map(succ, perm):
    """The map ``succ`` with each vertex x renamed perm[x]."""
    shuffled = [0] * len(succ)
    for x, y in enumerate(succ):
        shuffled[perm[x]] = perm[y]
    return FunctionalGraph(shuffled)


@st.composite
def many_component_maps(draw):
    """Disjoint unions of random maps and one cycle of length up to 40
    (length 1 is a self-loop), with the vertex ids shuffled so that
    components interleave."""
    parts = draw(st.lists(total_graphs(max_n=8), min_size=1, max_size=8))
    cycle = draw(st.integers(1, 40))
    succ: list[int] = [(i + 1) % cycle for i in range(cycle)]
    for part in parts:
        base = len(succ)
        succ += [base + s for s in part.succ]
    return shuffled_map(succ, draw(st.permutations(range(len(succ)))))


def check_against_components_oracle(g, h):
    psi = decide_hom(g, h)
    assert oracles.partial_list(psi) == oracles.decide_hom_by_components(g, h)
    if psi is None:
        return
    psi2, parts = retract_to_strong_components(g, psi, h)
    want, want_parts = oracles.retract_by_components(g, psi, h)
    assert psi2.tolist() == want
    assert oracles.same_partition(parts, want_parts, g.n)


@settings(max_examples=300)
@given(many_component_maps(), digraph_templates(max_m=5, sinkless=True))
@example(FunctionalGraph([1, 2, 0, 4, 3]), Digraph(2, [(0, 1), (1, 0)]))
@example(FunctionalGraph([0, 0, 1, 1]), Digraph(2, [(0, 1), (1, 0)]))
def test_decide_and_retract_match_component_oracle(g, h):
    check_against_components_oracle(g, h)


def test_decide_matches_component_oracle_on_wide_templates():
    # a directed 70-cycle with one chord needs bitmasks wider than 64
    h = Digraph(70, [(i, (i + 1) % 70) for i in range(70)] + [(69, 5)])
    rng = random.Random(3)
    for length in (65, 70, 130, 140, 71):
        succ = [(i + 1) % length for i in range(length)]
        succ += [rng.randrange(len(succ) + i) for i in range(300)]
        check_against_components_oracle(FunctionalGraph(succ), h)


@st.composite
def tailed_cycle_templates(draw):
    """A source chain into a cycle, plus up to three random edges, with
    the labels permuted: the ends of k-step walks lose one chain vertex
    per step until the edges stop them."""
    tail, c = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    m = tail + c
    edges = {(i, i + 1) for i in range(tail)}
    edges |= {(tail + i, tail + (i + 1) % c) for i in range(c)}
    vertex = st.integers(0, m - 1)
    edges |= draw(st.sets(st.tuples(vertex, vertex), max_size=3))
    perm = draw(st.permutations(range(m)))
    return Digraph(m, [(perm[u], perm[v]) for u, v in edges])


@st.composite
def deep_cycle_maps(draw, max_depth: int = 12):
    """Up to three cycle lengths, up to four cycles of each, every
    cycle with an in-path of up to ``max_depth`` steps and a few random
    tree vertices, with the vertex ids shuffled."""
    lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    succ: list[int] = []
    for length in lengths * draw(st.integers(1, 4)):
        base = len(succ)
        succ += [base + (i + 1) % length for i in range(length)]
        for _ in range(draw(st.integers(0, max_depth))):
            succ.append(len(succ) - 1 if len(succ) > base + length else base)
        for _ in range(draw(st.integers(0, 4))):
            succ.append(draw(st.integers(base, len(succ) - 1)))
    return shuffled_map(succ, draw(st.permutations(range(len(succ)))))


@settings(max_examples=200)
@given(deep_cycle_maps(), tailed_cycle_templates())
# the walk ends shrink three times; a 10-step in-path into a fixed point
@example(FunctionalGraph([0, *range(10)]),
         Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 3)]))
# five 3-cycles, but the template's closed walks all have even length
@example(FunctionalGraph([3 * (i // 3) + (i + 1) % 3 for i in range(15)]),
         Digraph(3, [(2, 0), (0, 1), (1, 0)]))
def test_decide_matches_component_oracle_on_deep_trees(g, h):
    check_against_components_oracle(g, h)


def longest_in_paths(succ: list[int]) -> list[int]:
    """Each vertex's longest in-path through off-cycle vertices: walk
    forward from every off-cycle vertex until the walk meets a cycle."""
    n = len(succ)

    def on_cycle(x):
        y = x
        for _ in range(n):
            y = succ[y]
            if y == x:
                return True
        return False
    cyclic = [on_cycle(x) for x in range(n)]
    height = [0] * n
    for u in range(n):
        x, steps = u, 0
        while not cyclic[x]:
            x, steps = succ[x], steps + 1
            height[x] = max(height[x], steps)
    return height


@settings(max_examples=200)
@given(st.one_of(total_graphs(), deep_cycle_maps(),
                 st.builds(gen_random_total, st.integers(1, 150),
                           st.integers(0, 10 ** 6))))
def test_peel_matches_oracle_order_cycles_and_heights(g):
    succ = g.succ_array.tolist()
    height = longest_in_paths(succ)
    for cap in (0, 1, 2, 5, g.n):
        order, cycles, capped = _peel(succ, cap)
        assert cycles == oracles.cycles(g)
        on_cycle = {x for cyc in cycles for x in cyc}
        assert sorted(order) == sorted(set(range(g.n)) - on_cycle)
        where = {x: i for i, x in enumerate(order)}
        assert all(where[x] < where.get(succ[x], g.n) for x in order)
        assert capped == [min(k, cap) for k in height]


def test_decide_memory_does_not_grow_with_the_template():
    # one capped height per vertex and a few shared label sets: a
    # 2,000-vertex template costs no more per graph vertex than a
    # 4-vertex one.  The template's per-vertex masks are its own
    # cache, built before tracing.
    g = gen_random_total(20_000, 0)
    peaks = []
    for m in (4, 2000):
        h = Digraph(m, [(i, (i + 1) % m) for i in range(m)]
                    + [(i, i) for i in range(m)])
        h.out_masks, h.in_masks
        tracemalloc.start()
        try:
            psi = decide_hom(g, h)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert psi is not None
    assert peaks[1] - peaks[0] <= 0.5 * 2 ** 20, peaks


def test_many_disjoint_two_cycles():
    count = 20_000
    g = FunctionalGraph([x ^ 1 for x in range(2 * count)])
    h = Digraph(3, [(0, 1), (1, 0), (2, 0), (2, 2)])
    psi = decide_hom(g, h)
    assert psi is not None and verify_hom(g, psi, h)
    psi2, parts = retract_to_strong_components(g, psi, h)
    assert verify_hom(g, psi2, h)
    assert parts.num_classes == 1


@settings(max_examples=200)
@given(functional_graphs(), digraph_templates(), st.data())
def test_hom_violations_match_edge_loop(g, h, data):
    psi = data.draw(st.lists(st.one_of(st.none(), st.integers(0, h.m - 1)),
                             min_size=g.n, max_size=g.n))
    assert hom_violations(g, psi, h) == oracles.hom_violations_loop(g, psi, h)


@settings(max_examples=200)
@given(digraph_templates(max_m=8), st.data())
def test_edge_keys_match_the_edge_set(h, data):
    pairs = data.draw(st.lists(st.tuples(st.integers(0, h.m - 1),
                                         st.integers(0, h.m - 1))))
    u, v = (np.array([p[i] for p in pairs], dtype=np.int64) for i in (0, 1))
    assert _is_edge(h, u, v).tolist() == [p in h.edges for p in pairs]


def test_edge_keys_past_int64():
    big = 2 ** 70
    h = Digraph(big + 2, [(big, big + 1), (3, big)])
    u = np.array([big, 3, big, big + 1], dtype=object)
    v = np.array([big + 1, big, big, big + 1], dtype=object)
    assert _is_edge(h, u, v).tolist() == [True, True, False, False]
    # m * m past int64 while the labels fit it
    top = 2 ** 32 - 1
    h = Digraph(top + 1, [(0, top), (top, 5)])
    g = gen_path(3)
    assert hom_violations(g, [0, top, 5], h) == []
    assert hom_violations(g, [0, top, 6], h) == [(1, 2)]
    assert hom_violations(g, [top, 0, 5], h) == [(0, 1), (1, 2)]


def test_a_large_template_needs_no_matrix():
    # 60,000 loops: the m x m matrix would take 3.6 GB for 9 edge lookups
    h = Digraph(60_000, [(v, v) for v in range(60_000)])
    g = gen_path(10)
    tracemalloc.start()
    try:
        assert hom_violations(g, solve_loop(g, h), h) == []
        assert hom_violations(g, np.arange(10), h) == \
            [(x, x + 1) for x in range(9)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2 ** 20


def test_hom_violations_names_a_label_outside_the_template():
    g = gen_path(3)
    h = Digraph(2, [(0, 1), (1, 0)])
    for bad in (-1, 2, 2 ** 70, -(2 ** 70)):
        with pytest.raises(ValueError, match=f"label {bad} outside"):
            hom_violations(g, [0, None, bad], h)


@pytest.mark.parametrize("bad", [0.5, 1.0, True, "1", [1], np.int64(1)])
def test_hom_violations_names_a_label_that_is_not_an_int(bad):
    g = gen_path(3)
    h = Digraph(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError) as exc:
        hom_violations(g, [0, None, bad], h)
    assert str(exc.value) == f"label {bad!r} is not an integer"
