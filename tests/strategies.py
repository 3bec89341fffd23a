"""Shared hypothesis strategies."""

from __future__ import annotations

from hypothesis import strategies as st

import oracles
from funcgraphs.digraphs import Digraph
from funcgraphs.graphs import FunctionalGraph


@st.composite
def forest_graphs(draw, max_n: int = 40):
    """Acyclic partial graphs: successors point to higher indices."""
    n = draw(st.integers(1, max_n))
    succ: list[int | None] = []
    for i in range(n):
        if i == n - 1:
            succ.append(None)
        else:
            succ.append(draw(st.one_of(
                st.none(), st.integers(i + 1, n - 1))))
    return FunctionalGraph(succ)


@st.composite
def total_graphs(draw, max_n: int = 12):
    n = draw(st.integers(1, max_n))
    succ = [draw(st.integers(0, n - 1)) for _ in range(n)]
    return FunctionalGraph(succ)


@st.composite
def partial_graphs(draw, max_n: int = 30):
    """Arbitrary partial graphs, cycles allowed."""
    n = draw(st.integers(1, max_n))
    succ = [draw(st.one_of(st.none(), st.integers(0, n - 1)))
            for _ in range(n)]
    return FunctionalGraph(succ)


def functional_graphs():
    """Forests, partial graphs (self-loops, short cycles, trees hanging
    off them) and total graphs."""
    return st.one_of(forest_graphs(), partial_graphs(), total_graphs())


@st.composite
def member_sets(draw, g: FunctionalGraph):
    """A vertex subset of g: empty, arbitrary, every p-th depth level, or
    one depth level (whose members no other member follows)."""
    depth = oracles.forward_iterates(g)
    return draw(st.one_of(
        st.just(set()), st.sets(st.integers(0, g.n - 1)),
        st.integers(2, 5).map(lambda p: {
            x for x, k in enumerate(depth) if k >= 0 and k % p == 0}),
        st.integers(1, 4).map(lambda d: {
            x for x, k in enumerate(depth) if k == d})))


@st.composite
def digraph_templates(draw, max_m: int = 5, sinkless: bool = False):
    m = draw(st.integers(1, max_m))
    pairs = [(u, v) for u in range(m) for v in range(m)]
    edges = draw(st.sets(st.sampled_from(pairs)))
    if sinkless:
        tails = {u for u, _ in edges}
        for u in range(m):
            if u not in tails:
                edges.add((u, draw(st.integers(0, m - 1))))
    return Digraph(m, edges)


@st.composite
def strongly_connected_templates(draw, max_m: int = 5):
    """A cycle through every vertex (a loop when m = 1) plus any edges,
    loops included."""
    m = draw(st.integers(1, max_m))
    order = draw(st.permutations(range(m)))
    pairs = [(u, v) for u in range(m) for v in range(m)]
    edges = set(zip(order, order[1:] + order[:1]))
    return Digraph(m, edges | draw(st.sets(st.sampled_from(pairs))))


def ergodic_templates():
    """Ergodic loopless templates with different reach-all thresholds,
    cycle lengths and embeddings of the ergodic component."""
    return st.sampled_from([
        # 2- and 3-cycle through 0: threshold 4, cycle length 2
        Digraph(4, [(0, 1), (1, 0), (0, 2), (2, 3), (3, 0)]),
        # 3- and 4-cycle through 0: threshold 9, cycle length 3
        Digraph(6, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5),
                    (5, 0)]),
        # ergodic component {2, 3, 4, 5} beside a periodic 2-cycle and
        # a vertex feeding into it
        Digraph(7, [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2), (2, 5),
                    (5, 2), (6, 2)]),
    ])


@st.composite
def increasing_seqs(draw, max_len: int = 60, max_gap: int = 4):
    length = draw(st.integers(1, max_len))
    start = draw(st.integers(0, 3))
    gaps = draw(st.lists(st.integers(1, max_gap), min_size=length - 1,
                         max_size=length - 1))
    seq = [start]
    for g in gaps:
        seq.append(seq[-1] + g)
    return tuple(seq)
