"""Forward-independent hitting sets and countdown labelings.

A set S hits a vertex x when some strictly positive forward iterate of
x lands in S.  S is ``spacing``-forward-independent when no member has
another member within ``spacing`` forward steps.  Such sets correspond
exactly to labelings into the countdown digraph: label each vertex with
its distance to the nearest member ahead; members get 0 and the label
resets to at least ``spacing`` across a member.

Truncation note: all constructions treat missing forward iterates as
"not there" (a sink never blocks independence, and hitting is only
promised on the interior at each construction's documented horizon).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import FunctionalGraph, ball_class_counts, class_diameters, \
    proximity_classes
from .partition import Partition


@dataclass(frozen=True)
class HittingSet:
    """A member set with its independence spacing and the interior
    horizon at which the constructor promises hitting."""

    members: frozenset[int]
    spacing: int
    horizon: int

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def sorted_members(self) -> list[int]:
        return sorted(self.members)


def is_forward_independent(g: FunctionalGraph, members: set[int] | frozenset[int],
                           spacing: int) -> bool:
    """No member reaches another member in 1..spacing forward steps."""
    if spacing < 1:
        raise ValueError("spacing must be >= 1")
    for x in members:
        v: int | None = x
        for _ in range(spacing):
            v = g.succ[v]  # type: ignore[index]
            if v is None:
                break
            if v in members:
                return False
    return True


def _hits_forward(g: FunctionalGraph, members: set[int] | frozenset[int]) -> list[bool]:
    """hits[x]: some strictly positive forward iterate of x is a member."""
    hits = [False] * g.n
    for cyc in g.cycles():
        on_cycle = any(v in members for v in cyc)
        for v in cyc:
            hits[v] = on_cycle
    for x in g.tree_order():
        s = g.succ[x]
        hits[x] = s is not None and (hits[s] or s in members)
    return hits


def is_hitting(g: FunctionalGraph, members: set[int] | frozenset[int],
               horizon: int) -> bool:
    """Every vertex with >= horizon forward iterates is hit by the set."""
    hits = _hits_forward(g, members)
    return all(hits[x] for x in g.interior(horizon))


def greedy_hitting(g: FunctionalGraph, spacing: int) -> HittingSet:
    """Deepest-last greedy construction on an acyclic graph.

    Vertices are processed in tree order, each after its successor; a
    vertex joins whenever no member sits within ``spacing`` forward
    steps (in particular every sink joins).  The result is
    spacing-forward-independent and hits the interior at horizon
    spacing + 1.  Consecutive members along any
    orbit end up exactly spacing + 1 steps apart: no member can sit
    strictly between a member and the next one ahead of it, so the
    forward distance recorded when a vertex joins is spacing + 1 on the
    nose.  Use :func:`periodic_hitting` when wider gaps are wanted.
    """
    if spacing < 1:
        raise ValueError("spacing must be >= 1")
    if not g.acyclic:
        raise ValueError("greedy construction requires an acyclic graph")
    members: set[int] = set()
    # nearest[x]: distance from x to closest member at >= 0 steps, once
    # x has been processed
    nearest = [0] * g.n
    for x in g.tree_order():
        s = g.succ[x]
        strict = None if s is None else nearest[s] + 1
        if strict is None or strict > spacing:
            members.add(x)
            nearest[x] = 0
        else:
            nearest[x] = strict
    return HittingSet(frozenset(members), spacing, spacing + 1)


def periodic_hitting(g: FunctionalGraph, period: int) -> HittingSet:
    """Members at every ``period``-th depth level of an acyclic graph.

    A vertex joins when its count of defined forward iterates is a
    multiple of ``period`` (so all sinks join).  Along any orbit the
    depth drops by one per step, hence consecutive members are exactly
    ``period`` apart: the set is (period - 1)-forward-independent and
    hits the interior at horizon ``period``.  Unlike the greedy
    construction this allows dialing in arbitrary gaps.
    """
    if period < 2:
        raise ValueError("period must be >= 2")
    if not g.acyclic:
        raise ValueError("periodic construction requires an acyclic graph")
    iters = g.forward_iterates()
    members = frozenset(x for x in range(g.n) if iters[x] % period == 0)
    return HittingSet(members, period - 1, period)


def labeling_from_hitting(g: FunctionalGraph,
                          members: set[int] | frozenset[int]) -> list[int | None]:
    """Least k >= 0 with f^k(x) a member, per vertex (None if never).

    Walking a cycle backwards twice gives every cycle vertex the nearest
    member ahead of it; tree vertices then fold over the tree order.
    """
    labels: list[int | None] = [None] * g.n
    for cyc in g.cycles():
        ahead: int | None = None
        for v in reversed(cyc + cyc):
            if v in members:
                ahead = 0
            elif ahead is not None:
                ahead += 1
            labels[v] = ahead
    for x in g.tree_order():
        s = g.succ[x]
        if x in members:
            labels[x] = 0
        elif s is not None and labels[s] is not None:
            labels[x] = labels[s] + 1
    return labels


def countdown_violations(g: FunctionalGraph, labels: list[int | None],
                         spacing: int) -> list[tuple[int, int]]:
    """Edges breaking the countdown invariant (both endpoints labeled).

    Positive labels must decrement along the edge; a zero label must be
    followed by a label >= spacing.
    """
    bad = []
    for x, y in g.edges():
        a, b = labels[x], labels[y]
        if a is None or b is None:
            continue
        if a > 0:
            if b != a - 1:
                bad.append((x, y))
        elif b < spacing:
            bad.append((x, y))
    return bad


def hitting_from_labeling(g: FunctionalGraph, labels: list[int | None],
                          spacing: int) -> HittingSet:
    """Members are the zero-labeled vertices; the labeling must satisfy
    the countdown invariant."""
    if len(labels) != g.n:
        raise ValueError("labeling length does not match vertex count")
    bad = countdown_violations(g, labels, spacing)
    if bad:
        raise ValueError(f"countdown invariant violated on edges {bad[:5]}"
                         + ("..." if len(bad) > 5 else ""))
    members = frozenset(x for x in range(g.n) if labels[x] == 0)
    horizon = max((k for k in labels if k is not None), default=0)
    return HittingSet(members, spacing, horizon)


def _meets_ahead(succ: np.ndarray, key: np.ndarray, xs: np.ndarray,
                 steps: int) -> np.ndarray:
    """Per x in ``xs``: key[f^j(x)] == key[x] for some 1 <= j <= steps."""
    hit = np.zeros(len(xs), dtype=bool)
    idx, v = np.arange(len(xs)), xs
    for _ in range(steps):
        v = succ[v]
        idx, v = idx[v >= 0], v[v >= 0]
        same = key[v] == key[xs[idx]]
        hit[idx[same]] = True
        idx, v = idx[~same], v[~same]
        if not len(idx):
            break
    return hit


def hitting_from_cover(g: FunctionalGraph, cover: set[int] | frozenset[int],
                       spacing: int,
                       diameters: Sequence[int] | None = None) -> HittingSet:
    """Members of the cover whose next ``spacing`` iterates leave it.

    Forward independence is unconditional.  When every vertex sees the
    cover within ``spacing`` steps, the result hits the interior at
    horizon D + spacing where D is the largest diameter of a proximity
    class of the cover at radius ``spacing`` (the last cover vertex of
    each class visit is kept).  ``diameters`` are those classes'
    diameters when the caller already has them.
    """
    if spacing < 1:
        raise ValueError("spacing must be >= 1")
    if not g.acyclic:
        raise ValueError("cover extraction requires an acyclic graph")
    if diameters is None:
        diameters = class_diameters(g, proximity_classes(g, cover, spacing))
    diam = max(diameters, default=0)
    xs = np.array(sorted(cover), dtype=np.int64)
    in_cover = np.bincount(xs, minlength=g.n) > 0
    members = xs[~_meets_ahead(g.arrays()[0], in_cover, xs, spacing)]
    return HittingSet(frozenset(members.tolist()), spacing,
                      int(diam) + spacing)


def hitting_from_equivalence(g: FunctionalGraph, eq: Partition, t: int,
                             d: int, diameters: Sequence[int] | None = None
                             ) -> tuple[HittingSet, dict]:
    """Hitting set from an equivalence relation with small balls.

    A is the set of vertices never related to a later vertex of their
    own orbit; members are the A-vertices whose next t iterates leave A.
    The hypothesis that every ball of radius 2t(d+1) meets at most d+1
    classes is checked and reported (the construction is still returned
    when it fails).  Vertices outside the partition count as unrelated.
    ``diameters`` are the class diameters when the caller has them.
    """
    if t < 1 or d < 0:
        raise ValueError("t must be >= 1 and d >= 0")
    if not g.acyclic:
        raise ValueError("equivalence extraction requires an acyclic graph")
    if diameters is None:
        diameters = class_diameters(g, eq)
    max_diam = int(max(diameters, default=0))
    succ, cid = g.arrays()[0], eq.id_array(g.n)
    # related iterates are at most max_diam steps ahead
    related = np.flatnonzero(cid >= 0)
    in_a = np.ones(g.n, dtype=bool)
    in_a[related[_meets_ahead(succ, cid, related, max_diam)]] = False
    a = np.flatnonzero(in_a)
    members = a[~_meets_ahead(succ, in_a, a, t)]
    radius = 2 * t * (d + 1)
    counts = ball_class_counts(g, cid, radius)
    violations = int(np.count_nonzero(counts > d + 1))
    report = {
        "max_class_diameter": max_diam,
        "ball_radius": radius,
        "max_classes_per_ball": int(counts.max(initial=0)),
        "ball_violations": violations,
        "hypothesis_ok": violations == 0,
    }
    horizon = max_diam + 1 + t * (d + 1)
    return HittingSet(frozenset(members.tolist()), t, horizon), report
