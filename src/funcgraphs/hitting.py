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
from typing import Iterable

import numpy as np

from .graphs import FunctionalGraph, Labeling, ball_class_counts, \
    class_diameters, label_array, path_ends, proximity_classes, vertex_array
from .partition import Partition


@dataclass(frozen=True, eq=False)  # an array field: equality is identity
class HittingSet:
    """A sorted int64 array of members with its independence spacing and
    the interior horizon at which the constructor promises hitting."""

    members: np.ndarray
    spacing: int
    horizon: int


def _member_mask(n: int, members: Iterable[int]) -> np.ndarray:
    """The member set as a mask over the vertices 0..n-1."""
    mask = np.zeros(n, dtype=bool)
    mask[vertex_array(members, n)] = True
    return mask


def is_forward_independent(g: FunctionalGraph, members: Iterable[int],
                           spacing: int) -> bool:
    """No member reaches another member in 1..spacing forward steps."""
    if spacing < 1:
        raise ValueError("spacing must be >= 1")
    mask = _member_mask(g.n, members)
    return not _meets_ahead(g.succ_array, mask, np.flatnonzero(mask),
                            spacing).any()


def next_member(g: FunctionalGraph, members: Iterable[int]
                ) -> tuple[np.ndarray, np.ndarray]:
    """Per vertex, the least k >= 1 with f^k(x) a member, and that
    member; -1 for both where there is none.

    With the members' out-edges cut, :func:`path_ends` gives each
    vertex its first member at >= 0 steps: the sink its orbit ends at,
    if that is a member.  The first one strictly ahead is its
    successor's.
    """
    mask, succ = _member_mask(g.n, members), g.succ_array
    depth, end = path_ends(np.where(mask, -1, succ))
    # the successor's first member at >= 0 steps (the extra -1: no successor)
    near = np.r_[np.where((end >= 0) & mask[end], depth, -1), -1][succ]
    ahead = near >= 0
    return np.where(ahead, near + 1, -1), np.where(ahead, end[succ], -1)


def is_hitting(g: FunctionalGraph, members: Iterable[int],
               horizon: int) -> bool:
    """Every vertex with >= horizon forward iterates is hit by the set:
    some strictly positive iterate of it is a member."""
    hit = next_member(g, members)[0] >= 0
    return bool(hit[g.interior_mask(horizon)].all())


def greedy_hitting(g: FunctionalGraph, spacing: int) -> HittingSet:
    """Deepest-last greedy construction on an acyclic graph.

    Vertices are processed each after its successor; a vertex joins
    whenever no member sits within ``spacing`` forward steps (in
    particular every sink joins).  This is :func:`periodic_hitting` with
    period p = spacing + 1.  By induction along that order, the
    greedy's distance ``nearest[x]`` from x to the closest member at
    >= 0 steps is depth(x) mod p.  A sink has depth 0 and joins.  If
    f(x) = y, the closest member ahead of x is nearest[y] + 1 =
    (depth(y) mod p) + 1 steps away, which is at most p; x joins exactly
    when it is p, that is when depth(x) = depth(y) + 1 is a multiple of
    p, and otherwise nearest[x] is that distance, depth(x) mod p.  So
    the result is spacing-forward-independent, consecutive members
    along any orbit are exactly spacing + 1 apart, and it hits the
    interior at horizon spacing + 1.
    """
    if spacing < 1:
        raise ValueError("spacing must be >= 1")
    return periodic_hitting(g, spacing + 1)


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
        raise ValueError("greedy and periodic constructions require an "
                         "acyclic graph")
    # depths are below n, so a longer period only keeps the sinks
    members = np.flatnonzero(g.depth % min(period, g.n + 1) == 0)
    return HittingSet(members, period - 1, period)


def labeling_from_hitting(g: FunctionalGraph, members: Iterable[int]
                          ) -> np.ndarray:
    """Least k >= 0 with f^k(x) a member, per vertex (-1 if never)."""
    members = vertex_array(members, g.n)
    dist = next_member(g, members)[0]
    dist[members] = 0
    return dist


def check_labeling(g: FunctionalGraph, labels: Labeling, spacing: int
                   ) -> tuple[list, HittingSet | None]:
    """The edges whose labeled endpoints break the countdown invariant,
    in edge order, and with none the hitting set of the zero labels.

    Positive labels must decrement along the edge; a zero label must be
    followed by a label >= spacing (see :func:`label_array`)."""
    if spacing < 1:
        raise ValueError("spacing must be >= 1")
    if len(labels) != g.n:
        raise ValueError("labeling length does not match vertex count")
    lab, succ = label_array(labels), g.succ_array
    x = np.flatnonzero(succ >= 0)
    a, b = lab[x], lab[succ[x]]
    x = x[(a >= 0) & (b >= 0) & np.where(a > 0, b != a - 1, b < spacing)]
    if len(x):
        return list(zip(x.tolist(), succ[x].tolist())), None
    return [], HittingSet(np.flatnonzero(lab == 0), spacing,
                          int(lab.max(initial=0)))


def hitting_from_labeling(g: FunctionalGraph, labels: Labeling,
                          spacing: int) -> HittingSet:
    """Members are the zero-labeled vertices; the labeling must satisfy
    the countdown invariant."""
    bad, hs = check_labeling(g, labels, spacing)
    if hs is None:
        raise ValueError(f"countdown invariant violated on edges {bad[:5]}"
                         + ("..." if len(bad) > 5 else ""))
    return hs


def _meets_ahead(succ: np.ndarray, key: np.ndarray, xs: np.ndarray,
                 steps: int) -> np.ndarray:
    """Per x in ``xs``: key[f^j(x)] == key[x] for some 1 <= j <= steps."""
    hit = np.zeros(len(xs), dtype=bool)
    idx, v = np.arange(len(xs)), xs
    for _ in range(min(steps, len(succ))):  # orbits repeat within n steps
        v = succ[v]
        idx, v = idx[v >= 0], v[v >= 0]
        same = key[v] == key[xs[idx]]
        hit[idx[same]] = True
        idx, v = idx[~same], v[~same]
        if not len(idx):
            break
    return hit


def hitting_from_cover(g: FunctionalGraph, cover: Iterable[int],
                       spacing: int,
                       diameters: np.ndarray | None = None) -> HittingSet:
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
    cover = vertex_array(cover, g.n)  # read once: it may be an iterator
    if diameters is None:
        diameters = class_diameters(g, proximity_classes(g, cover, spacing))
    diam = int(np.max(diameters, initial=0))
    in_cover = _member_mask(g.n, cover)
    xs = np.flatnonzero(in_cover)
    members = xs[~_meets_ahead(g.succ_array, in_cover, xs, spacing)]
    return HittingSet(members, spacing, diam + spacing)


def hitting_from_equivalence(g: FunctionalGraph, eq: Partition, t: int,
                             d: int, diameters: np.ndarray | None = None
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
    max_diam = int(np.max(diameters, initial=0))
    succ, cid = g.succ_array, eq.id_array(g.n)
    # related iterates are at most max_diam steps ahead
    related = np.flatnonzero(cid >= 0)
    in_a = np.ones(g.n, dtype=bool)
    in_a[related[_meets_ahead(succ, cid, related, max_diam)]] = False
    a = np.flatnonzero(in_a)
    members = a[~_meets_ahead(succ, in_a, a, t)]
    radius = 2 * t * (d + 1)
    counts = ball_class_counts(g, eq, radius)
    violations = int(np.count_nonzero(counts > d + 1))
    report = {
        "max_class_diameter": max_diam,
        "ball_radius": radius,
        "max_classes_per_ball": int(counts.max(initial=0)),
        "ball_violations": violations,
        "hypothesis_ok": violations == 0,
    }
    horizon = max_diam + 1 + t * (d + 1)
    return HittingSet(members, t, horizon), report
