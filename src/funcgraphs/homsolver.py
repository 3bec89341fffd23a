"""Digraph homomorphisms from functional graphs into small templates.

A labeling psi of a functional graph G into a template H is a
homomorphism when every edge (x, f(x)) of G maps to an edge of H.
This module has three layers:

* the checker :func:`hom_violations`,
* constructive solvers for special templates: a loop
  (:func:`solve_loop`) and an ergodic loopless template
  (:func:`solve_ergodic`, which needs a spaced hitting set and labels
  every vertex whose forward window is deep enough),
* the general decision procedure :func:`decide_hom` for finite total
  functional graphs.

The ergodic solver reads each vertex's next member from
:func:`funcgraphs.hitting.next_member`.  The decision makes one
in-degree peel of the total graph (:func:`_peel`), which gives its
cycles, its tree order and every vertex's capped height, and then one
top-down pass for labels, with label sets as Python-int bitmasks over
the template (see :meth:`Digraph.step` and :meth:`Digraph.least_walk`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .digraphs import Digraph, GraphShapeError
from .graphs import FunctionalGraph, Labeling, label_array, vertex_array
from .hitting import HittingSet, next_member


def hom_violations(g: FunctionalGraph, psi: Labeling, h: Digraph
                   ) -> list[tuple[int, int]]:
    """Edges of G whose images are not edges of H, skipping unlabeled
    vertices (see :func:`~funcgraphs.graphs.label_array`)."""
    if len(psi) != g.n:
        raise ValueError("labeling length must match the graph")
    try:
        lab = label_array(psi)
    except ValueError:  # a list label below 0 or not an int, named below
        if isinstance(psi, np.ndarray):
            raise
        lab = None
    if lab is None or lab.max(initial=-1) >= h.m:
        v = next(v for v in psi if v is not None and (
            lab is None and (type(v) is not int or v < 0) or v >= h.m))
        if lab is None and type(v) is not int:
            raise ValueError(f"label {v!r} is not an integer")
        raise ValueError(f"label {v} outside the template")
    succ = g.succ_array
    x = np.flatnonzero(succ >= 0)
    x = x[(lab[x] >= 0) & (lab[succ[x]] >= 0)]
    x = x[~_is_edge(h, lab[x], lab[succ[x]])]
    return list(zip(x.tolist(), succ[x].tolist()))


def _is_edge(h: Digraph, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Whether each pair (u[i], v[i]) is an edge of H.

    Looks the pair keys u*m + v up among H's edge keys, in memory linear
    in H's edges and the queries; the keys are Python ints when m*m
    does not fit int64.
    """
    dt = np.int64 if h.m * h.m < 2 ** 63 else object
    a, b = np.array(sorted(h.edges), dtype=dt).reshape(-1, 2).T
    return np.isin(u.astype(dt) * h.m + v, a * h.m + b)


def solve_loop(g: FunctionalGraph, h: Digraph) -> np.ndarray:
    """Constant labeling onto the least loop vertex of the template."""
    loops = h.loop_vertices()
    if not loops:
        raise GraphShapeError("template has no loop")
    return np.full(g.n, min(loops))


# Cap on the ergodic tables' entries, (m + c)(L + 1): m(L + 1) reach sets
# and c(L + 1) window labels.  The chorded 170-cycle needs 9.7 * 10^6 and
# builds them in 1.6 s and 73 MB (the 120-cycle: 3.4 * 10^6, 0.5 s).
MAX_TABLE_ENTRIES = 10 ** 7


@dataclass(frozen=True)
class ErgodicSolverData:
    """Template-side precomputation shared by the ergodic solvers.

    ``cycle`` is the least closed walk of least positive length c at the
    witness vertex, without its return there.  Row p of the c x (L + 1)
    ``windows`` is the least walk of length L = reach_all from the
    witness to ``cycle[p]``.  Both hold labels of H as int64 arrays.
    """

    reach_all: int
    cycle: np.ndarray
    windows: np.ndarray

    def labels(self, first: np.ndarray, gap: np.ndarray) -> np.ndarray:
        """Labels in H of vertices ``first`` steps before their next
        member, where that member's own next member is ``gap`` steps
        further, both int64 arrays.

        With L = reach_all, a vertex more than L steps before its member
        takes the cycle label first - L steps before the witness.  The
        L vertices before a member (its entry window) walk from the
        witness to the member's own label.  -1, in the arguments or in
        the result, marks a value cut off by a sink or by the end of a
        window; ``gap`` is -1 wherever ``first`` is.
        """
        ell0, c = self.reach_all, len(self.cycle)
        psi = np.where(first > ell0, self.cycle[(ell0 - first) % c], -1)
        near = (first <= ell0) & (gap >= 0)  # a member ahead: first >= 1
        gap = gap[near]
        assert np.all(gap > ell0), "members too close for the threshold"
        psi[near] = self.windows[(ell0 - gap) % c, ell0 - first[near]]
        return psi


def ergodic_solver_data(h: Digraph) -> ErgodicSolverData:
    """Validate the template and build its cycle and entry windows.

    Bit p of ``reach[k][u]`` is set when u walks to ``cycle[p]`` in
    exactly k steps.  At step i window p takes the least out-neighbour
    w with bit p in ``reach[L - i][w]``, so it is the least walk; windows
    walk as one group until their steps part.
    """
    if not h.is_sinkless():
        raise GraphShapeError("template has a sink")
    if h.has_loop():
        raise GraphShapeError("template has a loop; use solve_loop")
    witness = h.is_ergodic()
    if witness is None:
        raise GraphShapeError("template is not ergodic")
    v0 = witness.vertex
    c, _, ell0 = h.walk_lengths(v0)
    if (size := (h.m + c) * (ell0 + 1)) > MAX_TABLE_ENTRIES:
        raise ValueError(f"ergodic tables need (m + c)(L + 1) = {size} "
                         f"entries, over the cap of {MAX_TABLE_ENTRIES}")
    cycle = h.least_walk([1 << v0, *[-1] * (c - 1), 1 << v0])[:-1]
    adj = h.adj()
    reach = [[sum(1 << p for p, z in enumerate(cycle) if z == u)
              for u in range(h.m)]]  # k = 0..L-1: no walk reads reach[L]
    more = [(u, w) for u, ws in enumerate(adj) for w in ws[1:]]
    for _ in range(ell0 - 1):
        prev = reach[-1]
        reach.append([prev[ws[0]] for ws in adj])  # the template is sinkless
        for u, w in more:
            reach[-1][u] |= prev[w]
    windows = np.empty((c, ell0 + 1), dtype=np.int64)
    groups = [((1 << c) - 1, 0, [v0])]  # targets, and their walk from a step
    for targets, start, walk in groups:  # on to the end or to a split
        for i in range(start + 1, ell0 + 1):
            row, left, parts = reach[ell0 - i], targets, []
            for w in adj[walk[-1]]:
                if left & row[w]:
                    parts.append((left & row[w], i, [w]))
                    left &= ~row[w]
            assert not left, "reach_all threshold violated"
            if len(parts) > 1:  # the targets part ways
                groups += parts
                break
            walk += parts[0][2]
        rows = [p for p in range(c) if targets >> p & 1]
        windows[rows, start:start + len(walk)] = walk
    return ErgodicSolverData(ell0, np.array(cycle, dtype=np.int64), windows)


def solve_ergodic(g: FunctionalGraph, data: ErgodicSolverData,
                  hitting: HittingSet) -> np.ndarray:
    """Label an acyclic graph into the ergodic template ``data`` holds.

    The hitting set must be forward-independent at the template's
    reach-all threshold L.  Each vertex's steps to the first member
    ahead, and that member's own steps to the next, come from one
    :func:`~funcgraphs.hitting.next_member` call and index ``data``'s
    cycle and windows through :meth:`ErgodicSolverData.labels`.
    Vertices whose forward data is cut off by a sink get -1.  The same
    call shows independence: no member's next member is within L steps.
    """
    if not g.acyclic:
        raise ValueError("solve_ergodic requires an acyclic graph")
    ell0 = data.reach_all
    members = vertex_array(hitting.members, g.n)
    first, member = next_member(g, members)
    ahead = first[members]
    if np.any((ahead > 0) & (ahead <= ell0)):
        raise ValueError(
            f"hitting set is not {ell0}-forward-independent")
    # after[x]: first[] of the member first[x] steps ahead of x
    return data.labels(first, np.where(member < 0, -1, first[member]))


def decide_hom(g: FunctionalGraph, h: Digraph) -> np.ndarray | None:
    """Find a homomorphism from a total functional graph, or None.

    Each weak component of G is one directed cycle with in-trees, and
    two facts about a sinkless H decide it.  A vertex whose longest
    in-path has k steps can take exactly ``reach[k]``, the labels that
    end a k-step walk in H; these sets shrink at most m - 1 times, so
    heights are capped at m - 1.  Every closed walk of H lies in every
    ``reach[k]``, so G maps to H exactly when H has a closed walk of
    each cycle length of G.  Each distinct length takes the least label
    a from which :meth:`Digraph.least_walk` closes a walk of that length
    back onto a, and every cycle of that length, from its least vertex,
    reuses it.  The top-down pass gives every tree vertex its least
    label in its ``reach`` set with an edge to its successor's label,
    so the output is deterministic but not the globally least labeling.
    """
    if not g.is_total:
        raise ValueError("decide_hom expects a total graph")
    if not h.is_sinkless():
        raise GraphShapeError("template has a sink")
    succ = g.succ_array.tolist()
    tree, cycles, height = _peel(succ, h.m - 1)
    deepest = max(height, default=0)
    reach = [(1 << h.m) - 1]  # reach[k]: the ends of k-step walks in H
    while len(reach) <= deepest:
        reach.append(h.step(h.out_masks, reach[-1]))
        if reach[-1] == reach[-2]:  # stable from here on: share it
            reach += reach[-1:] * (deepest + 1 - len(reach))
    psi = [-1] * g.n
    walks: dict[int, list[int] | None] = {}  # cycle length -> its labels
    for cyc in cycles:
        if len(cyc) not in walks:
            rest = [reach[-1]] * (len(cyc) - 1)
            walks[len(cyc)] = next(filter(None, (
                h.least_walk([1 << a, *rest, 1 << a])
                for a in range(h.m) if reach[-1] >> a & 1)), None)
        labels = walks[len(cyc)]
        if labels is None:
            return None
        for x, v in zip(cyc, labels):
            psi[x] = v
    in_masks = h.in_masks
    for x in reversed(tree):
        fits = reach[height[x]] & in_masks[psi[succ[x]]]
        assert fits, "feasible labels lost their edge"
        psi[x] = (fits & -fits).bit_length() - 1
    assert -1 not in psi
    return np.array(psi, dtype=np.int64)


def _peel(succ: list[int], cap: int
          ) -> tuple[list[int], list[list[int]], list[int]]:
    """One in-degree peel (Kahn 1962) of a total successor list.

    Vertices nobody points to leave first, and whatever never leaves
    lies on a cycle.  Returns the off-cycle vertices in the order they
    left, each before its successor; the cycles in successor order, each
    from its least vertex and sorted by it; and every vertex's longest
    in-path, capped at ``cap``, final once the vertex leaves.
    """
    indeg, height = [0] * len(succ), [0] * len(succ)
    for s in succ:
        indeg[s] += 1
    order = [x for x, k in enumerate(indeg) if not k]
    for x in order:  # the loop also visits what it appends
        s, k = succ[x], height[x]
        if k >= height[s]:
            height[s] = k + 1 if k < cap else cap
        indeg[s] -= 1
        if not indeg[s]:
            order.append(s)
    cycles: list[list[int]] = []
    for x, k in enumerate(indeg):
        if k:  # x is the least vertex of a cycle not yet collected
            cycles.append([])
            while indeg[x]:
                indeg[x] = 0
                cycles[-1].append(x)
                x = succ[x]
    return order, cycles, height
