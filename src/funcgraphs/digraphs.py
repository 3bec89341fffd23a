"""Finite digraph templates: ergodicity, classification, walks.

Templates are small directed graphs (loops allowed, no parallel edges)
used as homomorphism targets.  The central classification splits
sinkless templates into three classes: those with a loop, loopless ones
that are ergodic, and the rest.

A digraph is ergodic when some vertex v admits closed walks of every
length >= some threshold.  Equivalently, some strongly connected
component containing at least one edge has cycle-length gcd 1, and
one sweep (:meth:`Digraph.periods`) finds every component's gcd.  The
exact threshold at v comes from one BFS over the pairs (vertex, length
mod g), where g is the length of the shortest closed walk at v
(:meth:`Digraph.walk_lengths`), so no search needs a length bound.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Iterable, Sequence

import numpy as np

from .partition import Partition


class TemplateClass(enum.Enum):
    LOOP = "loop"
    ERGODIC_NO_LOOP = "ergodic_no_loop"
    NON_ERGODIC = "non_ergodic"


@dataclass(frozen=True)
class ErgodicWitness:
    """Vertex admitting closed walks of every length >= threshold."""

    vertex: int
    threshold: int


class Digraph:
    """Digraph on vertices 0..m-1 with an edge set (loops allowed)."""

    def __init__(self, m: int, edges: Iterable[tuple[int, int]]):
        if m < 1:
            raise ValueError("m must be >= 1")
        es = set()
        for u, v in edges:
            if not (0 <= u < m and 0 <= v < m):
                raise ValueError(f"edge ({u}, {v}) out of range for m={m}")
            es.add((u, v))
        self.m = m
        self.edges: frozenset[tuple[int, int]] = frozenset(es)
        self._adj: list[list[int]] | None = None

    @classmethod
    def from_json_dict(cls, d: dict) -> "Digraph":
        m = d["m"]
        raw = d["edges"]
        if type(m) is not int:
            raise ValueError("m must be an integer")
        seen = set()
        for e in raw:
            # bool is an int subclass, so compare types exactly
            if type(e) is not list or len(e) != 2 \
                    or not set(map(type, e)) <= {int}:
                raise ValueError(f"edge {e!r} is not a pair of integers")
            t = (e[0], e[1])
            if t in seen:
                raise ValueError(f"duplicate edge {t}")
            seen.add(t)
        return cls(m, seen)

    def to_json_dict(self) -> dict:
        return {"m": self.m, "edges": [list(e) for e in sorted(self.edges)]}

    # ---- adjacency ----

    def adj(self) -> list[list[int]]:
        if self._adj is None:
            a: list[list[int]] = [[] for _ in range(self.m)]
            for u, v in sorted(self.edges):
                a[u].append(v)
            self._adj = a
        return self._adj

    @cached_property
    def out_masks(self) -> list[int]:
        """Per vertex, its out-neighbours as a vertex set: a Python int
        with bit v set for each member v."""
        return [sum(1 << v for v in vs) for vs in self.adj()]

    @cached_property
    def in_masks(self) -> list[int]:
        """Per vertex, its in-neighbours as a vertex set."""
        return Digraph(self.m, [(v, u) for u, v in self.edges]).out_masks

    @staticmethod
    def step(masks: list[int], reach: int) -> int:
        """Vertices one edge of ``masks`` (out_masks or in_masks) away
        from the vertex set ``reach``."""
        out = 0
        while reach:
            low = reach & -reach
            out |= masks[low.bit_length() - 1]
            reach ^= low
        return out

    def least_walk(self, allowed: Sequence[int]) -> list[int] | None:
        """Lexicographically least walk v_0, ..., v_k with each v_i in
        the vertex set ``allowed[i]`` (k = len(allowed) - 1), or None.

        ``can`` holds, from the last position back, the vertices of each
        ``allowed[i]`` from which the walk can still be completed; each
        v_i is the least of them that v_(i-1) has an edge to.
        """
        can = [allowed[-1]]
        for mask in reversed(allowed[:-1]):
            can.append(mask & self.step(self.in_masks, can[-1]))
        walk: list[int] = []
        reach = -1  # v_0 may be any vertex
        for mask in reversed(can):
            mask &= reach
            if not mask:  # only at v_0: later positions meet by construction
                return None
            walk.append((mask & -mask).bit_length() - 1)
            reach = self.out_masks[walk[-1]]
        return walk

    def has_loop(self) -> bool:
        return any(u == v for u, v in self.edges)

    def loop_vertices(self) -> list[int]:
        return sorted(u for u, v in self.edges if u == v)

    def is_sinkless(self) -> bool:
        return len({u for u, _ in self.edges}) == self.m  # no m lists

    # ---- strong components, periods and walk lengths ----

    def scc(self) -> Partition:
        """Strongly connected components (iterative Tarjan), built once."""
        return self._scc

    @cached_property
    def _scc(self) -> Partition:
        m, adj = self.m, self.adj()
        index, low, comp = [-1] * m, [0] * m, [-1] * m
        stack: list[int] = []  # entered vertices not yet in a component
        count, ncomp = itertools.count(), 0
        for root in range(m):
            if index[root] >= 0:
                continue
            index[root] = low[root] = next(count)
            stack.append(root)
            work = [(root, iter(adj[root]))]
            while work:
                v, out = work[-1]
                for w in out:
                    if index[w] < 0:
                        index[w] = low[w] = next(count)
                        stack.append(w)
                        work.append((w, iter(adj[w])))
                        break
                    if comp[w] < 0:  # w is on the stack
                        low[v] = min(low[v], index[w])
                else:
                    work.pop()
                    if work:
                        u = work[-1][0]
                        low[u] = min(low[u], low[v])
                    if low[v] == index[v]:
                        while comp[v] < 0:
                            comp[stack.pop()] = ncomp
                        ncomp += 1
        return Partition(comp)

    @cached_property
    def _comp(self) -> list[int]:
        """Per vertex, the id of its strong component in ``scc()``."""
        return self.scc().id_array(self.m).tolist()

    def periods(self) -> list[int]:
        """Per strong component (by ``scc()`` id), the gcd of its cycle
        lengths, 0 when it has no edge: a BFS along inner edges from the
        component's least vertex levels it, and each inner edge (u, v)
        adds level[u] + 1 - level[v] to the gcd."""
        comp, adj = self._comp, self.adj()
        level = [-1] * self.m
        for root in range(self.m):  # the least vertex of a new component
            if level[root] < 0:
                level[root] = 0
                queue = [root]
                for u in queue:
                    for v in adj[u]:
                        if level[v] < 0 and comp[v] == comp[u]:
                            level[v] = level[u] + 1
                            queue.append(v)
        periods = [0] * self.scc().num_classes
        for u, v in self.edges:
            if comp[u] == comp[v]:
                periods[comp[u]] = gcd(periods[comp[u]],
                                       level[u] + 1 - level[v])
        return periods

    def walk_lengths(self, v: int
                     ) -> tuple[int | None, int | None, int | None]:
        """(g, T, R) for the walks from v inside its strong component C,
        each None when there is none: g is the least positive length of
        a closed walk at v, closed walks at v have every length >= T (the
        length-0 walk counts), and walks of every length >= R reach all C.

        Putting a g-cycle at v in front of a walk keeps its end, so the
        walks from v to w of lengths r mod g have every such length from
        the least, least(w, r), on.  One BFS over the pairs (w, length
        mod g) finds them: T = max_r least(v, r) - g + 1 and
        R = max least - g + 1."""
        if not 0 <= v < self.m:
            raise ValueError(f"vertex {v} out of range for m={self.m}")
        comp, adj = self._comp, self.adj()
        c = comp[v]
        dist, queue, g = {v: 0}, [v], 0
        for u in queue:  # BFS in C; the first edge back to v closes g
            for w in adj[u]:
                if w == v and not g:
                    g = dist[u] + 1
                elif comp[w] == c and w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if not g:
            return None, None, None
        least, frontier, k = {v * g: 0}, [v], 0  # key w * g + r
        while frontier:
            k += 1
            r, nxt = k % g, []
            for u in frontier:
                for w in adj[u]:
                    if comp[w] == c and w * g + r not in least:
                        least[w * g + r] = k
                        nxt.append(w)
            frontier = nxt
        closed = [least.get(v * g + r) for r in range(g)]
        full = len(least) == g * len(dist)  # every pair of C reached
        # layer k is the first empty one, so max least = k - 1
        return (g, None if None in closed else max(closed) - g + 1,
                k - g if full else None)

    # ---- ergodicity ----

    def is_ergodic(self) -> ErgodicWitness | None:
        """Witness vertex with closed walks of every sufficient length,
        minimizing (threshold, vertex), or None when no strong component
        with an edge is aperiodic; searched once per digraph."""
        return self._witness

    @cached_property
    def _witness(self) -> ErgodicWitness | None:
        periods, comp = self.periods(), self._comp
        best = min(((self.walk_lengths(v)[1], v) for v in range(self.m)
                    if periods[comp[v]] == 1), default=None)
        return None if best is None else ErgodicWitness(best[1], best[0])


class GraphShapeError(ValueError):
    """A template violates a structural precondition (e.g. has a sink)."""


def classify(h: Digraph) -> TemplateClass:
    """Three-way split of sinkless templates.

    Loop templates are solvable with constant labelings; loopless
    ergodic ones by symmetry-breaking constructions; the remainder
    require global coordination.
    """
    if not h.is_sinkless():
        raise GraphShapeError("template has a sink; classification undefined")
    if h.has_loop():
        return TemplateClass.LOOP
    if h.is_ergodic() is not None:
        return TemplateClass.ERGODIC_NO_LOOP
    return TemplateClass.NON_ERGODIC


# ---- walks and walk powers ----

def parse_walk(s: str) -> str:
    """Validate a walk string over 'f' (forward) and 'b' (backward)."""
    if not s:
        raise ValueError("walk must be nonempty")
    t = s.lower()
    if any(c not in "fb" for c in t):
        raise ValueError(f"walk may only contain 'f' and 'b': {s!r}")
    return t


def power_walk(h: Digraph, walk: str) -> Digraph:
    """Digraph with an edge (x, y) iff the walk is realizable from x to y.

    Forward steps traverse edges head-wards, backward steps tail-wards.
    """
    walk = parse_walk(walk)
    masks = {"f": h.out_masks, "b": h.in_masks}
    edges = []
    for x in range(h.m):
        reach = 1 << x
        for c in walk:
            reach = h.step(masks[c], reach)
        while reach:  # one pass per edge written, as in Digraph.step
            low = reach & -reach
            edges.append((x, low.bit_length() - 1))
            reach ^= low
    return Digraph(h.m, edges)

