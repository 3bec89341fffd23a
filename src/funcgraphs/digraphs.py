"""Finite digraph templates: ergodicity, classification, walks.

Templates are small directed graphs (loops allowed, no parallel edges)
used as homomorphism targets.  The central classification splits
sinkless templates into three classes: those with a loop, loopless ones
that are ergodic, and the rest.

A digraph is ergodic when some vertex v admits closed walks of every
length >= some threshold.  Equivalently, some strongly connected
component containing at least one edge has cycle-length gcd 1.  The
threshold search is bounded by the Wielandt bound m^2 - 2m + 2 (plus m
slack): beyond it, a primitive component admits closed walks of every
length, so a bounded scan determines the exact minimum.
"""

from __future__ import annotations

import enum
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


def wielandt_bound(m: int) -> int:
    return m * m - 2 * m + 2


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

    def induced(self, vertices: Sequence[int]) -> tuple["Digraph", list[int]]:
        """Induced subgraph; returns it with the old labels of its vertices."""
        keep = sorted(set(vertices))
        index = {v: i for i, v in enumerate(keep)}
        es = [(index[u], index[v]) for u, v in self.edges
              if u in index and v in index]
        return Digraph(len(keep), es), keep

    # ---- strong components and periods ----

    def scc(self) -> Partition:
        """Strongly connected components (iterative Tarjan)."""
        m = self.m
        adj = self.adj()
        index = [-1] * m
        low = [0] * m
        on_stack = [False] * m
        stack: list[int] = []
        comp = [-1] * m
        counter = 0
        ncomp = 0
        for root in range(m):
            if index[root] != -1:
                continue
            work = [(root, 0)]
            while work:
                v, ei = work[-1]
                if ei == 0:
                    index[v] = low[v] = counter
                    counter += 1
                    stack.append(v)
                    on_stack[v] = True
                advanced = False
                for j in range(ei, len(adj[v])):
                    w = adj[v][j]
                    if index[w] == -1:
                        work[-1] = (v, j + 1)
                        work.append((w, 0))
                        advanced = True
                        break
                    if on_stack[w]:
                        low[v] = min(low[v], index[w])
                if advanced:
                    continue
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp[w] = ncomp
                        if w == v:
                            break
                    ncomp += 1
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
        return Partition(np.array(comp))

    def component_period(self, component: Sequence[int]) -> int | None:
        """gcd of cycle lengths inside a strong component, None if edgeless."""
        comp = set(component)
        inner = [(u, v) for u, v in self.edges if u in comp and v in comp]
        if not inner:
            return None
        root = min(comp)
        level = {root: 0}
        frontier = [root]
        adj = self.adj()
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v in comp and v not in level:
                        level[v] = level[u] + 1
                        nxt.append(v)
            frontier = nxt
        g = 0
        for u, v in inner:
            g = gcd(g, level[u] + 1 - level[v])
        return abs(g)

    # ---- ergodicity ----

    def closed_walk_lengths(self, v: int, max_len: int) -> set[int]:
        """Lengths k <= max_len of closed walks at v (0 included)."""
        reach = 1 << v
        lengths = {0}
        for k in range(1, max_len + 1):
            reach = self.step(self.out_masks, reach)
            if reach >> v & 1:
                lengths.add(k)
            if not reach:
                break
        return lengths

    def is_ergodic(self) -> ErgodicWitness | None:
        """Witness vertex with closed walks of every sufficient length.

        Returns the witness minimizing (threshold, vertex), or None when
        no strong component with an edge is aperiodic.
        """
        candidates: list[int] = []
        for component in self.scc().classes():
            g = self.component_period(component)
            if g == 1:
                candidates.extend(component)
        if not candidates:
            return None
        limit = wielandt_bound(self.m) + self.m
        best: ErgodicWitness | None = None
        for v in sorted(candidates):
            lengths = self.closed_walk_lengths(v, limit)
            threshold = 0
            for k in range(limit, -1, -1):
                if k not in lengths:
                    threshold = k + 1
                    break
            if best is None or (threshold, v) < (best.threshold, best.vertex):
                best = ErgodicWitness(v, threshold)
        return best

    def reach_all_threshold(self, v0: int) -> int:
        """Least l such that paths of every length >= l from v0 reach
        every vertex.

        Requires the digraph to be strongly connected and ergodic.
        """
        if self.scc().num_classes != 1:
            raise ValueError("digraph is not strongly connected")
        if self.component_period(range(self.m)) != 1:
            raise ValueError("digraph is not ergodic")
        everyone = (1 << self.m) - 1
        limit = wielandt_bound(self.m) + self.m
        reach = 1 << v0
        worst = -1 if reach == everyone else 0  # the length-0 walk
        for k in range(1, limit + 1):
            reach = self.step(self.out_masks, reach)
            if reach != everyone:
                worst = k
        if reach != everyone:
            raise ValueError("no full-reach length within the search bound")
        return worst + 1


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
        edges.extend((x, y) for y in range(h.m) if reach >> y & 1)
    return Digraph(h.m, edges)


def path_of_length(h: Digraph, u: int, w: int, length: int) -> list[int] | None:
    """Lexicographically least directed path (as a vertex list) of the
    exact length from u to w, or None."""
    if length < 0:
        raise ValueError("length must be >= 0")
    allowed = [(1 << h.m) - 1] * (length + 1)
    allowed[0] &= 1 << u
    allowed[-1] &= 1 << w
    return h.least_walk(allowed)
