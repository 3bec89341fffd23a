"""Finite functional graphs.

A functional graph is a finite vertex set 0..n-1 together with a partial
successor map ``succ``: each vertex has at most one out-edge.  Vertices
with no successor are sinks.  An acyclic functional graph is a forest of
in-trees whose roots are the sinks; a total successor map necessarily
closes directed cycles.

Distances are measured in the undirected version of the graph (follow
edges either way).  Forward iteration ``x, f(x), f(f(x)), ...`` stops at
sinks and may wrap around cycles.

Values defined along forward orbits (iterate counts, hitting flags,
countdown labels, colorings, homomorphism labels) are folds in which
the value at x comes from the value at f(x).  They all run over one
cached order, :meth:`FunctionalGraph.tree_order`, which lists every
vertex off the cycles after its successor; the cycles themselves come
from :meth:`FunctionalGraph.cycles`.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Sequence

from .partition import Partition, UnionFind

UNBOUNDED = -1  # sentinel for "arbitrarily many forward iterates"


class FunctionalGraph:
    """Immutable-by-convention functional graph.

    ``succ[i]`` is the successor of vertex ``i`` or ``None`` for a sink.
    Derived structure (adjacency, the tree order, forward-iterate
    counts, cycles) is computed lazily and cached; do not mutate
    ``succ`` after construction.
    """

    def __init__(self, succ: Sequence[int | None]):
        n = len(succ)
        for i, s in enumerate(succ):
            if s is not None and not (0 <= s < n):
                raise ValueError(f"successor of {i} out of range: {s}")
        self.n = n
        self.succ: tuple[int | None, ...] = tuple(succ)
        self._adj: list[list[int]] | None = None
        self._preds: list[list[int]] | None = None
        self._iters: list[int] | None = None
        self._tree: list[int] | None = None
        self._cycles: list[list[int]] | None = None

    # ---- construction ----

    @classmethod
    def from_json_dict(cls, d: dict) -> "FunctionalGraph":
        n = d["n"]
        succ = d["succ"]
        # bool is an int subclass, so compare types exactly
        if type(n) is not int or not set(map(type, succ)) <= {int}:
            raise ValueError("n and every successor must be integers")
        if len(succ) != n:
            raise ValueError(f"succ has {len(succ)} entries, expected n={n}")
        return cls([None if s == -1 else s for s in succ])

    def to_json_dict(self) -> dict:
        return {"n": self.n, "succ": [-1 if s is None else s for s in self.succ]}

    # ---- basic structure ----

    def edges(self) -> Iterator[tuple[int, int]]:
        for i, s in enumerate(self.succ):
            if s is not None:
                yield i, s

    @property
    def is_total(self) -> bool:
        return all(s is not None for s in self.succ)

    def adjacency(self) -> list[list[int]]:
        """Undirected adjacency lists (successor and predecessors)."""
        if self._adj is None:
            adj: list[list[int]] = [[] for _ in range(self.n)]
            for i, s in enumerate(self.succ):
                if s is not None:
                    adj[i].append(s)
                    if s != i:
                        adj[s].append(i)
            self._adj = adj
        return self._adj

    def predecessors(self) -> list[list[int]]:
        if self._preds is None:
            preds: list[list[int]] = [[] for _ in range(self.n)]
            for i, s in enumerate(self.succ):
                if s is not None:
                    preds[s].append(i)
            self._preds = preds
        return self._preds

    # ---- forward iteration ----

    def iterate(self, x: int, k: int) -> int | None:
        """f^k(x), or None when some intermediate vertex is a sink."""
        for _ in range(k):
            nxt = self.succ[x]
            if nxt is None:
                return None
            x = nxt
        return x

    def forward_orbit(self, x: int, max_len: int) -> list[int]:
        """x, f(x), f^2(x), ... with at most ``max_len`` entries."""
        out = []
        while len(out) < max_len:
            out.append(x)
            nxt = self.succ[x]
            if nxt is None:
                break
            x = nxt
        return out

    def tree_order(self) -> list[int]:
        """Every vertex off the directed cycles, each after its successor.

        Folds that compute a vertex's value from its successor's run
        over this order.  It comes from one in-degree peel (Kahn 1962):
        vertices nobody points to leave first, and whatever never leaves
        lies on a cycle.  The same pass fills :meth:`cycles`.
        """
        if self._tree is not None:
            return self._tree
        succ = self.succ
        indeg = [0] * self.n
        for s in succ:
            if s is not None:
                indeg[s] += 1
        order = [x for x, k in enumerate(indeg) if k == 0]
        for x in order:  # the loop also visits what it appends
            s = succ[x]
            if s is not None:
                indeg[s] -= 1
                if not indeg[s]:
                    order.append(s)
        cycles: list[list[int]] = []
        for x, k in enumerate(indeg):
            if k:  # x is the least vertex of a cycle not yet collected
                cyc = []
                while indeg[x]:
                    indeg[x] = 0
                    cyc.append(x)
                    x = succ[x]
                cycles.append(cyc)
        order.reverse()
        self._tree = order
        self._cycles = cycles
        return order

    def forward_iterates(self) -> list[int]:
        """Per-vertex count of defined forward iterates.

        ``UNBOUNDED`` marks vertices whose orbit reaches a directed cycle.
        """
        if self._iters is None:
            iters = [UNBOUNDED] * self.n
            for x in self.tree_order():
                s = self.succ[x]
                if s is None:
                    iters[x] = 0
                elif iters[s] != UNBOUNDED:
                    iters[x] = iters[s] + 1
            self._iters = iters
        return self._iters

    def cycles(self) -> list[list[int]]:
        """Vertex lists of all directed cycles, in successor order.

        Each cycle starts at its least vertex, and the cycles are sorted
        by that vertex.
        """
        self.tree_order()
        assert self._cycles is not None
        return self._cycles

    @property
    def acyclic(self) -> bool:
        return not self.cycles()

    def interior(self, horizon: int) -> set[int]:
        """Vertices with at least ``horizon`` defined forward iterates."""
        if horizon < 0:
            raise ValueError("horizon must be >= 0")
        iters = self.forward_iterates()
        return {x for x in range(self.n)
                if iters[x] == UNBOUNDED or iters[x] >= horizon}

    # ---- metric ----

    def ball(self, x: int, radius: int) -> set[int]:
        """All vertices within undirected distance ``radius`` of x."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        adj = self.adjacency()
        seen = {x}
        frontier = [x]
        for _ in range(radius):
            nxt: list[int] = []
            for v in frontier:
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            if not nxt:
                break
            frontier = nxt
        return seen


# ---- proximity classes ----

def proximity_classes(g: FunctionalGraph, subset: Iterable[int],
                      radius: int) -> Partition:
    """Partition of ``subset`` generated by pairs at distance <= radius.

    Computed exactly with one multi-source BFS: every vertex is tagged
    with its nearest subset member, and an edge whose two endpoint tags
    sit at combined distance <= radius merges the tags' classes.  Along
    a shortest path between two subset members at distance <= radius,
    every edge triggers such a merge, so the chain of merges connects
    them; conversely merged tags really are within the radius.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    members = sorted(set(subset))
    for x in members:
        if not (0 <= x < g.n):
            raise ValueError(f"subset vertex {x} out of range")
    uf = UnionFind(members)
    if not members:
        return uf.to_partition()
    adj = g.adjacency()
    dist = [-1] * g.n
    tag = [-1] * g.n
    frontier = []
    for x in members:
        dist[x] = 0
        tag[x] = x
        frontier.append(x)
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if dist[w] == -1:
                    dist[w] = dist[v] + 1
                    tag[w] = tag[v]
                    nxt.append(w)
        frontier = nxt
    for u, v in g.edges():
        if tag[u] != -1 and tag[v] != -1 and tag[u] != tag[v]:
            if dist[u] + 1 + dist[v] <= radius:
                uf.union(tag[u], tag[v])
    return uf.to_partition()


def class_diameters(g: FunctionalGraph, classes: Partition) -> list[int]:
    """Max pairwise distance within each class (indexed by class id).

    On acyclic graphs the metric is a tree metric, so a double sweep
    from any member finds the diameter; both sweeps stop as soon as the
    whole class has been seen.  On graphs with cycles every member is
    swept.
    """
    adj = g.adjacency()

    def sweep(start: int, targets: set[int]) -> tuple[int, int]:
        # BFS from start until all targets seen; returns (farthest
        # target, its distance).
        seen = {start}
        frontier = [start]
        left = len(targets) - (1 if start in targets else 0)
        best, best_d = start, 0
        d = 0
        while frontier and left > 0:
            d += 1
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
                        if w in targets:
                            best, best_d = w, d
                            left -= 1
            frontier = nxt
        return best, best_d

    acyclic = g.acyclic
    out: list[int] = []
    for cls in classes:
        targets = set(cls)
        if len(targets) == 1:
            out.append(0)
            continue
        if acyclic:
            far, _ = sweep(cls[0], targets)
            _, diam = sweep(far, targets)
            out.append(diam)
        else:
            out.append(max(sweep(x, targets)[1] for x in cls))
    return out


# ---- generators ----

def gen_path(n: int) -> FunctionalGraph:
    """The oriented path 0 -> 1 -> ... -> n-1 (sink at n-1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return FunctionalGraph([i + 1 for i in range(n - 1)] + [None])


def gen_random_forest(n: int, seed: int) -> FunctionalGraph:
    """Random acyclic functional graph with deliberately deep trees.

    Each tree is grown from a long backbone chain into its root, and the
    remaining vertices attach to uniformly random already-placed
    vertices.  The backbone keeps a sizeable share of vertices far from
    the sinks, so interiors at large horizons stay populated.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    order = rng.sample(range(n), n)
    ntrees = 1 if n < 20 else rng.choice([1, 1, 1, 2, 3])
    ntrees = min(ntrees, n)
    succ: list[int | None] = [None] * n
    placed: list[int] = []
    idx = 0
    backbone_total = max(ntrees, n // 2)
    per_tree = backbone_total // ntrees
    for _ in range(ntrees):
        root = order[idx]
        idx += 1
        placed.append(root)
        prev = root
        for _ in range(per_tree - 1):
            if idx >= n:
                break
            v = order[idx]
            idx += 1
            succ[v] = prev
            placed.append(v)
            prev = v
    while idx < n:
        v = order[idx]
        idx += 1
        succ[v] = placed[rng.randrange(len(placed))]
        placed.append(v)
    return FunctionalGraph(succ)


def gen_random_total(n: int, seed: int) -> FunctionalGraph:
    """Uniformly random total successor map (always has cycles)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    return FunctionalGraph([rng.randrange(n) for _ in range(n)])
