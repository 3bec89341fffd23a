"""Independent brute-force implementations used as ground truth.

Everything here is written against the definitions directly (BFS,
matrix powers, exhaustive search) and deliberately avoids the library's
own algorithms, so agreement is meaningful.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from math import gcd
from types import SimpleNamespace
from typing import Iterable

import numpy as np


# ---- per-vertex maps and vertex sets ----
# The library holds a partial per-vertex map (a labeling included) as an
# int64 array with -1 where it is undefined, and a vertex set as a sorted
# int64 array; the oracles below hold them as a list with None and as a
# set.  Tests never apply ``is None`` to an array element (always false),
# so library arrays reach them through ``partial_list`` and
# ``vertex_set``.

def partial_list(values: np.ndarray | None) -> list[int | None] | None:
    """A library array as a per-vertex list, None for -1; None (no
    labeling) stays None."""
    if values is None:
        return None
    return [None if v < 0 else v for v in values.tolist()]


def vertex_set(members) -> frozenset[int]:
    """A library vertex array, or any iterable of ints, as a set."""
    if isinstance(members, np.ndarray):
        members = members.tolist()
    return frozenset(members)


def partial_array(values) -> np.ndarray:
    """A per-vertex list as a library array, -1 for None."""
    return np.array([-1 if v is None else v for v in values], dtype=np.int64)


def coloring_lists(coloring) -> tuple[list, list, list]:
    """``dist``, ``landing`` and ``bit`` of a parity coloring as lists."""
    return (partial_list(coloring.dist), partial_list(coloring.landing),
            partial_list(coloring.bit))


def labeled(coloring) -> list[int]:
    """The colored vertices of a parity coloring, in order."""
    return [x for x, b in enumerate(partial_list(coloring.bit))
            if b is not None]


# ---- library API that only tests call ----

def edges(g):
    """The edges (x, f(x)) of g, in vertex order."""
    for x, s in enumerate(g.succ):
        if s is not None:
            yield x, s


def iterate(g, x: int, k: int) -> int | None:
    """f^k(x), or None when some intermediate vertex is a sink."""
    for _ in range(k):
        x = g.succ[x]
        if x is None:
            return None
    return x


def forward_orbit(g, x: int, max_len: int) -> list[int]:
    """x, f(x), f^2(x), ... with at most ``max_len`` entries."""
    out = []
    while len(out) < max_len:
        out.append(x)
        nxt = g.succ[x]
        if nxt is None:
            break
        x = nxt
    return out


def forward_iterates(g) -> list[int]:
    """Per-vertex count of defined forward iterates, ``UNBOUNDED`` where
    the orbit reaches a directed cycle."""
    return g.depth.tolist()


def interior(g, horizon: int) -> set[int]:
    """Vertices with at least ``horizon`` defined forward iterates."""
    return set(np.flatnonzero(g.interior_mask(horizon)).tolist())


def partition_from_classes(classes: Iterable[Iterable[int]]):
    """The partition with the given classes, which must be disjoint."""
    class_of: dict[int, int] = {}
    for cid, members in enumerate(classes):
        for x in members:
            if x in class_of:
                raise ValueError(f"element {x} appears in two classes")
            class_of[x] = cid
    return partition_from_dict(class_of)


def partition_from_dict(class_of: dict[int, int]):
    """The partition with class label ``class_of[x]`` (>= 0) on each key
    x (>= 0), through the library's class-id array."""
    from funcgraphs.partition import Partition
    if any(x < 0 or c < 0 for x, c in class_of.items()):
        raise ValueError("elements and class labels must be >= 0")
    ids = np.full(max(class_of, default=-1) + 1, -1, dtype=np.int64)
    ids[list(class_of)] = list(class_of.values())
    return Partition(ids)


def unique_ranked_ids(class_of: np.ndarray) -> np.ndarray:
    """Class ids ranked by least element with sorts: ``np.unique`` gives
    each label's least element, and a double argsort ranks those."""
    ids = class_of.astype(np.int64)
    elems = np.flatnonzero(ids >= 0)
    _, least, inv = np.unique(ids[elems], return_index=True,
                              return_inverse=True)
    ids[elems] = np.argsort(np.argsort(least))[inv]
    return ids


def class_lists(p, n: int) -> list[list[int]]:
    """The classes of ``p``, a partition of part of 0..n-1, as sorted
    lists by class id."""
    out: list[list[int]] = [[] for _ in range(p.num_classes)]
    for x, c in enumerate(p.id_array(n).tolist()):
        if c >= 0:
            out[c].append(x)
    return out


def class_of(p, x: int, n: int) -> int:
    """Class id of x in ``p`` over 0..n-1; KeyError when x is no element."""
    cid = p.id_array(n)
    if not 0 <= x < n or cid[x] < 0:
        raise KeyError(x)
    return int(cid[x])


def same_class(p, x: int, y: int, n: int) -> bool:
    return class_of(p, x, n) == class_of(p, y, n)


def same_partition(p, q, n: int) -> bool:
    """Equal partitions of part of 0..n-1: equal canonical id arrays."""
    return np.array_equal(p.id_array(n), q.id_array(n))


def stripe_intervals(s: int) -> list[range]:
    """Split {0, ..., 2s**2 - 1} into s-1 pieces of size s followed by
    s pieces of size s+1 (an odd number of pieces in total)."""
    if s < 1:
        raise ValueError("stripe must be >= 1")
    out = []
    lo = 0
    for _ in range(s - 1):
        out.append(range(lo, lo + s))
        lo += s
    for _ in range(s):
        out.append(range(lo, lo + s + 1))
        lo += s + 1
    assert lo == 2 * s * s
    return out


def interval_index(params) -> list[int]:
    """``params.interval_of`` at each point of {0, ..., half - 1}."""
    return params.interval_of(np.arange(params.half)).tolist()


def countdown_violations(g, labels, spacing: int) -> list[tuple[int, int]]:
    """The edges ``hitting.check_labeling`` finds breaking the invariant."""
    from funcgraphs.hitting import check_labeling
    return check_labeling(g, labels, spacing)[0]


def countdown_digraph(spacing: int, top: int):
    """Digraph on 0..top: edges k -> k-1 for k > 0, and 0 -> l for every
    l >= spacing.

    Vertices count down to 0 and then reset to at least ``spacing``, so
    a labeling with labels up to ``top`` is a homomorphism into it
    exactly when ``hitting.check_labeling`` finds no violation.
    """
    from funcgraphs.digraphs import Digraph
    if spacing < 1:
        raise ValueError("spacing must be >= 1")
    if top < spacing + 1:
        raise ValueError("top must be >= spacing + 1 so that 0 has an edge "
                         "and resets can vary")
    edges = [(k, k - 1) for k in range(1, top + 1)]
    edges += [(0, l) for l in range(spacing, top + 1)]
    return Digraph(top + 1, edges)


# ---- random generators, one stdlib draw at a time ----
#
# The original ``graphs.gen_random_forest``, ``gen_random_total`` and
# ``shift.gen_increasing_seq``, kept as the reference for the bulk
# replay of their draws.  The graph generators return the successor
# list, -1 for a sink.

def gen_random_forest_loop(n: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    order = rng.sample(range(n), n)
    ntrees = 1 if n < 20 else rng.choice([1, 1, 1, 2, 3])
    ntrees = min(ntrees, n)
    succ = [-1] * n
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
    return succ


def gen_random_total_loop(n: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(n) for _ in range(n)]


def gen_increasing_seq_loop(length: int, seed: int) -> tuple[int, ...]:
    rng = random.Random(seed)
    vals = [rng.randint(0, 2)]
    for _ in range(length - 1):
        vals.append(vals[-1] + rng.randint(1, 3))
    return tuple(vals)


def no_draws(seed):
    """Stand-in for ``random.Random`` in tests that a size check must
    stop before any draw."""
    raise AssertionError("random draws started")


# ---- undirected metric on functional graphs ----

def undirected_adj(succ: list[int | None]) -> list[list[int]]:
    n = len(succ)
    adj: list[list[int]] = [[] for _ in range(n)]
    for x, y in enumerate(succ):
        if y is not None:
            adj[x].append(y)
            adj[y].append(x)
    return adj


def predecessors(g) -> list[list[int]]:
    preds: list[list[int]] = [[] for _ in range(g.n)]
    for x, y in edges(g):
        preds[y].append(x)
    return preds


def bfs_dists(succ: list[int | None], source: int) -> list[int | None]:
    adj = undirected_adj(succ)
    dist: list[int | None] = [None] * len(succ)
    dist[source] = 0
    q = deque([source])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if dist[v] is None:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def bfs_ball(succ: list[int | None], x: int, radius: int) -> set[int]:
    d = bfs_dists(succ, x)
    return {v for v, dv in enumerate(d) if dv is not None and dv <= radius}


def naive_class_diameter(succ: list[int | None], cls: set[int]) -> int:
    best = 0
    for x in cls:
        d = bfs_dists(succ, x)
        for y in cls:
            dy = d[y]
            assert dy is not None, "class not connected"
            best = max(best, dy)
    return best


def double_sweep_diameters(g, classes) -> np.ndarray:
    """Class diameters on an acyclic graph by two multi-source BFS
    sweeps, level by level: one from each class's least member, one from
    the farthest member it met.  Each BFS stops once it has seen its
    whole class; on a class split across trees it sees only the least
    member's tree."""
    from funcgraphs.graphs import _bfs_levels
    cid = classes.id_array(g.n)
    sizes = np.bincount(cid[cid >= 0])
    order = np.arange(len(sizes))

    def sweep(starts: np.ndarray):
        far, dist = starts.copy(), np.zeros(len(starts), dtype=np.int64)
        seen = np.ones(len(starts), dtype=np.int64)
        live = seen < sizes
        for d, (v, src) in enumerate(_bfs_levels(g, starts, order, live), 1):
            hit = cid[v] == src
            far[src[hit]], dist[src[hit]] = v[hit], d
            seen += np.bincount(src[hit], minlength=len(starts))
            live &= seen < sizes
        return far, dist

    members = np.flatnonzero(cid >= 0)
    first = members[np.unique(cid[members], return_index=True)[1]]
    return sweep(sweep(first)[0])[1]


def naive_proximity_classes(succ: list[int | None], subset: set[int],
                            radius: int) -> list[frozenset[int]]:
    """Transitive closure of 'within radius' via pairwise BFS."""
    members = sorted(subset)
    parent = {x: x for x in members}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for x in members:
        d = bfs_dists(succ, x)
        for y in members:
            if y > x and d[y] is not None and d[y] <= radius:
                ra, rb = find(x), find(y)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, set[int]] = {}
    for x in members:
        groups.setdefault(find(x), set()).add(x)
    return [frozenset(v) for v in groups.values()]


# ---- forward-orbit facts ----

def naive_forward_iterates(succ: list[int | None], x: int) -> int | None:
    """Defined forward steps from x; None when the orbit cycles."""
    seen = {x}
    count = 0
    v = x
    while succ[v] is not None:
        v = succ[v]
        if v in seen:
            return None
        seen.add(v)
        count += 1
    return count


def naive_least_hit(succ: list[int | None], x: int,
                    members: set[int], cap: int) -> int | None:
    """Least k in 1..cap with the k-th iterate of x a member."""
    v = x
    for k in range(1, cap + 1):
        if succ[v] is None:
            return None
        v = succ[v]
        if v in members:
            return k
    return None


def path_end(succ: list[int | None], x: int) -> tuple[int, int] | None:
    """(steps, sink) where x's orbit ends; None when it cycles."""
    steps = naive_forward_iterates(succ, x)
    if steps is None:
        return None
    for _ in range(steps):
        x = succ[x]
    return steps, x


# ---- orbit folds over the tree order ----
# The scalar folds that ``funcgraphs.graphs.path_ends`` and the arrays
# built on it (``hitting.next_member``, ``asdim.flip_dists``) replaced:
# each vertex's value comes from its successor's, over ``tree_order(g)``
# and ``cycles(g)``, one in-degree peel of a graph that may have sinks.

def _peel(g) -> tuple[list[int], list[list[int]]]:
    indeg = [0] * g.n
    for s in g.succ:
        if s is not None:
            indeg[s] += 1
    order = [x for x, k in enumerate(indeg) if k == 0]
    for x in order:  # the loop also visits what it appends
        s = g.succ[x]
        if s is not None:
            indeg[s] -= 1
            if not indeg[s]:
                order.append(s)
    found: list[list[int]] = []
    for x, k in enumerate(indeg):
        if k:  # x is the least vertex of a cycle not yet collected
            cyc = []
            while indeg[x]:
                indeg[x] = 0
                cyc.append(x)
                x = g.succ[x]
            found.append(cyc)
    order.reverse()
    return order, found


def tree_order(g) -> list[int]:
    """Every vertex off the directed cycles, each after its successor
    (Kahn's peel, 1962: vertices nobody points to leave first, and
    whatever never leaves lies on a cycle)."""
    return _peel(g)[0]


def cycles(g) -> list[list[int]]:
    """Vertex lists of all directed cycles, in successor order, each
    from its least vertex, sorted by that vertex."""
    return _peel(g)[1]


def forward_iterates_fold(g) -> list[int]:
    """Defined forward iterates per vertex, -1 when the orbit cycles."""
    iters = [-1] * g.n
    for x in tree_order(g):
        s = g.succ[x]
        if s is None:
            iters[x] = 0
        elif iters[s] != -1:
            iters[x] = iters[s] + 1
    return iters


def greedy_hitting_fold(g, spacing: int) -> frozenset[int]:
    """Deepest-last greedy: a vertex joins when no member is within
    ``spacing`` forward steps; nearest[x] is its distance to the closest
    member at >= 0 steps."""
    members: set[int] = set()
    nearest = [0] * g.n
    for x in tree_order(g):
        s = g.succ[x]
        strict = None if s is None else nearest[s] + 1
        if strict is None or strict > spacing:
            members.add(x)
            nearest[x] = 0
        else:
            nearest[x] = strict
    return frozenset(members)


def hits_forward_fold(g, members) -> list[bool]:
    """hits[x]: some strictly positive forward iterate of x is a member."""
    hits = [False] * g.n
    for cyc in cycles(g):
        on_cycle = any(v in members for v in cyc)
        for v in cyc:
            hits[v] = on_cycle
    for x in tree_order(g):
        s = g.succ[x]
        hits[x] = s is not None and (hits[s] or s in members)
    return hits


def labeling_fold(g, members) -> list[int | None]:
    """Least k >= 0 with f^k(x) a member: cycles walked backwards twice,
    then the tree order."""
    labels: list[int | None] = [None] * g.n
    for cyc in cycles(g):
        ahead: int | None = None
        for v in reversed(cyc + cyc):
            if v in members:
                ahead = 0
            elif ahead is not None:
                ahead += 1
            labels[v] = ahead
    for x in tree_order(g):
        s = g.succ[x]
        if x in members:
            labels[x] = 0
        elif s is not None and labels[s] is not None:
            labels[x] = labels[s] + 1
    return labels


def is_forward_independent_walk(g, members, spacing: int) -> bool:
    """No member reaches another member in 1..spacing forward steps."""
    for x in members:
        v = x
        for _ in range(spacing):
            v = g.succ[v]
            if v is None:
                break
            if v in members:
                return False
    return True


def distance_parity_coloring_fold(g, members, t: int):
    """(dist, landing, bit) of the parity coloring, one vertex after its
    successor, with the interval of each distance from a table."""
    from funcgraphs.asdim import WitnessParams
    params = WitnessParams(t)
    s, half = params.stripe, params.half
    idx_of = {p: i for i, r in enumerate(stripe_intervals(s)) for p in r}
    dist: list[int | None] = [None] * g.n
    landing: list[int | None] = [None] * g.n
    bit: list[int | None] = [None] * g.n
    for x in tree_order(g):
        nxt = g.succ[x]
        if nxt is None:
            continue
        if nxt in members:
            dist[x], landing[x] = 1, nxt
        elif dist[nxt] is not None:
            dist[x], landing[x] = dist[nxt] + 1, landing[nxt]
        k = dist[x]
        if k is None:
            continue
        if k >= half:
            bit[x] = (k // s) % 2
        else:
            zbit = bit[landing[x]]
            if zbit is not None:
                bit[x] = (k // s) % 2 if zbit == 0 else (idx_of[k] + 1) % 2
    return dist, landing, bit


def flip_dists_fold(g, bit) -> list[int | None]:
    """Least j >= 1 with a different color at f^j(x), one vertex after
    its successor; vertices on or behind a cycle get None."""
    flip: list[int | None] = [None] * g.n
    for x in tree_order(g):
        nxt = g.succ[x]
        if bit[x] is None or nxt is None or bit[nxt] is None:
            continue
        if bit[nxt] != bit[x]:
            flip[x] = 1
        elif flip[nxt] is not None:
            flip[x] = flip[nxt] + 1
    return flip


def flip_dists_scan(g, bit) -> list[int | None]:
    """Least j >= 1 with a different color at f^j(x), walking forward
    until a color changes, a color is undefined, the orbit ends or it
    repeats a vertex."""
    flip: list[int | None] = [None] * g.n
    for x in range(g.n):
        v, seen = x, {x}
        for j in range(1, g.n + 1):
            v = g.succ[v]
            if bit[x] is None or v is None or bit[v] is None or v in seen:
                break
            if bit[v] != bit[x]:
                flip[x] = j
                break
            seen.add(v)
    return flip


def solve_ergodic_fold(g, h, hitting) -> list[int | None]:
    """``homsolver.solve_ergodic`` as a fold: each vertex's steps to the
    first member ahead, and that member's own, from its successor's."""
    from funcgraphs.homsolver import ergodic_solver_data

    data = ergodic_solver_data(h)
    members = vertex_set(hitting.members)
    first = [-1] * g.n  # -1: no member ahead, as data.labels reads it
    after = [-1] * g.n
    for x in tree_order(g):
        y = g.succ[x]
        if y is None:
            continue
        if y in members:
            first[x], after[x] = 1, first[y]
        elif first[y] >= 0:
            first[x], after[x] = first[y] + 1, after[y]
    return [None if v < 0 else v
            for v in data.labels(np.array(first), np.array(after)).tolist()]


# ---- edge checks, one edge at a time ----

def countdown_violations_loop(g, labels, spacing: int
                              ) -> list[tuple[int, int]]:
    bad = []
    for x, y in edges(g):
        a, b = labels[x], labels[y]
        if a is None or b is None:
            continue
        if (b != a - 1) if a > 0 else (b < spacing):
            bad.append((x, y))
    return bad


def hom_violations_loop(g, psi, h) -> list[tuple[int, int]]:
    return [(x, y) for x, y in edges(g)
            if psi[x] is not None and psi[y] is not None
            and (psi[x], psi[y]) not in h.edges]


# ---- digraph facts by boolean matrix powers ----

def adjacency_matrix(m: int, edges: list[tuple[int, int]]) -> np.ndarray:
    a = np.zeros((m, m), dtype=bool)
    for u, v in edges:
        a[u, v] = True
    return a


def closed_walk_lengths_oracle(m: int, edges: list[tuple[int, int]],
                               v: int, max_len: int) -> set[int]:
    a = adjacency_matrix(m, edges)
    out = set()
    p = np.eye(m, dtype=bool)
    for k in range(1, max_len + 1):
        p = (p @ a)
        if p[v, v]:
            out.add(k)
    return out


def classify_oracle(m: int, edges: list[tuple[int, int]]) -> str:
    """Trichotomy from first principles.

    Raises ValueError on templates with a sink.  A vertex is an ergodic
    witness iff the gcd of its closed-walk lengths is 1; scanning up to
    m**2 + 1 sees every relevant combination of cycle lengths.
    """
    a = adjacency_matrix(m, edges)
    if not a.any(axis=1).all():
        raise ValueError("sink")
    if a.diagonal().any():
        return "loop"
    horizon = m * m + 1
    p = np.eye(m, dtype=bool)
    lengths: list[set[int]] = [set() for _ in range(m)]
    for k in range(1, horizon + 1):
        p = (p @ a)
        for v in range(m):
            if p[v, v]:
                lengths[v].add(k)
    for v in range(m):
        g = 0
        for k in lengths[v]:
            g = gcd(g, k)
        if g == 1:
            return "ergodic_no_loop"
    return "non_ergodic"


def reach_all_threshold_oracle(m: int, edges: list[tuple[int, int]],
                               v0: int, max_len: int) -> int | None:
    """Least l such that paths of every length in [l, max_len] from v0
    reach every vertex (None if even max_len fails).  The length-0 path
    reaches only v0."""
    a = adjacency_matrix(m, edges)
    p = np.eye(m, dtype=bool)
    full = [bool(p[v0, :].all())]
    for k in range(1, max_len + 1):
        p = (p @ a)
        full.append(bool(p[v0, :].all()))
    best = None
    for l in range(max_len, -1, -1):
        if full[l]:
            best = l
        else:
            break
    return best


# ---- bounded scans, references for Digraph.periods and walk_lengths ----

def wielandt_bound(m: int) -> int:
    """Wielandt's bound on the exponent of a primitive m-vertex digraph;
    the scans below search that far plus m."""
    return m * m - 2 * m + 2


def component_period(d, component) -> int | None:
    """gcd of cycle lengths inside a strong component of the digraph d,
    None if edgeless (one BFS and one edge pass per component)."""
    comp = set(component)
    inner = [(u, v) for u, v in d.edges if u in comp and v in comp]
    if not inner:
        return None
    root = min(comp)
    level = {root: 0}
    frontier = [root]
    adj = d.adj()
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


def closed_walk_lengths(d, v: int, max_len: int) -> set[int]:
    """Lengths k <= max_len of closed walks at v in d (0 included)."""
    reach = 1 << v
    lengths = {0}
    for k in range(1, max_len + 1):
        reach = d.step(d.out_masks, reach)
        if reach >> v & 1:
            lengths.add(k)
        if not reach:
            break
    return lengths


def reach_all_threshold(d, v0: int) -> int:
    """Least l such that walks of every length >= l from v0 reach every
    vertex of d, by a scan to the Wielandt bound plus m.

    Requires d to be strongly connected and ergodic.
    """
    if d.scc().num_classes != 1:
        raise ValueError("digraph is not strongly connected")
    if component_period(d, range(d.m)) != 1:
        raise ValueError("digraph is not ergodic")
    everyone = (1 << d.m) - 1
    limit = wielandt_bound(d.m) + d.m
    reach = 1 << v0
    worst = -1 if reach == everyone else 0  # the length-0 walk
    for k in range(1, limit + 1):
        reach = d.step(d.out_masks, reach)
        if reach != everyone:
            worst = k
    if reach != everyone:
        raise ValueError("no full-reach length within the search bound")
    return worst + 1


def in_lists(h) -> list[list[int]]:
    """Per template vertex, its in-neighbours in ascending order."""
    lists: list[list[int]] = [[] for _ in range(h.m)]
    for u, v in sorted(h.edges):
        lists[v].append(u)
    return lists


def least_walk_oracle(edges: frozenset[tuple[int, int]],
                      allowed: list[set[int]]) -> list[int] | None:
    """Lexicographically least walk v_0, ..., v_k with each v_i in
    ``allowed[i]``, by enumerating the sequences in order (None if there
    is none)."""
    for seq in itertools.product(*map(sorted, allowed)):
        if all(e in edges for e in zip(seq, seq[1:])):
            return list(seq)
    return None


def path_of_length(h, u: int, w: int, length: int) -> list[int] | None:
    """Lexicographically least walk of the exact length from u to w (None
    if there is none), one ``Digraph.least_walk`` per target."""
    allowed = [-1] * (length + 1)  # -1: every vertex
    allowed[0] &= 1 << u
    allowed[-1] &= 1 << w
    return h.least_walk(allowed)


def path_of_length_oracle(m: int, edges: frozenset[tuple[int, int]],
                          u: int, w: int, length: int) -> list[int] | None:
    """Lexicographically least vertex sequence u, ..., w with ``length``
    edges (None if there is none)."""
    allowed = [set(range(m)) for _ in range(length + 1)]
    allowed[0] &= {u}
    allowed[-1] &= {w}
    return least_walk_oracle(edges, allowed)


def power_walk_oracle(m: int, edges: list[tuple[int, int]],
                      walk: str) -> set[tuple[int, int]]:
    a = adjacency_matrix(m, edges)
    p = np.eye(m, dtype=bool)
    for c in walk:
        p = p @ (a if c == "f" else a.T)
    return {(i, j) for i in range(m) for j in range(m) if p[i, j]}


# ---- exhaustive homomorphism search ----

def brute_force_hom(succ: list[int | None], m: int,
                    edges: list[tuple[int, int]]) -> list[int] | None:
    """Backtracking over all total labelings, vertex by vertex."""
    n = len(succ)
    eset = set(edges)
    psi = [-1] * n

    def consistent(x: int) -> bool:
        s = succ[x]
        if s is not None and psi[s] != -1 and (psi[x], psi[s]) not in eset:
            return False
        for p in range(n):
            if succ[p] == x and psi[p] != -1 and (psi[p], psi[x]) not in eset:
                return False
        return True

    def rec(x: int) -> bool:
        if x == n:
            return True
        for v in range(m):
            psi[x] = v
            if consistent(x) and rec(x + 1):
                return True
        psi[x] = -1
        return False

    return list(psi) if rec(0) else None


# ---- homomorphism checks and the retraction onto strong components ----

def verify_hom(g, psi, h) -> bool:
    """True when the total labeling maps every edge of G into H."""
    from funcgraphs.graphs import label_array
    from funcgraphs.homsolver import hom_violations
    if np.any(label_array(psi) < 0):
        raise ValueError("verify_hom expects a total labeling")
    return not hom_violations(g, psi, h)


def retract_to_strong_components(g, psi, h):
    """Rewrite a homomorphism so images stay in strong components of H.

    For each weak component of G the image of its cycle already sits in
    one strong component A; every other vertex x is relabeled by
    walking backwards inside A from the image of the first vertex after
    which the orbit's images never leave A.  Returns the new labeling
    together with the partition of G's vertices by that target strong
    component.  One pass over G's tree order; ``retract_by_components``
    below is its per-component reference.
    """
    from funcgraphs.digraphs import GraphShapeError
    from funcgraphs.graphs import label_array
    from funcgraphs.homsolver import hom_violations
    from funcgraphs.partition import Partition
    if not g.is_total:
        raise ValueError("retraction expects a total graph")
    if not verify_hom(g, psi, h):
        raise ValueError("psi is not a homomorphism")
    psi = label_array(psi).tolist()
    scc_id = h.scc().id_array(h.m).tolist()
    radj = in_lists(h)
    n = g.n
    cls = [scc_id[v] for v in psi]
    # tail_k[x]: least k such that all images from f^k(x) on lie in the
    # target component; land[x] = f^{tail_k}(x)
    tail_k = [0] * n
    land = list(range(n))
    target = [0] * n  # scc class id per G-vertex
    for cyc in cycles(g):
        assert len({cls[x] for x in cyc}) == 1, \
            "cycle image spans several components"
        for x in cyc:
            target[x] = cls[x]
    succ = g.succ
    for x in tree_order(g):
        y = succ[x]
        target[x] = target[y]
        if cls[x] == target[x] and tail_k[y] == 0:
            continue
        tail_k[x] = tail_k[y] + 1
        land[x] = land[y]
    # backward chains inside each strong component: chain[v][k] is the
    # least in-neighbor walk of length k ending at v
    chain: dict[int, list[int]] = {}

    def back(v: int, k: int) -> int:
        steps = chain.setdefault(v, [v])
        while len(steps) <= k:
            tail = steps[-1]
            inside = [u for u in radj[tail] if scc_id[u] == scc_id[v]]
            if not inside:
                raise GraphShapeError(
                    "strong component has no internal in-edge")
            steps.append(min(inside))
        return steps[k]

    psi2 = np.array([back(psi[land[x]], tail_k[x]) for x in range(n)],
                    dtype=np.int64)
    bad = hom_violations(g, psi2, h)
    assert not bad, bad
    return psi2, Partition(np.array(target))


# ---- per-component homomorphism decision and retraction ----
#
# The original component-by-component implementations of
# ``homsolver.decide_hom`` and ``retract_to_strong_components`` (above),
# kept as the reference for the whole-graph versions, with the original
# set-based cycle labelling ``cycle_labels``.

def cycle_labels(adj: list[list[int]], allowed: list[list[int]],
                 a: int) -> list[int] | None:
    """Greedy-lex labels around the cycle starting from label a.

    back[i] holds the labels at position i from which the remaining
    positions can still be completed and closed back onto a.
    """
    c = len(allowed)
    if a not in allowed[0]:
        return None
    back: list[set[int]] = [set() for _ in range(c)]
    closing = {a}
    cur = closing
    # back[c-1], ..., back[0] by walking the cycle backwards
    for i in range(c - 1, -1, -1):
        cur = {v for v in allowed[i] if any(w in cur for w in adj[v])}
        back[i] = cur
    if a not in back[0]:
        return None
    labels = [a]
    for i in range(1, c):
        prev = labels[-1]
        options = [v for v in adj[prev] if v in back[i]]
        if not options:
            return None
        labels.append(min(options))
    # close the cycle
    if a not in adj[labels[-1]]:
        return None
    return labels


def weak_components(g) -> list[list[int]]:
    seen = [False] * g.n
    out = []
    adjacency = undirected_adj(list(g.succ))
    for start in range(g.n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        i = 0
        while i < len(comp):
            for w in adjacency[comp[i]]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
            i += 1
        out.append(sorted(comp))
    return out


def feasible_sets(g, h, comp: list[int],
                  on_cycle: set[int]) -> dict[int, set[int]] | None:
    """Bottom-up feasible template vertices for one weak component.

    feas[x] holds the template vertices v such that the tree hanging
    strictly above x admits a homomorphism sending x to v.  Returns
    None as soon as some vertex has no feasible label.
    """
    preds = predecessors(g)
    radj = in_lists(h)
    depth: dict[int, int] = {}
    for x in comp:
        if x in on_cycle:
            depth[x] = 0
    frontier = [x for x in comp if x in on_cycle]
    while frontier:
        nxt = []
        for x in frontier:
            for p in preds[x]:
                if p not in depth:
                    depth[p] = depth[x] + 1
                    nxt.append(p)
        frontier = nxt
    order = sorted(comp, key=lambda x: -depth[x])
    feas: dict[int, set[int]] = {}
    for x in order:
        tree_preds = [p for p in preds[x] if p not in on_cycle]
        allowed = set(range(h.m))
        for p in tree_preds:
            allowed &= {v for v in allowed
                        if feas[p] & set(radj[v])}
            if not allowed:
                return None
        feas[x] = allowed
    return feas


def decide_hom_by_components(g, h) -> list[int] | None:
    """Per-component ``decide_hom``: feasible sets, cycle, then trees."""
    assert g.is_total and h.is_sinkless()
    psi: list[int | None] = [None] * g.n
    adj = h.adj()
    all_cycles = cycles(g)
    for comp in weak_components(g):
        inset = set(comp)
        cyc = next(c for c in all_cycles if set(c) & inset)
        on_cycle = set(cyc)
        feas = feasible_sets(g, h, comp, on_cycle)
        if feas is None:
            return None
        # rotate the cycle to start at its least vertex
        start = cyc.index(min(cyc))
        cyc = cyc[start:] + cyc[:start]
        allowed = [sorted(feas[x]) for x in cyc]
        labels = None
        for a in allowed[0]:
            labels = cycle_labels(adj, allowed, a)
            if labels is not None:
                break
        if labels is None:
            return None
        for x, v in zip(cyc, labels):
            psi[x] = v
        # outward tree labels: parents of labeled vertices, nearest first
        preds = predecessors(g)
        frontier = list(cyc)
        while frontier:
            nxt = []
            for x in frontier:
                for p in preds[x]:
                    if p in on_cycle or psi[p] is not None:
                        continue
                    target = psi[x]
                    assert target is not None
                    pick = min(v for v in feas[p] if (v, target) in h.edges)
                    psi[p] = pick
                    nxt.append(p)
            frontier = nxt
    assert all(v is not None for v in psi)
    return psi  # type: ignore[return-value]


def retract_by_components(g, psi: list[int], h):
    """Per-component ``retract_to_strong_components``."""
    if isinstance(psi, np.ndarray):
        psi = psi.tolist()
    scc_id = h.scc().id_array(h.m).tolist()
    radj = in_lists(h)
    n = g.n
    tail_k = [0] * n
    land = list(range(n))
    target = [0] * n
    preds = predecessors(g)
    all_cycles = cycles(g)
    for comp in weak_components(g):
        inset = set(comp)
        cyc = next(c for c in all_cycles if set(c) & inset)
        cls = {scc_id[psi[x]] for x in cyc}
        assert len(cls) == 1, "cycle image spans several components"
        a_id = cls.pop()
        for x in comp:
            target[x] = a_id
        in_a = {x: scc_id[psi[x]] == a_id for x in comp}
        cycset = set(cyc)
        frontier = list(cyc)
        while frontier:
            nxt = []
            for y in frontier:
                for x in preds[y]:
                    if x in cycset:
                        continue
                    if in_a[x] and tail_k[y] == 0:
                        tail_k[x] = 0
                        land[x] = x
                    else:
                        tail_k[x] = tail_k[y] + 1
                        land[x] = land[y]
                    nxt.append(x)
            frontier = nxt
    chain: dict[int, list[int]] = {}

    def back(v: int, k: int) -> int:
        steps = chain.setdefault(v, [v])
        while len(steps) <= k:
            steps.append(min(u for u in radj[steps[-1]]
                             if scc_id[u] == scc_id[v]))
        return steps[k]

    psi2 = [back(psi[land[x]], tail_k[x]) for x in range(n)]
    groups: dict[int, list[int]] = {}
    for x in range(n):
        groups.setdefault(target[x], []).append(x)
    return psi2, partition_from_classes(groups.values())


# ---- entry-window ergodic solver ----

def induced(h, vertices):
    """Induced subgraph of the digraph h, with the old labels of its
    vertices."""
    from funcgraphs.digraphs import Digraph

    keep = sorted(set(vertices))
    index = {v: i for i, v in enumerate(keep)}
    es = [(index[u], index[v]) for u, v in h.edges
          if u in index and v in index]
    return Digraph(len(keep), es), keep


def solve_ergodic_by_windows(g, h, hitting) -> list[int | None]:
    """The original ``homsolver.solve_ergodic``, kept as the reference
    for the tree-order fold and for the distributed template solver.

    A backwards BFS from every member marks its entry window (the
    vertices 1..L steps before it, L the reach-all threshold).  Vertices
    outside every window take the cycle label k steps before the witness,
    k being their steps to the first window vertex; window vertices walk
    a fresh length-L path from the witness to their member's label.
    """
    from funcgraphs.hitting import is_forward_independent

    assert g.acyclic
    v0 = h.is_ergodic().vertex
    comp = next(c for c in class_lists(h.scc(), h.m) if v0 in c)
    h_sub, to_orig = induced(h, comp)
    v0_sub = to_orig.index(v0)
    cycle_len, _, ell0 = h_sub.walk_lengths(v0_sub)
    cycle = path_of_length(h_sub, v0_sub, v0_sub, cycle_len)
    if not is_forward_independent(g, hitting.members, ell0):
        raise ValueError(
            f"hitting set is not {ell0}-forward-independent")
    n = g.n
    window: list[tuple[int, int] | None] = [None] * n
    preds = predecessors(g)
    for z in vertex_set(hitting.members):
        frontier = [z]
        for j in range(1, ell0 + 1):
            nxt: list[int] = []
            for v in frontier:
                for y in preds[v]:
                    assert window[y] is None, "entry windows overlap"
                    window[y] = (z, j)
                    nxt.append(y)
            frontier = nxt
    order = tree_order(g)
    to_window: list[int | None] = [None] * n
    for x in order:
        if window[x] is not None:
            continue
        nxt = g.succ[x]
        if nxt is None:
            continue
        if window[nxt] is not None:
            to_window[x] = 1
        elif to_window[nxt] is not None:
            to_window[x] = to_window[nxt] + 1
    psi: list[int | None] = [None] * n
    for x in order:
        if window[x] is None and to_window[x] is not None:
            k = to_window[x]
            psi[x] = to_orig[cycle[(-k) % cycle_len]]
    for x in range(n):
        if window[x] is None:
            continue
        z, j = window[x]
        if psi[z] is None:
            continue
        z_sub = to_orig.index(psi[z])
        path = path_of_length(h_sub, v0_sub, z_sub, ell0)
        assert path is not None, "reach_all threshold violated"
        psi[x] = to_orig[path[ell0 - j]]
    return psi


# ---- simulator: the reference engine and the graph-based verifier ----

def reference_only(alg) -> SimpleNamespace:
    """``alg`` without ``vector_outputs``, so that ``run_local`` runs it
    on the reference engine whatever the wiring."""
    return SimpleNamespace(total_rounds=alg.total_rounds, boot=alg.boot,
                           step=alg.step, finish=alg.finish)


def window_pairs(net, members, window: int) -> list[tuple[int, int]]:
    """Per node, (first, gap) by a walk of at most ``window`` steps
    forward: the steps to the first member ahead, and from it to the
    second, -1 for a member the walk does not meet."""
    pairs = []
    for x in range(net.n):
        ahead, v = [], x
        for i in range(1, window + 1):
            v = net.succ[v]
            if v is None:
                break
            if members[v]:
                ahead.append(i)
        first, second = (ahead + [-1, -1])[:2]
        pairs.append((first, second - first if second >= 0 else -1))
    return pairs


def ruling_outputs_every_level(alg, net) -> np.ndarray:
    """The first ``RulingSetAlgorithm.vector_outputs``, kept as the
    reference for the vector kernel: every level on int64 colors, each
    gathered through ``cur``, with no stop at the fixed point."""
    from funcgraphs.local_sim import cv_iterations

    n = net.n
    iters = cv_iterations(n)
    cur = np.arange(n)
    for _ in range(alg.levels + 1):
        segs = net.sinks[cur]  # one sink per segment
        heads = np.r_[True, segs[1:] != segs[:-1]]
        colors = cv_vector_int64(net.id_array[cur], heads, iters)
        joined = mis_vector_padded(colors, heads)
        cur = cur[joined]
    out = np.zeros(n, dtype=bool)
    out[cur] = True
    return out


def cv_vector_int64(colors: np.ndarray, heads: np.ndarray,
                    iters: int) -> np.ndarray:
    colors = colors.copy()
    for _ in range(iters):
        diff = colors ^ np.r_[0, colors[:-1]]
        assert bool(np.all(diff[~heads] != 0)), "adjacent equal colors"
        diff = np.where(heads, 1, diff)
        i = np.bitwise_count((diff & -diff) - 1)  # the lowest set bit
        nxt = 2 * i + ((colors >> i) & 1)
        colors = np.where(heads, colors & 1, nxt)
    return colors


def mis_vector_padded(colors: np.ndarray, heads: np.ndarray) -> np.ndarray:
    m = len(colors)
    joined = np.zeros(m, dtype=bool)
    tails = np.r_[heads[1:], True]
    for phase in range(6):
        nb = np.zeros(m, dtype=bool)
        nb[1:] |= joined[:-1] & ~tails[:-1]
        nb[:-1] |= joined[1:] & ~heads[1:]
        joined |= (colors == phase) & ~nb
    return joined


def verify_ruling_by_graph(net, members, spacing: int, gap_bound: int) -> dict:
    """The original ``local_sim.verify_ruling``, kept as the reference for
    the array verifier: it runs the hitting-set module's independence
    and hitting checks on the network as a functional graph."""
    from funcgraphs.hitting import is_forward_independent, is_hitting

    mset = {i for i, b in enumerate(members) if b}
    independent = is_forward_independent(net, mset, spacing)
    hits = is_hitting(net, mset, gap_bound)
    return {"members": len(mset), "independent": independent,
            "hitting": hits, "ok": independent and hits}


# ---- unlabeled loopless digraph census ----

def canonical_digraph(m: int, edges: frozenset[tuple[int, int]]) -> frozenset:
    best = None
    for perm in itertools.permutations(range(m)):
        img = frozenset((perm[u], perm[v]) for u, v in edges)
        key = tuple(sorted(img))
        if best is None or key < best:
            best = key
    return frozenset(best)


def loopless_digraph_census(m: int) -> list[frozenset[tuple[int, int]]]:
    """All loopless digraphs on m unlabeled vertices (isolated vertices
    allowed), one representative edge set per isomorphism class."""
    pairs = [(u, v) for u in range(m) for v in range(m) if u != v]
    seen = set()
    out = []
    for mask in range(1 << len(pairs)):
        edges = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
        canon = canonical_digraph(m, edges)
        if canon not in seen:
            seen.add(canon)
            out.append(edges)
    return out


# ---- shift-model windows from the raw definition ----

def shift_seq(y) -> tuple[int, ...] | None:
    """Drop the first element of a validated sequence; None once nothing
    is left."""
    from funcgraphs.shift import validate_seq
    y = validate_seq(y)
    return y[1:] if len(y) > 1 else None


def window_member_oracle(x: tuple[int, ...], y: tuple[int, ...],
                         r: int) -> bool | None:
    """Direct evaluation of the window-count congruence.

    Builds each window [x(2rn - r), x(2rn + r)) with x(j) = 0 for j < 0,
    finds the minimal n whose window meets y, and demands the window be
    fully determined by both finite sequences before testing the count.
    """
    yset = set(y)
    n = 0
    while True:
        lo_i, hi_i = 2 * r * n - r, 2 * r * n + r
        lo = 0 if lo_i < 0 else (x[lo_i] if lo_i < len(x) else None)
        hi = x[hi_i] if hi_i < len(x) else None
        if lo is None or hi is None:
            return None
        count = sum(1 for v in range(lo, hi) if v in yset)
        if count > 0:
            if y and y[-1] >= hi - 1:
                return count % (2 * r) == 0
            return None
        if y and y[-1] < hi:
            # y is exhausted before this window; later windows can
            # never be certified nonempty
            return None
        n += 1


def dense_window_oracle(x: tuple[int, ...], y: tuple[int, ...],
                        r: int) -> int | None:
    """``dense_window_index`` with each window's points counted straight
    from [x(2rn - r), x(2rn + r)), x(j) = 0 for j < 0."""
    n = 0
    while 2 * r * n + r < len(x):
        lo = 0 if n == 0 else x[2 * r * n - r]
        hi = x[2 * r * n + r]
        if sum(lo <= v < hi for v in y) >= 2 * r:
            return n
        if y[-1] < hi - 1:  # an undercount is not yet certain
            return None
        n += 1
    return None


def check_countdown_pairs_reference(x, ys, r: int) -> dict:
    """The countdown edge check through the public, validating
    ``countdown_index`` and ``shift_seq`` on every call, with
    ``dense_found`` counted by :func:`dense_window_oracle`."""
    from funcgraphs.shift import countdown_index
    report: dict = {"checked": 0, "skipped": 0, "violations": [],
                    "resets": 0, "min_reset": None, "dense_found": 0}
    for y in ys:
        tail = shift_seq(y)
        report["dense_found"] += dense_window_oracle(x, y, r) is not None
        a = None if tail is None else countdown_index(x, y, r)
        b = None if a is None else countdown_index(x, tail, r)
        if b is None:
            report["skipped"] += 1
            continue
        report["checked"] += 1
        if a == 0:
            report["resets"] += 1
            if report["min_reset"] is None or b < report["min_reset"]:
                report["min_reset"] = b
        if (b != a - 1) if a > 0 else (b < r):
            report["violations"].append((y[0], a, b))
    report["ok"] = not report["violations"]
    return report


# ---- asdim verifiers and reverse extractions, one vertex at a time ----
# The per-vertex and per-class loops that the array verifiers in
# ``funcgraphs.asdim`` and ``funcgraphs.hitting`` replaced.  Balls come
# from a radius-limited BFS here rather than from the library.

def ball_class_count(adj: list[list[int]], cid: list[int], x: int,
                     radius: int) -> int:
    """How many classes (``cid[y] >= 0``) meet the radius ball around x."""
    dist = {x: 0}
    q = deque([x])
    while q:
        u = q.popleft()
        if dist[u] < radius:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    q.append(w)
    return len({cid[y] for y in dist if cid[y] >= 0})


def ball_class_counts(g, cid: list[int], radius: int) -> list[int]:
    adj = undirected_adj(list(g.succ))
    return [ball_class_count(adj, cid, x, radius) for x in range(g.n)]


def _deep_classes(g, classes, diams, inside):
    for cls, diam in zip(class_lists(classes, g.n), diams):
        yield all(x in inside for x in cls), cls, diam


def verify_cover_witness(g, witness, horizon=None) -> dict:
    from funcgraphs.graphs import class_diameters, proximity_classes
    params = witness.params
    if horizon is None:
        horizon = params.verify_depth
    inside = interior(g, horizon)
    report = {"bound": params.diameter_bound,
              "sharp_bound": params.sharp_diameter_bound,
              "horizon": horizon, "checked_classes": 0,
              "skipped_classes": 0, "max_diameter": 0, "violations": 0,
              "sharp_violations": 0}
    for u in witness.sets:
        classes = proximity_classes(g, u, params.t)
        diams = class_diameters(g, classes).tolist()
        for deep, _, diam in _deep_classes(g, classes, diams, inside):
            if not deep:
                report["skipped_classes"] += 1
                continue
            report["checked_classes"] += 1
            report["max_diameter"] = max(report["max_diameter"], diam)
            report["violations"] += diam > params.diameter_bound
            report["sharp_violations"] += diam > params.sharp_diameter_bound
    report["ok"] = report["violations"] == 0
    return report


def verify_eqrel_witness(g, witness, d=1, diameter_bound=None,
                         horizon=None) -> dict:
    from funcgraphs.graphs import class_diameters
    params = witness.params
    t = params.t
    if horizon is None:
        horizon = params.verify_depth + t
    if diameter_bound is None:
        diameter_bound = params.diameter_bound
    inside = interior(g, horizon)
    classes = witness.classes
    diams = class_diameters(g, classes).tolist()
    report = {"bound": diameter_bound, "horizon": horizon,
              "checked_classes": 0, "skipped_classes": 0,
              "max_diameter": 0, "diameter_violations": 0,
              "ball_limit": d + 1, "checked_balls": 0,
              "max_ball_classes": 0, "ball_violations": 0}
    for deep, _, diam in _deep_classes(g, classes, diams, inside):
        if not deep:
            report["skipped_classes"] += 1
            continue
        report["checked_classes"] += 1
        report["max_diameter"] = max(report["max_diameter"], diam)
        report["diameter_violations"] += diam > diameter_bound
    adj = undirected_adj(list(g.succ))
    cid = classes.id_array(g.n).tolist()
    for x in inside:
        if cid[x] < 0:
            continue
        count = ball_class_count(adj, cid, x, t)
        report["checked_balls"] += 1
        report["max_ball_classes"] = max(report["max_ball_classes"], count)
        report["ball_violations"] += count > d + 1
    report["ok"] = (report["diameter_violations"] == 0
                    and report["ball_violations"] == 0)
    return report


def check_flip_bounds(g, coloring, flip, horizon=None) -> dict:
    params = coloring.params
    if horizon is None:
        horizon = params.verify_depth
    bit, flip = partial_list(coloring.bit), partial_list(flip)
    report = {"horizon": horizon, "checked": 0, "unlabeled": 0,
              "undefined_flips": 0, "max_flip": 0, "violations": 0}
    for x in interior(g, horizon):
        report["checked"] += 1
        if bit[x] is None:
            report["unlabeled"] += 1
        elif flip[x] is None:
            report["undefined_flips"] += 1
        else:
            report["max_flip"] = max(report["max_flip"], flip[x])
            report["violations"] += flip[x] > params.flip_bound
    report["ok"] = (report["violations"] == 0 and report["unlabeled"] == 0
                    and report["undefined_flips"] == 0)
    return report


def check_anchor_preimages(g, coloring, anchor, horizon=None) -> dict:
    params = coloring.params
    if horizon is None:
        horizon = params.verify_depth
    preds = predecessors(g)
    bit, anchor = partial_list(coloring.bit), partial_list(anchor)

    def preimage_bits(e: int) -> set[int]:
        seen = {b for b in (bit[e],) if b is not None}
        frontier = [e]
        for _ in range(params.anchor_skip):
            frontier = [w for v in frontier for w in preds[v]]
            seen |= {bit[w] for w in frontier if bit[w] is not None}
        return seen

    report = {"horizon": horizon, "checked": 0, "violations": 0}
    for x in interior(g, horizon):
        e = anchor[x]
        if e is None or bit[x] is None:
            continue
        report["checked"] += 1
        report["violations"] += bit[x] in preimage_bits(e)
    report["ok"] = report["violations"] == 0
    return report


def check_class_reaches_anchor(g, witness, anchor, horizon=None) -> dict:
    """Walks ``forward_orbit(g, y, walk + 1)`` from every class member."""
    from funcgraphs.graphs import proximity_classes
    params = witness.params
    if horizon is None:
        horizon = params.verify_depth
    anchor, inside = partial_list(anchor), interior(g, horizon)
    walk = (params.diameter_bound + params.anchor_skip
            + params.flip_bound + 2)
    report = {"horizon": horizon, "checked_classes": 0,
              "skipped_classes": 0, "checked_pairs": 0, "violations": 0}
    for u in witness.sets:
        for cls in class_lists(proximity_classes(g, u, params.t), g.n):
            targets = {anchor[x] for x in cls}
            if not all(x in inside for x in cls) or None in targets:
                report["skipped_classes"] += 1
                continue
            report["checked_classes"] += 1
            for y in cls:
                reached = set(forward_orbit(g, y, walk + 1))
                report["checked_pairs"] += len(targets)
                report["violations"] += not targets <= reached
    report["ok"] = report["violations"] == 0
    return report


def _window_free(g, x: int, inside: set[int], steps: int) -> bool:
    """None of f^1(x) .. f^steps(x) lies in ``inside``."""
    v = x
    for _ in range(steps):
        v = g.succ[v]
        if v is None:
            return True
        if v in inside:
            return False
    return True


def hitting_from_cover(g, cover, spacing: int) -> frozenset[int]:
    """Members of the cover whose next ``spacing`` iterates leave it."""
    cover = vertex_set(cover)
    return frozenset(x for x in cover if _window_free(g, x, cover, spacing))


def hitting_from_equivalence(g, eq, t: int, d: int
                             ) -> tuple[frozenset[int], dict]:
    """Members and hypothesis report, one vertex and one ball at a time."""
    from funcgraphs.graphs import class_diameters
    max_diam = max(class_diameters(g, eq).tolist(), default=0)
    cid, lists = eq.id_array(g.n).tolist(), class_lists(eq, g.n)
    in_a = set()
    for x in range(g.n):
        same = set(lists[cid[x]]) if cid[x] >= 0 else set()
        if _window_free(g, x, same, max_diam):
            in_a.add(x)
    members = frozenset(x for x in in_a if _window_free(g, x, in_a, t))
    radius = 2 * t * (d + 1)
    counts = ball_class_counts(g, cid, radius)
    violations = sum(c > d + 1 for c in counts)
    return members, {"max_class_diameter": max_diam, "ball_radius": radius,
                     "max_classes_per_ball": max(counts, default=0),
                     "ball_violations": violations,
                     "hypothesis_ok": violations == 0}


# ---- union-find over dicts ----
# What ``graphs.proximity_classes`` did before it merged with arrays.

class UnionFind:
    """Union-find over an arbitrary set of int keys."""

    def __init__(self, keys: Iterable[int] = ()):
        self.parent = {k: k for k in keys}

    def add(self, k: int) -> None:
        self.parent.setdefault(k, k)

    def find(self, k: int) -> int:
        p = self.parent
        root = k
        while p[root] != root:
            root = p[root]
        while p[k] != root:
            p[k], k = root, p[k]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # keep the smaller key as root for determinism
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra

    def to_partition(self):
        return partition_from_dict({k: self.find(k) for k in self.parent})
