"""Finite functional graphs.

A functional graph is a finite vertex set 0..n-1 together with a partial
successor map ``succ``: each vertex has at most one out-edge.  Vertices
with no successor are sinks.  An acyclic functional graph is a forest of
in-trees whose roots are the sinks; a total successor map necessarily
closes directed cycles.

Distances are measured in the undirected version of the graph (follow
edges either way).  Forward iteration ``x, f(x), f(f(x)), ...`` stops at
sinks and may wrap around cycles.

Every "next vertex ahead" question is one pointer-jumping pass,
:func:`path_ends`: depths (steps to the sink an orbit ends at) and,
with chosen out-edges cut, the next member of a set (countdown labels,
hitting, colorings, ergodic labels) or the end of a one-color run.
The one pass that needs a total graph's cycles and tree order, the
homomorphism decision, peels them itself (``homsolver``).
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .partition import Partition

UNBOUNDED = -1  # sentinel for "arbitrarily many forward iterates"
_JUMP_BLOCK = 1 << 15  # elements per block of FunctionalGraph.jump
Labeling = Sequence[int | None] | np.ndarray  # the forms label_array reads


class FunctionalGraph:
    """Immutable-by-convention functional graph.

    Stored as one int64 successor array ``succ_array``, -1 for a sink
    (see :func:`successor_array` for the two input forms).  ``succ[i]``,
    the successor of vertex ``i`` or ``None`` for a sink, is a tuple
    view built on first use, which in the package only the reference
    engine of ``local_sim`` reads.  Derived structure (depths, jump
    tables) is cached lazily; do not mutate the input after construction.
    """

    def __init__(self, succ: Sequence[int | None] | np.ndarray):
        self.succ_array = successor_array(succ)
        self.n = len(self.succ_array)
        self._jumps: list[np.ndarray] = []

    @cached_property
    def succ(self) -> tuple[int | None, ...]:
        return tuple([None if s < 0 else s for s in self.succ_array.tolist()])

    # ---- construction ----

    @classmethod
    def from_json_dict(cls, d: dict) -> "FunctionalGraph":
        n = d["n"]
        if type(n) is not int:
            raise ValueError("n must be an integer")
        succ = int_array(d["succ"], "successors")
        if len(succ) != n:
            raise ValueError(f"succ has {len(succ)} entries, expected n={n}")
        return cls(succ)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "succ": self.succ_array.tolist()}

    # ---- basic structure ----

    @property
    def is_total(self) -> bool:
        return not np.any(self.succ_array < 0)

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Undirected adjacency as CSR arrays (indptr, neighbours); loops
        are left out, as they change no distance."""
        succ = self.succ_array
        src = np.flatnonzero((succ >= 0) & (succ != np.arange(self.n)))
        a, b = np.r_[src, succ[src]], np.r_[succ[src], src]
        return (np.r_[0, np.cumsum(np.bincount(a, minlength=self.n))],
                b[np.argsort(a, kind="stable")])

    @cached_property
    def depth(self) -> np.ndarray:
        """Each vertex's count of defined forward iterates (its depth from
        :func:`path_ends`, ``UNBOUNDED`` when the orbit reaches a cycle)."""
        return path_ends(self.succ_array)[0]

    # ---- forward iteration ----

    def jump(self, x, k) -> np.ndarray:
        """f^k(x) elementwise over vertex and step-count arrays, -1 where
        the orbit stops at a sink first.

        Vertices must lie in [0, n) and step counts be >= 0.  Pointer
        jumping (Wyllie 1979) over cached tables of f^(2^i); an extra
        absorbing vertex n stands for "past a sink".  Elements with
        no steps are dropped up front, and the rest jump a block at a
        time, so the temporaries stay small.
        """
        x = np.array(x, dtype=np.int64)
        shape, x = x.shape, x.reshape(-1)
        k = np.broadcast_to(np.asarray(k, dtype=np.int64), shape).reshape(-1)
        if len(x) and not 0 <= x.min() <= x.max() < self.n:
            raise ValueError("jump needs vertices in [0, n)")
        if k.min(initial=0) < 0:
            raise ValueError("jump needs step counts >= 0")
        tables = [self._jump_table(i)
                  for i in range(int(k.max(initial=0)).bit_length())]
        for lo in range(0, len(x), _JUMP_BLOCK):
            live = lo + np.flatnonzero(k[lo:lo + _JUMP_BLOCK])
            y, kl = x[live], k[live]
            for i, table in enumerate(tables):
                y = np.where(kl & (1 << i) != 0, table[y], y)
            x[live] = y
        x[x == self.n] = -1
        return x.reshape(shape)

    def _jump_table(self, i: int) -> np.ndarray:
        """f^(2^i) over 0..n, cached; n is absorbing: "past a sink"."""
        if not self._jumps:
            succ = self.succ_array
            self._jumps.append(np.append(np.where(succ < 0, self.n, succ),
                                         self.n))
        while len(self._jumps) <= i:
            self._jumps.append(self._jumps[-1][self._jumps[-1]])
        return self._jumps[i]

    @property
    def acyclic(self) -> bool:
        return not np.any(self.depth == UNBOUNDED)

    def interior_mask(self, horizon: int) -> np.ndarray:
        """Mask of the vertices with >= ``horizon`` defined forward
        iterates."""
        if horizon < 0:
            raise ValueError("horizon must be >= 0")
        depth = self.depth
        return (depth == UNBOUNDED) | (depth >= horizon)

    # ---- metric ----

    def ball(self, x: int, radius: int) -> set[int]:
        """All vertices within undirected distance ``radius`` of x."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        seen = {x}
        levels = _bfs_levels(self, np.array([x]), np.array([0]))
        for _, (v, _) in zip(range(radius), levels):
            seen.update(v.tolist())
        return seen


def int_array(values: Sequence[int] | np.ndarray, what: str) -> np.ndarray:
    """``values`` as a 1-d int64 array, checked once: an array needs an
    integer dtype (bool and float are rejected) and is used as is when
    it is int64; a Python sequence needs exact ints (bool is an int
    subclass).  Values beyond int64 are out of range."""
    if isinstance(values, np.ndarray):
        if values.ndim != 1 or values.dtype.kind not in "iu":
            raise ValueError(f"{what} must be a 1-d integer array")
        if values.dtype.kind == "u" and \
                values.max(initial=0) > np.iinfo(np.int64).max:
            raise ValueError(f"{what} out of range")
        return values.astype(np.int64, copy=False)
    if not set(map(type, values)) <= {int}:
        raise ValueError(f"{what} must be integers")
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"{what} out of range") from None


def successor_array(succ: Sequence[int | None] | np.ndarray) -> np.ndarray:
    """A successor map as an int64 array, -1 for a sink, checked once.

    An array gives its sinks as -1; a Python sequence gives them as
    None, so a -1 there is out of range.  Every other successor must
    lie in [0, len(succ))."""
    n = len(succ)
    if isinstance(succ, np.ndarray):
        arr = int_array(succ, "successors")
    else:
        if -1 in succ:
            raise ValueError(f"successor of {succ.index(-1)} out of range: -1")
        arr = int_array([-1 if s is None else s for s in succ], "successors")
    bad = np.flatnonzero((arr < -1) | (arr >= n))
    if len(bad):
        raise ValueError(f"successor of {bad[0]} out of range: {arr[bad[0]]}")
    return arr


def vertex_array(vertices: Iterable[int], n: int) -> np.ndarray:
    """A set of vertices in 0..n-1 as an int64 array, checked by
    :func:`int_array`: an int array as is, any other iterable read in
    once."""
    if not isinstance(vertices, np.ndarray):
        vertices = list(vertices)
    idx = int_array(vertices, "member")
    if len(idx) and not 0 <= idx.min() <= idx.max() < n:
        raise ValueError("member out of range")
    return idx


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """``np.unique(a)`` of a 1-d array: one sort and a neighbour mask
    (numpy 2.4's own ``np.unique`` is 10-50x slower on int64)."""
    a = np.sort(a)
    first = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return a[first]


def label_array(labels: Labeling) -> np.ndarray:
    """A labeling as an array, -1 for unlabeled: an int array as is once
    no label is below -1; a Python sequence, None for unlabeled and exact
    ints otherwise (as in :func:`int_array`), as int64 when every label
    fits, else as an object array."""
    if isinstance(labels, np.ndarray):
        lab = int_array(labels, "labels")
        if np.any(lab < -1):
            raise ValueError("labels must be -1 or >= 0")
        return lab
    if not set(map(type, labels)) <= {int, type(None)}:
        raise ValueError("labels must be None or integers")
    lab = np.array([-1 if v is None else v for v in labels], dtype=object)
    if np.count_nonzero(lab < 0) != labels.count(None):
        raise ValueError("labels must be None or >= 0")
    try:
        return lab.astype(np.int64)
    except OverflowError:
        return lab


def path_ends(succ: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per vertex, its steps to the sink its orbit ends at, and that sink;
    ``UNBOUNDED`` and -1 where the orbit reaches a cycle instead.

    Pointer jumping (Wyllie 1979) over a successor array with -1 for a
    sink: after j jumps each vertex points min(2**j, depth) steps ahead.
    Depths are below n, so a vertex whose pointer has not reached a
    sink after bit_length(n - 1) jumps never does.  The jumps stop once
    every pointer is a fixed point, a sink or a vertex on a cycle whose
    length divides 2**j: adding a sink's depth 0 changes no depth, and
    a cycle vertex never points at a sink.  Depths are added before the
    next pointers are built, so one new array is alive at a time.
    """
    n = len(succ)
    sink = succ < 0
    end = np.where(sink, np.arange(n), succ)
    depth = (~sink).astype(np.int64)
    for _ in range(max(n - 1, 1).bit_length()):
        depth += depth[end]
        nxt = end[end]
        if np.array_equal(nxt, end):
            break
        end = nxt
    cyclic = ~sink[end]
    depth[cyclic], end[cyclic] = UNBOUNDED, -1
    return depth, end


def csr_rows(indptr: np.ndarray, rows: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the entries of CSR ``rows``, row after row, and the
    index into ``rows`` that each position came from."""
    lens = indptr[rows + 1] - indptr[rows]
    ends = np.cumsum(lens)
    pos = np.arange(ends[-1] if len(ends) else 0) \
        + np.repeat(indptr[rows] - ends + lens, lens)
    return pos, np.repeat(np.arange(len(rows)), lens)


def _bfs_levels(g: FunctionalGraph, verts: np.ndarray, srcs: np.ndarray,
                live: np.ndarray | None = None):
    """One BFS per source id, all run together level by level.

    Vertex ``verts[i]`` starts in the BFS of source ``srcs[i]``.  Yields
    the (vertices, sources) of each new level.  A (vertex, source) key is
    new when it is in neither the current nor the previous level, since
    an undirected BFS level only borders its neighbouring levels.  One
    sort finds them: keys get a low bit, 0 in the old levels and 1 in
    the candidates, and a new key is a first occurrence with bit 1.
    Sources whose ``live`` flag the caller clears stop growing.
    """
    indptr, nbr = g.csr
    k = int(srcs.max(initial=-1)) + 1
    front, prev = sorted_unique(verts * k + srcs), verts[:0]
    while True:
        if live is not None:
            front = front[live[front % k]]
        if not len(front):
            return
        pos, row = csr_rows(indptr, front // k)
        keys = np.sort(np.r_[front * 2, prev * 2,
                             (nbr[pos] * k + (front % k)[row]) * 2 + 1])
        first = np.r_[True, keys[1:] >> 1 != keys[:-1] >> 1]
        front, prev = keys[first & (keys & 1 == 1)] >> 1, front
        yield np.divmod(front, k)


def ball_class_counts(g: FunctionalGraph, classes: Partition,
                      radius: int) -> np.ndarray:
    """Per vertex, how many classes of ``classes`` lie within distance
    ``radius``.

    A class meets the radius-R ball around x exactly when x is within R
    of a member, so one BFS per class, keyed by its dense class id,
    answers every ball at once.  Each vertex starts in at most one
    class, so the work is the sum of the counts, not of the ball sizes.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    cid = classes.id_array(g.n)
    verts = np.flatnonzero(cid >= 0)
    counts = np.bincount(verts, minlength=g.n)
    for _, (v, _) in zip(range(radius), _bfs_levels(g, verts, cid[verts])):
        counts += np.bincount(v, minlength=g.n)
    return counts


# ---- proximity classes ----

def proximity_classes(g: FunctionalGraph, subset: Iterable[int],
                      radius: int) -> Partition:
    """Partition of ``subset`` generated by pairs at distance <= radius.

    Computed exactly with one multi-source BFS: every vertex is tagged
    with a nearest subset member, and an edge whose two endpoint tags
    sit at combined distance <= radius merges the tags' classes.  Along
    a shortest path between two subset members at distance <= radius,
    every edge triggers such a merge, so the chain of merges connects
    them; conversely merged tags really are within the radius.  The
    merges become classes by hooking roots and pointer jumping.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    members = vertex_array(subset, g.n)  # repeats are harmless
    succ, indptr, nbr = g.succ_array, *g.csr
    dist, tag = np.full(g.n, -1), np.full(g.n, -1)
    dist[members], tag[members], front = 0, members, members
    for level in range(1, radius):  # deeper tags never merge
        if not len(front):
            break
        pos, row = csr_rows(indptr, front)
        w, src = nbr[pos], front[row]
        new = dist[w] < 0
        dist[w[new]], tag[w[new]] = level, tag[src[new]]
        front = np.flatnonzero(dist == level)
    u = np.flatnonzero((tag >= 0) & (succ >= 0))
    u = u[(tag[succ[u]] >= 0) & (dist[u] + dist[succ[u]] < radius)]
    a, b, root = tag[u], tag[succ[u]], np.arange(g.n)
    while not np.array_equal(root[a], root[b]):
        lo, hi = np.minimum(root[a], root[b]), np.maximum(root[a], root[b])
        np.minimum.at(root, hi, lo)  # hi is a root: hook it lower
        while not np.array_equal(root[root], root):
            root = root[root]
    return Partition(np.where(dist == 0, root, -1))  # members' roots


def class_diameters(g: FunctionalGraph, classes: Partition) -> np.ndarray:
    """Max pairwise distance within each class, as an int64 array
    indexed by class id, on an acyclic graph (``ValueError`` otherwise).

    The metric is a tree metric, so a double sweep is exact: from each
    class's least member to a farthest member, then from that one
    (distances from :func:`_tree_dists`).  A class split across trees
    reports its diameter in its least member's tree.
    """
    if not g.acyclic:
        raise ValueError("class diameters require an acyclic graph")
    cid = classes.id_array(g.n)
    members = np.flatnonzero(cid >= 0)
    cls = cid[members]
    diam = np.zeros(int(cls.max(initial=-1)) + 1, dtype=np.int64)
    # ids rank the classes by least member, so a class's least member
    # is where its id first exceeds every id before it
    first = members[cls > np.maximum.accumulate(np.r_[-1, cls])[:-1]]
    dist = _tree_dists(g, first[cls], members)
    tree = dist <= g.depth[first[cls]] + g.depth[members]  # first's tree
    members, cls, dist = members[tree], cls[tree], dist[tree]
    np.maximum.at(diam, cls, dist)
    far, hit = first.copy(), dist == diam[cls]
    far[cls[hit]] = members[hit]
    np.maximum.at(diam, cls, _tree_dists(g, far[cls], members))
    return diam


def _tree_dists(g: FunctionalGraph, u: np.ndarray, v: np.ndarray
                ) -> np.ndarray:
    """Distance from ``u[i]`` to ``v[i]``; vertices of two trees meet
    only past their sinks, at the absorbing vertex n, so they read
    depth(u) + depth(v) + 2, more than any distance within one tree.

    The deeper one climbs to the other's depth; then the two meet after
    k steps, at distance gap + 2k.  Galloping up the jump tables finds
    the pairs apart after 2^i steps, whose k - 1 has a bit at i or
    above; binary lifting (Bender and Farach-Colton 2000) then reads
    off k - 1 from the top level down, each level over those pairs.
    """
    gap = g.depth[u] - g.depth[v]
    x = g.jump(np.where(gap > 0, u, v), np.abs(gap))
    y, dist = np.where(gap > 0, v, u), np.abs(gap)
    apart = [np.flatnonzero(x != y)]
    while len(apart[-1]):
        jt, p = g._jump_table(len(apart) - 1), apart[-1]
        apart.append(p[jt[x[p]] != jt[y[p]]])
    dist[apart[0]] += 2
    for i in reversed(range(len(apart) - 1)):
        jt, p = g._jump_table(i), apart[i + 1]
        a, b = jt[x[p]], jt[y[p]]
        step = a != b
        p = p[step]
        x[p], y[p] = a[step], b[step]
        dist[p] += 2 << i
    return dist


# ---- generators ----

MAX_GEN_NODES = 2 ** 32 - 1  # random generators: one MT19937 word a draw


def gen_path(n: int) -> FunctionalGraph:
    """The oriented path 0 -> 1 -> ... -> n-1 (sink at n-1)."""
    if not 1 <= n < 2 ** 63:  # a count that int64 arrays can index
        raise ValueError("n must be in [1, 2^63)")
    return FunctionalGraph(np.append(np.arange(1, n), -1))


def gen_random_forest(n: int, seed: int) -> FunctionalGraph:
    """Random acyclic functional graph with deliberately deep trees.

    With ``rng = random.Random(seed)``, vertices are placed in the order
    ``rng.sample(range(n), n)``.  The first half form
    ``rng.choice([1, 1, 1, 2, 3])`` backbone chains (one below n = 20),
    each into its first vertex, a root; each later vertex attaches to
    ``order[rng.randrange(i)]``, i vertices being placed before it.
    Backbones keep many vertices far from the sinks, so interiors at
    large horizons stay populated.  The draws are replayed in bulk.
    """
    if not 1 <= n <= MAX_GEN_NODES:
        raise ValueError(f"n must be in [1, {MAX_GEN_NODES}]")
    rng = random.Random(seed)
    order = _pool_sample(_randbelow_bulk(rng, np.arange(n, 0, -1)))
    ntrees = 1 if n < 20 else rng.choice([1, 1, 1, 2, 3])
    per_tree = max(ntrees, n // 2) // ntrees
    placed = ntrees * per_tree
    succ = np.empty(n, dtype=np.int64)
    succ[order[:placed]] = np.r_[-1, order[:placed - 1]]  # the backbones
    succ[order[:placed:per_tree]] = -1  # their roots
    succ[order[placed:]] = order[_randbelow_bulk(rng, np.arange(placed, n))]
    return FunctionalGraph(succ)


def gen_random_total(n: int, seed: int) -> FunctionalGraph:
    """Uniformly random total successor map (always has cycles): vertex
    i's successor is the i-th ``random.Random(seed).randrange(n)``."""
    if not 1 <= n <= MAX_GEN_NODES:
        raise ValueError(f"n must be in [1, {MAX_GEN_NODES}]")
    return FunctionalGraph(_randbelow_bulk(random.Random(seed),
                                           np.full(n, n)))


def _randbelow_bulk(rng: random.Random, bounds: np.ndarray) -> np.ndarray:
    """``[rng.randrange(b) for b in bounds]`` for bounds in [1, 2^32),
    read in bulk from the same MT19937 words, leaving ``rng`` where
    those calls would.

    CPython's ``randrange(b)`` redraws ``getrandbits(k)``, the top k =
    b.bit_length() bits of one 32-bit word, until it is below b.  In a
    run of bounds of equal k, word p serves the call numbered by the
    words accepted before it, and is accepted when below that call's
    bound.  Each word's call depends on earlier words only, so
    recounting the calls from a guess settles at least one more word a
    round, and a round that changes nothing gives the stdlib's draws;
    a chunk of 2^14 words takes a few rounds.
    """
    out = np.empty(len(bounds), dtype=np.int64)
    bits = np.searchsorted(np.left_shift(1, np.arange(33)), bounds, "right")
    cuts = (np.flatnonzero(np.diff(bits)) + 1).tolist()
    words, state, drawn = np.empty(0, dtype=np.uint32), None, 0
    for lo, hi in zip([0, *cuts], [*cuts, len(bounds)]):
        while lo < hi:
            if not len(words):
                drawn, state = min(1 << 14, 2 * (hi - lo) + 64), rng.getstate()
                words = np.frombuffer(rng.getrandbits(32 * drawn).to_bytes(
                    4 * drawn, "little"), "<u4")
            v = (words >> (32 - int(bits[lo]))).astype(np.int64)
            b = bounds[lo:hi]
            # first guess: no redraws, word p serves call p
            acc = v < b[np.minimum(np.arange(len(v)), len(b) - 1)]
            while True:
                call = np.cumsum(acc) - acc
                again = v < b[np.minimum(call, len(b) - 1)]
                if np.array_equal(again, acc):
                    break
                acc = again
            taken = np.flatnonzero(acc)[:hi - lo]
            out[lo + call[taken]] = v[taken]
            lo += len(taken)
            words = words[taken[-1] + 1 if lo == hi else len(words):]
    if len(words):  # give back the words drawn past the last call
        rng.setstate(state)
        rng.getrandbits(32 * (drawn - len(words)))
    return out


def _pool_sample(j: np.ndarray) -> np.ndarray:
    """``random.sample(range(n), n)`` from its draws j[i] =
    ``randrange(n - i)``.

    The stdlib shuffles a pool: step i reads slot j[i] into the result
    and moves slot n-1-i, which no later step reads, into slot j[i].
    So a read finds what the latest earlier step that wrote its slot
    moved there, or the slot's own index when no step did.  The
    "latest earlier write of the moved slot" links run to ever earlier
    steps, and one :func:`path_ends` call follows each to the step
    whose moved slot was never written before: what it moved is that
    slot's index.
    """
    n = len(j)
    key = j.astype(np.uint64)  # slot << 32 | step: the writes by slot
    key <<= np.uint64(32)
    key |= np.arange(n, dtype=np.uint64)
    key.sort()
    when = key.astype(np.uint32)  # the low half
    slot = key >> np.uint64(32)
    same = slot[1:] == slot[:-1]
    prev = np.full(n, -1)  # latest earlier step that wrote slot j[i]
    prev[when[1:][same]] = when[:-1][same]
    link = np.full(n, -1)  # the last step that wrote slot n-1-i
    end = np.append(~same, True)
    link[n - 1 - slot[end].astype(np.int64)] = when[end]
    del key, slot, when, same, end  # before path_ends' own arrays
    # the last write of slot n-1-i is step i itself when j[i] = n-1-i;
    # then step i moves the value it reads, which prev[i] wrote
    link = np.where(link == np.arange(n), prev, link)
    moved = n - 1 - path_ends(link)[1]
    return np.where(prev >= 0, moved[prev], j)
