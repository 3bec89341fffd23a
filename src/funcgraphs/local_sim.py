"""Synchronous message passing on oriented paths.

Nodes sit on disjoint oriented paths, know their own identifier (unique
in {0, ..., n**3}), which of their two ports are wired, and n.  A round
delivers the messages returned by the previous round and lets every
node step once; the engine may execute node updates of a round in any
order (delivery is double buffered, so update order cannot leak).

A network is a functional graph whose sinks are the path ends, plus
int64 identifiers (so n <= ``MAX_NODES``); on index-contiguous wirings
each node's path end and steps to it, all the verifier reads, come from
the runs.

Two engines produce identical results: a per-node reference engine
that runs any algorithm object, and a vectorized engine for the
ruling-set algorithm, which :func:`run_local` picks whenever the
network is index-contiguous.  It carries uint8 colors after the first
color-reduction step and stops at the first level where every path has
one member, since every later level keeps exactly those.

A ruling-set request holds four n-sized int64 arrays, the network's
``succ_array``, ``id_array``, ``sinks`` and ``depth`` (32 bytes a
node), and its stages add little on top, ``_BLOCK`` nodes at a time:
the id draw fills one output array a block of candidates at a time,
the run ends are read a block at a time from the right, the first
color step turns a block of int64 ids (with its left neighbour) into
uint8 colors, and the verifier gathers one key per member and checks
the nodes a block at a time.  A ``local -r 4 --n 1000000 --segments 8``
request peaks at 40 MB under tracemalloc.

The ruling-set algorithm runs in rounds independent of n for a fixed
identifier-space width: a color-reduction phase shrinks identifiers to
six colors, an independent-set phase picks members two to three apart,
and each doubling level re-runs both on the virtual path of current
members with relayed messages, tripling the round block each time.
After level K = bit_length(spacing) - 1 members are more than
``spacing`` apart yet every node sees one within 3**(K+1) steps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, NamedTuple, Sequence

import numpy as np

from .digraphs import Digraph
from .graphs import FunctionalGraph, int_array, path_ends
from .homsolver import ergodic_solver_data

MAX_NODES = 2 ** 21 - 1  # the largest n with n**3 < 2**63
# nodes (identifier candidates in the draw) per block of the network
# build, the first color-reduction step and the verifier
_BLOCK = 1 << 14


class RoundLimitError(RuntimeError):
    """An algorithm's schedule exceeds the allowed number of rounds."""


class NodeView(NamedTuple):
    ident: int
    has_pred: bool
    has_succ: bool
    n: int


class PathNetwork(FunctionalGraph):
    """Disjoint oriented paths with unique bounded identifiers.

    A :class:`~funcgraphs.graphs.FunctionalGraph` whose sinks are the
    path ends, plus an int64 ``id_array``; both are given as arrays or
    as Python sequences (see :func:`~funcgraphs.graphs.successor_array`).
    ``contiguous`` says whether every successor is the next index up to
    a path end (the builder's layout), so that each path is an
    index-contiguous run and ``depth`` and ``sinks`` are read off the
    run ends; only the reference engine runs on any other wiring.
    """

    def __init__(self, ids: Sequence[int] | np.ndarray,
                 succ: Sequence[int | None] | np.ndarray):
        n = len(ids)
        if not len(succ) == n <= MAX_NODES:
            raise ValueError(f"need len(ids) == len(succ) <= {MAX_NODES}")
        super().__init__(succ)
        self.id_array = int_array(ids, "identifiers")
        ordered = np.sort(self.id_array)
        if n and (ordered[0] < 0 or ordered[-1] > n ** 3):
            raise ValueError("identifiers must lie in [0, n^3]")
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("identifiers must be unique")
        del ordered  # freed before the run ends are built
        nxt = self.succ_array
        runs = _contiguous_runs(nxt)
        self.contiguous = runs is not None
        if self.contiguous:  # instance values override the cached ones
            self.depth, self.sinks = runs
            return
        if np.bincount(nxt[nxt >= 0], minlength=n).max(initial=0) > 1:
            raise ValueError("a node has two predecessors")
        self.depth, self.sinks = path_ends(nxt)
        if np.any(self.sinks < 0):
            raise ValueError("the wiring must be acyclic")


def _contiguous_runs(nxt: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``path_ends(nxt)`` when every successor is the next index up to a
    path end, else None.  Blocks run from the right, and a block's nodes
    past its last end take the first end of the block after it."""
    n = len(nxt)
    depth, sinks = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    after = n  # node n - 1 is an end: n is no successor
    for lo in reversed(range(0, n, _BLOCK)):
        at = np.arange(lo, min(lo + _BLOCK, n))
        step = nxt[lo:lo + _BLOCK]
        end = step < 0
        if not np.all(end | (step == at + 1)):
            return None
        ahead = np.minimum.accumulate(np.where(end, at, after)[::-1])[::-1]
        sinks[lo:lo + _BLOCK], depth[lo:lo + _BLOCK] = ahead, ahead - at
        after = ahead[0]
    return depth, sinks


def _sample_ids(rng: random.Random, n: int) -> np.ndarray:
    """``rng.sample(range(n**3 + 1), n)`` replayed in bulk from the same
    MT19937 words: past n = 2 it redraws ``getrandbits(k)`` while > n**3
    or taken, and ``getrandbits`` keeps a word's top k bits, or for
    k > 32 puts the next word's top k - 32 bits above the first word.

    The words are drawn ``_BLOCK`` candidates at a time into one output
    array, so the result is the first n distinct accepted values in draw
    order; a repeat keeps its first occurrence and the draw goes on."""
    size = n ** 3 + 1
    if n <= 2:  # sample's pool branch: size <= its setsize, 21 here
        return np.array(rng.sample(range(size), n))
    k, (*key, pos) = size.bit_length(), rng.getstate()[1]
    mt = np.random.MT19937()
    mt.state = {"bit_generator": "MT19937", "state": {"key": key, "pos": pos}}
    out = np.empty(n, dtype=np.int64)
    got, spare = 0, out[:0]  # spare: accepted values not yet placed
    while True:
        while got < n:
            if not len(spare):
                count = min(_BLOCK, ((n - got) << k) // size + 16)
                if k <= 32:
                    values = mt.random_raw(count) >> (32 - k)
                else:
                    w = mt.random_raw(2 * count)
                    values = w[::2] | w[1::2] >> (64 - k) << 32
                spare = values[values < size].view(np.int64)
            take = spare[:n - got]
            out[got:got + len(take)], spare = take, spare[len(take):]
            got += len(take)
        ordered = np.sort(out)
        if np.all(ordered[1:] != ordered[:-1]):  # repeats are rare
            return out
        del ordered
        first = np.sort(np.unique(out, return_index=True)[1])
        got = len(first)
        out[:got] = out[first]


def make_path_network(n: int, seed: int = 0,
                      segments: int = 1) -> PathNetwork:
    """Index-contiguous paths with identifiers sampled from [0, n^3]."""
    if not 1 <= segments <= n <= MAX_NODES:
        raise ValueError(f"need 1 <= segments <= n <= {MAX_NODES}")
    ids = _sample_ids(random.Random(seed), n)
    base, extra = divmod(n, segments)  # the first `extra` get one more
    succ = np.arange(1, n + 1)
    succ[base:extra * (base + 1):base + 1] = -1
    succ[extra * (base + 1) + base - 1::base] = -1
    return PathNetwork(ids, succ)


@dataclass
class RoundTrace:
    rounds: int
    outputs: list
    engine: str


def run_local(alg, net: PathNetwork, order_seed: int | None = None,
              round_cap: int | None = None) -> RoundTrace:
    """Execute an algorithm on a network and collect outputs.

    The vector engine runs when the algorithm provides vector_outputs
    and the network is index-contiguous; the reference engine, which
    steps every node in every round (in an order ``order_seed``
    shuffles), runs otherwise.
    """
    total = alg.total_rounds(net.n)
    if round_cap is not None and total > round_cap:
        raise RoundLimitError(
            f"schedule needs {total} rounds, cap is {round_cap}")
    if hasattr(alg, "vector_outputs") and net.contiguous:
        return RoundTrace(total, alg.vector_outputs(net), "vector")
    n, succ = net.n, net.succ
    order = list(range(n))
    if order_seed is not None:
        random.Random(order_seed).shuffle(order)
    pred: list[int | None] = [None] * n
    for i, s in enumerate(succ):
        if s is not None:
            pred[s] = i
    views = [NodeView(ident, p is not None, s is not None, n)
             for ident, p, s in zip(net.id_array.tolist(), pred, succ)]
    states: list[Any] = [None] * n
    to_pred: list[Any] = [None] * n
    to_succ: list[Any] = [None] * n
    for i in order:
        states[i], to_pred[i], to_succ[i] = alg.boot(views[i])
    for rnd in range(1, total + 1):
        new_pred: list[Any] = [None] * n
        new_succ: list[Any] = [None] * n
        for i in order:
            p, s = pred[i], succ[i]
            from_pred = to_succ[p] if p is not None else None
            from_succ = to_pred[s] if s is not None else None
            states[i], new_pred[i], new_succ[i] = alg.step(
                views[i], states[i], rnd, from_pred, from_succ)
        to_pred, to_succ = new_pred, new_succ
    outputs = [alg.finish(views[i], states[i]) for i in range(n)]
    return RoundTrace(total, outputs, "reference")


def cv_iterations(n: int) -> int:
    """Color-reduction iterations to shrink {0..n^3} to six colors."""
    domain = n ** 3 + 1
    iters = 0
    while domain > 6:
        domain = 2 * (domain - 1).bit_length()
        iters += 1
    return iters


def _cv_combine(color: int, pred_color: int | None) -> int:
    """One color-reduction step against the predecessor's color."""
    if pred_color is None:
        return color & 1
    diff = color ^ pred_color
    assert diff != 0, "adjacent nodes share a color"
    i = (diff & -diff).bit_length() - 1
    return 2 * i + ((color >> i) & 1)


@lru_cache(maxsize=4)
def _ruling_schedule(levels: int, n: int) -> tuple[tuple[int, ...], ...]:
    """(level, virtual round, sub-round, color-reduction iterations) per
    round (entry 0 unused); level k has cv_iterations(n) + 6 blocks of 3**k."""
    iters = cv_iterations(n)
    return ((0, 0, 0, iters),) + tuple(
        (k, off // 3 ** k, off % 3 ** k, iters)
        for k in range(levels + 1) for off in range(3 ** k * (iters + 6)))


class RulingSetAlgorithm:
    """Distributed spaced hitting set on oriented paths.

    The output member set is more than ``spacing`` apart along each
    path while every node reaches a member within ``gap_bound()``
    steps.  The schedule is static: rounds depend on n only through the
    identifier width, so they stay flat over huge ranges of n.
    """

    def __init__(self, spacing: int):
        if spacing < 1:
            raise ValueError("spacing must be >= 1")
        self.spacing = spacing
        self.levels = spacing.bit_length() - 1  # doubling levels after 0

    def gap_bound(self) -> int:
        return 3 ** (self.levels + 1)

    def total_rounds(self, n: int) -> int:
        blocks = cv_iterations(n) + 6  # per level k, of 3**k rounds each
        return blocks * (self.gap_bound() - 1) // 2  # sum of 3**k, k <= levels

    # ---- reference engine protocol ----

    def boot(self, view: NodeView):
        state = {"active": True, "joined": False, "blocked": False,
                 "color": view.ident, "rx_pred": None, "rx_succ": None,
                 "plan": _ruling_schedule(self.levels, view.n)}
        return state, None, None

    def step(self, view: NodeView, state, rnd, from_pred, from_succ):
        k, v, sub, iters = state["plan"][rnd]
        if v == 0 and sub == 0:
            state["active"] = state["joined"] if k > 0 else True
            state["joined"] = False
            state["blocked"] = False
            state["color"] = view.ident
            state["rx_pred"] = None
            state["rx_succ"] = None
        if not state["active"]:
            # relays pass every message one hop onward per round
            return state, from_succ, from_pred
        if from_pred is not None:
            state["rx_pred"] = from_pred
        if from_succ is not None:
            state["rx_succ"] = from_succ
        if sub != 0:
            return state, None, None
        out_pred = out_succ = None
        if 1 <= v <= iters:
            rx = state["rx_pred"]
            pred_color = rx[2] if rx is not None and rx[0] == "c" else None
            state["color"] = _cv_combine(state["color"], pred_color)
        if v < iters:
            out_succ = ("c", k, state["color"])
        else:
            phase = v - iters
            for side in ("rx_pred", "rx_succ"):
                rx = state[side]
                if rx is not None and rx[0] == "j" and rx[1] == k:
                    state["blocked"] = True
            if (not state["blocked"] and not state["joined"]
                    and state["color"] == phase):
                state["joined"] = True
                out_pred = out_succ = ("j", k)
        state["rx_pred"] = None
        state["rx_succ"] = None
        return state, out_pred, out_succ

    def finish(self, view: NodeView, state) -> bool:
        return bool(state["joined"])

    # ---- vectorized engine ----

    def vector_outputs(self, net: PathNetwork) -> np.ndarray:
        assert net.contiguous
        iters = cv_iterations(net.n)
        cur = slice(None)  # level 0 reads every node without a gather
        for level in range(self.levels + 1):
            segs = net.sinks[cur]  # one sink per segment
            heads = np.r_[True, segs[1:] != segs[:-1]]
            del segs  # before the level's gathers
            if heads.all():  # one node per path: all join, here and later
                break
            joined = _mis_vector(_cv_vector(net.id_array[cur], heads, iters),
                                 heads)
            cur = np.flatnonzero(joined) if level == 0 else cur[joined]
            del joined  # before the next level's gathers
        out = np.zeros(net.n, dtype=bool)
        out[cur] = True
        return out


def _cv_step(colors: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """One color-reduction step of each node against its left neighbour,
    over a run of nodes whose first is taken as a head; as uint8."""
    diff = np.empty_like(colors)
    np.bitwise_xor(colors[1:], colors[:-1], out=diff[1:])
    diff[:1] = 1
    diff |= heads  # lowest set bit 0 at a head: it takes color & 1
    assert diff.all(), "adjacent equal colors"
    low = np.bitwise_count((diff & -diff) - 1)  # lowest set bit
    return 2 * low + ((colors >> low) & 1).astype(np.uint8)


def _cv_vector(colors: np.ndarray, heads: np.ndarray,
               iters: int) -> np.ndarray:
    """Color reduction on the runs that start at ``heads``; from the
    first step on the colors are below 2 * 63, so uint8.  The first
    step, on int64 identifiers, runs a block at a time, each block with
    its left neighbour, straight into the uint8 colors."""
    if not iters:
        return colors
    first = np.empty(len(colors), dtype=np.uint8)
    for lo in range(0, len(colors), _BLOCK):
        start, hi = max(lo - 1, 0), lo + _BLOCK
        first[lo:hi] = _cv_step(colors[start:hi], heads[start:hi])[lo - start:]
    colors = first
    for _ in range(iters - 1):
        colors = _cv_step(colors, heads)
    return colors


def _mis_vector(colors: np.ndarray, heads: np.ndarray) -> np.ndarray:
    link = ~heads[1:]  # node i and i + 1 are on one path
    joined = colors == 0
    for phase in range(1, 6):
        free = colors == phase
        free[1:] &= ~(joined[:-1] & link)
        free[:-1] &= ~(joined[1:] & link)
        joined |= free
    return joined


def verify_ruling(net: PathNetwork, members: Sequence[bool] | np.ndarray,
                  spacing: int, gap_bound: int) -> dict:
    """Centralized check: independence at ``spacing``, hit by ``gap_bound``.

    Any wiring: consecutive members on one path (``sinks``) differ in
    ``depth`` by more than ``spacing``; a node of depth >= ``gap_bound``
    has a member of smaller depth on its path.  Each member is one key,
    sink * n + depth (both below n), so sorted keys run path by path in
    depth order; each path's least key, kept in place at the front,
    gives the lowest member depth that a node on it looks up.  Keys are
    gathered, compared and looked up a block at a time."""
    flags = np.asarray(members, dtype=bool)
    if spacing < 1 or gap_bound < 0 or flags.shape != (net.n,):
        raise ValueError("need spacing >= 1, gap_bound >= 0, n flags")
    n, count = net.n, int(np.count_nonzero(flags))
    keys = np.empty(count + 1, dtype=np.int64)  # one slot for a sentinel
    got = 0
    for lo in range(0, n, _BLOCK):
        f = flags[lo:lo + _BLOCK]
        key = net.sinks[lo:lo + _BLOCK][f] * n + net.depth[lo:lo + _BLOCK][f]
        keys[got:got + len(key)] = key
        got += len(key)
    keys[:count].sort()
    kept, independent = min(count, 1), True
    for lo in range(1, count, _BLOCK):
        b = keys[lo:min(lo + _BLOCK, count)]
        a = keys[lo - 1:lo - 1 + len(b)]
        same = a // n == b // n
        independent &= not np.any(same & (b - a <= spacing))
        least = b[~same]  # a copy, written at or behind what is still read
        keys[kept:kept + len(least)] = least
        kept += len(least)
    keys[kept] = n * n  # past every key
    lows = keys[:kept + 1]
    hits = True
    for lo in range(0, n, _BLOCK):
        depth = net.depth[lo:lo + _BLOCK]
        deep = depth >= gap_bound
        path = net.sinks[lo:lo + _BLOCK][deep] * n
        hits &= bool(np.all(lows[np.searchsorted(lows, path)]
                            < path + depth[deep]))
    return {"members": count, "independent": independent,
            "hitting": hits, "ok": independent and hits}


class TemplateSolverAlgorithm:
    """Distributed homomorphism labeling into an ergodic template.

    Runs the ruling-set algorithm at the template's reach-all
    threshold, then W = ``window`` gather rounds.  In each one a node
    passes its predecessor (joined, first, second): its membership and
    its steps to the first and second members ahead, -1 for one not yet
    seen.  After k rounds a node has seen k hops ahead, so the round
    count is the locality bound: first <= W and first + gap <= W, or -1.
    Each node outputs (first, gap), and :meth:`labels` maps the outputs
    through the centralized solver's rule,
    :meth:`ErgodicSolverData.labels`; a node that sees no member, or
    sees one within L steps but not the one after it, gets -1.
    """

    def __init__(self, template: Digraph):
        self.data = ergodic_solver_data(template)
        self.ruling = RulingSetAlgorithm(self.data.reach_all)
        self.window = self.data.reach_all + self.ruling.gap_bound() + 1

    def total_rounds(self, n: int) -> int:
        return self.ruling.total_rounds(n) + self.window

    def boot(self, view: NodeView):
        inner, tp, ts = self.ruling.boot(view)
        base = len(inner["plan"]) - 1
        return {"inner": inner, "seen": None, "base": base}, tp, ts

    def step(self, view: NodeView, state, rnd, from_pred, from_succ):
        base = state["base"]
        if rnd <= base:
            state["inner"], tp, ts = self.ruling.step(
                view, state["inner"], rnd, from_pred, from_succ)
            if rnd < base:
                return state, tp, ts
            state["seen"] = (self.ruling.finish(view, state["inner"]), -1, -1)
        elif from_succ is not None:  # counters flow back one hop a round
            joined, first, second = from_succ
            if joined:
                first, second = 0, first
            state["seen"] = (state["seen"][0], first + (first >= 0),
                             second + (second >= 0))
        return state, state["seen"], None

    def finish(self, view: NodeView, state) -> tuple[int, int]:
        _, first, second = state["seen"]
        return first, second - first if second >= 0 else -1

    def labels(self, outputs: Sequence[tuple[int, int]]) -> np.ndarray:
        """Template labels of the nodes' (first, gap) outputs."""
        first, gap = np.array(outputs, dtype=np.int64).reshape(-1, 2).T
        return self.data.labels(first, gap)
