"""Synchronous message passing on oriented paths.

Nodes sit on disjoint oriented paths, know their own identifier (unique
in {0, ..., n**3}), which of their two ports are wired, and n.  A round
delivers the messages returned by the previous round and lets every
node step once; the engine may execute node updates of a round in any
order (delivery is double buffered, so update order cannot leak).

Two engines produce identical results: a per-node reference engine
that runs any algorithm object, and a vectorized fast path for the
ruling-set algorithm on index-contiguous networks, used for large n.

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
from dataclasses import dataclass, field
from typing import Any, NamedTuple

import numpy as np

from .digraphs import Digraph
from .graphs import FunctionalGraph
from .hitting import is_forward_independent, is_hitting
from .homsolver import ErgodicSolverData, ergodic_solver_data


class RoundLimitError(RuntimeError):
    """An algorithm's schedule exceeds the allowed number of rounds."""


class NodeView(NamedTuple):
    ident: int
    has_pred: bool
    has_succ: bool
    n: int


@dataclass
class PathNetwork:
    """Disjoint oriented paths with unique bounded identifiers.

    ``segments`` lists index-contiguous runs [start, end) when the
    wiring follows index order (the builder's layout); it is None for
    arbitrary wirings, which only the reference engine accepts.
    """

    ids: list[int]
    succ: list[int | None]
    segments: list[tuple[int, int]] | None = None
    pred: list[int | None] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = len(self.ids)
        if len(self.succ) != n:
            raise ValueError("ids and succ must have equal length")
        if len(set(self.ids)) != n:
            raise ValueError("identifiers must be unique")
        bound = n ** 3
        if any(not 0 <= i <= bound for i in self.ids):
            raise ValueError("identifiers must lie in [0, n^3]")
        pred: list[int | None] = [None] * n
        for i, s in enumerate(self.succ):
            if s is None:
                continue
            if pred[s] is not None:
                raise ValueError("a node has two predecessors")
            pred[s] = i
        self.pred = pred
        if not self.to_graph().acyclic:
            raise ValueError("the wiring must be acyclic")

    @property
    def n(self) -> int:
        return len(self.ids)

    def to_graph(self) -> FunctionalGraph:
        return FunctionalGraph(list(self.succ))

    def view(self, i: int) -> NodeView:
        return NodeView(self.ids[i], self.pred[i] is not None,
                        self.succ[i] is not None, self.n)


def make_path_network(n: int, seed: int = 0, segments: int = 1,
                      id_mode: str = "random") -> PathNetwork:
    """Index-contiguous paths with sampled identifiers.

    id_mode "sorted" and "reversed" lay the identifiers out
    monotonically along the paths, the adversarial cases for naive
    local-minimum tricks.
    """
    if n < 1 or not 1 <= segments <= n:
        raise ValueError("need 1 <= segments <= n")
    rng = random.Random(seed)
    ids = rng.sample(range(n ** 3 + 1), n)
    if id_mode == "sorted":
        ids.sort()
    elif id_mode == "reversed":
        ids.sort(reverse=True)
    elif id_mode != "random":
        raise ValueError(f"unknown id_mode {id_mode!r}")
    base = n // segments
    sizes = [base + (1 if i < n % segments else 0) for i in range(segments)]
    succ: list[int | None] = [None] * n
    bounds = []
    start = 0
    for size in sizes:
        end = start + size
        for i in range(start, end - 1):
            succ[i] = i + 1
        bounds.append((start, end))
        start = end
    return PathNetwork(ids, succ, bounds)


@dataclass
class RoundTrace:
    rounds: int
    outputs: list
    engine: str


def run_local(alg, net: PathNetwork, engine: str = "auto",
              order_seed: int | None = None,
              round_cap: int | None = None) -> RoundTrace:
    """Execute an algorithm on a network and collect outputs.

    ``engine="vector"`` requires the algorithm to provide
    vector_outputs and the network to be index-contiguous; "auto"
    falls back to the reference engine otherwise.
    """
    total = alg.total_rounds(net.n)
    if round_cap is not None and total > round_cap:
        raise RoundLimitError(
            f"schedule needs {total} rounds, cap is {round_cap}")
    can_vector = hasattr(alg, "vector_outputs") and net.segments is not None
    if engine == "vector" and not can_vector:
        raise ValueError("vector engine unavailable for this run")
    if engine in ("vector", "auto") and can_vector:
        outputs = alg.vector_outputs(net)
        return RoundTrace(total, outputs, "vector")
    if engine not in ("auto", "reference"):
        raise ValueError(f"unknown engine {engine!r}")
    n = net.n
    order = list(range(n))
    if order_seed is not None:
        random.Random(order_seed).shuffle(order)
    states: list[Any] = [None] * n
    to_pred: list[Any] = [None] * n
    to_succ: list[Any] = [None] * n
    for i in order:
        states[i], to_pred[i], to_succ[i] = alg.boot(net.view(i))
    for rnd in range(1, total + 1):
        new_pred: list[Any] = [None] * n
        new_succ: list[Any] = [None] * n
        for i in order:
            p, s = net.pred[i], net.succ[i]
            from_pred = to_succ[p] if p is not None else None
            from_succ = to_pred[s] if s is not None else None
            states[i], new_pred[i], new_succ[i] = alg.step(
                net.view(i), states[i], rnd, from_pred, from_succ)
        to_pred, to_succ = new_pred, new_succ
    outputs = [alg.finish(net.view(i), states[i]) for i in range(n)]
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
        blocks = cv_iterations(n) + 6
        return blocks * sum(3 ** k for k in range(self.levels + 1))

    # ---- static schedule decoding ----

    def _decode(self, n: int, rnd: int) -> tuple[int, int, int, int]:
        """(level, virtual round, sub-round, block size) for a round."""
        blocks = cv_iterations(n) + 6
        off = rnd - 1
        for k in range(self.levels + 1):
            span = blocks * 3 ** k
            if off < span:
                b = 3 ** k
                return k, off // b, off % b, b
            off -= span
        raise AssertionError("round beyond schedule")

    # ---- reference engine protocol ----

    def boot(self, view: NodeView):
        state = {"active": True, "joined": False, "blocked": False,
                 "color": view.ident, "rx_pred": None, "rx_succ": None}
        return state, None, None

    def step(self, view: NodeView, state, rnd, from_pred, from_succ):
        k, v, sub, _ = self._decode(view.n, rnd)
        iters = cv_iterations(view.n)
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

    def vector_outputs(self, net: PathNetwork) -> list[bool]:
        assert net.segments is not None
        n = net.n
        ids = np.asarray(net.ids, dtype=np.int64)
        seg_id = np.empty(n, dtype=np.int64)
        for j, (a, b) in enumerate(net.segments):
            seg_id[a:b] = j
        iters = cv_iterations(n)
        cur = np.arange(n)
        for _ in range(self.levels + 1):
            segs = seg_id[cur]
            heads = np.empty(len(cur), dtype=bool)
            heads[0] = True
            heads[1:] = segs[1:] != segs[:-1]
            colors = _cv_vector(ids[cur], heads, iters)
            joined = _mis_vector(colors, heads)
            cur = cur[joined]
        out = np.zeros(n, dtype=bool)
        out[cur] = True
        return out.tolist()


def _cv_vector(colors: np.ndarray, heads: np.ndarray,
               iters: int) -> np.ndarray:
    colors = colors.copy()
    for _ in range(iters):
        pc = np.empty_like(colors)
        if len(colors) > 1:
            pc[1:] = colors[:-1]
        pc[0] = 0
        diff = colors ^ pc
        assert bool(np.all(diff[~heads] != 0)), "adjacent equal colors"
        diff = np.where(heads, 1, diff)
        low = diff & -diff
        i = np.round(np.log2(low.astype(np.float64))).astype(np.int64)
        nxt = 2 * i + ((colors >> i) & 1)
        colors = np.where(heads, colors & 1, nxt)
    return colors


def _mis_vector(colors: np.ndarray, heads: np.ndarray) -> np.ndarray:
    m = len(colors)
    joined = np.zeros(m, dtype=bool)
    tails = np.empty(m, dtype=bool)
    tails[-1] = True
    tails[:-1] = heads[1:]
    for phase in range(6):
        nb = np.zeros(m, dtype=bool)
        if m > 1:
            nb[1:] |= joined[:-1] & ~tails[:-1]
            nb[:-1] |= joined[1:] & ~heads[1:]
        joined |= (colors == phase) & ~nb
    return joined


def verify_ruling(net: PathNetwork, members: list[bool],
                  spacing: int, gap_bound: int) -> dict:
    """Centralized check: independence at ``spacing``, hit by ``gap_bound``."""
    g = net.to_graph()
    mset = {i for i, b in enumerate(members) if b}
    independent = is_forward_independent(g, mset, spacing)
    hits = is_hitting(g, mset, gap_bound)
    return {"members": len(mset), "independent": independent,
            "hitting": hits, "ok": independent and hits}


def window_label(bits: list[bool | None], data: ErgodicSolverData) -> int | None:
    """Template label from a forward membership window.

    bits[0] is the node's own membership, bits[i] the node i steps
    ahead (None past the end of the window or path).  The steps to the
    first member ahead and from it to the second go through
    :meth:`ErgodicSolverData.label`.
    """
    ahead = (i for i in range(1, len(bits)) if bits[i])
    first = next(ahead, None)
    second = next(ahead, None)
    return data.label(first, None if second is None else second - first)


class TemplateSolverAlgorithm:
    """Distributed homomorphism labeling into an ergodic template.

    Runs the ruling-set algorithm at the template's reach-all
    threshold, then gathers a forward membership window long enough to
    place each node, and labels it by the centralized solver's rule,
    :meth:`ErgodicSolverData.label`.  Nodes whose window is cut off by
    the path end output None.
    """

    def __init__(self, template: Digraph):
        self.data = ergodic_solver_data(template)
        self.ruling = RulingSetAlgorithm(self.data.reach_all)
        self.window = self.data.reach_all + self.ruling.gap_bound() + 1

    def total_rounds(self, n: int) -> int:
        return self.ruling.total_rounds(n) + self.window

    def boot(self, view: NodeView):
        inner, tp, ts = self.ruling.boot(view)
        return {"inner": inner, "bits": None}, tp, ts

    def step(self, view: NodeView, state, rnd, from_pred, from_succ):
        base = self.ruling.total_rounds(view.n)
        if rnd <= base:
            state["inner"], tp, ts = self.ruling.step(
                view, state["inner"], rnd, from_pred, from_succ)
            if rnd == base:
                state["bits"] = [self.ruling.finish(view, state["inner"])]
                return state, state["bits"][:self.window], None
            return state, tp, ts
        # gather phase: windows flow backwards, one hop per round
        if from_succ is not None:
            state["bits"] = [state["bits"][0]] + list(from_succ)
        return state, state["bits"][:self.window], None

    def finish(self, view: NodeView, state) -> int | None:
        bits: list[bool | None] = list(state["bits"])
        bits += [None] * (self.window + 1 - len(bits))
        return window_label(bits, self.data)
