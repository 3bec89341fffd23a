"""Two-set covers and bounded equivalence relations on acyclic graphs.

Everything here works with a forward-independent hitting set on a
sinks-included acyclic functional graph.  A parity coloring derived
from distances to the hitting set is the cover: its two colors have
proximity classes at radius t of diameter O(t).  Its color changes key
an equivalence relation with O(t)-diameter classes such that every
radius-t ball meets at most two of them.  Reverse extractions (see
:mod:`funcgraphs.hitting`) recover hitting sets from either witness.

All labelings are truncation-honest: a vertex gets a value exactly when
the forward data the formula consumes exists inside the graph, and the
verifiers restrict their assertions to vertices far enough from the
sinks that definedness is guaranteed.  Every per-vertex map (distances,
landings, colors, flips, anchors) is an int64 array of length n with -1
where the value is undefined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .graphs import FunctionalGraph, ball_class_counts, \
    class_diameters, csr_rows, path_ends, proximity_classes, sorted_unique, \
    vertex_array
from .hitting import greedy_hitting, hitting_from_cover, \
    hitting_from_equivalence, is_forward_independent, is_hitting, next_member
from .partition import Partition


@dataclass(frozen=True)
class WitnessParams:
    """Scale constants tied to a radius t.

    ``stripe`` is the parity stripe width (6t) and ``spacing`` the
    hitting-set spacing (4 * stripe**2).  The interval decomposition
    splits {0, ..., spacing/2 - 1} into stripe-1 pieces of size stripe
    followed by stripe pieces of size stripe+1.  The deepest horizon,
    216t^2 + 22t + 2, must fit int64, so t is at most 206,641,710.
    """

    t: int

    def __post_init__(self) -> None:
        if self.t < 1 or self.verify_depth + self.t >= 2 ** 63:
            raise ValueError(f"t must be in 1..206641710, got {self.t}")

    @property
    def stripe(self) -> int:
        return 6 * self.t

    @property
    def spacing(self) -> int:
        return 4 * self.stripe * self.stripe

    @property
    def half(self) -> int:
        return self.spacing // 2

    @property
    def flip_bound(self) -> int:
        """Largest distance to a color change, away from the boundary."""
        return 2 * self.stripe + 2

    @property
    def anchor_skip(self) -> int:
        return self.stripe // 3

    @property
    def diameter_bound(self) -> int:
        """Documented proximity-class diameter bound."""
        return 28 * self.t + 7

    @property
    def sharp_diameter_bound(self) -> int:
        """A tighter bound, reported so the slack stays visible; nothing
        shows it is reached (``scripts/asdim_sweep.py`` on 10^5-vertex
        forests: worst classes 13, 19, 26 for t = 1, 2, 3, vs 32, 60, 88)."""
        return 28 * self.t + 4

    @property
    def label_depth(self) -> int:
        """Depth beyond which colors are always defined."""
        return self.spacing + self.half + self.stripe

    @property
    def verify_depth(self) -> int:
        """Depth beyond which colors, flips and anchors all exist."""
        return self.label_depth + self.flip_bound + self.anchor_skip + self.t

    def interval_of(self, p: np.ndarray) -> np.ndarray:
        """Interval number of each point of {0, ..., half - 1} in ``p``."""
        s, cut = self.stripe, self.stripe * (self.stripe - 1)
        return np.where(p < cut, p // s, s - 1 + (p - cut) // (s + 1))


@dataclass(eq=False)  # array fields: equality is identity
class CoverWitness:
    """Two-set cover of the labeled vertices by color.

    ``dist[x]`` is the least k >= 1 with f^k(x) a member (-1 when the
    orbit runs out first) and ``landing[x]`` that member.  ``bit[x]``
    is the color: for dist >= spacing/2 it is the parity of
    dist // stripe; below spacing/2 the color of the landing member z
    decides, either reusing the stripe parity (z colored 0) or flipping
    the parity of the interval containing dist (z colored 1).
    """

    params: WitnessParams
    dist: np.ndarray
    landing: np.ndarray
    bit: np.ndarray
    _classes: tuple | None = field(default=None, init=False, repr=False)

    @property
    def sets(self) -> tuple[np.ndarray, np.ndarray]:
        """The two color classes as sorted vertex arrays."""
        return tuple(np.flatnonzero(self.bit == c) for c in (0, 1))

    def classes(self, g: FunctionalGraph
                ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per set, the class id of each vertex (-1 outside the set) and
        the diameters of its proximity classes at radius t, once per graph."""
        if self._classes is None or self._classes[0] is not g:
            parts = [proximity_classes(g, u, self.params.t)
                     for u in self.sets]
            self._classes = g, [(p.id_array(g.n), class_diameters(g, p))
                                for p in parts]
        return self._classes[1]


def distance_parity_coloring(g: FunctionalGraph, members: Iterable[int],
                             t: int) -> CoverWitness:
    """Parity-coloring cover of a spacing-independent member set.

    ``dist`` and ``landing`` come from one :func:`next_member` call,
    which also shows independence: no member's next member is within
    spacing steps.  A member's next member is then more than spacing >=
    spacing/2 steps ahead, so its color is its own stripe parity (or
    -1), and every other color follows from it in closed form.
    """
    params = WitnessParams(t)
    if not g.acyclic:
        raise ValueError("parity coloring requires an acyclic graph")
    members = vertex_array(members, g.n)
    dist, landing = next_member(g, members)
    ahead = dist[members]
    if np.any((ahead > 0) & (ahead <= params.spacing)):
        raise ValueError(
            f"member set is not {params.spacing}-forward-independent")
    stripe = np.where(dist < 0, -1, dist // params.stripe % 2)
    zbit = np.where(landing < 0, -1, stripe[landing])
    below = np.where(zbit == 1, (params.interval_of(dist) + 1) % 2,
                     np.where(zbit == 0, stripe, -1))
    bit = np.where(dist >= params.half, stripe, below)
    return CoverWitness(params, dist, landing, bit)


def flip_dists(g: FunctionalGraph, cover: CoverWitness) -> np.ndarray:
    """Least j >= 1 with a different color at f^j(x), per vertex; -1
    when an undefined color or the end of the orbit comes first, or the
    color never changes.

    Cutting every edge that leaves a one-color run, one
    :func:`path_ends` call gives each vertex the steps to the end of its
    run; the color changes one step later if the successor there is
    colored.
    """
    succ, colored = g.succ_array, cover.bit
    bit = np.r_[colored, -1]  # bit[-1]: no color past a sink
    same = (colored >= 0) & (bit[succ] == colored)
    steps, end = path_ends(np.where(same, succ, -1))
    flips = (colored >= 0) & (end >= 0) & (bit[succ[end]] >= 0)
    return np.where(flips, steps + 1, -1)


def _deep(cid: np.ndarray, ok: np.ndarray, k: int) -> np.ndarray:
    """Mask of the k classes all of whose members are ``ok``."""
    return np.bincount(cid[(cid >= 0) & ~ok], minlength=k) == 0


def anchors(g: FunctionalGraph, params: WitnessParams,
            flip: np.ndarray) -> np.ndarray:
    """Anchor vertex f^(stripe/3 + flip(x))(x), per vertex."""
    out = g.jump(np.arange(g.n),
                 np.where(flip < 0, 0, params.anchor_skip + flip))
    return np.where(flip < 0, -1, out)


@dataclass
class EquivalenceWitness:
    """Classes keyed by the first color change after t steps.

    x is classified when f^t(x) exists and has a defined flip vertex;
    two vertices are equivalent when those flip vertices coincide.
    """

    params: WitnessParams
    classes: Partition
    _diameters: tuple | None = field(default=None, init=False,
                                     repr=False, compare=False)

    def diameters(self, g: FunctionalGraph) -> np.ndarray:
        """Class diameters by class id, built once per graph."""
        if self._diameters is None or self._diameters[0] is not g:
            self._diameters = g, class_diameters(g, self.classes)
        return self._diameters[1]


def equivalence_from_coloring(g: FunctionalGraph, cover: CoverWitness,
                              flip: np.ndarray) -> EquivalenceWitness:
    """Key x by f^flip(y)(y) for y = f^t(x), with t the cover's radius
    and ``flip`` its :func:`flip_dists`."""
    y = g.jump(np.arange(g.n), cover.params.t)
    xs = np.flatnonzero(y >= 0)
    xs = xs[flip[y[xs]] >= 0]
    key = np.full(g.n, -1)
    key[xs] = g.jump(y[xs], flip[y[xs]])
    return EquivalenceWitness(cover.params, Partition(key))


def verify_cover_witness(g: FunctionalGraph, witness: CoverWitness,
                         horizon: int | None = None) -> dict:
    """Check interior proximity-class diameters against the bound.

    Classes touching the boundary (any member shallower than the
    horizon) are skipped and counted, never failed.  The sharp bound is
    reported separately so slack in the documented bound stays visible.
    """
    params = witness.params
    if horizon is None:
        horizon = params.verify_depth
    inside = g.interior_mask(horizon)
    report: dict = {
        "bound": params.diameter_bound,
        "sharp_bound": params.sharp_diameter_bound,
        "horizon": horizon,
        "checked_classes": 0,
        "skipped_classes": 0,
        "max_diameter": 0,
        "violations": 0,
        "sharp_violations": 0,
    }
    for cid, diams in witness.classes(g):
        deep = diams[_deep(cid, inside, len(diams))]
        report["checked_classes"] += len(deep)
        report["skipped_classes"] += len(diams) - len(deep)
        report["max_diameter"] = max(report["max_diameter"],
                                     int(deep.max(initial=0)))
        report["violations"] += int(np.count_nonzero(
            deep > params.diameter_bound))
        report["sharp_violations"] += int(np.count_nonzero(
            deep > params.sharp_diameter_bound))
    report["ok"] = report["violations"] == 0
    return report


def verify_eqrel_witness(g: FunctionalGraph, witness: EquivalenceWitness,
                         d: int = 1, horizon: int | None = None) -> dict:
    """Check class diameters and that small balls meet few classes.

    Each classified interior vertex's ball of radius t must meet at most
    d + 1 classes; the counts are exact (:func:`ball_class_counts`).
    """
    if d < 0:
        raise ValueError("d must be >= 0")
    params = witness.params
    t, bound = params.t, params.diameter_bound
    if horizon is None:
        horizon = params.verify_depth + t
    inside = g.interior_mask(horizon)
    cid, diams = witness.classes.id_array(g.n), witness.diameters(g)
    deep = diams[_deep(cid, inside, len(diams))]
    balls = ball_class_counts(g, witness.classes, t)[inside & (cid >= 0)]
    report: dict = {
        "bound": bound,
        "horizon": horizon,
        "checked_classes": len(deep),
        "skipped_classes": len(diams) - len(deep),
        "max_diameter": int(deep.max(initial=0)),
        "diameter_violations": int(np.count_nonzero(deep > bound)),
        "ball_limit": d + 1,
        "checked_balls": len(balls),
        "max_ball_classes": int(balls.max(initial=0)),
        "ball_violations": int(np.count_nonzero(balls > d + 1)),
    }
    report["ok"] = (report["diameter_violations"] == 0
                    and report["ball_violations"] == 0)
    return report


def check_flip_bounds(g: FunctionalGraph, cover: CoverWitness,
                      flip: np.ndarray,
                      horizon: int | None = None) -> dict:
    """Deep vertices are colored and flip within 2 * stripe + 2 steps."""
    params = cover.params
    if horizon is None:
        horizon = params.verify_depth
    inside = g.interior_mask(horizon)
    bit, j = cover.bit[inside], flip[inside]
    j = j[bit >= 0]
    report = {"horizon": horizon, "checked": len(bit),
              "unlabeled": int(np.count_nonzero(bit < 0)),
              "undefined_flips": int(np.count_nonzero(j < 0)),
              "max_flip": int(j.max(initial=0)),
              "violations": int(np.count_nonzero(j > params.flip_bound))}
    report["ok"] = (report["violations"] == 0 and report["unlabeled"] == 0
                    and report["undefined_flips"] == 0)
    return report


def check_anchor_preimages(g: FunctionalGraph, cover: CoverWitness,
                           anchor: np.ndarray,
                           horizon: int | None = None) -> dict:
    """Labeled preimages of an anchor carry the opposite color.

    For every deep vertex x, each colored vertex w with f^j(w) equal to
    the anchor of x for some j <= stripe/3 must have the color 1 -
    bit(x).  Each colored w marks its color on f^0(w), ..., f^(stripe/3)(w).
    """
    params = cover.params
    if horizon is None:
        horizon = params.verify_depth
    succ = g.succ_array
    bit, anc = cover.bit, anchor
    near = np.zeros((2, g.n), dtype=bool)  # near[b, e]: a b-colored preimage
    w = np.flatnonzero(bit >= 0)
    v = w
    for _ in range(min(params.anchor_skip + 1, g.n)):  # orbits repeat by n
        if not len(w):
            break
        near[bit[w], v] = True
        w, v = w[succ[v] >= 0], succ[v[succ[v] >= 0]]
    x = np.flatnonzero(g.interior_mask(horizon) & (anc >= 0) & (bit >= 0))
    report = {"horizon": horizon, "checked": len(x),
              "violations": int(np.count_nonzero(near[bit[x], anc[x]]))}
    report["ok"] = report["violations"] == 0
    return report


def check_class_reaches_anchor(g: FunctionalGraph, witness: CoverWitness,
                               anchor: np.ndarray,
                               horizon: int | None = None) -> dict:
    """Every member of a proximity class walks onto every class anchor.

    The forward walk allowed is one class diameter plus the anchor
    offset; classes with a shallow member or an undefined anchor are
    skipped, and a failing member counts once.  On a forest, z is on
    y's orbit within ``walk`` steps exactly when k = depth(y) - depth(z)
    is in [0, walk] and f^k(y) = z, so every (member, anchor) pair is
    tested at once; as f^j(y) has depth depth(y) - j, clipping k into
    [0, walk] keeps the test exact.  A graph with cycles raises
    ``ValueError``: there depth does not order orbits.
    """
    if not g.acyclic:
        raise ValueError("the reach check requires an acyclic graph")
    params = witness.params
    if horizon is None:
        horizon = params.verify_depth
    depth, anc = g.depth, anchor
    ok = g.interior_mask(horizon) & (anc >= 0)
    walk = (params.diameter_bound + params.anchor_skip
            + params.flip_bound + 2)
    report = {"horizon": horizon, "checked_classes": 0,
              "skipped_classes": 0, "checked_pairs": 0, "violations": 0}
    for cid, diams in witness.classes(g):
        deep = _deep(cid, ok, len(diams))
        report["checked_classes"] += int(np.count_nonzero(deep))
        report["skipped_classes"] += int(np.count_nonzero(~deep))
        ys = np.flatnonzero(cid >= 0)
        ys = ys[deep[cid[ys]]]
        # each class's distinct anchors, as CSR rows by class id
        cls, targets = np.divmod(sorted_unique(cid[ys] * g.n + anc[ys]), g.n)
        indptr = np.r_[0, np.cumsum(np.bincount(cls, minlength=len(diams)))]
        pos, row = csr_rows(indptr, cid[ys])
        y, z = ys[row], targets[pos]
        k = depth[y] - depth[z]
        reached = g.jump(y, k.clip(0, walk)) == z
        report["checked_pairs"] += len(pos)
        report["violations"] += len(sorted_unique(row[~reached]))
    report["ok"] = report["violations"] == 0
    return report


def asdim_pipeline(g: FunctionalGraph, t_values: tuple[int, ...]) -> dict:
    """End-to-end run: greedy hitting set, both witnesses, both reversals.

    Runs each distinct t once, in the order given, and returns a nested
    report keyed by t; the top-level "ok" ands everything.  The
    reverse extractions are re-verified as hitting sets at horizons that
    add the extraction's own horizon to the depth where labels are
    guaranteed to exist.  The equivalence is checked at d = 1.
    """
    if not g.acyclic:
        raise ValueError("the pipeline requires an acyclic graph")
    per_t = {}
    for params in [WitnessParams(t) for t in dict.fromkeys(t_values)]:
        t = params.t
        hs = greedy_hitting(g, params.spacing)
        cover = distance_parity_coloring(g, hs.members, t)
        flip = flip_dists(g, cover)
        anc = anchors(g, params, flip)
        eq = equivalence_from_coloring(g, cover, flip)
        cover_report = verify_cover_witness(g, cover)
        eq_report = verify_eqrel_witness(g, eq)
        flips_report = check_flip_bounds(g, cover, flip)
        anchors_report = check_anchor_preimages(g, cover, anc)
        reach_report = check_class_reaches_anchor(g, cover, anc)

        rev_cover = hitting_from_cover(g, cover.sets[0], t,
                                       cover.classes(g)[0][1])
        depth5 = (params.label_depth + params.flip_bound
                  + rev_cover.horizon + 2)
        rev_cover_ok = (
            is_forward_independent(g, rev_cover.members, t)
            and is_hitting(g, rev_cover.members, depth5))

        rev_eq, eq_extract_report = hitting_from_equivalence(
            g, eq.classes, t, 1, eq.diameters(g))
        depth6 = (params.label_depth + params.flip_bound + t
                  + rev_eq.horizon + 1)
        rev_eq_ok = (
            is_forward_independent(g, rev_eq.members, t)
            and is_hitting(g, rev_eq.members, depth6))

        per_t[t] = {
            "params": {"t": t, "stripe": params.stripe,
                       "spacing": params.spacing},
            "hitting_members": len(hs.members),
            "cover": cover_report,
            "equivalence": eq_report,
            "flips": flips_report,
            "anchor_preimages": anchors_report,
            "class_reaches_anchor": reach_report,
            "reverse_cover": {"members": len(rev_cover.members),
                              "horizon": depth5, "ok": rev_cover_ok},
            "reverse_equivalence": {"members": len(rev_eq.members),
                                    "horizon": depth6, "ok": rev_eq_ok,
                                    "hypothesis": eq_extract_report},
            "ok": all([cover_report["ok"], eq_report["ok"],
                       flips_report["ok"], anchors_report["ok"],
                       reach_report["ok"], rev_cover_ok, rev_eq_ok]),
        }
    return {"t": dict(per_t), "ok": all(r["ok"] for r in per_t.values())}
