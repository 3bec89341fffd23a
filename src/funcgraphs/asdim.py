"""Two-set covers and bounded equivalence relations on acyclic graphs.

Everything here works with a forward-independent hitting set on a
sinks-included acyclic functional graph.  A parity coloring derived
from distances to the hitting set splits the labeled vertices into two
sets whose proximity classes at radius t have diameter O(t); the same
data yields an equivalence relation with O(t)-diameter classes such
that every radius-t ball meets at most two of them.  Reverse
extractions (see :mod:`funcgraphs.hitting`) recover hitting sets from
either witness, closing the loop.

All labelings are truncation-honest: a vertex gets a value exactly when
the forward data the formula consumes exists inside the graph, and the
verifiers restrict their assertions to vertices far enough from the
sinks that definedness is guaranteed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import FunctionalGraph, class_diameters, proximity_classes
from .hitting import HittingSet, greedy_hitting, hitting_from_cover, \
    hitting_from_equivalence, is_forward_independent, is_hitting
from .partition import Partition


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


@dataclass(frozen=True)
class WitnessParams:
    """Scale constants tied to a radius t.

    ``stripe`` is the parity stripe width (6t) and ``spacing`` the
    hitting-set spacing (4 * stripe**2).  The interval decomposition
    splits {0, ..., spacing/2 - 1} into stripe-1 pieces of size stripe
    followed by stripe pieces of size stripe+1.
    """

    t: int

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ValueError("t must be >= 1")

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
        """Tighter bound the construction actually achieves."""
        return 28 * self.t + 4

    @property
    def label_depth(self) -> int:
        """Depth beyond which colors are always defined."""
        return self.spacing + self.half + self.stripe

    @property
    def verify_depth(self) -> int:
        """Depth beyond which colors, flips and anchors all exist."""
        return self.label_depth + self.flip_bound + self.anchor_skip + self.t

    def intervals(self) -> list[range]:
        return stripe_intervals(self.stripe)

    def interval_index(self) -> list[int]:
        """Interval number for each point of {0, ..., half - 1}."""
        s = self.stripe
        cut = s * (s - 1)
        idx = []
        for p in range(self.half):
            if p < cut:
                idx.append(p // s)
            else:
                idx.append((s - 1) + (p - cut) // (s + 1))
        return idx


@dataclass
class ParityColoring:
    """Distance-derived two-coloring of the deep part of a graph.

    ``dist[x]`` is the least k >= 1 with f^k(x) a member (None when the
    orbit runs out first) and ``landing[x]`` that member.  ``bit[x]``
    is the color: for dist >= spacing/2 it is the parity of
    dist // stripe; below spacing/2 the color of the landing member z
    decides, either reusing the stripe parity (z colored 0) or flipping
    the parity of the interval containing dist (z colored 1).
    """

    params: WitnessParams
    members: frozenset[int]
    dist: list[int | None]
    landing: list[int | None]
    bit: list[int | None]

    def labeled(self) -> list[int]:
        return [x for x in range(len(self.bit)) if self.bit[x] is not None]


def distance_parity_coloring(g: FunctionalGraph,
                             members: frozenset[int] | set[int],
                             t: int) -> ParityColoring:
    """Build the parity coloring for a spacing-independent member set."""
    params = WitnessParams(t)
    if not g.acyclic:
        raise ValueError("parity coloring requires an acyclic graph")
    if not is_forward_independent(g, members, params.spacing):
        raise ValueError(
            f"member set is not {params.spacing}-forward-independent")
    n = g.n
    s = params.stripe
    half = params.half
    idx_of = params.interval_index()
    dist: list[int | None] = [None] * n
    landing: list[int | None] = [None] * n
    bit: list[int | None] = [None] * n
    for x in g.tree_order():
        nxt = g.succ[x]
        if nxt is None:
            continue
        if nxt in members:
            dist[x] = 1
            landing[x] = nxt
        elif dist[nxt] is not None:
            dist[x] = dist[nxt] + 1
            landing[x] = landing[nxt]
        k = dist[x]
        if k is None:
            continue
        if k >= half:
            bit[x] = (k // s) % 2
        else:
            z = landing[x]
            assert z is not None
            zbit = bit[z]
            if zbit is None:
                continue
            if zbit == 0:
                bit[x] = (k // s) % 2
            else:
                bit[x] = (idx_of[k] + 1) % 2
    return ParityColoring(params, frozenset(members), dist, landing, bit)


def flip_dists(g: FunctionalGraph, coloring: ParityColoring) -> list[int | None]:
    """Least j >= 1 with a different color at f^j(x), per vertex.

    Colors become undefined only along orbit suffixes, so propagating
    None through the recursion matches the scan definition.
    """
    n = g.n
    bit = coloring.bit
    flip: list[int | None] = [None] * n
    for x in g.tree_order():
        if bit[x] is None:
            continue
        nxt = g.succ[x]
        if nxt is None or bit[nxt] is None:
            continue
        if bit[nxt] != bit[x]:
            flip[x] = 1
        elif flip[nxt] is not None:
            flip[x] = flip[nxt] + 1
    return flip


def anchors(g: FunctionalGraph, params: WitnessParams,
            flip: list[int | None]) -> list[int | None]:
    """Anchor vertex f^(stripe/3 + flip(x))(x), per vertex."""
    skip = params.anchor_skip
    return [g.iterate(x, skip + j) if j is not None else None
            for x, j in enumerate(flip)]


@dataclass
class CoverWitness:
    """Two-set cover of the labeled vertices by color."""

    coloring: ParityColoring
    sets: tuple[frozenset[int], frozenset[int]]

    @property
    def params(self) -> WitnessParams:
        return self.coloring.params


def cover_from_hitting(g: FunctionalGraph,
                       members: frozenset[int] | set[int],
                       t: int) -> CoverWitness:
    coloring = distance_parity_coloring(g, members, t)
    u0 = frozenset(x for x, b in enumerate(coloring.bit) if b == 0)
    u1 = frozenset(x for x, b in enumerate(coloring.bit) if b == 1)
    return CoverWitness(coloring, (u0, u1))


@dataclass
class EquivalenceWitness:
    """Classes keyed by the first color change after t steps.

    x is classified when f^t(x) exists and has a defined flip vertex;
    two vertices are equivalent when those flip vertices coincide.
    """

    coloring: ParityColoring
    classes: Partition
    key: dict[int, int] = field(repr=False)

    @property
    def params(self) -> WitnessParams:
        return self.coloring.params


def equivalence_from_hitting(g: FunctionalGraph,
                             members: frozenset[int] | set[int],
                             t: int) -> EquivalenceWitness:
    coloring = distance_parity_coloring(g, members, t)
    flip = flip_dists(g, coloring)
    key: dict[int, int] = {}
    for x in range(g.n):
        y = g.iterate(x, t)
        if y is None or flip[y] is None:
            continue
        target = g.iterate(y, flip[y])
        assert target is not None
        key[x] = target
    buckets: dict[int, list[int]] = {}
    for x, v in key.items():
        buckets.setdefault(v, []).append(x)
    classes = Partition.from_classes(buckets.values())
    return EquivalenceWitness(coloring, classes, key)


def verify_cover_witness(g: FunctionalGraph, witness: CoverWitness,
                         horizon: int | None = None) -> dict:
    """Check interior proximity-class diameters against the bound.

    Classes touching the boundary (any member shallower than the
    horizon) are skipped and counted, never failed.  The sharp bound is
    reported separately so slack in the documented bound stays visible.
    """
    params = witness.params
    t = params.t
    if horizon is None:
        horizon = params.verify_depth
    inside = g.interior(horizon)
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
    for u in witness.sets:
        classes = proximity_classes(g, u, t)
        diams = class_diameters(g, classes)
        for cls, diam in zip(classes.classes(), diams):
            if not all(x in inside for x in cls):
                report["skipped_classes"] += 1
                continue
            report["checked_classes"] += 1
            report["max_diameter"] = max(report["max_diameter"], diam)
            if diam > params.diameter_bound:
                report["violations"] += 1
            if diam > params.sharp_diameter_bound:
                report["sharp_violations"] += 1
    report["ok"] = report["violations"] == 0
    return report


def verify_eqrel_witness(g: FunctionalGraph, witness: EquivalenceWitness,
                         d: int = 1, diameter_bound: int | None = None,
                         horizon: int | None = None) -> dict:
    """Check class diameters and that small balls meet few classes."""
    params = witness.params
    t = params.t
    if horizon is None:
        horizon = params.verify_depth + t
    if diameter_bound is None:
        diameter_bound = params.diameter_bound
    inside = g.interior(horizon)
    classes = witness.classes
    diams = class_diameters(g, classes)
    report: dict = {
        "bound": diameter_bound,
        "horizon": horizon,
        "checked_classes": 0,
        "skipped_classes": 0,
        "max_diameter": 0,
        "diameter_violations": 0,
        "ball_limit": d + 1,
        "checked_balls": 0,
        "max_ball_classes": 0,
        "ball_violations": 0,
    }
    for cls, diam in zip(classes.classes(), diams):
        if not all(x in inside for x in cls):
            report["skipped_classes"] += 1
            continue
        report["checked_classes"] += 1
        report["max_diameter"] = max(report["max_diameter"], diam)
        if diam > diameter_bound:
            report["diameter_violations"] += 1
    for x in inside:
        if x not in classes:
            continue
        seen = {classes.class_id(y) for y in g.ball(x, t) if y in classes}
        report["checked_balls"] += 1
        report["max_ball_classes"] = max(report["max_ball_classes"], len(seen))
        if len(seen) > d + 1:
            report["ball_violations"] += 1
    report["ok"] = (report["diameter_violations"] == 0
                    and report["ball_violations"] == 0)
    return report


def check_flip_bounds(g: FunctionalGraph, coloring: ParityColoring,
                      flip: list[int | None],
                      horizon: int | None = None) -> dict:
    """Deep vertices are colored and flip within 2 * stripe + 2 steps."""
    params = coloring.params
    if horizon is None:
        horizon = params.verify_depth
    inside = g.interior(horizon)
    report = {"horizon": horizon, "checked": 0, "unlabeled": 0,
              "undefined_flips": 0, "max_flip": 0, "violations": 0}
    for x in inside:
        report["checked"] += 1
        if coloring.bit[x] is None:
            report["unlabeled"] += 1
            continue
        j = flip[x]
        if j is None:
            report["undefined_flips"] += 1
            continue
        report["max_flip"] = max(report["max_flip"], j)
        if j > params.flip_bound:
            report["violations"] += 1
    report["ok"] = (report["violations"] == 0 and report["unlabeled"] == 0
                    and report["undefined_flips"] == 0)
    return report


def check_anchor_preimages(g: FunctionalGraph, coloring: ParityColoring,
                           anchor: list[int | None],
                           horizon: int | None = None) -> dict:
    """Labeled preimages of an anchor carry the opposite color.

    For every deep vertex x, each colored vertex w with f^j(w) equal to
    the anchor of x for some j <= stripe/3 must have the color 1 -
    bit(x).  Preimage color sets are memoized per anchor vertex.
    """
    params = coloring.params
    if horizon is None:
        horizon = params.verify_depth
    inside = g.interior(horizon)
    preds = g.predecessors()
    skip = params.anchor_skip
    bit = coloring.bit
    cache: dict[int, set[int]] = {}

    def preimage_bits(e: int) -> set[int]:
        if e in cache:
            return cache[e]
        seen = {b for b in (bit[e],) if b is not None}
        frontier = [e]
        for _ in range(skip):
            nxt: list[int] = []
            for v in frontier:
                for w in preds[v]:
                    nxt.append(w)
                    if bit[w] is not None:
                        seen.add(bit[w])
            frontier = nxt
        cache[e] = seen
        return seen

    report = {"horizon": horizon, "checked": 0, "violations": 0}
    for x in inside:
        e = anchor[x]
        if e is None or bit[x] is None:
            continue
        report["checked"] += 1
        if bit[x] in preimage_bits(e):
            report["violations"] += 1
    report["ok"] = report["violations"] == 0
    return report


def check_class_reaches_anchor(g: FunctionalGraph, witness: CoverWitness,
                               anchor: list[int | None],
                               horizon: int | None = None) -> dict:
    """Every member of a proximity class walks onto every class anchor.

    The forward walk allowed is one class diameter plus the anchor
    offset; classes with any shallow member are skipped.
    """
    params = witness.params
    t = params.t
    if horizon is None:
        horizon = params.verify_depth
    inside = g.interior(horizon)
    walk = (params.diameter_bound + params.anchor_skip
            + params.flip_bound + 2)
    report = {"horizon": horizon, "checked_classes": 0,
              "skipped_classes": 0, "checked_pairs": 0, "violations": 0}
    for u in witness.sets:
        classes = proximity_classes(g, u, t)
        for cls in classes.classes():
            if not all(x in inside for x in cls):
                report["skipped_classes"] += 1
                continue
            targets = {anchor[x] for x in cls}
            if None in targets:
                report["skipped_classes"] += 1
                continue
            report["checked_classes"] += 1
            for y in cls:
                reached = set(g.forward_orbit(y, walk + 1))
                report["checked_pairs"] += len(targets)
                if not targets <= reached:
                    report["violations"] += 1
    report["ok"] = report["violations"] == 0
    return report


def asdim_pipeline(g: FunctionalGraph, t_values: tuple[int, ...] = (1, 2),
                   d: int = 1) -> dict:
    """End-to-end run: greedy hitting set, both witnesses, both reversals.

    Returns a nested report; the top-level "ok" ands everything.  The
    reverse extractions are re-verified as hitting sets at horizons that
    add the extraction's own horizon to the depth where labels are
    guaranteed to exist.
    """
    if not g.acyclic:
        raise ValueError("the pipeline requires an acyclic graph")
    per_t = {}
    for t in t_values:
        params = WitnessParams(t)
        hs = greedy_hitting(g, params.spacing)
        cover = cover_from_hitting(g, hs.members, t)
        flip = flip_dists(g, cover.coloring)
        anc = anchors(g, params, flip)
        eq = equivalence_from_hitting(g, hs.members, t)
        cover_report = verify_cover_witness(g, cover)
        eq_report = verify_eqrel_witness(g, eq, d=d)
        flips_report = check_flip_bounds(g, cover.coloring, flip)
        anchors_report = check_anchor_preimages(g, cover.coloring, anc)
        reach_report = check_class_reaches_anchor(g, cover, anc)

        rev_cover = hitting_from_cover(g, cover.sets[0], t)
        depth5 = (params.label_depth + params.flip_bound
                  + rev_cover.horizon + 2)
        rev_cover_ok = (
            is_forward_independent(g, rev_cover.members, t)
            and is_hitting(g, rev_cover.members, depth5))

        rev_eq, eq_extract_report = hitting_from_equivalence(
            g, eq.classes, t, d)
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
