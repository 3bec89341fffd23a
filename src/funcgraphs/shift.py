"""Finite truncations of increasing sequences under the shift map.

A strictly increasing sequence of naturals stands in for an infinite
subset; dropping the first element is the shift.  Against a fixed
reference sequence x, the half-open windows

    [x(2rn - r), x(2rn + r))      n = 0, 1, 2, ...   (x(j) = 0 for j < 0)

partition the naturals, and a sequence y is a window member when the
count of y inside the first window meeting y is divisible by 2r.  The
countdown index of y is the number of shifts until window membership
holds.  With finite data all three queries are three-valued: None means
the truncation cannot certify an answer, and certified answers never
change when the sequences are extended.

:func:`check_countdown_pairs` reads its sequences once, in turn: one
countdown scan answers both sides of a pair, and the same pass counts
``dense_found``.  :func:`sample_dominated` yields one sample at a time,
so a request's memory does not grow with the sample count, and
:func:`gen_increasing_seq` draws at most MAX_LENGTH entries.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator
import operator
import random

import numpy as np

from .graphs import _randbelow_bulk

Seq = tuple[int, ...]
# A `shift` request peaks at about 29 MB plus 125 MB per million entries
# (measured up to 3 * 10^6): about 1.3 GB at this length.
MAX_LENGTH = 10 ** 7
_BLOCK = 1 << 12  # entries drawn per bulk read in gen_increasing_seq


def validate_seq(xs) -> Seq:
    """Coerce to a tuple, requiring strictly increasing naturals."""
    out = tuple(xs)
    if not out:
        raise ValueError("sequence must be nonempty")
    if out[0] < 0:
        raise ValueError("sequence values must be >= 0")
    if not all(map(operator.lt, out, out[1:])):
        raise ValueError("sequence must be strictly increasing")
    return out


def _reference(x, r: int) -> Seq:
    """The right ends x(r), x(3r), x(5r), ... of the windows; window n's
    left end is entry n - 1 (0 for window 0)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return validate_seq(x)[r::2 * r]


def window_member(x, y, r: int) -> bool | None:
    """Is the count of y in its first window divisible by 2r?

    The first window is the one containing y's least element.  The
    answer needs that window's right endpoint (an entry of x) and the
    window's full contents (y known through right - 1); otherwise None.
    """
    return _window_member(_reference(x, r), validate_seq(y), r)


def _window_member(ends: Seq, y: Seq, r: int, lo: int = 0) -> bool | None:
    """:func:`window_member` of y[lo:] against the window ends."""
    n = bisect_right(ends, y[lo])  # y[lo] lies in window n
    if n == len(ends) or y[-1] < ends[n] - 1:
        return None
    return (bisect_left(y, ends[n], lo) - lo) % (2 * r) == 0


def countdown_index(x, y, r: int) -> int | None:
    """Shifts until window membership; None when data runs out first."""
    return _countdown_index(_reference(x, r), validate_seq(y), r)


def _countdown_index(ends: Seq, y: Seq, r: int, lo: int = 0) -> int | None:
    """:func:`countdown_index` of y[lo:] against the window ends."""
    for k in range(lo, len(y)):
        verdict = _window_member(ends, y, r, k)
        if verdict is None:
            return None
        if verdict:
            return k - lo
    return None


def dense_window_index(x, y, r: int) -> int | None:
    """Least n whose window certifiably holds at least 2r points of y.

    A window certifies the bound as soon as 2r known points land in it;
    certifying that an earlier window fails needs its full contents.
    """
    return _dense_window_index(_reference(x, r), validate_seq(y), r)


def _dense_window_index(ends: Seq, y: Seq, r: int) -> int | None:
    """:func:`dense_window_index` of y against the window ends."""
    start = 0  # index in y of window n's first point
    for n, right in enumerate(ends):
        stop = bisect_left(y, right, start)
        if stop - start >= 2 * r:
            return n
        if y[-1] < right - 1:
            return None
        start = stop
    return None


def check_countdown_pairs(x, ys, r: int) -> dict:
    """Edge invariant of the countdown over sequences read once, in turn.

    For each y the pair (countdown(y), countdown(shift y)) must step
    down by one, or reset to at least r after a zero.  Pairs with an
    uncertified side are skipped, never failed.  ``dense_found`` counts
    the y whose :func:`dense_window_index` is certified.
    """
    ends = _reference(x, r)
    report: dict = {"checked": 0, "skipped": 0, "violations": [],
                    "resets": 0, "min_reset": None, "dense_found": 0}
    for y in ys:
        y = validate_seq(y)
        report["dense_found"] += _dense_window_index(ends, y, r) is not None
        # Past index 0 the scan from 1 meets the scan from 0's verdicts: it
        # ends at a - 1, or uncertified too.  Only a reset (a = 0) rescans.
        a = _countdown_index(ends, y, r)
        b = (None if a is None else a - 1 if a > 0
             else _countdown_index(ends, y, r, 1))
        head, y = y[0], None  # drop the sample before the next is drawn
        if b is None:
            report["skipped"] += 1
            continue
        report["checked"] += 1
        if a == 0:
            report["resets"] += 1
            if report["min_reset"] is None or b < report["min_reset"]:
                report["min_reset"] = b
        if (b != a - 1) if a > 0 else (b < r):
            report["violations"].append((head, a, b))
    report["ok"] = not report["violations"]
    return report


def gen_increasing_seq(length: int, seed: int) -> Seq:
    """Random increasing sequence: start in [0, 2], gaps in [1, 3].

    The stdlib draws ``randint(0, 2)``, then ``randint(1, 3)`` per gap:
    each is ``randrange(3)`` plus its low end, so the draws are replayed
    in bulk, a block at a time.  Blocks keep numpy's temporaries under
    glibc's 128 KiB mmap threshold: freeing a larger one raises that
    threshold, and the lists of a ``shift`` request then peak higher.
    """
    if not 1 <= length <= MAX_LENGTH:
        raise ValueError(f"length must be in [1, {MAX_LENGTH}]")
    rng, vals, last = random.Random(seed), [], -1
    for lo in range(0, length, _BLOCK):
        gaps = _randbelow_bulk(rng, np.full(min(_BLOCK, length - lo), 3)) + 1
        vals += (np.cumsum(gaps) + last).tolist()
        last = vals[-1]
    return tuple(vals)


def sample_dominated(x, count: int, seed: int) -> Iterator[Seq]:
    """Sequences pointwise at most x, same length, mixed densities.

    Each output y satisfies y(i) <= x(i) with y(i) chosen in
    [y(i-1) + 1, x(i)]: either always minimal (packed), always uniform,
    or switching between the two, so both dense and straggling
    sequences appear.  ``count`` and x are checked at the call; the
    samples are drawn and yielded one at a time.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return _dominated(validate_seq(x), count, random.Random(seed))


def _dominated(x: Seq, count: int, rng: random.Random) -> Iterator[Seq]:
    """The draws of ``rng.randint(lo, hi)`` per entry, replayed inline:
    CPython's ``_randbelow`` draws ``getrandbits(w.bit_length())`` for
    the width w = hi - lo + 1 until the draw is below w."""
    getrandbits, random_ = rng.getrandbits, rng.random
    for _ in range(count):
        mode = rng.choice(("min", "uniform", "mixed"))
        if mode == "min":  # draws nothing
            yield tuple(range(len(x)))
            continue
        mixed, vals, lo = mode == "mixed", [], 0
        for hi in x:  # lo <= hi, since y(i-1) <= x(i-1) < x(i)
            if mixed and random_() < 0.5:
                v = lo
            else:
                w = hi - lo + 1
                k = w.bit_length()
                r = getrandbits(k)
                while r >= w:
                    r = getrandbits(k)
                v = lo + r
            vals.append(v)
            lo = v + 1
        yield tuple(vals)
