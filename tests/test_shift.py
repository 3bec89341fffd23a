import itertools
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

import funcgraphs.shift
import oracles
from funcgraphs.shift import (
    MAX_LENGTH, check_countdown_pairs, countdown_index, dense_window_index,
    gen_increasing_seq, sample_dominated, validate_seq, window_member)
from oracles import shift_seq
from strategies import increasing_seqs


def odds(k):
    return tuple(range(1, 2 * k, 2))


def test_validate_rejects_non_increasing():
    assert validate_seq([0, 2, 5]) == (0, 2, 5)
    with pytest.raises(ValueError):
        validate_seq([0, 2, 2])
    with pytest.raises(ValueError):
        validate_seq([])
    with pytest.raises(ValueError):
        validate_seq([-1, 0])


def test_shift_drops_first_entry():
    assert shift_seq((0, 2, 5)) == (2, 5)
    assert shift_seq((7,)) is None
    y = tuple(range(9))
    for k in range(1, 9):
        z = y
        for _ in range(k):
            z = shift_seq(z)
        assert z == y[k:]


def test_window_member_on_odd_reference():
    x = odds(30)  # 1, 3, 5, ...
    assert window_member(x, (0, 1, 2), 1) is False
    assert window_member(x, (1, 2), 1) is True


def test_window_member_undetermined_without_data():
    x = odds(30)
    # y stops before the window's right endpoint is certain
    assert window_member(x, (0,), 1) is None
    # x too short to even name the window
    assert window_member((1,), (5, 6), 1) is None


def test_countdown_index_steps_to_membership():
    x = odds(7)  # 1, 3, 5, 7, 9, 11, 13
    assert countdown_index(x, (0, 1, 2, 4), 1) == 1


@settings(max_examples=200)
@given(increasing_seqs(max_len=40), increasing_seqs(max_len=25),
       st.integers(1, 3))
def test_window_member_matches_direct_oracle(x, y, r):
    assert window_member(x, y, r) == oracles.window_member_oracle(x, y, r)


def test_dense_window_on_identity_pair():
    x = tuple(range(21))
    assert dense_window_index(x, x, 1) == 1


def test_dense_window_with_even_reference():
    evens = tuple(range(0, 80, 2))
    ident = tuple(range(40))
    assert dense_window_index(evens, ident, 1) == 0
    # The other order never accumulates two evens in a width-2 window,
    # and a finite truncation reports absent rather than a refutation.
    assert dense_window_index(ident, tuple(range(0, 40, 2)), 1) is None


@settings(max_examples=300)
@given(increasing_seqs(max_len=60),
       st.integers(1, 12).flatmap(
           lambda gap: increasing_seqs(max_len=40, max_gap=gap)),
       st.integers(1, 3))
@example(x=odds(10), y=(0, 5), r=1)  # window 1 is never known to be full
@example(x=odds(10), y=(0, 40), r=1)  # x runs out first
def test_dense_window_matches_window_count_oracle(x, y, r):
    assert dense_window_index(x, y, r) == \
        oracles.dense_window_oracle(x, y, r)


def test_dense_window_found_early_on_dominated_pairs():
    for r in (1, 2, 3):
        x = gen_increasing_seq(300, 12)
        for y in sample_dominated(x, 30, 13 + r):
            idx = dense_window_index(x, y, r)
            assert idx is not None
            assert idx <= r
            left = 0 if idx == 0 else x[2 * r * idx - r]
            right = x[2 * r * idx + r]
            assert sum(left <= v < right for v in y) >= 2 * r


def test_dense_window_enables_countdown():
    x = gen_increasing_seq(300, 12)
    for y in sample_dominated(x, 30, 13):
        k = countdown_index(x, y, 2)
        assert k is not None
        z = y
        for _ in range(k):
            z = shift_seq(z)
        assert window_member(x, z, 2) is True


def test_domination_sampling_is_pointwise_bounded():
    x = gen_increasing_seq(120, 3)
    ys = list(sample_dominated(x, 50, 4))
    assert len(ys) == 50
    for y in ys:
        assert len(y) == len(x)
        assert all(a <= b for a, b in zip(y, x))
        validate_seq(y)


def test_sampling_checks_its_arguments_at_the_call():
    x = gen_increasing_seq(20, 3)
    with pytest.raises(ValueError, match="count must be"):
        sample_dominated(x, -1, 4)
    with pytest.raises(ValueError, match="strictly increasing"):
        sample_dominated((3, 1), 2, 4)


@pytest.mark.parametrize("length", [0, MAX_LENGTH + 1, 10 ** 20])
def test_sequence_length_outside_the_cap_is_rejected_before_drawing(
        monkeypatch, length):
    monkeypatch.setattr(funcgraphs.shift.random, "Random", oracles.no_draws)
    with pytest.raises(ValueError, match="length must be in"):
        gen_increasing_seq(length, 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3000), st.integers())
@example(1, 0)
@example(2, 0)
@example(40_000, 3)  # past one 2^14-word bulk read
def test_increasing_seq_replays_the_stdlib_loop(length, seed):
    x = gen_increasing_seq(length, seed)
    assert x == oracles.gen_increasing_seq_loop(length, seed)
    assert all(type(v) is int for v in x)


@st.composite
def dominating_refs(draw):
    """Increasing x with unit gaps, where a packed sample leaves width-1
    windows that ``getrandbits(1)`` rejects half the time, and gaps past
    2^32, whose windows need more than one 32-bit word."""
    start = draw(st.one_of(st.integers(0, 3), st.integers(2**32, 2**40)))
    gaps = draw(st.lists(st.one_of(st.just(1), st.integers(1, 8),
                                   st.integers(2**32, 2**70)), max_size=60))
    return tuple(itertools.accumulate(gaps, initial=start))


@settings(max_examples=200, deadline=None)
@given(dominating_refs(), st.integers(0, 12), st.integers())
@example(tuple(range(50)), 12, 0)  # every window has width 1
@example((0, 1, 2**33, 2**33 + 1, 2**64, 2**64 + 2), 12, 1)
def test_sampling_replays_the_stdlib_randint_loop(x, count, seed):
    ys = list(sample_dominated(x, count, seed))
    assert ys == list(oracles.sample_dominated_loop(x, count, seed))
    assert all(type(v) is int for y in ys for v in y)


def test_identity_dominates_but_shifted_up_does_not():
    x = gen_increasing_seq(50, 7)
    assert all(a <= b for a, b in zip(x, x))
    bumped = tuple(v + 1 for v in x)
    assert not all(a <= b for a, b in zip(bumped, x))


def test_countdown_pairs_clean_on_dominated_samples():
    for r in (1, 2, 3):
        x = gen_increasing_seq(60 * r * r, seed=r)
        ys = sample_dominated(x, 150, seed=10 + r)
        report = check_countdown_pairs(x, ys, r)
        assert report["violations"] == []
        assert report["checked"] > 0
        if report["min_reset"] is not None:
            assert report["min_reset"] >= r


def test_countdown_pairs_observe_resets():
    # shifting a pair to its countdown index makes the next step a reset
    r = 2
    x = gen_increasing_seq(300, seed=21)
    ys = sample_dominated(x, 100, seed=22)
    tails = []
    for y in ys:
        k = countdown_index(x, y, r)
        if k is not None and k > 0 and len(y) > k:
            tails.append(y[k:])
    report = check_countdown_pairs(x, tails, r)
    assert report["violations"] == []
    assert report["resets"] > 0
    assert report["min_reset"] >= r


def test_countdown_pairs_over_the_sample_iterator():
    for r in (1, 2, 3):
        x = gen_increasing_seq(200 * r, seed=50 + r)
        report = check_countdown_pairs(x, sample_dominated(x, 40, 60 + r), r)
        ys = list(sample_dominated(x, 40, 60 + r))
        assert report == check_countdown_pairs(x, ys, r)
        assert report["dense_found"] == 40
        ys += [y[-k:] for y in ys[:10] for k in (1, 2 * r - 1, 2 * r + 5)]
        assert check_countdown_pairs(x, ys, r)["dense_found"] == sum(
            dense_window_index(x, y, r) is not None for y in ys) < len(ys)


def test_countdown_pairs_hold_one_sample_at_a_time():
    x = gen_increasing_seq(20_000, seed=5)
    [one] = sample_dominated(x, 1, 6)
    size = sys.getsizeof(one) + sum(map(sys.getsizeof, one))
    peaks = []
    for count in (4, 16):
        tracemalloc.start()
        try:
            check_countdown_pairs(x, sample_dominated(x, count, 6), 2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < size


def test_countdown_pairs_drop_each_sample_before_the_next_draw():
    # a second sample costs nothing when the first is gone before it is drawn
    x = gen_increasing_seq(20_000, seed=5)
    [one] = sample_dominated(x, 1, 6)
    size = sys.getsizeof(one) + sum(map(sys.getsizeof, one))
    peaks = []
    for count in (1, 2):
        tracemalloc.start()
        try:
            check_countdown_pairs(x, sample_dominated(x, count, 6), 2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < size / 2


def test_countdown_pairs_skip_each_uncertified_side():
    x, r = odds(10), 1  # window ends 3, 7, 11, ...
    # one entry: the shift leaves nothing
    single = (6,)
    # a False verdict at index 0, then an uncertified one at index 1
    stalls = (0, 3, 4)
    assert window_member(x, stalls, r) is False
    assert countdown_index(x, stalls, r) is None
    # a reset (index 0) whose shift is uncertified
    reset = (0, 1, 3)
    assert countdown_index(x, reset, r) == 0
    assert countdown_index(x, reset[1:], r) is None
    for y in (single, stalls, reset):
        report = check_countdown_pairs(x, [y], r)
        assert (report["checked"], report["skipped"]) == (0, 1)
        assert report == oracles.check_countdown_pairs_reference(x, [y], r)


@settings(max_examples=120)
@given(increasing_seqs(max_len=50), increasing_seqs(max_len=40),
       st.integers(1, 3))
def test_countdown_pairs_invariant_pointwise(x, y, r):
    a = countdown_index(x, y, r)
    z = shift_seq(y)
    if a is None or z is None:
        return
    b = countdown_index(x, z, r)
    if b is None:
        return
    if a > 0:
        assert b == a - 1
    else:
        assert b >= r


@settings(max_examples=200)
@given(increasing_seqs(max_len=50),
       st.lists(increasing_seqs(max_len=40), max_size=6), st.integers(1, 3))
def test_countdown_pairs_match_validating_reference(x, ys, r):
    assert check_countdown_pairs(x, ys, r) == \
        oracles.check_countdown_pairs_reference(x, ys, r)


def test_countdown_pairs_on_dominated_samples_match_reference():
    for r in (1, 2, 3):
        x = gen_increasing_seq(300, seed=30 + r)
        ys = list(sample_dominated(x, 60, seed=40 + r))
        ys += [y[k:] for y in ys[:20] for k in (1, 5, 299)]
        assert check_countdown_pairs(x, ys, r) == \
            oracles.check_countdown_pairs_reference(x, ys, r)


@pytest.mark.parametrize("bad", [(0, 2, 2), (3, 1), (), (-1, 0)])
def test_public_queries_reject_non_increasing_input(bad):
    good = odds(10)
    calls = [lambda: window_member(good, bad, 1),
             lambda: window_member(bad, (1, 2), 1),
             lambda: countdown_index(good, bad, 1),
             lambda: countdown_index(bad, (1, 2), 1),
             lambda: dense_window_index(good, bad, 1),
             lambda: check_countdown_pairs(good, [(1, 2), bad], 1),
             lambda: check_countdown_pairs(bad, [(1, 2)], 1)]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_spacing_below_one_rejected_when_a_window_is_needed():
    x = odds(10)
    for call in (lambda: window_member(x, (1, 2), 0),
                 lambda: countdown_index(x, (1, 2), 0),
                 lambda: dense_window_index(x, (1, 2), 0),
                 lambda: check_countdown_pairs(x, [(1, 2)], 0)):
        with pytest.raises(ValueError, match="r must be"):
            call()


def test_countdown_pairs_report_a_broken_step(monkeypatch):
    # a reset (countdown 0) whose shift counts down from below r breaks
    # the step-down, and the report names the pair by the sample's head
    monkeypatch.setattr(funcgraphs.shift, "_countdown_index",
                        lambda ends, y, r, lo=0: 0)
    x = gen_increasing_seq(200, 0)
    y = x[5:]
    report = check_countdown_pairs(x, [y], 2)
    assert report["ok"] is False
    assert report["violations"] == [(y[0], 0, 0)]
