import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from funcgraphs.partition import Partition
from oracles import UnionFind


def test_from_classes_round_trip():
    p = oracles.partition_from_classes([{3, 1}, {2}, {0, 4}])
    assert oracles.class_lists(p, 5) == [[0, 4], [1, 3], [2]]
    assert p.num_classes == 3
    assert oracles.same_class(p, 1, 3, 5)
    assert not oracles.same_class(p, 0, 2, 5)


def test_class_ids_follow_least_elements():
    p = oracles.partition_from_classes([{5, 2}, {0, 1, 3}, {4}])
    assert oracles.class_of(p, 3, 6) == 0
    assert oracles.class_of(p, 5, 6) == 1
    assert oracles.class_of(p, 4, 6) == 2


@given(st.integers(0, 40).flatmap(lambda n: st.lists(
    st.integers(-1, 3 * n), min_size=n, max_size=n)))
def test_ids_match_unique_ranking_oracle(labels):
    # labels reach 3 * len, past the element range, as template class
    # ids may
    class_of = np.array(labels, dtype=np.int64)
    assert Partition(class_of).id_array(len(labels)).tolist() == \
        oracles.unique_ranked_ids(class_of).tolist()


def test_overlapping_classes_rejected():
    with pytest.raises(ValueError):
        oracles.partition_from_classes([{0, 1}, {1, 2}])


def test_union_find_basic():
    uf = UnionFind(range(6))
    uf.union(0, 3)
    uf.union(3, 5)
    p = uf.to_partition()
    assert oracles.same_class(p, 0, 5, 6)
    assert not oracles.same_class(p, 0, 1, 6)
    assert oracles.class_of(p, 5, 6) == 0


@given(st.integers(2, 30), st.lists(st.tuples(st.integers(0, 29),
                                              st.integers(0, 29))))
def test_union_find_matches_naive_components(n, pairs):
    pairs = [(a % n, b % n) for a, b in pairs]
    uf = UnionFind(range(n))
    for a, b in pairs:
        uf.union(a, b)
    # naive closure by repeated sweeps
    comp = list(range(n))
    changed = True
    while changed:
        changed = False
        for a, b in pairs:
            lo = min(comp[a], comp[b])
            if comp[a] != lo or comp[b] != lo:
                comp[a] = comp[b] = lo
                changed = True
        for v in range(n):
            if comp[comp[v]] != comp[v]:
                comp[v] = comp[comp[v]]
                changed = True
    p = uf.to_partition()
    for a in range(n):
        for b in range(n):
            assert oracles.same_class(p, a, b, n) == (comp[a] == comp[b])


@given(st.lists(st.sets(st.integers(0, 50), min_size=1), min_size=1))
def test_partition_equality_ignores_class_order(classes):
    seen: set[int] = set()
    cleaned = []
    for cls in classes:
        cls = cls - seen
        if cls:
            cleaned.append(cls)
            seen |= cls
    p = oracles.partition_from_classes(cleaned)
    q = oracles.partition_from_classes(list(reversed(cleaned)))
    assert oracles.same_partition(p, q, 51)
    assert set().union(*oracles.class_lists(p, 51)) == seen


def test_partition_rejects_negative_elements():
    import numpy as np
    with pytest.raises(ValueError):
        oracles.partition_from_classes([{0, -3}])
    with pytest.raises(ValueError):
        Partition(np.array([0, -2, 1]))


def test_partition_reads_a_list_of_ints_as_its_array():
    labels = [-1, 7, 2, 7, -1, 2, 9]
    class_of = np.array(labels)
    assert Partition(labels).id_array(7).tolist() == \
        Partition(class_of).id_array(7).tolist() == [-1, 0, 1, 0, -1, 1, 2]
    assert class_of.tolist() == labels  # the caller's array is not renamed


def test_labels_past_the_element_range_are_ranked_without_a_table():
    # a table by label would need 2^62 entries: such labels are made
    # dense first, and ids still follow least elements
    p = Partition(np.array([2 ** 62, 5, 2 ** 62, -1, 2 ** 61]))
    assert p.id_array(5).tolist() == [0, 1, 0, -1, 2]
