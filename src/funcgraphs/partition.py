"""Partitions of integer vertex sets, used for strong components and
proximity classes."""

from __future__ import annotations

from typing import Sequence

import numpy as np


class Partition:
    """An equivalence relation on a finite set of non-negative ints,
    held as one class-id array: entry x is the class of x, -1 when x is
    not an element.  ``class_of`` is such an array, any labels >= 0,
    read by :func:`funcgraphs.graphs.int_array` (1-d, exact ints).

    Class ids are consecutive ints starting at 0, assigned so that the
    class containing the smallest element gets id 0, the class with the
    smallest element not in class 0 gets id 1, and so on, so two
    partitions of one element set are equal when their id arrays are.
    """

    def __init__(self, class_of: Sequence[int] | np.ndarray):
        from .graphs import int_array, sorted_unique  # graphs imports us
        ids = int_array(class_of, "class ids").copy()
        if (ids < -1).any():
            raise ValueError("class ids must be >= 0, or -1 outside")
        # rank the classes by least element: a table by label holds each
        # least element, once labels past len(ids) are made dense (a sort)
        elems = np.flatnonzero(ids >= 0)
        labels = ids[elems]
        if labels.max(initial=-1) >= len(ids):
            labels = np.searchsorted(sorted_unique(labels), labels)
        least = np.full(len(ids), len(ids))
        np.minimum.at(least, labels, elems)
        first = np.zeros(len(ids), dtype=bool)
        first[least[labels]] = True
        ids[elems] = (np.cumsum(first) - 1)[least[labels]]
        ids.flags.writeable = False
        self._ids = ids

    @property
    def num_classes(self) -> int:
        return int(self._ids.max(initial=-1)) + 1

    def id_array(self, n: int) -> np.ndarray:
        """Class id of each of 0..n-1 as an int array, -1 outside: the
        stored read-only array itself when it has n entries."""
        if n < 0:
            raise ValueError("n must be >= 0")
        if len(self._ids) == n:
            return self._ids
        if (self._ids[n:] >= 0).any():
            raise ValueError(f"partition has elements >= {n}")
        return np.pad(self._ids[:n], (0, max(n - len(self._ids), 0)),
                      constant_values=-1)
