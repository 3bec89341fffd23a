"""Partitions of integer vertex sets, used for strong components and
proximity classes."""

from __future__ import annotations

import numpy as np


class Partition:
    """An equivalence relation on a finite set of non-negative ints,
    held as one class-id array: entry x is the class of x, -1 when x is
    not an element.  ``class_of`` is such an array, any labels >= 0.

    Class ids are consecutive ints starting at 0, assigned so that the
    class containing the smallest element gets id 0, the class with the
    smallest element not in class 0 gets id 1, and so on.  This makes
    partitions over the same element set comparable by equality.
    """

    def __init__(self, class_of: np.ndarray):
        ids = class_of.astype(np.int64)
        if (ids < -1).any():
            raise ValueError("class ids must be >= 0, or -1 outside")
        # rank the classes by least element, with no sort: a table by
        # label (labels may exceed len(ids)) holds each least element
        elems = np.flatnonzero(ids >= 0)
        labels = ids[elems]
        least = np.full(int(labels.max(initial=-1)) + 1, len(ids))
        np.minimum.at(least, labels, elems)
        first = np.zeros(len(ids), dtype=bool)
        first[least[labels]] = True
        ids[elems] = (np.cumsum(first) - 1)[least[labels]]
        ids.flags.writeable = False
        self._ids, self._classes = ids, None

    def __contains__(self, x: int) -> bool:
        return 0 <= x < len(self._ids) and bool(self._ids[x] >= 0)

    @property
    def num_classes(self) -> int:
        return int(self._ids.max(initial=-1)) + 1

    def class_id(self, x: int) -> int:
        if x not in self:
            raise KeyError(x)
        return int(self._ids[x])

    def id_array(self, n: int) -> np.ndarray:
        """Class id of each of 0..n-1 as an int array, -1 outside: the
        stored read-only array itself when it has n entries."""
        if len(self._ids) == n:
            return self._ids
        if (self._ids[n:] >= 0).any():
            raise ValueError(f"partition has elements >= {n}")
        return np.pad(self._ids[:n], (0, max(n - len(self._ids), 0)),
                      constant_values=-1)

    def classes(self) -> list[list[int]]:
        """Classes as sorted lists, ordered by class id."""
        if self._classes is None:
            elems = np.flatnonzero(self._ids >= 0)
            labels = self._ids[elems]
            flat = elems[np.argsort(labels, kind="stable")].tolist()
            ends = np.cumsum(np.bincount(labels)).tolist()
            self._classes = [flat[a:b] for a, b in zip([0] + ends, ends)]
        return self._classes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        n = max(len(self._ids), len(other._ids))
        return np.array_equal(self.id_array(n), other.id_array(n))

    def __repr__(self) -> str:
        return (f"Partition({self.num_classes} classes, "
                f"{np.count_nonzero(self._ids >= 0)} elements)")
