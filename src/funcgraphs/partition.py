"""Partitions of integer vertex sets, used for strong components and
proximity classes."""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np


class Partition:
    """An equivalence relation on a finite set of ints, stored as a map
    from element to class id.

    Class ids are consecutive ints starting at 0, assigned so that the
    class containing the smallest element gets id 0, the class with the
    smallest element not in class 0 gets id 1, and so on.  This makes
    partitions over the same element set comparable by equality.
    """

    def __init__(self, class_of: dict[int, int]):
        # Renumber class ids canonically by least element.
        reps: dict[int, int] = {}
        for x in sorted(class_of):
            cid = class_of[x]
            if cid not in reps:
                reps[cid] = len(reps)
        self._class_of = {x: reps[class_of[x]] for x in class_of}
        self._classes: list[list[int]] | None = None

    @classmethod
    def from_classes(cls, classes: Iterable[Iterable[int]]) -> "Partition":
        class_of: dict[int, int] = {}
        for cid, members in enumerate(classes):
            for x in members:
                if x in class_of:
                    raise ValueError(f"element {x} appears in two classes")
                class_of[x] = cid
        return cls(class_of)

    @property
    def elements(self) -> set[int]:
        return set(self._class_of)

    def __contains__(self, x: int) -> bool:
        return x in self._class_of

    def __len__(self) -> int:
        return self.num_classes

    @property
    def num_classes(self) -> int:
        return len(self.classes())

    def class_id(self, x: int) -> int:
        return self._class_of[x]

    def id_array(self, n: int) -> np.ndarray:
        """Class id of each of 0..n-1 as an int array, -1 outside."""
        ids = np.full(n, -1, dtype=np.int64)
        ids[list(self._class_of)] = list(self._class_of.values())
        return ids

    def same_class(self, x: int, y: int) -> bool:
        return self._class_of[x] == self._class_of[y]

    def classes(self) -> list[list[int]]:
        """Classes as sorted lists, ordered by class id."""
        if self._classes is None:
            by_id: dict[int, list[int]] = {}
            for x, cid in self._class_of.items():
                by_id.setdefault(cid, []).append(x)
            self._classes = [sorted(by_id[c]) for c in sorted(by_id)]
        return self._classes

    def __iter__(self) -> Iterator[list[int]]:
        return iter(self.classes())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self._class_of == other._class_of

    def __repr__(self) -> str:
        return f"Partition({self.num_classes} classes, {len(self._class_of)} elements)"
