"""A history that counts how many of its records a caller touched."""

from collections.abc import Sequence


class CountingSequence(Sequence):
    """Wraps a list; ``touched`` is the number of records handed out, by
    index, slice or iteration. Slices come back as plain lists, as a list's
    own do."""

    def __init__(self, items):
        self._items = list(items)
        self.touched = 0

    def __len__(self):
        return len(self._items)

    def __getitem__(self, index):
        got = self._items[index]
        self.touched += len(got) if isinstance(index, slice) else 1
        return got
