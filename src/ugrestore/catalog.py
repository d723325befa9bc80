"""Column bookkeeping for the restoration model.

Every decision symbol gets a named group of columns with recorded kind and
bounds.  A group is the product of labelled axes (nodes, lines,
switchgears, microgrids, periods, phases, variants): its key is one label
per axis, a tuple of them when there are two or more axes, and its columns
run over the product in C order, so a column, its key and its name
``group[label,label,...]`` follow from each other by arithmetic.  A name
shows each label as ``str(label)``; that text must be non-empty and hold no
``,``, ``[``, ``]``, whitespace or control character, so every name reads
back to its column.  Symbols eliminated algebraically from the row system
(for example the Q-factor, which the gate encodes through a load
threshold) have no columns; the plan reports them from the solution.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

# what a label's text may not hold: the name's separators, whitespace and
# control characters (the name map's lines drop a NUL byte)
_UNNAMEABLE = re.compile(r"[\s,\[\]\x00-\x1f\x7f-\x9f]")


class CatalogError(KeyError):
    pass


def unnameable(text: str) -> bool:
    """Whether ``text`` cannot be a label in a column name."""
    return not text or _UNNAMEABLE.search(text) is not None


@dataclass(frozen=True)
class Group:
    name: str
    start: int
    axes: tuple[tuple, ...]  # the labels of each axis
    binary: bool
    texts: tuple[tuple[str, ...], ...] = field(init=False)  # the label texts of each axis
    _pos: tuple[dict, ...] = field(init=False, repr=False)  # per axis: label -> position
    _text_pos: tuple[dict, ...] = field(init=False, repr=False)  # per axis: label text -> position

    def __post_init__(self) -> None:
        texts = tuple(tuple(map(str, labels)) for labels in self.axes)
        pos = tuple({label: i for i, label in enumerate(a)} for a in self.axes)
        text_pos = tuple({text: i for i, text in enumerate(a)} for a in texts)
        for axis_texts, index, text_index in zip(texts, pos, text_pos):
            bad = next(filter(unnameable, axis_texts), None)
            if bad is not None:
                raise CatalogError(f"{self.name}: label {bad!r} cannot be part of a column name")
            if not len(index) == len(text_index) == len(axis_texts):
                raise CatalogError(f"{self.name}: a label repeats on one axis")
        object.__setattr__(self, "texts", texts)
        object.__setattr__(self, "_pos", pos)
        object.__setattr__(self, "_text_pos", text_pos)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(map(len, self.axes))

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @property
    def grid(self) -> np.ndarray:
        """The group's columns as an array of its shape."""
        return self.start + np.arange(self.size).reshape(self.shape)

    def col(self, key) -> int:
        parts = key if isinstance(key, tuple) and len(self.axes) > 1 else (key,)
        return self.start + self._offset(parts, self._pos, key)

    def cols(self, keys) -> np.ndarray:
        """The columns of ``keys``, given as one sequence of labels per axis."""
        try:
            if len(keys) != len(self.axes):
                raise KeyError
            at = [np.fromiter(map(pos.__getitem__, seq), np.int64, len(seq)) for pos, seq in zip(self._pos, keys)]
        except (KeyError, TypeError):
            for key in zip(*keys):
                self.col(key if len(key) > 1 else key[0])  # names the first key with no column
            raise CatalogError(f"{self.name}: keys of {len(keys)} labels for {len(self.axes)} axes") from None
        return self.start + np.ravel_multi_index(at, self.shape)

    def _offset(self, parts, index: tuple[dict, ...], key) -> int:
        """The position in the product of one label (or label text) per axis."""
        at = 0
        try:
            if len(parts) != len(index):
                raise KeyError
            for pos, part in zip(index, parts):
                at = at * len(pos) + pos[part]
        except (KeyError, TypeError):
            raise CatalogError(f"{self.name}: no column for key {key!r}") from None
        return at


class VariableCatalog:
    def __init__(self) -> None:
        self._groups: dict[str, Group] = {}
        self._order: list[str] = []
        self._starts: list[int] = []  # group starts, in catalog order
        self._lb: list[np.ndarray] = []  # per group
        self._ub: list[np.ndarray] = []
        self._binary: list[bool] = []  # per group
        self._fixes: list[tuple[np.ndarray, float]] = []  # in the order made
        self._ncols = 0
        self._finalized = False

    @property
    def ncols(self) -> int:
        return self._ncols

    @property
    def group_names(self) -> list[str]:
        return list(self._order)

    def add_group(self, name: str, *axes, binary: bool = False, lb=0.0, ub=1.0) -> Group:
        """Register the product of ``axes``, each a sequence of labels, as a block of columns.

        ``lb``/``ub`` may be scalars, sequences in column order or arrays
        that broadcast to the group's shape.
        """
        if self._finalized:
            raise CatalogError("catalog already finalized")
        if name in self._groups:
            raise CatalogError(f"duplicate symbol {name!r}")
        if not axes:
            raise CatalogError(f"{name}: a group needs at least one axis")
        g = Group(name=name, start=self.ncols, axes=tuple(map(tuple, axes)), binary=binary)
        for bounds, bound in ((self._lb, lb), (self._ub, ub)):
            a = np.asarray(bound, dtype=float)
            bounds.append((a if a.size == g.size else np.broadcast_to(a, g.shape)).reshape(-1).copy())
        self._binary.append(binary)
        self._ncols += g.size
        self._groups[name] = g
        self._order.append(name)
        self._starts.append(g.start)
        return g

    def group(self, name: str) -> Group:
        try:
            return self._groups[name]
        except KeyError:
            raise CatalogError(f"unknown group {name!r}") from None

    def has_group(self, name: str) -> bool:
        return name in self._groups

    def col(self, name: str, key) -> int:
        return self.group(name).col(key)

    def fix(self, cols, value: float) -> None:
        """Fix column ``cols`` (an int or an array of them) at ``value``; a later fix wins."""
        if self._finalized:
            raise CatalogError("catalog already finalized")
        self._fixes.append((np.asarray(cols, dtype=np.int64), float(value)))

    def finalize(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        self._finalized = True
        lb = np.concatenate([np.zeros(0), *self._lb])
        ub = np.concatenate([np.zeros(0), *self._ub])
        for cols, value in self._fixes:
            lb[cols] = ub[cols] = value
        sizes = [self._groups[name].size for name in self._order]
        return lb, ub, np.repeat(np.array(self._binary, dtype=bool), sizes)

    def name_of(self, col: int) -> str:
        if not 0 <= col < self.ncols:
            raise CatalogError(f"column {col} out of range")
        # the last group starting at or before ``col``; empty groups share
        # their start with the next group and sort before it
        g = self._groups[self._order[bisect_right(self._starts, col) - 1]]
        at, texts = col - g.start, []
        for axis_texts in reversed(g.texts):
            at, i = divmod(at, len(axis_texts))
            texts.append(axis_texts[i])
        return f"{g.name}[{','.join(reversed(texts))}]"

    def lookup(self, name: str) -> int:
        """Inverse of :meth:`name_of` for solution-file import: each part is matched against its axis's label texts."""
        if "[" not in name or not name.endswith("]"):
            raise CatalogError(f"malformed column name {name!r}")
        gname, _, inner = name[:-1].partition("[")
        g = self.group(gname)
        return g.start + g._offset(inner.split(","), g._text_pos, inner)
