"""Column bookkeeping for the restoration model.

Every decision symbol gets a named group of columns with recorded kind and
bounds.  Symbols eliminated algebraically from the row system (for example
the Q-factor, which the gate encodes through a load threshold) have no
columns; the plan reports them from the solution.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import repeat, starmap

import numpy as np


class CatalogError(KeyError):
    pass


def _label(group: str, key) -> str:
    inner = ",".join(map(str, key)) if isinstance(key, tuple) else str(key)
    return f"{group}[{inner}]"


@dataclass
class Group:
    name: str
    start: int
    keys: list
    binary: bool
    key_index: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.keys)

    def col(self, key) -> int:
        try:
            return self.start + self.key_index[key]
        except KeyError:
            raise CatalogError(f"{self.name}: no column for key {key!r}") from None


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

    def add_group(self, name: str, keys, *, binary: bool = False, lb=0.0, ub=1.0) -> Group:
        """Register a block of columns, one per key, in catalog order.

        ``lb``/``ub`` may be scalars or sequences aligned with ``keys``.
        """
        if self._finalized:
            raise CatalogError("catalog already finalized")
        if name in self._groups:
            raise CatalogError(f"duplicate symbol {name!r}")
        keys = list(keys)
        g = Group(name=name, start=self.ncols, keys=keys, binary=binary)
        g.key_index = {k: i for i, k in enumerate(keys)}
        if len(g.key_index) != len(keys):
            raise CatalogError(f"{name}: duplicate keys")
        self._lb.append(np.broadcast_to(np.asarray(lb, dtype=float), (len(keys),)).copy())
        self._ub.append(np.broadcast_to(np.asarray(ub, dtype=float), (len(keys),)).copy())
        self._binary.append(binary)
        self._ncols += len(keys)
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
        return _label(g.name, g.keys[col - g.start])

    def names(self) -> Iterator[str]:
        """Every column's :meth:`name_of`, in column order."""
        for name in self._order:
            keys = self._groups[name].keys
            arity = set(map(len, keys)) if set(map(type, keys)) == {tuple} else ()
            if len(arity) == 1:  # one format for the whole group: ``name[{},{},...]``
                fmt = name.replace("{", "{{").replace("}", "}}") + "[" + ",".join(["{}"] * arity.pop()) + "]"
                yield from starmap(fmt.format, keys)
            else:
                yield from map(_label, repeat(name), keys)

    def lookup(self, name: str) -> int:
        """Inverse of :meth:`name_of` for solution-file import."""
        if "[" not in name or not name.endswith("]"):
            raise CatalogError(f"malformed column name {name!r}")
        gname, _, inner = name.partition("[")
        inner = inner[:-1]
        g = self.group(gname)
        parts = inner.split(",") if inner else []
        for key in (self._coerce_key(parts), inner if not parts else None):
            if key is None:
                continue
            if key in g.key_index:
                return g.start + g.key_index[key]
        raise CatalogError(f"{gname}: no column for key {inner!r}")

    @staticmethod
    def _coerce_key(parts: list[str]):
        coerced = []
        for p in parts:
            try:
                coerced.append(int(p))
            except ValueError:
                coerced.append(p)
        if len(coerced) == 1:
            return coerced[0]
        return tuple(coerced)
