"""Sparse mixed-binary model container: linear rows, cone rows, objective.

Rows are stored as flat COO triplets plus per-row sense/rhs/family/location
so the model stays cheap to build for large cases and easy to replay against
a candidate solution.  The objective is a dense vector, maximized.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from ugrestore.catalog import VariableCatalog

SENSE_LE = 0
SENSE_GE = 1
SENSE_EQ = 2


class ConeRow(NamedTuple):
    """Rotated cone row: col_i * col_v >= col_p^2 + col_q^2 (all columns)."""

    col_i: int
    col_v: int
    col_p: int
    col_q: int
    family: str
    loc: tuple

    def point(self, x: np.ndarray) -> tuple[float, float, float, float]:
        """The cone's (I, V, P, Q) values in the full vector ``x``."""
        return tuple(float(x[c]) for c in (self.col_i, self.col_v, self.col_p, self.col_q))


@dataclass
class Violation:
    family: str
    loc: tuple | None
    residual: float
    row: int | None = None
    detail: str = ""


class ModelBuilder:
    """Row-by-row and block-wise assembly of a :class:`LinearModel`.

    Rows land in the order they are appended, and that order is fixed: the
    export and the LP both read it, and a warm-started simplex path depends
    on it.  :meth:`add` appends one row; :meth:`add_rows` appends a
    zero-padded block of rows and stores exactly what the same rows
    appended one by one would store.  The formulation emits its bracket,
    balance, voltage-drop and line-limit rows as blocks and the small
    families row by row.
    """

    def __init__(self, catalog: VariableCatalog) -> None:
        self.catalog = catalog
        self._coo_r = array("q")
        self._coo_c = array("q")
        self._coo_v = array("d")
        self._sense = array("b")
        self._rhs = array("d")
        self._families: list[str] = []
        self._locs: list[tuple | None] = []
        self._obj: dict[int, float] = {}
        self._cones: list[ConeRow] = []

    @property
    def nrows(self) -> int:
        return len(self._sense)

    def add(self, family: str, loc, terms, sense: int, rhs: float) -> int:
        """Append one linear row; ``terms`` is an iterable of (col, coef)."""
        row = len(self._sense)
        for col, coef in terms:
            if coef != 0.0:
                self._coo_r.append(row)
                self._coo_c.append(col)
                self._coo_v.append(float(coef))
        self._sense.append(sense)
        self._rhs.append(float(rhs))
        self._families.append(family)
        self._locs.append(tuple(loc) if loc is not None else None)
        return row

    def add_rows(self, family, locs: list, cols: np.ndarray, vals: np.ndarray, sense, rhs) -> None:
        """Append a block of rows of one width, row ``i`` tagged ``locs[i]``.

        ``cols``/``vals`` are 2-D, one row per block row, zero-padded: like
        :meth:`add`, every exact-zero coefficient (``-0.0`` too) is dropped
        and every other one kept in its place, so a column repeated in a row
        stays two entries.  ``family`` is one name or one per row; ``sense``
        and ``rhs`` are scalars or one per row; ``locs`` holds tuples.
        """
        n = len(locs)
        keep = vals != 0.0
        rows = np.nonzero(keep)[0] + len(self._sense)
        self._coo_r.frombytes(rows.astype(np.int64).tobytes())
        self._coo_c.frombytes(np.asarray(cols, dtype=np.int64)[keep].tobytes())
        self._coo_v.frombytes(np.asarray(vals, dtype=np.float64)[keep].tobytes())
        self._sense.frombytes(np.broadcast_to(np.asarray(sense, dtype=np.int8), (n,)).tobytes())
        self._rhs.frombytes(np.broadcast_to(np.asarray(rhs, dtype=np.float64), (n,)).tobytes())
        self._families.extend([family] * n if isinstance(family, str) else family)
        self._locs.extend(locs)

    def add_cone(self, family: str, loc, col_i: int, col_v: int, col_p: int, col_q: int) -> None:
        self._cones.append(ConeRow(col_i, col_v, col_p, col_q, family, tuple(loc)))

    def add_obj(self, col: int, coef: float) -> None:
        self._obj[col] = self._obj.get(col, 0.0) + coef

    def build(self, meta: dict | None = None) -> "LinearModel":
        lb, ub, binary = self.catalog.finalize()
        obj = np.zeros(self.catalog.ncols)
        for col, coef in self._obj.items():
            obj[col] = coef
        return LinearModel(
            catalog=self.catalog,
            col_lb=lb,
            col_ub=ub,
            col_binary=binary,
            obj=obj,
            coo_r=np.frombuffer(self._coo_r, dtype=np.int64).copy(),
            coo_c=np.frombuffer(self._coo_c, dtype=np.int64).copy(),
            coo_v=np.frombuffer(self._coo_v, dtype=np.float64).copy(),
            sense=np.frombuffer(self._sense, dtype=np.int8).copy(),
            rhs=np.frombuffer(self._rhs, dtype=np.float64).copy(),
            families=self._families,
            locs=self._locs,
            cones=self._cones,
            meta=dict(meta or {}),
        )


@dataclass
class LinearModel:
    catalog: VariableCatalog
    col_lb: np.ndarray
    col_ub: np.ndarray
    col_binary: np.ndarray
    obj: np.ndarray  # maximized
    coo_r: np.ndarray
    coo_c: np.ndarray
    coo_v: np.ndarray
    sense: np.ndarray
    rhs: np.ndarray
    families: list[str]
    locs: list[tuple | None]
    cones: list[ConeRow]
    meta: dict = field(default_factory=dict)
    _matrix: sp.csr_matrix | None = field(default=None, repr=False)

    @property
    def ncols(self) -> int:
        return self.obj.shape[0]

    @property
    def nrows(self) -> int:
        return self.sense.shape[0]

    @property
    def free_binary_columns(self) -> np.ndarray:
        return np.flatnonzero(self.col_binary & (self.col_lb < self.col_ub))

    def matrix(self) -> sp.csr_matrix:
        if self._matrix is None:
            self._matrix = sp.coo_matrix(
                (self.coo_v, (self.coo_r, self.coo_c)), shape=(self.nrows, self.ncols)
            ).tocsr()
        return self._matrix

    def family_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for fam in self.families:
            counts[fam] = counts.get(fam, 0) + 1
        for cone in self.cones:
            counts[cone.family] = counts.get(cone.family, 0) + 1
        return counts

    # -- solution replay ----------------------------------------------------

    def row_residuals(self, x: np.ndarray) -> np.ndarray:
        """Signed slack per row: negative means violated."""
        ax = self.matrix() @ x
        resid = np.empty(self.nrows)
        le = self.sense == SENSE_LE
        ge = self.sense == SENSE_GE
        eq = self.sense == SENSE_EQ
        resid[le] = self.rhs[le] - ax[le]
        resid[ge] = ax[ge] - self.rhs[ge]
        resid[eq] = -np.abs(ax[eq] - self.rhs[eq])
        return resid

    def cone_values(self, x: np.ndarray) -> np.ndarray:
        """Cone slack I*V - (P^2 + Q^2) per cone row; negative means violated."""
        if not self.cones:
            return np.zeros(0)
        idx = np.array([(c.col_i, c.col_v, c.col_p, c.col_q) for c in self.cones])
        vi = x[idx[:, 0]]
        vv = x[idx[:, 1]]
        vp = x[idx[:, 2]]
        vq = x[idx[:, 3]]
        return vi * vv - (vp * vp + vq * vq)

    def check_solution(self, x: np.ndarray, tol: float = 1e-6, cone_tol: float = 1e-6) -> list[Violation]:
        """All violations beyond tolerance, worst first.

        Rows, cones (``cone_tol``), column bounds, and integrality: a binary
        column farther than ``tol`` from 0 and 1 is an ``integrality``
        violation, so a relaxation point never replays as a plan.
        """
        out: list[Violation] = []
        resid = self.row_residuals(x)
        bad = np.flatnonzero(resid < -tol)
        for row in bad:
            out.append(
                Violation(
                    family=self.families[row],
                    loc=self.locs[row],
                    residual=float(-resid[row]),
                    row=int(row),
                )
            )
        cone_slack = self.cone_values(x)
        for i in np.flatnonzero(cone_slack < -cone_tol):
            c = self.cones[i]
            out.append(
                Violation(family=c.family, loc=c.loc, residual=float(-cone_slack[i]), detail="cone")
            )
        lb_bad = np.flatnonzero(x < self.col_lb - tol)
        ub_bad = np.flatnonzero(x > self.col_ub + tol)
        for col in lb_bad:
            out.append(
                Violation(
                    family="column-bounds",
                    loc=(self.catalog.name_of(int(col)),),
                    residual=float(self.col_lb[col] - x[col]),
                )
            )
        for col in ub_bad:
            out.append(
                Violation(
                    family="column-bounds",
                    loc=(self.catalog.name_of(int(col)),),
                    residual=float(x[col] - self.col_ub[col]),
                )
            )
        frac = np.abs(x - np.round(x))
        for col in np.flatnonzero(self.col_binary & (frac > tol)):
            out.append(
                Violation(
                    family="integrality",
                    loc=(self.catalog.name_of(int(col)),),
                    residual=float(frac[col]),
                )
            )
        out.sort(key=lambda v: -v.residual)
        return out

    def objective_value(self, x: np.ndarray) -> float:
        return float(self.obj @ x)
