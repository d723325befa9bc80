"""Sparse mixed-binary model container: linear rows, cone rows, objective.

Rows are stored as flat COO triplets plus per-row sense/rhs/family/location
so the model stays cheap to build for large cases and easy to replay against
a candidate solution.  The objective is a dense vector, maximized.

:meth:`LinearModel.restrict` reduces a model to the part that a set of
column bounds leaves live, by the exact primal reductions of LP presolve
(Andersen & Andersen 1995): fixed columns are substituted, a row with one
non-fixed column becomes bounds on it, and a row that its activity bounds
prove redundant is dropped.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain, repeat
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


class Restriction(NamedTuple):
    """A model reduced to the part that its column bounds leave live (:meth:`LinearModel.restrict`)."""

    model: "LinearModel"  # the kept rows over the kept columns, at the tightened bounds
    keep: np.ndarray  # the full-model column of each restricted column
    fixed: np.ndarray  # full vector: each eliminated column's value, 0 at the kept ones
    col_lb: np.ndarray  # the tightened full column bounds
    col_ub: np.ndarray
    offset: float  # the objective of the eliminated columns, a constant of the restricted model
    pos: list[int]  # the restricted column of each full-model column, -1 at the eliminated ones

    def expand(self, x: np.ndarray) -> np.ndarray:
        """The full vector of a point of the restricted model."""
        full = self.fixed.copy()
        full[self.keep] = x
        return full


@dataclass
class Violation:
    family: str
    loc: tuple | None
    residual: float
    row: int | None = None
    detail: str = ""


class RowBlock(NamedTuple):
    """Rows for :meth:`ModelBuilder.add_blocks`: an :meth:`ModelBuilder.add_rows` block and each row's key."""

    key: np.ndarray
    family: str | list[str]
    locs: list
    cols: np.ndarray
    vals: np.ndarray
    sense: int | np.ndarray
    rhs: float | np.ndarray


class ModelBuilder:
    """Row-by-row and block-wise assembly of a :class:`LinearModel`.

    Rows land in the order they are appended, and that order is fixed: the
    export and the LP both read it, and a warm-started simplex path depends
    on it.  :meth:`add` appends one row; :meth:`add_rows` appends a
    zero-padded block of rows and :meth:`add_blocks` several blocks
    interleaved by a key, and both store exactly what the same rows
    appended one by one would store.  The formulation builds every family
    of the switchgear schedule, the loads, the power flow and the voltage
    ranges as blocks, and the objective as arrays; only the topology and
    the storage rows, a few thousand on the largest case, go row by row.
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
        self._obj: list[tuple[np.ndarray, np.ndarray]] = []
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
        self.add_blocks([RowBlock(np.zeros(len(locs), dtype=np.int64), family, locs, cols, vals, sense, rhs)])

    def add_blocks(self, blocks: list[RowBlock]) -> None:
        """Append the rows of ``blocks`` in the order of their keys, a stable order.

        The rows of one key come block by block, each block's in its own
        order: what :meth:`add_rows` of each block's rows of the smallest
        key, then of the next one, and so on, would store.
        """
        n = [len(b.key) for b in blocks]
        if [len(b.locs) for b in blocks] != n:
            raise ValueError("a block needs one loc per row")
        key = np.concatenate([b.key for b in blocks])
        kept = [np.asarray(b.vals, dtype=np.float64) != 0.0 for b in blocks]
        count = np.concatenate([k.sum(axis=1) for k in kept])
        cols = np.concatenate([np.asarray(b.cols, dtype=np.int64)[k] for b, k in zip(blocks, kept)])
        vals = np.concatenate([np.asarray(b.vals, dtype=np.float64)[k] for b, k in zip(blocks, kept)])
        sense = np.concatenate([np.broadcast_to(np.asarray(b.sense, dtype=np.int8), (k,)) for b, k in zip(blocks, n)])
        rhs = np.concatenate([np.broadcast_to(np.asarray(b.rhs, dtype=np.float64), (k,)) for b, k in zip(blocks, n)])
        families = list(
            chain.from_iterable([b.family] * k if isinstance(b.family, str) else b.family for b, k in zip(blocks, n))
        )
        locs = list(chain.from_iterable(b.locs for b in blocks))
        if np.any(key[1:] < key[:-1]):
            order = np.argsort(key, kind="stable")
            # the entries of row order[i], which lands as row i, one after another
            start, count = (np.cumsum(count) - count)[order], count[order]
            entry = np.repeat(start - (np.cumsum(count) - count), count) + np.arange(count.sum())
            cols, vals, sense, rhs = cols[entry], vals[entry], sense[order], rhs[order]
            order = order.tolist()
            families, locs = map(families.__getitem__, order), map(locs.__getitem__, order)
        self._coo_r.frombytes(np.repeat(np.arange(len(self._sense), len(self._sense) + key.size), count).tobytes())
        self._coo_c.frombytes(cols.tobytes())
        self._coo_v.frombytes(vals.tobytes())
        self._sense.frombytes(sense.tobytes())
        self._rhs.frombytes(rhs.tobytes())
        self._families.extend(families)
        self._locs.extend(locs)

    def add_cone(self, family: str, loc, col_i: int, col_v: int, col_p: int, col_q: int) -> None:
        self._cones.append(ConeRow(col_i, col_v, col_p, col_q, family, tuple(loc)))

    def add_cones(self, family: str, locs: list, cols: np.ndarray) -> None:
        """Append one cone per row of ``cols``, its (I, V, P, Q) columns, tagged ``locs`` (tuples)."""
        fields = zip(*np.asarray(cols, dtype=np.int64).T.tolist(), repeat(family), locs)
        self._cones.extend(map(partial(tuple.__new__, ConeRow), fields))

    def add_obj(self, cols, coefs) -> None:
        """Add ``coefs`` to the objective coefficients of ``cols`` (arrays or scalars), in order."""
        cols = np.asarray(cols, dtype=np.int64)
        # flat and of one shape: ``np.add.at`` misreads a broadcast value array
        self._obj.append((cols.ravel(), np.broadcast_to(np.asarray(coefs, dtype=np.float64), cols.shape).ravel()))

    def build(self, meta: dict | None = None) -> "LinearModel":
        lb, ub, binary = self.catalog.finalize()
        obj = np.zeros(self.catalog.ncols)
        for cols, coefs in self._obj:
            np.add.at(obj, cols, coefs)
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
    _cone_cols: np.ndarray | None = field(default=None, repr=False)

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

    @property
    def cone_cols(self) -> np.ndarray:
        """The (I, V, P, Q) columns of each cone, one row per cone, built once."""
        if self._cone_cols is None:
            self._cone_cols = np.array([c[:4] for c in self.cones], dtype=np.int64).reshape(-1, 4)
        return self._cone_cols

    def family_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for fam in self.families:
            counts[fam] = counts.get(fam, 0) + 1
        for cone in self.cones:
            counts[cone.family] = counts.get(cone.family, 0) + 1
        return counts

    # -- restriction ----------------------------------------------------------

    def restrict(self, lb: np.ndarray, ub: np.ndarray) -> Restriction:
        """The model over what the column bounds ``lb``/``ub`` leave live.

        Exact primal reductions only, iterated to a fixpoint:

        1. a fixed column (``lb == ub``) is substituted into the row bounds
           and into a constant objective offset;
        2. a row with one non-fixed column becomes bounds on that column,
           its row bounds divided by the coefficient, with no tolerance;
        3. a row whose minimum and maximum activity over the column bounds
           lie within its row bounds is dropped.  An infinite bound is
           counted, never multiplied.

        The first pass reads every row; each later one only the rows that
        touch a column whose bound moved.  No dual reduction is made, so
        the restriction holds for any objective and any valid cut.  A cone
        with a non-fixed column keeps all four columns (fixed or not), so
        every cone and every cut maps; a cone whose columns are all fixed
        drops out.  The restricted model has no catalog.

        If the propagation proves the bounds inconsistent (a column bound
        crossing the other, or a row whose activity range misses its row
        bounds), nothing is removed: the restriction is the whole model at
        ``lb``/``ub``, and an LP over it finds the infeasibility itself.
        """
        lb = np.array(lb, dtype=float)
        ub = np.array(ub, dtype=float)
        given = lb.copy(), ub.copy()
        a = self.matrix().copy()
        a.eliminate_zeros()  # a summed-out duplicate would be a non-fixed term with coefficient 0
        at = a.tocsc()
        row_lo = np.where(self.sense == SENSE_LE, -np.inf, self.rhs)
        row_hi = np.where(self.sense == SENSE_GE, np.inf, self.rhs)
        alive = np.ones(self.nrows, dtype=bool)
        consistent = bool(np.all(lb <= ub))
        rows = np.arange(self.nrows)
        while consistent and rows.size:
            consistent, moved = _propagate(a[rows], rows, lb, ub, row_lo, row_hi, alive)
            touched = np.zeros(self.nrows, dtype=bool)
            touched[at[:, moved].indices] = True
            rows = np.flatnonzero(touched & alive)
        if not consistent:
            lb, ub = given
            keep = np.arange(self.ncols)
            whole = replace(self, col_lb=lb, col_ub=ub)
            return Restriction(whole, keep, np.zeros(self.ncols), lb, ub, 0.0, keep.tolist())
        fixed = lb == ub
        kept = ~fixed
        cone_cols = self.cone_cols
        live = ~fixed[cone_cols].all(axis=1)
        kept[cone_cols[live].ravel()] = True
        keep = np.flatnonzero(kept)
        pos = np.full(self.ncols, -1)
        pos[keep] = np.arange(keep.size)
        values = np.where(kept, 0.0, lb)
        rows = np.flatnonzero(alive)
        sub = a[rows][:, keep].tocsr()
        coo = sub.tocoo()
        cones = [
            ConeRow(*(int(pos[j]) for j in self.cones[k][:4]), self.cones[k].family, self.cones[k].loc)
            for k in np.flatnonzero(live)
        ]
        restricted = LinearModel(
            catalog=None,
            col_lb=lb[keep],
            col_ub=ub[keep],
            col_binary=self.col_binary[keep],
            obj=self.obj[keep],
            coo_r=coo.row.astype(np.int64),
            coo_c=coo.col.astype(np.int64),
            coo_v=coo.data,
            sense=self.sense[rows],
            rhs=self.rhs[rows] - (a @ values)[rows],
            families=[self.families[r] for r in rows],
            locs=[self.locs[r] for r in rows],
            cones=cones,
            _matrix=sub,
        )
        return Restriction(restricted, keep, values, lb, ub, float(self.obj @ values), pos.tolist())

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
        vi, vv, vp, vq = x[self.cone_cols.T]
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


def _propagate(a, rows, lb, ub, row_lo, row_hi, alive) -> tuple[bool, np.ndarray]:
    """One pass of :meth:`LinearModel.restrict` over ``rows`` (``a`` holds their coefficients).

    Drops the rows it proves redundant or turns into bounds from ``alive``
    and tightens ``lb``/``ub`` in place.  Returns whether the bounds are
    still consistent and the columns whose bounds moved.
    """
    n = rows.size
    entry_row = np.repeat(np.arange(n), np.diff(a.indptr))
    col, coef = a.indices, a.data
    lo, hi = lb[col], ub[col]
    free = lo < hi
    n_free = np.bincount(entry_row, free, minlength=n)
    const = np.bincount(entry_row, np.where(free, 0.0, lo) * coef, minlength=n)

    def activity(at: np.ndarray, infinite: float) -> np.ndarray:
        """Per row: the activity with each free term at its bound ``at``, infinite ones counted."""
        finite = np.isfinite(at)
        act = const + np.bincount(entry_row, np.where(free & finite, at, 0.0) * coef, minlength=n)
        act[np.bincount(entry_row, free & ~finite, minlength=n) > 0] = infinite
        return act

    act_min = activity(np.where(coef > 0, lo, hi), -np.inf)
    act_max = activity(np.where(coef > 0, hi, lo), np.inf)
    r_lo, r_hi = row_lo[rows], row_hi[rows]
    if np.any((act_min > r_hi) | (act_max < r_lo)):
        return False, np.zeros(0, dtype=np.int64)
    redundant = (act_min >= r_lo) & (act_max <= r_hi)
    single = ~redundant & (n_free == 1)
    entry = np.flatnonzero(free & single[entry_row])
    j, c, r = col[entry], coef[entry], entry_row[entry]
    low, high = (r_lo[r] - const[r]) / c, (r_hi[r] - const[r]) / c
    old_lb, old_ub = lb.copy(), ub.copy()
    np.maximum.at(lb, j, np.where(c > 0, low, high))
    np.minimum.at(ub, j, np.where(c > 0, high, low))
    alive[rows[redundant | single]] = False
    moved = np.flatnonzero((lb != old_lb) | (ub != old_ub))
    return bool(np.all(lb[moved] <= ub[moved])), moved
