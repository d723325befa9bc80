"""Sparse mixed-binary model container: linear rows, cone rows, objective.

The rows are one CSR matrix, each row's columns sorted and each column
once, plus per-row arrays of bounds ``row_lo <= a.x <= row_hi`` and of
family code (an index into the model's table of family names).  The builder
turns each row's sense and rhs into bounds and makes that matrix once, from
flat arrays, so the model stays cheap to build for large cases; the export,
the LP and the replay of a candidate solution all read it as it is.  A
cone is one row of an ``(n, 4)`` array of its (I, V, P, Q) columns.  Where
a row or cone sits is not stored: a violation report names its columns
from the catalog.  The objective is a dense vector, maximized.

:meth:`LinearModel.restrict` reduces a model to the part that a set of
column bounds leaves live, by the exact primal reductions of LP presolve
(Andersen & Andersen 1995): fixed columns are substituted, a row with one
non-fixed column becomes bounds on it, and a row that its activity bounds
prove redundant is dropped; last, each group of kept rows that are equal
up to sign becomes one row, holding the intersection of their bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from ugrestore.catalog import VariableCatalog

SENSE_LE = 0  # the senses a RowBlock states its rows with
SENSE_GE = 1
SENSE_EQ = 2

CONE_FAMILY = "cone"  # the family every cone reports as


class Restriction(NamedTuple):
    """A model reduced to the part that its column bounds leave live (:meth:`LinearModel.restrict`)."""

    model: "LinearModel"  # the kept rows over the kept columns, at the tightened bounds
    keep: np.ndarray  # the full-model column of each restricted column
    fixed: np.ndarray  # full vector: each eliminated column's value, 0 at the kept ones
    col_lb: np.ndarray  # the tightened full column bounds
    col_ub: np.ndarray
    offset: float  # the objective of the eliminated columns, a constant of the restricted model
    pos: np.ndarray  # the restricted column of each full-model column, -1 at the eliminated ones

    def expand(self, x: np.ndarray) -> np.ndarray:
        """The full vector of a point of the restricted model."""
        full = self.fixed.copy()
        full[self.keep] = x
        return full


@dataclass
class Violation:
    """One check that a point fails (:meth:`LinearModel.check_solution`).

    ``family`` is the violated row's or cone's family, or the kind of
    column check (``column-bounds``, ``integrality``, ``non-finite``);
    ``loc`` holds the catalog names of the columns involved, each once.
    """

    family: str
    loc: tuple[str, ...]
    residual: float
    row: int | None = None
    detail: str = ""


class RowBlock(NamedTuple):
    """Rows for :meth:`ModelBuilder.add_blocks`: each row's key, family, entry count, entries, sense and rhs.

    ``family`` is one name, or a pair of a table of names and an int array
    of each row's place in it, so a block that repeats a few families maps
    each name once; ``sense`` and ``rhs`` are scalars or one per row.  Row
    ``i`` has the next ``count[i]`` entries of ``cols``/``vals``.
    """

    key: np.ndarray
    family: str | tuple[list[str], np.ndarray]
    count: np.ndarray  # per row: its number of entries
    cols: np.ndarray  # the entries, row after row
    vals: np.ndarray
    sense: int | np.ndarray
    rhs: float | np.ndarray


# the dtypes of a piece of rows in ``ModelBuilder``: count, cols, vals, sense, rhs and family
_DTYPES = (np.int64, np.int64, np.float64, np.int8, np.float64, np.int32)


def _nonzero(block: RowBlock, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entry counts and entries of ``block``'s ``n`` rows, less every exact-zero coefficient (``-0.0`` too)."""
    count = np.asarray(block.count, dtype=np.int64)
    cols = np.asarray(block.cols)
    vals = np.asarray(block.vals, dtype=np.float64)
    if cols.dtype.kind not in "iu":
        raise TypeError("a column must be an integer")
    if count.shape != (n,) or count.sum() != cols.size or cols.shape != vals.shape:
        raise ValueError("a block needs one entry count per row and one column per value")
    cols = cols.astype(np.int64, copy=False)
    kept = vals != 0.0
    if not kept.all():
        before = np.concatenate([[0], np.cumsum(kept)])  # per entry: the kept entries before it
        count = np.diff(before[np.concatenate([[0], np.cumsum(count)])])
        cols, vals = cols[kept], vals[kept]
    return count, cols, vals


class ModelBuilder:
    """Block-wise assembly of a :class:`LinearModel`.

    Rows land in the order they are appended, and that order is fixed: the
    export and the LP both read it, and a warm-started simplex path depends
    on it.  :meth:`add_blocks` appends blocks of ragged rows, each given as
    its rows' entry counts and the entries row after row, interleaved by a
    per-row key; every exact-zero coefficient is dropped.  The formulation
    builds every row family this way, the cones with :meth:`add_cones` and
    the objective with :meth:`add_obj`.  A row's family is stored as a
    code, numbered in the order the model's rows first use each name, so
    the model's table names exactly the families that have rows.

    The rows are kept as pieces, one per :meth:`add_blocks` call, each a
    tuple of flat arrays of one row after another (entry counts, columns,
    values, sense, rhs and family codes).  :meth:`build` joins each field
    once, into the model's CSR matrix, sense and rhs into row bounds.
    """

    def __init__(self, catalog: VariableCatalog) -> None:
        self.catalog = catalog
        self._pieces = [tuple(np.zeros(0, dtype=d) for d in _DTYPES)]
        self._codes: dict[str, int] = {}  # family name -> code
        self._obj: list[tuple[np.ndarray, np.ndarray]] = []
        self._cones: list[np.ndarray] = []  # (n, 4) blocks of I, V, P, Q columns

    def add_blocks(self, blocks: list[RowBlock]) -> None:
        """Append the rows of ``blocks`` in the order of their keys, a stable order.

        The rows of one key come block by block, each block's in its own
        order.
        """
        if not blocks:
            return
        n = [len(b.key) for b in blocks]
        names: list[str] = []  # the family names of this call, a block's table after the previous one's
        index = []  # per row: its family's place in ``names``
        for b, k in zip(blocks, n):
            if isinstance(b.family, str):
                table, at = [b.family], np.zeros(k, dtype=np.int64)
            else:
                table, at = b.family
                if np.shape(at) != (k,):
                    raise ValueError("a block needs one family or an index per row")
            index.append(np.asarray(at, dtype=np.int64) + len(names))
            names += table
        family = np.concatenate(index)
        key = np.concatenate([b.key for b in blocks])
        count, cols, vals = (np.concatenate(f) for f in zip(*map(_nonzero, blocks, n)))
        sense = np.concatenate([np.broadcast_to(np.asarray(b.sense, dtype=np.int8), (k,)) for b, k in zip(blocks, n)])
        rhs = np.concatenate([np.broadcast_to(np.asarray(b.rhs, dtype=np.float64), (k,)) for b, k in zip(blocks, n)])
        if np.any(key[1:] < key[:-1]):
            order = np.argsort(key, kind="stable")
            # the entries of row order[i], which lands as row i, one after another
            start, count = (np.cumsum(count) - count)[order], count[order]
            entry = np.repeat(start - (np.cumsum(count) - count), count) + np.arange(count.sum())
            cols, vals, sense, rhs, family = cols[entry], vals[entry], sense[order], rhs[order], family[order]
        # codes by first use: the names at the start of each run of rows of one name, in order
        runs = np.flatnonzero(np.diff(family, prepend=-1))
        table = np.zeros(len(names), dtype=np.int32)
        for i in dict.fromkeys(family[runs].tolist()):
            table[i] = self._codes.setdefault(names[i], len(self._codes))
        self._pieces.append((count, cols, vals, sense, rhs, table[family]))

    def add_cones(self, cols: np.ndarray) -> None:
        """Append one cone per row of ``cols``, its (I, V, P, Q) columns."""
        self._cones.append(np.array(cols, dtype=np.int64).reshape(-1, 4))  # a copy: the caller may reuse ``cols``

    def add_obj(self, cols, coefs) -> None:
        """Add ``coefs`` to the objective coefficients of ``cols`` (arrays or scalars), in order."""
        cols = np.asarray(cols, dtype=np.int64)
        # flat and of one shape: ``np.add.at`` misreads a broadcast value array
        self._obj.append((cols.ravel(), np.broadcast_to(np.asarray(coefs, dtype=np.float64), cols.shape).ravel()))

    def build(self, meta: dict | None = None) -> "LinearModel":
        """The model: the rows joined once, into a CSR matrix with each row's repeated columns summed."""
        lb, ub, binary = self.catalog.finalize()
        obj = np.zeros(self.catalog.ncols)
        for cols, coefs in self._obj:
            np.add.at(obj, cols, coefs)
        count, cols, vals, sense, rhs, family = (np.concatenate(f) for f in zip(*self._pieces))
        indptr = np.zeros(count.size + 1, dtype=np.int64)
        np.cumsum(count, out=indptr[1:])
        csr = sp.csr_matrix((vals, cols, indptr), shape=(count.size, self.catalog.ncols))
        csr.sum_duplicates()
        return LinearModel(
            catalog=self.catalog,
            col_lb=lb,
            col_ub=ub,
            col_binary=binary,
            obj=obj,
            csr=csr,
            row_lo=np.where(sense == SENSE_LE, -np.inf, rhs),
            row_hi=np.where(sense == SENSE_GE, np.inf, rhs),
            family=family,
            family_names=list(self._codes),
            cones=np.concatenate([np.zeros((0, 4), dtype=np.int64)] + self._cones),
            meta=dict(meta or {}),
        )


@dataclass
class LinearModel:
    catalog: VariableCatalog
    col_lb: np.ndarray
    col_ub: np.ndarray
    col_binary: np.ndarray
    obj: np.ndarray  # maximized
    csr: sp.csr_matrix  # the rows' coefficients, each row's columns sorted and once
    row_lo: np.ndarray  # per row: row_lo <= a.x <= row_hi, -inf or +inf on an open side
    row_hi: np.ndarray
    family: np.ndarray  # per row: its family's index in ``family_names``
    family_names: list[str]
    cones: np.ndarray  # (n, 4): the I, V, P, Q columns of each cone, I*V >= P^2 + Q^2
    meta: dict = field(default_factory=dict)

    @property
    def ncols(self) -> int:
        return self.obj.shape[0]

    @property
    def nrows(self) -> int:
        return self.row_lo.shape[0]

    @property
    def free_binary_columns(self) -> np.ndarray:
        return np.flatnonzero(self.col_binary & (self.col_lb < self.col_ub))

    def matrix(self) -> sp.csr_matrix:
        return self.csr

    def family_counts(self) -> dict[str, int]:
        """Rows per family with rows, in ``family_names`` order, then the cones as ``cone``."""
        counts = np.bincount(self.family, minlength=len(self.family_names)).tolist()
        out = {name: n for name, n in zip(self.family_names, counts) if n}
        if len(self.cones):
            out[CONE_FAMILY] = len(self.cones)
        return out

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
        touch a column whose bound moved.  After the fixpoint:

        4. the kept rows whose restricted coefficient vectors are equal up
           to sign form a group, and the group becomes its first row,
           holding the intersection of the group's bounds in that row's
           orientation: a range, an equality where the bounds meet, or
           crossing bounds, which the LP finds infeasible.  Equal means
           equal, as in the other rules: no tolerance.

        No dual reduction is made, so
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
        a = self.matrix()
        if not a.data.all():  # a summed-out duplicate would be a non-fixed term with coefficient 0
            a = a.copy()
            a.eliminate_zeros()
        at = a.tocsc()
        alive = np.ones(self.nrows, dtype=bool)
        consistent = bool(np.all(lb <= ub))
        rows = np.arange(self.nrows)
        while consistent and rows.size:
            consistent, moved = _propagate(a[rows], rows, lb, ub, self.row_lo, self.row_hi, alive)
            touched = np.zeros(self.nrows, dtype=bool)
            touched[at[:, moved].indices] = True
            rows = np.flatnonzero(touched & alive)
        if not consistent:
            lb, ub = given
            keep = np.arange(self.ncols)
            whole = replace(self, col_lb=lb, col_ub=ub)
            return Restriction(whole, keep, np.zeros(self.ncols), lb, ub, 0.0, keep)
        fixed = lb == ub
        kept = ~fixed
        live = ~fixed[self.cones].all(axis=1)
        kept[self.cones[live].ravel()] = True
        keep = np.flatnonzero(kept)
        pos = np.full(self.ncols, -1)
        pos[keep] = np.arange(keep.size)
        values = np.where(kept, 0.0, lb)
        rows = np.flatnonzero(alive)
        csr = a[rows][:, keep].tocsr()
        shift = (a @ values)[rows]
        pick, row_lo, row_hi = _merge_pairs(csr, self.row_lo[rows] - shift, self.row_hi[rows] - shift)
        rows = rows[pick]
        restricted = LinearModel(
            catalog=None,
            col_lb=lb[keep],
            col_ub=ub[keep],
            col_binary=self.col_binary[keep],
            obj=self.obj[keep],
            csr=csr[pick],
            row_lo=row_lo,
            row_hi=row_hi,
            family=self.family[rows],
            family_names=self.family_names,
            cones=pos[self.cones[live]],
        )
        return Restriction(restricted, keep, values, lb, ub, float(self.obj @ values), pos)

    # -- solution replay ----------------------------------------------------

    def row_residuals(self, x: np.ndarray) -> np.ndarray:
        """Signed slack per row: negative means violated."""
        ax = self.matrix() @ x
        return np.minimum(ax - self.row_lo, self.row_hi - ax)

    def cone_values(self, x: np.ndarray) -> np.ndarray:
        """Cone slack I*V - (P^2 + Q^2) per cone row; negative means violated."""
        vi, vv, vp, vq = x[self.cones.T]
        return vi * vv - (vp * vp + vq * vq)

    def check_solution(self, x: np.ndarray, tol: float = 1e-6, cone_tol: float = 1e-6) -> list[Violation]:
        """All violations beyond tolerance, worst first.

        Rows, cones (``cone_tol``), column bounds, and integrality: a binary
        column farther than ``tol`` from 0 and 1 is an ``integrality``
        violation, so a relaxation point never replays as a plan.  A NaN or
        infinite entry is a ``non-finite`` violation of residual inf, and
        then the only kind reported: a NaN fails no comparison, and an
        infinite one makes the row products NaN.  A violated row or cone
        reports the catalog names of its columns as its ``loc``.
        """
        bad = np.flatnonzero(~np.isfinite(x))
        if bad.size:
            return [Violation("non-finite", (self.catalog.name_of(int(col)),), np.inf) for col in bad]
        out: list[Violation] = []
        resid = self.row_residuals(x)
        a = self.matrix()
        for row in np.flatnonzero(resid < -tol):
            out.append(
                Violation(
                    family=self.family_names[self.family[row]],
                    loc=self._names(a.indices[a.indptr[row] : a.indptr[row + 1]]),
                    residual=float(-resid[row]),
                    row=int(row),
                )
            )
        cone_slack = self.cone_values(x)
        for i in np.flatnonzero(cone_slack < -cone_tol):
            out.append(
                Violation(CONE_FAMILY, self._names(self.cones[i]), float(-cone_slack[i]), detail="cone")
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

    def _names(self, cols: np.ndarray) -> tuple[str, ...]:
        """The catalog names of ``cols``, each once, in order."""
        return tuple(map(self.catalog.name_of, dict.fromkeys(cols.tolist())))

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


def _merge_pairs(a: sp.csr_matrix, row_lo: np.ndarray, row_hi: np.ndarray):
    """Rule 4 of :meth:`LinearModel.restrict` on the rows of ``a``: the rows kept, in order, and their bounds.

    Each row is sign-normalized, so that its first coefficient is positive.
    The rows are sorted by their normalized product with fixed random
    weights, and a group is a run of rows in that order whose columns and
    normalized coefficients each equal those of the row before.  A group's
    first row takes the group's bounds in ``row_lo``/``row_hi``, in place.
    """
    n = a.shape[0]
    a.sort_indices()
    count = np.diff(a.indptr)
    sign = np.ones(n)
    sign[count > 0] = np.sign(a.data[a.indptr[:-1][count > 0]])
    key = sign * (a @ np.random.default_rng(0).uniform(1.0, 2.0, a.shape[1]))  # negation is exact
    order = np.argsort(key)
    # the sorted places whose row has the key and the entries of the row before it
    at = np.flatnonzero(key[order[1:]] == key[order[:-1]]) + 1
    at = at[count[order[at]] == count[order[at - 1]]]
    i, j, c = order[at], order[at - 1], count[order[at]]
    offset = np.arange(c.sum()) - np.repeat(np.cumsum(c) - c, c)
    ei, ej = np.repeat(a.indptr[i], c) + offset, np.repeat(a.indptr[j], c) + offset
    si, sj = np.repeat(sign[i], c), np.repeat(sign[j], c)
    differ = (a.indices[ei] != a.indices[ej]) | (si * a.data[ei] != sj * a.data[ej])
    same = np.zeros(n + 1, dtype=bool)
    same[at[np.bincount(np.repeat(np.arange(c.size), c), differ, minlength=c.size) == 0]] = True
    place = np.flatnonzero(same[:-1] | same[1:])  # the sorted places in a group of two or more
    if not place.size:
        return np.arange(n), row_lo, row_hi
    row, s = order[place], sign[order[place]]
    start = np.flatnonzero(~same[place])
    lo, hi = np.where(s > 0, row_lo[row], -row_hi[row]), np.where(s > 0, row_hi[row], -row_lo[row])  # normalized
    glo, ghi = np.maximum.reduceat(lo, start), np.minimum.reduceat(hi, start)
    first = np.minimum.reduceat(row, start)
    s = sign[first]
    row_lo[first], row_hi[first] = np.where(s > 0, glo, -ghi), np.where(s > 0, ghi, -glo)
    pick = np.delete(np.arange(n), np.setdiff1d(row, first))
    return pick, row_lo[pick], row_hi[pick]
