"""The LP relaxation, reached only through :class:`LpBackend`.

A backend converts the model rows once into the inequality/equality sparse
matrices of scipy's HiGHS interface and owns everything that changes between
solves:

- the fixings: ``solve(fixes)`` pins them on a copy of the column bounds, and
  a fixing outside the column bounds is ``infeasible`` without running an LP;
- the outer-approximation cut pool: ``add_cut`` keeps at most
  ``CUTS_PER_CONE`` cuts per cone; on a full cone the new cut replaces the one
  with the most slack at the point it separates, so the cuts that hold that
  point stay and the separation loops do not cycle.  Every cut is valid for
  the full model, so any subset keeps the relaxation a bound;
- the deadline: HiGHS gets the remaining seconds as its time limit, and an LP
  cut off by it ends as ``error``.

The search, the greedy warm start and the diver each own one backend.
:func:`infeasibility_hint` names an irreducible infeasible subset (IIS) found
by the HiGHS that scipy bundles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from ugrestore.model import SENSE_EQ, SENSE_GE, SENSE_LE, LinearModel

try:  # private module of scipy's bundled HiGHS; a test pins its location
    from scipy.optimize._highspy._core import HighsIis, MatrixFormat, _Highs
except ImportError:  # pragma: no cover - scipy moved it
    HighsIis = MatrixFormat = _Highs = None

# cone refinement needs row residuals well below the default 1e-7
_HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-9,
}

CUTS_PER_CONE = 8


@dataclass(frozen=True)
class Cut:
    """Linear cut ``coefs . x[cols] <= rhs``, valid for the full model."""

    cols: tuple[int, ...]
    coefs: tuple[float, ...]
    rhs: float


@dataclass
class LpResult:
    status: str  # optimal | infeasible | unbounded | error
    x: np.ndarray | None
    objective: float  # maximization value; -inf when not optimal

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


_INFEASIBLE = LpResult(status="infeasible", x=None, objective=-np.inf)


class LpBackend:
    def __init__(self, model: LinearModel, deadline: float | None = None) -> None:
        self.model = model
        self.deadline = deadline  # time.monotonic() value, or None for no limit
        self.cuts: list[Cut] = []
        self._cone_slots: dict[int, list[int]] = {}  # cone -> positions in cuts
        m = model.matrix().tocsr()
        le, ge, eq = (model.sense == sense for sense in (SENSE_LE, SENSE_GE, SENSE_EQ))
        self.a_ub = sp.vstack([m[le], -m[ge]], format="csr")
        self.b_ub = np.concatenate([model.rhs[le], -model.rhs[ge]])
        self.a_eq = m[eq]
        self.b_eq = model.rhs[eq]
        self.c = -model.obj  # linprog minimizes

    def add_cut(self, cone_idx: int, cut: Cut, x: np.ndarray) -> None:
        """Add ``cut``, which separates ``x``; a full cone drops its slackest cut at ``x``."""
        slots = self._cone_slots.setdefault(cone_idx, [])
        if len(slots) < CUTS_PER_CONE:
            slots.append(len(self.cuts))
            self.cuts.append(cut)
            return
        held = [self.cuts[pos] for pos in slots]
        slack = [c.rhs - np.dot(c.coefs, x[list(c.cols)]) for c in held]
        self.cuts[slots[int(np.argmax(slack))]] = cut

    def solve(self, fixes: dict[int, float] | None = None) -> LpResult:
        """Relaxation with ``fixes`` (column -> value) pinned and the pool appended."""
        lb = self.model.col_lb.copy()
        ub = self.model.col_ub.copy()
        for col, val in (fixes or {}).items():
            if val < lb[col] - 1e-9 or val > ub[col] + 1e-9:
                return _INFEASIBLE
            lb[col] = val
            ub[col] = val
        a_ub, b_ub = self.a_ub, self.b_ub
        if self.cuts:
            rows, cols, vals = [], [], []
            for i, cut in enumerate(self.cuts):
                rows.extend([i] * len(cut.cols))
                cols.extend(cut.cols)
                vals.extend(cut.coefs)
            cm = sp.coo_matrix((vals, (rows, cols)), shape=(len(self.cuts), self.model.ncols))
            a_ub = sp.vstack([a_ub, cm], format="csr")
            b_ub = np.concatenate([b_ub, [c.rhs for c in self.cuts]])
        options = dict(_HIGHS_OPTIONS)
        if self.deadline is not None:
            options["time_limit"] = max(0.0, self.deadline - time.monotonic())
        res = linprog(
            c=self.c,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=self.a_eq,
            b_eq=self.b_eq,
            bounds=np.column_stack((lb, ub)),
            method="highs",
            options=options,
        )
        if res.status == 0:
            return LpResult(status="optimal", x=res.x, objective=float(-res.fun))
        if res.status == 2:
            return _INFEASIBLE
        if res.status == 3:
            return LpResult(status="unbounded", x=None, objective=np.inf)
        return LpResult(status="error", x=None, objective=-np.inf)


def infeasibility_hint(model: LinearModel) -> str:
    """Row families and column bounds of one IIS of the model's rows."""
    if _Highs is None:
        return ""
    m = model.matrix().tocsr()
    h = _Highs()
    h.setOptionValue("output_flag", False)
    h.passModel(
        model.ncols,
        model.nrows,
        m.nnz,
        int(MatrixFormat.kRowwise),
        1,  # minimize a zero objective: only feasibility matters
        0.0,
        np.zeros(model.ncols),
        model.col_lb.astype(float),
        model.col_ub.astype(float),
        np.where(model.sense == SENSE_LE, -np.inf, model.rhs).astype(float),
        np.where(model.sense == SENSE_GE, np.inf, model.rhs).astype(float),
        m.indptr.astype(np.int32),
        m.indices.astype(np.int32),
        m.data.astype(float),
        np.zeros(model.ncols, dtype=np.int32),
    )
    iis = HighsIis()
    h.getIis(iis)
    if not iis.valid or not (len(iis.row_index) or len(iis.col_index)):
        return "HiGHS found no irreducible infeasible subset"
    families = list(dict.fromkeys(model.families[i] for i in iis.row_index))
    columns = [model.catalog.name_of(j) for j in iis.col_index]
    return (
        f"irreducible infeasible subset: rows of {', '.join(families) or 'no family'}; "
        f"bounds of {', '.join(columns) or 'no column'}"
    )
