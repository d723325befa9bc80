"""The LP relaxation, reached only through :class:`LpBackend`.

A backend loads the model rows once into one instance of the HiGHS that
scipy bundles, and owns everything that changes between solves:

- the fixings: ``solve(fixes)`` pins them and pushes only the column bounds
  that moved since the last solve; a fixing outside the column bounds is
  ``infeasible`` without running an LP;
- the outer-approximation cut pool: ``add_cut`` appends a row and keeps at
  most ``CUTS_PER_CONE`` cuts per cone; on a full cone the new cut rewrites,
  in place, the row of the cut with the most slack at the point it
  separates, so the cuts that hold that point stay and the separation loops
  do not cycle.  Every cut is valid for the full model, so any subset keeps
  the relaxation a bound;
- the deadline: HiGHS compares its time limit with the instance's cumulative
  run time, so it gets that run time plus the seconds left; an LP cut off by
  it ends as ``error``.

Every LP is a dual simplex re-solve from the last basis.  Warm-started
primal values can drift past the tolerance HiGHS reports, so a result is
accepted only if it is optimal and its point meets every model row within
``MAX_ROW_RESIDUAL``.  Otherwise the same instance runs once more from
scratch, and that verdict is final (a drifted cold point is an ``error``).

The greedy warm start owns one backend; the search owns another, which the
diver borrows.  :func:`infeasibility_hint` names an irreducible infeasible
subset (IIS) found by the same HiGHS.

:func:`linprog` is the one HiGHS run; it keeps that name because the
benchmark's ``lp.highs`` span wraps it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize._highspy._core import (  # private; a test pins every member used
    HighsIis,
    HighsModelStatus,
    HighsStatus,
    MatrixFormat,
    _Highs,
)

from ugrestore.model import SENSE_GE, SENSE_LE, LinearModel

_HIGHS_OPTIONS = {
    # cone refinement needs row residuals well below the default 1e-7
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-9,
    "simplex_dual_edge_weight_strategy": 1,  # Devex: measured faster than the default on reduced13
}

CUTS_PER_CONE = 8
MAX_ROW_RESIDUAL = 1e-9

_STATUS = {
    HighsModelStatus.kOptimal: "optimal",
    HighsModelStatus.kInfeasible: "infeasible",
    HighsModelStatus.kUnbounded: "unbounded",
}  # every other model status is an error


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
    nit: int = 0  # simplex iterations of the last HiGHS run

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


_INFEASIBLE = LpResult(status="infeasible", x=None, objective=-np.inf)


def _check(status: HighsStatus, what: str) -> None:
    """A model change HiGHS refused would leave its rows out of step with the pool."""
    if status == HighsStatus.kError:
        raise RuntimeError(f"HiGHS refused {what}")


def _loaded(model: LinearModel, cost: np.ndarray) -> _Highs:
    """A quiet HiGHS instance holding the model's rows and bounds, minimizing ``cost``."""
    m = model.matrix()
    h = _Highs()
    h.setOptionValue("output_flag", False)
    status = h.passModel(
        model.ncols,
        model.nrows,
        m.nnz,
        int(MatrixFormat.kRowwise),
        1,  # minimize
        0.0,
        cost.astype(float),
        model.col_lb.astype(float),
        model.col_ub.astype(float),
        np.where(model.sense == SENSE_LE, -np.inf, model.rhs).astype(float),
        np.where(model.sense == SENSE_GE, np.inf, model.rhs).astype(float),
        m.indptr.astype(np.int32),
        m.indices.astype(np.int32),
        m.data.astype(float),
        np.zeros(model.ncols, dtype=np.int32),
    )
    _check(status, "the model")
    return h


def linprog(highs: _Highs, time_limit: float) -> LpResult:
    """One HiGHS run of the loaded instance, stopped at cumulative run time ``time_limit``."""
    highs.setOptionValue("time_limit", time_limit)
    highs.run()
    info = highs.getInfo()
    status = _STATUS.get(highs.getModelStatus(), "error")
    nit = int(info.simplex_iteration_count)
    if status == "optimal":
        x = np.array(highs.getSolution().col_value)
        return LpResult(status, x, -info.objective_function_value, nit)  # HiGHS minimizes -obj
    return LpResult(status, None, np.inf if status == "unbounded" else -np.inf, nit)


class LpBackend:
    def __init__(self, model: LinearModel, deadline: float | None = None) -> None:
        self.model = model
        self.deadline = deadline  # time.monotonic() value, or None for no limit
        self.cuts: list[Cut] = []  # cut k is row model.nrows + k
        self._cone_slots: dict[int, list[int]] = {}  # cone -> positions in cuts
        self._lb = model.col_lb.astype(float)  # the column bounds HiGHS holds
        self._ub = model.col_ub.astype(float)
        self.highs = _loaded(model, -model.obj)
        for name, value in _HIGHS_OPTIONS.items():
            self.highs.setOptionValue(name, value)

    def add_cut(self, cone_idx: int, cut: Cut, x: np.ndarray) -> None:
        """Add ``cut``, which separates ``x``; a full cone drops its slackest cut at ``x``."""
        slots = self._cone_slots.setdefault(cone_idx, [])
        if len(slots) < CUTS_PER_CONE:
            cols = np.array(cut.cols, dtype=np.int32)
            coefs = np.array(cut.coefs, dtype=float)
            _check(self.highs.addRow(-np.inf, cut.rhs, len(cols), cols, coefs), "a cut row")
            slots.append(len(self.cuts))
            self.cuts.append(cut)
            return
        held = [self.cuts[pos] for pos in slots]
        slack = [c.rhs - np.dot(c.coefs, x[list(c.cols)]) for c in held]
        pos = slots[int(np.argmax(slack))]
        row = self.model.nrows + pos
        old = [(col, 0.0) for col in set(self.cuts[pos].cols) - set(cut.cols)]
        for col, coef in old + list(zip(cut.cols, cut.coefs)):
            _check(self.highs.changeCoeff(row, col, coef), "a cut coefficient")
        _check(self.highs.changeRowBounds(row, -np.inf, cut.rhs), "a cut bound")
        self.cuts[pos] = cut

    def solve(self, fixes: dict[int, float] | None = None) -> LpResult:
        """Relaxation with ``fixes`` (column -> value) pinned, over the rows and the cut pool."""
        lb = self.model.col_lb.astype(float)
        ub = self.model.col_ub.astype(float)
        for col, val in (fixes or {}).items():
            if val < lb[col] - 1e-9 or val > ub[col] + 1e-9:
                return _INFEASIBLE
            lb[col] = val
            ub[col] = val
        moved = np.flatnonzero((lb != self._lb) | (ub != self._ub))
        if moved.size:
            status = self.highs.changeColsBounds(
                moved.size, moved.astype(np.int32), lb[moved], ub[moved]
            )
            _check(status, "the column bounds")
            self._lb, self._ub = lb, ub
        res = self._run()
        if not res.ok:  # drifted, Unknown or any other verdict: once more from scratch
            self.highs.clearSolver()
            res = self._run()
        return res

    def _run(self) -> LpResult:
        limit = np.inf
        if self.deadline is not None:
            limit = self.highs.getRunTime() + max(0.0, self.deadline - time.monotonic())
        res = linprog(self.highs, limit)
        if res.ok and -self.model.row_residuals(res.x).min(initial=0.0) > MAX_ROW_RESIDUAL:
            return LpResult(status="error", x=None, objective=-np.inf, nit=res.nit)
        return res


def infeasibility_hint(model: LinearModel) -> str:
    """Row families and column bounds of one IIS of the model's rows."""
    h = _loaded(model, np.zeros(model.ncols))  # only feasibility matters
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
