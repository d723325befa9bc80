"""The LP relaxation, reached only through :class:`LpBackend`.

A backend loads one instance of the HiGHS that scipy bundles with the
model restricted to its column bounds plus a set of base fixings
(:meth:`LinearModel.restrict`): fixed columns are substituted into the row
bounds and a constant objective offset, a row with one non-fixed column
becomes bounds on it, a row that its activity bounds prove redundant is
dropped, and rows equal up to sign are merged, a pair whose bounds meet
into one equality.  These are exact primal reductions, with no dual ones,
so the restriction holds for any objective and any valid cut; a
restriction that removes nothing is the same code.  The greedy warm start
gives a backend its skeleton; the search gives it nothing beyond the
model's bounds, which hold at every node.  Points come back as full
vectors, and the objective as the full model's (the constant is the
``passModel`` offset).  When the propagation proves the bounds
inconsistent, the backend loads the whole model, so ``infeasible`` is
always the verdict of an LP (of HiGHS, or of :func:`linprog` on one with
no column left), and :func:`infeasibility_hint` names an IIS of the full
model.

The backend owns everything that changes between solves:

- the fixings: ``solve(fixes)`` pins them on the kept columns and pushes
  only the column bounds that moved since the last solve; a fixing outside
  the restriction's bounds (on an eliminated column: different from its
  value) is ``infeasible`` without running an LP;
- the outer-approximation cut pool: a cut is a cone, four coefficients on
  that cone's (I, V, P, Q) columns and a right-hand side (see the cuts
  module), and the pool is three parallel arrays of them, ``cut_cone``,
  ``cut_coefs`` and ``cut_rhs``, plus a table of each cone's slots in them.
  ``add_cuts`` takes one round's cuts, at most one per cone, appends the
  rows of the new ones in one HiGHS call and keeps at most
  ``CUTS_PER_CONE`` cuts per cone; on a full cone the new cut rewrites, in
  place, the row of the cut with the most slack at the point it separates,
  so the cuts that hold that point stay and the separation loops do not
  cycle.  Every cut is valid for the full model, so any subset keeps the
  relaxation a bound.  The pool is kept over the full model's columns, so
  eviction reads the full point; the row HiGHS holds for a cut has its
  terms on eliminated columns moved into the right-hand side;
- the deadline: HiGHS compares its time limit with the instance's cumulative
  run time, so it gets that run time plus the seconds left; an LP cut off by
  it ends as ``error``.

Every LP is a dual simplex re-solve from the last basis, on the unscaled
LP (``simplex_scale_strategy`` 0).  On workload seeds 0-31 of both
``reduced13`` workloads, scaling made 45 first runs refused, and 72 once the
paired rows were merged; unscaled and merged, none was.  Warm-started
primal values can drift past the tolerance HiGHS reports, so a result is
accepted only if it is optimal and its point meets every row and column
bound HiGHS holds within ``MAX_ROW_RESIDUAL`` (the column bounds too, since
the restriction turned rows into them).  Otherwise HiGHS is handed back the
basis it ended on (``setBasis(getBasis())``), which refactorizes that basis
and recomputes the point from it, and runs again; that fixes a drift or an ``Unknown`` in
a few iterations.  Only if that run fails too does the same instance run
once more from scratch, and that verdict is final (a drifted cold point is
an ``error``).

The greedy warm start builds one backend per skeleton; the search owns
another, which the diver borrows.  ``release()`` drops the HiGHS instance
but keeps the restriction, the cut pool and the basis; the next ``solve`` or
``add_cuts`` reloads the restricted model and the pool rows and restores the
basis, so the search can free its instance while another one runs.

:func:`master_bound` solves the full model once as a MIP, with a block of
cut rows in place of the cone rows, and returns its MIP dual bound; file
descriptor 1 is silenced during that run (:func:`quiet_stdout`), because
the HiGHS MIP solver prints there even with ``output_flag`` off.  Given a stop target, a
``kCallbackMipInterrupt`` callback ends the run as soon as the dual bound
reaches it; the dual bound of a MIP search bounds every node still open,
so one read before the end is a bound as much as the final one.

:func:`infeasibility_hint` names an irreducible infeasible subset (IIS)
found by the same HiGHS.

:func:`linprog` is the one HiGHS run; it keeps that name because the
benchmark's ``lp.highs`` span wraps it.
"""

from __future__ import annotations

import ctypes
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize._highspy._core import (  # private; a test pins every member used
    HighsIis,
    HighsModelStatus,
    HighsStatus,
    MatrixFormat,
    _Highs,
    cb,
)

from ugrestore.model import SENSE_GE, SENSE_LE, LinearModel

_HIGHS_OPTIONS = {
    # cone refinement needs row residuals well below the default 1e-7
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-9,
    "simplex_dual_edge_weight_strategy": 1,  # Devex: measured faster than the default on reduced13
    # no scaling: on workload seeds 0-31 of both reduced13 workloads (scripts/seed_sweep.py),
    # with the paired rows merged, HiGHS refused 72 first runs scaled and none unscaled
    "simplex_scale_strategy": 0,
}

_MASTER_OPTIONS = {
    "mip_rel_gap": 1e-4,
    "mip_pool_soft_limit": 100,  # measured on reduced13: +21 MB of RSS against +36 MB
}

CUTS_PER_CONE = 8
MAX_ROW_RESIDUAL = 1e-9

_STATUS = {
    HighsModelStatus.kOptimal: "optimal",
    HighsModelStatus.kInfeasible: "infeasible",
    HighsModelStatus.kUnbounded: "unbounded",
}  # every other model status is an error


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


def _loaded(model: LinearModel, cost: np.ndarray, offset: float = 0.0) -> _Highs:
    """A quiet HiGHS instance holding the model's rows and bounds, minimizing ``cost`` + ``offset``."""
    m = model.matrix()
    h = _Highs()
    h.setOptionValue("output_flag", False)
    status = h.passModel(
        model.ncols,
        model.nrows,
        m.nnz,
        int(MatrixFormat.kRowwise),
        1,  # minimize
        offset,
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


def _pinned(lb: np.ndarray, ub: np.ndarray, fixes: dict[int, float]):
    """Copies of the bounds with ``fixes`` (column -> value) pinned; None if one lies outside them."""
    lb, ub = lb.astype(float), ub.astype(float)
    if fixes:
        cols = np.fromiter(fixes.keys(), dtype=np.int64, count=len(fixes))
        vals = np.fromiter(fixes.values(), dtype=float, count=len(fixes))
        if np.any(vals < lb[cols] - 1e-9) or np.any(vals > ub[cols] + 1e-9):
            return None
        lb[cols] = vals
        ub[cols] = vals
    return lb, ub


def _add_block(highs: _Highs, starts, cols, coefs: np.ndarray, rhs: np.ndarray) -> None:
    """Append row ``i`` as ``coefs[k] . x[cols[k]] <= rhs[i]``, k from ``starts[i]`` (HiGHS drops zero coefficients)."""
    n = rhs.size
    status = highs.addRows(
        n, np.full(n, -np.inf), rhs, len(cols), np.asarray(starts, np.int32), np.asarray(cols, np.int32), coefs
    )
    _check(status, "a cut row")


def _c_fflush() -> None:
    """Flush C's stdio buffers, where the C library can be loaded by ``CDLL(None)``."""
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):  # Windows has no CDLL(None)
        return
    libc.fflush(None)


@contextmanager
def quiet_stdout():
    """File descriptor 1 goes to the null device for the block.

    The HiGHS MIP solver prints some lines to stdout even with
    ``output_flag`` off; C-level buffers are flushed on both sides, so
    nothing written inside the block leaks out after it.  Where the C
    library cannot be loaded, only Python's buffer is flushed.
    """
    sys.stdout.flush()
    _c_fflush()
    saved = os.dup(1)
    null = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(null, 1)
        yield
    finally:
        sys.stdout.flush()
        _c_fflush()
        os.dup2(saved, 1)
        os.close(null)
        os.close(saved)


def master_bound(
    model: LinearModel, seeds: tuple[sp.csr_matrix, np.ndarray], time_limit: float, stop_at: float = -np.inf
) -> float:
    """Upper bound from the MIP over the model rows and the rows ``seeds``, binaries integral.

    ``seeds`` is a CSR block of ``<=`` rows and their right-hand sides, as
    :func:`cuts.seed_tangents` builds them.  With valid cone cuts in place
    of the cone rows this is an outer-approximation master (Duran &
    Grossmann 1986): its MIP dual bound bounds the model.  Only an optimal
    or time-limited run with a finite dual bound yields one; any other
    outcome is +inf.

    ``model`` is the full model, never a :meth:`LinearModel.restrict` of it
    as that stands: the restriction can leave a binary at bounds such as
    [0.2308, 1].  On ``reduced13`` with swap and gate (workload seed 1),
    HiGHS 1.12's MIP presolve calls such a 6,471-row restriction infeasible,
    which here reads as +inf; with presolve off it solves to 1.2420929, the
    full model's MIP optimum, and with the binary bounds rounded and the
    restriction redone it solves correctly at 5,550 rows.

    ``stop_at`` is a target: a ``kCallbackMipInterrupt`` callback stops the
    run as soon as the MIP dual bound reaches it, and that dual bound is
    returned.  At every moment of the MIP search the dual bound is the best
    bound of the nodes still open, so the one at the stop bounds the model as
    the final one does; it is at most ``stop_at`` and may sit above the
    master's own optimum.  An interrupt the callback did not ask for yields
    +inf.  The default, -inf, never stops the run.
    """
    h = _loaded(model, -model.obj)
    binary = np.flatnonzero(model.col_binary).astype(np.int32)
    status = h.changeColsIntegrality(binary.size, binary, np.ones(binary.size, dtype=np.uint8))
    _check(status, "the integrality")
    rows, rhs = seeds
    if rhs.size:
        _add_block(h, rows.indptr[:-1], rows.indices, rows.data, rhs)
    for name, value in _MASTER_OPTIONS.items():
        h.setOptionValue(name, value)
    h.setOptionValue("time_limit", max(0.0, time_limit))
    stopped = []  # the bound at which the callback interrupted the run

    def interrupt(kind, message, out, into, data):
        if -out.mip_dual_bound <= stop_at:  # of the minimized -obj
            stopped.append(-out.mip_dual_bound)
            into.user_interrupt = True

    _check(h.setCallback(interrupt, None), "the callback")
    _check(h.startCallback(cb.HighsCallbackType.kCallbackMipInterrupt), "the callback")
    with quiet_stdout():
        h.run()
    if h.getModelStatus() == HighsModelStatus.kInterrupt:
        return stopped[-1] if stopped else np.inf
    dual = h.getInfo().mip_dual_bound  # of the minimized -obj
    ok = h.getModelStatus() in (HighsModelStatus.kOptimal, HighsModelStatus.kTimeLimit)
    return -dual if ok and np.isfinite(dual) else np.inf


def linprog(highs: _Highs, time_limit: float) -> LpResult:
    """One HiGHS run of the loaded instance, stopped at cumulative run time ``time_limit``.

    An instance with no column (a restriction that fixed them all) is not
    run: HiGHS would call it empty without reading its rows or its offset.
    It is ``optimal`` at the offset if 0 meets every row's bounds, else
    ``infeasible``.
    """
    if highs.getNumCol() == 0:
        lp = highs.getLp()
        if np.all(np.asarray(lp.row_lower_) <= 0.0) and np.all(np.asarray(lp.row_upper_) >= 0.0):
            return LpResult("optimal", np.zeros(0), -lp.offset_)
        return _INFEASIBLE
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
    def __init__(
        self, model: LinearModel, deadline: float | None = None, fixes: dict[int, float] | None = None
    ) -> None:
        self.model = model
        self.deadline = deadline  # time.monotonic() value, or None for no limit
        # base fixings outside the bounds restrict nothing; solve() then reports them infeasible
        bounds = _pinned(model.col_lb, model.col_ub, fixes) or (model.col_lb, model.col_ub)
        self.restriction = model.restrict(*bounds)
        # the cut pool: cut k is row restriction.model.nrows + k
        self.cut_cone = np.zeros(0, dtype=np.int64)
        self.cut_coefs = np.zeros((0, 4))
        self.cut_rhs = np.zeros(0)
        self._slots = np.full((len(model.cones), CUTS_PER_CONE), -1)  # cone -> its cuts, -1 past the last
        self._basis = None  # kept by release()
        self._load()

    def _load(self) -> None:
        """A HiGHS instance holding the restriction, the cut pool and the basis kept by release()."""
        sub = self.restriction.model
        self.highs = _loaded(sub, -sub.obj, -self.restriction.offset)
        for name, value in _HIGHS_OPTIONS.items():
            self.highs.setOptionValue(name, value)
        self._lb = sub.col_lb.astype(float)  # the column bounds HiGHS holds
        self._ub = sub.col_ub.astype(float)
        self._append(self.cut_cone, self.cut_coefs, self.cut_rhs)
        if self._basis is not None:
            _check(self.highs.setBasis(self._basis), "the basis")
            self._basis = None

    def _restricted(self, cone: np.ndarray, coefs: np.ndarray, rhs: np.ndarray):
        """The restricted column of each cut term (-1 if eliminated) and the right-hand sides HiGHS holds.

        A term on an eliminated column moves into the right-hand side, term
        by term in the order (I, V, P, Q).
        """
        cols = self.model.cones[cone]
        pos = self.restriction.pos[cols]
        gone = pos < 0
        shift = np.zeros_like(coefs)
        shift[gone] = coefs[gone] * self.restriction.fixed[cols[gone]]
        for k in range(4):
            rhs = rhs - shift[:, k]
        return pos, rhs

    def _append(self, cone: np.ndarray, coefs: np.ndarray, rhs: np.ndarray) -> None:
        """Append the rows of the cuts to HiGHS in one call, in order (:meth:`_restricted`)."""
        if rhs.size:
            pos, rhs = self._restricted(cone, coefs, rhs)
            kept = pos >= 0
            count = kept.sum(axis=1)
            _add_block(self.highs, np.cumsum(count) - count, pos[kept], coefs[kept], rhs)

    def release(self) -> None:
        """Drop the HiGHS instance; the next solve or add_cuts reloads it from the basis."""
        if self.highs is not None:
            basis = self.highs.getBasis()
            self._basis = basis if basis.valid else None
            self.highs = None

    def add_cuts(self, cone, coefs, rhs, x: np.ndarray) -> None:
        """Add the cuts ``coefs[k] . (I, V, P, Q) of cone[k] <= rhs[k]``, taken at the full point ``x``.

        A batch holds at most one cut per cone.  The rows of the cuts that
        take a free slot are appended in one HiGHS call, in the order given;
        a full cone drops its slackest cut at ``x``, whose row the new cut
        rewrites in place.
        """
        cone = np.asarray(cone, dtype=np.int64)
        coefs = np.asarray(coefs, dtype=float).reshape(-1, 4)
        rhs = np.asarray(rhs, dtype=float)
        if np.unique(cone).size < cone.size:
            raise ValueError("a batch of cuts holds at most one cut per cone")
        if self.highs is None:
            self._load()
        held = (self._slots[cone] >= 0).sum(axis=1)
        fresh = held < CUTS_PER_CONE
        self._append(cone[fresh], coefs[fresh], rhs[fresh])
        n = self.cut_rhs.size
        self._slots[cone[fresh], held[fresh]] = np.arange(n, n + int(fresh.sum()))
        self.cut_cone = np.concatenate([self.cut_cone, cone[fresh]])
        self.cut_coefs = np.concatenate([self.cut_coefs, coefs[fresh]])
        self.cut_rhs = np.concatenate([self.cut_rhs, rhs[fresh]])
        full = ~fresh
        if not full.any():
            return
        cone, coefs, rhs = cone[full], coefs[full], rhs[full]
        slots = self._slots[cone]  # the cuts of each full cone, which share its columns
        at = x[self.model.cones[cone]]
        slack = self.cut_rhs[slots] - (self.cut_coefs[slots] * at[:, None, :]).sum(axis=2)
        evicted = slots[np.arange(cone.size), np.argmax(slack, axis=1)]
        pos, mapped = self._restricted(cone, coefs, rhs)
        for slot, cols, row_coefs, side in zip(evicted.tolist(), pos.tolist(), coefs.tolist(), mapped.tolist()):
            row = self.restriction.model.nrows + slot
            for col, coef in zip(cols, row_coefs):
                if col >= 0:
                    _check(self.highs.changeCoeff(row, col, coef), "a cut coefficient")
            _check(self.highs.changeRowBounds(row, -np.inf, side), "a cut bound")
        self.cut_coefs[evicted] = coefs
        self.cut_rhs[evicted] = rhs

    def solve(self, fixes: dict[int, float] | None = None) -> LpResult:
        """Relaxation with ``fixes`` (column -> value) pinned, over the rows and the cut pool."""
        bounds = _pinned(self.restriction.col_lb, self.restriction.col_ub, fixes)
        if bounds is None:
            return _INFEASIBLE
        keep = self.restriction.keep
        lb, ub = bounds[0][keep], bounds[1][keep]
        if self.highs is None:
            self._load()
        moved = np.flatnonzero((lb != self._lb) | (ub != self._ub))
        if moved.size:
            status = self.highs.changeColsBounds(
                moved.size, moved.astype(np.int32), lb[moved], ub[moved]
            )
            _check(status, "the column bounds")
            self._lb, self._ub = lb, ub
        res = self._run()
        if not res.ok:  # drifted, Unknown or any other verdict: refactorize the basis it ended on
            basis = self.highs.getBasis()
            if basis.valid:
                _check(self.highs.setBasis(basis), "the basis")
                res = self._run()
        if not res.ok:  # once more from scratch, a final verdict
            self.highs.clearSolver()
            res = self._run()
        return res

    def _run(self) -> LpResult:
        limit = np.inf
        if self.deadline is not None:
            limit = self.highs.getRunTime() + max(0.0, self.deadline - time.monotonic())
        res = linprog(self.highs, limit)
        if not res.ok:
            return res
        x = res.x
        slack = self.restriction.model.row_residuals(x).min(initial=0.0)
        slack = min(slack, (x - self._lb).min(initial=0.0), (self._ub - x).min(initial=0.0))
        if -slack > MAX_ROW_RESIDUAL:  # a row or column bound HiGHS holds, missed
            return LpResult(status="error", x=None, objective=-np.inf, nit=res.nit)
        return LpResult(res.status, self.restriction.expand(x), res.objective, res.nit)


def infeasibility_hint(model: LinearModel) -> str:
    """Row families and column bounds of one IIS of the model's rows.

    The IIS is one of the LP relaxation.  Without one, the hint says
    whether that relaxation solves: if it does, only integrality makes the
    model infeasible.
    """
    h = _loaded(model, np.zeros(model.ncols))  # only feasibility matters
    iis = HighsIis()
    h.getIis(iis)
    if not iis.valid or not (len(iis.row_index) or len(iis.col_index)):
        h.run()
        if h.getModelStatus() == HighsModelStatus.kOptimal:
            return "the LP relaxation is feasible: only integrality makes the model infeasible"
        return "HiGHS found no irreducible infeasible subset"
    families = list(dict.fromkeys(model.family_names[model.family[i]] for i in iis.row_index))
    columns = [model.catalog.name_of(j) for j in iis.col_index]
    return (
        f"irreducible infeasible subset: rows of {', '.join(families) or 'no family'}; "
        f"bounds of {', '.join(columns) or 'no column'}"
    )

