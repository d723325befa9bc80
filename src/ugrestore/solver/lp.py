"""The LP relaxation, reached only through :class:`LpBackend`.

A backend loads one instance of the HiGHS that scipy bundles with the
model restricted to its column bounds plus a set of base fixings
(:meth:`LinearModel.restrict`): fixed columns are substituted into the row
bounds and a constant objective offset, a row with one non-fixed column
becomes bounds on it, and a row that its activity bounds prove redundant
is dropped.  These are exact primal reductions, with no dual ones, so the
restriction holds for any objective and any valid cut; a restriction that
removes nothing is the same code.  The greedy warm start gives a backend
its skeleton; the search gives it nothing beyond the model's bounds, which
hold at every node.  Points come back as full vectors, and the objective
as the full model's (the constant is the ``passModel`` offset).  When the
propagation proves the bounds inconsistent, the backend loads the whole
model, so ``infeasible`` is always a verdict of HiGHS on an LP, and
:func:`infeasibility_hint` names an IIS of the full model.

The backend owns everything that changes between solves:

- the fixings: ``solve(fixes)`` pins them on the kept columns and pushes
  only the column bounds that moved since the last solve; a fixing outside
  the restriction's bounds (on an eliminated column: different from its
  value) is ``infeasible`` without running an LP;
- the outer-approximation cut pool: ``add_cuts`` takes one round's cuts, at
  most one per cone, appends the rows of the new ones in one HiGHS call and
  keeps at most ``CUTS_PER_CONE`` cuts per cone; on a full cone the new cut
  rewrites, in place, the row of the cut with the most slack at the point it
  separates, so the cuts that hold that point stay and the separation loops
  do not cycle.  Every cut is valid for the full model, so any subset keeps
  the relaxation a bound.  The pool is kept over the full model's columns,
  so eviction reads the full point; the row HiGHS holds for a cut has its
  terms on eliminated columns moved into the right-hand side;
- the deadline: HiGHS compares its time limit with the instance's cumulative
  run time, so it gets that run time plus the seconds left; an LP cut off by
  it ends as ``error``.

Every LP is a dual simplex re-solve from the last basis.  Warm-started
primal values can drift past the tolerance HiGHS reports, so a result is
accepted only if it is optimal and its point meets every row and column
bound HiGHS holds within ``MAX_ROW_RESIDUAL`` (the column bounds too, since
the restriction turned rows into them).  Otherwise HiGHS is handed back the
basis it ended on (``setBasis(getBasis())``), which refactorizes that basis
and recomputes the point from it, and runs again; that fixes a drift or an ``Unknown`` in
a few iterations.  Only if that run fails too does the same instance run
once more from scratch, and that verdict is final (a drifted cold point is
an ``error``).  ``clear_basis`` makes the next solve start from scratch.

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
found by the same HiGHS, and :func:`read_lp` reads an exported MPS file
back into it.

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


def _add_rows(highs: _Highs, cuts: list[Cut]) -> None:
    """Append one row ``coefs . x[cols] <= rhs`` per cut."""
    starts = np.cumsum([0] + [len(c.cols) for c in cuts])[:-1]
    cols = np.array([j for c in cuts for j in c.cols])
    coefs = np.array([a for c in cuts for a in c.coefs], dtype=float)
    _add_block(highs, starts, cols, coefs, np.array([c.rhs for c in cuts], dtype=float))


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
    def __init__(
        self, model: LinearModel, deadline: float | None = None, fixes: dict[int, float] | None = None
    ) -> None:
        self.model = model
        self.deadline = deadline  # time.monotonic() value, or None for no limit
        # base fixings outside the bounds restrict nothing; solve() then reports them infeasible
        bounds = _pinned(model.col_lb, model.col_ub, fixes) or (model.col_lb, model.col_ub)
        self.restriction = model.restrict(*bounds)
        self.cuts: list[Cut] = []  # cut k is row restriction.model.nrows + k
        self._cone_slots: dict[int, list[int]] = {}  # cone -> positions in cuts
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
        if self.cuts:
            _add_rows(self.highs, [self._mapped(cut) for cut in self.cuts])
        if self._basis is not None:
            _check(self.highs.setBasis(self._basis), "the basis")
            self._basis = None

    def _mapped(self, cut: Cut) -> Cut:
        """``cut`` over the restricted columns: its terms on eliminated columns move to the rhs.

        A column the model does not have maps past the restricted ones, for
        HiGHS to refuse.
        """
        pos, cols, coefs, rhs = self.restriction.pos, [], [], cut.rhs
        for col, coef in zip(cut.cols, cut.coefs):
            j = pos[col] if 0 <= col < len(pos) else self.restriction.model.ncols
            if j < 0:
                rhs -= coef * self.restriction.fixed[col]
            else:
                cols.append(j)
                coefs.append(coef)
        return Cut(tuple(cols), tuple(coefs), rhs)

    def release(self) -> None:
        """Drop the HiGHS instance; the next solve or add_cuts reloads it from the basis."""
        if self.highs is not None:
            basis = self.highs.getBasis()
            self._basis = basis if basis.valid else None
            self.highs = None

    def add_cuts(self, cuts: list[tuple[int, Cut]], x: np.ndarray) -> None:
        """Add ``(cone, cut)`` pairs taken at the full point ``x``, at most one per cone.

        The rows of the cuts that take a free slot are appended in one HiGHS
        call, in the order given; a full cone drops its slackest cut at ``x``,
        whose row the new cut rewrites in place.
        """
        if len({idx for idx, _ in cuts}) < len(cuts):
            raise ValueError("a batch of cuts holds at most one cut per cone")
        if self.highs is None:
            self._load()
        fresh = [cut for idx, cut in cuts if len(self._cone_slots.get(idx, ())) < CUTS_PER_CONE]
        if fresh:
            _add_rows(self.highs, [self._mapped(cut) for cut in fresh])
        for idx, cut in cuts:
            slots = self._cone_slots.setdefault(idx, [])
            if len(slots) < CUTS_PER_CONE:  # a fresh cut, its row already appended
                slots.append(len(self.cuts))
                self.cuts.append(cut)
                continue
            held = [self.cuts[pos] for pos in slots]
            slack = [c.rhs - np.dot(c.coefs, x[list(c.cols)]) for c in held]
            pos = slots[int(np.argmax(slack))]
            row = self.restriction.model.nrows + pos
            old, new = self._mapped(self.cuts[pos]), self._mapped(cut)
            gone = [(col, 0.0) for col in set(old.cols) - set(new.cols)]
            for col, coef in gone + list(zip(new.cols, new.coefs)):
                _check(self.highs.changeCoeff(row, col, coef), "a cut coefficient")
            _check(self.highs.changeRowBounds(row, -np.inf, new.rhs), "a cut bound")
            self.cuts[pos] = cut

    def clear_basis(self) -> None:
        """The next solve runs from scratch, not from the last basis."""
        self._basis = None
        if self.highs is not None:
            self.highs.clearSolver()

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


def read_lp(path):
    """The model HiGHS reads from an MPS file, as its ``HighsLp`` (column-wise matrix)."""
    h = _Highs()
    h.setOptionValue("output_flag", False)
    _check(h.readModel(str(path)), f"reading {path}")
    return h.getLp()
