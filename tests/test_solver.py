import ctypes
import dataclasses
import functools
import itertools
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import add_row, cone_toy, load_minimal, row_families, shipped_case, shipped_case_names, shipped_doc
from enum_oracle import _lp_with_cones, exhaustive_solve
from ugrestore.catalog import VariableCatalog
from ugrestore.feeder import load_case_dict
from ugrestore.formulation import BuildOptions, build_model
from ugrestore.model import SENSE_EQ, SENSE_GE, SENSE_LE, ModelBuilder, Violation
from ugrestore.physics import PERMUTATIONS
from ugrestore.plan import RestorationPlan
from ugrestore.solver import (
    SolverOptions,
    greedy_warm_start,
    make_diver,
    solve,
)
from ugrestore.solver import bnb, lp, warmstart
from ugrestore.solver.cuts import (
    SNAP,
    NoCutError,
    cone_violations,
    incumbent_tangents,
    seed_tangents,
    soc_cut,
    tangent,
    unit_tangents,
)
from ugrestore.solver.lp import CUTS_PER_CONE, HighsModelStatus, LpBackend, LpResult
from ugrestore.validator import check_plan

EXACT = SolverOptions(time_limit_s=120, rel_gap=0.0, abs_gap=1e-11, oa_tol=1e-9, oa_search_tol=1e-8)


class TestLpRelax:
    def test_bounds_only(self):
        cat = VariableCatalog()
        cat.add_group("x", [0], lb=0.0, ub=3.0)
        b = ModelBuilder(cat)
        b.add_obj(cat.col("x", 0), 1.0)
        model = b.build({})
        res = LpBackend(model).solve()
        assert res.ok and res.objective == pytest.approx(3.0)

    def test_inconsistent_fixing_prunes(self):
        cat = VariableCatalog()
        cat.add_group("x", [0], binary=True)
        b = ModelBuilder(cat)
        model = b.build({})
        res = LpBackend(model).solve({0: 2.0})
        assert res.status == "infeasible"

    def test_degenerate_determinism(self):
        cat = VariableCatalog()
        cat.add_group("x", [0, 1], lb=0.0, ub=1.0)
        b = ModelBuilder(cat)
        add_row(b, "cap", [(0, 1.0), (1, 1.0)], SENSE_LE, 1.0)
        b.add_obj(0, 1.0)
        b.add_obj(1, 1.0)
        model = b.build({})
        xs = [LpBackend(model).solve().x for _ in range(3)]
        for x in xs[1:]:
            assert np.array_equal(x, xs[0])


class TestLpBackend:
    def test_cut_pool_capped_per_cone_drops_slackest(self):
        cat, model = cone_toy()
        backend = LpBackend(model)
        x = np.zeros(model.ncols)  # every cut below, I <= rhs, has slack rhs at x
        on_i = (1.0, 0.0, 0.0, 0.0)
        rhs = [0.0] + [4.0 + (3 * k) % CUTS_PER_CONE for k in range(CUTS_PER_CONE - 1)]
        for r in rhs:
            backend.add_cuts([0], [on_i], [r], x)
        new = [1.0 + k for k in range(3)]
        for r in new:
            backend.add_cuts([0], [on_i], [r], x)
        # each new cut took the place of the slackest one at x, largest rhs first;
        # the oldest cut is binding at x and stays
        want = list(rhs)
        for r, pos in zip(new, sorted(range(CUTS_PER_CONE), key=lambda k: -rhs[k])):
            want[pos] = r
        assert backend.cut_rhs.tolist() == want and want[0] == 0.0
        assert backend.cut_cone.tolist() == [0] * CUTS_PER_CONE and np.all(backend.cut_coefs == on_i)
        assert backend.highs.getLp().row_upper_[backend.restriction.model.nrows :] == want
        assert backend.solve().ok

    def test_refused_cut_row_raises_and_stays_out_of_the_pool(self):
        cat, model = cone_toy()
        backend = LpBackend(model)
        with pytest.raises(RuntimeError, match="refused a cut row"):
            backend.add_cuts([0], [(np.inf, 0.0, 0.0, 0.0)], [1.0], np.zeros(model.ncols))
        assert backend.cut_rhs.size == 0 and backend.highs.getNumRow() == backend.restriction.model.nrows
        assert np.all(backend._slots == -1)

    def test_fixing_outside_bounds_runs_no_lp(self, monkeypatch):
        cat, model = cone_toy()

        def no_lp(*args, **kwargs):
            raise AssertionError("an inconsistent fixing must not reach HiGHS")

        monkeypatch.setattr(lp, "linprog", no_lp)
        assert LpBackend(model).solve({cat.col("v", 0): 2.0}).status == "infeasible"

    def test_deadline_becomes_highs_time_limit(self, monkeypatch):
        cat, model = cone_toy()
        left = []  # seconds HiGHS may still run: its time limit less its run time so far
        real = lp.linprog

        def spy(highs, time_limit):
            left.append(time_limit - highs.getRunTime())
            return real(highs, time_limit)

        monkeypatch.setattr(lp, "linprog", spy)
        assert LpBackend(model).solve().ok
        assert left == [np.inf]  # no deadline, no limit
        backend = LpBackend(model, deadline=time.monotonic() + 5.0)
        assert backend.solve().ok and backend.solve({cat.col("v", 0): 1.0}).ok
        assert len(left) == 3 and all(0.0 < s <= 5.0 for s in left[1:])
        LpBackend(model, deadline=time.monotonic() - 1.0).solve()
        assert left[-1] == 0.0

    def test_no_retry_past_the_deadline(self, reduced13, monkeypatch):
        model = build_model(reduced13)
        limits = []
        real = lp.linprog
        monkeypatch.setattr(lp, "linprog", lambda highs, limit: limits.append(limit) or real(highs, limit))
        assert LpBackend(model, deadline=time.monotonic() - 1.0).solve().status == "error"
        assert len(limits) == 1  # the run the deadline cut off, retried neither warm nor cold

    def test_time_limit_counts_the_run_time_already_spent(self, reduced13):
        # HiGHS stops once its cumulative run time reaches time_limit, so a
        # backend that passed only the seconds left would stop this LP at once
        model = build_model(reduced13)
        backend = LpBackend(model)
        for _ in range(20):
            assert backend.solve().ok
            if backend.highs.getRunTime() > 0.4:
                break
            backend.highs.clearSolver()
        spent = backend.highs.getRunTime()
        col = int(model.free_binary_columns[0])
        flip = {col: 1.0 - round(backend.solve().x[col])}
        backend.deadline = time.monotonic() + spent / 2
        res = backend.solve(flip)
        assert res.status in ("optimal", "infeasible")
        assert backend.highs.getRunTime() > spent

    def test_warm_results_match_cold_on_reduced13(self, reduced13, monkeypatch):
        # one persistent backend against a fresh one per LP, over the greedy
        # warm start's fixings and cuts
        model = build_model(reduced13)
        real = LpBackend.solve
        pairs = []

        def both(self, fixes=None):
            warm = real(self, fixes)
            fresh = LpBackend(self.model)
            for k in range(self.cut_rhs.size):  # one at a time: same rows, same order
                fresh.add_cuts(self.cut_cone[k : k + 1], self.cut_coefs[k : k + 1], self.cut_rhs[k : k + 1], None)
            pairs.append((warm, real(fresh, fixes)))
            return warm

        monkeypatch.setattr(LpBackend, "solve", both)
        assert greedy_warm_start(model, reduced13) is not None
        assert len(pairs) > 10
        for warm, cold in pairs:
            assert warm.status == cold.status
            if warm.ok:
                assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-12)
                for res in (warm, cold):
                    assert -model.row_residuals(res.x).min() <= lp.MAX_ROW_RESIDUAL

    def test_drifted_warm_point_is_rerun_from_its_basis(self, monkeypatch):
        self._drift_is_rerun(monkeypatch, ("p",))  # the demand row over p alone is a bound on p

    def test_drifted_warm_point_on_a_held_row_is_rerun_from_its_basis(self, monkeypatch):
        self._drift_is_rerun(monkeypatch, ("p", "q"))  # over p and q a row HiGHS holds

    @staticmethod
    def _drift_is_rerun(monkeypatch, demand):
        cat, model = cone_toy(demand)
        backend = LpBackend(model)
        assert backend.restriction.model.nrows == len(demand) - 1
        assert backend.solve().ok
        backend.highs = spy = _HighsSpy(backend.highs)
        real = lp.linprog
        p = backend.restriction.pos[cat.col("p", 0)]

        def drift_once(highs, time_limit):
            res = real(highs, time_limit)
            if highs.calls.count("run") == 1:  # break the demand row by 1e-5
                res.x = res.x.copy()
                res.x[p] = 1.3 + 1e-5
            return res

        monkeypatch.setattr(lp, "linprog", drift_once)
        res = backend.solve()
        assert spy.calls.count("run") == 2 and "clearSolver" not in spy.calls
        assert spy.calls.index("run") < spy.calls.index("setBasis") < _last(spy.calls, "run")
        assert res.ok and -model.row_residuals(res.x).min() <= lp.MAX_ROW_RESIDUAL

    def test_unknown_warm_status_is_rerun_from_its_basis_then_cold(self):
        cat, model = cone_toy()
        backend = LpBackend(model)
        assert backend.solve().ok
        backend.highs = spy = _HighsSpy(backend.highs, HighsModelStatus.kUnknown)
        assert backend.solve().status == "error"  # the cold run said Unknown too
        runs = [k for k, name in enumerate(spy.calls) if name == "run"]
        assert len(runs) == 3
        assert runs[0] < spy.calls.index("setBasis") < runs[1]
        assert runs[1] < spy.calls.index("clearSolver") < runs[2]

    def test_batch_of_cuts_matches_cuts_one_at_a_time(self, reduced13):
        model = build_model(reduced13)
        one, batch = LpBackend(model), LpBackend(model)
        x = one.solve().x
        full = cone_violations(model, x, 1e-9)[0][0]
        seeds = unit_tangents(CUTS_PER_CONE)
        for backend in (one, batch):  # the worst violated cone's slots all taken
            for coefs, rhs in zip(*seeds):
                backend.add_cuts([full], [coefs], [rhs], x)
        cone, coefs, rhs = _round_of_cuts(model, x, 1e-9)
        assert cone.size > 1 and cone[0] == full
        for k in range(cone.size):
            one.add_cuts(cone[k : k + 1], coefs[k : k + 1], rhs[k : k + 1], x)
        batch.highs = spy = _HighsSpy(batch.highs)
        batch.add_cuts(cone, coefs, rhs, x)
        batch.highs = spy.highs
        assert spy.calls.count("addRows") == 1 and "changeCoeff" in spy.calls  # one eviction
        for name in ("cut_cone", "cut_coefs", "cut_rhs", "_slots"):
            assert np.array_equal(getattr(batch, name), getattr(one, name)), name
        # the new cut took the place of the seed with the most slack at x, summed term by term here
        point = x[model.cones[full]]
        slack = [side - sum(a * v for a, v in zip(plane, point)) for plane, side in zip(*seeds)]
        assert sorted(slack)[-1] - sorted(slack)[-2] > 1e-6
        held = [tuple(row) for row in batch.cut_coefs[batch._slots[full]]]
        want = [tuple(row) for row in seeds[0]]
        want[int(np.argmax(slack))] = tuple(coefs[0])
        assert held == want
        assert batch.cut_rhs.size == CUTS_PER_CONE + cone.size - 1
        lps = [backend.highs.getLp() for backend in (one, batch)]
        for name in ("row_lower_", "row_upper_", "col_lower_", "col_upper_"):
            assert np.array_equal(getattr(lps[0], name), getattr(lps[1], name))
        rows = [_row_matrix(got) for got in lps]
        assert (rows[0] != rows[1]).nnz == 0
        with pytest.raises(ValueError, match="one cut per cone"):
            batch.add_cuts(cone[[0, 0]], coefs[[0, 0]], rhs[[0, 0]], x)

    def test_bundled_highs_iis_api(self):
        import importlib

        where = "scipy.optimize._highspy._core"
        try:
            core = importlib.import_module(where)
        except ImportError as exc:
            pytest.fail(f"{where} moved ({exc}); update the import in ugrestore/solver/lp.py")
        for name in ("_Highs", "HighsIis", "HighsModelStatus", "HighsStatus", "MatrixFormat"):
            assert hasattr(core, name), f"{where}.{name} is gone; update ugrestore/solver/lp.py"
        for method in (
            "passModel",
            "setOptionValue",
            "changeColsBounds",
            "changeColsIntegrality",
            "addRows",
            "changeCoeff",
            "changeRowBounds",
            "clearSolver",
            "run",
            "getRunTime",
            "getSolution",
            "getInfo",
            "getModelStatus",
            "getIis",
            "readModel",
            "getLp",
            "getBasis",
            "setBasis",
            "setCallback",
            "startCallback",
        ):
            assert hasattr(core._Highs, method), f"{where}._Highs.{method} is gone; update lp.py"
        assert hasattr(core.HighsInfo(), "mip_dual_bound"), "HighsInfo.mip_dual_bound is gone"
        assert hasattr(core.HighsModelStatus, "kInterrupt"), "HighsModelStatus.kInterrupt is gone"
        assert hasattr(core.cb.HighsCallbackType, "kCallbackMipInterrupt"), "the MIP interrupt is gone"
        assert hasattr(core.cb.HighsCallbackOutput, "mip_dual_bound"), "the callback's bound is gone"
        assert hasattr(core.cb.HighsCallbackInput, "user_interrupt"), "the callback's stop is gone"
        assert lp._Highs is core._Highs and lp.cb is core.cb

    def test_release_then_solve_matches_unreleased(self, reduced13):
        model = build_model(reduced13)
        kept, released = LpBackend(model), LpBackend(model)
        res = kept.solve()
        for _ in range(3):  # the same cut pool in both
            cuts = _round_of_cuts(model, res.x, 1e-6)
            kept.add_cuts(*cuts, res.x)
            released.add_cuts(*cuts, res.x)
            res = kept.solve()
        assert released.solve().objective == pytest.approx(res.objective, rel=1e-9)
        released.release()
        assert released.highs is None and np.array_equal(released.cut_coefs, kept.cut_coefs)
        again = released.solve()  # from the kept basis: nothing left to pivot
        assert again.objective == pytest.approx(res.objective, rel=1e-9) and again.nit == 0
        assert released.highs.getNumRow() == released.restriction.model.nrows + kept.cut_rhs.size
        fix = {int(model.free_binary_columns[0]): 1.0}
        want = kept.solve(fix)
        released.release()
        got = released.solve(fix)
        assert got.status == want.status == "optimal"
        assert got.objective == pytest.approx(want.objective, rel=1e-9, abs=1e-12)
        released.release()  # add_cuts reloads too
        cuts = [a[:1] for a in _round_of_cuts(model, want.x, 1e-6)]
        for backend in (kept, released):
            backend.add_cuts(*cuts, want.x)
        got, want = released.solve(fix), kept.solve(fix)
        assert got.objective == pytest.approx(want.objective, rel=1e-9, abs=1e-12)


def _full_lp(model, fixes, pool=None):
    """The LP over every row of ``model`` and the pool of ``pool``, a backend, ``fixes`` pinned, from scratch."""
    lb, ub = lp._pinned(model.col_lb, model.col_ub, fixes)
    h = lp._loaded(dataclasses.replace(model, col_lb=lb, col_ub=ub), -model.obj)
    for name, value in lp._HIGHS_OPTIONS.items():
        h.setOptionValue(name, value)
    if pool is not None:
        n = pool.cut_rhs.size
        cols = model.cones[pool.cut_cone]
        lp._add_block(h, np.arange(0, 4 * n, 4), cols.ravel(), pool.cut_coefs.ravel(), pool.cut_rhs)
    return lp.linprog(h, np.inf), lb, ub


def _greedy_fixings(model, case, monkeypatch):
    """The fixings of the greedy's first skeleton, then with its storage flags, as it pins them."""
    pinned = []
    real = warmstart._lp_with_oa

    def recorded(backend, fixes, *args):
        pinned.append(dict(fixes))
        return real(backend, fixes, *args)

    monkeypatch.setattr(warmstart, "_lp_with_oa", recorded)
    greedy_warm_start(model, case)
    monkeypatch.undo()
    return pinned[0], pinned[-1]


class TestRestriction:
    """Every backend loads HiGHS with the model restricted to what its bounds leave live."""

    def test_reductions_are_exact(self):
        cat = VariableCatalog()
        cat.add_group("x", [0], lb=0.0, ub=np.inf)
        cat.add_group("y", [0], lb=0.0, ub=1.0)
        cat.add_group("z", [0], lb=2.0, ub=2.0)
        cat.add_group("w", [0], lb=0.0, ub=np.inf)
        x, y, z, w = (cat.col(name, 0) for name in "xyzw")
        b = ModelBuilder(cat)
        add_row(b, "single", [(x, 3.0)], SENSE_LE, 1.0)  # x <= 1/3, divided exactly
        add_row(b, "after-single", [(x, 1.0), (y, 1.0)], SENSE_LE, 5.0)  # redundant once x <= 1/3
        add_row(b, "fixed", [(z, 1.0), (y, 4.0)], SENSE_LE, 4.0)  # z substituted: y <= 1/2
        add_row(b, "floor", [(w, 1.0), (y, 1.0)], SENSE_GE, 0.0)  # redundant: activity >= 0
        add_row(b, "open", [(w, 1.0), (y, -1.0)], SENSE_LE, 3.0)  # infinite maximum: kept
        b.add_obj(x, 1.0)
        b.add_obj(z, 0.5)
        b.add_cones([(w, y, x, x)])
        model = b.build({})
        got = model.restrict(model.col_lb, model.col_ub)
        assert got.col_ub[x] == 1.0 / 3.0 and got.col_ub[y] == 0.5 and got.col_ub[w] == np.inf
        assert row_families(got.model) == ["open"] and got.keep.tolist() == [x, y, w]
        assert got.fixed[z] == 2.0 and got.offset == 1.0 and got.model.row_hi.tolist() == [3.0]
        assert got.model.row_lo.tolist() == [-np.inf]
        assert got.model.cones.tolist() == [[2, 1, 0, 0]]
        res = LpBackend(model).solve()
        assert res.ok and res.x[z] == 2.0 and res.objective == pytest.approx(1.0 / 3.0 + 1.0, rel=1e-12)

    @pytest.mark.parametrize(
        "first, rows, bounds, status",
        [
            # x0 - 2 x1 <= 3 and -(x0 - 2 x1) <= 1: the range -1 <= x0 - 2 x1 <= 3
            ("upper", [("upper", 1.0, 3.0), ("lower", -1.0, 1.0)], (-1.0, 3.0), "optimal"),
            ("lower", [("lower", -1.0, 1.0), ("upper", 1.0, 3.0)], (-3.0, 1.0), "optimal"),
            # x0 - 2 x1 <= -2 and x0 - 2 x1 >= -1: bounds that cross stay crossing
            ("upper", [("upper", 1.0, -2.0), ("lower", -1.0, 1.0)], (-1.0, -2.0), "infeasible"),
        ],
    )
    def test_a_row_and_its_negation_restrict_to_one_ranged_row(self, first, rows, bounds, status):
        cat = VariableCatalog()
        cat.add_group("x", [0, 1], lb=0.0, ub=4.0)  # x0 - 2 x1 ranges over [-8, 4]: no row is redundant
        b = ModelBuilder(cat)
        for family, sign, rhs in rows:
            add_row(b, family, [(0, sign), (1, -2.0 * sign)], SENSE_LE, rhs)
        b.add_obj([0, 1], [1.0, -2.0])
        model = b.build({})
        got = model.restrict(model.col_lb, model.col_ub)
        assert row_families(got.model) == [first]  # the group's first row, in its own orientation
        assert (got.model.row_lo.tolist(), got.model.row_hi.tolist()) == ([bounds[0]], [bounds[1]])
        res = LpBackend(model).solve()
        assert res.status == status
        if res.ok:
            assert res.objective == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("build", [{}, {"ferro_gate": False}, {"no_swap": True}], ids=str)
    @pytest.mark.parametrize("name", [n for n in shipped_case_names() if n != "feeder123"])
    def test_restricted_lp_matches_the_full_model(self, name, build, monkeypatch):
        case = shipped_case(name)
        model = build_model(case, BuildOptions(**build))
        skeleton, storage = _greedy_fixings(model, case, monkeypatch)
        assert set(skeleton) < set(storage) or name == "rad_loop4"  # its skeleton LP is infeasible
        for base, fixes in (({}, {}), ({}, skeleton), (skeleton, skeleton), (skeleton, storage)):
            backend = LpBackend(model, fixes=base)
            got = backend.solve(fixes)
            want, lb, ub = _full_lp(model, fixes)
            assert got.status == want.status
            if got.ok:
                assert got.objective == pytest.approx(want.objective, rel=1e-9, abs=1e-12)
                assert -model.row_residuals(got.x).min() <= 1e-7
                assert np.all(got.x >= lb - 1e-9) and np.all(got.x <= ub + 1e-9)
                assert backend.restriction.model.nrows < model.nrows or not base

    def test_cut_on_an_eliminated_cone_matches_the_full_model(self, reduced13, monkeypatch):
        model = build_model(reduced13)
        skeleton, fixes = _greedy_fixings(model, reduced13, monkeypatch)
        x = warmstart._lp_with_oa(LpBackend(model, fixes=skeleton), fixes, SolverOptions())  # meets every cone
        # the skeleton leaves every cone of reduced13 live, so pin the columns of one loaded cone at
        # x: the most loaded one whose pins the restriction finds consistent.  x meets the rows only
        # within HiGHS's tolerance, and a pin one ulp past a bound that propagation derives from the
        # others makes the restriction the whole model, as documented
        for idx in np.argsort(-x[model.cones[:, 1]] * np.abs(x[model.cones[:, 2]]), kind="stable").tolist():
            cols = model.cones[idx]
            pinned = dict(zip(cols.tolist(), x[cols].tolist()))
            backend = LpBackend(model, fixes={**skeleton, **pinned})
            if backend.restriction.keep.size < model.ncols:
                break
        fixes = {**fixes, **pinned}
        assert np.all(backend.restriction.pos[cols] < 0) and np.all(backend.restriction.fixed[cols] == x[cols])
        res = backend.solve(fixes)
        # cuts that x's point of the cone meets only through the terms moved into their rhs:
        # lhs < rhs = lhs / 2 < 0, so a row HiGHS holds without those terms is infeasible
        planes, _ = unit_tangents(CUTS_PER_CONE)
        lhs = planes @ x[cols]
        assert lhs.max() < -1e-3

        def matches_the_full_model():
            got = backend.solve(fixes)
            want, _, _ = _full_lp(model, fixes, backend)
            assert got.ok and want.ok
            assert got.objective == pytest.approx(want.objective, rel=1e-9)
            return got

        cone, coefs, rhs = _round_of_cuts(model, res.x, 1e-9)
        cone, coefs, rhs = (a[cone != idx][:3] for a in (cone, coefs, rhs))
        backend.add_cuts(np.append(idx, cone), np.vstack([planes[:1], coefs]), np.append(lhs[0] / 2, rhs), res.x)
        got = matches_the_full_model()
        assert got.objective < res.objective - 1e-9
        for k in range(1, CUTS_PER_CONE):  # the cone's slots all taken
            backend.add_cuts([idx], planes[k : k + 1], [lhs[k] / 2], res.x)
        rows = backend.highs.getNumRow()
        backend.add_cuts([idx], planes[:1], [lhs[0] / 4], res.x)  # rewritten in place
        assert backend.highs.getNumRow() == rows and lhs[0] / 4 in backend.cut_rhs
        got = matches_the_full_model()
        backend.release()
        again = backend.solve(fixes)
        assert again.objective == pytest.approx(got.objective, rel=1e-9) and again.nit == 0
        matches_the_full_model()

    @pytest.mark.parametrize("via", ["model bounds", "base fixings"])
    def test_bound_conflict_is_infeasible_with_its_iis(self, via):
        model = build_model(load_minimal())
        col = model.catalog.col("u", ("n1", 0))
        if via == "model bounds":
            model.col_lb[col] = model.col_ub[col] = 0.0
            backend = LpBackend(model)
        else:
            backend = LpBackend(model, fixes={col: 0.0})
        assert backend.restriction.keep.size == model.ncols  # nothing removed
        assert backend.solve({col: 0.0}).status == "infeasible"
        model.col_lb[col] = model.col_ub[col] = 0.0
        assert "wire-consistent" in lp.infeasibility_hint(model)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_up_to_sign_merge_exactly(self, data):
        model, fixes = data.draw(_paired_model())
        got = model.restrict(*(lp._pinned(model.col_lb, model.col_ub, fixes) or (model.col_lb, model.col_ub)))
        whole = got.model.csr is model.csr  # bounds proven inconsistent: the whole model, nothing merged
        assert whole or not _mergeable_pairs(got.model)
        # both ways exact: each full row is implied by the restriction, and each kept row by the full rows
        shift = model.csr @ got.fixed
        lo, hi = model.row_lo - shift, model.row_hi - shift
        a = model.csr[:, got.keep].tocsr().sorted_indices()
        col_lb, col_ub = got.col_lb[got.keep], got.col_ub[got.keep]
        act_lo = a.multiply(a > 0) @ col_lb + a.multiply(a < 0) @ col_ub
        act_hi = a.multiply(a > 0) @ col_ub + a.multiply(a < 0) @ col_lb
        full, kept = _by_vector(a, lo, hi), _by_vector(got.model.csr, got.model.row_lo, got.model.row_hi)
        for j in range(model.nrows):
            if act_lo[j] >= lo[j] - 1e-9 and act_hi[j] <= hi[j] + 1e-9:
                continue  # the column bounds imply it
            key, s = _signed_row(a, j)
            glo, ghi = _meet(kept[key])  # a KeyError: a dropped row that no kept row equals
            assert glo >= (lo[j] if s > 0 else -hi[j]) and ghi <= (hi[j] if s > 0 else -lo[j]), j
        ilo, ihi = got.model.row_lo, got.model.row_hi
        for i in range(got.model.nrows):
            key, s = _signed_row(got.model.csr, i)
            glo, ghi = _meet(full[key])
            assert glo >= (ilo[i] if s > 0 else -ihi[i]) and ghi <= (ihi[i] if s > 0 else -ilo[i]), i
        res = LpBackend(model, fixes=fixes).solve(fixes)
        want, _, _ = _full_lp(model, fixes)
        assert res.status == want.status
        if res.ok:
            assert res.objective == pytest.approx(want.objective, rel=1e-9, abs=1e-9)

    def test_reduced13_skeleton_holds_no_pair_to_merge(self, monkeypatch):
        case = shipped_case("reduced13")
        model = build_model(case, BuildOptions(ferro_gate=False))
        skeleton, _ = _greedy_fixings(model, case, monkeypatch)
        sub = LpBackend(model, fixes=skeleton).restriction.model
        assert sub.nrows < 1398  # its rows before the merge; 762 after it
        assert not _mergeable_pairs(sub)

    def test_lps_run_unscaled(self, toy_pair):
        backend = LpBackend(build_model(toy_pair))
        assert backend.highs.getOptionValue("simplex_scale_strategy")[1] == 0
        assert backend.solve().ok
        backend.release()
        assert backend.solve().ok and backend.highs.getOptionValue("simplex_scale_strategy")[1] == 0


_COEFS = (-3.0, -1.5, -1.0, 0.1, 0.5, 1.0, 2.0)


@st.composite
def _paired_model(draw):
    """A model of 3-5 columns whose rows come with copies, negated or not, and fixings of some columns.

    A copy's bound meets its row's, repeats it or moves past it, so the
    rows hold equalities split in two, duplicates, ranges and crossings.
    """
    n = draw(st.integers(3, 5))
    lb = np.array(draw(st.lists(st.integers(-2, 0), min_size=n, max_size=n)), dtype=float)
    ub = lb + draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    cat = VariableCatalog()
    cat.add_group("x", range(n), lb=lb, ub=ub)
    b = ModelBuilder(cat)
    senses = st.sampled_from([SENSE_LE, SENSE_GE, SENSE_EQ])
    for _ in range(draw(st.integers(1, 4))):
        cols = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True))
        terms = [(c, draw(st.sampled_from(_COEFS))) for c in cols]
        rhs = draw(st.sampled_from([-1.0, 0.0, 0.5, 2.5]))
        add_row(b, "row", terms, draw(senses), rhs)
        for _ in range(draw(st.integers(0, 3))):
            sign = draw(st.sampled_from([1.0, -1.0]))
            moved = draw(st.sampled_from([0.0, 0.0, -0.5, 1.0]))
            add_row(b, "copy", [(c, sign * v) for c, v in terms], draw(senses), sign * rhs + moved)
    b.add_obj(np.arange(n), draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), min_size=n, max_size=n)))
    fixed = draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True))
    fixes = {j: float(draw(st.integers(int(lb[j]), int(ub[j])))) for j in fixed}
    return b.build({}), fixes


def _signed_row(a, i):
    """Row ``i`` of ``a`` as its columns and values, signed so that its first value is positive, and that sign."""
    cols, vals = a.indices[a.indptr[i] : a.indptr[i + 1]], a.data[a.indptr[i] : a.indptr[i + 1]]
    sign = -1.0 if vals.size and vals[0] < 0 else 1.0
    return (tuple(cols.tolist()), tuple((sign * vals).tolist())), sign


def _by_vector(a, lo, hi) -> dict:
    """The rows of ``a`` grouped by their signed vector, each as its bounds on the signed row."""
    out = {}
    for i in range(a.shape[0]):
        key, s = _signed_row(a, i)
        out.setdefault(key, []).append((lo[i], hi[i]) if s > 0 else (-hi[i], -lo[i]))
    return out


def _meet(bounds):
    """The intersection of the ``(lo, hi)`` intervals."""
    return max(lo for lo, _ in bounds), min(hi for _, hi in bounds)


def _mergeable_pairs(model) -> list:
    """The pairs of rows equal up to sign: one row, holding the intersection of their bounds, would do."""
    bounds = _by_vector(model.csr, model.row_lo, model.row_hi).values()
    return [pair for group in bounds for pair in itertools.combinations(group, 2)]


class TestOaRound:
    """A separation round cuts every violated cone once; a full cone swaps a cut for it."""

    @pytest.mark.parametrize("loop", ["search", "warm start"])
    def test_one_round_grows_the_pool_by_the_violated_cones(self, reduced13, monkeypatch, loop):
        model = build_model(reduced13)
        opts = SolverOptions()
        search = bnb._Search(model, opts, deadline=time.monotonic() + 60.0)
        backend = search.backend
        x = backend.solve().x
        full = cone_violations(model, x, opts.oa_tol)[0][0]
        for coefs, rhs in zip(*unit_tangents(CUTS_PER_CONE)):
            backend.add_cuts([full], [coefs], [rhs], x)
        separated = []
        module = bnb if loop == "search" else warmstart
        real = module.cone_violations
        monkeypatch.setattr(module, "cone_violations", lambda *a: separated.append(real(*a)) or separated[-1])
        held = (backend._slots >= 0).sum(axis=1)
        before = backend.cut_rhs.size
        if loop == "search":
            search.oa_refine({}, backend.solve(), 1)
        else:
            monkeypatch.setattr(warmstart, "MAX_OA_ROUNDS", 1)
            warmstart._lp_with_oa(backend, {}, opts)
        assert len(separated) == 1
        viol = [idx for idx, _ in separated[0]]
        assert full in viol and len(viol) > 20  # more than the old 20 per round
        assert backend.cut_rhs.size - before == len(viol) - 1  # all but the full cone
        assert np.array_equal((backend._slots[viol] >= 0).sum(axis=1), np.minimum(held[viol] + 1, CUTS_PER_CONE))


class _HighsSpy:
    """A HiGHS instance that records the methods called on it, optionally faking its status."""

    def __init__(self, highs, status=None):
        self.highs, self.status, self.calls = highs, status, []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.highs, name)

    def getModelStatus(self):
        self.calls.append("getModelStatus")
        return self.status if self.status is not None else self.highs.getModelStatus()


class _MasterSpy(_HighsSpy):
    """A HiGHS instance that records whether its callback ever asked the run to stop."""

    asked = False

    def setCallback(self, fn, data):
        def spy(kind, message, out, into, user_data):
            fn(kind, message, out, into, user_data)
            self.asked = self.asked or bool(into.user_interrupt)

        return self.highs.setCallback(spy, data)


def _spy_masters(monkeypatch):
    """Every HiGHS instance loaded from now on, as a :class:`_MasterSpy`, in load order."""
    runs = []
    real = lp._loaded
    monkeypatch.setattr(lp, "_loaded", lambda *args: runs.append(_MasterSpy(real(*args))) or runs[-1])
    return runs


def _round_of_cuts(model, x, tol):
    """One tangent per cone that ``x`` violates beyond ``tol``, worst first: cones, coefficients, rhs."""
    cone = np.array([idx for idx, _ in cone_violations(model, x, tol)], dtype=np.int64)
    coefs, rhs = zip(*map(soc_cut, x[model.cones[cone]].tolist()))
    return cone, np.array(coefs), np.array(rhs)


def _row_matrix(highs_lp):
    """The constraint matrix of a ``HighsLp`` as a scipy matrix, whatever its format."""
    a = highs_lp.a_matrix_
    shape = (highs_lp.num_row_, highs_lp.num_col_)
    data = (np.array(a.value_), np.array(a.index_), np.array(a.start_))
    if a.format_ == lp.MatrixFormat.kRowwise:
        return sp.csr_matrix(data, shape=shape)
    return sp.csc_matrix(data, shape=shape).tocsr()


def _last(calls, name):
    return len(calls) - 1 - calls[::-1].index(name)


class TestViolationReport:
    """A violated row or cone reports its family and the catalog names of its columns."""

    def test_row_and_cone(self):
        cat, model = cone_toy(demand=("p", "q"))
        x = np.zeros(model.ncols)
        x[[cat.col(name, 0) for name in "ivpq"]] = (0.1, 1.0, 1.0, 1.0)  # p + q = 2 > 1.3, I*V = 0.1 < 2
        row, cone = sorted(model.check_solution(x), key=lambda v: v.family, reverse=True)
        assert (row.family, row.loc, row.row) == ("demand", ("p[0]", "q[0]"), 0)
        assert row.residual == pytest.approx(0.7)
        assert (cone.family, cone.loc, cone.detail) == ("cone", ("i[0]", "v[0]", "p[0]", "q[0]"), "cone")
        assert cone.residual == pytest.approx(1.9)

    def test_a_repeated_column_is_named_once(self):
        cat = VariableCatalog()
        cat.add_group("x", ["a", "b"])
        b = ModelBuilder(cat)
        add_row(b, "twice", [(0, 1.0), (1, 1.0), (0, 1.0)], SENSE_LE, 0.0)
        b.add_cones([(1, 1, 0, 0)])
        violations = b.build().check_solution(np.array([1.0, 0.5]))
        assert {v.family: v.loc for v in violations} == {"twice": ("x[a]", "x[b]"), "cone": ("x[b]", "x[a]")}

    @pytest.mark.parametrize("total, residual", [(-3.0, 2.0), (5.0, 2.0)], ids=["below row_lo", "above row_hi"])
    def test_a_ranged_row_reports_both_sides(self, total, residual):
        cat = VariableCatalog()
        cat.add_group("x", ["a", "b"], lb=-10.0, ub=10.0)
        b = ModelBuilder(cat)
        add_row(b, "band", [(0, 1.0), (1, 1.0)], SENSE_LE, 3.0)
        model = dataclasses.replace(b.build(), row_lo=np.array([-1.0]))  # -1 <= a + b <= 3
        assert model.check_solution(np.array([total / 2, total / 2])) == [
            Violation("band", ("x[a]", "x[b]"), residual, row=0)
        ]
        assert model.check_solution(np.array([-0.5, -0.5])) == model.check_solution(np.array([1.5, 1.5])) == []


class TestSocCut:
    def test_no_violation_no_cut(self):
        with pytest.raises(NoCutError):
            soc_cut((1.0, 1.0, 0.0, 0.0))

    def test_cut_separates_and_keeps_apex(self):
        point = (1.0, 1.0, 1.0, 1.0)  # violates: 1*1 < 1 + 1
        coefs, rhs = soc_cut(point)
        lhs_point = sum(c * v for c, v in zip(coefs, point))
        assert lhs_point > rhs + 1e-9
        # apex of the cone satisfies the cut
        assert 0.0 <= rhs + 1e-12
        # random cone-feasible points satisfy the cut
        rng = np.random.default_rng(0)
        for _ in range(500):
            p, q = rng.uniform(0, 1, 2)
            v = rng.uniform(0.5, 1.5)
            i = (p * p + q * q) / v * rng.uniform(1.0, 3.0)
            lhs = coefs[0] * i + coefs[1] * v + coefs[2] * p + coefs[3] * q
            assert lhs <= rhs + 1e-9

    def test_iterated_cutting_converges(self):
        cat, model = cone_toy()
        backend = LpBackend(model)
        x = None
        for rounds in range(50):
            res = backend.solve()
            assert res.ok
            x = res.x
            viol = cone_violations(model, x, 1e-6)
            if not viol:
                break
            coefs, rhs = soc_cut(x[model.cones[viol[0][0]]].tolist())
            backend.add_cuts([viol[0][0]], [coefs], [rhs], x)
        assert rounds < 50
        slack = model.cone_values(x)[0]
        assert slack >= -1e-6
        # loss pressure makes the relaxation essentially tight
        i, v, p, q = x[0], x[1], x[2], x[3]
        assert i * v == pytest.approx(p * p + q * q, rel=1e-4, abs=1e-5)

    @staticmethod
    def _unit_planes(n_angles):
        """:func:`tangent` at each unit point, with what is below ``SNAP`` set to 0."""
        planes = []
        for m in range(n_angles):
            ang = 2.0 * math.pi * m / n_angles
            coefs, rhs = tangent((1.0, 1.0, math.cos(ang), math.sin(ang)))
            planes.append(([0.0 if abs(a) < SNAP else a for a in coefs], 0.0 if abs(rhs) < SNAP else rhs))
        return planes

    def test_initial_cuts_are_supporting(self):
        coefs, rhs = unit_tangents(8)
        want = self._unit_planes(8)
        assert np.array_equal(coefs.view(np.int64), np.array([c for c, _ in want]).view(np.int64))
        assert np.array_equal(rhs.view(np.int64), np.array([r for _, r in want]).view(np.int64))
        rng = np.random.default_rng(1)
        for plane, side in zip(coefs, rhs):
            for _ in range(100):
                p, q = rng.uniform(-1, 1, 2)
                v = rng.uniform(0.5, 1.5)
                i = (p * p + q * q) / v * rng.uniform(1.0, 2.0)
                assert plane @ (i, v, p, q) <= side + 1e-9

    def test_seed_block_holds_the_initial_cuts_in_order(self, reduced13):
        """The master gets, cone by cone, the tangents at each unit point on the cone's columns."""
        model = build_model(reduced13)
        planes = self._unit_planes(CUTS_PER_CONE)
        rows, rhs = seed_tangents(model)
        n = len(model.cones) * CUTS_PER_CONE
        assert rows.shape == (n, model.ncols) and np.array_equal(rows.indptr, np.arange(0, 4 * n + 1, 4))
        assert np.array_equal(rows.indices, [j for cone in model.cones for _ in planes for j in cone])
        want = np.array([a for _ in model.cones for coefs, _ in planes for a in coefs])
        assert np.array_equal(rows.data.view(np.int64), want.view(np.int64))  # zeros kept, signs too
        want = np.array([r for _ in model.cones for _, r in planes])
        assert np.array_equal(rhs.view(np.int64), want.view(np.int64))


class TestIncumbentTangents:
    """The search's pool starts with one tangent above the incumbent per cone that carries flow."""

    @staticmethod
    def _excess(coefs, rhs, point):
        """``coefs . point - rhs`` and the scale 1e-9 relative tolerances are taken against."""
        terms = [a * x for a, x in zip(coefs, point)]
        return sum(terms) - rhs, max(1.0, sum(abs(t) for t in terms), abs(rhs))

    # per-unit magnitudes; a cone point is (i, v) and a flow of r * sqrt(i v) at angle th
    @given(
        v=st.floats(1e-3, 4.0),
        p=st.floats(-4.0, 4.0),
        q=st.floats(-4.0, 4.0),
        samples=st.lists(
            st.tuples(
                st.floats(0.0, 100.0), st.floats(0.0, 100.0), st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi)
            ),
            min_size=1,
            max_size=20,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_tangent_at_the_lifted_point_supports_the_cone(self, v, p, q, samples):
        assume(p != 0.0 or q != 0.0)
        lifted = ((p * p + q * q) / v, v, p, q)
        coefs, rhs = tangent(lifted)
        excess, scale = self._excess(coefs, rhs, lifted)
        assert abs(excess) <= 1e-9 * scale
        for i_s, v_s, r, th in samples:
            flow = r * math.sqrt(i_s * v_s)
            excess, scale = self._excess(coefs, rhs, (i_s, v_s, flow * math.cos(th), flow * math.sin(th)))
            assert excess <= 1e-9 * scale

    @staticmethod
    def _first_lp_pool(model, monkeypatch, warm):
        """The search's cut pool, as (cones, coefficients, rhs, cuts per cone), when its first LP is asked for."""
        seen = []

        class Asked(Exception):
            """Ends the solve at its first LP: the pool then is all this test reads."""

        def spy(self, fixes=None):
            seen.append((self.cut_cone, self.cut_coefs, self.cut_rhs, (self._slots >= 0).sum(axis=1)))
            raise Asked

        monkeypatch.setattr(LpBackend, "solve", spy)
        with pytest.raises(Asked):
            solve(model, SolverOptions(), warm_start=warm, warm_start_source="greedy")
        return seen[0]

    def test_pool_holds_one_tangent_per_loaded_cone_before_the_root_lp(self, reduced13, monkeypatch):
        model = build_model(reduced13)
        ws = greedy_warm_start(model, reduced13)
        cone, coefs, rhs, held = self._first_lp_pool(model, monkeypatch, ws)
        loaded = [
            idx
            for idx, (_, v, p, q) in enumerate(ws[model.cones])
            if v > 1e-9 and (p != 0.0 or q != 0.0)
        ]
        assert 0 < len(loaded) < len(model.cones)
        assert cone.tolist() == loaded and np.array_equal(held, np.isin(np.arange(len(model.cones)), loaded))
        for got, want in zip((cone, coefs, rhs), incumbent_tangents(model, ws)):
            assert np.array_equal(got, want)
        # the incumbent meets its cones within the replay tolerance, so its tangents too
        for idx, plane, side in zip(cone, coefs, rhs):
            excess, _ = self._excess(plane, side, ws[model.cones[idx]])
            assert excess <= SolverOptions().replay_tol

    @pytest.mark.parametrize("warm", ["fails the replay", "none"])
    def test_no_incumbent_seeds_nothing(self, reduced13, monkeypatch, warm):
        model = build_model(reduced13)
        ws = None
        if warm == "fails the replay":
            ws = greedy_warm_start(model, reduced13).copy()
            ws[model.cones[0, 1]] = model.col_ub[model.cones[0, 1]] + 1.0
            assert model.check_solution(ws)
        cone, coefs, rhs, held = self._first_lp_pool(model, monkeypatch, ws)
        assert cone.size == coefs.size == rhs.size == held.sum() == 0


class TestExactnessAtToyScale:
    """Search result equals exhaustive enumeration on the shipped toys."""

    @pytest.mark.parametrize("name", ["toy_pair", "toy_fork", "toy_pv"])
    def test_matches_enumeration(self, name):
        case = shipped_case(name)
        model = build_model(case)
        assert len(model.free_binary_columns) <= 12
        t0 = time.monotonic()
        got = exhaustive_solve(model)
        assert got is not None
        enum_val, _, lp_calls = got
        t_enum = time.monotonic() - t0
        t0 = time.monotonic()
        ws = greedy_warm_start(model, case, EXACT)
        sol = solve(model, EXACT, warm_start=ws, warm_start_source="greedy")
        t_bnb = time.monotonic() - t0
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(enum_val, abs=1e-9 * max(1.0, abs(enum_val)))
        assert t_enum < 60.0 and t_bnb < 60.0
        # the outer-approximation master bounds the enumerated optimum on its own
        master = lp.master_bound(model, seed_tangents(model), 60.0)
        assert enum_val - 1e-9 * max(1.0, abs(enum_val)) <= master < np.inf

    def test_zero_load_toy(self):
        doc_case = load_minimal()
        model = build_model(doc_case)
        sol = solve(model, EXACT)
        got = exhaustive_solve(model)
        assert got is not None
        assert sol.objective == pytest.approx(got[0], abs=1e-9)


def _gear_fixes(model, case, beta, perms, alphas, cd):
    """Structural pins for one switchgear toy: an enumeration helper."""
    cat = model.catalog
    g = case.switchgears[0]
    fixes = {}
    for l in case.lines:
        if l.is_switch:
            fixes[cat.col("gamma", l.index)] = 1.0
    for n in case.nodes:
        col = cat.col("u", (n.id, 0))
        if model.col_lb[col] < model.col_ub[col]:
            fixes[col] = 1.0
    prev = np.zeros((3, 3))
    for t in range(case.horizon):
        cur = perms[t] * beta[t]
        fixes[cat.col("beta", (g.id, t))] = float(beta[t])
        fixes[cat.col("alpha", (g.id, t))] = float(alphas[t])
        events = np.maximum(0.0, cur - prev)
        for ph in range(3):
            for ps in range(3):
                fixes[cat.col("swap", (g.id, t, ph, ps))] = float(cur[ph, ps])
                fixes[cat.col("swap_event", (g.id, t, ph, ps))] = float(events[ph, ps])
            fixes[cat.col("swap_any", (g.id, t, ph))] = 1.0 if events[ph].sum() > 0.5 else 0.0
        if cur.sum() > 0.5:
            v_star = int(np.argmax([(cur * p).sum() for p in PERMUTATIONS]))
        else:
            v_star = 0
        for v in range(6):
            fixes[cat.col("reorder_sel", (g.id, t, v))] = 0.0 if v == v_star else 1.0
        prev = cur
    for t in range(case.horizon):
        fixes[cat.col("ess_ch_on", (0, t))] = float(cd[t][0])
        fixes[cat.col("ess_dis_on", (0, t))] = float(cd[t][1])
    return fixes


@functools.cache
def _enumerated_optimum(name):
    """The optimum of a shipped toy by enumeration: structured for toy_gear3, else exhaustive."""
    case = shipped_case(name)
    model = build_model(case)
    if name == "toy_gear3":
        return _structured_enumeration(model, case)
    return exhaustive_solve(model)[0]


def _structured_enumeration(model, case):
    """Best objective over all switchgear schedules with LP resolve."""
    best = -np.inf
    T = case.horizon
    perm_choices = list(PERMUTATIONS)
    for beta in itertools.product((0, 1), repeat=T):
        perm_sets = [perm_choices if b else [np.zeros((3, 3))] for b in beta]
        for perms in itertools.product(*perm_sets):
            for alphas in itertools.product((0, 1), repeat=T):
                ok = all(
                    alphas[t] + (beta[t - 1] if t else 0) >= beta[t] for t in range(T)
                )
                if not ok:
                    continue
                for cd in itertools.product(((0, 0), (1, 0), (0, 1)), repeat=T):
                    fixes = _gear_fixes(model, case, beta, perms, alphas, cd)
                    lb = model.col_lb.copy()
                    ub = model.col_ub.copy()
                    bad = False
                    for col, val in fixes.items():
                        if val < lb[col] - 1e-9 or val > ub[col] + 1e-9:
                            bad = True
                            break
                        lb[col] = val
                        ub[col] = val
                    if bad:
                        continue
                    got = _lp_with_cones(model, lb, ub, tol=1e-10)
                    if got is not None and got[0] > best:
                        best = got[0]
    return best


@pytest.mark.slow
class TestGearToyEnumeration:
    def test_matches_structured_enumeration(self, toy_gear3):
        model = build_model(toy_gear3)
        enum_val = _enumerated_optimum("toy_gear3")
        ws = greedy_warm_start(model, toy_gear3, EXACT)
        sol = solve(model, EXACT, warm_start=ws, warm_start_source="greedy")
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(enum_val, abs=2e-8)

    def test_no_swap_never_better(self, toy_gear3):
        results = {}
        for no_swap in (False, True):
            model = build_model(toy_gear3, BuildOptions(no_swap=no_swap))
            ws = greedy_warm_start(model, toy_gear3, EXACT)
            sol = solve(model, EXACT, warm_start=ws, warm_start_source="greedy")
            assert sol.status == "optimal"
            results[no_swap] = sol.objective
        assert results[True] <= results[False] + 1e-9


class TestSearchBehavior:
    def test_determinism(self, toy_fork):
        model = build_model(toy_fork)
        opts = SolverOptions(time_limit_s=60, rel_gap=0.0, abs_gap=1e-11, seed=3)
        runs = [solve(model, opts) for _ in range(2)]
        assert runs[0].objective == runs[1].objective
        assert runs[0].node_count == runs[1].node_count
        assert np.array_equal(runs[0].x, runs[1].x)

    def test_bound_monotone_under_fixing(self, toy_fork):
        model = build_model(toy_fork)
        backend = LpBackend(model)
        parent = backend.solve()
        assert parent.ok
        for col in model.free_binary_columns[:6]:
            for val in (0.0, 1.0):
                child = backend.solve({int(col): val})
                if child.ok:
                    assert child.objective <= parent.objective + 1e-9

    def test_reports_the_bound_it_pruned_with(self):
        # the incumbent is 5e-12 short of the root bound: inside abs_gap, outside rel_gap 0
        cat = VariableCatalog()
        cat.add_group("b", [0], binary=True)
        cat.add_group("x", [0], lb=0.0, ub=1.0)
        b = ModelBuilder(cat)
        b.add_obj(cat.col("b", 0), 1.0)
        b.add_obj(cat.col("x", 0), 1.0)
        model = b.build({})
        ws = np.array([1.0, 1.0 - 5e-12])
        sol = solve(model, SolverOptions(rel_gap=0.0, abs_gap=1e-11), warm_start=ws)
        assert sol.status == "optimal" and sol.node_count == 1
        assert sol.bound == 2.0 and sol.gap == pytest.approx(5e-12 / 2.0, rel=1e-3)

    def test_infeasible_names_family(self):
        doc_case = load_minimal()
        model = build_model(doc_case)
        cat = model.catalog
        # force contradictory coverage: load node pinned to no microgrid while
        # wire consistency requires it to follow the source
        col = cat.col("u", ("n1", 0))
        model.col_lb[col] = 0.0
        model.col_ub[col] = 0.0
        sol = solve(model, SolverOptions(time_limit_s=30))
        assert sol.status == "infeasible"
        assert "wire-consistent" in sol.infeasible_hint

    def test_infeasible_hint_is_the_iis(self):
        model = build_model(load_minimal())
        col = model.catalog.col("u", ("n1", 0))
        model.col_lb[col] = 0.0
        model.col_ub[col] = 0.0
        hint = lp.infeasibility_hint(model)
        assert "wire-consistent" in hint
        assert "u[s,0]" in hint and "u[n1,0]" in hint

    @pytest.mark.parametrize("build", [{}, {"ferro_gate": False}, {"no_swap": True}], ids=str)
    def test_infeasible_only_by_integrality_says_so(self, build):
        """rad_loop4's LP relaxation solves under every build, but no integral point is feasible."""
        model = build_model(shipped_case("rad_loop4"), BuildOptions(**build))
        sol = solve(model, SolverOptions(time_limit_s=60))
        assert sol.status == "infeasible"
        assert sol.infeasible_hint == "the LP relaxation is feasible: only integrality makes the model infeasible"

    def test_incumbent_passes_replay(self, toy_pv):
        model = build_model(toy_pv)
        sol = solve(model, EXACT)
        assert sol.status == "optimal"
        assert model.check_solution(sol.x, 1e-6, 1e-6) == []

    def test_non_finite_point_is_not_an_incumbent(self, toy_fork):
        model = build_model(toy_fork)
        search = bnb._Search(model, SolverOptions(), deadline=time.monotonic() + 60.0)
        x = greedy_warm_start(model, toy_fork)
        for bad in (np.full(model.ncols, np.nan), np.where(np.arange(model.ncols) == 3, np.inf, x)):
            violations = model.check_solution(bad)
            assert violations and {v.family for v in violations} == {"non-finite"}
            assert all(v.residual == np.inf for v in violations)
            assert not search.offer_incumbent(bad, "caller") and search.inc_x is None
        assert violations[0].loc == (model.catalog.name_of(3),) and len(violations) == 1
        assert search.offer_incumbent(x, "greedy") and search.inc_val == model.objective_value(x)

    def test_relaxation_point_is_not_an_incumbent(self, toy_fork):
        """The refined root relaxation meets every row and cone, but its binaries are fractional."""
        model = build_model(toy_fork)
        x = warmstart._lp_with_oa(LpBackend(model), {}, EXACT)
        frac = [c for c in model.free_binary_columns if abs(x[c] - round(x[c])) > 1e-6]
        violations = model.check_solution(x, 1e-6, 1e-6)
        assert len(frac) > 0 and {v.family for v in violations} == {"integrality"}
        assert sorted(model.catalog.lookup(v.loc[0]) for v in violations) == sorted(frac)
        enum_val = exhaustive_solve(model)[0]
        assert model.objective_value(x) > enum_val + 1e-3  # it would claim a value no plan has
        sol = solve(model, EXACT, warm_start=x)
        assert sol.status == "optimal" and sol.incumbent_source != "caller"
        assert sol.objective == pytest.approx(enum_val, abs=1e-9 * max(1.0, abs(enum_val)))

    def test_diver_gets_the_incumbent_as_cutoff(self, toy_fork):
        model = build_model(toy_fork)
        ws = greedy_warm_start(model, toy_fork)
        cutoffs = []

        def recording(x_lp, backend, cutoff):
            cutoffs.append(cutoff)
            return None

        solve(model, SolverOptions(time_limit_s=60), warm_start=ws, diver=recording)
        assert cutoffs and cutoffs[0] == model.objective_value(ws)
        cutoffs.clear()
        solve(model, SolverOptions(time_limit_s=60), diver=recording)
        assert cutoffs and cutoffs[0] == -np.inf

    def test_master_gets_the_dominance_threshold_as_target(self, reduced13, monkeypatch):
        model = build_model(reduced13)  # swap and gate: the root leaves a gap
        ws = greedy_warm_start(model, reduced13)
        targets = []

        class Handed(Exception):
            """Ends the solve at the master: its target is all this test reads."""

        def recording(model, cuts, time_limit, stop_at):
            targets.append(stop_at)
            raise Handed

        monkeypatch.setattr(bnb, "master_bound", recording)
        opts = SolverOptions()
        for warm in (ws, None):
            with pytest.raises(Handed):
                solve(model, opts, warm_start=warm)
        val = model.objective_value(ws)
        assert targets == [val + max(opts.abs_gap, opts.rel_gap * max(1.0, abs(val))), -np.inf]


def _fail_once(monkeypatch, when):
    """Make the first ``LpBackend.solve`` call whose fixings match ``when`` end as error.

    Returns the objectives of the root LPs solved before that call, last
    one the bound every child of the root inherits.
    """
    real = LpBackend.solve
    failed = []
    root_objs = []

    def flaky(self, fixes=None):
        if not failed and when(fixes or {}):
            failed.append(dict(fixes or {}))
            return LpResult(status="error", x=None, objective=-np.inf)
        res = real(self, fixes)
        if not failed and not fixes:
            root_objs.append(res.objective)
        return res

    monkeypatch.setattr(LpBackend, "solve", flaky)
    return failed, root_objs


@pytest.fixture
def no_master(monkeypatch):
    """The master bound closes toy_fork at the root; without it the tree still runs."""
    monkeypatch.setattr(bnb, "master_bound", lambda *args: np.inf)


class TestLpFailures:
    """Only an infeasible LP prunes; a failed or cut-off LP keeps its node's bound."""

    def test_root_error_proves_nothing(self, toy_fork, monkeypatch):
        model = build_model(toy_fork)
        ws = greedy_warm_start(model, toy_fork, EXACT)
        failed, _ = _fail_once(monkeypatch, lambda fixes: True)
        sol = solve(model, EXACT)
        assert failed and sol.x is None
        assert sol.status == "error" and sol.bound == np.inf
        failed.clear()
        sol = solve(model, EXACT, warm_start=ws)
        assert failed
        assert sol.status == "feasible" and sol.bound == np.inf
        assert sol.objective == model.objective_value(ws)

    def test_root_refinement_error_keeps_the_first_lps_bound(self, reduced13, monkeypatch):
        """The root's second LP fails and the master has no time: the first, optimal root LP still bounds the solve."""
        model = build_model(reduced13, BuildOptions(ferro_gate=False))
        ws = greedy_warm_start(model, reduced13)
        monkeypatch.setattr(bnb, "master_bound", lambda *args: np.inf)
        root_lps = itertools.count()
        failed, root_objs = _fail_once(monkeypatch, lambda fixes: not fixes and next(root_lps) == 1)
        sol = solve(model, EXACT, warm_start=ws)
        assert failed == [{}] and len(root_objs) == 1
        assert sol.status == "feasible" and sol.objective == model.objective_value(ws)
        assert sol.bound == root_objs[0] > sol.objective

    @pytest.mark.usefixtures("no_master")
    def test_child_error_keeps_inherited_bound(self, toy_fork, monkeypatch):
        model = build_model(toy_fork)
        failed, root_objs = _fail_once(monkeypatch, lambda fixes: len(fixes) > 0)
        sol = solve(model, EXACT)
        assert failed, "the search never branched"
        assert sol.bound >= root_objs[-1] > sol.objective + 1e-6
        assert sol.status == "feasible"

    @pytest.mark.usefixtures("no_master")
    @pytest.mark.parametrize(
        "status", [s for s in HighsModelStatus.__members__.values() if s != HighsModelStatus.kOptimal]
    )
    def test_only_infeasible_status_prunes(self, toy_fork, monkeypatch, status):
        model = build_model(toy_fork)
        want = {
            HighsModelStatus.kInfeasible: "infeasible",
            HighsModelStatus.kUnbounded: "unbounded",
        }.get(status, "error")
        real_solve, real_linprog = LpBackend.solve, lp.linprog
        injected, root_objs = [], []

        def first_child(self, fixes=None):
            injected.append(bool(fixes) and not any(injected))
            res = real_solve(self, fixes)
            if not fixes:
                root_objs.append(res.objective)
            if injected[-1]:
                assert res.status == want
            return res

        def fake(highs, time_limit):  # the warm run and its cold retry
            return real_linprog(_HighsSpy(highs, status) if injected[-1] else highs, time_limit)

        monkeypatch.setattr(LpBackend, "solve", first_child)
        monkeypatch.setattr(lp, "linprog", fake)
        sol = solve(model, EXACT)
        assert any(injected), "the search never branched"
        if status == HighsModelStatus.kInfeasible:  # the child and its subtree are gone
            assert sol.status == "optimal" and sol.bound < root_objs[-1] - 1e-6
        else:
            assert sol.status == "feasible"
            assert sol.bound >= root_objs[-1] > sol.objective + 1e-6

    def test_integral_point_failing_replay_keeps_its_bound(self, toy_fork, monkeypatch):
        model = build_model(toy_fork)
        best = solve(model, EXACT).objective
        real = model.check_solution
        rejected = []

        def reject_best_once(x, *args):
            if not rejected and model.objective_value(x) >= best - 1e-9:
                rejected.append(model.objective_value(x))
                return [Violation(family="injected", loc=(), residual=1.0)]
            return real(x, *args)

        monkeypatch.setattr(model, "check_solution", reject_best_once)
        sol = solve(model, EXACT)
        assert rejected, "the search never reached the best integral node"
        assert sol.objective < best - 1e-6  # no other point reaches it
        assert sol.bound >= rejected[0] - 1e-9
        assert sol.status == "feasible"

    def test_highs_gets_the_remaining_time(self, toy_fork, monkeypatch):
        model = build_model(toy_fork)
        left, limits = [], []
        real_solve, real_linprog = LpBackend.solve, lp.linprog

        def timed(self, fixes=None):
            left.append(self.deadline - time.monotonic())
            return real_solve(self, fixes)

        def spy(highs, time_limit):  # a cold retry runs under the same solve call
            limits.append((time_limit - highs.getRunTime(), left[-1]))
            return real_linprog(highs, time_limit)

        monkeypatch.setattr(LpBackend, "solve", timed)
        monkeypatch.setattr(lp, "linprog", spy)
        sol = solve(model, SolverOptions(time_limit_s=30))
        assert sol.status == "optimal"
        assert len(limits) >= len(left) > 1
        for limit, remaining in limits:
            assert 0.0 <= limit <= remaining <= 30.0

    @pytest.mark.usefixtures("no_master")
    def test_deadline_passed_after_root_is_time_limit(self, toy_fork, monkeypatch):
        model = build_model(toy_fork)
        ws = greedy_warm_start(model, toy_fork, EXACT)
        real = LpBackend.solve
        root_objs = []

        def expire_at_first_child(self, fixes=None):
            if fixes:
                self.deadline = min(self.deadline, time.monotonic())
            res = real(self, fixes)
            if not fixes:
                root_objs.append(res.objective)
            return res

        monkeypatch.setattr(LpBackend, "solve", expire_at_first_child)
        sol = solve(model, EXACT, warm_start=ws)
        assert sol.status == "time_limit"
        assert sol.bound >= root_objs[-1] > sol.objective + 1e-6

    def test_no_time_for_the_root(self, toy_fork):
        model = build_model(toy_fork)
        ws = greedy_warm_start(model, toy_fork, EXACT)
        for warm in (None, ws):
            sol = solve(model, SolverOptions(time_limit_s=1e-9), warm_start=warm)
            assert sol.status == "time_limit" and sol.bound == np.inf


def _trade_off_fixture():
    """One cone, no binaries: maximize P - I/2 with I*V >= P^2, optimum 0.55 at P = V = 1.1.

    Outer approximation closes in on the optimum over several rounds.
    Returns the model and a feasible point at P = 1, V = 1.1 with a tight cone.
    """
    cat = VariableCatalog()
    cat.add_group("i", [0], lb=0.0, ub=4.0)
    cat.add_group("v", [0], lb=0.9, ub=1.1)
    cat.add_group("p", [0], lb=0.0, ub=2.0)
    cat.add_group("q", [0], lb=0.0, ub=2.0)
    b = ModelBuilder(cat)
    b.add_obj(cat.col("p", 0), 1.0)
    b.add_obj(cat.col("i", 0), -0.5)
    b.add_cones([(cat.col("i", 0), cat.col("v", 0), cat.col("p", 0), cat.col("q", 0))])
    model = b.build({})
    x = np.zeros(model.ncols)
    x[[cat.col("i", 0), cat.col("v", 0), cat.col("p", 0)]] = (1.0 / 1.1, 1.1, 1.0)
    return model, x


def _recorded_lps(monkeypatch):
    """The result of every ``LpBackend.solve`` call from now on, in call order."""
    lps = []
    real = LpBackend.solve
    monkeypatch.setattr(LpBackend, "solve", lambda self, fixes=None: lps.append(real(self, fixes)) or lps[-1])
    return lps


class TestDominatedStop:
    """A cut loop ends, without re-solving, at its first LP that the incumbent dominates."""

    def test_reduced13_without_gate_is_proven_by_its_first_lp(self, reduced13, monkeypatch):
        model = build_model(reduced13, BuildOptions(ferro_gate=False))
        ws = greedy_warm_start(model, reduced13)
        opts = SolverOptions()
        lps = _recorded_lps(monkeypatch)
        sol = solve(model, opts, warm_start=ws, warm_start_source="greedy")
        assert len(lps) == 1 and sol.node_count == 1
        # the round separated at that LP stays in the pool
        seeds = incumbent_tangents(model, ws)[0].size
        assert sol.cut_count == seeds + len(cone_violations(model, lps[0].x, opts.oa_search_tol))
        assert sol.bound == lps[0].objective
        assert sol.status == "optimal" and 0.0 < sol.gap <= opts.rel_gap

    def test_without_an_incumbent_the_loop_refines_to_its_tolerance(self, monkeypatch):
        model, _ = _trade_off_fixture()
        opts = SolverOptions()
        search = bnb._Search(model, opts, deadline=time.monotonic() + 60.0)
        lps = _recorded_lps(monkeypatch)
        res = search.oa_refine({}, search.backend.solve(), bnb.MAX_OA_ROUNDS)
        assert res.ok and cone_violations(model, res.x, opts.oa_tol) == []
        assert len(lps) > 2 and res.objective == pytest.approx(0.55, abs=1e-8)

    @pytest.mark.usefixtures("no_master")  # the master would close the root before any candidate
    def test_a_candidate_cut_short_is_never_offered(self, monkeypatch):
        model, ws = _trade_off_fixture()
        # the threshold lies between the refined optimum and the root's LP at the search tolerance
        opts = SolverOptions(rel_gap=0.0, abs_gap=0.5502 - model.objective_value(ws), oa_search_tol=1e-3)
        real_offer, real_refine = bnb._Search.offer_incumbent, bnb._Search.oa_refine
        offered, cut_short = [], []

        def stopped_early(search, x, objective):
            return search.dominated(objective) and bool(cone_violations(model, x, opts.oa_tol))

        def offer(search, x, source):
            offered.append((source, stopped_early(search, x, model.objective_value(x))))
            return real_offer(search, x, source)

        def refine(search, fixes, res, rounds, tol=None):
            out = real_refine(search, fixes, res, rounds, tol)
            cut_short.append(out.ok and stopped_early(search, out.x, out.objective))
            return out

        monkeypatch.setattr(bnb._Search, "offer_incumbent", offer)
        monkeypatch.setattr(bnb._Search, "oa_refine", refine)
        sol = solve(model, opts, warm_start=ws)
        assert cut_short == [False, True]  # the root at the search tolerance, then in full
        assert offered == [("caller", False)]
        assert sol.status == "optimal" and sol.objective == model.objective_value(ws)
        assert sol.bound <= 0.5502 + 1e-12


class TestRootOrder:
    """The root's first LP, then the diver, then the master, and only then the root's refinement."""

    @staticmethod
    def _recorded(monkeypatch, diver):
        """Every LP, dive and master of the solve from now on, in call order, and the diver to pass.

        An LP, the search's or a dive's, is ``("lp", fixes, result)``, a dive
        ``("dive", x)`` and a master ``("master", bound)``.
        """
        events = []
        real_solve, real_master = LpBackend.solve, bnb.master_bound

        def solve_spy(self, fixes=None):
            res = real_solve(self, fixes)
            events.append(("lp", dict(fixes or {}), res))
            return res

        def master_spy(*args):
            events.append(("master", real_master(*args)))
            return events[-1][1]

        def diver_spy(x, backend, cutoff):
            events.append(("dive", x.copy()))
            return diver(x, backend, cutoff)

        monkeypatch.setattr(LpBackend, "solve", solve_spy)
        monkeypatch.setattr(bnb, "master_bound", master_spy)
        return events, diver_spy

    def test_master_closes_reduced13_before_any_refinement(self, reduced13, monkeypatch):
        model = build_model(reduced13)  # swap and gate: the first root LP leaves a gap
        opts = SolverOptions()
        ws = greedy_warm_start(model, reduced13, opts)
        events, diver = self._recorded(monkeypatch, make_diver(model, reduced13, opts))
        sol = solve(model, opts, warm_start=ws, warm_start_source="greedy", diver=diver)
        kinds = [event[0] for event in events]
        assert kinds.count("master") == 1 and kinds.count("dive") == 1
        master, dive = kinds.index("master"), kinds.index("dive")
        search_lps = [event for event in events if event[0] == "lp" and not event[1]]
        assert len(search_lps) == 1 and events[0] is search_lps[0]  # the first root LP
        assert dive < master and "lp" not in kinds[master:]  # the dive's LPs all pin fixings
        first = search_lps[0][2]
        assert np.array_equal(events[dive][1], first.x)
        assert sol.status == "optimal" and sol.node_count == 1
        assert sol.bound == sol.master_bound == events[master][1]
        # the one round separated at the first LP stays in the pool
        seeds = incumbent_tangents(model, ws)[0].size
        assert sol.cut_count == seeds + len(cone_violations(model, first.x, opts.oa_search_tol))

    @pytest.mark.usefixtures("no_master")
    def test_root_left_open_by_the_master_is_refined(self, reduced13, monkeypatch):
        model = build_model(reduced13)
        ws = greedy_warm_start(model, reduced13)
        root_lps = []
        real = LpBackend.solve

        class Branched(Exception):
            """Ends the solve at its first child: the root's LPs are all this test reads."""

        def until_the_first_child(self, fixes=None):
            if fixes:
                raise Branched
            root_lps.append(real(self, fixes))
            return root_lps[-1]

        monkeypatch.setattr(LpBackend, "solve", until_the_first_child)
        with pytest.raises(Branched):
            solve(model, SolverOptions(), warm_start=ws)
        assert len(root_lps) > 1
        assert root_lps[-1].objective < root_lps[0].objective

    @pytest.mark.usefixtures("no_master")
    def test_diver_runs_at_the_root_once_then_every_dive_every_nodes(self, toy_gear3, monkeypatch):
        model = build_model(toy_gear3)
        real = bnb._Search.oa_refine
        node_refines, dived_at = [], []

        def refine(search, fixes, res, rounds, tol=None):
            node_refines.append(rounds == bnb.OA_ROUNDS_FRACTIONAL)
            return real(search, fixes, res, rounds, tol)

        def recording(x, backend, cutoff):
            dived_at.append((1 + sum(node_refines), len(node_refines)))  # node count, refinements run
            return None

        monkeypatch.setattr(bnb._Search, "oa_refine", refine)
        sol = solve(model, EXACT, diver=recording)  # no gap, for a tree of many dive periods
        assert sol.status == "optimal" and sol.node_count > 2 * bnb.DIVE_EVERY
        assert dived_at[0] == (1, 0)  # before the root's refinement
        nodes = [count for count, _ in dived_at[1:]]
        assert nodes and all(count % bnb.DIVE_EVERY == 1 and count > 1 for count in nodes)
        assert nodes == sorted(set(nodes))


class TestMasterBound:
    """One outer-approximation master MIP caps the proven bound after the root."""

    @pytest.mark.parametrize("gate", [True, False])
    def test_at_least_the_greedy_on_reduced13(self, reduced13, gate):
        model = build_model(reduced13, BuildOptions(ferro_gate=gate))
        ws = greedy_warm_start(model, reduced13)
        bound = lp.master_bound(model, seed_tangents(model), 60.0)
        assert model.objective_value(ws) <= bound < np.inf

    def test_not_run_when_the_root_closes_the_gap(self, reduced13, monkeypatch):
        calls = []
        monkeypatch.setattr(bnb, "master_bound", lambda *args: calls.append(args) or np.inf)
        model = build_model(reduced13, BuildOptions(ferro_gate=False))
        ws = greedy_warm_start(model, reduced13)
        sol = solve(model, SolverOptions(), warm_start=ws, warm_start_source="greedy")
        assert sol.status == "optimal" and sol.node_count == 1
        assert calls == [] and sol.master_bound == np.inf
        # the root bound, inside rel_gap of the incumbent, is the bound reported
        assert sol.bound > sol.objective and 0.0 < sol.gap <= SolverOptions().rel_gap

    def test_proves_reduced13_with_swap_and_gate_at_the_root(self, reduced13):
        model = build_model(reduced13)
        ws = greedy_warm_start(model, reduced13)
        # a master that proves nothing leaves the search branching until the limit
        sol = solve(model, SolverOptions(time_limit_s=30), warm_start=ws, warm_start_source="greedy")
        assert sol.status == "optimal" and sol.node_count == 1
        assert sol.objective == model.objective_value(ws)
        assert sol.bound == sol.master_bound >= sol.objective
        assert 0.0 < sol.gap <= SolverOptions().rel_gap  # the bound proved, not the incumbent

    @pytest.mark.parametrize("name", ["toy_fork", "toy_gear3"])
    def test_stops_between_the_optimum_and_the_target(self, name):
        model = build_model(shipped_case(name))
        best = _enumerated_optimum(name)
        stop_at = best + SolverOptions().rel_gap * max(1.0, abs(best))
        bound = lp.master_bound(model, seed_tangents(model), 60.0, stop_at)
        assert best - 1e-9 * max(1.0, abs(best)) <= bound <= stop_at

    def test_no_target_never_stops(self, toy_fork, monkeypatch):
        model = build_model(toy_fork)
        seeds = seed_tangents(model)
        runs = _spy_masters(monkeypatch)
        assert lp.master_bound(model, seeds, 60.0, -np.inf) == lp.master_bound(model, seeds, 60.0)
        assert len(runs) == 2 and not any(run.asked for run in runs)

    def test_stops_at_the_greedys_threshold_on_reduced13(self, reduced13, monkeypatch):
        model = build_model(reduced13)  # swap and gate
        greedy = model.objective_value(greedy_warm_start(model, reduced13))
        opts = SolverOptions()
        stop_at = greedy + max(opts.abs_gap, opts.rel_gap * max(1.0, abs(greedy)))
        runs = _spy_masters(monkeypatch)
        bound = lp.master_bound(model, seed_tangents(model), 60.0, stop_at)
        assert greedy <= bound <= stop_at
        assert runs[-1].asked

    @pytest.mark.parametrize(
        "status",
        [HighsModelStatus.kSolveError, HighsModelStatus.kInfeasible, HighsModelStatus.kInterrupt],
    )
    def test_failed_master_yields_no_bound(self, toy_fork, monkeypatch, status):
        model = build_model(toy_fork)
        seeds = seed_tangents(model)
        assert lp.master_bound(model, seeds, 60.0) < np.inf
        real = lp._loaded
        monkeypatch.setattr(lp, "_loaded", lambda *args: _HighsSpy(real(*args), status))
        assert lp.master_bound(model, seeds, 60.0) == np.inf


class TestQuietStdout:
    def test_fd_level_output_is_dropped(self, capfd):
        libc = ctypes.CDLL(None)
        print("before", flush=True)
        with lp.quiet_stdout():
            os.write(1, b"os.write inside\n")
            libc.printf(b"printf inside\n")  # may wait in C's buffer until the block flushes it
        print("after", flush=True)
        libc.fflush(None)
        assert capfd.readouterr().out == "before\nafter\n"

    def test_fully_buffered_c_output_is_flushed_on_both_sides(self):
        # C stdio on a pipe is fully buffered unless Python runs unbuffered
        code = (
            "import ctypes, os\n"
            "from ugrestore.solver.lp import quiet_stdout\n"
            "libc = ctypes.CDLL(None)\n"
            "libc.printf(b'before ')\n"
            "with quiet_stdout():\n"
            "    os.write(1, b'os.write inside ')\n"
            "    libc.printf(b'printf inside ')\n"
            "libc.printf(b'after')\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(lp.__file__).parents[2])
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, check=True
        ).stdout
        assert out == b"before after"

    def test_missing_c_library_still_silences_fd_1(self, capfd, monkeypatch):
        def no_libc(name):
            raise TypeError("no CDLL(None) here")

        monkeypatch.setattr(lp.ctypes, "CDLL", no_libc)
        print("before", flush=True)
        with lp.quiet_stdout():
            os.write(1, b"os.write inside\n")
        print("after", flush=True)
        assert capfd.readouterr().out == "before\nafter\n"


def _loop_structural_fixes(model, case, schedule):
    """The skeleton's fixings made one key at a time: the reference for ``warmstart._structural_fixes``."""
    cat = model.catalog
    got = warmstart._forest(case)
    if got is None:
        return None
    gamma, coverage = got
    fixes = {cat.col("gamma", li): val for li, val in gamma.items()}
    for i, n in enumerate(case.nodes):
        for k in range(len(case.ess_units)):
            col = cat.col("u", (n.id, k))
            if model.col_lb[col] != model.col_ub[col]:
                fixes[col] = float(coverage[i, k])
    for g in case.switchgears:
        beta, bypass, swaps = schedule[g.id]
        if gamma.get(g.line_index, 1.0) < 0.5:
            beta, bypass, swaps = [0] * case.horizon, 0, [np.zeros((3, 3))] * case.horizon
        col = cat.col("gate_bypass", g.id)
        if model.col_lb[col] < model.col_ub[col]:
            fixes[col] = float(bypass)
        prev = np.zeros((3, 3))
        for t in range(case.horizon):
            cur = swaps[t]
            fixes[cat.col("beta", (g.id, t))] = float(beta[t])
            closing = beta[t] == 1 and (t == 0 or beta[t - 1] == 0)
            fixes[cat.col("alpha", (g.id, t))] = 1.0 if closing else 0.0
            events = np.maximum(0.0, cur - prev)
            for ph in range(3):
                for ps in range(3):
                    fixes[cat.col("swap", (g.id, t, ph, ps))] = float(cur[ph, ps])
                    fixes[cat.col("swap_event", (g.id, t, ph, ps))] = float(events[ph, ps])
                fixes[cat.col("swap_any", (g.id, t, ph))] = 1.0 if events[ph].sum() > 0.5 else 0.0
            v_star = int(np.argmax([float((cur * p).sum()) for p in PERMUTATIONS])) if cur.sum() > 0.5 else 0
            for v in range(6):
                fixes[cat.col("reorder_sel", (g.id, t, v))] = 0.0 if v == v_star else 1.0
            prev = cur
    return fixes


class TestWarmStart:
    @pytest.mark.parametrize("build", [{}, {"ferro_gate": False}, {"no_swap": True}], ids=str)
    @pytest.mark.parametrize("name", shipped_case_names())
    def test_skeleton_fixings_match_the_loop_over_keys(self, name, build):
        """The grid-wise fixings equal those made key by key, for the case's schedule, an all-open one
        and one that closes after the first period and changes its swap every period."""
        case = shipped_case(name)
        model = build_model(case, BuildOptions(**build))
        T = case.horizon
        beta = [0] + [1] * (T - 1)
        schedules = [
            warmstart._schedule_from_case(case, build.get("ferro_gate", True), build.get("no_swap", False)),
            {g.id: ([0] * T, 0, [np.zeros((3, 3))] * T) for g in case.switchgears},
            {g.id: (beta, 1, [PERMUTATIONS[t % 6] * beta[t] for t in range(T)]) for g in case.switchgears},
        ]
        for schedule in schedules:
            assert warmstart._structural_fixes(model, case, schedule) == _loop_structural_fixes(model, case, schedule)

    @pytest.mark.parametrize("build", [{}, {"ferro_gate": False}, {"no_swap": True}], ids=str)
    @pytest.mark.parametrize("name", [n for n in shipped_case_names() if n != "feeder123"])
    def test_skeleton_and_storage_pin_every_binary(self, name, build, monkeypatch):
        """The skeleton pins every binary but the storage flags, and the storage step pins those.

        So the warm start's final LP has no free binary left.  On ``rad_loop4``
        the skeleton's LP is infeasible (one microgrid, so ``switch-split``
        forbids the forest's open switches) and no storage step runs.
        """
        case = shipped_case(name)
        model = build_model(case, BuildOptions(**build))
        free = set(model.free_binary_columns.tolist())
        cat = model.catalog
        storage = {col for g in ("ess_ch_on", "ess_dis_on") for col in cat.group(g).grid.ravel().tolist()}
        schedule = warmstart._schedule_from_case(case, build.get("ferro_gate", True), build.get("no_swap", False))
        assert free - set(warmstart._structural_fixes(model, case, schedule)) <= storage
        pinned = []
        real = warmstart._lp_with_oa

        def recorded(backend, fixes, *args):
            pinned.append(set(fixes))
            return real(backend, fixes, *args)

        monkeypatch.setattr(warmstart, "_lp_with_oa", recorded)
        ws = greedy_warm_start(model, case)
        assert (ws is None) == (name == "rad_loop4")
        if ws is not None:
            assert free <= pinned[-1] and model.check_solution(ws) == []

    def test_no_forest_when_two_sources_are_wired_together(self, monkeypatch):
        """``toy_fork`` with every line a wire: no forest separates its two sources, so the greedy yields None."""
        doc = shipped_doc("toy_fork")
        for line in doc["lines"]:
            line["is_switch"] = False
        case = load_case_dict(doc)
        assert len(case.ess_units) == 2 and case.wire_component.tolist() == [0] * len(case.nodes)
        assert warmstart._forest(case) is None
        monkeypatch.setattr(warmstart, "LpBackend", lambda *args: pytest.fail("an LP for no skeleton"))
        assert greedy_warm_start(build_model(case), case) is None

    def test_time_limit_bounds_the_warm_start(self, reduced13, monkeypatch):
        """The greedy's LPs stop at ``time_limit_s`` after it starts, so a budget shorter than one LP yields no point."""
        model = build_model(reduced13)
        built = []
        monkeypatch.setattr(warmstart, "LpBackend", lambda *args: built.append(LpBackend(*args)) or built[-1])
        t0 = time.monotonic()
        assert greedy_warm_start(model, reduced13, SolverOptions(time_limit_s=1e-3)) is None
        assert time.monotonic() - t0 < 1.0
        assert len(built) == 1  # the all-open schedule's backend is not built past the deadline

    def test_zero_load_gives_zero(self):
        doc_case = load_minimal()
        import copy

        from conftest import minimal_doc
        from ugrestore.feeder import load_case_dict

        doc = minimal_doc()
        doc["nodes"][1].pop("load_kw")
        case = load_case_dict(doc)
        model = build_model(case)
        ws = greedy_warm_start(model, case)
        assert ws is not None
        assert model.objective_value(ws) == pytest.approx(0.0, abs=1e-9)

    def test_single_lateral_first_feasible_close(self, toy_gear3):
        model = build_model(toy_gear3)
        ws = greedy_warm_start(model, toy_gear3)
        assert ws is not None
        cat = model.catalog
        assert ws[cat.col("beta", ("G1", 0))] == pytest.approx(1.0)
        assert model.objective_value(ws) > 0.15  # both periods served

    def test_gate_blocked_until_bypass(self):
        from conftest import shipped_doc
        from ugrestore.feeder import load_case_dict

        doc = shipped_doc("toy_gear3")
        # quality limit so tight no demand level passes the gate
        doc["switchgears"][0]["q_max"] = 1e-6
        case = load_case_dict(doc)
        model = build_model(case)
        ws = greedy_warm_start(model, case)
        assert ws is not None
        cat = model.catalog
        assert ws[cat.col("gate_bypass", "G1")] == pytest.approx(1.0)
        assert ws[cat.col("beta", ("G1", 0))] == pytest.approx(1.0)

    def test_unloadable_lateral_stays_open(self):
        from conftest import shipped_doc
        from ugrestore.feeder import load_case_dict

        doc = shipped_doc("toy_gear3")
        doc["nodes"][2].pop("load_kw")
        doc["nodes"][2].pop("load_kvar")
        case = load_case_dict(doc)
        model = build_model(case)
        ws = greedy_warm_start(model, case)
        assert ws is not None
        cat = model.catalog
        for t in range(case.horizon):
            assert ws[cat.col("beta", ("G1", t))] == pytest.approx(0.0)

    def test_greedy_plan_passes_the_validator_on_scaled_loads(self):
        # reduced13 with each node's load scaled by one U(0.95, 1.05) factor of
        # random.Random(6): the greedy's last LP, warm-started, once stopped 2.7e-11
        # short of its optimum with line m5-m6 (t 0, phase a) 2.8e-4 off tight
        # on its cone, which the validator's cone-tightness rejects
        doc = shipped_doc("reduced13")
        rng = random.Random(6)
        for node in doc["nodes"]:
            factor = rng.uniform(0.95, 1.05)
            for key in ("load_kw", "load_kvar"):
                if key in node:
                    node[key] = {ph: [v * factor for v in vals] for ph, vals in node[key].items()}
        case = load_case_dict(doc)
        model = build_model(case)
        ws = greedy_warm_start(model, case)
        report = check_plan(case, RestorationPlan.from_solution(model, ws, status="feasible", gap=np.inf))
        assert report.passed, [(r.family, r.worst_residual) for r in report.records if not r.passed]

    def test_diver_returns_feasible(self, toy_gear3):
        model = build_model(toy_gear3)
        res = LpBackend(model).solve()
        diver = make_diver(model, toy_gear3)
        x = diver(res.x, LpBackend(model))
        assert x is not None
        assert model.check_solution(x, 1e-6, 1e-6) == []

    @staticmethod
    def _gear_closed_point(model):
        """A relaxation point that dives into a plan with the gear closed throughout."""
        x = LpBackend(model).solve().x
        beta = model.catalog.group("beta")
        x[beta.start : beta.start + beta.size] = 1.0
        return x

    @pytest.mark.parametrize("above", [0.0, 1e-3])
    def test_diver_cut_off_at_its_first_lp(self, toy_gear3, monkeypatch, above):
        model = build_model(toy_gear3)
        x_lp = self._gear_closed_point(model)
        lps = []
        real = LpBackend.solve

        def recorded(self, fixes=None):
            lps.append(real(self, fixes))
            return lps[-1]

        monkeypatch.setattr(LpBackend, "solve", recorded)
        uncut = LpBackend(model)
        make_diver(model, toy_gear3)(x_lp, uncut)
        first = lps[0].objective
        assert uncut.cut_rhs.size > 0  # the same dive without a cutoff separates
        lps.clear()
        backend = LpBackend(model)
        assert make_diver(model, toy_gear3)(x_lp, backend, first + above) is None
        assert len(lps) == 1 and backend.cut_rhs.size == 0

    def test_cutoff_below_the_plan_keeps_the_plan(self, toy_gear3):
        model = build_model(toy_gear3)
        x_lp = self._gear_closed_point(model)
        plan = make_diver(model, toy_gear3)(x_lp, LpBackend(model))
        assert plan is not None and model.objective_value(plan) > 0.1
        cutoff = model.objective_value(plan) - 1e-9
        same = make_diver(model, toy_gear3)(x_lp, LpBackend(model), cutoff)
        assert same is not None and np.array_equal(same, plan)
