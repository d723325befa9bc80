import itertools
import math
import time

import numpy as np
import pytest

from conftest import load_minimal, shipped_case
from enum_oracle import _lp_with_cones, exhaustive_solve
from ugrestore.catalog import VariableCatalog
from ugrestore.formulation import BuildOptions, build_model
from ugrestore.model import SENSE_LE, ConeRow, ModelBuilder, Violation
from ugrestore.physics import PERMUTATIONS
from ugrestore.solver import (
    SolverOptions,
    greedy_warm_start,
    make_diver,
    solve,
)
from ugrestore.solver import lp
from ugrestore.solver.cuts import NoCutError, cone_violations, initial_cone_cuts, soc_cut
from ugrestore.solver.lp import CUTS_PER_CONE, Cut, HighsModelStatus, LpBackend, LpResult

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
        b.add("cap", (), [(0, 1.0), (1, 1.0)], SENSE_LE, 1.0)
        b.add_obj(0, 1.0)
        b.add_obj(1, 1.0)
        model = b.build({})
        xs = [LpBackend(model).solve().x for _ in range(3)]
        for x in xs[1:]:
            assert np.array_equal(x, xs[0])


class TestLpBackend:
    def test_cut_pool_capped_per_cone_drops_slackest(self):
        cat, model = _cone_fixture()
        backend = LpBackend(model)
        x = np.zeros(model.ncols)  # every cut below has slack rhs at x
        binding = Cut(cols=(0,), coefs=(1.0,), rhs=0.0)
        rhs = [4.0 + (3 * k) % CUTS_PER_CONE for k in range(CUTS_PER_CONE - 1)]
        cuts = [binding] + [Cut(cols=(0,), coefs=(1.0,), rhs=r) for r in rhs]
        for cut in cuts:
            backend.add_cut(0, cut, x)
        new = [Cut(cols=(0,), coefs=(1.0,), rhs=1.0 + k) for k in range(3)]
        for cut in new:
            backend.add_cut(0, cut, x)
        backend.add_cut(1, cuts[1], x)
        # each new cut took the place of the slackest one at x, largest rhs first;
        # the oldest cut is binding at x and stays
        want = list(cuts)
        for cut, pos in zip(new, sorted(range(CUTS_PER_CONE), key=lambda k: -cuts[k].rhs)):
            want[pos] = cut
        assert backend.cuts == want + [cuts[1]]
        assert binding in backend.cuts
        assert backend.solve().ok

    def test_refused_cut_row_raises_and_stays_out_of_the_pool(self):
        cat, model = _cone_fixture()
        backend = LpBackend(model)
        with pytest.raises(RuntimeError, match="refused a cut row"):
            backend.add_cut(0, Cut(cols=(model.ncols,), coefs=(1.0,), rhs=1.0), np.zeros(model.ncols))
        assert backend.cuts == [] and backend.highs.getNumRow() == model.nrows

    def test_fixing_outside_bounds_runs_no_lp(self, monkeypatch):
        cat, model = _cone_fixture()

        def no_lp(*args, **kwargs):
            raise AssertionError("an inconsistent fixing must not reach HiGHS")

        monkeypatch.setattr(lp, "linprog", no_lp)
        assert LpBackend(model).solve({cat.col("v", 0): 2.0}).status == "infeasible"

    def test_deadline_becomes_highs_time_limit(self, monkeypatch):
        cat, model = _cone_fixture()
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
            for k, cut in enumerate(self.cuts):  # one cone each: same rows, same order
                fresh.add_cut(k, cut, None)
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

    def test_drifted_warm_point_is_rerun_cold(self, monkeypatch):
        cat, model = _cone_fixture()
        backend = LpBackend(model)
        assert backend.solve().ok
        backend.highs = spy = _HighsSpy(backend.highs)
        real = lp.linprog

        def drift_once(highs, time_limit):
            res = real(highs, time_limit)
            if highs.calls.count("run") == 1:  # break the demand row by 1e-5
                res.x = res.x.copy()
                res.x[cat.col("p", 0)] = 1.3 + 1e-5
            return res

        monkeypatch.setattr(lp, "linprog", drift_once)
        res = backend.solve()
        assert spy.calls.count("run") == 2
        assert spy.calls.index("run") < spy.calls.index("clearSolver") < _last(spy.calls, "run")
        assert res.ok and -model.row_residuals(res.x).min() <= lp.MAX_ROW_RESIDUAL

    def test_unknown_warm_status_is_rerun_cold(self):
        cat, model = _cone_fixture()
        backend = LpBackend(model)
        assert backend.solve().ok
        backend.highs = spy = _HighsSpy(backend.highs, HighsModelStatus.kUnknown)
        assert backend.solve().status == "error"  # the cold run said Unknown too
        assert spy.calls.count("run") == 2
        assert spy.calls.index("run") < spy.calls.index("clearSolver") < _last(spy.calls, "run")

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
            "addRow",
            "changeCoeff",
            "changeRowBounds",
            "clearSolver",
            "run",
            "getRunTime",
            "getSolution",
            "getInfo",
            "getModelStatus",
            "getIis",
        ):
            assert hasattr(core._Highs, method), f"{where}._Highs.{method} is gone; update lp.py"
        assert lp._Highs is core._Highs


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


def _last(calls, name):
    return len(calls) - 1 - calls[::-1].index(name)


def _cone_fixture():
    """One cone over four columns with loss pressure on the current."""
    cat = VariableCatalog()
    cat.add_group("i", [0], lb=0.0, ub=4.0)
    cat.add_group("v", [0], lb=0.9, ub=1.1)
    cat.add_group("p", [0], lb=0.0, ub=2.0)
    cat.add_group("q", [0], lb=0.0, ub=2.0)
    b = ModelBuilder(cat)
    b.add("demand", (), [(cat.col("p", 0), 1.0)], SENSE_LE, 1.3)
    b.add_obj(cat.col("p", 0), 1.0)
    b.add_obj(cat.col("i", 0), -0.1)
    b.add_cone("cone", (0,), cat.col("i", 0), cat.col("v", 0), cat.col("p", 0), cat.col("q", 0))
    return cat, b.build({})


class TestSocCut:
    def test_no_violation_no_cut(self):
        cone = ConeRow(0, 1, 2, 3, "cone", ())
        with pytest.raises(NoCutError):
            soc_cut((1.0, 1.0, 0.0, 0.0), cone)

    def test_cut_separates_and_keeps_apex(self):
        cone = ConeRow(0, 1, 2, 3, "cone", ())
        point = (1.0, 1.0, 1.0, 1.0)  # violates: 1*1 < 1 + 1
        cut = soc_cut(point, cone)
        lhs_point = sum(c * v for c, v in zip(cut.coefs, point))
        assert lhs_point > cut.rhs + 1e-9
        # apex of the cone satisfies the cut
        assert 0.0 <= cut.rhs + 1e-12
        # random cone-feasible points satisfy the cut
        rng = np.random.default_rng(0)
        for _ in range(500):
            p, q = rng.uniform(0, 1, 2)
            v = rng.uniform(0.5, 1.5)
            i = (p * p + q * q) / v * rng.uniform(1.0, 3.0)
            lhs = cut.coefs[0] * i + cut.coefs[1] * v + cut.coefs[2] * p + cut.coefs[3] * q
            assert lhs <= cut.rhs + 1e-9

    def test_iterated_cutting_converges(self):
        cat, model = _cone_fixture()
        backend = LpBackend(model)
        x = None
        for rounds in range(50):
            res = backend.solve()
            assert res.ok
            x = res.x
            viol = cone_violations(model, x, 1e-6)
            if not viol:
                break
            cone = model.cones[viol[0][0]]
            backend.add_cut(viol[0][0], soc_cut(cone.point(x), cone), x)
        assert rounds < 50
        slack = model.cone_values(x)[0]
        assert slack >= -1e-6
        # loss pressure makes the relaxation essentially tight
        i, v, p, q = x[0], x[1], x[2], x[3]
        assert i * v == pytest.approx(p * p + q * q, rel=1e-4, abs=1e-5)

    def test_initial_cuts_are_supporting(self):
        cat, model = _cone_fixture()
        cuts = initial_cone_cuts(model, 8)
        assert len(cuts) == 8
        rng = np.random.default_rng(1)
        for cut in cuts:
            for _ in range(100):
                p, q = rng.uniform(-1, 1, 2)
                v = rng.uniform(0.5, 1.5)
                i = (p * p + q * q) / v * rng.uniform(1.0, 2.0)
                lhs = cut.coefs[0] * i + cut.coefs[1] * v + cut.coefs[2] * p + cut.coefs[3] * q
                assert lhs <= cut.rhs + 1e-9


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
            fixes[cat.col("Gamma", l.index)] = 1.0
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
        enum_val = _structured_enumeration(model, toy_gear3)
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

    def test_incumbent_passes_replay(self, toy_pv):
        model = build_model(toy_pv)
        sol = solve(model, EXACT)
        assert sol.status == "optimal"
        assert model.check_solution(sol.x, 1e-6, 1e-6) == []


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

    def test_child_error_keeps_inherited_bound(self, toy_fork, monkeypatch):
        model = build_model(toy_fork)
        failed, root_objs = _fail_once(monkeypatch, lambda fixes: len(fixes) > 0)
        sol = solve(model, EXACT)
        assert failed, "the search never branched"
        assert sol.bound >= root_objs[-1] > sol.objective + 1e-6
        assert sol.status == "feasible"

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


class TestWarmStart:
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

    def test_diver_returns_feasible(self, toy_gear3):
        model = build_model(toy_gear3)
        res = LpBackend(model).solve()
        diver = make_diver(model, toy_gear3)
        x = diver(res.x, LpBackend(model))
        assert x is not None
        assert model.check_solution(x, 1e-6, 1e-6) == []

    def test_diver_remembers_only_last_skeleton(self, toy_gear3, monkeypatch):
        model = build_model(toy_gear3)
        backend = LpBackend(model)
        x_lp = backend.solve().x
        diver = make_diver(model, toy_gear3)
        calls = []
        real = LpBackend.solve

        def counted(self, fixes=None):
            calls.append(1)
            return real(self, fixes)

        monkeypatch.setattr(LpBackend, "solve", counted)
        first = diver(x_lp, backend)
        n = len(calls)
        assert n > 0 and diver(x_lp, backend) is first and len(calls) == n
        # a different skeleton (the gear closed throughout) replaces the remembered one
        x_closed = x_lp.copy()
        beta = model.catalog.group("beta")
        x_closed[beta.start : beta.start + beta.size] = 1.0
        assert diver(x_closed, backend) is not first
        n = len(calls)
        diver(x_lp, backend)
        assert len(calls) > n
