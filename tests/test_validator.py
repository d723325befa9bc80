import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import family_rows, linprog_rows, load_minimal, minimal_doc, shipped_case, voltdiff_capped
from ugrestore.feeder import load_case_dict
from ugrestore.formulation import build_model
from ugrestore.plan import RestorationPlan
from ugrestore.solver import SolverOptions, greedy_warm_start, solve
from ugrestore.validator import (
    ValidationStructuralError,
    assess_switchgears,
    check_plan,
    energy_accounting,
    radiality_check,
    sweep_power_flow,
)

OPTS = SolverOptions(time_limit_s=90, rel_gap=1e-6, abs_gap=1e-9, oa_tol=1e-9)

RADIALITY_FAMILIES = (
    "tree-count",
    "flow-demand",
    "flow-root",
    "flow-gate",
)


def _encoding_feasible(case, model, closed_switches) -> bool:
    """LP feasibility of the commodity-flow radiality rows for fixed states."""
    rows = family_rows(model, *RADIALITY_FAMILIES)
    m = model.matrix().tocsr()[rows]
    lb = model.col_lb.copy()
    ub = model.col_ub.copy()
    for l in case.switch_lines:
        val = 1.0 if l.index in closed_switches else 0.0
        col = model.catalog.col("gamma", l.index)
        lb[col] = val
        ub[col] = val
    res = linprog(
        c=np.zeros(model.ncols),
        **linprog_rows(m, model.row_lo[rows], model.row_hi[rows]),
        bounds=np.column_stack((lb, ub)),
        method="highs",
    )
    return res.status == 0


class TestRadiality:
    def test_path_passes(self):
        case = load_case_dict(
            {
                "name": "path3",
                "horizon": 1,
                "period_hours": 1.0,
                "config": {"v_min_sq": 0.81, "v_max_sq": 1.21, "inrush_rise_time_s": 1e-4},
                "nodes": [
                    {"id": "r", "phases": "abc"},
                    {"id": "a", "phases": "abc"},
                    {"id": "b", "phases": "abc"},
                ],
                "lines": [
                    {"from": "r", "to": "a", "length_miles": 0.1, "impedance_pu": {"aa": [0.01, 0.01]}},
                    {"from": "a", "to": "b", "length_miles": 0.1, "impedance_pu": {"aa": [0.01, 0.01]}},
                ],
                "switchgears": [],
                "ders": [
                    {"node": "r", "kind": "ESS", "energy_max_kwh": 10.0, "charge_max_kw": 1.0, "discharge_max_kw": 1.0}
                ],
            }
        )
        ok, _ = radiality_check(case, [0, 1], ["r"])
        assert ok

    def test_triangle_fails(self):
        doc = {
            "name": "tri",
            "horizon": 1,
            "period_hours": 1.0,
            "config": {"v_min_sq": 0.81, "v_max_sq": 1.21, "inrush_rise_time_s": 1e-4},
            "nodes": [
                {"id": "r", "phases": "abc"},
                {"id": "a", "phases": "abc"},
                {"id": "b", "phases": "abc"},
            ],
            "lines": [
                {"from": "r", "to": "a", "length_miles": 0.1, "is_switch": True, "phases": "abc"},
                {"from": "a", "to": "b", "length_miles": 0.1, "is_switch": True, "phases": "abc"},
                {"from": "b", "to": "r", "length_miles": 0.1, "is_switch": True, "phases": "abc"},
            ],
            "switchgears": [],
            "ders": [
                {"node": "r", "kind": "ESS", "energy_max_kwh": 10.0, "charge_max_kw": 1.0, "discharge_max_kw": 1.0}
            ],
        }
        case = load_case_dict(doc)
        ok, why = radiality_check(case, [0, 1, 2], ["r"])
        assert not ok and "cycle" in why

    @pytest.mark.parametrize("fixture", ["rad_loop4", "rad_tworoot5"])
    def test_oracle_matches_encoding_exhaustively(self, fixture):
        """Graph oracle vs commodity-flow feasibility over all switch subsets."""
        case = shipped_case(fixture)
        model = build_model(case)
        switches = [l.index for l in case.switch_lines]
        assert len(switches) <= 6
        roots = [e.node for e in case.ess_units]
        wires = [l.index for l in case.wire_lines]
        agreements = 0
        for bits in itertools.product((0, 1), repeat=len(switches)):
            closed_switches = {li for li, b in zip(switches, bits) if b}
            closed_all = list(closed_switches) + wires
            oracle_ok, _ = radiality_check(case, closed_all, roots)
            enc_ok = _encoding_feasible(case, model, closed_switches)
            assert oracle_ok == enc_ok, f"{fixture}: disagreement at {bits}"
            agreements += 1
        assert agreements == 2 ** len(switches)


class TestSweep:
    def test_no_load_uniform_voltage(self):
        case = load_minimal()
        volts, currents, iters = sweep_power_flow(
            case,
            [0],
            "s",
            np.array([1.0, 1.0, 1.0]) * np.exp(1j * np.array([0, -2 * np.pi / 3, 2 * np.pi / 3])),
            {},
            {},
            {},
            {},
            {},
        )
        for v in volts.values():
            assert np.allclose(np.abs(v), 1.0, atol=1e-12)

    def test_single_line_hand_calculation(self):
        case = load_minimal()
        angles = np.exp(1j * np.array([0, -2 * np.pi / 3, 2 * np.pi / 3]))
        load = np.array([0.05, 0.0, 0.0])
        volts, currents, iters = sweep_power_flow(
            case,
            [0],
            "s",
            angles.copy(),
            {"n1": load},
            {"n1": np.zeros(3)},
            {},
            {},
            {},
        )
        # fixed point of v = 1 - z * conj(s / v) on phase a with z = .01+.02j
        z = 0.01 + 0.02j
        v = 1.0 + 0j
        for _ in range(60):
            v = 1.0 - z * np.conj(0.05 / v)
        assert volts["n1"][0] == pytest.approx(v, abs=1e-8)

    def test_cycle_rejected(self):
        doc = minimal_doc()
        doc["nodes"].append({"id": "n2", "phases": "abc"})
        doc["lines"] += [
            {"from": "n1", "to": "n2", "length_miles": 0.1, "is_switch": True, "phases": "abc"},
            {"from": "n2", "to": "s", "length_miles": 0.1, "is_switch": True, "phases": "abc"},
        ]
        case = load_case_dict(doc)
        with pytest.raises(ValidationStructuralError, match="cycle"):
            sweep_power_flow(
                case,
                [0, 1, 2],
                "s",
                np.ones(3).astype(complex),
                {},
                {},
                {},
                {},
                {},
            )


def _solved_plan(case, **build_kw):
    from ugrestore.formulation import BuildOptions

    model = build_model(case, BuildOptions(**build_kw))
    ws = greedy_warm_start(model, case, OPTS)
    sol = solve(model, OPTS, warm_start=ws, warm_start_source="greedy")
    assert sol.x is not None
    plan = RestorationPlan.from_solution(model, sol.x, status=sol.status, gap=sol.gap)
    return model, sol, plan


class TestCheckPlan:
    def test_zero_plan_passes(self):
        doc = minimal_doc()
        doc["nodes"][1].pop("load_kw")
        case = load_case_dict(doc)
        model, sol, plan = _solved_plan(case)
        report = check_plan(case, plan)
        assert report.passed
        assert report.metrics["restored_kwh"] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("name", ["toy_pair", "toy_pv", "toy_gear3"])
    def test_solver_output_passes_all_families(self, name):
        case = shipped_case(name)
        model, sol, plan = _solved_plan(case)
        report = check_plan(case, plan)
        failed = [r for r in report.records if not r.passed]
        assert report.passed, failed

    def test_dimension_mismatch(self, toy_pair):
        model, sol, plan = _solved_plan(toy_pair)
        plan.horizon = 5
        with pytest.raises(ValidationStructuralError, match="horizon"):
            check_plan(toy_pair, plan)

    def test_constructed_inrush_violation(self, toy_gear3):
        model, sol, plan = _solved_plan(toy_gear3)
        # inflate the recorded voltage step at the closing event beyond the
        # rating: the inrush family must localize it
        g = toy_gear3.switchgears[0]
        lim = g.inrush_limit_pu
        for entry in plan.groups["volt_diff"]:
            gid, t, ph, val = entry
            if plan.value("swap_any", (gid, t, ph), 0.0) > 0.5:
                entry[3] = 2.3 / 2.0 * lim / _coef(toy_gear3, g)
        for entry in plan.groups["inrush"]:
            gid, t, ph, val = entry
            if plan.value("swap_any", (gid, t, ph), 0.0) > 0.5:
                entry[3] = 1.15 * lim
        plan.__dict__.pop("_cache", None)
        report = check_plan(toy_gear3, plan)
        rec = report.record("inrush")
        assert not rec.passed
        assert rec.worst_residual == pytest.approx(0.15 * lim, rel=1e-6)
        assert rec.location[0] == g.id

    def test_flipped_gear_state_caught(self, toy_gear3):
        model, sol, plan = _solved_plan(toy_gear3)
        for entry in plan.groups["beta"]:
            if entry[1] == 1:
                entry[2] = 0.0 if entry[2] > 0.5 else 1.0
        plan.__dict__.pop("_cache", None)
        report = check_plan(toy_gear3, plan)
        assert not report.passed
        failing = {r.family for r in report.records if not r.passed}
        assert failing & {"swap-integrity", "sequencing", "power-balance-p", "load-restoration"}

    def test_energy_balance_violation(self, toy_pair):
        model, sol, plan = _solved_plan(toy_pair)
        plan.groups["ess_soc"][0][-1] += 0.01  # 10 kWh of phantom energy
        plan.__dict__.pop("_cache", None)
        report = check_plan(toy_pair, plan)
        assert not report.record("ess-energy").passed


class TestVoltdiffCap:
    """``config.delta_v_max_pu`` caps |volt_diff| at every closing event."""

    CAP = 0.05

    @staticmethod
    def _steps(plan):
        return {tuple(e[:3]): e[3] for e in plan.groups["volt_diff"]}

    def test_binding_cap_is_respected(self, toy_gear3):
        _, _, free = _solved_plan(toy_gear3)
        assert max(abs(v) for v in self._steps(free).values()) > self.CAP  # the cap binds
        case = voltdiff_capped("toy_gear3", self.CAP)
        _, _, plan = _solved_plan(case)
        assert max(abs(v) for v in self._steps(plan).values()) <= self.CAP + 1e-9
        report = check_plan(case, plan)
        assert report.passed and report.record("voltdiff-cap").passed
        assert not check_plan(case, free).record("voltdiff-cap").passed
        with pytest.raises(KeyError):  # no cap, no family
            check_plan(toy_gear3, free).record("voltdiff-cap")

    def test_step_past_the_cap_fails(self):
        case = voltdiff_capped("toy_gear3", self.CAP)
        _, _, plan = _solved_plan(case)
        entry = next(
            e for e in plan.groups["volt_diff"] if plan.value("swap_any", tuple(e[:3]), 0.0) > 0.5
        )
        entry[3] = -(self.CAP + 0.01)
        plan.__dict__.pop("_cache", None)
        rec = check_plan(case, plan).record("voltdiff-cap")
        assert not rec.passed
        assert rec.worst_residual == pytest.approx(0.01)
        assert rec.location == tuple(entry[:3])


def _coef(case, gear):
    from ugrestore.feeder import equivalent_capacitance
    from ugrestore.physics import inrush_coefficient_pu

    return inrush_coefficient_pu(
        equivalent_capacitance(gear, case),
        case.config.inrush_rise_time_s,
        case.config.base_kv,
        case.config.base_mva,
    )


class TestEnergyAccounting:
    def test_idle_storage_constant_soc(self):
        doc = minimal_doc()
        doc["nodes"][1].pop("load_kw")
        doc["horizon"] = 3
        case = load_case_dict(doc)
        model, sol, plan = _solved_plan(case)
        acct = energy_accounting(case, plan)
        soc = acct["soc_replay_kwh"][0]
        assert soc == pytest.approx([100.0 * 1.0] * 3)  # soc_init defaults to 1.0

    def test_charge_efficiency_hand_value(self):
        # charging 100 kW for 1 h at 0.95 efficiency stores 95 kWh
        doc = minimal_doc()
        doc["nodes"][1].pop("load_kw")
        doc["ders"][0].update(
            {"energy_max_kwh": 1000.0, "soc_init": 0.0, "eff_charge": 0.95, "charge_max_kw": 40.0}
        )
        doc["ders"].append(
            {
                "node": "n1",
                "kind": "PV",
                "forecast_kw": {"a": [40.0], "b": [40.0], "c": [40.0]},
                "sigma": 0.0,
                "confidence": 0.9,
            }
        )
        case = load_case_dict(doc)
        model, sol, plan = _solved_plan(case)
        charged = sum(plan.value("ess_ch", (0, 0, ph)) for ph in range(3))
        soc = plan.value("ess_soc", (0, 0))
        assert soc == pytest.approx(0.95 * charged * 1.0, abs=1e-9)
        report = check_plan(case, plan)
        assert report.record("ess-energy").passed

    def test_restored_energy_trivial(self, toy_pair):
        model, sol, plan = _solved_plan(toy_pair)
        acct = energy_accounting(case=toy_pair, plan=plan)
        served = sum(
            plan.served_p(n.id, t).sum() for n in toy_pair.nodes for t in range(plan.horizon)
        )
        assert acct["restored_kwh"] == pytest.approx(served * 1000.0)

    def test_objective_equals_weighted_restored_minus_losses(self, toy_gear3):
        model, sol, plan = _solved_plan(toy_gear3)
        acct = energy_accounting(toy_gear3, plan)
        # replay the loss term with directly reordered impedances
        dt = plan.period_hours
        losses = 0.0
        for k in range(len(toy_gear3.ess_units)):
            for l in toy_gear3.lines:
                gear = toy_gear3.gear_of_downstream_line(l.index)
                for t in range(plan.horizon):
                    z = l.z
                    if gear is not None:
                        s = plan.swap_matrix(gear.id, t)
                        if s.sum() > 0.5:
                            z = s @ l.z @ s.T
                    curr = np.array(
                        [plan.value("curr_sq", (l.index, k, t, ps), 0.0) for ps in range(3)]
                    )
                    losses += float(z.real.sum(axis=0) @ curr) * dt
        bypass_pen = sum(
            toy_gear3.config.bypass_penalty * plan.bypass(g.id) for g in toy_gear3.switchgears
        )
        expect = acct["weighted_restored_kwh"] / 1000.0 - losses - bypass_pen
        assert plan.objective_pu_h == pytest.approx(expect, abs=1e-8)


class TestAssessments:
    def test_gear_quantities(self, toy_gear3):
        model, sol, plan = _solved_plan(toy_gear3)
        assessments = assess_switchgears(toy_gear3, plan)
        closing = [a for a in assessments if a.closing]
        assert closing, "plan should close the switchgear"
        a = closing[0]
        assert a.c_eq_farad == pytest.approx(74.76e-9)
        assert a.l_osc_henry == pytest.approx(94.117, abs=1e-2)
        assert a.gate_passed
        assert np.all(np.abs(a.inrush_pu) <= toy_gear3.switchgears[0].inrush_limit_pu + 1e-6)
        # exact oracle stays within the bracket of the linearized step
        lim = math.sqrt(2.0) * toy_gear3.switchgears[0].inrush_limit_pu
        coef = _coef(toy_gear3, toy_gear3.switchgears[0])
        assert np.all(a.inrush_exact_pu <= lim + 0.02 * coef + 1e-9)
