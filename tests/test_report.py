import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import shipped_case
from ugrestore.formulation import build_model
from ugrestore.plan import RestorationPlan
from ugrestore.report import build_report, emit_plots, rows_to_csv_text
from ugrestore.solver import SolverOptions, greedy_warm_start, solve

OPTS = SolverOptions(time_limit_s=90, rel_gap=1e-6, abs_gap=1e-9)


def svg_data_rows(path) -> list[dict]:
    """Parse the embedded data table back out of one of the report's SVG files."""
    root = ET.parse(path).getroot()
    meta = root.find("{http://www.w3.org/2000/svg}metadata")
    if meta is None or not meta.text:
        raise ValueError(f"{path}: no embedded data")
    return json.loads(meta.text)


@pytest.fixture(scope="module")
def gear_bundle():
    case = shipped_case("toy_gear3")
    model = build_model(case)
    ws = greedy_warm_start(model, case, OPTS)
    sol = solve(model, OPTS, warm_start=ws)
    plan = RestorationPlan.from_solution(model, sol.x, status=sol.status, gap=sol.gap)
    return case, plan, build_report(case, plan)


class TestBundle:
    def test_zone_polygon_and_points(self, gear_bundle):
        case, plan, bundle = gear_bundle
        (zone,) = bundle.switching_zones
        assert zone.gear_id == "G1"
        assert zone.theta_limit_rad == pytest.approx(case.config.angle_window_rad)
        # zone bounded by the rating-derived voltage step on the vertical axis
        dv_max = max(abs(dv) for _, dv in zone.polygon)
        assert dv_max == pytest.approx(zone.dv_inrush_limit_pu, rel=1e-12)
        assert zone.points, "closing events should appear as chosen points"
        for p in zone.points:
            assert abs(p["theta_rad"]) <= zone.theta_limit_rad + 1e-9
            assert abs(p["dv_pu"]) <= dv_max + 1e-9

    def test_q_schedule(self, gear_bundle):
        case, plan, bundle = gear_bundle
        values = bundle.q_schedule["values"]["G1"]
        assert len(values) == plan.horizon
        first = bundle.q_schedule["first_feasible"]["G1"]
        assert first == 0  # demand at the first period already damps enough
        assert values[0] <= case.switchgears[0].q_max

    def test_soc_profile(self, gear_bundle):
        case, plan, bundle = gear_bundle
        assert list(bundle.soc_profiles) == [0]
        soc = bundle.soc_profiles[0]["soc_kwh"]
        assert len(soc) == plan.horizon
        assert soc == pytest.approx(list(plan.soc_kwh(0)))

    def test_phase_table(self, gear_bundle):
        case, plan, bundle = gear_bundle
        (row,) = bundle.phase_table
        swapped = [row["swapped_a"], row["swapped_b"], row["swapped_c"]]
        assert sum(swapped) == pytest.approx(1.0)
        assert row["swapped_deviation"] >= 0.0


class TestEmitters:
    def test_files_written(self, gear_bundle, tmp_path):
        case, plan, bundle = gear_bundle
        written = emit_plots(bundle, tmp_path)
        names = {p.split("/")[-1] for p in written}
        assert names == {
            "switching_zones.svg",
            "switching_zones.csv",
            "q_schedule.svg",
            "q_schedule.csv",
            "soc_profiles.svg",
            "soc_profiles.csv",
            "phase_balance.svg",
            "phase_balance.csv",
        }
        for p in written:
            if p.endswith(".svg"):
                ET.parse(p)  # well-formed XML

    def test_csv_matches_svg_metadata(self, gear_bundle, tmp_path):
        """The CSV regenerated from the SVG's embedded data is byte-identical."""
        case, plan, bundle = gear_bundle
        emit_plots(bundle, tmp_path)
        for stem in ("switching_zones", "q_schedule", "soc_profiles", "phase_balance"):
            rows = svg_data_rows(tmp_path / f"{stem}.svg")
            regenerated = rows_to_csv_text(rows)
            on_disk = (tmp_path / f"{stem}.csv").read_text()
            assert regenerated == on_disk, stem

    def test_empty_plan_layers(self, tmp_path):
        from conftest import load_minimal

        case = load_minimal()
        model = build_model(case)
        ws = greedy_warm_start(model, case, OPTS)
        sol = solve(model, OPTS, warm_start=ws)
        plan = RestorationPlan.from_solution(model, sol.x, status=sol.status, gap=sol.gap)
        bundle = build_report(case, plan)
        assert bundle.switching_zones == []
        written = emit_plots(bundle, tmp_path)
        for p in written:
            if p.endswith(".svg"):
                ET.parse(p)

    def test_svg_self_contained(self, gear_bundle, tmp_path):
        case, plan, bundle = gear_bundle
        emit_plots(bundle, tmp_path)
        text = (tmp_path / "switching_zones.svg").read_text()
        assert "href" not in text and "url(" not in text
