import json
import shutil

import pytest

from conftest import case_path
from ugrestore.cli import main


@pytest.fixture()
def outdir(tmp_path, monkeypatch):
    monkeypatch.delenv("UGRESTORE_OUT", raising=False)
    return tmp_path


def _solve_args(case, out, *extra):
    return [
        "solve",
        "--case",
        str(case_path(case)),
        "--out",
        str(out),
        "--time-limit",
        "60",
        *extra,
    ]


class TestSolve:
    def test_happy_path(self, outdir, capsys):
        rc = main(_solve_args("toy_pair", outdir))
        assert rc == 0
        assert (outdir / "plan.json").exists()
        assert (outdir / "report.json").exists()
        assert (outdir / "switching_zones.svg").exists()
        out = capsys.readouterr().out
        assert "objective" in out and "validation: pass" in out

    def test_json_mode(self, outdir, capsys):
        rc = main(_solve_args("toy_pair", outdir, "--json"))
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "optimal"
        assert payload["validation_passed"] is True

    def test_broken_case_exits_3(self, outdir, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text('{"name": "x"}')
        rc = main(["solve", "--case", str(bad), "--out", str(outdir)])
        assert rc == 3

    def test_comparative_flags(self, outdir, capsys):
        rc = main(_solve_args("toy_gear3", outdir, "--no-swap", "--json"))
        assert rc == 0
        no_swap = json.loads(capsys.readouterr().out)["objective_kwh"]
        rc = main(_solve_args("toy_gear3", outdir, "--json"))
        assert rc == 0
        with_swap = json.loads(capsys.readouterr().out)["objective_kwh"]
        assert no_swap <= with_swap + 1e-6

    def test_seed_determinism(self, outdir, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(_solve_args("toy_pv", out_a, "--seed", "7")) == 0
        assert main(_solve_args("toy_pv", out_b, "--seed", "7")) == 0
        plan_a = json.loads((out_a / "plan.json").read_text())
        plan_b = json.loads((out_b / "plan.json").read_text())
        plan_a["solver_info"].pop("runtime_s")
        plan_b["solver_info"].pop("runtime_s")
        assert plan_a == plan_b


class TestCheck:
    def test_check_solve_output(self, outdir, capsys):
        assert main(_solve_args("toy_gear3", outdir)) == 0
        rc = main(
            [
                "check",
                "--case",
                str(case_path("toy_gear3")),
                "--plan",
                str(outdir / "plan.json"),
                "--out",
                str(outdir),
            ]
        )
        assert rc == 0

    def test_corrupted_plan_exits_2(self, outdir, capsys):
        assert main(_solve_args("toy_gear3", outdir)) == 0
        capsys.readouterr()
        plan = json.loads((outdir / "plan.json").read_text())
        for entry in plan["groups"]["beta"]:
            entry[-1] = 1.0 - entry[-1]
        corrupted = outdir / "corrupted.json"
        corrupted.write_text(json.dumps(plan))
        rc = main(
            [
                "check",
                "--case",
                str(case_path("toy_gear3")),
                "--plan",
                str(corrupted),
                "--out",
                str(outdir),
                "--json",
            ]
        )
        assert rc == 2
        payload = json.loads(capsys.readouterr().out)
        failed = {f["family"] for f in payload["families"] if not f["passed"]}
        assert failed & {"sequencing", "swap-integrity", "power-balance-p", "load-restoration"}

    def test_mismatched_horizon_exits_3(self, outdir, capsys):
        assert main(_solve_args("toy_pair", outdir)) == 0
        plan = json.loads((outdir / "plan.json").read_text())
        plan["horizon"] = 9
        bad = outdir / "bad.json"
        bad.write_text(json.dumps(plan))
        rc = main(
            [
                "check",
                "--case",
                str(case_path("toy_pair")),
                "--plan",
                str(bad),
                "--out",
                str(outdir),
            ]
        )
        assert rc == 3


class TestExport:
    def test_export_files(self, outdir, capsys):
        rc = main(
            ["export", "--case", str(case_path("toy_pair")), "--out", str(outdir)]
        )
        assert rc == 0
        for name in ("model.mps", "model.cones", "model.names"):
            assert (outdir / name).exists()
        from ugrestore.solver import parse_mps

        parse_mps(outdir / "model.mps")

    def test_relax_binaries_header(self, outdir):
        rc = main(
            [
                "export",
                "--case",
                str(case_path("toy_pair")),
                "--out",
                str(outdir),
                "--relax-binaries",
            ]
        )
        assert rc == 0
        assert "binaries relaxed" in (outdir / "model.mps").read_text()[:200]

    def test_import_round_trip_via_external_solver_mode(self, outdir, capsys):
        # builtin solve produces the solution file an external solver would
        assert main(_solve_args("toy_pair", outdir, "--json")) == 0
        first = json.loads(capsys.readouterr().out)
        from ugrestore.feeder import load_case
        from ugrestore.formulation import build_model
        from ugrestore.plan import RestorationPlan
        from ugrestore.solver.mps import write_solution_file

        case = load_case(case_path("toy_pair"))
        model = build_model(case)
        plan = RestorationPlan.load(outdir / "plan.json")
        write_solution_file(model, plan.to_vector(model), outdir / "external.sol")
        rc = main(
            [
                "solve",
                "--case",
                str(case_path("toy_pair")),
                "--out",
                str(outdir),
                "--solver",
                "external",
                "--import-solution",
                str(outdir / "external.sol"),
                "--json",
            ]
        )
        assert rc == 0
        second = json.loads(capsys.readouterr().out)
        assert second["objective_kwh"] == pytest.approx(first["objective_kwh"], abs=1e-9)
        # the replay proves feasibility only: no gap is claimed
        assert second["status"] == "feasible"
        assert second["gap"] != 0.0 and second["bound_kwh"] == float("inf")

    def test_external_without_solution_exits_3(self, outdir):
        rc = main(
            [
                "solve",
                "--case",
                str(case_path("toy_pair")),
                "--out",
                str(outdir),
                "--solver",
                "external",
            ]
        )
        assert rc == 3


class TestReport:
    def test_report_command(self, outdir, capsys):
        assert main(_solve_args("toy_gear3", outdir)) == 0
        capsys.readouterr()
        rc = main(
            [
                "report",
                "--case",
                str(case_path("toy_gear3")),
                "--plan",
                str(outdir / "plan.json"),
                "--out",
                str(outdir),
                "--json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert "summary" in payload
        assert (outdir / "summary.json").exists()

    def test_env_var_output_dir(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "from_env"
        monkeypatch.setenv("UGRESTORE_OUT", str(target))
        rc = main(
            [
                "solve",
                "--case",
                str(case_path("toy_pair")),
                "--time-limit",
                "60",
            ]
        )
        assert rc == 0
        assert (target / "plan.json").exists()
