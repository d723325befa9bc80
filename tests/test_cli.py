import ctypes
import json
import os
import shutil

import pytest

from conftest import case_path
from ugrestore.cli import main


def _strict_json(text):
    """``text`` parsed as JSON (RFC 8259), which has no NaN or Infinity."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.fixture()
def outdir(tmp_path, monkeypatch):
    monkeypatch.delenv("UGRESTORE_OUT", raising=False)
    yield tmp_path
    # every plan a test wrote parses as strict JSON
    for plan in tmp_path.rglob("plan.json"):
        _strict_json(plan.read_text())


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

    def test_json_payload_stays_clean_when_the_master_prints(self, outdir, capfd, monkeypatch):
        # HiGHS's MIP solver prints to fd 1 even with output_flag off
        from ugrestore.solver import lp

        libc, real, noisy = ctypes.CDLL(None), lp._loaded, []

        class NoisyMip:
            def __init__(self, highs):
                self.highs, self.mip = highs, False

            def __getattr__(self, name):
                return getattr(self.highs, name)

            def changeColsIntegrality(self, *args):
                self.mip = True
                return self.highs.changeColsIntegrality(*args)

            def run(self):
                if self.mip:
                    noisy.append(1)
                    os.write(1, b"noise from os.write\n")
                    libc.printf(b"noise from printf\n")
                return self.highs.run()

        monkeypatch.setattr(lp, "_loaded", lambda *args: NoisyMip(real(*args)))
        assert main(_solve_args("toy_fork", outdir, "--json")) == 0
        out = capfd.readouterr().out
        assert noisy, "the master never ran"
        assert "noise" not in out
        assert json.loads(out)["status"] == "optimal"
        info = json.loads((outdir / "plan.json").read_text())["solver_info"]
        assert info["master_bound_pu_h"] >= info["bound_pu_h"]

    def test_plan_and_payload_are_strict_json_when_the_master_did_not_run(self, outdir, capsys):
        # the first root LP of toy_pair is dominated by the greedy, so no master runs
        assert main(_solve_args("toy_pair", outdir, "--json")) == 0
        payload = _strict_json(capsys.readouterr().out)
        plan = _strict_json((outdir / "plan.json").read_text())
        assert payload["status"] == plan["status"] == "optimal"
        assert plan["solver_info"]["master_bound_pu_h"] is None
        assert plan["solver_info"]["bound_pu_h"] * plan["kw_base"] == payload["bound_kwh"]

    def test_broken_case_exits_3(self, outdir, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text('{"name": "x"}')
        rc = main(["solve", "--case", str(bad), "--out", str(outdir)])
        assert rc == 3

    @pytest.mark.parametrize("flag, value", [("--time-limit", "0"), ("--time-limit", "nan"), ("--gap", "-1"), ("--gap", "nan")])
    def test_bad_budget_or_gap_is_one_error_line(self, outdir, capsys, flag, value):
        rc = main(_solve_args("toy_pair", outdir, flag, value))
        err = capsys.readouterr().err
        assert rc == 3 and err.startswith("error: ") and err.count("\n") == 1 and value in err
        assert not (outdir / "plan.json").exists()

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

    def test_seed_is_refused(self, outdir, capsys):
        """Only ``solve`` reads a seed, so ``check`` offers none."""
        args = ["check", "--case", str(case_path("toy_gear3")), "--plan", str(outdir / "plan.json"), "--seed", "1"]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

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
        # the replay proves feasibility only: no gap is claimed, and no bound is written
        assert second["status"] == "feasible"
        assert second["gap"] is None and second["bound_kwh"] is None
        plan = RestorationPlan.load(outdir / "plan.json")
        assert plan.gap == float("inf") and plan.solver_info["bound_pu_h"] is None

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
