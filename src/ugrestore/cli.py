"""Command-line front end.

Exit codes: 0 success, 2 validation failure, 3 structural/input error,
4 time limit without an incumbent.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from ugrestore.feeder import CaseError, load_case
from ugrestore.jsonutil import plain
from ugrestore.formulation import BuildOptions, UnformulatableError, build_model
from ugrestore.plan import PlanError, RestorationPlan
from ugrestore.report import build_report, emit_plots
from ugrestore.solver import (
    SolverOptions,
    export_mps,
    greedy_warm_start,
    import_external_solution,
    make_diver,
    solve,
)
from ugrestore.solver.mps import SolutionImportError, write_solution_file
from ugrestore.validator import ValidationStructuralError, check_plan

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_STRUCTURAL = 3
EXIT_NO_INCUMBENT = 4


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("UGRESTORE_OUT", ".")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(plain(payload), indent=None, sort_keys=True, allow_nan=False))
    else:
        print(text)


def cmd_solve(args) -> int:
    try:
        opts = SolverOptions(time_limit_s=args.time_limit, rel_gap=args.gap, seed=args.seed)
    except ValueError as exc:  # a --time-limit or --gap out of range
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    try:
        case = load_case(args.case)
        build = BuildOptions(no_swap=args.no_swap, ferro_gate=not args.no_ferro_gate)
        model = build_model(case, build)
    except (CaseError, UnformulatableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    out = _out_dir(args)
    t0 = time.monotonic()
    if args.solver == "external":
        if not args.import_solution:
            print("error: --solver external requires --import-solution", file=sys.stderr)
            return EXIT_STRUCTURAL
        export_mps(
            model,
            out / "model.mps",
            out / "model.cones",
            out / "model.names",
        )
        try:
            sol = import_external_solution(model, args.import_solution)
        except SolutionImportError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_STRUCTURAL
    else:
        ws = greedy_warm_start(model, case, opts)
        sol = solve(
            model,
            opts,
            warm_start=ws,
            warm_start_source="greedy",
            diver=make_diver(model, case, opts),
        )
    runtime = time.monotonic() - t0
    if sol.x is None:
        payload = {
            "status": sol.status,
            "hint": sol.infeasible_hint,
            "runtime_s": runtime,
        }
        _emit(args, payload, f"status: {sol.status}  {sol.infeasible_hint}")
        return EXIT_STRUCTURAL if sol.status == "infeasible" else EXIT_NO_INCUMBENT
    plan = RestorationPlan.from_solution(
        model,
        sol.x,
        status=sol.status,
        gap=sol.gap,
        solver_info={
            "nodes": sol.node_count,
            "cuts": sol.cut_count,
            "runtime_s": sol.runtime_s,
            "bound_pu_h": sol.bound,
            "master_bound_pu_h": sol.master_bound,
            "incumbent_source": sol.incumbent_source,
            "seed": args.seed,
        },
    )
    plan.save(out / "plan.json")
    report = check_plan(case, plan)
    with open(out / "report.json", "w") as fh:
        json.dump(report.to_dict(), fh, indent=1)
        fh.write("\n")
    bundle = build_report(case, plan)
    emit_plots(bundle, out)
    payload = {
        "status": sol.status,
        "objective_kwh": sol.objective_kwh,
        "bound_kwh": sol.bound * sol.kwh_factor,
        "gap": sol.gap,
        "nodes": sol.node_count,
        "cuts": sol.cut_count,
        "runtime_s": runtime,
        "validation_passed": report.passed,
        "plan": str(out / "plan.json"),
    }
    _emit(
        args,
        payload,
        (
            f"status: {sol.status}\n"
            f"objective: {sol.objective_kwh:.1f} kWh (gap {sol.gap:.2e})\n"
            f"nodes: {sol.node_count}  cuts: {sol.cut_count}  runtime: {runtime:.1f} s\n"
            f"validation: {'pass' if report.passed else 'FAIL'}\n"
            f"plan: {out / 'plan.json'}"
        ),
    )
    if not report.passed:
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_check(args) -> int:
    try:
        case = load_case(args.case)
        plan = RestorationPlan.load(args.plan)
        report = check_plan(case, plan)
    except (CaseError, PlanError, ValidationStructuralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    out = _out_dir(args)
    with open(out / "report.json", "w") as fh:
        json.dump(report.to_dict(), fh, indent=1)
        fh.write("\n")
    payload = report.to_dict()
    _emit(args, payload, report.format_table())
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_export(args) -> int:
    try:
        case = load_case(args.case)
        model = build_model(
            case, BuildOptions(no_swap=args.no_swap, ferro_gate=not args.no_ferro_gate)
        )
    except (CaseError, UnformulatableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    out = _out_dir(args)
    export_mps(
        model,
        out / "model.mps",
        out / "model.cones",
        out / "model.names",
        relax_binaries=args.relax_binaries,
    )
    files = ["model.mps", "model.cones", "model.names"]
    if args.import_solution:
        try:
            sol = import_external_solution(model, args.import_solution)
        except SolutionImportError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_STRUCTURAL
        write_solution_file(model, sol.x, out / "solution.check")
        files.append("solution.check")
        _emit(
            args,
            {"files": files, "objective_kwh": sol.objective_kwh},
            f"imported solution objective: {sol.objective_kwh:.1f} kWh\nwrote: {', '.join(files)}",
        )
        return EXIT_OK
    _emit(args, {"files": files}, "wrote: " + ", ".join(files))
    return EXIT_OK


def cmd_report(args) -> int:
    try:
        case = load_case(args.case)
        bundle = build_report(case, RestorationPlan.load(args.plan))  # a plan missing a value is a PlanError
    except (CaseError, PlanError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    out = _out_dir(args)
    written = emit_plots(bundle, out)
    with open(out / "summary.json", "w") as fh:
        json.dump(bundle.summary, fh, indent=1)
        fh.write("\n")
    written.append(str(out / "summary.json"))
    _emit(args, {"files": written, "summary": bundle.summary}, "wrote: " + ", ".join(written))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ugrestore",
        description="Restoration planning for underground distribution feeders",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, case=True, plan=False):
        if case:
            sp.add_argument("--case", required=True, help="case JSON file")
        if plan:
            sp.add_argument("--plan", required=True, help="plan JSON file")
        sp.add_argument("--out", default=None, help="output directory (or $UGRESTORE_OUT)")
        sp.add_argument("--json", action="store_true", help="machine-readable summary")

    sp = sub.add_parser("solve", help="build, solve, validate, write artifacts")
    common(sp)
    sp.add_argument("--seed", type=int, default=0, help="tie-breaking seed")
    sp.add_argument("--time-limit", type=float, default=600.0, help="seconds")
    sp.add_argument("--gap", type=float, default=1e-3, help="relative optimality gap")
    sp.add_argument("--no-swap", action="store_true", help="pin swap matrices to identity")
    sp.add_argument("--no-ferro-gate", action="store_true", help="drop the damping gate")
    sp.add_argument("--solver", choices=("builtin", "external"), default="builtin")
    sp.add_argument("--import-solution", default=None, help="solution file for --solver external")
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("check", help="validate a plan against a case")
    common(sp, plan=True)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("export", help="write MPS, cone sidecar and name map")
    common(sp)
    sp.add_argument("--no-swap", action="store_true")
    sp.add_argument("--no-ferro-gate", action="store_true")
    sp.add_argument("--relax-binaries", action="store_true", help="export the LP relaxation")
    sp.add_argument("--import-solution", default=None, help="replay an external solution file")
    sp.set_defaults(fn=cmd_export)

    sp = sub.add_parser("report", help="emit plots and summary for a plan")
    common(sp, plan=True)
    sp.set_defaults(fn=cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
