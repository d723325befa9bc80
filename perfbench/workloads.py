"""Seeded workloads: case generation, the timed pipelines and their checks.

Every pipeline calls the program through module attributes (``feeder.load_case_dict``,
``bnb.solve``, ...) looked up at call time, so the boundaries that ``spans.py``
wraps in a traced run are the ones these calls go through.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import ugrestore.feeder as feeder
import ugrestore.formulation as formulation
import ugrestore.plan as plan_mod
import ugrestore.report as report
import ugrestore.validator as validator
from ugrestore.solver import bnb, mps, warmstart

ROOT = Path(__file__).resolve().parent.parent
CASES = ROOT / "src" / "ugrestore" / "cases"
REFERENCES = Path(__file__).resolve().parent / "references.json"

# Workload seeds cycle through a table of this many instances, each with a
# recorded reference (see record_references.py).
SEED_TABLE = 32

# The MPS body carries this many tangent rows per cone (export_mps default).
CONE_TANGENTS = 8


class CheckFailed(Exception):
    """A pipeline output failed a correctness check."""


@dataclass(frozen=True)
class Workload:
    name: str
    case: str
    build: dict  # BuildOptions keyword arguments
    time_limit_s: float | None  # solver budget; None means build and export only
    setups: int  # extra set-ups before each untraced pipeline, besides its own
    dives: bool  # whether the search must consult the diver


WORKLOADS = {
    w.name: w
    for w in (
        Workload("r13-nogate-proof", "reduced13", {"ferro_gate": False}, 120.0, 10, False),
        Workload("r13-search-budget", "reduced13", {}, 15.0, 10, True),
        Workload("f123-build-export", "feeder123", {}, None, 2, False),
    )
}


def _scaled(value, factor: float):
    if isinstance(value, dict):
        return {k: _scaled(v, factor) for k, v in value.items()}
    if isinstance(value, list):
        return [_scaled(v, factor) for v in value]
    return value * factor


def make_case(case_name: str, wseed: int) -> dict:
    """The shipped case for seed 0; otherwise each node's load_kw/load_kvar
    scaled by one factor drawn from U(0.95, 1.05)."""
    data = json.loads((CASES / f"{case_name}.json").read_text())
    if wseed == 0:
        return data
    rng = random.Random(wseed)
    for node in data["nodes"]:
        factor = rng.uniform(0.95, 1.05)
        for key in ("load_kw", "load_kvar"):
            if key in node:
                node[key] = _scaled(node[key], factor)
    return data


# -- pipelines ------------------------------------------------------------------


@dataclass
class Outcome:
    e2e_s: float
    setup_s: float
    model: object
    ws: np.ndarray | None = None
    sol: object = None
    report: object = None
    options: object = None


def _setup(w: Workload, case_path: Path):
    with open(case_path) as fh:
        case = feeder.load_case_dict(json.load(fh))
    model = formulation.build_model(case, formulation.BuildOptions(**w.build))
    return case, model


def setup_only(w: Workload, case_path: Path) -> float:
    t0 = time.perf_counter()
    _setup(w, case_path)
    return time.perf_counter() - t0


def solve_pipeline(w: Workload, case_path: Path, out: Path, wseed: int) -> Outcome:
    """What ``ugrestore solve`` does: case to plan, report.json and plots."""
    t0 = time.perf_counter()
    case, model = _setup(w, case_path)
    t_setup = time.perf_counter() - t0
    opts = bnb.SolverOptions(time_limit_s=w.time_limit_s, seed=wseed)
    ws = warmstart.greedy_warm_start(model, case, opts)
    sol = bnb.solve(
        model,
        opts,
        warm_start=ws,
        warm_start_source="greedy",
        diver=warmstart.make_diver(model, case, opts),
    )
    if sol.x is None:
        raise CheckFailed(f"no incumbent, status {sol.status}")
    plan = plan_mod.RestorationPlan.from_solution(
        model,
        sol.x,
        status=sol.status,
        gap=sol.gap,
        solver_info={
            "nodes": sol.node_count,
            "cuts": sol.cut_count,
            "runtime_s": sol.runtime_s,
            "bound_pu_h": sol.bound,
            "incumbent_source": sol.incumbent_source,
            "seed": wseed,
        },
    )
    plan.save(out / "plan.json")
    rep = validator.check_plan(case, plan)
    with open(out / "report.json", "w") as fh:
        json.dump(rep.to_dict(), fh, indent=1)
        fh.write("\n")
    report.emit_plots(report.build_report(case, plan), out)
    return Outcome(time.perf_counter() - t0, t_setup, model, ws, sol, rep, opts)


def export_pipeline(w: Workload, case_path: Path, out: Path, wseed: int) -> Outcome:
    """What ``ugrestore export`` does: case to MPS, cone sidecar and name map."""
    t0 = time.perf_counter()
    _, model = _setup(w, case_path)
    t_setup = time.perf_counter() - t0
    mps.export_mps(model, out / "model.mps", out / "model.cones", out / "model.names")
    return Outcome(time.perf_counter() - t0, t_setup, model)


def run_pipeline(w: Workload, case_path: Path, out: Path, wseed: int) -> Outcome:
    out.mkdir(parents=True, exist_ok=True)
    if w.time_limit_s is None:
        return export_pipeline(w, case_path, out, wseed)
    return solve_pipeline(w, case_path, out, wseed)


# -- correctness checks (untimed) ------------------------------------------------


def kwh(o: Outcome) -> tuple[float, float]:
    """Objective and proven bound of a solve, in kWh."""
    return o.sol.objective_kwh, o.sol.bound * o.sol.kwh_factor


def _require(failures: list[str], ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)


def check(w: Workload, o: Outcome, out: Path, ref: dict | None) -> list[str]:
    """Every failed check of one pipeline, as text; empty when all pass."""
    if w.time_limit_s is None:
        return _check_export(o, out)
    failures: list[str] = []
    sol, model, opts = o.sol, o.model, o.options
    obj, bound = kwh(o)
    _require(failures, bound >= obj - 1e-9 * max(1.0, abs(obj)), f"bound {bound} < objective {obj}")
    viol = model.check_solution(sol.x, opts.replay_tol, opts.replay_tol)
    _require(failures, not viol, f"replay: {len(viol)} violations, worst {viol[0] if viol else ''}")
    _require(failures, o.report.passed, "validator: " + ", ".join(
        r.family for r in o.report.records if not r.passed))
    if w.name == "r13-nogate-proof":
        _require(failures, sol.status == "optimal", f"status {sol.status}, expected optimal")
        _require(
            failures,
            abs(obj - ref["objective_kwh"]) <= opts.rel_gap * abs(ref["objective_kwh"]),
            f"objective {obj} differs from reference {ref['objective_kwh']}",
        )
        x_back = plan_mod.RestorationPlan.load(out / "plan.json").to_vector(model)
        _require(failures, np.array_equal(x_back, sol.x), "plan JSON round trip changed x")
    else:
        greedy = model.objective_value(o.ws) * sol.kwh_factor if o.ws is not None else -np.inf
        _require(failures, obj >= greedy - 1e-9 * abs(greedy), f"objective {obj} < greedy {greedy}")
        want = ("optimal",) if sol.gap <= opts.rel_gap + 1e-15 else ("time_limit", "feasible")
        _require(failures, sol.status in want, f"status {sol.status} with gap {sol.gap}")
    return failures


def _count_lines(path: Path, prefix: str) -> int:
    with open(path) as fh:
        return sum(1 for line in fh if line.startswith(prefix))


def _check_export(o: Outcome, out: Path) -> list[str]:
    failures: list[str] = []
    model = o.model
    summary = mps.parse_mps(out / "model.mps")
    rows = model.nrows + CONE_TANGENTS * len(model.cones)
    _require(failures, summary.n_rows == rows, f"MPS rows {summary.n_rows} != {rows}")
    _require(failures, summary.n_cols == model.ncols, f"MPS columns {summary.n_cols} != {model.ncols}")
    n_int = int(model.col_binary.sum())
    _require(failures, summary.n_integer == n_int, f"MPS integers {summary.n_integer} != {n_int}")
    _require(failures, summary.maximize and not summary.relaxed, "MPS sense or relaxation flag")
    cones = _count_lines(out / "model.cones", "CONE ")
    _require(failures, cones == len(model.cones), f"cone sidecar {cones} != {len(model.cones)}")
    names = _count_lines(out / "model.names", "C")
    _require(failures, names == model.ncols, f"name map {names} != {model.ncols}")
    return failures
