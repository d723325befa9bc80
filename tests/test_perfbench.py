"""The benchmark's traced pipelines call every boundary their workload needs.

A traced benchmark run raises ``BoundaryError`` when a wrapped call never
happens, for example when the search skips its separation; this runs the
same check, through the benchmark's own modules, on workload seed 0 and on
seed 7, whose greedy plan once failed the validator's ``cone-tightness``.
The seed sweep script, which runs the same pipelines, has its comparison
checked here too.
"""

import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", ["r13-nogate-proof", "r13-search-budget"])
def test_traced_pipeline_calls_its_boundaries(name, seed, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    w = workloads.WORKLOADS[name]
    case_path = tmp_path / "case.json"
    case_path.write_text(json.dumps(workloads.make_case(w.case, seed)))
    tracer = spans.Tracer(f"{name}/{seed}/0")
    with spans.installed(tracer), tracer.span("pipeline"):
        out = workloads.run_pipeline(w, case_path, tmp_path / "pipeline", seed)
    spans.require_called(tracer, spans.SOLVE_CALLS | ({spans.DIVE_CALL} if w.dives else set()))
    ref = json.loads(workloads.REFERENCES.read_text())[name][str(seed)]
    assert workloads.check(w, out, tmp_path / "pipeline", ref) == []


def test_seed_sweep_compare_counts_the_same_points(capsys, monkeypatch):
    """``scripts/seed_sweep.py --compare`` reports, beside the status line, how many solves hold the same point."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("seed_sweep", PERFBENCH.parent / "scripts" / "seed_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    run = {"status": "optimal", "objective": 1.0, "bound": 1.0, "nodes": 1, "cuts": 3, "valid": True,
           "x_sha256": "a", "lps": 10, "fallbacks": 0, "seconds": 0.2}
    old = {name: {"0": run, "1": run} for name in sweep.WORKLOADS}
    new = {name: dict(runs) for name, runs in old.items()}
    new["r13-nogate-proof"]["1"] = run | {"x_sha256": "b"}  # same outcome, another point
    assert sweep.compare(new, old) == 0
    assert "same status, node count and verdict: 4 of 4; same point: 3 of 4\n" in capsys.readouterr().out
