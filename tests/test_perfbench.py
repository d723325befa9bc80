"""The benchmark's traced pipelines call every boundary their workload needs.

A traced benchmark run raises ``BoundaryError`` when a wrapped call never
happens, for example when the search skips its separation; this runs the
same check on workload seed 0, through the benchmark's own modules.
"""

import importlib
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["r13-nogate-proof", "r13-search-budget"])
def test_traced_seed_0_pipeline_calls_its_boundaries(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    w = workloads.WORKLOADS[name]
    case_path = tmp_path / "case.json"
    case_path.write_text(json.dumps(workloads.make_case(w.case, 0)))
    tracer = spans.Tracer(f"{name}/0/0")
    with spans.installed(tracer), tracer.span("pipeline"):
        out = workloads.run_pipeline(w, case_path, tmp_path / "pipeline", 0)
    spans.require_called(tracer, spans.SOLVE_CALLS | ({spans.DIVE_CALL} if w.dives else set()))
    ref = json.loads(workloads.REFERENCES.read_text())[name]["0"]
    assert workloads.check(w, out, tmp_path / "pipeline", ref) == []
