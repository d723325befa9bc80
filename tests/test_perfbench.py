"""The benchmark's traced pipelines call every boundary their workload needs.

A traced benchmark run raises ``BoundaryError`` when a wrapped call never
happens, for example when the search skips its separation; this runs the
same check, through the benchmark's own modules, on workload seed 0 and on
seed 7, whose greedy plan once failed the validator's ``cone-tightness``.
"""

import importlib
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
