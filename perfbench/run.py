"""Layered benchmark of the case-to-plan pipeline.

    python3 perfbench/run.py --workload r13-nogate-proof --seed 1 --seconds 20 --trace 0

Run from the repository root.  One process runs one pipeline after another
(a closed loop with one client) until ``--seconds`` would be exceeded; before
each untraced pipeline a few extra set-ups time case load plus model build
alone.  Every
pipeline's output is checked; a failed check or an exception counts as a
failed pipeline.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced pipelines and prints the per-layer metrics,
including the tracing overhead.  The last line of output is one JSON object;
the lines before it are for people.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "_out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _layer_metrics(o, tracer, pipe_out) -> dict:
    """Per-layer metrics of one traced pipeline, as name -> (value, unit)."""
    s = spans.summarize(tracer)
    t, n, c = s.total_s, s.count, tracer.counts
    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    model = o.model
    put("feeder.load_s", t["feeder.load"], "s")
    put("formulation.build_s", t["formulation.build"], "s")
    put("model.rows", model.nrows, "count")
    put("model.cols", model.ncols, "count")
    put("model.nnz", model.matrix().nnz, "count")
    put("model.cones", len(model.cones), "count")
    put("model.free_binaries", len(model.free_binary_columns), "count")
    put("mps.export_s", t["mps.export"], "s")
    put("mps.bytes", sum(f.stat().st_size for f in pipe_out.glob("model.*")), "bytes")
    put("warmstart.s", t["warmstart"], "s")
    put("warmstart.lps", s.lp_by_caller["warmstart"], "count")
    put("warmstart.found", c["warmstart.found"], "count")
    put("dive.calls", n["dive"], "count")
    put("dive.s", t["dive"] + t["dive.make"], "s")
    put("dive.feasible", c["dive.feasible"], "count")
    put("lp.calls", n["lp"], "count")
    put("lp.s", t["lp"], "s")
    put("lp.highs_s", t["lp.highs"], "s")
    put("lp.setup_s", t["lp"] - t["lp.highs"], "s")
    put("lp.simplex_iters", c["lp.simplex_iters"], "count")
    nonopt = {st: c[f"lp.status.{st}"] for st in ("infeasible", "unbounded", "error")}
    put("lp.nonoptimal", n["lp"] - c["lp.status.optimal"], "count")
    for st, k in nonopt.items():
        put(f"lp.{st}", k, "count")
    solve_s = t["bnb"] + t["warmstart"]
    put("lp.share_of_solve", t["lp"] / solve_s if solve_s else 0.0, "ratio")
    put("cuts.rounds", n["cuts.separate"], "count")
    put("cuts.generated", n["cuts.tangent"], "count")
    put("cuts.pool", o.sol.cut_count if o.sol else 0, "count")
    put("cuts.s", t["cuts.separate"] + t["cuts.tangent"], "s")
    put("bnb.s", t["bnb"], "s")
    put("bnb.nodes", o.sol.node_count if o.sol else 0, "count")
    put("bnb.nodes_per_s", o.sol.node_count / t["bnb"] if o.sol else 0.0, "1/s")
    put("bnb.lps", s.lp_by_caller["bnb"], "count")
    put("bnb.gap", o.sol.gap if o.sol else 0.0, "ratio")
    put("plan.save_s", t["plan.save"], "s")
    put("validator.s", t["validator"], "s")
    failed = sum(not r.passed for r in o.report.records) if o.report else 0
    put("validator.failed_families", failed, "count")
    put("report.s", t["report.build"] + t["report.emit"], "s")
    for layer in spans.LAYERS:
        put(f"{layer}.self_s", s.self_s[layer], "s")
    return m


def _run_one(w, case_path, pipe_out, wseed, ref, tracer):
    """One pipeline and its checks: (record, failures); no record if it raised."""
    import workloads as wl  # imports the program, after main() put it on the path

    try:
        if tracer is None:
            o = wl.run_pipeline(w, case_path, pipe_out, wseed)
        else:
            with spans.installed(tracer), tracer.span("pipeline"):
                o = wl.run_pipeline(w, case_path, pipe_out, wseed)
            calls = spans.EXPORT_CALLS if w.time_limit_s is None else spans.SOLVE_CALLS
            spans.require_called(tracer, calls | ({spans.DIVE_CALL} if w.dives else set()))
        failures = wl.check(w, o, pipe_out, ref)
    except spans.BoundaryError:
        raise
    except Exception as exc:  # a crashing pipeline is a failed pipeline
        traceback.print_exc()
        return None, [f"{type(exc).__name__}: {exc}"]
    rec = {"e2e_s": o.e2e_s, "setup_s": o.setup_s, "traced": tracer is not None,
           "families": o.model.family_counts()}
    if o.sol is not None:
        obj, bound = wl.kwh(o)
        rec.update(objective_kwh=obj, bound_kwh=bound, gap=o.sol.gap, status=o.sol.status,
                   nodes=o.sol.node_count)
    if tracer is not None:
        rec["layers"] = _layer_metrics(o, tracer, pipe_out)
        rec["spans"] = len(tracer.spans)
    return rec, failures


def _median_of(records, key):
    return statistics.median(r[key] for r in records)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ugrestore" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import workloads as wl
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]
    wseed = args.seed % wl.SEED_TABLE
    ref = None
    if w.time_limit_s is not None:
        ref = json.loads(wl.REFERENCES.read_text())[w.name][str(wseed)]
    spans.resolve_all()

    out = OUT / w.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    case_path = out / "case.json"
    case_path.write_text(json.dumps(wl.make_case(w.case, wseed)))
    print(f"workload {w.name}  seed {args.seed} (workload seed {wseed})  trace {args.trace}")

    setups, records, crashed, tracers = [], [], 0, []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        # extra set-ups spread over the run; only the untraced metrics use them
        for _ in range(0 if args.trace else w.setups):
            gc.collect()
            setups.append(wl.setup_only(w, case_path))
        i = len(records) + crashed
        tracer = spans.Tracer(f"{w.name}/{wseed}/{i}") if args.trace and i % 2 else None
        pipe_out = out / f"pipeline{i}"
        gc.collect()
        rec, failures = _run_one(w, case_path, pipe_out, wseed, ref, tracer)
        last = time.perf_counter() - t0  # set-ups, pipeline and checks
        shutil.rmtree(pipe_out, ignore_errors=True)
        if tracer is not None:
            tracers.append(tracer)
        if rec is None:
            crashed += 1
        else:
            rec["failures"] = failures
            records.append(rec)
            print(f"pipeline {i}{' traced' if rec['traced'] else ''}: "
                  f"end-to-end {rec['e2e_s']:.3f} s, set-up {rec['setup_s']:.3f} s"
                  + (f", {rec['status']} objective {rec['objective_kwh']:.3f} kWh "
                     f"bound {rec['bound_kwh']:.3f} kWh gap {rec['gap']:.5f} "
                     f"nodes {rec['nodes']}" if "status" in rec else ""))
        if failures:
            print(f"pipeline {i} FAILED: {'; '.join(failures)}")
        # a traced run needs one untraced and one traced pipeline at least
        if len(records) + crashed >= 1 + args.trace and (
            time.perf_counter() - t_start + last > args.seconds
        ):
            break
    peak_mb = _rss_mb()
    if tracers:
        spans.write_spans(out / "spans.jsonl", tracers)

    attempted = len(records) + crashed
    failed = crashed + sum(1 for r in records if r["failures"])
    plain = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    if not plain or (args.trace and not traced):
        print("error: no pipeline ran to its end", file=sys.stderr)
        return 1
    families = dict(sorted(plain[0]["families"].items(), key=lambda kv: -kv[1]))
    (out / "families.json").write_text(json.dumps(families, indent=1) + "\n")
    print("rows per family: " + json.dumps(families))

    metrics = {}
    if not args.trace:
        if ref is not None:
            objective = _median_of(plain, "objective_kwh") / ref["objective_kwh"]
            bound = _median_of(plain, "bound_kwh") / ref["objective_kwh"]
        else:  # build/export only: nothing solved, quality at its reference by definition
            objective = bound = 1.0
        metrics = {
            "end_to_end_s": (_median_of(plain, "e2e_s"), "s"),
            "setup_s": (statistics.median(setups + [r["setup_s"] for r in records]), "s"),
            "objective_ratio": (objective, "ratio"),
            "bound_ratio": (bound, "ratio"),
            "peak_rss_mb": (peak_mb, "MB"),
            "pass_rate": ((attempted - failed) / attempted, "ratio"),
        }
    else:
        for name, (_, unit) in traced[0]["layers"].items():
            metrics[name] = (statistics.median(r["layers"][name][0] for r in traced), unit)
        untraced_s = _median_of(plain, "e2e_s")
        metrics["trace.overhead_pct"] = (
            100.0 * (_median_of(traced, "e2e_s") - untraced_s) / untraced_s, "%")
        metrics["trace.spans"] = (_median_of(traced, "spans"), "count")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
