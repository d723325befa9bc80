#!/usr/bin/env python3
"""Solve workload seeds of both reduced13 benchmark workloads and record each outcome, or compare two records.

    PYTHONPATH=src python scripts/seed_sweep.py [--seeds 0-31] [--out SWEEP.json] [--compare OLD.json]

For each seed, ``r13-nogate-proof`` and ``r13-search-budget`` each run the
benchmark's solve (``perfbench/workloads.py``: the seeded case of
``make_case``, the greedy warm start, then the search with the diver).  Per
solve it records the status, objective, bound and master bound (p.u.h), the
node and cut counts, the validator's verdict, the sha256 of the solution
vector, the LPs solved, the LP fallbacks (``LpBackend.solve`` calls that ran
HiGHS more than once, because a run was refused) and the pipeline's seconds.
The record goes to ``--out`` as JSON, a non-finite number as ``null``.

With ``--compare OLD.json`` it then prints each solve whose status, node
count, verdict, cut count or solution differs from OLD, how many hold the
same status, node count and verdict and how many the same point (equal
``x_sha256``), the worst relative objective move and the largest bound
moves up and down, and the fallbacks
and median seconds of both sides over the seeds both hold.  It exits 1 if
a status, node count or verdict differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

from ugrestore.jsonutil import plain  # noqa: E402
from ugrestore.solver.lp import LpBackend  # noqa: E402

WORKLOADS = ("r13-nogate-proof", "r13-search-budget")
SAME = ("status", "nodes", "valid")  # must match seed by seed
NOTED = ("cuts", "x_sha256")  # printed where they differ


class _LpCounter:
    """Counts, while installed, the ``LpBackend.solve`` calls and those that ran HiGHS more than once."""

    def __init__(self) -> None:
        self.lps = self.fallbacks = 0
        self._real = LpBackend.solve, LpBackend._run

    def __enter__(self) -> "_LpCounter":
        real_solve, real_run = self._real
        runs = [0]

        def run(backend):
            runs[0] += 1
            return real_run(backend)

        def solve(backend, fixes=None):
            before = runs[0]
            res = real_solve(backend, fixes)
            self.lps += 1
            self.fallbacks += runs[0] - before > 1
            return res

        LpBackend.solve, LpBackend._run = solve, run
        return self

    def __exit__(self, *exc) -> None:
        LpBackend.solve, LpBackend._run = self._real


def _solve(name: str, seed: int, tmp: Path) -> dict:
    """One benchmark solve of workload ``name`` at ``seed``, as a record."""
    w = workloads.WORKLOADS[name]
    case_path = tmp / f"{name}-{seed}.json"
    case_path.write_text(json.dumps(workloads.make_case(w.case, seed)))
    with _LpCounter() as count:
        o = workloads.run_pipeline(w, case_path, tmp / f"{name}-{seed}", seed)
    sol = o.sol
    return plain(
        {
            "status": sol.status,
            "objective": sol.objective,
            "bound": sol.bound,
            "master_bound": sol.master_bound,
            "nodes": sol.node_count,
            "cuts": sol.cut_count,
            "valid": o.report.passed,
            "x_sha256": hashlib.sha256(sol.x.tobytes()).hexdigest(),
            "lps": count.lps,
            "fallbacks": count.fallbacks,
            "seconds": o.e2e_s,
        }
    )


def _rel(new, old) -> float:
    """The signed move of ``new`` from ``old``, relative to ``old``; 0 if both are missing or equal."""
    if new == old:
        return 0.0
    if new is None or old is None:
        return float("inf")
    return (new - old) / max(abs(old), 1e-300)


def compare(new: dict, old: dict) -> int:
    """Print how ``new`` differs from ``old``; 1 if a status, node count or verdict differs, else 0."""
    worst_obj = (0.0, None)
    up, down = (0.0, None), (0.0, None)
    same = points = total = 0
    for name in WORKLOADS:
        for seed in sorted(new.get(name, {}).keys() & old.get(name, {}).keys(), key=int):
            a, b = old[name][seed], new[name][seed]
            total += 1
            diff = [f"{k} {a[k]} -> {b[k]}" for k in SAME + NOTED if a[k] != b[k]]
            same += all(a[k] == b[k] for k in SAME)
            points += a["x_sha256"] == b["x_sha256"]
            if diff:
                print(f"{name} seed {seed}: " + ", ".join(diff))
            obj, bound = abs(_rel(b["objective"], a["objective"])), _rel(b["bound"], a["bound"])
            if obj > worst_obj[0]:
                worst_obj = (obj, f"{name} seed {seed}")
            if bound > up[0]:
                up = (bound, f"{name} seed {seed}")
            if bound < down[0]:
                down = (bound, f"{name} seed {seed}")
    print(f"same status, node count and verdict: {same} of {total}; same point: {points} of {total}")
    print(f"worst objective move: {worst_obj[0]:.2g} relative ({worst_obj[1] or 'none'})")
    print(f"bound moves: {up[0]:+.2g} ({up[1] or 'none'}), {down[0]:+.2g} ({down[1] or 'none'})")
    for name in WORKLOADS:
        sides = []
        common = new.get(name, {}).keys() & old.get(name, {}).keys()
        for side, record in (("old", old), ("new", new)):
            runs = [record[name][seed] for seed in common]
            if runs:
                fallbacks = sum(r["fallbacks"] for r in runs)
                lps = sum(r["lps"] for r in runs)
                median = statistics.median(r["seconds"] for r in runs)
                sides.append(f"{side} {fallbacks} fallbacks in {lps} LPs, median {median:.3f} s")
        print(f"{name}: " + "; ".join(sides))
    return int(same < total)


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=_seeds, default=_seeds("0-31"), help="first-last workload seed (default 0-31)")
    p.add_argument("--out", type=Path, default=None, help="write the record here")
    p.add_argument("--compare", type=Path, default=None, help="an earlier record to compare with")
    args = p.parse_args(argv)
    record = {name: {} for name in WORKLOADS}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for name in WORKLOADS:
                r = record[name][str(seed)] = _solve(name, seed, Path(tmp))
                print(f"{name} seed {seed}: {r['status']} {r['objective']:.12g} bound {r['bound']:.12g} "
                      f"nodes {r['nodes']} fallbacks {r['fallbacks']} {r['seconds']:.2f} s", flush=True)
    if args.out:
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if args.compare:
        return compare(record, json.loads(args.compare.read_text()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
