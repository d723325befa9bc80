"""Record the reference objective of every workload seed.

Runs each solving workload once per seed of the table, checks it, and
writes ``references.json``.  Re-run it only when the model or the case
generator changes on purpose, and record that in the change log:

    python3 perfbench/record_references.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads as wl  # noqa: E402


def main() -> int:
    refs: dict = {"seed_table": wl.SEED_TABLE}
    out_root = wl.ROOT / "perfbench" / "_out" / "record"
    for w in wl.WORKLOADS.values():
        if w.time_limit_s is None:
            continue
        refs[w.name] = {}
        for wseed in range(wl.SEED_TABLE):
            out = out_root / w.name
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            case_path = out / "case.json"
            case_path.write_text(json.dumps(wl.make_case(w.case, wseed)))
            o = wl.run_pipeline(w, case_path, out / "pipeline", wseed)
            obj, bound = wl.kwh(o)
            entry = {"objective_kwh": obj, "bound_kwh": bound, "status": o.sol.status}
            failures = wl.check(w, o, out / "pipeline", entry)
            if failures:
                print(f"{w.name} seed {wseed}: {failures}", file=sys.stderr)
                return 1
            refs[w.name][str(wseed)] = entry
            print(w.name, wseed, entry, flush=True)
    shutil.rmtree(out_root, ignore_errors=True)
    wl.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
