#!/usr/bin/env python3
"""Rewrite named snapshot files under tests/data from the current build, and print what moved.

    PYTHONPATH=src python scripts/regen_references.py FILE [FILE ...] [--case NAME ...]

FILE is one of ``mps_sha256.json`` (the export digests of each shipped case),
``rows_sha256.json`` (the digest of each shipped case's row families),
``feeder123_counts.json`` (rows per family, columns per group and the size
of ``feeder123``), ``root_lp.json`` (the root LP objective of each shipped
case but ``feeder123``, gate on and off) and ``plan_sha256.json`` (the
digest of the plan of the ``reduced13`` solve at seed 0).  Every other
snapshot is of the case's default build.  With ``--case``, only the named
cases' entries are rewritten and the others kept.

For each file it prints the entries that changed: per case the digests or
objectives, and for the counts the rows of each family and the columns of
each group, old and new.  Regenerate a snapshot only for an intended change
of the model, its export or its plan, and declare the printed diff with the
change.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import (  # noqa: E402
    export_digests,
    root_lp,
    rows_digest,
    shipped_case,
    shipped_case_names,
    solved_plan_digest,
    structural_counts,
)

from ugrestore.formulation import build_model  # noqa: E402

DATA = ROOT / "tests" / "data"
FILES = ("mps_sha256.json", "rows_sha256.json", "feeder123_counts.json", "root_lp.json", "plan_sha256.json")


def _diff(old: dict, new: dict, where: str) -> list[str]:
    """One line per key of ``old`` or ``new`` whose value differs, recursing into dicts."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if isinstance(a, dict) and isinstance(b, dict):
            lines += _diff(a, b, f"{where}{key}/")
        elif a != b:
            lines.append(f"  {where}{key}: {a} -> {b}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("files", nargs="+", choices=FILES, metavar="FILE", help=", ".join(FILES))
    p.add_argument("--case", action="append", choices=shipped_case_names(), help="rewrite only this case's entries")
    args = p.parse_args(argv)
    cases = args.case or shipped_case_names()
    models = {}

    def model(name):
        if name not in models:
            models[name] = build_model(shipped_case(name))
        return models[name]

    for fname in dict.fromkeys(args.files):
        path = DATA / fname
        old = json.loads(path.read_text())
        if fname == "feeder123_counts.json":
            new = structural_counts(model("feeder123")) if "feeder123" in cases else old
        elif fname == "rows_sha256.json":
            new = old | {n: rows_digest(model(n)) for n in cases}
        elif fname == "root_lp.json":
            new = old | {n: {str(g): root_lp(n, g).objective for g in (True, False)} for n in cases if n != "feeder123"}
        elif fname == "plan_sha256.json":
            with tempfile.TemporaryDirectory() as d:
                new = old | ({"reduced13": solved_plan_digest(d)} if "reduced13" in cases else {})
        else:
            with tempfile.TemporaryDirectory() as d:
                new = old | {n: export_digests(model(n), d) for n in cases}
        changed = _diff(old, new, "")
        print(f"{fname}: {len(changed)} entries changed")
        for line in changed:
            print(line)
        if changed:
            with open(path, "w") as fh:
                json.dump(new, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
