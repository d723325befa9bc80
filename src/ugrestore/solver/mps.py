"""File interop with external solvers.

Exports the model as free-format MPS (cone rows approximated by tangent
cuts, exact cone data in a sidecar) plus a variable-name map; imports a
``name value`` solution file and replays every row before accepting it.
All formats carry a version header.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ugrestore.model import SENSE_EQ, SENSE_GE, SENSE_LE, LinearModel
from ugrestore.solver.bnb import Solution
from ugrestore.solver.cuts import initial_cone_cuts
from ugrestore.solver.lp import Cut

MPS_HEADER = "* ugrestore mps export v1"
CONE_HEADER = "* ugrestore cone sidecar v1"
NAMEMAP_HEADER = "* ugrestore name map v1"


class MpsFormatError(ValueError):
    pass


class SolutionImportError(ValueError):
    pass


def _col_name(idx: int) -> str:
    return f"C{idx:07d}"


def _row_name(idx: int) -> str:
    return f"R{idx:07d}"


def export_mps(
    model: LinearModel,
    mps_path,
    cone_path=None,
    name_map_path=None,
    *,
    relax_binaries: bool = False,
    extra_cuts: list[Cut] | None = None,
    cone_tangents: int = 8,
) -> None:
    """Write the model to ``mps_path`` with companion files.

    Cone rows are represented in the MPS body by ``cone_tangents``
    deterministic tangent planes each (plus any ``extra_cuts``); the exact
    cone column quadruples go to the sidecar so an SOCP-capable reader can
    reconstruct them.
    """
    cuts = list(initial_cone_cuts(model, cone_tangents))
    if extra_cuts:
        cuts.extend(extra_cuts)
    m = model.matrix().tocoo()
    per_col: dict[int, list[tuple[str, float]]] = {}
    for r, c, v in zip(m.row, m.col, m.data):
        per_col.setdefault(int(c), []).append((_row_name(int(r)), float(v)))
    nrows = model.nrows
    for ci, cut in enumerate(cuts):
        rname = f"K{ci:07d}"
        for col, coef in zip(cut.cols, cut.coefs):
            per_col.setdefault(int(col), []).append((rname, float(coef)))
    with open(mps_path, "w") as fh:
        fh.write(MPS_HEADER + "\n")
        if relax_binaries:
            fh.write("* binaries relaxed to [0,1] (LP relaxation)\n")
        fh.write(f"NAME {model.meta.get('name', 'model')}\n")
        fh.write("OBJSENSE\n    MAX\n")
        fh.write("ROWS\n")
        fh.write(" N  OBJ\n")
        sense_char = {SENSE_LE: "L", SENSE_GE: "G", SENSE_EQ: "E"}
        for r in range(nrows):
            fh.write(f" {sense_char[int(model.sense[r])]}  {_row_name(r)}\n")
        for ci in range(len(cuts)):
            fh.write(f" L  K{ci:07d}\n")
        fh.write("COLUMNS\n")
        integer_open = False
        for col in range(model.ncols):
            is_int = bool(model.col_binary[col]) and not relax_binaries
            if is_int and not integer_open:
                fh.write("    MARKER    'MARKER'    'INTORG'\n")
                integer_open = True
            if not is_int and integer_open:
                fh.write("    MARKER    'MARKER'    'INTEND'\n")
                integer_open = False
            name = _col_name(col)
            entries = per_col.get(col, [])
            if model.obj[col] != 0.0:
                entries = [("OBJ", float(model.obj[col]))] + entries
            if not entries:
                entries = [("OBJ", 0.0)]
            for rname, coef in entries:
                fh.write(f"    {name}  {rname}  {float(coef)!r}\n")
        if integer_open:
            fh.write("    MARKER    'MARKER'    'INTEND'\n")
        fh.write("RHS\n")
        for r in range(nrows):
            if model.rhs[r] != 0.0:
                fh.write(f"    RHS  {_row_name(r)}  {float(model.rhs[r])!r}\n")
        for ci, cut in enumerate(cuts):
            if cut.rhs != 0.0:
                fh.write(f"    RHS  K{ci:07d}  {float(cut.rhs)!r}\n")
        fh.write("BOUNDS\n")
        for col in range(model.ncols):
            lb, ub = float(model.col_lb[col]), float(model.col_ub[col])
            name = _col_name(col)
            if lb == ub:
                fh.write(f" FX BND  {name}  {lb!r}\n")
                continue
            fh.write(f" LO BND  {name}  {lb!r}\n")
            if np.isfinite(ub):
                fh.write(f" UP BND  {name}  {ub!r}\n")
        fh.write("ENDATA\n")
    if cone_path is not None:
        with open(cone_path, "w") as fh:
            fh.write(CONE_HEADER + "\n")
            fh.write("* CONE <I> <V> <P> <Q> meaning I*V >= P^2 + Q^2\n")
            for cone in model.cones:
                fh.write(
                    f"CONE {_col_name(cone.col_i)} {_col_name(cone.col_v)} "
                    f"{_col_name(cone.col_p)} {_col_name(cone.col_q)}\n"
                )
    if name_map_path is not None:
        with open(name_map_path, "w") as fh:
            fh.write(NAMEMAP_HEADER + "\n")
            for col in range(model.ncols):
                fh.write(f"{_col_name(col)} {model.catalog.name_of(col)}\n")


@dataclass
class MpsSummary:
    name: str
    n_rows: int
    n_cols: int
    n_integer: int
    n_rhs: int
    n_bounds: int
    maximize: bool
    relaxed: bool


def parse_mps(path) -> MpsSummary:
    """Strict structural reader for our own exports (round-trip checks)."""
    sections = []
    name = ""
    n_rows = n_cols = n_int = n_rhs = n_bounds = 0
    maximize = False
    relaxed = False
    cols_seen: set[str] = set()
    integer_open = False
    current = None
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
        if first != MPS_HEADER:
            raise MpsFormatError(f"missing header, got {first!r}")
        for raw in fh:
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith("*"):
                if "binaries relaxed" in line:
                    relaxed = True
                continue
            if not line.startswith(" "):
                parts = line.split()
                section = parts[0]
                sections.append(section)
                if section == "NAME":
                    name = parts[1] if len(parts) > 1 else ""
                current = section
                continue
            parts = line.split()
            if current == "OBJSENSE":
                maximize = parts[0] == "MAX"
            elif current == "ROWS":
                if len(parts) != 2 or parts[0] not in ("N", "L", "G", "E"):
                    raise MpsFormatError(f"bad row line {line!r}")
                if parts[0] != "N":
                    n_rows += 1
            elif current == "COLUMNS":
                if parts[0] == "MARKER":
                    integer_open = parts[-1] == "'INTORG'"
                    continue
                if len(parts) != 3:
                    raise MpsFormatError(f"bad column line {line!r}")
                float(parts[2])
                if parts[0] not in cols_seen:
                    cols_seen.add(parts[0])
                    n_cols += 1
                    if integer_open:
                        n_int += 1
            elif current == "RHS":
                if len(parts) != 3:
                    raise MpsFormatError(f"bad rhs line {line!r}")
                float(parts[2])
                n_rhs += 1
            elif current == "BOUNDS":
                if len(parts) != 4 or parts[0] not in ("LO", "UP", "FX", "BV", "FR"):
                    raise MpsFormatError(f"bad bounds line {line!r}")
                float(parts[3])
                n_bounds += 1
            elif current == "ENDATA":
                raise MpsFormatError("content after ENDATA")
    expected = ["NAME", "OBJSENSE", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"]
    if sections != expected:
        raise MpsFormatError(f"unexpected section order {sections!r}")
    return MpsSummary(
        name=name,
        n_rows=n_rows,
        n_cols=n_cols,
        n_integer=n_int,
        n_rhs=n_rhs,
        n_bounds=n_bounds,
        maximize=maximize,
        relaxed=relaxed,
    )


def write_solution_file(model: LinearModel, x: np.ndarray, path) -> None:
    with open(path, "w") as fh:
        fh.write("* ugrestore solution v1\n")
        for col in range(model.ncols):
            fh.write(f"{_col_name(col)} {float(x[col])!r}\n")


def read_solution_file(path) -> dict[str, float]:
    values: dict[str, float] = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith(("*", "#")):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise SolutionImportError(f"expected 'name value', got {line!r}")
            values[parts[0]] = float(parts[1])
    return values


def import_external_solution(
    model: LinearModel, path, tol: float = 1e-6
) -> Solution:
    """Map a name=value file through the catalog and replay all constraints.

    Unknown names and residual violations beyond ``tol`` reject the import,
    naming the worst offending row.  The replay proves feasibility only, so
    the bound and the gap are unknown (+inf), as in an unproven search.
    """
    values = read_solution_file(path)
    x = np.array(model.col_lb, dtype=float)
    seen = np.zeros(model.ncols, dtype=bool)
    for name, val in values.items():
        if name.startswith("C") and name[1:].isdigit():
            col = int(name[1:])
            if col >= model.ncols:
                raise SolutionImportError(f"column {name!r} out of range")
        else:
            try:
                col = model.catalog.lookup(name)
            except KeyError as exc:
                raise SolutionImportError(f"unknown column name {name!r}") from exc
        x[col] = val
        seen[col] = True
    missing = int((~seen).sum())
    violations = model.check_solution(x, tol, tol)
    if violations:
        worst = violations[0]
        raise SolutionImportError(
            f"solution violates {worst.family} at {worst.loc} by {worst.residual:.3e}"
            + (f" ({missing} columns defaulted to lower bounds)" if missing else "")
        )
    obj = model.objective_value(x)
    return Solution(
        status="feasible",
        x=x,
        objective=obj,
        bound=np.inf,
        gap=np.inf,
        node_count=0,
        cut_count=0,
        runtime_s=0.0,
        kwh_factor=float(model.meta.get("kw_base", 1.0)),
        incumbent_source="import",
    )
