"""File interop with external solvers.

Exports the model as free-format MPS (cone rows approximated by tangent
cuts, exact cone data in a sidecar) plus a variable-name map; imports a
``name value`` solution file and replays every row before accepting it.
All formats carry a version header.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np
import scipy.sparse as sp

from ugrestore.model import SENSE_EQ, SENSE_GE, SENSE_LE, LinearModel
from ugrestore.solver.bnb import Solution
from ugrestore.solver.cuts import unit_tangents

MPS_HEADER = "* ugrestore mps export v1"
CONE_HEADER = "* ugrestore cone sidecar v1"
NAMEMAP_HEADER = "* ugrestore name map v1"


class MpsFormatError(ValueError):
    pass


class SolutionImportError(ValueError):
    pass


def _col_name(idx: int) -> str:
    return f"C{idx:07d}"


# Export: every section is assembled as text blocks from numpy arrays, one
# chunk of lines at a time.  A field is a line's part for each line of a
# chunk: an (n, w) uint8 array of bytes and an (n, w) mask of the bytes kept,
# or None when all are, so parts of varying width (``OBJ`` beside
# ``R0000012``, value texts) line up.  Joining the fields and keeping the
# masked bytes in row-major order yields the lines.

CHUNK_LINES = 1 << 16  # lines per assembled block; bounds the export's memory

_Field = tuple[np.ndarray, np.ndarray | None]
_INTORG = b"    MARKER    'MARKER'    'INTORG'\n"
_INTEND = b"    MARKER    'MARKER'    'INTEND'\n"
# the four ASCII digits of 0..9999, each packed into one uint32
_QUADS = (
    (np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0"))
    .astype(np.uint8)
    .view(np.uint32)
    .ravel()
)


def _text(text: str, n: int) -> _Field:
    row = np.frombuffer(text.encode(), dtype=np.uint8)
    return np.broadcast_to(row, (n, row.size)), None


def _name(letter, idx: np.ndarray) -> _Field:
    """``f"{letter}{idx:07d}"`` per line; ``letter`` is one byte value or one per line."""
    idx = np.asarray(idx, dtype=np.int64)
    width = max(7, len(str(int(idx.max())))) if idx.size else 7
    groups = -(-(width + 1) // 4)  # four-digit groups, with room for the letter
    quads = np.empty((idx.size, groups), dtype=np.uint32)
    rest = idx
    for g in range(groups - 1, -1, -1):
        rest, quad = np.divmod(rest, 10_000)
        quads[:, g] = _QUADS[quad]
    out = quads.view(np.uint8)[:, 4 * groups - width - 1 :]
    out[:, 0] = letter  # over a leading zero
    if width == 7:
        return out, None
    # only the leading zeros that pad to seven digits are written
    shown = np.maximum(7, [len(str(i)) for i in idx.tolist()])
    keep = np.ones(out.shape, dtype=bool)
    keep[:, 1:] = np.arange(width) >= width - shown[:, None]
    return out, keep


def _texts(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """A table of texts: their UTF-8 bytes zero-padded to one width, and the mask of real bytes."""
    raw = [t.encode() for t in texts]
    padded = np.array(raw, dtype=bytes) if raw else np.zeros(0, dtype="S1")
    padded = padded.view(np.uint8).reshape(len(raw), padded.itemsize)
    return padded, np.arange(padded.shape[1]) < np.array([len(r) for r in raw])[:, None]


def _table(table: tuple[np.ndarray, np.ndarray], ids: np.ndarray) -> _Field:
    """Entries ``ids`` of a table built by :func:`_texts`."""
    return np.take(table[0], ids, axis=0), np.take(table[1], ids, axis=0)


def _values(values: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The table of the distinct values' ``repr`` lines, and each value's entry.

    Values are told apart by their bits, so ``-0.0`` keeps its sign.
    """
    bits, ids = np.unique(
        np.ascontiguousarray(values, dtype=np.float64).view(np.int64), return_inverse=True
    )
    return _texts([f"{v!r}\n" for v in bits.view(np.float64).tolist()]), ids.reshape(-1)


def _join(*fields: _Field) -> bytes:
    block = np.hstack([b for b, _ in fields])
    if all(k is None for _, k in fields):
        return block.tobytes()
    keep = np.hstack([np.broadcast_to(True, b.shape) if k is None else k for b, k in fields])
    return block[keep].tobytes()


def _row_name(row: np.ndarray, nrows: int) -> _Field:
    """``OBJ`` for row -1, ``R`` for a model row, ``K`` for a tangent row past them."""
    tangent = row >= nrows
    out, keep = _name(np.where(tangent, ord("K"), ord("R")), np.where(tangent, row - nrows, row))
    obj = row < 0
    if obj.any():
        keep = np.ones(out.shape, dtype=bool) if keep is None else keep
        out[obj, :3] = np.frombuffer(b"OBJ", dtype=np.uint8)
        keep[obj, 3:] = False
    return out, keep


def _write_chunked(fh, n: int, lines) -> None:
    """Write ``lines(lo, hi)`` for consecutive chunks of ``range(n)``."""
    for lo in range(0, n, CHUNK_LINES):
        fh.write(lines(lo, min(n, lo + CHUNK_LINES)))


def _cone_cols(model: LinearModel) -> np.ndarray:
    """The (I, V, P, Q) columns of each cone, one row per cone."""
    return np.array(
        [(c.col_i, c.col_v, c.col_p, c.col_q) for c in model.cones], dtype=np.int64
    ).reshape(-1, 4)


def _write_rows(fh, model: LinearModel, n_tan: int) -> None:
    sense = np.zeros(3, dtype=np.uint8)
    sense[[SENSE_LE, SENSE_GE, SENSE_EQ]] = np.frombuffer(b"LGE", dtype=np.uint8)
    sense = np.concatenate([sense[model.sense], np.full(n_tan, ord("L"), dtype=np.uint8)])
    _write_chunked(
        fh,
        sense.size,
        lambda lo, hi: _join(
            _text(" ", hi - lo),
            (sense[lo:hi, None], None),
            _text("  ", hi - lo),
            _row_name(np.arange(lo, hi), model.nrows),
            _text("\n", hi - lo),
        ),
    )


def _write_columns(fh, model: LinearModel, coefs: np.ndarray, relax_binaries: bool) -> None:
    """One line per entry, the OBJ entry first in a column and ``OBJ 0.0`` in an empty one.

    The entries are those of a CSC matrix over the rows (OBJ, model rows,
    tangent rows), so row indices come sorted within each column.  A zero
    tangent coefficient is left out; an explicit zero of a model row is
    written.  Runs of integer columns are marked with INTORG/INTEND.
    """
    cone_cols = _cone_cols(model)
    n_tan = len(coefs) * len(cone_cols)
    tangents = sp.csr_matrix(
        (
            np.tile(coefs, (len(cone_cols), 1)).ravel(),
            np.repeat(cone_cols, len(coefs), axis=0).ravel(),
            np.arange(0, 4 * n_tan + 1, 4),
        ),
        shape=(n_tan, model.ncols),
    )
    tangents.eliminate_zeros()
    body = sp.vstack([model.matrix(), tangents], format="csr")
    empty = np.bincount(body.indices, minlength=model.ncols) == 0
    obj_cols = np.flatnonzero((model.obj != 0.0) | empty)
    obj_row = sp.csr_matrix(
        (np.where(model.obj != 0.0, model.obj, 0.0)[obj_cols], obj_cols, [0, obj_cols.size]),
        shape=(1, model.ncols),
    )
    a = sp.vstack([obj_row, body], format="csr").tocsc()
    del body  # the entries are in ``a`` now; keeps the peak memory down
    table, ids = _values(a.data)

    def lines(lo, hi):
        cols = np.searchsorted(a.indptr, np.arange(lo, hi), side="right") - 1
        return _join(
            _text("    ", hi - lo),
            _name(ord("C"), cols),
            _text("  ", hi - lo),
            _row_name(a.indices[lo:hi].astype(np.int64) - 1, model.nrows),
            _text("  ", hi - lo),
            _table(table, ids[lo:hi]),
        )

    integer = model.col_binary & (not relax_binaries)
    edges = [0, *(np.flatnonzero(np.diff(integer.view(np.int8))) + 1).tolist(), model.ncols]
    for c0, c1 in zip(edges[:-1], edges[1:]):  # runs of integer or continuous columns
        if integer[c0]:
            fh.write(_INTORG)
        lo = int(a.indptr[c0])
        _write_chunked(fh, int(a.indptr[c1]) - lo, lambda i, j: lines(lo + i, lo + j))
        if integer[c0]:
            fh.write(_INTEND)


def _write_rhs(fh, model: LinearModel, tangent_rhs: list[float]) -> None:
    rhs = np.concatenate([model.rhs, np.tile(tangent_rhs, len(model.cones))])
    rows = np.flatnonzero(rhs != 0.0)
    table, ids = _values(rhs[rows])
    _write_chunked(
        fh,
        rows.size,
        lambda lo, hi: _join(
            _text("    RHS  ", hi - lo),
            _row_name(rows[lo:hi], model.nrows),
            _text("  ", hi - lo),
            _table(table, ids[lo:hi]),
        ),
    )


def _write_bounds(fh, model: LinearModel) -> None:
    """``FX`` for a fixed column, else ``LO`` and, for a finite upper bound, ``UP``."""
    lb, ub = model.col_lb, model.col_ub
    fixed = lb == ub
    cols = np.repeat(np.arange(model.ncols), 1 + (~fixed & np.isfinite(ub)))
    first = np.flatnonzero(np.diff(cols, prepend=-1))
    kind = np.full(cols.size, 2)  # UP
    kind[first] = np.where(fixed, 0, 1)  # FX or LO
    bound = ub[cols]
    bound[first] = lb
    kinds = _texts([" FX BND  ", " LO BND  ", " UP BND  "])
    table, ids = _values(bound)
    _write_chunked(
        fh,
        cols.size,
        lambda lo, hi: _join(
            _table(kinds, kind[lo:hi]),
            _name(ord("C"), cols[lo:hi]),
            _text("  ", hi - lo),
            _table(table, ids[lo:hi]),
        ),
    )


def export_mps(
    model: LinearModel,
    mps_path,
    cone_path=None,
    name_map_path=None,
    *,
    relax_binaries: bool = False,
) -> None:
    """Write the model to ``mps_path`` with companion files.

    Cone rows are represented in the MPS body by ``cuts.CONE_TANGENTS``
    deterministic tangent planes each; the exact cone column quadruples go to
    the sidecar so an SOCP-capable reader can reconstruct them.

    Every section is built from the model's arrays, not line by line, and
    written in blocks of ``CHUNK_LINES`` lines, so the memory it takes stays
    bounded; a value is written as its ``repr``, formatted once per distinct
    value.  The files are those a line-by-line writer produces.
    """
    planes = unit_tangents()
    with open(mps_path, "wb") as fh:
        fh.write(f"{MPS_HEADER}\n".encode())
        if relax_binaries:
            fh.write(b"* binaries relaxed to [0,1] (LP relaxation)\n")
        fh.write(f"NAME {model.meta.get('name', 'model')}\n".encode())
        fh.write(b"OBJSENSE\n    MAX\nROWS\n N  OBJ\n")
        _write_rows(fh, model, len(planes) * len(model.cones))
        fh.write(b"COLUMNS\n")
        _write_columns(fh, model, np.array([c for c, _ in planes]), relax_binaries)
        fh.write(b"RHS\n")
        _write_rhs(fh, model, [r for _, r in planes])
        fh.write(b"BOUNDS\n")
        _write_bounds(fh, model)
        fh.write(b"ENDATA\n")
    if cone_path is not None:
        quads = _cone_cols(model)
        with open(cone_path, "wb") as fh:
            fh.write(f"{CONE_HEADER}\n".encode())
            fh.write(b"* CONE <I> <V> <P> <Q> meaning I*V >= P^2 + Q^2\n")
            _write_chunked(
                fh,
                len(quads),
                lambda lo, hi: _join(
                    _text("CONE", hi - lo),
                    *(
                        f
                        for k in range(4)
                        for f in (_text(" ", hi - lo), _name(ord("C"), quads[lo:hi, k]))
                    ),
                    _text("\n", hi - lo),
                ),
            )
    if name_map_path is not None:
        names = model.catalog.names()
        with open(name_map_path, "wb") as fh:
            fh.write(f"{NAMEMAP_HEADER}\n".encode())
            _write_chunked(
                fh,
                model.ncols,
                lambda lo, hi: _join(
                    _name(ord("C"), np.arange(lo, hi)),
                    _text(" ", hi - lo),
                    _table(_texts([f"{n}\n" for n in islice(names, hi - lo)]), np.arange(hi - lo)),
                ),
            )


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
