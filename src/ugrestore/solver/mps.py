"""File interop with external solvers.

Exports the model as free-format MPS (cone rows approximated by tangent
cuts, exact cone data in a sidecar) plus a variable-name map; imports a
``name value`` solution file and replays every row before accepting it.
All formats carry a version header.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np
import scipy.sparse as sp

from ugrestore.model import SENSE_EQ, SENSE_GE, SENSE_LE, LinearModel
from ugrestore.solver.bnb import Solution
from ugrestore.solver.cuts import seed_tangents

MPS_HEADER = "* ugrestore mps export v1"
CONE_HEADER = "* ugrestore cone sidecar v1"
NAMEMAP_HEADER = "* ugrestore name map v1"


class MpsFormatError(ValueError):
    pass


class SolutionImportError(ValueError):
    pass


# Export: every section is a stream of parts written in order, each part the
# bytes of a constant or of a chunk of at most ``CHUNK_LINES`` lines
# assembled from numpy arrays.  A chunk is made only when the writer takes
# it, so the memory held stays one chunk whatever the model's size.  A line
# is a record of fixed-width byte-string fields, one array of ``S`` strings
# per field or one constant; a field shorter than its width is padded with
# NUL bytes, which are dropped from the chunk's bytes (no text written here
# holds one), so fields of varying width line up.
#
# - Names: the ``C``/``R``/``K`` names of all columns and rows are built once
#   as tables, one 8-byte string per name (wider past 9,999,999), and each
#   line gathers its names from them.
# - Values: each value is written as its ``repr``, formatted once per
#   distinct value.  The distinct values come from ``np.unique`` on the
#   values' bits, which hashes rather than sorts all of them (NumPy >= 2.3)
#   when no inverse is asked for; a chunk finds its values' texts by
#   ``searchsorted`` into the sorted distinct bits.

CHUNK_LINES = 1 << 16  # lines per assembled chunk

_INTORG = b"    MARKER    'MARKER'    'INTORG'\n"
_INTEND = b"    MARKER    'MARKER'    'INTEND'\n"
# the four ASCII digits of 0..9999, each packed into one uint32
_QUADS = (
    (np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0"))
    .astype(np.uint8)
    .view(np.uint32)
    .ravel()
)


def _name(letter: bytes, idx) -> np.ndarray:
    """``f"{letter}{i:07d}"`` for each index ``i``, as ``S`` strings (NUL-padded when wider)."""
    idx = np.asarray(idx, dtype=np.int64)
    width = max(7, len(str(int(idx.max())))) if idx.size else 7
    groups = -(-(width + 1) // 4)  # four-digit groups, with room for the letter
    quads = np.empty((idx.size, groups), dtype=np.uint32)
    rest = idx
    for g in range(groups - 1, -1, -1):
        rest, quad = np.divmod(rest, 10_000)
        quads[:, g] = _QUADS[quad]
    out = np.ascontiguousarray(quads.view(np.uint8)[:, 4 * groups - width - 1 :])
    if width > 7:  # only the leading zeros that pad to seven digits are written
        shown = np.maximum(7, [len(str(i)) for i in idx.tolist()])
        out[:, 1:][np.arange(width) < width - shown[:, None]] = 0
    out[:, 0] = ord(letter)  # over a leading zero
    return out.view(f"S{width + 1}").reshape(-1)


def _lines(*fields) -> bytes:
    """The lines whose fields are ``fields`` side by side, each field a ``bytes``
    constant or an ``S`` array with one string per line; NUL bytes are dropped."""
    n = next(len(f) for f in fields if isinstance(f, np.ndarray))
    widths = [f.dtype if isinstance(f, np.ndarray) else f"S{len(f)}" for f in fields]
    block = np.empty(n, dtype=[(f"f{i}", w) for i, w in enumerate(widths)])
    for i, f in enumerate(fields):
        block[f"f{i}"] = f
    raw = block.view(np.uint8)
    return raw[raw != 0].tobytes()


def _value_texts(values: np.ndarray):
    """``texts(lo, hi)``: the ``repr`` line of each of ``values[lo:hi]``, as ``S`` strings.

    Values are told apart by their bits, so ``-0.0`` keeps its sign.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    keys = np.unique(bits)
    table = np.array([f"{v!r}\n".encode() for v in keys.view(np.float64).tolist()], dtype=bytes)
    return lambda lo, hi: table[np.searchsorted(keys, bits[lo:hi])]


def _chunks(n: int, lines):
    """The bytes ``lines(lo, hi)`` of consecutive chunks of ``range(n)``, each made when it is taken."""
    for lo in range(0, n, CHUNK_LINES):
        yield lines(lo, min(n, lo + CHUNK_LINES))


def _mps_parts(model: LinearModel, relax_binaries: bool):
    """The parts of the MPS file, in order."""
    seeds, seed_rhs = seed_tangents(model)
    seeds.eliminate_zeros()  # a zero tangent coefficient is not written
    letter = np.empty(3, dtype="S1")
    letter[[SENSE_LE, SENSE_GE, SENSE_EQ]] = [b"L", b"G", b"E"]
    sense = np.concatenate([letter[model.sense], np.full(len(seed_rhs), b"L")])
    # the name of row r of the model and tangent rows is rows[1 + r]; rows[0] is the objective
    rows = np.concatenate([[b"OBJ"], _name(b"R", np.arange(model.nrows)), _name(b"K", np.arange(len(seed_rhs)))])
    cols = _name(b"C", np.arange(model.ncols))

    yield f"{MPS_HEADER}\n".encode()
    if relax_binaries:
        yield b"* binaries relaxed to [0,1] (LP relaxation)\n"
    yield f"NAME {model.meta.get('name', 'model')}\nOBJSENSE\n    MAX\nROWS\n N  OBJ\n".encode()
    yield from _chunks(sense.size, lambda lo, hi: _lines(b" ", sense[lo:hi], b"  ", rows[1 + lo : 1 + hi], b"\n"))
    yield b"COLUMNS\n"
    yield from _column_parts(model, *_column_entries(model, seeds), rows, cols, relax_binaries)
    yield b"RHS\n"
    nonzero, rhs_texts = _rhs_entries(model, seed_rhs)
    yield from _chunks(
        nonzero.size, lambda lo, hi: _lines(b"    RHS  ", rows[1 + nonzero[lo:hi]], b"  ", rhs_texts(lo, hi))
    )
    yield b"BOUNDS\n"
    kind, col, bound_texts = _bound_entries(model)
    yield from _chunks(col.size, lambda lo, hi: _lines(kind[lo:hi], cols[col[lo:hi]], b"  ", bound_texts(lo, hi)))
    yield b"ENDATA\n"


def _column_entries(model: LinearModel, seeds: sp.csr_matrix):
    """The COLUMNS entries: a CSC matrix over the rows (OBJ, model rows, tangent rows) and its value texts.

    A column's entries are its OBJ entry, if its objective is not zero or
    it has no other entry (``OBJ 0.0``), then its row entries, sorted.  An
    explicit zero of a model row is kept.
    """
    body = model.matrix()
    rowless = np.bincount(body.indices, minlength=model.ncols) + np.bincount(seeds.indices, minlength=model.ncols) == 0
    obj_cols = np.flatnonzero((model.obj != 0.0) | rowless)
    obj_row = sp.csr_matrix(
        (np.where(model.obj != 0.0, model.obj, 0.0)[obj_cols], obj_cols, [0, obj_cols.size]),
        shape=(1, model.ncols),
    )
    a = sp.vstack([obj_row, body, seeds], format="csr").tocsc()
    return a, _value_texts(a.data)


def _rhs_entries(model: LinearModel, seed_rhs: np.ndarray):
    """The rows, model then tangent rows, whose right-hand side is not 0, and the texts of those sides."""
    rhs = np.concatenate([model.rhs, seed_rhs])
    nonzero = np.flatnonzero(rhs != 0.0)
    return nonzero, _value_texts(rhs[nonzero])


def _bound_entries(model: LinearModel):
    """Kind, column and value text of each bound: ``FX`` for a fixed column, else ``LO`` and, if finite, ``UP``."""
    lb, ub = model.col_lb, model.col_ub
    fixed = lb == ub
    col = np.repeat(np.arange(model.ncols), 1 + (~fixed & np.isfinite(ub)))
    first = np.flatnonzero(np.diff(col, prepend=-1))
    kind = np.full(col.size, b" UP BND  ")
    kind[first] = np.where(fixed, b" FX BND  ", b" LO BND  ")
    bound = ub[col]
    bound[first] = lb
    return kind, col, _value_texts(bound)


def _column_parts(model: LinearModel, a: sp.csc_matrix, texts, rows: np.ndarray, cols: np.ndarray, relax: bool):
    """One line per entry of ``a``; runs of integer columns are marked with INTORG/INTEND."""

    def lines(lo, hi):
        first = np.searchsorted(a.indptr, lo, side="right") - 1  # the column of entry lo
        end = np.searchsorted(a.indptr, hi)  # past the column of entry hi - 1
        col = np.repeat(np.arange(first, end), np.diff(np.clip(a.indptr[first : end + 1], lo, hi)))
        return _lines(b"    ", cols[col], b"  ", rows[a.indices[lo:hi]], b"  ", texts(lo, hi))

    integer = model.col_binary & (not relax)
    edges = [0, *(np.flatnonzero(np.diff(integer.view(np.int8))) + 1).tolist(), model.ncols]
    for c0, c1 in zip(edges[:-1], edges[1:]):  # runs of integer or continuous columns
        if integer[c0]:
            yield _INTORG
        lo = int(a.indptr[c0])
        yield from _chunks(int(a.indptr[c1]) - lo, lambda i, j: lines(lo + i, lo + j))
        if integer[c0]:
            yield _INTEND


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
    deterministic tangent planes each (:func:`cuts.seed_tangents`); the exact
    cone column quadruples go to the sidecar so an SOCP-capable reader can
    reconstruct them.

    Every section is built from the model's arrays, not line by line, in
    chunks of ``CHUNK_LINES`` lines, each written before the next is made,
    so the memory it takes stays bounded.  The files are those a
    line-by-line writer produces.
    """
    with open(mps_path, "wb") as fh:
        fh.writelines(_mps_parts(model, relax_binaries))
    if cone_path is not None:
        with open(cone_path, "wb") as fh:
            fh.writelines(_cone_parts(model))
    if name_map_path is not None:
        with open(name_map_path, "wb") as fh:
            fh.writelines(_name_map_parts(model))


def _cone_parts(model: LinearModel):
    yield f"{CONE_HEADER}\n* CONE <I> <V> <P> <Q> meaning I*V >= P^2 + Q^2\n".encode()
    quads = _name(b"C", model.cones.ravel()).reshape(-1, 4)
    yield from _chunks(
        len(quads), lambda lo, hi: _lines(b"CONE", *(f for k in range(4) for f in (b" ", quads[lo:hi, k])), b"\n")
    )


def _name_map_parts(model: LinearModel):
    """The parts of the name map: ``C0000123 name`` per column, group by group.

    A group's names are gathered from one table of label texts per axis
    (``catalog.Group.texts``), indexed by each column's place in the
    product; a label text holds no NUL, so :func:`_lines` keeps it whole.
    """
    yield f"{NAMEMAP_HEADER}\n".encode()
    cols = _name(b"C", np.arange(model.ncols))
    cat = model.catalog
    for g in map(cat.group, cat.group_names):
        texts = [np.array([t.encode() for t in axis], dtype=bytes) for axis in g.texts]
        seps = [f"{g.name}[".encode()] + [b","] * (len(texts) - 1)

        def lines(lo, hi):
            at = np.unravel_index(np.arange(lo, hi), g.shape)
            labels = (f for sep, table, i in zip(seps, texts, at) for f in (sep, table[i]))
            return _lines(cols[g.start + lo : g.start + hi], b" ", *labels, b"]\n")

        yield from _chunks(g.size, lines)


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
    """One ``C0000123 value`` line per column, the value as its ``repr``, written as the export is."""
    cols = _name(b"C", np.arange(model.ncols))
    values = _value_texts(np.asarray(x, dtype=np.float64)[: model.ncols])
    lines = _chunks(model.ncols, lambda lo, hi: _lines(cols[lo:hi], b" ", values(lo, hi)))
    with open(path, "wb") as fh:
        fh.writelines(chain([b"* ugrestore solution v1\n"], lines))


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
