import re

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import check_export_bytes, cone_toy, golden_exports, shipped_case, shipped_case_names
from ugrestore.catalog import VariableCatalog
from ugrestore.formulation import build_model
from ugrestore.model import SENSE_EQ, SENSE_GE, SENSE_LE, LinearModel
from ugrestore.solver import (
    SolverOptions,
    export_mps,
    greedy_warm_start,
    import_external_solution,
    parse_mps,
    solve,
)
from ugrestore.solver.cuts import seed_tangents, unit_tangents
from ugrestore.solver.lp import read_lp
from ugrestore.solver import mps
from ugrestore.solver.mps import (
    MpsFormatError,
    SolutionImportError,
    _lines,
    _name,
    write_solution_file,
)

OPTS = SolverOptions(time_limit_s=60, rel_gap=1e-6, abs_gap=1e-9)


@pytest.fixture(scope="module")
def solved_pair():
    case = shipped_case("toy_pair")
    model = build_model(case)
    ws = greedy_warm_start(model, case, OPTS)
    sol = solve(model, OPTS, warm_start=ws)
    assert sol.status == "optimal"
    return case, model, sol


class TestExport:
    def test_files_and_strict_parse(self, solved_pair, tmp_path):
        case, model, sol = solved_pair
        export_mps(model, tmp_path / "m.mps", tmp_path / "m.cones", tmp_path / "m.names")
        assert (tmp_path / "m.mps").exists()
        assert (tmp_path / "m.cones").exists()
        assert (tmp_path / "m.names").exists()
        summary = parse_mps(tmp_path / "m.mps")
        assert summary.maximize
        assert summary.n_cols == model.ncols
        # linear rows plus the tangent planes standing in for each cone
        assert summary.n_rows == model.nrows + 8 * len(model.cones)
        assert summary.n_integer == int(model.col_binary.sum())
        cones = (tmp_path / "m.cones").read_text().strip().splitlines()
        assert len([l for l in cones if l.startswith("CONE")]) == len(model.cones)
        names = (tmp_path / "m.names").read_text().splitlines()
        assert len(names) == model.ncols + 1

    def test_relaxed_header(self, solved_pair, tmp_path):
        case, model, sol = solved_pair
        export_mps(model, tmp_path / "r.mps", relax_binaries=True)
        summary = parse_mps(tmp_path / "r.mps")
        assert summary.relaxed
        assert summary.n_integer == 0

    def test_strict_reader_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.mps"
        bad.write_text("NAME foo\nROWS\n")
        with pytest.raises(MpsFormatError):
            parse_mps(bad)


def tangent_rows(model):
    """``(cols, coefs, rhs)`` per seed row: the :func:`unit_tangents` planes on each cone's columns, cone by cone."""
    planes = unit_tangents()
    return [(cone, coefs.tolist(), float(rhs)) for cone in model.cones for coefs, rhs in zip(*planes)]


def reference_export(model, mps_path, cone_path, name_map_path, relax_binaries=False):
    """The export written line by line, as the array-built writer must reproduce it."""
    cuts = tangent_rows(model)
    m = model.matrix().tocoo()
    per_col = {}
    for r, c, v in zip(m.row, m.col, m.data):
        per_col.setdefault(int(c), []).append((f"R{int(r):07d}", float(v)))
    for ci, (cols, coefs, _) in enumerate(cuts):
        for col, coef in zip(cols, coefs):
            if coef != 0.0:  # a zero tangent coefficient is not written
                per_col.setdefault(int(col), []).append((f"K{ci:07d}", float(coef)))
    with open(mps_path, "w") as fh:
        fh.write("* ugrestore mps export v1\n")
        if relax_binaries:
            fh.write("* binaries relaxed to [0,1] (LP relaxation)\n")
        fh.write(f"NAME {model.meta.get('name', 'model')}\nOBJSENSE\n    MAX\nROWS\n N  OBJ\n")
        sense_char = {SENSE_LE: "L", SENSE_GE: "G", SENSE_EQ: "E"}
        for r in range(model.nrows):
            fh.write(f" {sense_char[int(model.sense[r])]}  R{r:07d}\n")
        for ci in range(len(cuts)):
            fh.write(f" L  K{ci:07d}\n")
        fh.write("COLUMNS\n")
        integer_open = False
        for col in range(model.ncols):
            is_int = bool(model.col_binary[col]) and not relax_binaries
            if is_int != integer_open:
                fh.write(f"    MARKER    'MARKER'    '{'INTORG' if is_int else 'INTEND'}'\n")
                integer_open = is_int
            entries = per_col.get(col, [])
            if model.obj[col] != 0.0:
                entries = [("OBJ", float(model.obj[col]))] + entries
            for rname, coef in entries or [("OBJ", 0.0)]:
                fh.write(f"    C{col:07d}  {rname}  {coef!r}\n")
        if integer_open:
            fh.write("    MARKER    'MARKER'    'INTEND'\n")
        fh.write("RHS\n")
        for r in range(model.nrows):
            if model.rhs[r] != 0.0:
                fh.write(f"    RHS  R{r:07d}  {float(model.rhs[r])!r}\n")
        for ci, (_, _, rhs) in enumerate(cuts):
            if rhs != 0.0:
                fh.write(f"    RHS  K{ci:07d}  {rhs!r}\n")
        fh.write("BOUNDS\n")
        for col in range(model.ncols):
            lb, ub = float(model.col_lb[col]), float(model.col_ub[col])
            if lb == ub:
                fh.write(f" FX BND  C{col:07d}  {lb!r}\n")
                continue
            fh.write(f" LO BND  C{col:07d}  {lb!r}\n")
            if np.isfinite(ub):
                fh.write(f" UP BND  C{col:07d}  {ub!r}\n")
        fh.write("ENDATA\n")
    with open(cone_path, "w") as fh:
        fh.write("* ugrestore cone sidecar v1\n* CONE <I> <V> <P> <Q> meaning I*V >= P^2 + Q^2\n")
        for i, v, p, q in model.cones.tolist():
            fh.write(f"CONE C{i:07d} C{v:07d} C{p:07d} C{q:07d}\n")
    with open(name_map_path, "w") as fh:
        fh.write("* ugrestore name map v1\n")
        for col in range(model.ncols):
            fh.write(f"C{col:07d} {model.catalog.name_of(col)}\n")


def edge_model() -> LinearModel:
    """What no shipped case has: explicit and negative zero entries, a column in no
    row whose objective is -0.0, infinite bounds, and integer runs at both ends."""
    cat = VariableCatalog()
    cat.add_group("b", [0, 1], binary=True)
    cat.add_group("x", ["p", "q", "r"], [0], lb=[-np.inf, 0.0, 2.5], ub=[np.inf, np.inf, 2.5])
    cat.add_group("y", ["only"], binary=True)
    cat.add_group("z", [0, 1])  # z[1] is in no row
    lb, ub, binary = cat.finalize()
    rows, cols, vals = zip(
        (0, 0, 1.0), (0, 2, -0.0), (0, 3, 0.1),
        (1, 0, 2.0), (1, 0, -2.0), (1, 5, 3e-17),  # the two b[0] terms sum to an explicit 0.0
        (2, 6, 1.0 / 3.0), (2, 4, -1e300), (2, 1, 5.0),
    )  # fmt: skip
    return LinearModel(
        catalog=cat,
        col_lb=lb,
        col_ub=ub,
        col_binary=binary,
        obj=np.array([1.0, 0.0, -0.0, 0.5, 0.0, 0.0, 0.0, -0.0]),
        coo_r=np.array(rows),
        coo_c=np.array(cols),
        coo_v=np.array(vals),
        sense=np.array([SENSE_LE, SENSE_GE, SENSE_EQ], dtype=np.int8),
        rhs=np.array([1.5, -0.0, 7.0]),
        family=np.zeros(3, dtype=np.int32),
        family_names=["f"],
        cones=np.array([[3, 4, 6, 2]]),
        meta={"name": "edge"},
    )


class TestExportBytes:
    @pytest.mark.parametrize("relax", [False, True])
    def test_matches_line_by_line_reference_on_edge_cases(self, relax, tmp_path):
        model = edge_model()
        ref = [tmp_path / f"ref.{ext}" for ext in ("mps", "cones", "names")]
        got = [tmp_path / f"got.{ext}" for ext in ("mps", "cones", "names")]
        reference_export(model, *ref, relax_binaries=relax)
        export_mps(model, *got, relax_binaries=relax)
        for r, g in zip(ref, got):
            assert g.read_bytes() == r.read_bytes(), g.name

    def test_golden_digests_cover_every_shipped_case(self):
        assert sorted(golden_exports()) == shipped_case_names()

    # feeder123 is checked beside its slow build, in test_formulation.py
    @pytest.mark.parametrize("name", [n for n in shipped_case_names() if n != "feeder123"])
    def test_export_bytes_unchanged(self, name, tmp_path):
        check_export_bytes(name, build_model(shipped_case(name)), tmp_path)

    @pytest.mark.parametrize("idx", [[0, 7, 9_999_999], [5, 10_000_000, 123_456_789_012]])
    def test_names_pad_to_seven_digits_and_grow_past_them(self, idx):
        lines = _lines(_name(b"C", np.array(idx)), b"\n")
        assert lines.decode() == "".join(f"C{i:07d}\n" for i in idx)


class TestChunkedWriter:
    """Chunks of a few lines join into the same files."""

    @pytest.fixture
    def tiny_chunks(self, monkeypatch):
        monkeypatch.setattr(mps, "CHUNK_LINES", 3)

    @staticmethod
    def _same_as_reference(model, directory, relax):
        ref = [directory / f"ref.{ext}" for ext in ("mps", "cones", "names")]
        got = [directory / f"got.{ext}" for ext in ("mps", "cones", "names")]
        reference_export(model, *ref, relax_binaries=relax)
        export_mps(model, *got, relax_binaries=relax)
        for r, g in zip(ref, got):
            assert g.read_bytes() == r.read_bytes(), g.name

    @pytest.mark.parametrize("relax", [False, True])
    def test_edge_model(self, tiny_chunks, relax, tmp_path):
        self._same_as_reference(edge_model(), tmp_path, relax)

    def test_reduced13(self, tiny_chunks, tmp_path):
        model = build_model(shipped_case("reduced13"))
        starts = np.flatnonzero(np.diff(model.col_binary.astype(np.int8)) == 1) + 1  # later integer runs
        seeds, _ = seed_tangents(model)
        seeds.eliminate_zeros()
        first_line = mps._column_entries(model, seeds)[0].indptr[starts]  # of the run, in COLUMNS
        assert starts.size >= 2 and np.any(first_line % 3 != 0)
        self._same_as_reference(model, tmp_path, False)

    def test_names_of_unusual_labels(self, tiny_chunks, tmp_path):
        """Labels of several widths and bytes, and an empty group, name the columns as ``name_of`` does."""
        model = edge_model()
        model.catalog = VariableCatalog()
        model.catalog.add_group("n", ["é", "{}", 7], range(2))
        model.catalog.add_group("e", [], [0])
        model.catalog.add_group("m", ["x", "Ω12"])
        export_mps(model, tmp_path / "m.mps", name_map_path=tmp_path / "m.names")
        want = "".join(f"C{c:07d} {model.catalog.name_of(c)}\n" for c in range(model.ncols))
        assert (tmp_path / "m.names").read_bytes() == ("* ugrestore name map v1\n" + want).encode()
        assert want.splitlines()[:2] == ["C0000000 n[é,0]", "C0000001 n[é,1]"]

    def test_an_error_in_a_chunk_is_raised(self, tiny_chunks, tmp_path, monkeypatch):
        real, calls = mps._lines, []

        def failing(*fields):
            calls.append(1)
            if len(calls) == 3:
                raise MemoryError("chunk 3")
            return real(*fields)

        monkeypatch.setattr(mps, "_lines", failing)
        with pytest.raises(MemoryError, match="chunk 3"):
            export_mps(build_model(shipped_case("toy_pair")), tmp_path / "m.mps")


class TestReadBack:
    """HiGHS reads the exported file back as the model plus its tangent rows."""

    @pytest.fixture(scope="class")
    def exported(self, tmp_path_factory):
        model = build_model(shipped_case("reduced13"))
        d = tmp_path_factory.mktemp("readback")
        export_mps(model, d / "m.mps")
        export_mps(model, d / "r.mps", relax_binaries=True)
        return model, read_lp(d / "m.mps"), read_lp(d / "r.mps")

    def test_objective_and_columns(self, exported):
        model, lp, relaxed = exported
        assert lp.sense_.name == "kMaximize"
        assert lp.num_col_ == model.ncols
        assert np.array_equal(lp.col_cost_, model.obj)
        assert np.array_equal(lp.col_lower_, model.col_lb)
        assert np.array_equal(lp.col_upper_, model.col_ub)
        integer = np.array([t.name == "kInteger" for t in lp.integrality_])
        assert np.array_equal(integer, model.col_binary)
        assert not any(t.name == "kInteger" for t in relaxed.integrality_)

    def test_rows(self, exported):
        model, lp, _ = exported
        cuts = tangent_rows(model)
        sense = np.concatenate([model.sense, np.full(len(cuts), SENSE_LE)])
        rhs = np.concatenate([model.rhs, [r for _, _, r in cuts]])
        assert lp.num_row_ == model.nrows + len(cuts) == model.nrows + 8 * len(model.cones)
        assert np.array_equal(lp.row_lower_, np.where(sense == SENSE_LE, -np.inf, rhs))
        assert np.array_equal(lp.row_upper_, np.where(sense == SENSE_GE, np.inf, rhs))

    def test_matrix(self, exported):
        model, lp, _ = exported
        cuts = tangent_rows(model)
        tangents = sp.csr_matrix(
            (
                [v for _, coefs, _ in cuts for v in coefs],
                [j for cols, _, _ in cuts for j in cols],
                np.cumsum([0] + [len(cols) for cols, _, _ in cuts]),
            ),
            shape=(len(cuts), model.ncols),
        )
        want = sp.vstack([model.matrix(), tangents]).tocsc()
        # HiGHS drops the entries with |v| <= 1e-9 (small_matrix_value)
        want.data[np.abs(want.data) <= 1e-9] = 0.0
        want.eliminate_zeros()
        want.sort_indices()
        a = lp.a_matrix_
        assert a.format_.name == "kColwise"
        assert np.array_equal(a.start_, want.indptr)
        assert np.array_equal(a.index_, want.indices)
        assert np.array_equal(a.value_, want.data)


class TestImport:
    def test_solution_file_bytes(self, tmp_path):
        """The chunked writer writes what one f-string per column wrote."""
        model = edge_model()
        x = np.array([-0.0, 1e300, 0.1, -2.5e-320, 1.0 / 3.0, 0.0, 123456789.0, -7.0])
        write_solution_file(model, x, tmp_path / "x.sol")
        want = "* ugrestore solution v1\n" + "".join(f"C{col:07d} {float(x[col])!r}\n" for col in range(model.ncols))
        assert (tmp_path / "x.sol").read_bytes() == want.encode()

    def test_round_trip_objective(self, solved_pair, tmp_path):
        case, model, sol = solved_pair
        path = tmp_path / "sol.txt"
        write_solution_file(model, sol.x, path)
        back = import_external_solution(model, path)
        assert back.objective == pytest.approx(sol.objective, abs=1e-9)
        assert np.allclose(back.x, sol.x)

    def test_catalog_names_accepted(self, solved_pair, tmp_path):
        case, model, sol = solved_pair
        path = tmp_path / "named.txt"
        with open(path, "w") as fh:
            for col in range(model.ncols):
                fh.write(f"{model.catalog.name_of(col)} {float(sol.x[col])!r}\n")
        back = import_external_solution(model, path)
        assert back.objective == pytest.approx(sol.objective, abs=1e-9)

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_value_rejected(self, solved_pair, tmp_path, bad):
        case, model, sol = solved_pair
        x = np.full(model.ncols, np.nan) if bad == "nan" else np.where(np.arange(model.ncols) == 5, np.inf, sol.x)
        path = tmp_path / f"{bad}.txt"
        write_solution_file(model, x, path)
        name = re.escape(model.catalog.name_of(0 if bad == "nan" else 5))
        with pytest.raises(SolutionImportError, match=rf"non-finite at \('{name}',\) by inf"):
            import_external_solution(model, path)

    def test_unknown_name_rejected(self, solved_pair, tmp_path):
        case, model, sol = solved_pair
        path = tmp_path / "bad.txt"
        path.write_text("no_such_column[zz] 1.0\n")
        with pytest.raises(SolutionImportError, match="unknown column"):
            import_external_solution(model, path)

    def test_fractional_binary_names_integrality(self, tmp_path):
        case = shipped_case("toy_gear3")
        model = build_model(case)
        sol = solve(model, OPTS, warm_start=greedy_warm_start(model, case, OPTS))
        # a binary whose half value breaks no row: only integrality can reject the file
        for col in model.free_binary_columns:
            x = sol.x.copy()
            x[col] = 0.5
            if [v.family for v in model.check_solution(x)] == ["integrality"]:
                break
        else:
            pytest.fail("every half binary breaks a row")
        path = tmp_path / "half.txt"
        write_solution_file(model, x, path)
        name = model.catalog.name_of(int(col))
        with pytest.raises(SolutionImportError, match=rf"integrality at \('{re.escape(name)}',\) by 5\.000e-01"):
            import_external_solution(model, path)

    @pytest.mark.parametrize(
        "point, message",
        [
            ((4.0, 1.0, 1.0, 1.0), r"demand at \('p\[0\]', 'q\[0\]'\) by 7\.000e-01"),
            ((0.1, 1.0, 0.5, 0.5), r"cone at \('i\[0\]', 'v\[0\]', 'p\[0\]', 'q\[0\]'\) by 4\.000e-01"),
        ],
        ids=["row", "cone"],
    )
    def test_violation_names_family_and_columns(self, tmp_path, point, message):
        cat, model = cone_toy(demand=("p", "q"))
        x = np.zeros(model.ncols)
        x[[cat.col(name, 0) for name in "ivpq"]] = point
        write_solution_file(model, x, tmp_path / "x.sol")
        with pytest.raises(SolutionImportError, match=f"^solution violates {message}$"):
            import_external_solution(model, tmp_path / "x.sol")

    def test_flipped_binary_names_violated_row(self, tmp_path):
        case = shipped_case("toy_fork")
        model = build_model(case)
        ws = greedy_warm_start(model, case, OPTS)
        sol = solve(model, OPTS, warm_start=ws)
        x = sol.x.copy()
        closed = [
            l.index
            for l in case.switch_lines
            if x[model.catalog.col("gamma", l.index)] > 0.5
        ]
        col = model.catalog.col("gamma", closed[0])
        x[col] = 0.0
        path = tmp_path / "flip.txt"
        write_solution_file(model, x, path)
        with pytest.raises(SolutionImportError) as err:
            import_external_solution(model, path)
        msg = str(err.value)
        assert ("tree-count" in msg) or ("switch-split" in msg) or ("flow" in msg)
