import hashlib
import json
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from ugrestore.catalog import VariableCatalog
from ugrestore.feeder import load_case, load_case_dict
from ugrestore.model import SENSE_LE, ModelBuilder, RowBlock


def case_path(name: str) -> Path:
    return Path(str(resources.files("ugrestore.cases").joinpath(f"{name}.json")))


def shipped_case(name: str):
    return load_case(case_path(name))


def shipped_case_names() -> list[str]:
    files = resources.files("ugrestore.cases").iterdir()
    return sorted(f.name.removesuffix(".json") for f in files if f.name.endswith(".json"))


def shipped_doc(name: str) -> dict:
    with open(case_path(name)) as fh:
        return json.load(fh)


def voltdiff_capped(name: str, cap: float):
    """Shipped case ``name`` with ``config.delta_v_max_pu`` set to ``cap``."""
    doc = shipped_doc(name)
    doc["config"]["delta_v_max_pu"] = cap
    return load_case_dict(doc)


@pytest.fixture(scope="session")
def toy_pair():
    return shipped_case("toy_pair")


@pytest.fixture(scope="session")
def toy_fork():
    return shipped_case("toy_fork")


@pytest.fixture(scope="session")
def toy_pv():
    return shipped_case("toy_pv")


@pytest.fixture(scope="session")
def toy_gear3():
    return shipped_case("toy_gear3")


@pytest.fixture(scope="session")
def reduced13():
    return shipped_case("reduced13")


def minimal_doc(**overrides) -> dict:
    """Smallest schema-valid case: two nodes, one line, one storage unit."""
    doc = {
        "name": "mini",
        "horizon": 1,
        "period_hours": 1.0,
        "config": {"v_min_sq": 0.81, "v_max_sq": 1.21, "inrush_rise_time_s": 1e-4},
        "nodes": [
            {"id": "s", "phases": "abc"},
            {"id": "n1", "phases": "abc", "load_kw": {"a": [10.0]}},
        ],
        "lines": [
            {
                "from": "s",
                "to": "n1",
                "length_miles": 0.1,
                "impedance_pu": {"aa": [0.01, 0.02], "bb": [0.01, 0.02], "cc": [0.01, 0.02]},
                "ampacity_pu": 2.0,
            }
        ],
        "switchgears": [],
        "ders": [
            {
                "node": "s",
                "kind": "ESS",
                "energy_max_kwh": 100.0,
                "charge_max_kw": 20.0,
                "discharge_max_kw": 20.0,
            }
        ],
    }
    doc.update(overrides)
    return doc


def load_minimal(**overrides):
    return load_case_dict(minimal_doc(**overrides))


def add_row(b: ModelBuilder, family: str, terms, sense: int, rhs: float) -> None:
    """Append one row of ``(col, coef)`` terms to ``b``."""
    cols = np.array([c for c, _ in terms], dtype=np.int64)
    vals = np.array([v for _, v in terms], dtype=np.float64)
    b.add_blocks([RowBlock(np.zeros(1, dtype=np.int64), family, np.array([cols.size]), cols, vals, sense, rhs)])


def linprog_rows(a, lo: np.ndarray, hi: np.ndarray) -> dict:
    """The rows ``lo <= a.x <= hi`` as ``A_ub``, ``b_ub``, ``A_eq`` and ``b_eq`` of scipy's ``linprog``.

    Each finite upper side is a row of ``A_ub``, then each finite lower side
    a negated one; a row whose sides meet is an equality.
    """
    eq = lo == hi
    upper, lower = np.isfinite(hi) & ~eq, np.isfinite(lo) & ~eq
    return {
        "A_ub": sp.vstack([a[upper], -a[lower]], format="csr"),
        "b_ub": np.concatenate([hi[upper], -lo[lower]]),
        "A_eq": a[eq],
        "b_eq": lo[eq],
    }


def cone_toy(demand=("p",)):
    """One cone over four columns with loss pressure on the current, and a demand row over ``demand``."""
    cat = VariableCatalog()
    cat.add_group("i", [0], lb=0.0, ub=4.0)
    cat.add_group("v", [0], lb=0.9, ub=1.1)
    cat.add_group("p", [0], lb=0.0, ub=2.0)
    cat.add_group("q", [0], lb=0.0, ub=2.0)
    b = ModelBuilder(cat)
    add_row(b, "demand", [(cat.col(name, 0), 1.0) for name in demand], SENSE_LE, 1.3)
    b.add_obj(cat.col("p", 0), 1.0)
    b.add_obj(cat.col("i", 0), -0.1)
    b.add_cones([(cat.col("i", 0), cat.col("v", 0), cat.col("p", 0), cat.col("q", 0))])
    return cat, b.build({})


EXPORT_FILES = ("model.mps", "model.cones", "model.names", "relaxed.mps")
GOLDEN_EXPORTS = Path(__file__).parent / "data" / "mps_sha256.json"


def export_digests(model, directory) -> dict[str, str]:
    """sha256 of each file in ``EXPORT_FILES``, exported from ``model`` into ``directory``.

    ``relaxed.mps`` is the ``relax_binaries=True`` export.
    """
    from ugrestore.solver import export_mps

    d = Path(directory)
    export_mps(model, d / "model.mps", d / "model.cones", d / "model.names")
    export_mps(model, d / "relaxed.mps", relax_binaries=True)
    digests = {}
    for name in EXPORT_FILES:
        h = hashlib.sha256()
        with open(d / name, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        digests[name] = h.hexdigest()
    return digests


def golden_exports() -> dict[str, dict[str, str]]:
    with open(GOLDEN_EXPORTS) as fh:
        return json.load(fh)


def check_export_bytes(name: str, model, directory) -> None:
    """The export files of shipped case ``name`` are byte-identical to the golden digests.

    The digests pin the export format byte for byte.  Regenerate
    ``data/mps_sha256.json`` only for an intended change of that format or
    of the model, with ``scripts/regen_references.py mps_sha256.json``,
    and log it.
    """
    golden = golden_exports()[name]
    got = export_digests(model, directory)
    changed = [f for f in EXPORT_FILES if got[f] != golden[f]]
    assert not changed, f"{name}: {', '.join(changed)} differ from {GOLDEN_EXPORTS.name}"


GOLDEN_ROWS = Path(__file__).parent / "data" / "rows_sha256.json"


def row_families(model) -> list[str]:
    """The family name of each row, in order."""
    return [model.family_names[c] for c in model.family.tolist()]


def family_rows(model, *families: str, touching=None) -> np.ndarray:
    """The rows of ``families``, in order; with ``touching``, only those with an entry in one of those columns."""
    codes = [c for c, name in enumerate(model.family_names) if name in families]
    rows = np.isin(model.family, codes)
    if touching is not None:
        a = model.matrix()
        hit = np.zeros(model.nrows, dtype=bool)
        hit[np.repeat(np.arange(model.nrows), np.diff(a.indptr))[np.isin(a.indices, touching)]] = True
        rows &= hit
    return np.flatnonzero(rows)


def rows_digest(model) -> str:
    """sha256 of the per-row family sequence, one name per line.

    The export digests do not cover the row families, which the
    infeasibility hint and ``check_solution`` report, so this pins their
    order.
    """
    h = hashlib.sha256()
    for family in row_families(model):
        h.update(f"{family}\n".encode())
    return h.hexdigest()


def check_row_metadata(name: str, model) -> None:
    """The row families of shipped case ``name`` match ``data/rows_sha256.json``.

    Regenerate it only for an intended change of the rows, with
    ``scripts/regen_references.py rows_sha256.json``, and log it.
    """
    with open(GOLDEN_ROWS) as fh:
        golden = json.load(fh)[name]
    assert rows_digest(model) == golden, f"{name}: row families differ from {GOLDEN_ROWS.name}"


GOLDEN_COUNTS = Path(__file__).parent / "data" / "feeder123_counts.json"


def structural_counts(model) -> dict:
    """Per-family rows and cones, per-group columns and the size fingerprint (``data/feeder123_counts.json``)."""
    cat = model.catalog
    return {
        "families": model.family_counts(),
        "columns": {name: cat.group(name).size for name in cat.group_names},
        "fingerprint": [model.ncols, model.nrows, len(model.cones)],
    }


def root_lp(name: str, gate: bool):
    """The root LP (no cone cut) of shipped case ``name``'s build with the gate on or off (``data/root_lp.json``)."""
    from ugrestore.formulation import BuildOptions, build_model
    from ugrestore.solver import LpBackend

    return LpBackend(build_model(shipped_case(name), BuildOptions(ferro_gate=gate))).solve()


GOLDEN_PLAN = Path(__file__).parent / "data" / "plan_sha256.json"


def solved_plan_digest(directory) -> str:
    """sha256 of the ``plan.json`` of the ``reduced13`` solve at seed 0, saved into ``directory``.

    The solve is the benchmark's: greedy warm start, then the search with
    the diver, at a 15 s budget.  The plan's ``solver_info`` leaves out the
    run time.  Regenerate ``data/plan_sha256.json`` only for an intended
    change of the plan, with ``scripts/regen_references.py plan_sha256.json``,
    and log it.
    """
    from ugrestore.formulation import build_model
    from ugrestore.plan import RestorationPlan
    from ugrestore.solver import bnb, warmstart

    case = shipped_case("reduced13")
    model = build_model(case)
    opts = bnb.SolverOptions(time_limit_s=15.0, seed=0)
    ws = warmstart.greedy_warm_start(model, case, opts)
    sol = bnb.solve(model, opts, warm_start=ws, warm_start_source="greedy", diver=warmstart.make_diver(model, case, opts))
    info = {"nodes": sol.node_count, "cuts": sol.cut_count, "bound_pu_h": sol.bound, "seed": 0}
    path = Path(directory) / "plan.json"
    RestorationPlan.from_solution(model, sol.x, status=sol.status, gap=sol.gap, solver_info=info).save(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()
