import copy
import itertools
import math
import re
from dataclasses import dataclass, replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conftest import (
    check_export_bytes,
    check_row_metadata,
    family_rows,
    load_minimal,
    minimal_doc,
    row_families,
    shipped_case,
    shipped_case_names,
    shipped_doc,
    voltdiff_capped,
)
from ugrestore import bigm
from ugrestore.catalog import VariableCatalog
from ugrestore.feeder import CaseInvariantError, load_case_dict
from ugrestore.formulation import (
    BuildOptions,
    UnformulatableError,
    _add_columns,
    _Ctx,
    build_model,
    dead_pairs,
    derated_multiplier,
    gate_threshold_pu,
    hat_matrices,
    orient_from,
)
from ugrestore.model import SENSE_EQ, SENSE_GE, SENSE_LE, ModelBuilder, RowBlock
from ugrestore.physics import (
    PERMUTATIONS,
    SwitchingPoint,
    exact_phasor_difference,
    q_factor_from_load,
    squared_voltage_difference,
)
from ugrestore.quantile import normal_quantile
from ugrestore.validator import BRACKET_SLACK, LINEAR_TOL


class TestBuildBasics:
    def test_no_storage_rejected(self):
        doc = minimal_doc()
        doc["ders"] = []
        case = load_case_dict(doc)
        with pytest.raises(UnformulatableError):
            build_model(case)

    def test_zero_load_optimum_zero(self):
        doc = minimal_doc()
        doc["nodes"][1].pop("load_kw")
        case = load_case_dict(doc)
        model = build_model(case)
        from ugrestore.solver import SolverOptions, solve

        sol = solve(model, SolverOptions(time_limit_s=30))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.0, abs=1e-9)

    def test_binary_census_minimal(self):
        """Count binaries by construction on the 2-node, 1-line, T=1 case."""
        case = load_minimal()
        model = build_model(case)
        cat = model.catalog
        expected = {
            "u": 2,       # two nodes, one source
            "gamma": 1,   # one line
            "ess_ch_on": 1,
            "ess_dis_on": 1,
        }
        for name, count in expected.items():
            assert cat.group(name).size == count, name
        # free binaries exclude pinned ones (source coverage, wire states)
        free = model.free_binary_columns
        free_names = {cat.name_of(int(c)).split("[")[0] for c in free}
        assert free_names == {"u", "ess_ch_on", "ess_dis_on"}
        assert len(free) == 3

    def test_determinism(self):
        case = shipped_case("toy_gear3")
        a = build_model(case)
        b = build_model(case)
        assert row_families(a) == row_families(b)
        assert np.array_equal(a.coo_r, b.coo_r)
        assert np.array_equal(a.coo_c, b.coo_c)
        assert np.array_equal(a.coo_v, b.coo_v)
        assert np.array_equal(a.rhs, b.rhs)
        assert np.array_equal(a.col_lb, b.col_lb)
        assert np.array_equal(a.obj, b.obj)
        assert np.array_equal(a.cones, b.cones)

    @pytest.mark.parametrize("name", [n for n in shipped_case_names() if n != "feeder123"])
    def test_no_row_is_stated_twice(self, name):
        """No two rows share their sorted entries, sense and right-hand side."""
        model = build_model(shipped_case(name))
        a = model.matrix().tocsr()
        a.sort_indices()
        first: dict[tuple, int] = {}
        twice = []
        families = row_families(model)
        for row in range(model.nrows):
            span = slice(a.indptr[row], a.indptr[row + 1])
            key = (
                a.indices[span].tobytes(),
                a.data[span].tobytes(),
                int(model.sense[row]),
                float(model.rhs[row]),
            )
            if key in first:
                twice.append((families[first[key]], families[row]))
            first.setdefault(key, row)
        assert not twice, f"{len(twice)} duplicate rows, first {twice[:3]}"

    def test_row_family_catalog_documented(self):
        """The module docstring names, one per line, exactly the families the build emits."""
        import ugrestore.formulation

        catalog = set(re.findall(r"^  ([a-z][a-z0-9-]*) {2,}\S", ugrestore.formulation.__doc__, re.M))
        built = set(build_model(voltdiff_capped("toy_gear3", 0.05)).family_counts())
        for name in shipped_case_names():
            if name != "feeder123":
                built |= set(build_model(shipped_case(name)).family_counts())
        assert built == catalog


def test_voltdiff_cap_rows():
    """A cap on the closing voltage step is two rows per switchgear, period and phase."""
    case = voltdiff_capped("toy_gear3", 0.05)
    model = build_model(case)
    rows = family_rows(model, "voltdiff-cap").tolist()
    keys = [(g.id, t, ph) for g in case.switchgears for t in range(case.horizon) for ph in range(3)]
    assert len(rows) == 2 * len(keys) and len(keys) > 0
    a = model.matrix().tocsr()
    for key, up, down in zip(keys, rows[0::2], rows[1::2]):
        col = model.catalog.col("volt_diff", key)
        for row, sign in ((up, 1.0), (down, -1.0)):
            assert a[row].indices.tolist() == [col] and a[row].data.tolist() == [sign]
            assert model.sense[row] == SENSE_LE and model.rhs[row] == 0.05
    assert "voltdiff-cap" not in build_model(shipped_case("toy_gear3")).family_counts()


@pytest.mark.parametrize("name", [n for n in shipped_case_names() if n != "feeder123"])
def test_row_tags_unchanged(name):
    """Every row keeps its family, in order (``data/rows_sha256.json``)."""
    check_row_metadata(name, build_model(shipped_case(name)))


class TestAddRows:
    """A block of rows stores exactly what the same rows added one by one store."""

    @staticmethod
    def _state(b: ModelBuilder) -> tuple:
        m = b.build()
        return (m.coo_r.tolist(), m.coo_c.tolist(), m.coo_v.tobytes(), m.sense.tolist(),
                m.rhs.tobytes(), row_families(m))

    @staticmethod
    def _builder() -> ModelBuilder:
        cat = VariableCatalog()
        cat.add_group("x", list(range(6)))
        b = ModelBuilder(cat)
        b.add("head", [(5, 1.0)], SENSE_EQ, 1.0)  # blocks append after existing rows
        return b

    COLS = np.array([[0, 1, 2, 0], [3, 3, 4, 0], [5, 0, 0, 0]])
    VALS = np.array([[1.5, 0.0, -2.0, 0.0], [1.0, -1.0, -0.0, 0.0], [-0.0, 0.0, 0.0, 0.0]])

    @pytest.mark.parametrize(
        "family, sense, rhs",
        [
            ("blk", SENSE_LE, 2.5),
            # a table in another order than the rows first use it, with a name no row uses
            ((["f2", "none", "f1"], np.array([2, 0, 2])), np.array([SENSE_LE, SENSE_GE, SENSE_EQ]),
             np.array([0.0, -1.0, 3.0])),
        ],
    )
    def test_block_equals_row_loop(self, family, sense, rhs):
        fams = [family] * 3 if isinstance(family, str) else [family[0][i] for i in family[1]]
        senses = np.broadcast_to(sense, (3,))
        rhss = np.broadcast_to(rhs, (3,))
        one = self._builder()
        for i in range(3):
            one.add(fams[i], zip(self.COLS[i].tolist(), self.VALS[i].tolist()),
                    int(senses[i]), float(rhss[i]))
        block = self._builder()
        block.add_rows(family, self.COLS, self.VALS, sense, rhs)
        got, want = self._state(block), self._state(one)
        assert got == want
        # codes are numbered in the order the rows first use each name
        assert block.build().family_names == one.build().family_names
        # zeros (and -0.0) are dropped; the repeated column 3 stays two entries
        assert got[0] == [0, 1, 1, 2, 2] and got[1] == [5, 0, 2, 3, 3]

    def test_blocks_merge_stably_by_key(self):
        """Rows land by key; rows of one key come block by block, each block's in its order."""
        first = RowBlock(np.array([2, 0, 2]), "a", self.COLS, self.VALS, SENSE_LE, np.array([1.0, 2.0, 3.0]))
        second = RowBlock(
            np.array([0, 2]), (["b1", "b2"], np.array([0, 1])), self.COLS[:2, :2], self.VALS[:2, :2], SENSE_GE, -1.0
        )
        merged = self._builder()
        merged.add_blocks([first, second])
        one = self._builder()
        for block, i in ((first, 1), (second, 0), (first, 0), (first, 2), (second, 1)):
            fam = block.family if isinstance(block.family, str) else block.family[0][block.family[1][i]]
            rhs = float(np.broadcast_to(block.rhs, (len(block.key),))[i])
            one.add(fam, zip(block.cols[i].tolist(), block.vals[i].tolist()), block.sense, rhs)
        assert self._state(merged) == self._state(one)

    def test_empty_block(self):
        b = self._builder()
        b.add_rows("none", np.zeros((0, 4), dtype=np.int64), np.zeros((0, 4)), SENSE_LE, 0.0)
        b.add("tail", [(2, 1.0)], SENSE_GE, 0.0)
        ref = self._builder()
        ref.add("tail", [(2, 1.0)], SENSE_GE, 0.0)
        assert self._state(b) == self._state(ref)


@pytest.mark.parametrize("name", ["reduced13", "toy_gear3"])
def test_index_grids_match_catalog(name):
    """Each index grid holds ``cat.col(group, key)`` at the key's position."""
    case = shipped_case(name)
    ctx = _Ctx(case, BuildOptions())
    _add_columns(ctx)
    nodes, gears = case.node_index, ctx.gear_pos
    lines = {l.index: l.index for l in case.lines}
    first = {
        "u": nodes, "volt_sq": nodes, "load_p": nodes, "load_q": nodes,
        "beta": gears, "alpha": gears, "swap": gears, "swap_event": gears, "reorder_sel": gears,
        "swap_any": gears, "angle_diff": gears, "volt_diff": gears, "inrush_mag": gears,
        "inrush_ang": gears, "inrush": gears,
        "flow_p": lines, "flow_q": lines, "curr_sq": lines,
        "y_p": ctx.bracket_pos, "y_q": ctx.bracket_pos, "y_v": ctx.bracket_pos,
    }
    assert set(ctx.grid) == set(first)
    assert ctx.bracket_pos, "the case must bracket some line"
    for group, pos in first.items():
        grid, g = ctx.grid[group], ctx.cat.group(group)
        assert grid.shape == g.shape, group
        for key in itertools.product(*g.axes):
            at = (pos[key[0]],) + key[1:]
            assert grid[at] == ctx.cat.col(group, key), (group, key)


@pytest.mark.parametrize("name", [n for n in shipped_case_names() if n != "feeder123"])
def test_root_lp_objective_unchanged(name):
    """The root LP (no cone cut) keeps its frozen objective, gate on and off.

    A model change that keeps the feasible set up to a projection keeps the
    relaxation, so every value must come back within 1e-9 relative.
    Regenerate ``data/root_lp.json`` only for an intended change of the
    relaxation, and log it::

        PYTHONPATH=src python -c "import json, sys; sys.path.insert(0, 'tests')
        from conftest import shipped_case, shipped_case_names
        from ugrestore.formulation import BuildOptions, build_model
        from ugrestore.solver import LpBackend
        json.dump({n: {str(g): LpBackend(build_model(shipped_case(n), BuildOptions(ferro_gate=g))).solve().objective
        for g in (True, False)} for n in shipped_case_names() if n != 'feeder123'},
        open('tests/data/root_lp.json', 'w'), indent=1, sort_keys=True)"
    """
    import json
    from pathlib import Path

    from ugrestore.solver import LpBackend

    with open(Path(__file__).parent / "data" / "root_lp.json") as fh:
        want = json.load(fh)[name]
    for gate in (True, False):
        res = LpBackend(build_model(shipped_case(name), BuildOptions(ferro_gate=gate))).solve()
        assert res.status == "optimal", gate
        assert res.objective == pytest.approx(want[str(gate)], rel=1e-9), gate


def _fix_all(model, fixes):
    lb = model.col_lb.copy()
    ub = model.col_ub.copy()
    for col, val in fixes.items():
        lb[col] = val
        ub[col] = val
    return lb, ub


def _lp(model, lb, ub, sense_obj=None):
    m = model.matrix().tocsr()
    le = np.flatnonzero(model.sense == SENSE_LE)
    ge = np.flatnonzero(model.sense == SENSE_GE)
    eq = np.flatnonzero(model.sense == SENSE_EQ)
    a_ub = sp.vstack([m[le], -m[ge]], format="csr")
    b_ub = np.concatenate([model.rhs[le], -model.rhs[ge]])
    a_eq = m[eq]
    b_eq = model.rhs[eq]
    c = np.zeros(model.ncols) if sense_obj is None else sense_obj
    return linprog(
        c=c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=np.column_stack((lb, ub)),
        method="highs",
    )


SCENARIOS = [
    # (prev_row, cur_row, expected_events, expected_flag)
    ([1, 0, 0], [1, 0, 0], [0, 0, 0], 0),
    ([1, 0, 0], [0, 1, 0], [0, 1, 0], 1),
    ([1, 0, 0], [0, 0, 1], [0, 0, 1], 1),
    ([1, 0, 0], [0, 0, 0], [0, 0, 0], 0),
    ([0, 0, 0], [0, 0, 0], [0, 0, 0], 0),
    ([0, 0, 0], [1, 0, 0], [1, 0, 0], 1),
    ([0, 0, 0], [0, 1, 0], [0, 1, 0], 1),
    ([0, 0, 0], [0, 0, 1], [0, 0, 1], 1),
]


class TestSwapTransition:
    """The eight connection scenarios of one feeder phase across a period."""

    def _gear_model(self):
        case = shipped_case("toy_gear3")
        return case, build_model(case)

    def _transition_rows(self, model):
        return family_rows(model, "swap-event-extract", "swap-event-or").tolist()

    @pytest.mark.parametrize("prev,cur,want_events,want_flag", SCENARIOS)
    def test_scenario_binary(self, prev, cur, want_events, want_flag):
        """Exhaustively check admissible binary tuples for one phase row."""
        case, model = self._gear_model()
        cat = model.catalog
        g = case.switchgears[0]
        rows = self._transition_rows(model)
        m = model.matrix().tocsr()[rows]
        sense = model.sense[rows]
        rhs = model.rhs[rows]
        ph = 0
        admissible_events, admissible_flags = [], []
        for events in itertools.product((0.0, 1.0), repeat=3):
            for flag in (0.0, 1.0):
                x = np.zeros(model.ncols)
                for ps in range(3):
                    x[cat.col("swap", (g.id, 0, ph, ps))] = prev[ps]
                    x[cat.col("swap", (g.id, 1, ph, ps))] = cur[ps]
                    x[cat.col("swap_event", (g.id, 1, ph, ps))] = events[ps]
                    # the t=0 rows read swap at t=0 against nothing before it
                    x[cat.col("swap_event", (g.id, 0, ph, ps))] = prev[ps]
                x[cat.col("swap_any", (g.id, 0, ph))] = 1.0 if sum(prev) else 0.0
                x[cat.col("swap_any", (g.id, 1, ph))] = flag
                ax = m @ x
                ok = np.all(
                    ((sense == SENSE_LE) & (ax <= rhs + 1e-9))
                    | ((sense == SENSE_GE) & (ax >= rhs - 1e-9))
                    | ((sense == SENSE_EQ) & (np.abs(ax - rhs) <= 1e-9))
                )
                if ok:
                    admissible_events.append(list(events))
                    admissible_flags.append(flag)
        assert admissible_events == [[float(e) for e in want_events]]
        assert admissible_flags == [float(want_flag)]

    def test_lp_pins_events(self):
        """Even the LP relaxation pins the event flags once the swap is fixed."""
        case, model = self._gear_model()
        cat = model.catalog
        g = case.switchgears[0]
        for prev, cur, want_events, want_flag in SCENARIOS:
            fixes = {}
            for ps in range(3):
                fixes[cat.col("swap", (g.id, 0, 0, ps))] = float(prev[ps])
                fixes[cat.col("swap", (g.id, 1, 0, ps))] = float(cur[ps])
            lb, ub = _fix_all(model, fixes)
            rows = self._transition_rows(model)
            sub = model.matrix().tocsr()[rows]
            sense = model.sense[rows]
            rhs = model.rhs[rows]
            a_ub = sp.vstack([sub[sense == SENSE_LE], -sub[sense == SENSE_GE]], format="csr")
            b_ub = np.concatenate([rhs[sense == SENSE_LE], -rhs[sense == SENSE_GE]])
            a_eq = sub[sense == SENSE_EQ]
            b_eq = rhs[sense == SENSE_EQ]
            c = np.zeros(model.ncols)
            for ps in range(3):
                c[cat.col("swap_event", (g.id, 1, 0, ps))] = 1.0
            res = linprog(
                c=c,
                A_ub=a_ub,
                b_ub=b_ub,
                A_eq=a_eq,
                b_eq=b_eq,
                bounds=np.column_stack((lb, ub)),
                method="highs",
            )
            assert res.status == 0
            got = [res.x[cat.col("swap_event", (g.id, 1, 0, ps))] for ps in range(3)]
            assert got == pytest.approx(want_events, abs=1e-9)


class TestSwapStructure:
    def test_exactly_permutations_or_zero(self):
        """The swap rows admit the six permutations and the zero matrix only."""
        case = shipped_case("toy_gear3")
        model = build_model(case)
        cat = model.catalog
        g = case.switchgears[0]
        swap = [cat.col("swap", (g.id, 0, ph, ps)) for ph in range(3) for ps in range(3)]
        rows = family_rows(model, "swap-col-once", "swap-row-once", "swap-open-or-full", touching=swap)
        m = model.matrix().tocsr()[rows]
        sense = model.sense[rows]
        rhs = model.rhs[rows]
        admitted = []
        for bits in itertools.product((0.0, 1.0), repeat=9):
            mat = np.array(bits).reshape(3, 3)
            for beta in (0.0, 1.0):
                x = np.zeros(model.ncols)
                for ph in range(3):
                    for ps in range(3):
                        x[cat.col("swap", (g.id, 0, ph, ps))] = mat[ph, ps]
                x[cat.col("beta", (g.id, 0))] = beta
                ax = m @ x
                ok = np.all(
                    ((sense == SENSE_LE) & (ax <= rhs + 1e-9))
                    | ((sense == SENSE_GE) & (ax >= rhs - 1e-9))
                    | ((sense == SENSE_EQ) & (np.abs(ax - rhs) <= 1e-9))
                )
                if ok:
                    admitted.append((bits, beta))
        perms = {tuple(p.flatten().tolist()) for p in PERMUTATIONS}
        expected = {(tuple([0.0] * 9), 0.0)} | {(p, 1.0) for p in perms}
        assert set(admitted) == expected


class TestQGate:
    def test_zero_capacitance_gate_free(self):
        doc = minimal_doc()
        # switchgear with a bare lateral node: no cable, no capacitance
        doc["nodes"] = [
            {"id": "s", "phases": "abc"},
            {"id": "j", "phases": "abc", "load_kw": {"a": [10.0]}},
        ]
        doc["lines"] = [
            {"from": "s", "to": "j", "length_miles": 0.0, "is_switch": True, "phases": "abc"}
        ]
        doc["switchgears"] = [
            {"id": "G", "feeder_node": "s", "lateral_node": "j", "inrush_limit_pu": 5.0, "q_max": 0.05}
        ]
        case = load_case_dict(doc)
        model = build_model(case)
        assert "ferro-gate" not in model.family_counts()
        assert "ferro-sequence" in model.family_counts()

    def test_threshold_value(self, toy_gear3):
        g = toy_gear3.switchgears[0]
        thr = gate_threshold_pu(toy_gear3, g)
        # hand inversion of the damping chain for the 0.42 mile lateral
        expect = 1.0 / (0.3 * 0.05 * math.sqrt(94.117 / 74.76e-9))
        assert thr == pytest.approx(expect, rel=1e-3)

    def test_equivalence_random_draws(self):
        rng = np.random.default_rng(123)
        disagreements = 0
        for _ in range(1000):
            c = rng.uniform(1e-8, 5e-7)
            q_max = rng.uniform(0.01, 0.3)
            zip_z = rng.uniform(0.2, 0.4)
            p_tot = rng.uniform(1e-4, 1.5)
            thr = 1.0 / (
                zip_z * q_max * math.sqrt((1.0 / ((2 * math.pi * 60.0) ** 2 * c)) / c)
            )
            linear_ok = p_tot >= thr
            physics_ok = q_factor_from_load(c, p_tot, zip_z) <= q_max
            if linear_ok != physics_ok:
                disagreements += 1
        assert disagreements == 0

    def test_sequencing_row_semantics(self, toy_gear3):
        model = build_model(toy_gear3)
        cat = model.catalog
        g = toy_gear3.switchgears[0]
        (row,) = family_rows(model, "ferro-sequence", touching=[cat.col("alpha", (g.id, 1))])
        m = model.matrix().tocsr()[[row]]
        # already closed: staying closed needs no new energize flag
        x = np.zeros(model.ncols)
        x[cat.col("beta", (g.id, 0))] = 1.0
        x[cat.col("beta", (g.id, 1))] = 1.0
        assert (m @ x)[0] >= model.rhs[row] - 1e-12
        # closing fresh requires the flag
        x = np.zeros(model.ncols)
        x[cat.col("beta", (g.id, 1))] = 1.0
        assert (m @ x)[0] < model.rhs[row]
        x[cat.col("alpha", (g.id, 1))] = 1.0
        assert (m @ x)[0] >= model.rhs[row] - 1e-12


class TestChanceConstraint:
    def test_neutral_confidence_limit(self):
        # confidence -> 0.5 from above leaves the forecast untouched
        assert derated_multiplier(0.3, 0.5 + 1e-12) == pytest.approx(1.0, abs=1e-6)

    def test_derate_value(self):
        got = derated_multiplier(0.2, 0.9)
        assert got == pytest.approx(1.0 + 0.2 * normal_quantile(0.1), rel=1e-12)
        assert got == pytest.approx(0.74369, abs=1e-5)

    def test_clamped_to_zero(self):
        assert derated_multiplier(0.6, 0.975) == 0.0
        raw = 1.0 - 0.6 * 1.959964
        assert raw == pytest.approx(-0.17598, abs=1e-5)

    def test_monotone_in_sigma_and_confidence(self):
        taus = np.linspace(0.51, 0.99, 25)
        sigmas = np.linspace(0.0, 1.0, 25)
        for s_lo, s_hi in zip(sigmas, sigmas[1:]):
            assert derated_multiplier(s_hi, 0.9) <= derated_multiplier(s_lo, 0.9) + 1e-12
        for t_lo, t_hi in zip(taus, taus[1:]):
            assert derated_multiplier(0.3, t_hi) <= derated_multiplier(0.3, t_lo) + 1e-12

    def test_res_bound_rows(self, toy_pv):
        """The chance constraint is the res_p and res_q bounds, repeated in no row."""
        model = build_model(toy_pv)
        cat = model.catalog
        mult = derated_multiplier(0.2, 0.9)
        col = cat.col("res_p", (0, 0, 0))
        # forecast 30 kW on a 1 MVA base
        assert model.col_ub[col] == pytest.approx(0.03 * mult)
        assert toy_pv.res_units
        for r, unit in enumerate(toy_pv.res_units):
            derate = derated_multiplier(unit.sigma, unit.confidence)
            for t in range(toy_pv.horizon):
                for ph in range(3):
                    p = cat.col("res_p", (r, t, ph))
                    q = cat.col("res_q", (r, t, ph))
                    rating = float(unit.reactive_max_pu[ph])
                    assert model.col_lb[p] == 0.0
                    assert model.col_ub[p] == float(unit.forecast_pu[t, ph]) * derate
                    assert (model.col_lb[q], model.col_ub[q]) == (-rating, rating)
        # a source's coverage of its own microgrid is a fixed column, not a row
        for k, e in enumerate(toy_pv.ess_units):
            u = cat.col("u", (e.node, k))
            assert model.col_lb[u] == model.col_ub[u] == 1.0
        families = set(model.family_counts())
        assert not {f for f in families if f.startswith("res-")}
        assert "coverage-root" not in families


class TestBigM:
    def test_voltage_diff_bound(self):
        doc = minimal_doc()
        doc["config"]["v_max_sq"] = 1.21
        doc["config"]["v_min_sq"] = 0.81
        case = load_case_dict(doc)
        assert bigm.voltage_diff_bound(case) == pytest.approx(0.5 * 1.21 + 0.1745, abs=1e-3)

    def test_reorder_row_sum_bound(self):
        coeff = np.array([[0.5, 0.0], [0.1, 0.3]])
        assert bigm.reorder_power_bracket(coeff, 4.0) == pytest.approx(6.0)


class TestLinearizedProducts:
    def _mini_lnc(self, z, amp_sq=1.0):
        """Standalone bracket system for one line and one selector block."""
        from ugrestore.catalog import VariableCatalog
        from ugrestore.model import ModelBuilder

        cat = VariableCatalog()
        cat.add_group("swap", range(3), range(3), binary=True)
        cat.add_group("zeta", list(range(6)), binary=True)
        cat.add_group("curr", list(range(3)), lb=0.0, ub=amp_sq)
        variants = [p @ z @ p.T for p in PERMUTATIONS]
        stack = np.stack([v.real for v in variants])
        lo = 3.0 * min(0.0, float(stack.min())) * amp_sq
        hi = 3.0 * max(0.0, float(stack.max())) * amp_sq
        cat.add_group("y", list(range(3)), lb=lo, ub=hi)
        b = ModelBuilder(cat)
        m_p = bigm.reorder_power_bracket(stack, amp_sq)
        for v in range(6):
            zc = cat.col("zeta", v)
            for ph in range(3):
                for ps in range(3):
                    if PERMUTATIONS[v][ph, ps] == 0.0:
                        b.add(
                            "reorder-select",
                            [(zc, 1.0), (cat.col("swap", (ph, ps)), -1.0)],
                            SENSE_GE,
                            0.0,
                        )
            for ph in range(3):
                terms = [(cat.col("curr", ps), -float(variants[v].real[ph, ps])) for ps in range(3)]
                b.add("ub", [(cat.col("y", ph), 1.0)] + terms + [(zc, -m_p)], SENSE_LE, 0.0)
                b.add("lb", [(cat.col("y", ph), 1.0)] + terms + [(zc, m_p)], SENSE_GE, 0.0)
        b.add("pick", [(cat.col("zeta", v), 1.0) for v in range(6)], SENSE_LE, 5.0)
        return cat, b.build({}), variants

    def test_identity_selection(self):
        z = np.array([[0.3, 0.05, 0.04], [0.05, 0.28, 0.06], [0.04, 0.06, 0.32]]) * (1 + 0.5j)
        cat, model, variants = self._mini_lnc(z)
        curr = np.array([0.4, 0.7, 0.2])
        fixes = {}
        for ph in range(3):
            for ps in range(3):
                fixes[cat.col("swap", (ph, ps))] = 1.0 if ph == ps else 0.0
        for i, c in enumerate(curr):
            fixes[cat.col("curr", i)] = c
        lb, ub = _fix_all(model, fixes)
        res = _lp(model, lb, ub)
        assert res.status == 0
        zeta = [res.x[cat.col("zeta", v)] for v in range(6)]
        assert zeta[0] == pytest.approx(0.0, abs=1e-9)
        y = np.array([res.x[cat.col("y", ph)] for ph in range(3)])
        assert y == pytest.approx(variants[0].real @ curr, abs=1e-9)

    @pytest.mark.parametrize("v_star", range(6))
    def test_each_variant_pins_its_product(self, v_star):
        rng = np.random.default_rng(v_star)
        raw = rng.uniform(0.05, 0.4, size=(3, 3))
        z = ((raw + raw.T) / 2) * (1 + 1j)
        cat, model, variants = self._mini_lnc(z)
        curr = rng.uniform(0.0, 1.0, size=3)
        fixes = {}
        for ph in range(3):
            for ps in range(3):
                fixes[cat.col("swap", (ph, ps))] = float(PERMUTATIONS[v_star][ph, ps])
        for i, c in enumerate(curr):
            fixes[cat.col("curr", i)] = float(c)
        lb, ub = _fix_all(model, fixes)
        # selector feasibility: only v_star can stay selected
        res = _lp(model, lb, ub)
        assert res.status == 0
        assert res.x[cat.col("zeta", v_star)] == pytest.approx(0.0, abs=1e-9)
        y = np.array([res.x[cat.col("y", ph)] for ph in range(3)])
        assert y == pytest.approx(variants[v_star].real @ curr, abs=1e-8)

    def test_bracket_admits_exactly_selected_product(self):
        """LP feasibility over y: the bracket pins y to the selected product."""
        rng = np.random.default_rng(42)
        raw = rng.uniform(0.05, 0.4, size=(3, 3))
        z = ((raw + raw.T) / 2) * (1 + 1j)
        cat, model, variants = self._mini_lnc(z)
        for v_star in range(6):
            for trial in range(3):
                curr = rng.uniform(0.0, 1.0, size=3)
                fixes = {}
                for ph in range(3):
                    for ps in range(3):
                        fixes[cat.col("swap", (ph, ps))] = float(PERMUTATIONS[v_star][ph, ps])
                for v in range(6):
                    fixes[cat.col("zeta", v)] = 0.0 if v == v_star else 1.0
                for i, c in enumerate(curr):
                    fixes[cat.col("curr", i)] = float(c)
                lb, ub = _fix_all(model, fixes)
                want = variants[v_star].real @ curr
                for ph in range(3):
                    c = np.zeros(model.ncols)
                    c[cat.col("y", ph)] = 1.0
                    lo = _lp(model, lb, ub, c)
                    hi = _lp(model, lb, ub, -c)
                    assert lo.status == 0 and hi.status == 0
                    assert lo.x[cat.col("y", ph)] == pytest.approx(want[ph], abs=1e-8)
                    assert hi.x[cat.col("y", ph)] == pytest.approx(want[ph], abs=1e-8)


def _balanced_gear3():
    """``toy_gear3`` with its lateral a balanced three-phase cable.

    Equal self and equal mutual impedances make all six reorderings of the
    lateral's coefficients the same matrix.
    """
    doc = shipped_doc("toy_gear3")
    for node in doc["nodes"]:
        if node["id"] == "l1":
            node["phases"] = "abc"
    (line,) = [ln for ln in doc["lines"] if ln["to"] == "l1"]
    line["impedance_pu"] = {
        key: [0.02268, 0.01148] if key[0] == key[1] else [0.0091, 0.0046]
        for key in ("aa", "ab", "ac", "bb", "bc", "cc")
    }
    return load_case_dict(doc)


class TestFixedReorderDifferential:
    """Bracket encoding equals direct substitution once binaries are pinned."""

    def test_gear_toy_all_variants(self):
        self._default_matches_fixed(shipped_case("toy_gear3"))

    def test_balanced_lateral_all_variants(self):
        self._default_matches_fixed(_balanced_gear3())

    def test_balanced_lateral_is_not_bracketed(self):
        model = build_model(_balanced_gear3())
        cat, families = model.catalog, model.family_counts()
        assert [cat.group(name).size for name in ("y_p", "y_q", "y_v")] == [0, 0, 0]
        assert not [f for f in families if f.startswith("reorder-bracket")]
        # the warm start still pins the selectors
        assert cat.group("reorder_sel").size == 12
        assert families["reorder-pick-one"] == 2

    @staticmethod
    def _default_matches_fixed(case):
        from ugrestore.solver import warmstart as W
        from ugrestore.solver.lp import LpBackend

        for v_star in range(6):
            perm = PERMUTATIONS[v_star]
            schedule = {
                "G1": (
                    [1, 1],
                    0,
                    [perm.copy(), perm.copy()],
                )
            }
            vals = []
            for fixed in (None, {"G1": v_star}):
                model = build_model(case, BuildOptions(fixed_reorder=fixed))
                fixes = W._structural_fixes(model, case, schedule)
                assert fixes is not None
                x = W._resolve(model, LpBackend(model), fixes, _opts())
                assert x is not None, f"variant {v_star} infeasible"
                vals.append(model.objective_value(x))
            assert vals[0] == pytest.approx(vals[1], abs=2e-8)


def _opts():
    from ugrestore.solver import SolverOptions

    return SolverOptions(oa_tol=1e-10)


class TestOrientation:
    def test_bfs_parents(self, toy_pv):
        o = orient_from(toy_pv, "s")
        assert o.parent_node["n1"] == "s"
        assert o.parent_node["n2"] == "n1"
        assert o.order[0] == "s"

    def test_hat_matrices_reduce_to_classic(self):
        z = np.diag([0.3 + 0.6j, 0.3 + 0.6j, 0.3 + 0.6j])
        r_hat, x_hat, z_hat = hat_matrices(z, True)
        assert np.allclose(np.diag(r_hat), 0.3)
        assert np.allclose(np.diag(x_hat), 0.6)
        assert np.allclose(np.diag(z_hat), -(0.3**2 + 0.6**2))


@dataclass(frozen=True)
class _GuardRows:
    """One switchgear's inrush rows at one (period, phase), read from a model."""

    coef: float  # inrush per unit of linearized step (inrush-def)
    rating: float  # inrush_limit_pu (inrush-limit rhs)
    c_mag: float  # inrush_mag coefficient of the joint inrush-guard row
    c_ang: float  # inrush_ang coefficient of the joint inrush-guard row
    cap: float  # rhs of the joint inrush-guard row
    v_t: float  # trapped voltage magnitude on the lateral side
    v_lo: float
    v_hi: float
    window: float

    def step(self, v_f: float, theta: float) -> float:
        return squared_voltage_difference(
            SwitchingPoint(v_f * v_f, self.v_t * self.v_t, theta), self.window
        )

    def plain_admits(self, v_f: float, theta: float) -> bool:
        return abs(self.coef * self.step(v_f, theta)) <= self.rating

    def guard_admits(self, v_f: float, theta: float) -> bool:
        # smallest inrush_mag / inrush_ang the closing-event rows allow
        s_mag = abs(self.step(v_f, 0.0))
        s_ang = abs(theta)
        return self.c_mag * s_mag + self.c_ang * s_ang <= self.cap

    def exact_inrush(self, v_f: float, theta: float) -> float:
        return self.coef * exact_phasor_difference(v_f, theta, self.v_t, 0.0)


def _guard_rows(case, gear_id: str, t: int = 0, ph: int = 0) -> _GuardRows:
    model = build_model(case)
    cat, a = model.catalog, model.matrix()
    # every inrush row of (gear_id, t, ph) has one of these columns, and no other inrush row has
    at = [cat.col(name, (gear_id, t, ph)) for name in ("volt_diff", "inrush", "inrush_mag", "inrush_ang")]
    inrush = [name for name in model.family_names if name.startswith("inrush")]
    rows: dict[str, list[tuple[int, float, dict[str, float]]]] = {}
    for i in family_rows(model, *inrush, touching=at).tolist():
        row = a.getrow(i)
        terms = {cat.name_of(int(c)).split("[")[0]: float(v) for c, v in zip(row.indices, row.data)}
        fam = model.family_names[model.family[i]]
        rows.setdefault(fam, []).append((int(model.sense[i]), float(model.rhs[i]), terms))
    (_, _, definition), = rows["inrush-def"]
    (_, cap, joint), = [r for r in rows["inrush-guard"] if r[0] == SENSE_LE]
    rating = {rhs for _, rhs, _ in rows["inrush-limit"]}
    assert len(rating) == 1
    g = next(g for g in case.switchgears if g.id == gear_id)
    cfg = case.config
    return _GuardRows(
        coef=-definition["volt_diff"],
        rating=rating.pop(),
        c_mag=joint.get("inrush_mag", 0.0),
        c_ang=joint.get("inrush_ang", 0.0),
        cap=cap,
        v_t=math.sqrt(float(g.trapped_v_sq[ph])),
        v_lo=math.sqrt(cfg.v_min_sq),
        v_hi=math.sqrt(cfg.v_max_sq),
        window=cfg.angle_window_rad,
    )


@pytest.fixture(scope="module")
def gb_guard(reduced13):
    return _guard_rows(reduced13, "GB")


_unit = st.floats(0.0, 1.0)


class TestInrushGuard:
    """The joint ``inrush-guard`` cap against the exact phasor step.

    Switchgear ``GB`` of ``reduced13`` is rated for a voltage step of about
    0.087 p.u., small enough for a magnitude/angle cancellation to break the
    validator's ``inrush-exact-bracket`` (exact inrush at most sqrt(2) times
    the rating) inside the validity domain of the linearized step.
    """

    def test_rows_read(self, gb_guard):
        assert gb_guard.rating / gb_guard.coef == pytest.approx(0.087, abs=1e-3)
        assert gb_guard.cap == pytest.approx(math.sqrt(2.0) * gb_guard.rating)
        assert gb_guard.c_mag > 0.0 and gb_guard.c_ang > 0.0
        # inside the validity domain stated by encode_inrush_gate
        assert gb_guard.v_lo <= gb_guard.v_t <= gb_guard.v_hi <= math.sqrt(2.0)
        assert gb_guard.v_lo + gb_guard.v_t >= math.sqrt(2.0)

    @given(u=_unit, s=_unit)
    @example(u=0.0, s=1.0)
    @example(u=1.0, s=0.0)
    @settings(max_examples=400, deadline=None)
    def test_admitted_steps_inside_exact_bracket(self, gb_guard, u, s):
        g = gb_guard
        v_f = g.v_lo + u * (g.v_hi - g.v_lo)
        theta = (2.0 * s - 1.0) * g.window
        if g.plain_admits(v_f, theta) and g.guard_admits(v_f, theta):
            assert g.exact_inrush(v_f, theta) <= math.sqrt(2.0) * g.rating + 1e-12

    @given(u=_unit, s=_unit, sign=st.sampled_from([1.0, -1.0]))
    @settings(max_examples=400, deadline=None)
    def test_same_sign_plain_limit_implies_guard(self, gb_guard, u, s, sign):
        g = gb_guard
        # magnitude and angle parts share a sign: no cancellation to guard
        v_f = g.v_t + u * ((g.v_hi if sign > 0 else g.v_lo) - g.v_t)
        theta = sign * s * g.window
        if g.plain_admits(v_f, theta):
            assert g.guard_admits(v_f, theta)

    def test_grid_sweep(self, gb_guard):
        g = gb_guard
        admitted = same_sign = 0
        for v_f in np.linspace(g.v_lo, g.v_hi, 41):
            for theta in np.linspace(-g.window, g.window, 81):
                plain, guard = g.plain_admits(v_f, theta), g.guard_admits(v_f, theta)
                if plain and guard:
                    admitted += 1
                    assert g.exact_inrush(v_f, theta) <= math.sqrt(2.0) * g.rating + 1e-12
                if plain and (v_f - g.v_t) * theta >= 0.0:
                    same_sign += 1
                    assert guard, (v_f, theta)
        assert admitted > 0 and same_sign > 0

    def test_guard_rejects_cancelling_step(self, gb_guard):
        g = gb_guard
        # the largest magnitude part, cancelled by an opposite angle that
        # leaves 99% of the plain limit's step budget
        v_f = g.v_hi
        theta = -(g.step(v_f, 0.0) + 0.99 * g.rating / g.coef)
        assert abs(theta) <= g.window
        assert g.plain_admits(v_f, theta)
        assert not g.guard_admits(v_f, theta)
        slack = g.coef * BRACKET_SLACK + LINEAR_TOL
        assert g.exact_inrush(v_f, theta) > math.sqrt(2.0) * g.rating + slack

    def test_low_trapped_voltage_breaks_the_guard(self, reduced13):
        # built past the loader, GB at trapped 0 with a rating of 11.56 admits the
        # step V_f = 1, theta = 0, whose exact inrush is about twice the rating:
        # v_min + sqrt(trapped) < sqrt(2), so the sqrt(2) clamp on f_mag bites
        case = copy.deepcopy(reduced13)
        gear = next(g for g in case.switchgears if g.id == "GB")
        gear.trapped_v_sq = np.zeros(3)
        gear.inrush_limit_pu = 11.56
        g = _guard_rows(case, "GB")
        assert g.v_lo + g.v_t < math.sqrt(2.0)
        assert g.plain_admits(1.0, 0.0) and g.guard_admits(1.0, 0.0)
        assert g.exact_inrush(1.0, 0.0) / g.rating == pytest.approx(1.9985, abs=1e-4)

    def test_low_trapped_voltage_is_refused_at_load(self):
        doc = shipped_doc("reduced13")
        gear = next(sg for sg in doc["switchgears"] if sg["id"] == "GB")
        gear["trapped_voltage_sq"] = 0.0
        gear["inrush_limit_pu"] = 11.56
        with pytest.raises(CaseInvariantError, match="switchgear 'GB'.*trapped_voltage_sq"):
            load_case_dict(doc)


@pytest.fixture(scope="module")
def feeder123():
    """The shipped structural case and its model, built once for the slow tests."""
    case = shipped_case("feeder123")
    return case, build_model(case)


@pytest.mark.slow
class TestStructuralSmoke:
    def test_feeder123_builds(self, feeder123):
        case, model = feeder123
        counts = model.family_counts()
        assert model.ncols > 100_000
        assert counts["balance-p"] == counts["balance-q"]
        assert counts["cone"] > 0
        # frozen structural fingerprint of the shipped case
        assert len(case.nodes) == 123
        assert counts["swap-open-or-full"] == 14 * 24
        assert counts["ferro-sequence"] == 14 * 24
        assert counts["tree-count"] == 1
        got, snapshot = structural_counts(model), snapshot_123()
        # a drift names the row family or column group that moved
        assert got["families"] == snapshot["families"]
        assert got["columns"] == snapshot["columns"]
        assert got["fingerprint"] == snapshot["fingerprint"]

    def test_feeder123_export_bytes_unchanged(self, feeder123, tmp_path):
        check_export_bytes("feeder123", feeder123[1], tmp_path)

    def test_feeder123_row_tags_unchanged(self, feeder123):
        check_row_metadata("feeder123", feeder123[1])


def structural_counts(model) -> dict:
    """Per-family rows and cones, per-group columns and the size fingerprint."""
    cat = model.catalog
    return {
        "families": model.family_counts(),
        "columns": {name: cat.group(name).size for name in cat.group_names},
        "fingerprint": [model.ncols, model.nrows, len(model.cones)],
    }


def snapshot_123() -> dict:
    """Frozen structural counts for the shipped structural case.

    Regenerate ``data/feeder123_counts.json`` only for an intended model
    change, and log the per-family and per-group diff::

        PYTHONPATH=src python -c "import json, sys; sys.path.insert(0, 'tests');
        from test_formulation import structural_counts, shipped_case, build_model;
        json.dump(structural_counts(build_model(shipped_case('feeder123'))),
        open('tests/data/feeder123_counts.json', 'w'), indent=1, sort_keys=True)"
    """
    import json
    from pathlib import Path

    path = Path(__file__).parent / "data" / "feeder123_counts.json"
    with open(path) as fh:
        return json.load(fh)


# -- dead pairs ----------------------------------------------------------------

BUILDS = {"default": BuildOptions(), "no-gate": BuildOptions(ferro_gate=False), "no-swap": BuildOptions(no_swap=True)}
# the power flow rows and cones of one (node, microgrid) pair or of the line into it
PAIR_FAMILIES = {
    "balance-p", "balance-q", "volt-drop", "cone", "ess-line-p-lim", "ess-line-q-lim", "current-lim",
    "volt-cover", "reorder-bracket-p", "reorder-bracket-q", "reorder-bracket-v",
}


def _dead_map(case) -> np.ndarray:
    return dead_pairs(case, [orient_from(case, e.node) for e in case.ess_units])


def _cited_rows(model):
    """``model`` over only the rows that :func:`dead_pairs` cites, with no cone."""
    rows = family_rows(model, "coverage-unique", "coverage-parent", "wire-consistent")
    a = model.matrix()[rows].tocoo()
    return replace(
        model, coo_r=a.row.astype(np.int64), coo_c=a.col.astype(np.int64), coo_v=a.data,
        sense=model.sense[rows], rhs=model.rhs[rows], family=model.family[rows], cones=model.cones[:0],
        _matrix=None,
    )


def _dead_pair_columns(case, model) -> set[int]:
    """Every column of a dead (node, k) and of a line of ``orient[k]`` into one, by catalog key."""
    cat, dead, T = model.catalog, _dead_map(case), case.horizon
    tp = list(itertools.product(range(T), range(3)))
    cols = set()
    for n, k in zip(*np.nonzero(dead)):
        nid = case.nodes[n].id
        cols.add(cat.col("u", (nid, k)))
        cols.update(cat.col("volt_sq", (nid, k, t, ph)) for t, ph in tp)
        o = orient_from(case, case.ess_units[k].node)
        line = o.parent_line.get(nid)
        if line is None:
            continue
        for name in ("flow_p", "flow_q", "curr_sq", "y_p", "y_q", "y_v"):
            if line in cat.group(name).axes[0]:
                cols.update(cat.col(name, (line, k, t, ph)) for t, ph in tp)
    return cols


class TestDeadPairs:
    """The (node, microgrid) pairs that the case's topology rules out carry no power flow."""

    @pytest.mark.parametrize("build", list(BUILDS))
    @pytest.mark.parametrize("name", shipped_case_names())
    def test_each_dead_coverage_pinned_at_one_is_refuted(self, name, build):
        """Pinned at 1, a dead ``u[n, k]`` makes ``restrict`` prove the bounds inconsistent.

        On ``feeder123`` only over the rows the map cites: the full model's
        restriction takes a few tenths of a second per pin, over 217 pins.
        """
        case = shipped_case(name)
        model = build_model(case, BUILDS[build])
        dead = _dead_map(case)
        assert dead.any() == (len(case.ess_units) > 1)
        proofs = [_cited_rows(model)] + ([model] if name != "feeder123" else [])
        for n, k in zip(*np.nonzero(dead)):
            col = model.catalog.col("u", (case.nodes[n].id, k))
            assert model.col_lb[col] == model.col_ub[col] == 0.0
            for proof in proofs:
                lb, ub = proof.col_lb.copy(), proof.col_ub.copy()
                lb[col] = ub[col] = 1.0
                got = proof.restrict(lb, ub)
                # the whole-model fallback of bounds proven inconsistent
                assert got.model.nrows == proof.nrows and got.keep.size == proof.ncols, (n, k)
                assert np.array_equal(got.col_lb, lb) and np.array_equal(got.col_ub, ub)

    @pytest.mark.parametrize("name", shipped_case_names())
    def test_only_dead_pair_columns_and_rows_go(self, name, monkeypatch):
        """The map fixes at 0 exactly the columns of its pairs not fixed before, and drops only their rows."""
        import ugrestore.formulation as formulation

        case = shipped_case(name)
        model = build_model(case)
        monkeypatch.setattr(formulation, "dead_pairs", lambda case, orient: np.zeros((len(case.nodes), len(orient)), bool))
        before = build_model(case)
        fixed, was = model.col_lb == model.col_ub, before.col_lb == before.col_ub
        assert np.array_equal(model.col_lb[was], before.col_lb[was]) and np.all(fixed[was])
        newly = set(np.flatnonzero(fixed & ~was).tolist())
        assert newly == _dead_pair_columns(case, model) - set(np.flatnonzero(was).tolist())
        assert np.all(model.col_lb[list(newly)] == 0.0)
        assert newly or len(case.ess_units) == 1
        got, want = model.family_counts(), before.family_counts()
        assert {f for f in want if got.get(f, 0) != want[f]} <= PAIR_FAMILIES
        assert all(got.get(f, 0) <= want[f] for f in want) and set(got) <= set(want)

    def test_a_source_never_dies_for_its_own_microgrid(self):
        """Sources wired together: the rows refute the case, and the map leaves each source's u = 1 for an LP to find."""
        doc = shipped_doc("toy_fork")
        for line in doc["lines"]:
            line["is_switch"] = False
        case = load_case_dict(doc)
        model = build_model(case)
        assert _dead_map(case).tolist() == [[False, True], [True, False], [True, True]]
        for k, e in enumerate(case.ess_units):
            col = model.catalog.col("u", (e.node, k))
            assert model.col_lb[col] == model.col_ub[col] == 1.0

    @pytest.mark.parametrize("build", list(BUILDS))
    @pytest.mark.parametrize("name, objective", [("toy_fork", 0.1995), ("rad_tworoot5", 0.0)])
    def test_multi_source_plans_keep_status_and_objective(self, name, objective, build, tmp_path):
        """The two small multi-source cases solve as before, and the plan keeps every pair's entries."""
        from ugrestore.plan import RestorationPlan
        from ugrestore.solver import SolverOptions, greedy_warm_start, solve

        case = shipped_case(name)
        model = build_model(case, BUILDS[build])
        ws = greedy_warm_start(model, case)
        sol = solve(model, SolverOptions(), warm_start=ws, warm_start_source="greedy")
        assert sol.status == "optimal" and sol.objective == pytest.approx(objective, abs=1e-12)
        plan = RestorationPlan.from_solution(model, sol.x, status=sol.status, gap=sol.gap)
        plan.save(tmp_path / "plan.json")
        back = RestorationPlan.load(tmp_path / "plan.json")
        N, K, L, T = len(case.nodes), len(case.ess_units), len(case.lines), case.horizon
        sizes = {"u": N * K, "volt_sq": N * K * T * 3, "flow_p": L * K * T * 3, "curr_sq": L * K * T * 3}
        assert {g: len(back.groups[g]) for g in sizes} == sizes
        assert np.array_equal(back.to_vector(model), sol.x)
        dead = _dead_pair_columns(case, model)
        assert dead and np.all(sol.x[list(dead)] == 0.0)
