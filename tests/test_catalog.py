"""The column catalog: groups as products of labelled axes, their names and the name map."""

import itertools
import json
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import GOLDEN_PLAN, shipped_case, shipped_case_names, shipped_doc, solved_plan_digest
from ugrestore.catalog import CatalogError, VariableCatalog
from ugrestore.feeder import load_case_dict
from ugrestore.formulation import BuildOptions, build_model
from ugrestore.plan import PlanError, RestorationPlan
from ugrestore.solver import mps

BUILDS = {"default": BuildOptions(), "no-gate": BuildOptions(ferro_gate=False), "no-swap": BuildOptions(no_swap=True)}


@pytest.fixture(
    scope="module",
    params=[(n, b) for n in shipped_case_names() for b in BUILDS],
    ids=lambda p: f"{p[0]}-{p[1]}",
)
def catalog(request):
    name, build = request.param
    return build_model(shipped_case(name), BUILDS[build]).catalog


def _names(cat) -> list[str]:
    return [cat.name_of(c) for c in range(cat.ncols)]


class TestShippedCatalogs:
    """Every shipped case under the default, no-gate and no-swap builds."""

    def test_every_name_reads_back_to_its_column(self, catalog):
        assert [catalog.lookup(n) for n in _names(catalog)] == list(range(catalog.ncols))

    def test_a_key_sits_at_its_place_in_the_product_of_the_axes(self, catalog):
        end = 0
        for name in catalog.group_names:
            g = catalog.group(name)
            assert g.start == end, name
            keys = itertools.product(*g.axes) if len(g.axes) > 1 else g.axes[0]
            assert [catalog.col(name, key) for key in keys] == list(range(g.start, g.start + g.size)), name
            end += g.size
        assert end == catalog.ncols

    def test_the_name_map_joins_the_names(self, catalog):
        model = SimpleNamespace(catalog=catalog, ncols=catalog.ncols)
        want = "".join(f"C{c:07d} {n}\n" for c, n in enumerate(_names(catalog)))
        assert b"".join(mps._name_map_parts(model)) == f"{mps.NAMEMAP_HEADER}\n{want}".encode()

    def test_a_repeated_label_on_one_axis_is_refused(self, catalog):
        for name in catalog.group_names:
            axes = catalog.group(name).axes
            for i, axis in enumerate(axes):
                if axis:
                    repeated = axes[:i] + (axis + axis[-1:],) + axes[i + 1 :]
                    with pytest.raises(CatalogError, match="repeats"):
                        VariableCatalog().add_group(name, *repeated)


class TestNames:
    def test_ids_of_digits_read_back(self):
        """A node id made only of digits is matched as text against the node axis, not as a number."""
        doc = json.loads(json.dumps(shipped_doc("toy_fork")).replace('"n1"', '"7"'))
        case = load_case_dict(doc)
        assert [n.id for n in case.nodes] == ["r1", "r2", "7"]
        for build in BUILDS.values():
            cat = build_model(case, build).catalog
            assert [cat.lookup(n) for n in _names(cat)] == list(range(cat.ncols))
            assert cat.lookup("u[7,0]") == cat.col("u", ("7", 0))

    def test_each_part_is_matched_on_its_own_axis(self):
        cat = VariableCatalog()
        cat.add_group("a", ["1", "2"], [1, 2])
        assert cat.name_of(1) == "a[1,2]"
        assert cat.lookup("a[1,2]") == cat.col("a", ("1", 2)) == 1
        for key in (("1", "2"), (1, 2), ("1",), "1"):
            with pytest.raises(CatalogError, match="no column"):
                cat.col("a", key)

    @pytest.mark.parametrize("name", ["a", "a[1]", "a[1,2,1]", "a[3,1]", "a[1,]", "b[1]", "a[1 ,1]"])
    def test_a_name_of_no_column_is_refused(self, name):
        cat = VariableCatalog()
        cat.add_group("a", ["1", "2"], [1, 2])
        with pytest.raises(CatalogError):
            cat.lookup(name)

    @pytest.mark.parametrize("label", ["", "a,b", "[", "]", " ", "a b", "\t", "\n", "\x00", "a\x00", "\x7f", "\x85", "\u2003"])
    def test_labels_a_name_cannot_carry_are_refused(self, label):
        with pytest.raises(CatalogError, match="cannot be part of a column name"):
            VariableCatalog().add_group("a", [0], ["ok", label])

    def test_empty_groups_are_skipped(self):
        cat = VariableCatalog()
        cat.add_group("a", [0, 1])
        cat.add_group("empty", [], range(3))
        cat.add_group("b", ["x"], [2])
        cat.add_group("tail", range(2), [])
        assert _names(cat) == ["a[0]", "a[1]", "b[x,2]"]
        for col in (-1, 3):
            with pytest.raises(CatalogError, match="out of range"):
                cat.name_of(col)

    def test_bounds_broadcast_to_the_shape(self):
        cat = VariableCatalog()
        cat.add_group("a", range(2), range(3), lb=[[1.0], [2.0]], ub=np.arange(6.0))
        cat.add_group("b", range(2), lb=-1.0)
        lb, ub, binary = cat.finalize()
        assert lb.tolist() == [1.0] * 3 + [2.0] * 3 + [-1.0] * 2
        assert ub.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 1.0, 1.0]
        assert not binary.any()


class TestPlan:
    def test_reduced13_plan_bytes_unchanged(self, tmp_path):
        assert solved_plan_digest(tmp_path) == json.loads(GOLDEN_PLAN.read_text())["reduced13"]

    def test_entries_read_back_through_the_axes(self):
        model = build_model(shipped_case("toy_gear3"))
        x = np.arange(model.ncols, dtype=float)
        plan = RestorationPlan.from_solution(model, x, status="feasible", gap=np.inf)
        g = model.catalog.group("u")
        assert plan.groups["u"] == [[*key, float(g.start + i)] for i, key in enumerate(itertools.product(*g.axes))]
        assert np.array_equal(plan.to_vector(model), x)
        plan.groups["u"] = plan.groups["u"][::-1]  # entries in any order
        assert np.array_equal(plan.to_vector(model), x)

    @pytest.mark.parametrize(
        "entry, message",
        [(["nowhere", 0, 1.0], "u: no column for key ('nowhere', 0)"), ([0, 1.0], "u: no column for key 0"),
         ([[0], 0, 1.0], "u: no column for key ([0], 0)")],
    )  # fmt: skip
    def test_an_entry_of_no_column_is_refused(self, entry, message):
        model = build_model(shipped_case("toy_pair"))
        plan = RestorationPlan.from_solution(model, model.col_lb, status="feasible", gap=np.inf)
        plan.groups["u"].append(entry)
        with pytest.raises(PlanError) as err:
            plan.to_vector(model)
        assert str(err.value) == message
