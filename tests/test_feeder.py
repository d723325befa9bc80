import json
import math
import re

import numpy as np
import pytest

from conftest import load_minimal, minimal_doc, shipped_case, shipped_case_names, shipped_doc
from ugrestore.feeder import (
    CaseInvariantError,
    CaseSchemaError,
    case_to_dict,
    derive_downstream_sets,
    equivalent_capacitance,
    load_case,
    load_case_dict,
    save_case,
    validate_schema,
)


class TestLoadCase:
    def test_minimal_case(self):
        case = load_minimal()
        assert len(case.nodes) == 2
        assert len(case.lines) == 1
        assert case.horizon == 1

    def test_unknown_node_named(self):
        doc = minimal_doc()
        doc["lines"][0]["to"] = "n99"
        with pytest.raises(CaseSchemaError, match="n99"):
            load_case_dict(doc)

    def test_unknown_key_rejected(self):
        doc = minimal_doc()
        doc["surprise"] = 1
        with pytest.raises(CaseSchemaError, match="surprise"):
            load_case_dict(doc)

    def test_negative_voltage_difference_cap_rejected(self):
        doc = minimal_doc()
        doc["config"]["delta_v_max_pu"] = -0.01
        with pytest.raises(CaseSchemaError, match="delta_v_max_pu"):
            load_case_dict(doc)
        doc["config"]["delta_v_max_pu"] = 0
        assert load_case_dict(doc).config.delta_v_max_pu == 0

    def test_missing_file(self, tmp_path):
        from ugrestore.feeder import CaseError

        with pytest.raises(CaseError):
            load_case(tmp_path / "nope.json")

    def test_shipped_123_style_counts(self):
        case = shipped_case("feeder123")
        assert len(case.nodes) == 123
        assert len(case.switchgears) == 14
        # sectionalizing and tie switches, not switchgear couplings
        couplings = case.coupling_line_indices
        assert sum(l.is_switch and l.index not in couplings for l in case.lines) == 5
        assert len(case.ess_units) == 3
        kinds = [r.kind for r in case.res_units]
        assert kinds.count("PV") == 3
        assert kinds.count("WT") == 4

    def test_wire_cycle_rejected(self):
        doc = minimal_doc()
        doc["nodes"].append({"id": "n2", "phases": "abc"})
        doc["lines"] += [
            {"from": "n1", "to": "n2", "length_miles": 0.1, "impedance_pu": {"aa": [0.01, 0.01]}},
            {"from": "n2", "to": "s", "length_miles": 0.1, "impedance_pu": {"aa": [0.01, 0.01]}},
        ]
        with pytest.raises(CaseInvariantError, match="cycle"):
            load_case_dict(doc)

    def test_load_on_absent_phase_rejected(self):
        doc = minimal_doc()
        doc["nodes"][1] = {"id": "n1", "phases": "a", "load_kw": {"b": [5.0]}}
        with pytest.raises(CaseInvariantError, match="phase"):
            load_case_dict(doc)

    def test_reactive_without_active_rejected(self):
        doc = minimal_doc()
        doc["nodes"][1]["load_kvar"] = {"b": [5.0]}
        with pytest.raises(CaseInvariantError, match="reactive"):
            load_case_dict(doc)

    def test_trapped_voltage_range(self):
        doc = minimal_doc()
        doc["nodes"][1]["phases"] = "abc"
        doc["lines"][0]["is_switch"] = True
        doc["lines"][0].pop("impedance_pu")
        doc["lines"][0]["phases"] = "abc"
        doc["switchgears"] = [
            {
                "id": "G",
                "feeder_node": "s",
                "lateral_node": "n1",
                "inrush_limit_pu": 2.0,
                "q_max": 0.05,
                "trapped_voltage_sq": 1.5,
            }
        ]
        with pytest.raises(CaseInvariantError, match="trapped"):
            load_case_dict(doc)

    def test_coupling_must_have_zero_impedance(self):
        doc = minimal_doc()
        doc["lines"][0]["is_switch"] = True  # keeps its impedance entries
        doc["switchgears"] = [
            {
                "id": "G",
                "feeder_node": "s",
                "lateral_node": "n1",
                "inrush_limit_pu": 2.0,
                "q_max": 0.05,
            }
        ]
        with pytest.raises(CaseInvariantError, match="zero impedance"):
            load_case_dict(doc)

    def test_per_unit_conversion(self):
        case = load_minimal()
        # 10 kW on a 1 MVA base
        assert case.node("n1").load_p[0, 0] == pytest.approx(0.01)

    def test_shunt_iff_underground(self):
        doc = minimal_doc()
        doc["lines"][0]["shunt_nf_per_mile"] = 100.0
        with pytest.raises(CaseInvariantError, match="shunt"):
            load_case_dict(doc)
        doc = minimal_doc()
        doc["lines"][0]["is_underground"] = True
        with pytest.raises(CaseInvariantError, match="shunt"):
            load_case_dict(doc)


def _gear_doc(extra_nodes, extra_lines, gears):
    doc = minimal_doc()
    doc["horizon"] = 1
    doc["nodes"] = [
        {"id": "s", "phases": "abc"},
        {"id": "f1", "phases": "abc"},
    ] + extra_nodes
    doc["lines"] = [
        {
            "from": "s",
            "to": "f1",
            "length_miles": 0.1,
            "impedance_pu": {"aa": [0.01, 0.02], "bb": [0.01, 0.02], "cc": [0.01, 0.02]},
        }
    ] + extra_lines
    doc["switchgears"] = gears
    return doc


def _cable(u, v, miles, phase="a"):
    return {
        "from": u,
        "to": v,
        "length_miles": miles,
        "is_underground": True,
        "shunt_nf_per_mile": 178.0,
        "impedance_pu": {phase * 2: [0.01 * miles, 0.008 * miles]},
    }


class TestDownstreamSets:
    def test_leaf_lateral(self):
        doc = _gear_doc(
            [{"id": "j", "phases": "a"}],
            [{"from": "f1", "to": "j", "length_miles": 0.0, "is_switch": True, "phases": "abc"}],
            [
                {
                    "id": "G",
                    "feeder_node": "f1",
                    "lateral_node": "j",
                    "inrush_limit_pu": 2.0,
                    "q_max": 0.05,
                }
            ],
        )
        case = load_case_dict(doc)
        g = case.switchgears[0]
        assert g.downstream_nodes == ("j",)
        assert g.downstream_lines == ()
        assert equivalent_capacitance(g, case) == 0.0

    def test_chain(self):
        doc = _gear_doc(
            [{"id": "j", "phases": "a"}, {"id": "m", "phases": "a"}, {"id": "n", "phases": "a"}],
            [
                {"from": "f1", "to": "j", "length_miles": 0.0, "is_switch": True, "phases": "abc"},
                _cable("j", "m", 0.5),
                _cable("m", "n", 0.38),
            ],
            [
                {
                    "id": "G",
                    "feeder_node": "f1",
                    "lateral_node": "j",
                    "inrush_limit_pu": 2.0,
                    "q_max": 0.05,
                }
            ],
        )
        case = load_case_dict(doc)
        g = case.switchgears[0]
        assert set(g.downstream_nodes) == {"j", "m", "n"}
        assert len(g.downstream_lines) == 2
        assert equivalent_capacitance(g, case) == pytest.approx(156.64e-9)

    def test_nested_gear_excluded(self):
        # six-node fixture: s - f1 = G1 > j - m = G2 > p - q
        doc = _gear_doc(
            [
                {"id": "j", "phases": "abc"},
                {"id": "m", "phases": "abc"},
                {"id": "p", "phases": "a"},
                {"id": "q", "phases": "a"},
            ],
            [
                {"from": "f1", "to": "j", "length_miles": 0.0, "is_switch": True, "phases": "abc"},
                _cable("j", "m", 0.3, "a"),
                {"from": "m", "to": "p", "length_miles": 0.0, "is_switch": True, "phases": "abc"},
                _cable("p", "q", 0.2),
            ],
            [
                {
                    "id": "G1",
                    "feeder_node": "f1",
                    "lateral_node": "j",
                    "inrush_limit_pu": 2.0,
                    "q_max": 0.05,
                },
                {
                    "id": "G2",
                    "feeder_node": "m",
                    "lateral_node": "p",
                    "inrush_limit_pu": 2.0,
                    "q_max": 0.05,
                },
            ],
        )
        case = load_case_dict(doc)
        g1, g2 = case.switchgears
        assert set(g1.downstream_nodes) == {"j", "m"}
        assert set(g2.downstream_nodes) == {"p", "q"}
        assert set(g1.downstream_nodes).isdisjoint(g2.downstream_nodes)
        # traversal oracle: brute-force reachability without crossing couplings
        import networkx as nx

        graph = nx.Graph()
        couplings = {g.line_index for g in case.switchgears}
        for l in case.lines:
            if l.index not in couplings:
                graph.add_edge(l.from_node, l.to_node)
        graph.add_nodes_from(n.id for n in case.nodes)
        assert set(g1.downstream_nodes) == nx.node_connected_component(graph, "j")
        assert set(g2.downstream_nodes) == nx.node_connected_component(graph, "p")

    def test_disjoint_validation(self):
        doc = _gear_doc(
            [{"id": "j", "phases": "a"}],
            [
                {"from": "f1", "to": "j", "length_miles": 0.0, "is_switch": True, "phases": "abc"},
                {"from": "s", "to": "j", "length_miles": 0.0, "is_switch": True, "phases": "abc", "id": "dup"},
            ],
            [
                {
                    "id": "G1",
                    "feeder_node": "f1",
                    "lateral_node": "j",
                    "inrush_limit_pu": 2.0,
                    "q_max": 0.05,
                },
                {
                    "id": "G2",
                    "feeder_node": "s",
                    "lateral_node": "j",
                    "inrush_limit_pu": 2.0,
                    "q_max": 0.05,
                },
            ],
        )
        with pytest.raises(CaseInvariantError, match="downstream of both"):
            load_case_dict(doc)

    @pytest.mark.parametrize("name", shipped_case_names())
    def test_switchgear_maps_match_a_scan(self, name):
        """The three lookups answer what a scan over the switchgears answers, after a re-derivation too."""
        case = derive_downstream_sets(shipped_case(name))

        def scan(pred):
            return next((g for g in case.switchgears if pred(g)), None)

        for l in case.lines:
            assert case.gear_of_line(l.index) is scan(lambda g: g.line_index == l.index)
            assert case.gear_of_downstream_line(l.index) is scan(lambda g: l.index in g.downstream_lines)
        for n in case.nodes:
            assert case.gear_of_downstream_node(n.id) is scan(lambda g: n.id in g.downstream_nodes)
        assert set(case.coupling_line_indices) == {g.line_index for g in case.switchgears}


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name", ["toy_pair", "toy_fork", "toy_pv", "toy_gear3", "reduced13"]
    )
    def test_save_load_identity(self, name, tmp_path):
        case = shipped_case(name)
        out = tmp_path / "resaved.json"
        save_case(case, out)
        again = load_case(out)
        assert case_to_dict(case) == case_to_dict(again)
        assert [n.id for n in again.nodes] == [n.id for n in case.nodes]
        for a, b in zip(case.nodes, again.nodes):
            assert np.array_equal(a.load_p, b.load_p)
            assert np.array_equal(a.load_q, b.load_q)
        for a, b in zip(case.lines, again.lines):
            assert np.array_equal(a.z, b.z)
            assert a.is_switch == b.is_switch
        for a, b in zip(case.switchgears, again.switchgears):
            assert a.downstream_nodes == b.downstream_nodes
            assert np.array_equal(a.trapped_v_sq, b.trapped_v_sq)

    def test_resave_is_stable(self, tmp_path):
        case = shipped_case("toy_gear3")
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_case(case, p1)
        save_case(load_case(p1), p2)
        assert p1.read_text() == p2.read_text()


class TestIds:
    """Node, line and switchgear ids that a column name cannot carry are refused, naming the id."""

    BAD = ["n,1", "n[1", "n]1", "n 1", "n\t1", "n\n1", "n\x001", "n\x7f1", "n\u20031"]

    @pytest.mark.parametrize("bad", BAD)
    def test_node(self, bad):
        doc = json.loads(json.dumps(minimal_doc()).replace('"n1"', json.dumps(bad)))
        with pytest.raises(CaseInvariantError, match=re.escape(f"node id {bad!r}")):
            load_case_dict(doc)

    @pytest.mark.parametrize("bad", BAD)
    def test_line(self, bad):
        doc = minimal_doc()
        doc["lines"][0]["id"] = bad
        with pytest.raises(CaseInvariantError, match=re.escape(f"line id {bad!r}")):
            load_case_dict(doc)

    @pytest.mark.parametrize("bad", BAD)
    def test_switchgear(self, bad):
        doc = shipped_doc("toy_gear3")
        doc["switchgears"][0]["id"] = bad
        with pytest.raises(CaseInvariantError, match=re.escape(f"switchgear id {bad!r}")):
            load_case_dict(doc)

    def test_other_characters_pass(self):
        doc = json.loads(json.dumps(minimal_doc()).replace('"n1"', '"7-é.{x}/Ω"'))
        assert load_case_dict(doc).nodes[1].id == "7-é.{x}/Ω"


def _stock_verdict(doc):
    """The first error of the stock Draft 2020-12 validator, as ``validate_schema`` words it, or None."""
    import jsonschema

    from ugrestore.feeder import _schema

    errors = sorted(jsonschema.Draft202012Validator(_schema()).iter_errors(doc), key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    path = "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in errors[0].absolute_path)
    return f"{path}: {errors[0].message}"


class TestSchemaRefs:
    """The validator's schema has its ``$defs`` inlined; its verdicts stay the stock validator's."""

    EDITS = {
        "phases-pattern": lambda doc: doc["nodes"][1].update(phases="abd"),
        "phases-empty": lambda doc: doc["nodes"][1].update(phases=""),
        "phases-type": lambda doc: doc["lines"][0].update(phases=3),
        "series-extra-phase": lambda doc: doc["nodes"][1]["load_kw"].update(d=[1.0]),
        "series-not-array": lambda doc: doc["nodes"][1]["load_kvar"].update(a=1.0),
        "scalar-string": lambda doc: doc["lines"][0].update(ampacity_pu="2.5"),
        "scalar-map-extra": lambda doc: doc["switchgears"][0].update(trapped_voltage_sq={"a": 1.0, "x": 1.0}),
        "scalar-map-item": lambda doc: doc["ders"][0].update(charge_max_kw={"a": None}),
        "complex-short": lambda doc: doc["lines"][0]["impedance_pu"].update(aa=[0.1]),
        "complex-item": lambda doc: doc["lines"][0]["impedance_pu"].update(ab=["x", 0.1]),
        # several errors at once: the first by path must stay the first
        "several": lambda doc: (doc["nodes"][1].update(phases=""), doc["nodes"][1]["load_kw"].update(d=[1.0]),
                                doc["lines"][0]["impedance_pu"].update(aa=[0.1, "y", 3])),
    }

    def test_no_reference_is_left(self):
        from ugrestore.feeder import _inline_defs, _schema

        assert '"$ref"' in json.dumps(_schema())  # the file itself is unchanged
        assert '"$ref"' not in json.dumps(_inline_defs(_schema()))

    @pytest.mark.parametrize("edit", EDITS)
    def test_same_verdict_as_the_stock_validator(self, edit):
        doc = shipped_doc("reduced13")
        self.EDITS[edit](doc)
        want = _stock_verdict(doc)
        assert want is not None
        with pytest.raises(CaseSchemaError) as err:
            validate_schema(doc)
        assert str(err.value) == want

    @pytest.mark.parametrize("name", shipped_case_names())
    def test_shipped_cases_validate(self, name):
        validate_schema(shipped_doc(name))

    def test_recursive_reference_stays(self):
        import jsonschema

        from ugrestore.feeder import _inline_defs

        tree = {"type": "object", "properties": {"kids": {"type": "array", "items": {"$ref": "#/$defs/tree"}},
                                                   "size": {"$ref": "#/$defs/size"}}}
        schema = {"$defs": {"tree": tree, "size": {"type": "integer"}}, "$ref": "#/$defs/tree"}
        inlined = _inline_defs(schema)
        root = inlined["allOf"][0]
        assert root["properties"]["kids"]["items"] == {"$ref": "#/$defs/tree"}
        assert root["properties"]["size"] == {"allOf": [{"type": "integer"}]}
        for doc in ({"kids": [{"kids": [{"size": "x"}]}, {"size": 2}]}, {"kids": [{"kids": 1}]}, {"kids": []}):
            def verdict(s):
                return [(list(e.absolute_path), e.message) for e in jsonschema.Draft202012Validator(s).iter_errors(doc)]

            assert verdict(inlined) == verdict(schema)


class TestSchemaNumbers:
    """An array of numbers is checked at once; any other item gets the stock validator's verdict."""

    SPOTS = {
        "load": lambda doc: next(n for n in doc["nodes"] if "load_kw" in n)["load_kw"]["b"],
        "impedance": lambda doc: next(l for l in doc["lines"] if "impedance_pu" in l)["impedance_pu"]["ab"],
        "forecast": lambda doc: next(d for d in doc["ders"] if "forecast_kw" in d)["forecast_kw"]["a"],
    }

    @pytest.mark.parametrize("item", [True, False, "1.5", None, [1.0], {}, math.nan, math.inf, 2, -0.0], ids=repr)
    @pytest.mark.parametrize("spot", SPOTS)
    def test_same_verdict_as_the_stock_validator(self, spot, item):
        doc = shipped_doc("reduced13")
        self.SPOTS[spot](doc)[1] = item
        want = _stock_verdict(doc)
        if want is None:
            validate_schema(doc)
        else:
            with pytest.raises(CaseSchemaError) as err:
                validate_schema(doc)
            assert str(err.value) == want
        if isinstance(item, (bool, str, list, dict)) or item is None:
            assert want is not None and "[1]:" in want
