"""Feeder case data model, JSON loader/saver and per-switchgear aggregates.

A loaded :class:`FeederCase` is treated as immutable: derived quantities
(downstream node/line sets, the switchgear maps, the wire components,
equivalent cable capacitance) are populated once by the loader and never
mutated afterwards, so instances are safe to share across threads.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import KeysView
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from ugrestore.catalog import unnameable
from ugrestore.physics import PHASES, equivalent_capacitance_farads

_PHASE_INDEX = {"a": 0, "b": 1, "c": 2}
_Z_KEYS = ("aa", "ab", "ac", "bb", "bc", "cc")
_Z_POS = {"aa": (0, 0), "ab": (0, 1), "ac": (0, 2), "bb": (1, 1), "bc": (1, 2), "cc": (2, 2)}


class CaseError(Exception):
    """Base class for case file problems."""


class CaseSchemaError(CaseError):
    """The document does not match the case schema."""


class CaseInvariantError(CaseError):
    """Schema-valid document violating a structural rule."""


def _check_id(kind: str, ident: str) -> None:
    """Refuse an id that a column name cannot carry (see :mod:`ugrestore.catalog`)."""
    if unnameable(ident):
        raise CaseInvariantError(
            f"{kind} id {ident!r} holds a ',', '[', ']', whitespace or a control character, "
            "which a column name cannot carry"
        )


def _phase_tuple(s: str) -> tuple[int, ...]:
    return tuple(_PHASE_INDEX[c] for c in s)


def _phase_string(phases) -> str:
    return "".join(PHASES[i] for i in sorted(phases))


def _per_phase_scalar(value, phases, default=0.0) -> np.ndarray:
    out = np.zeros(3)
    if value is None:
        value = default
    if isinstance(value, dict):
        for ph, v in value.items():
            out[_PHASE_INDEX[ph]] = float(v)
    else:
        for i in phases:
            out[i] = float(value)
    return out


def _per_phase_series(value, horizon: int) -> np.ndarray:
    out = np.zeros((horizon, 3))
    if value:
        for ph, arr in value.items():
            if len(arr) != horizon:
                raise CaseInvariantError(
                    f"per-phase series for phase {ph!r} has {len(arr)} entries, horizon is {horizon}"
                )
            out[:, _PHASE_INDEX[ph]] = np.asarray(arr, dtype=float)
    return out


@dataclass(frozen=True)
class CaseConfig:
    v_min_sq: float
    v_max_sq: float
    inrush_rise_time_s: float
    angle_window_rad: float = math.radians(10.0)
    q_gate_delay_limit_h: float = 2.0
    nominal_voltage_sq: float = 1.0
    base_kv: float = 4.16
    base_mva: float = 1.0
    delta_v_max_pu: float | None = None
    voltage_drop_quadratic_term: bool = True
    bypass_penalty: float = 1e-4

    def __post_init__(self) -> None:
        if not self.v_min_sq < self.v_max_sq:
            raise CaseInvariantError("config: v_min_sq must be below v_max_sq")
        if self.inrush_rise_time_s <= 0:
            raise CaseInvariantError("config: inrush_rise_time_s must be positive")
        if not 0 < self.angle_window_rad <= math.pi / 6 + 1e-12:
            raise CaseInvariantError("config: angle_window_rad must lie in (0, pi/6]")

    @property
    def kw_base(self) -> float:
        """kW corresponding to 1.0 per-unit power."""
        return self.base_mva * 1000.0


@dataclass(frozen=True)
class Node:
    id: str
    phases: tuple[int, ...]
    weight: float
    load_p: np.ndarray  # (T, 3) per-unit active demand
    load_q: np.ndarray  # (T, 3) per-unit reactive demand


@dataclass(frozen=True)
class Line:
    index: int
    id: str
    from_node: str
    to_node: str
    length_miles: float
    is_switch: bool
    is_underground: bool
    shunt_nf_per_mile: float
    phases: tuple[int, ...]
    z: np.ndarray  # (3, 3) complex per-unit
    ampacity_pu: np.ndarray  # (3,) per-phase current bound


@dataclass
class Switchgear:
    id: str
    feeder_node: str
    lateral_node: str
    trapped_v_sq: np.ndarray  # (3,)
    inrush_limit_pu: float
    q_max: float
    zip_z: float
    line_index: int = -1
    downstream_nodes: tuple[str, ...] = ()
    downstream_lines: tuple[int, ...] = ()


@dataclass(frozen=True)
class EssUnit:
    node: str
    kind: str
    energy_max_kwh: float
    soc_init: float
    soc_min: float
    soc_max: float
    eff_charge: float
    eff_discharge: float
    charge_max_pu: np.ndarray  # (3,)
    discharge_max_pu: np.ndarray
    reactive_max_pu: np.ndarray

    @property
    def rated_phase_pu(self) -> np.ndarray:
        return np.maximum(self.charge_max_pu, self.discharge_max_pu)


@dataclass(frozen=True)
class ResUnit:
    node: str
    kind: str
    forecast_pu: np.ndarray  # (T, 3)
    sigma: float
    confidence: float
    reactive_max_pu: np.ndarray


DerUnit = EssUnit | ResUnit


@dataclass
class FeederCase:
    """A loaded case: topology, switchgears, DERs, horizon and config.

    The loader fills three switchgear maps once (:func:`derive_downstream_sets`):
    coupling line to its switchgear, and lateral line or node to the
    switchgear that energizes it.  :meth:`gear_of_line`,
    :meth:`gear_of_downstream_line` and :meth:`gear_of_downstream_node` look
    them up; the build, the warm start and the validator all ask them.

    It also labels each node's ``wire_component`` (in the order of their first
    nodes): the always-closed non-switch lines join the nodes into trees that
    only switch lines join.  The validator, the plans' judge, derives its own.
    """

    name: str
    notes: str
    nodes: list[Node]
    lines: list[Line]
    switchgears: list[Switchgear]
    ders: list[DerUnit]
    horizon: int
    period_hours: float
    config: CaseConfig
    wire_component: np.ndarray  # (N,) int64

    node_index: dict[str, int] = field(default_factory=dict)
    _adjacency: dict[str, list[int]] = field(default_factory=dict)
    _gear_of_coupling: dict[int, Switchgear] = field(default_factory=dict)
    _gear_of_lateral_line: dict[int, Switchgear] = field(default_factory=dict)
    _gear_of_lateral_node: dict[str, Switchgear] = field(default_factory=dict)

    # -- convenience views -------------------------------------------------

    @property
    def ess_units(self) -> list[EssUnit]:
        return [d for d in self.ders if isinstance(d, EssUnit)]

    @property
    def res_units(self) -> list[ResUnit]:
        return [d for d in self.ders if isinstance(d, ResUnit)]

    @property
    def switch_lines(self) -> list[Line]:
        return [l for l in self.lines if l.is_switch]

    @property
    def wire_lines(self) -> list[Line]:
        return [l for l in self.lines if not l.is_switch]

    @property
    def coupling_line_indices(self) -> KeysView[int]:
        return self._gear_of_coupling.keys()

    def node(self, node_id: str) -> Node:
        return self.nodes[self.node_index[node_id]]

    def lines_at(self, node_id: str) -> list[Line]:
        return [self.lines[i] for i in self._adjacency.get(node_id, [])]

    def gear_of_line(self, line_index: int) -> Switchgear | None:
        """The switchgear whose coupling line this is."""
        return self._gear_of_coupling.get(line_index)

    def gear_of_downstream_line(self, line_index: int) -> Switchgear | None:
        """The switchgear whose lateral holds this line."""
        return self._gear_of_lateral_line.get(line_index)

    def gear_of_downstream_node(self, node_id: str) -> Switchgear | None:
        """The switchgear whose lateral holds this node."""
        return self._gear_of_lateral_node.get(node_id)

    def ess_energy_pu_h(self, ess: EssUnit) -> float:
        return ess.energy_max_kwh / self.config.kw_base


# ---------------------------------------------------------------------------
# loading


def _schema() -> dict:
    with resources.files("ugrestore.schema").joinpath("case.schema.json").open("r") as fh:
        return json.load(fh)


def _apply_defaults(instance: dict, schema: dict) -> None:
    """Fill in schema defaults (jsonschema validates but does not default)."""
    props = schema.get("properties", {})
    for key, sub in props.items():
        if "default" in sub and key not in instance:
            instance[key] = json.loads(json.dumps(sub["default"]))


def _inline_defs(schema: dict) -> dict:
    """``schema`` with each ``$ref`` to one of its ``$defs`` replaced by an ``allOf`` of that definition.

    A ``$ref`` applies its target in place, as a one-item ``allOf`` does,
    so the errors, their order and their messages stay the same; only the
    lookup of the reference goes.  A reference inside the definition it
    names (a recursive one) stays a reference, and so does one beside an
    ``allOf``.
    """
    defs = schema.get("$defs", {})

    def inline(node, within: frozenset):
        if isinstance(node, list):
            return [inline(item, within) for item in node]
        if not isinstance(node, dict):
            return node
        out = {}
        for key, value in node.items():
            name = value.removeprefix("#/$defs/") if key == "$ref" and isinstance(value, str) else None
            if name in defs and name not in within and "allOf" not in node:
                out["allOf"] = [inline(defs[name], within | {name})]
            else:
                out[key] = inline(value, within)
        return out

    return inline(schema, frozenset())


@functools.cache
def _validator():
    """The case schema's Draft 2020-12 validator, with arrays of numbers checked at once.

    Its ``items`` passes an array under ``{"type": "number"}`` whose every
    item is an ``int`` or a ``float`` in one check, and hands every other
    array to the stock keyword, so its verdicts and messages are the stock
    validator's.  The schema's ``$defs`` are inlined once, here
    (:func:`_inline_defs`).
    """
    import jsonschema

    stock = jsonschema.Draft202012Validator

    def items(validator, items, instance, schema):
        if items == {"type": "number"} and type(instance) is list and set(map(type, instance)) <= {int, float}:
            return
        yield from stock.VALIDATORS["items"](validator, items, instance, schema)

    return jsonschema.validators.extend(stock, {"items": items})(_inline_defs(_schema()))


def validate_schema(data: dict) -> None:
    errors = sorted(_validator().iter_errors(data), key=lambda e: list(e.absolute_path))
    if errors:
        e = errors[0]
        path = "$" + "".join(
            f"[{p}]" if isinstance(p, int) else f".{p}" for p in e.absolute_path
        )
        raise CaseSchemaError(f"{path}: {e.message}")


def load_case(path) -> FeederCase:
    """Load, schema-check and structurally validate a case file."""
    try:
        with open(path, "r") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CaseError(f"cannot read case file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CaseSchemaError(f"{path} is not valid JSON: {exc}") from exc
    return load_case_dict(data)


def load_case_dict(data: dict) -> FeederCase:
    """Build a validated FeederCase from an already-parsed document."""
    if not isinstance(data, dict):
        raise CaseSchemaError("case document must be a JSON object")
    validate_schema(data)

    horizon = data["horizon"]
    cfg_raw = dict(data["config"])
    schema_cfg = _schema()["properties"]["config"]
    _apply_defaults(cfg_raw, schema_cfg)
    config = CaseConfig(
        v_min_sq=cfg_raw["v_min_sq"],
        v_max_sq=cfg_raw["v_max_sq"],
        inrush_rise_time_s=cfg_raw["inrush_rise_time_s"],
        angle_window_rad=cfg_raw["angle_window_rad"],
        q_gate_delay_limit_h=cfg_raw["q_gate_delay_limit_h"],
        nominal_voltage_sq=cfg_raw["nominal_voltage_sq"],
        base_kv=cfg_raw["base_kv"],
        base_mva=cfg_raw["base_mva"],
        delta_v_max_pu=cfg_raw["delta_v_max_pu"],
        voltage_drop_quadratic_term=cfg_raw["voltage_drop_quadratic_term"],
        bypass_penalty=cfg_raw["bypass_penalty"],
    )
    kw_base = config.kw_base

    nodes: list[Node] = []
    node_index: dict[str, int] = {}
    for nd in data["nodes"]:
        _check_id("node", nd["id"])
        if nd["id"] in node_index:
            raise CaseInvariantError(f"duplicate node id {nd['id']!r}")
        phases = _phase_tuple(nd["phases"])
        load_p = _per_phase_series(nd.get("load_kw"), horizon) / kw_base
        load_q = _per_phase_series(nd.get("load_kvar"), horizon) / kw_base
        for ph in range(3):
            if ph not in phases and (np.any(load_p[:, ph] != 0) or np.any(load_q[:, ph] != 0)):
                raise CaseInvariantError(
                    f"node {nd['id']!r}: load on phase {PHASES[ph]!r} absent at the node"
                )
        if np.any((load_p == 0) & (load_q > 0)):
            raise CaseInvariantError(
                f"node {nd['id']!r}: reactive demand without active demand is not supported"
            )
        node_index[nd["id"]] = len(nodes)
        nodes.append(
            Node(
                id=nd["id"],
                phases=phases,
                weight=float(nd.get("weight", 1.0)),
                load_p=load_p,
                load_q=load_q,
            )
        )

    lines: list[Line] = []
    line_ids: set[str] = set()
    for ln in data["lines"]:
        for end in ("from", "to"):
            if ln[end] not in node_index:
                raise CaseSchemaError(f"line references unknown node {ln[end]!r}")
        z = np.zeros((3, 3), dtype=complex)
        z_keys = ln.get("impedance_pu") or {}
        for key, (re, im) in z_keys.items():
            i, j = _Z_POS[key]
            z[i, j] = complex(re, im)
            z[j, i] = complex(re, im)
        if "phases" in ln:
            phases = _phase_tuple(ln["phases"])
        elif z_keys:
            phases = tuple(sorted({p for key in z_keys for p in (_Z_POS[key])}))
        else:
            from_ph = set(nodes[node_index[ln["from"]]].phases)
            to_ph = set(nodes[node_index[ln["to"]]].phases)
            phases = tuple(sorted(from_ph & to_ph))
        if not phases:
            raise CaseInvariantError(f"line {ln.get('id', ln['from'] + '-' + ln['to'])!r} has no phases")
        for key in z_keys:
            i, j = _Z_POS[key]
            if i not in phases or j not in phases:
                raise CaseInvariantError(
                    f"line {ln.get('id')!r}: impedance entry {key!r} outside declared phases"
                )
        # switch positions are not conductors, so switches skip this check
        if not ln.get("is_switch", False):
            for end in ("from", "to"):
                missing = set(phases) - set(nodes[node_index[ln[end]]].phases)
                if missing:
                    raise CaseInvariantError(
                        f"line {ln.get('id', ln['from'] + '-' + ln['to'])!r}: phase "
                        f"{_phase_string(missing)!r} not present at node {ln[end]!r}"
                    )
        is_underground = bool(ln.get("is_underground", False))
        shunt = ln.get("shunt_nf_per_mile")
        if is_underground and not shunt:
            raise CaseInvariantError(
                f"underground line {ln.get('id', ln['from'] + '-' + ln['to'])!r} needs shunt_nf_per_mile"
            )
        if not is_underground and shunt:
            raise CaseInvariantError(
                f"line {ln.get('id', ln['from'] + '-' + ln['to'])!r}: shunt capacitance on a non-underground line"
            )
        amp = _per_phase_scalar(ln.get("ampacity_pu"), phases, default=10.0)
        amp[[p for p in range(3) if p not in phases]] = 0.0
        lid = ln.get("id", f"{ln['from']}-{ln['to']}")
        _check_id("line", lid)
        if lid in line_ids:
            raise CaseInvariantError(f"duplicate line id {lid!r}")
        line_ids.add(lid)
        lines.append(
            Line(
                index=len(lines),
                id=lid,
                from_node=ln["from"],
                to_node=ln["to"],
                length_miles=float(ln["length_miles"]),
                is_switch=bool(ln.get("is_switch", False)),
                is_underground=is_underground,
                shunt_nf_per_mile=float(shunt or 0.0),
                phases=phases,
                z=z,
                ampacity_pu=amp,
            )
        )

    wire_component = _wire_components(node_index, lines)

    gears: list[Switchgear] = []
    gear_ids: set[str] = set()
    for sg in data["switchgears"]:
        _check_id("switchgear", sg["id"])
        if sg["id"] in gear_ids:
            raise CaseInvariantError(f"duplicate switchgear id {sg['id']!r}")
        gear_ids.add(sg["id"])
        for end in ("feeder_node", "lateral_node"):
            if sg[end] not in node_index:
                raise CaseSchemaError(f"switchgear {sg['id']!r} references unknown node {sg[end]!r}")
        line_idx = -1
        for l in lines:
            if l.is_switch and {l.from_node, l.to_node} == {sg["feeder_node"], sg["lateral_node"]}:
                line_idx = l.index
                break
        if line_idx < 0:
            raise CaseInvariantError(
                f"switchgear {sg['id']!r}: no switch line between "
                f"{sg['feeder_node']!r} and {sg['lateral_node']!r}"
            )
        if np.any(lines[line_idx].z != 0):
            raise CaseInvariantError(
                f"switchgear {sg['id']!r}: coupling line must have zero impedance"
            )
        trapped = _per_phase_scalar(sg.get("trapped_voltage_sq", 1.0), (0, 1, 2), default=1.0)
        if np.any(trapped < 0.0) or np.any(trapped > 1.21):
            raise CaseInvariantError(
                f"switchgear {sg['id']!r}: trapped_voltage_sq must lie in [0, 1.21]"
            )
        # below this the inrush guard of the build no longer bounds the exact step
        if math.sqrt(config.v_min_sq) + math.sqrt(trapped.min()) < math.sqrt(2.0):
            raise CaseInvariantError(
                f"switchgear {sg['id']!r}: trapped_voltage_sq {trapped.min():g} is too low for "
                f"the inrush guard (sqrt(v_min_sq) + sqrt(trapped_voltage_sq) < sqrt(2))"
            )
        gears.append(
            Switchgear(
                id=sg["id"],
                feeder_node=sg["feeder_node"],
                lateral_node=sg["lateral_node"],
                trapped_v_sq=trapped,
                inrush_limit_pu=float(sg["inrush_limit_pu"]),
                q_max=float(sg["q_max"]),
                zip_z=float(sg.get("zip_z_fraction", 0.3)),
                line_index=line_idx,
            )
        )

    ders: list[DerUnit] = []
    schema_defs = _schema()["properties"]["ders"]["items"]["oneOf"]
    for dr in data["ders"]:
        if dr["node"] not in node_index:
            raise CaseSchemaError(f"DER references unknown node {dr['node']!r}")
        raw = dict(dr)
        if raw["kind"] == "ESS":
            _apply_defaults(raw, schema_defs[0])
            node_phases = nodes[node_index[raw["node"]]].phases
            if len(node_phases) != 3:
                raise CaseInvariantError(
                    f"grid-forming ESS at {raw['node']!r} requires a three-phase node"
                )
            if not raw["soc_min"] <= raw["soc_init"] <= raw["soc_max"]:
                raise CaseInvariantError(
                    f"ESS at {raw['node']!r}: require soc_min <= soc_init <= soc_max"
                )
            ders.append(
                EssUnit(
                    node=raw["node"],
                    kind="ESS",
                    energy_max_kwh=float(raw["energy_max_kwh"]),
                    soc_init=float(raw["soc_init"]),
                    soc_min=float(raw["soc_min"]),
                    soc_max=float(raw["soc_max"]),
                    eff_charge=float(raw["eff_charge"]),
                    eff_discharge=float(raw["eff_discharge"]),
                    charge_max_pu=_per_phase_scalar(raw["charge_max_kw"], node_phases) / kw_base,
                    discharge_max_pu=_per_phase_scalar(raw["discharge_max_kw"], node_phases) / kw_base,
                    reactive_max_pu=_per_phase_scalar(raw["reactive_max_kvar"], node_phases) / kw_base,
                )
            )
        else:
            _apply_defaults(raw, schema_defs[1])
            node_phases = nodes[node_index[raw["node"]]].phases
            forecast = _per_phase_series(raw.get("forecast_kw"), horizon) / kw_base
            if np.any(forecast < 0.0):
                raise CaseInvariantError(f"{raw['kind']} at {raw['node']!r}: negative forecast")
            for ph in range(3):
                if ph not in node_phases and np.any(forecast[:, ph] != 0):
                    raise CaseInvariantError(
                        f"{raw['kind']} at {raw['node']!r}: forecast on absent phase {PHASES[ph]!r}"
                    )
            ders.append(
                ResUnit(
                    node=raw["node"],
                    kind=raw["kind"],
                    forecast_pu=forecast,
                    sigma=float(raw["sigma"]),
                    confidence=float(raw["confidence"]),
                    reactive_max_pu=_per_phase_scalar(raw["reactive_max_kvar"], node_phases) / kw_base,
                )
            )

    case = FeederCase(
        name=data["name"],
        notes=data.get("notes", ""),
        nodes=nodes,
        lines=lines,
        switchgears=gears,
        ders=ders,
        horizon=horizon,
        period_hours=float(data["period_hours"]),
        config=config,
        node_index=node_index,
        wire_component=wire_component,
    )
    adjacency: dict[str, list[int]] = {n.id: [] for n in nodes}
    for l in lines:
        adjacency[l.from_node].append(l.index)
        adjacency[l.to_node].append(l.index)
    case._adjacency = adjacency
    derive_downstream_sets(case)
    return case


def _wire_components(node_index: dict[str, int], lines) -> np.ndarray:
    """Each node's wire component, numbered in the order of its first node; the wires must hold no cycle."""
    parent = list(range(len(node_index)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for l in lines:
        if l.is_switch:
            continue
        ra, rb = find(node_index[l.from_node]), find(node_index[l.to_node])
        if ra == rb:
            raise CaseInvariantError(
                f"non-switch lines contain a cycle through {l.from_node!r}-{l.to_node!r}"
            )
        parent[ra] = rb
    label: dict[int, int] = {}
    return np.array([label.setdefault(find(i), len(label)) for i in range(len(parent))], dtype=np.int64)


# ---------------------------------------------------------------------------
# derived sets


def derive_downstream_sets(case: FeederCase) -> FeederCase:
    """Populate each switchgear's downstream node/line sets by traversal.

    Traversal starts at the lateral node and never crosses a switchgear
    coupling, so nested switchgears own disjoint regions.  Also fills the
    case's three switchgear maps: by coupling line, by lateral line and by
    lateral node.
    """
    case._gear_of_coupling = {g.line_index: g for g in case.switchgears}
    case._gear_of_lateral_line = {}
    case._gear_of_lateral_node = claimed = {}
    couplings = case.coupling_line_indices
    for g in case.switchgears:
        seen_nodes = {g.lateral_node}
        seen_lines: list[int] = []
        visited_edges: set[int] = set()
        stack = [g.lateral_node]
        while stack:
            nid = stack.pop()
            for line in case.lines_at(nid):
                if line.index in couplings or line.index in visited_edges:
                    continue
                visited_edges.add(line.index)
                other = line.to_node if line.from_node == nid else line.from_node
                if other in seen_nodes:
                    raise CaseInvariantError(
                        f"switchgear {g.id!r}: lateral subgraph contains a cycle at {other!r}"
                    )
                seen_nodes.add(other)
                seen_lines.append(line.index)
                stack.append(other)
        for nid in seen_nodes:
            if nid in claimed:
                raise CaseInvariantError(
                    f"node {nid!r} is downstream of both switchgears "
                    f"{claimed[nid].id!r} and {g.id!r}"
                )
            claimed[nid] = g
        g.downstream_nodes = tuple(sorted(seen_nodes, key=lambda x: case.node_index[x]))
        g.downstream_lines = tuple(sorted(seen_lines))
        case._gear_of_lateral_line.update((li, g) for li in seen_lines)
    return case


def equivalent_capacitance(gear: Switchgear, case: FeederCase) -> float:
    """Total downstream underground cable capacitance in farads.

    Sums length times per-mile shunt capacitance over the switchgear's
    downstream underground lines; this is also the total capacitance the
    switchgear sees at closing.
    """
    segments = [
        (case.lines[i].length_miles, case.lines[i].shunt_nf_per_mile)
        for i in gear.downstream_lines
        if case.lines[i].is_underground
    ]
    return equivalent_capacitance_farads(segments)


# ---------------------------------------------------------------------------
# saving


def save_case(case: FeederCase, path) -> None:
    """Write a case back to JSON; load_case(save_case(c)) is semantically c."""
    with open(path, "w") as fh:
        json.dump(case_to_dict(case), fh, indent=1)
        fh.write("\n")


def case_to_dict(case: FeederCase) -> dict:
    kw = case.config.kw_base

    def series(arr: np.ndarray) -> dict:
        out = {}
        for ph in range(3):
            col = arr[:, ph]
            if np.any(col != 0.0):
                out[PHASES[ph]] = [float(v) for v in col * kw]
        return out

    def scalar3(arr: np.ndarray, phases) -> dict | float:
        vals = {PHASES[i]: float(arr[i]) for i in phases if arr[i] != 0.0}
        uniq = {v for v in vals.values()}
        if len(uniq) == 1 and len(vals) == len(phases):
            return next(iter(uniq))
        return vals

    doc: dict = {
        "name": case.name,
        "horizon": case.horizon,
        "period_hours": case.period_hours,
        "config": {
            "base_kv": case.config.base_kv,
            "base_mva": case.config.base_mva,
            "v_min_sq": case.config.v_min_sq,
            "v_max_sq": case.config.v_max_sq,
            "inrush_rise_time_s": case.config.inrush_rise_time_s,
            "angle_window_rad": case.config.angle_window_rad,
            "q_gate_delay_limit_h": case.config.q_gate_delay_limit_h,
            "nominal_voltage_sq": case.config.nominal_voltage_sq,
            "delta_v_max_pu": case.config.delta_v_max_pu,
            "voltage_drop_quadratic_term": case.config.voltage_drop_quadratic_term,
            "bypass_penalty": case.config.bypass_penalty,
        },
        "nodes": [],
        "lines": [],
        "switchgears": [],
        "ders": [],
    }
    if case.notes:
        doc["notes"] = case.notes
    for n in case.nodes:
        nd = {"id": n.id, "phases": _phase_string(n.phases), "weight": n.weight}
        lp = series(n.load_p)
        lq = series(n.load_q)
        if lp:
            nd["load_kw"] = lp
        if lq:
            nd["load_kvar"] = lq
        doc["nodes"].append(nd)
    for l in case.lines:
        ld = {
            "id": l.id,
            "from": l.from_node,
            "to": l.to_node,
            "length_miles": l.length_miles,
            "phases": _phase_string(l.phases),
        }
        if l.is_switch:
            ld["is_switch"] = True
        if l.is_underground:
            ld["is_underground"] = True
            ld["shunt_nf_per_mile"] = l.shunt_nf_per_mile
        z_entries = {}
        for key, (i, j) in _Z_POS.items():
            if l.z[i, j] != 0:
                z_entries[key] = [float(l.z[i, j].real), float(l.z[i, j].imag)]
        if z_entries:
            ld["impedance_pu"] = z_entries
        ld["ampacity_pu"] = scalar3(l.ampacity_pu, l.phases)
        doc["lines"].append(ld)
    for g in case.switchgears:
        doc["switchgears"].append(
            {
                "id": g.id,
                "feeder_node": g.feeder_node,
                "lateral_node": g.lateral_node,
                "trapped_voltage_sq": scalar3(g.trapped_v_sq, (0, 1, 2)),
                "inrush_limit_pu": g.inrush_limit_pu,
                "q_max": g.q_max,
                "zip_z_fraction": g.zip_z,
            }
        )
    for d in case.ders:
        if isinstance(d, EssUnit):
            phases = case.node(d.node).phases
            doc["ders"].append(
                {
                    "node": d.node,
                    "kind": "ESS",
                    "energy_max_kwh": d.energy_max_kwh,
                    "soc_init": d.soc_init,
                    "soc_min": d.soc_min,
                    "soc_max": d.soc_max,
                    "eff_charge": d.eff_charge,
                    "eff_discharge": d.eff_discharge,
                    "charge_max_kw": scalar3(d.charge_max_pu * kw, phases),
                    "discharge_max_kw": scalar3(d.discharge_max_pu * kw, phases),
                    "reactive_max_kvar": scalar3(d.reactive_max_pu * kw, phases),
                }
            )
        else:
            phases = case.node(d.node).phases
            doc["ders"].append(
                {
                    "node": d.node,
                    "kind": d.kind,
                    "forecast_kw": series(d.forecast_pu),
                    "sigma": d.sigma,
                    "confidence": d.confidence,
                    "reactive_max_kvar": scalar3(d.reactive_max_pu * kw, phases),
                }
            )
    return doc
