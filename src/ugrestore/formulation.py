"""Assembly of the multi-period restoration problem.

The model is a mixed-binary linear program plus rotated second-order cone
rows.  Static topology (microgrid membership, switch states, radiality via a
single-commodity flow that only closed switches carry) is decided once per
run; switchgear closing, phase swapping, inverter dispatch and power flow
are decided per period.

Each restriction is stated once.  What a column bound says is not repeated
as a row: a source's coverage of its own microgrid is a fixed column, and
the renewable chance constraint is the bounds of ``res_p`` (forecast times
:func:`derated_multiplier`) and ``res_q`` (the reactive rating).  No row is
the sum of others either: the voltage cap of a covered node is its
``volt-cover`` rows, not a second row over all microgrids.  No column only
renames what rows already fix: the event rows read the swap change
``swap[t] - swap[t-1]`` directly, and a power balance or voltage drop that
holds only inside a microgrid is two big-M rows on its own expression.

Row order is part of the model: the export writes it and warm-started LP
runs follow it, so the build emits every row in one fixed order.  All but
a few thousand rows go in as zero-padded numpy blocks, their columns taken
from the groups' index grids (``_Ctx.grid``, see ``catalog.Group.grid``):

- the switchgear schedule (``swap-*``, ``inrush-*``, ``voltdiff-cap``,
  ``ferro-*``, ``gear-*``, ``lateral-curr-gate``, ``reorder-*``): one
  block per family and row kind over every switchgear and period, merged
  by ``ModelBuilder.add_blocks`` into switchgear, period and step order;
- the loads and the voltage ranges: blocks over (node, period, phase),
  merged the same way;
- the power flow (``balance-p/q``, ``volt-drop``, ``ess-line-p/q-lim``,
  ``current-lim`` and the cones): one block per microgrid, its period-0
  rows copied over the horizon with the columns moved on by the period.

The objective goes in as arrays.  Only the topology, radiality and storage
rows are added row by row.

Power flow is built only where the case lets it run.  A column that the
coverage rows fix takes its rows with it (Savelsbergh 1994, ORSA J.
Computing 6; Achterberg et al. 2020, INFORMS J. Computing 32), applied once,
from the case: :func:`dead_pairs` finds the (node, microgrid k) pairs that
the topology rows keep uncovered.  It starts from every other source
(``coverage-unique`` against that source's fixed ``u = 1``) and takes in a
dead node's wire component (``wire-consistent``) and its descendants in k's
orientation (``coverage-parent``).  Of a dead pair, ``u`` and ``volt_sq``
are fixed at 0, and so are ``flow_p``, ``flow_q``, ``curr_sq`` and, on a
bracketed line, ``y_p``, ``y_q`` and ``y_v`` of the line of k's orientation
into it; the pair has no balance, drop, line-limit, current, ``volt-cover``
or bracket row and no cone.  The topology rows stay: they are the proof.
The columns stay too, so the catalog and the plan keep every entry.  LP
bound propagation derives each fixing but the ``y`` ones from the rows they
replace.  Those follow from the MIP: at zero current and flow, every
variant whose selector is 0 brackets ``y`` at 0, and ``reorder-pick-one``
leaves at least one such variant, so every integral point has ``y = 0``
there; a fractional selector would let the LP relaxation move it.  A case
with one source has no dead pair.

Row families (each row's family code names one):

  coverage-parent        a node is covered only if its upstream node is
  coverage-unique        at most one microgrid covers a node
  switch-split           open switch endpoints cannot share a microgrid
  switch-join            closed switch endpoints share coverage (two rows)
  wire-consistent        non-switch line endpoints always share coverage
  tree-count             closed line count equals nodes minus sources
  flow-demand            every non-source node draws one unit of commodity
  flow-root              every source ships at least one unit
  flow-gate              commodity flows only on a closed switch
  gear-in-topology       a switchgear can close only inside the topology
  gear-energize-cover    a switchgear can close only if its lateral is covered
  swap-col-once          a lateral conductor lands on at most one feeder phase
  swap-row-once          a feeder phase accepts at most one lateral conductor
  swap-open-or-full      fully open or a full permutation, tied to closing
  swap-event-extract     binary extraction of new-connection events
  swap-event-or          per-feeder-phase OR of connection events
  inrush-pin             closing pins the voltage difference to its physics
  inrush-zero            no closing event, no voltage difference
  inrush-def             inrush current from the voltage step and rise time
  inrush-limit           inrush magnitude within the switchgear rating
  inrush-guard           closing-step magnitude and angle parts jointly capped
                         at sqrt(2) x rating (no cancellation)
  voltdiff-cap           optional explicit cap on the closing voltage step
  ferro-gate             energizing requires enough damping load downstream
  ferro-sequence         the gate is checked at every closing transition
  ess-exclusive          charge and discharge do not overlap
  ess-energy             stored energy bookkeeping with efficiencies
  ess-charge-lim         per-phase charging bound when enabled
  ess-discharge-lim      per-phase discharging bound when enabled
  lateral-load-map-p     lateral active demand routed through the swap matrix
  lateral-load-map-q     lateral reactive demand routed through the swap matrix
  load-pickup-lim        covered feeder demand may be served, or shed
  load-pq-ratio          partial pickup preserves the load power factor
  balance-p              per-node per-microgrid active power balance; a node
                         with a parent line holds it as two rows, relaxed by
                         big-M outside the microgrid
  balance-q              the same for reactive power
  volt-drop              squared-voltage drop along a line, two rows relaxed
                         by big-M outside the microgrid or across an open
                         coupling
  cone                   rotated cone relaxation of flow vs current
  gear-flow-gate         open switchgear carries no flow
  lateral-curr-gate      de-energized lateral carries no current
  reorder-bracket-p      active loss product under the selected reordering,
                         big-M bracketed, on a lateral line whose six
                         reorderings differ (on any other line the products
                         are plain coefficients)
  reorder-bracket-q      the same for the reactive loss product
  reorder-bracket-v      the same for the voltage drop
  reorder-select         mismatch between swap and a reordering variant
  reorder-pick-one       at least one reordering variant is active
  ess-line-p-lim         microgrid line active flow within the source rating
  ess-line-q-lim         microgrid line reactive flow within the source rating
  volt-range             a covered node's voltage is at least v_min
  volt-cover             voltage at most v_max, and zero outside the covering
                         microgrid
  current-lim            squared current within ampacity when covered
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ugrestore import bigm
from ugrestore.catalog import VariableCatalog
from ugrestore.feeder import FeederCase, Switchgear, equivalent_capacitance
from ugrestore.model import SENSE_EQ, SENSE_GE, SENSE_LE, LinearModel, ModelBuilder, RowBlock
from ugrestore.physics import PERMUTATIONS, inrush_coefficient_pu, q_gate_load_threshold
from ugrestore.quantile import normal_quantile


class UnformulatableError(ValueError):
    pass


@dataclass(frozen=True)
class BuildOptions:
    no_swap: bool = False
    ferro_gate: bool = True
    fixed_reorder: dict[str, int] | None = None  # gear id -> variant index


@dataclass
class Orientation:
    root: str
    parent_line: dict[str, int] = field(default_factory=dict)
    parent_node: dict[str, str] = field(default_factory=dict)
    children: dict[str, list[tuple[int, str]]] = field(default_factory=dict)
    direction: dict[int, tuple[str, str]] = field(default_factory=dict)
    order: list[str] = field(default_factory=list)


def orient_from(case: FeederCase, root: str) -> Orientation:
    """Deterministic breadth-first orientation of the full line graph."""
    o = Orientation(root=root)
    o.children = {root: []}
    o.order = [root]
    seen = {root}
    queue = deque([root])
    while queue:
        nid = queue.popleft()
        for line in sorted(case.lines_at(nid), key=lambda l: l.index):
            other = line.to_node if line.from_node == nid else line.from_node
            if other in seen:
                continue
            seen.add(other)
            o.parent_line[other] = line.index
            o.parent_node[other] = nid
            o.children.setdefault(nid, []).append((line.index, other))
            o.children.setdefault(other, [])
            o.direction[line.index] = (nid, other)
            o.order.append(other)
            queue.append(other)
    return o


def dead_pairs(case: FeederCase, orient: list[Orientation]) -> np.ndarray:
    """The (node, microgrid) pairs that the topology rows keep uncovered, as an (N, K) mask.

    For microgrid k the map starts from every other source: ``u[src_j, j]``
    is fixed at 1, so ``coverage-unique`` forces ``u[src_j, k] = 0``.  It
    then takes in a dead node's whole wire component (``wire-consistent``)
    and its children in ``orient[k]`` (``coverage-parent``), up to a
    fixpoint.  Source k itself never enters k's map: were it reached, its
    fixed ``u = 1`` would already make the rows infeasible, and the model
    keeps that for an LP to find.
    """
    wired: dict[str, list[str]] = {n.id: [] for n in case.nodes}
    for l in case.lines:
        if not l.is_switch:
            wired[l.from_node].append(l.to_node)
            wired[l.to_node].append(l.from_node)
    dead = np.zeros((len(case.nodes), len(orient)), dtype=bool)
    for k, o in enumerate(orient):
        stack = [other.root for other in orient]
        while stack:
            nid = stack.pop()
            n = case.node_index[nid]
            if dead[n, k] or nid == o.root:
                continue
            dead[n, k] = True
            stack += wired[nid]
            stack += [child for _, child in o.children[nid]]
    return dead


def derated_multiplier(sigma: float, confidence: float) -> float:
    """Risk-averse renewable capacity multiplier, clamped at zero.

    ``1 + sigma * quantile(1 - confidence)``; the quantile is negative for
    confidence above one half, so the multiplier shrinks the forecast.  A
    negative result means the unit is fully curtailed at this confidence.
    """
    if not 0.5 < confidence < 1.0:
        raise UnformulatableError("confidence must lie in (0.5, 1)")
    return max(0.0, 1.0 + sigma * normal_quantile(1.0 - confidence))


def gate_threshold_pu(case: FeederCase, gear: Switchgear) -> float:
    """Restored-load level below which energizing the lateral is unsafe."""
    c_eq = equivalent_capacitance(gear, case)
    if c_eq <= 0.0:
        return 0.0
    return q_gate_load_threshold(c_eq, gear.q_max, gear.zip_z, case.config.nominal_voltage_sq)


def lateral_demand_pu(case: FeederCase, gear: Switchgear, t: int) -> float:
    return float(sum(case.node(n).load_p[t].sum() for n in gear.downstream_nodes))


def bypass_eligible(case: FeederCase, gear: Switchgear) -> bool:
    """Crew-assisted gate bypass is offered only when natural damping is slow.

    Eligible when the first period with enough downstream demand lies beyond
    the configured delay limit (or never arrives).
    """
    thr = gate_threshold_pu(case, gear)
    if thr <= 0.0:
        return False
    delay_periods = case.config.q_gate_delay_limit_h / case.period_hours
    for t in range(case.horizon):
        if lateral_demand_pu(case, gear, t) >= thr:
            return t > delay_periods
    return True


# ---------------------------------------------------------------------------


_GAMMA_BAR = np.outer(
    np.array([1.0, np.exp(-2j * np.pi / 3.0), np.exp(2j * np.pi / 3.0)]),
    np.conj(np.array([1.0, np.exp(-2j * np.pi / 3.0), np.exp(2j * np.pi / 3.0)])),
)


def hat_matrices(z: np.ndarray, quadratic_term: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Voltage-drop coefficient matrices for a (possibly reordered) impedance.

    ``r_hat``/``x_hat`` come from the balanced-rotation weighting of the
    conjugate impedance; the quadratic current term reduces to the classic
    -(r^2+x^2) form on the diagonal.
    """
    w = _GAMMA_BAR * np.conj(z)
    r_hat = w.real.copy()
    x_hat = -w.imag.copy()
    z_hat = -(np.abs(z) ** 2) if quadratic_term else np.zeros((3, 3))
    return r_hat, x_hat, z_hat


@dataclass
class _LineCoeffs:
    r: np.ndarray
    x: np.ndarray
    r_hat: np.ndarray
    x_hat: np.ndarray
    z_hat: np.ndarray


def _line_coeffs(z: np.ndarray, quadratic_term: bool) -> _LineCoeffs:
    r_hat, x_hat, z_hat = hat_matrices(z, quadratic_term)
    return _LineCoeffs(r=z.real, x=z.imag, r_hat=r_hat, x_hat=x_hat, z_hat=z_hat)


def line_variants(case: FeederCase, line_idx: int) -> list[_LineCoeffs]:
    """The six phase-reordered coefficient sets for one lateral line."""
    z = case.lines[line_idx].z
    quad = case.config.voltage_drop_quadratic_term
    return [_line_coeffs(perm @ z @ perm.T, quad) for perm in PERMUTATIONS]


# The six bracket rows of one (line, microgrid, period, phase, variant), in
# emission order: each product pair states <= then >=.
_BRACKET_FAMILIES = (["reorder-bracket-p", "reorder-bracket-q", "reorder-bracket-v"], np.repeat(np.arange(3), 2))
_BRACKET_SENSE = np.array([SENSE_LE, SENSE_GE] * 3, dtype=np.int8)


def _bracket_coefficients(variants: list[_LineCoeffs], amp_sq: float, m_flow: float) -> np.ndarray:
    """Bracket row coefficients of one lateral line, shape (ph, variant, row, term).

    Per phase and variant the rows are ``y_p - r I``, ``y_q - x I`` and
    ``y_v - 2 r_hat P - 2 x_hat Q - z_hat I``, each held at 0 unless the
    variant's selector z is 0 (``-/+ m z``, <= then >=), with I, P and Q
    the line's three squared currents and flows.  A p or q row's terms are
    y, the three I and z, zero-padded to the 11 of a v row: y, the three
    P, the three Q, the three I and z.
    """
    stack = {f: np.stack([getattr(c, f) for c in variants]) for f in ("r", "x", "r_hat", "x_hat", "z_hat")}
    m_p = bigm.reorder_power_bracket(stack["r"], amp_sq)
    m_q = bigm.reorder_power_bracket(stack["x"], amp_sq)
    m_v = bigm.reorder_voltage_bracket(stack["r_hat"], stack["x_hat"], stack["z_hat"], amp_sq, m_flow)

    def by_phase(a: np.ndarray) -> np.ndarray:  # (variant, ph, ps) -> (ph, variant, 1, ps)
        return a.transpose(1, 0, 2)[:, :, None, :]

    vals = np.zeros((3, 6, 6, 11))
    vals[..., 0] = 1.0
    vals[:, :, 0:2, 1:4] = -by_phase(stack["r"])
    vals[:, :, 2:4, 1:4] = -by_phase(stack["x"])
    vals[:, :, 4:6, 1:4] = -by_phase(2.0 * stack["r_hat"])
    vals[:, :, 4:6, 4:7] = -by_phase(2.0 * stack["x_hat"])
    vals[:, :, 4:6, 7:10] = -by_phase(stack["z_hat"])
    vals[:, :, 0:2, 4] = (-m_p, m_p)
    vals[:, :, 2:4, 4] = (-m_q, m_q)
    vals[:, :, 4:6, 10] = (-m_v, m_v)
    return vals


class _Ctx:
    """Shared build state threaded through the family encoders."""

    def __init__(self, case: FeederCase, opts: BuildOptions) -> None:
        self.case = case
        self.opts = opts
        self.cat = VariableCatalog()
        self.b = ModelBuilder(self.cat)
        self.T = case.horizon
        self.dt = case.period_hours
        self.ess = case.ess_units
        self.K = len(self.ess)
        self.res = case.res_units
        self.orient = [orient_from(case, e.node) for e in self.ess]
        # No power flow of microgrid k is built at a node its map rules out,
        # nor on the line of orient[k] into it.
        self.dead = dead_pairs(case, self.orient)
        self.dead_line = np.zeros((len(case.lines), self.K), dtype=bool)
        for k, o in enumerate(self.orient):
            for li, (_, j) in o.direction.items():
                self.dead_line[li, k] = self.dead[case.node_index[j], k]
        self.m_dv = bigm.voltage_diff_bound(case)
        self.m_flow = bigm.flow_bound(case)
        self.m_volt = case.config.v_max_sq
        self.m_fict = float(len(case.nodes))
        # A lateral line is bracketed when a phase swap changes its
        # coefficients, that is when its six reorderings are not all equal;
        # under ``fixed_reorder`` none is.  Every other line reads its one
        # coefficient set from ``coeffs``.
        self.coeffs: dict[int, _LineCoeffs] = {}
        self.bracketed: dict[int, list[_LineCoeffs]] = {}
        for line in case.lines:
            li = line.index
            gear = case.gear_of_downstream_line(li)
            if gear is None:
                self.coeffs[li] = _line_coeffs(line.z, case.config.voltage_drop_quadratic_term)
                continue
            variants = line_variants(case, li)
            if opts.fixed_reorder is not None:
                self.coeffs[li] = variants[opts.fixed_reorder.get(gear.id, 0)]
            elif all(
                np.array_equal(getattr(v, f), getattr(variants[0], f))
                for v in variants[1:]
                for f in ("r", "x", "r_hat", "x_hat", "z_hat")
            ):
                self.coeffs[li] = variants[0]
            else:
                self.bracketed[li] = variants
        self.gate_thr = {g.id: gate_threshold_pu(case, g) for g in case.switchgears}
        self.c_eq = {g.id: equivalent_capacitance(g, case) for g in case.switchgears}
        # Squared ampacity per (line, phase).  A swap can land any conductor
        # of a lateral or coupling line on any phase, so such a line takes
        # its largest rating on all three.
        self.amp_sq = np.array(
            [
                [float(np.max(line.ampacity_pu)) ** 2] * 3
                if self.swappable_line(line.index)
                else [float(line.ampacity_pu[ph]) ** 2 for ph in range(3)]
                for line in case.lines
            ]
        ).reshape(len(case.lines), 3)
        self.gear_pos = {g.id: i for i, g in enumerate(case.switchgears)}
        self.bracket_pos = {li: i for i, li in enumerate(sorted(self.bracketed))}
        self.bracket_lines = {
            g.id: [li for li in g.downstream_lines if li in self.bracketed] for g in case.switchgears
        }
        self.bracket_coeffs = {
            gid: np.stack(
                [_bracket_coefficients(self.bracketed[li], self.amp_sq[li, 0], self.m_flow) for li in lines]
            )
            for gid, lines in self.bracket_lines.items()
            if lines
        }
        # column index grids, filled by _add_columns
        self.grid: dict[str, np.ndarray] = {}

    def swappable_line(self, line_idx: int) -> bool:
        """A lateral or coupling line, whose conductors a swap can land on any phase."""
        case = self.case
        return case.gear_of_downstream_line(line_idx) is not None or case.gear_of_line(line_idx) is not None

    def node_phases(self, node_id: str) -> tuple[int, ...]:
        if self.case.gear_of_downstream_node(node_id) is not None:
            return (0, 1, 2)
        return self.case.node(node_id).phases

    def line_phases(self, line_idx: int) -> tuple[int, ...]:
        if self.swappable_line(line_idx):
            return (0, 1, 2)
        return self.case.lines[line_idx].phases


def _add_columns(ctx: _Ctx) -> None:
    case, cat, T, K = ctx.case, ctx.cat, ctx.T, ctx.K
    gears = case.switchgears
    B = len(ctx.bracketed)
    grid = ctx.grid
    nodes, lines, gear_ids = [n.id for n in case.nodes], [l.index for l in case.lines], [g.id for g in gears]
    ks, ts, phs = range(K), range(T), range(3)

    grid["u"] = cat.add_group("u", nodes, ks, binary=True).grid
    for k, e in enumerate(ctx.ess):
        cat.fix(cat.col("u", (e.node, k)), 1.0)

    cat.add_group("gamma", lines, binary=True)
    for l in case.lines:
        if not l.is_switch:
            cat.fix(cat.col("gamma", l.index), 1.0)
    cat.add_group("fict_flow", lines, lb=-ctx.m_fict, ub=ctx.m_fict)

    grid["beta"] = cat.add_group("beta", gear_ids, ts, binary=True).grid
    grid["alpha"] = cat.add_group("alpha", gear_ids, ts, binary=True).grid
    grid["swap"] = cat.add_group("swap", gear_ids, ts, phs, phs, binary=True).grid
    if ctx.opts.no_swap:
        cat.fix(grid["swap"][:, :, ~np.eye(3, dtype=bool)], 0.0)
    grid["swap_event"] = cat.add_group("swap_event", gear_ids, ts, phs, phs, binary=True).grid
    grid["swap_any"] = cat.add_group("swap_any", gear_ids, ts, phs, binary=True).grid
    grid["reorder_sel"] = cat.add_group("reorder_sel", gear_ids, ts, range(6), binary=True).grid
    cat.add_group("gate_bypass", gear_ids, binary=True)
    for g in gears:
        if not (ctx.opts.ferro_gate and bypass_eligible(case, g)):
            cat.fix(cat.col("gate_bypass", g.id), 0.0)

    w = case.config.angle_window_rad
    ctx.inr_coef = {
        g.id: inrush_coefficient_pu(
            ctx.c_eq[g.id], case.config.inrush_rise_time_s, case.config.base_kv, case.config.base_mva
        )
        for g in gears
    }
    inr_ub = np.array([ctx.inr_coef[g.id] * ctx.m_dv for g in gears]).reshape(-1, 1, 1)
    for name, lb, ub in (
        ("angle_diff", -w, w),
        ("volt_diff", -ctx.m_dv, ctx.m_dv),
        ("inrush_mag", 0.0, ctx.m_dv),
        ("inrush_ang", 0.0, w),
        ("inrush", -inr_ub, inr_ub),
    ):
        grid[name] = cat.add_group(name, gear_ids, ts, phs, lb=lb, ub=ub).grid

    def per_unit(units, attr):  # one row of phase values per unit, the same in every period
        return np.array([getattr(u, attr) for u in units]).reshape(-1, 1, 3)

    cat.add_group("ess_ch_on", ks, ts, binary=True)
    cat.add_group("ess_dis_on", ks, ts, binary=True)
    cat.add_group("ess_ch", ks, ts, phs, lb=0.0, ub=per_unit(ctx.ess, "charge_max_pu"))
    cat.add_group("ess_dis", ks, ts, phs, lb=0.0, ub=per_unit(ctx.ess, "discharge_max_pu"))
    q_max = per_unit(ctx.ess, "reactive_max_pu")
    cat.add_group("ess_q", ks, ts, phs, lb=-q_max, ub=q_max)
    energy = np.array([[case.ess_energy_pu_h(e)] for e in ctx.ess])
    soc_min, soc_max = (np.array([[getattr(e, f)] for e in ctx.ess]) * energy for f in ("soc_min", "soc_max"))
    cat.add_group("ess_soc", ks, ts, lb=soc_min, ub=soc_max)

    # the chance constraint is these bounds: output within the derated
    # forecast, reactive support within the rating
    units = range(len(ctx.res))
    forecast = np.array([u.forecast_pu * derated_multiplier(u.sigma, u.confidence) for u in ctx.res])
    cat.add_group("res_p", units, ts, phs, lb=0.0, ub=forecast.reshape(-1, T, 3))
    q_max = per_unit(ctx.res, "reactive_max_pu")
    cat.add_group("res_q", units, ts, phs, lb=-q_max, ub=q_max)

    # (t, ph) load bounds per node; a lateral node's conductor may land on
    # any phase, so each phase takes the period's largest demand
    p_ub, q_ub, q_lb = [], [], []
    for n in case.nodes:
        if case.gear_of_downstream_node(n.id) is not None:
            p_ub.append(np.repeat(n.load_p.max(axis=1), 3))
            q_ub.append(np.repeat(np.abs(n.load_q).max(axis=1), 3))
            q_lb.append(-q_ub[-1])
        else:
            p_ub.append(n.load_p.ravel())
            q_ub.append(np.maximum(n.load_q, 0.0).ravel())
            q_lb.append(np.minimum(n.load_q, 0.0).ravel())
    grid["load_p"] = cat.add_group("load_p", nodes, ts, phs, lb=0.0, ub=np.concatenate(p_ub)).grid
    grid["load_q"] = cat.add_group("load_q", nodes, ts, phs, lb=np.concatenate(q_lb), ub=np.concatenate(q_ub)).grid

    for name in ("flow_p", "flow_q"):
        grid[name] = cat.add_group(name, lines, ks, ts, phs, lb=-ctx.m_flow, ub=ctx.m_flow).grid
    grid["curr_sq"] = cat.add_group("curr_sq", lines, ks, ts, phs, lb=0.0, ub=ctx.amp_sq[:, None, None, :]).grid
    grid["volt_sq"] = cat.add_group("volt_sq", nodes, ks, ts, phs, lb=0.0, ub=case.config.v_max_sq).grid

    # Loss products inherit the coefficient signs: with non-negative
    # resistance entries the active product cannot go negative, which
    # keeps the relaxation from minting power through the loss term.
    # Columns: p lower/upper, q lower/upper, |v|, one row per line.
    ybounds = np.zeros((B, 5))
    for l, i in ctx.bracket_pos.items():
        amp_sq = ctx.amp_sq[l, 0]
        var = ctx.bracketed[l]
        stack_r = np.stack([c.r for c in var])
        stack_x = np.stack([c.x for c in var])
        ybounds[i] = (
            3.0 * min(0.0, float(np.min(stack_r))) * amp_sq,
            3.0 * max(0.0, float(np.max(stack_r))) * amp_sq,
            3.0 * min(0.0, float(np.min(stack_x))) * amp_sq,
            3.0 * max(0.0, float(np.max(stack_x))) * amp_sq,
            6.0 * float(np.max(np.abs(stack_r))) * ctx.m_flow
            + 6.0 * float(np.max(np.abs(stack_x))) * ctx.m_flow
            + 3.0 * float(np.max(np.abs(np.stack([c.z_hat for c in var])))) * amp_sq,
        )
    ybounds = ybounds[:, :, None, None, None]  # over (microgrid, period, phase)
    bracketed = sorted(ctx.bracketed)
    for name, lb, ub in (
        ("y_p", ybounds[:, 0], ybounds[:, 1]),
        ("y_q", ybounds[:, 2], ybounds[:, 3]),
        ("y_v", -ybounds[:, 4], ybounds[:, 4]),
    ):
        grid[name] = cat.add_group(name, bracketed, ks, ts, phs, lb=lb, ub=ub).grid

    # Phase masks: fix columns for conductors that do not exist.
    for n in case.nodes:
        for ph in set(range(3)) - set(ctx.node_phases(n.id)):
            cat.fix(grid["volt_sq"][case.node_index[n.id], :, :, ph], 0.0)
    for l in case.lines:
        for ph in set(range(3)) - set(ctx.line_phases(l.index)):
            for name in ("flow_p", "flow_q", "curr_sq"):
                cat.fix(grid[name][l.index, :, :, ph], 0.0)
    # Dead pairs (``_Ctx.dead``): coverage and voltage of each, and the
    # flows, current and loss products of each line into one.
    for name in ("u", "volt_sq"):
        cat.fix(grid[name][ctx.dead], 0.0)
    for name in ("flow_p", "flow_q", "curr_sq"):
        cat.fix(grid[name][ctx.dead_line], 0.0)
    for name in ("y_p", "y_q", "y_v"):
        cat.fix(grid[name][ctx.dead_line[bracketed]], 0.0)


# -- topology ----------------------------------------------------------------


def _encode_topology(ctx: _Ctx) -> None:
    case, cat, b = ctx.case, ctx.cat, ctx.b
    K = ctx.K
    for k in range(K):
        o = ctx.orient[k]
        for nid in o.order:
            if nid == o.root:
                continue
            b.add(
                "coverage-parent",
                [
                    (cat.col("u", (nid, k)), 1.0),
                    (cat.col("u", (o.parent_node[nid], k)), -1.0),
                ],
                SENSE_LE,
                0.0,
            )
    for n in case.nodes:
        b.add(
            "coverage-unique",
            [(cat.col("u", (n.id, k)), 1.0) for k in range(K)],
            SENSE_LE,
            1.0,
        )
    for l in case.lines:
        for k in range(K):
            ui = cat.col("u", (l.from_node, k))
            uj = cat.col("u", (l.to_node, k))
            if l.is_switch:
                gcol = cat.col("gamma", l.index)
                b.add("switch-split", [(ui, 1.0), (uj, 1.0), (gcol, -1.0)], SENSE_LE, 1.0)
                b.add("switch-join", [(ui, 1.0), (uj, -1.0), (gcol, 1.0)], SENSE_LE, 1.0)
                b.add("switch-join", [(ui, -1.0), (uj, 1.0), (gcol, 1.0)], SENSE_LE, 1.0)
            else:
                b.add("wire-consistent", [(ui, 1.0), (uj, -1.0)], SENSE_EQ, 0.0)
    encode_radiality(ctx)


def encode_radiality(ctx: _Ctx) -> None:
    """Spanning-forest rows: a count plus a single-commodity feasibility check.

    The count row fixes the number of closed lines at nodes minus sources,
    and ``flow-gate`` lets the commodity use a switch only while ``gamma``
    closes it, so commodity feasibility certifies that every node is
    connected to exactly one source through closed lines.
    """
    case, cat, b = ctx.case, ctx.cat, ctx.b
    n_nodes, n_roots = len(case.nodes), ctx.K
    b.add(
        "tree-count",
        [(cat.col("gamma", l.index), 1.0) for l in case.lines],
        SENSE_EQ,
        float(n_nodes - n_roots),
    )
    roots = {e.node for e in ctx.ess}
    for n in case.nodes:
        terms = []
        for l in case.lines_at(n.id):
            sign = 1.0 if l.to_node == n.id else -1.0
            terms.append((cat.col("fict_flow", l.index), sign))
        if n.id in roots:
            # a source wired to a neighbor always feeds it; a source whose
            # every connection is switchable may legitimately stand alone,
            # so the ship-at-least-one-unit row is emitted only where it
            # cannot wrongly forbid that
            if any(not l.is_switch for l in case.lines_at(n.id)):
                b.add("flow-root", [(c, -s) for c, s in terms], SENSE_GE, 1.0)
        else:
            b.add("flow-demand", terms, SENSE_EQ, 1.0)
    for l in case.switch_lines:
        fcol = cat.col("fict_flow", l.index)
        gcol = cat.col("gamma", l.index)
        b.add("flow-gate", [(fcol, 1.0), (gcol, -ctx.m_fict)], SENSE_LE, 0.0)
        b.add("flow-gate", [(fcol, -1.0), (gcol, -ctx.m_fict)], SENSE_LE, 0.0)


# -- switchgear scheduling ---------------------------------------------------


def _block(key, family, terms, sense, rhs, keep=None) -> RowBlock:
    """Rows over one index grid, row ``i`` at the grid's ``i``-th point in C order.

    ``terms`` are ``(col, coef)`` pairs of arrays; they, ``key``, ``sense``,
    ``rhs`` and ``keep`` broadcast to the grid's shape.  ``keep`` drops the
    rows where it is False.
    """
    arrays = [a for term in terms for a in term] + [key, sense, rhs] + ([] if keep is None else [keep])
    shape = np.broadcast_shapes(*(np.shape(a) for a in arrays))
    rows = slice(None) if keep is None else np.flatnonzero(np.broadcast_to(keep, shape))

    def flat(a, dtype) -> np.ndarray:
        return np.broadcast_to(np.asarray(a, dtype=dtype), shape).reshape(-1)[rows]

    return RowBlock(
        flat(key, np.int64),
        family,
        np.stack([flat(c, np.int64) for c, _ in terms], axis=-1),
        np.stack([flat(v, np.float64) for _, v in terms], axis=-1),
        flat(sense, np.int8),
        flat(rhs, np.float64),
    )


class _GearRows:
    """Switchgear rows, emitted switchgear by switchgear and period by period.

    Within one (switchgear, period) the steps of :func:`_encode_switchgears`
    come in order, and within a step the rows of a ``sub`` position (a
    phase, say) come block by block, each block's in grid order.
    """

    STEPS = 6
    SUBS = 16

    def __init__(self, ctx: _Ctx) -> None:
        self.gt = np.arange(len(ctx.case.switchgears) * ctx.T).reshape(-1, ctx.T)
        self.blocks: list[RowBlock] = []
        self.step = 0

    def key(self, ndim: int = 2) -> np.ndarray:
        """The keys of the current step's rows at ``sub`` 0, one per (switchgear, period), of ``ndim`` axes."""
        gt = self.gt.reshape(self.gt.shape + (1,) * (ndim - 2))
        return (gt * self.STEPS + self.step) * self.SUBS

    def add(self, family, terms, sense, rhs, sub=0, keep=None) -> None:
        """A :func:`_block` over a grid of shape ``(G, T, ...)``, its rows at ``sub`` (broadcast over ``...``)."""
        ndim = len(np.broadcast_shapes(*(np.shape(a) for term in terms for a in term)))
        self.blocks.append(_block(self.key(ndim) + sub, family, terms, sense, rhs, keep))


def encode_swap_structure(ctx: _Ctx, rows: _GearRows) -> None:
    """A swap matrix is empty (open) or a permutation (closed)."""
    sw, beta = ctx.grid["swap"], ctx.grid["beta"]
    rows.add("swap-col-once", [(sw[:, :, ph, :], 1.0) for ph in range(3)], SENSE_LE, 1.0)
    rows.add("swap-row-once", [(sw[:, :, :, ps], 1.0) for ps in range(3)], SENSE_LE, 1.0)
    terms = [(sw[:, :, ph, ps], 1.0) for ph in range(3) for ps in range(3)] + [(beta, -3.0)]
    rows.add("swap-open-or-full", terms, SENSE_EQ, 0.0)


def encode_swap_transition(ctx: _Ctx, rows: _GearRows) -> None:
    """Event-extraction and OR rows for every switchgear period.

    The event flag per matrix entry is pinned by two inequalities to equal
    ``max(0, swap[t] - swap[t-1])`` (``swap[-1]`` reads as zero), which
    reproduces the full connection scenario table; the per-feeder-phase flag
    then ORs the three entries.
    """
    grid = ctx.grid
    sw, ev, x = grid["swap"], grid["swap_event"], grid["swap_any"]
    prev = np.concatenate([sw[:, :1], sw[:, :-1]], axis=1)  # at t = 0 a placeholder of coefficient 0
    after = (np.arange(ctx.T) >= 1).astype(float)[None, :, None, None]
    delta = [(sw, -1.0), (prev, after)]
    sub = np.arange(9).reshape(3, 3)  # rows per (ph, ps): >= then <=
    rows.add("swap-event-extract", [(ev, 1.0)] + delta, SENSE_GE, 0.0, sub)
    rows.add("swap-event-extract", [(ev, 2.0)] + delta, SENSE_LE, 1.0, sub)
    evs = [ev[..., ps] for ps in range(3)]
    sub = 9 + np.arange(3)
    rows.add("swap-event-or", [(e, 1.0) for e in evs] + [(x, -3.0)], SENSE_LE, 0.0, sub)
    rows.add("swap-event-or", [(x, 1.0)] + [(e, -1.0) for e in evs], SENSE_LE, 0.0, sub)


def encode_inrush_gate(ctx: _Ctx, rows: _GearRows) -> None:
    """Voltage-difference pinning, zeroing, current definition and limits.

    The linearized step ``(V_f^2 - V_t^2) / 2 + theta`` is a near-synchronism
    form.  Under the signed limit alone, a closing can cancel a large
    magnitude part against a large opposite angle part: the linear step
    passes while the physical phasor step, which adds the parts in
    quadrature, far exceeds it.  On a closing event the ``inrush-guard`` rows
    bound the two parts by ``inrush_mag`` and ``inrush_ang`` and cap them
    jointly, with ``coef`` the inrush per unit of step::

        coef * (f_mag * inrush_mag + v_max * inrush_ang) <= sqrt(2) * rating

    ``f_mag = 2 / (v_min + sqrt(min trapped_v_sq))``, clamped to
    [1, sqrt(2)], turns the magnitude part into a bound on |V_f - V_t|, and
    v_max bounds sqrt(V_f V_t) in the angle part.  So one weighted cap, not
    two separate ones, matches the validator's ``inrush-exact-bracket``.
    Inside the validity domain (feeder and trapped voltages within
    [v_min, v_max], |theta| <= ``angle_window_rad``, v_max <= sqrt(2), and
    v_min + sqrt(min trapped_v_sq) >= sqrt(2) so the clamp is idle) every
    step that passes the guard has an exact inrush of at most sqrt(2) *
    rating, and a step whose two parts share a sign passes the guard
    whenever it passes the plain limit.

    The schema admits ``trapped_voltage_sq`` down to 0, but below about
    ``(sqrt(2) - v_min)^2`` the sqrt(2) clamp on f_mag would stop the guard
    from bounding the exact step (with trapped 0 and V_f = 1 an exact inrush
    of 2 * rating would pass).  The linearized step is only meant near
    1 p.u., so ``feeder.load_case_dict`` refuses such a switchgear rather
    than this build deriving a guard for it.
    """
    case, grid = ctx.case, ctx.grid
    gears = case.switchgears
    m = ctx.m_dv
    w = case.config.angle_window_rad
    v_max = math.sqrt(case.config.v_max_sq)

    def per_gear(values) -> np.ndarray:  # one value per switchgear, on the (G, T, ph) grid
        return np.array(values, dtype=float).reshape(-1, 1, 1)

    coef = per_gear([ctx.inr_coef[g.id] for g in gears])
    limit = per_gear([g.inrush_limit_pu for g in gears])
    f_mag = [2.0 / (math.sqrt(case.config.v_min_sq) + math.sqrt(float(np.min(g.trapped_v_sq)))) for g in gears]
    f_mag = per_gear([min(max(f, 1.0), math.sqrt(2.0)) for f in f_mag])
    trap = np.array([g.trapped_v_sq for g in gears], dtype=float).reshape(-1, 1, 1, 3)
    feeder = [case.node_index[g.feeder_node] for g in gears]
    dv, x, inr = grid["volt_diff"], grid["swap_any"], grid["inrush"]
    s_mag, s_ang, theta = grid["inrush_mag"], grid["inrush_ang"], grid["angle_diff"]
    # the magnitude part (V_f^2 - V_t^2) / 2 of the step, V_t^2 read through the swap
    mag_terms = [(grid["volt_sq"][feeder, k], 0.5) for k in range(ctx.K)]
    mag_terms += [(grid["swap"][..., ps], -0.5 * trap[..., ps]) for ps in range(3)]
    f_terms = mag_terms + [(theta, 1.0)]
    neg = [(c, -v) for c, v in f_terms]
    neg_mag = [(c, -v) for c, v in mag_terms]
    sub = np.arange(3)  # every row of one phase, then the next phase's
    ph_rows = [
        # dv - F <= M (1 - x)  and  F - dv <= M (1 - x)
        ("inrush-pin", [(dv, 1.0)] + neg + [(x, m)], SENSE_LE, m),
        ("inrush-pin", [(dv, -1.0)] + f_terms + [(x, m)], SENSE_LE, m),
        ("inrush-zero", [(dv, 1.0), (x, -m)], SENSE_LE, 0.0),
        ("inrush-zero", [(dv, -1.0), (x, -m)], SENSE_LE, 0.0),
        ("inrush-def", [(inr, 1.0), (dv, -coef)], SENSE_EQ, 0.0),
        ("inrush-limit", [(inr, 1.0)], SENSE_LE, limit),
        ("inrush-limit", [(inr, -1.0)], SENSE_LE, limit),
        # s_mag >= +/- magnitude component, s_ang >= +/- angle, when closing
        ("inrush-guard", [(s_mag, 1.0)] + neg_mag + [(x, -m)], SENSE_GE, -m),
        ("inrush-guard", [(s_mag, 1.0)] + mag_terms + [(x, -m)], SENSE_GE, -m),
        ("inrush-guard", [(s_ang, 1.0), (theta, -1.0), (x, -w)], SENSE_GE, -w),
        ("inrush-guard", [(s_ang, 1.0), (theta, 1.0), (x, -w)], SENSE_GE, -w),
    ]
    for family, terms, sense, rhs in ph_rows:
        rows.add(family, terms, sense, rhs, sub)
    joint = np.broadcast_to(coef > 0.0, dv.shape)
    rows.add(
        "inrush-guard",
        [(s_mag, coef * f_mag), (s_ang, coef * v_max)],
        SENSE_LE,
        math.sqrt(2.0) * limit,
        sub,
        keep=joint,
    )
    if case.config.delta_v_max_pu is not None:
        cap = case.config.delta_v_max_pu
        rows.add("voltdiff-cap", [(dv, 1.0)], SENSE_LE, cap, sub)
        rows.add("voltdiff-cap", [(dv, -1.0)], SENSE_LE, cap, sub)


def encode_q_gate(ctx: _Ctx, rows: _GearRows) -> None:
    """Damping gate as a linear lower bound on restored downstream load.

    The Q-factor chain (damping resistance from the constant-impedance load
    share, resonance-matched inductance) inverts algebraically into a
    threshold on total restored lateral demand; the energize flag is only
    admissible above it, unless a crew bypass is spent.
    """
    case, cat, grid = ctx.case, ctx.cat, ctx.grid
    T = ctx.T
    bypass = cat.group("gate_bypass").start
    for i, g in enumerate(case.switchgears):
        thr = ctx.gate_thr[g.id]
        if not (ctx.opts.ferro_gate and thr > 0.0):
            continue
        load = grid["load_p"][[case.node_index[n] for n in g.downstream_nodes]]  # (node, t, ph)
        terms = [(load[j, :, ph], 1.0) for j in range(len(g.downstream_nodes)) for ph in range(3)]
        terms += [(grid["alpha"][i], -thr), (bypass + i, thr)]
        rows.blocks.append(_block(rows.key()[i], "ferro-gate", terms, SENSE_GE, 0.0))
    alpha, beta = grid["alpha"], grid["beta"]
    prev = np.concatenate([beta[:, :1], beta[:, :-1]], axis=1)  # at t = 0 a placeholder of coefficient 0
    after = (np.arange(T) >= 1).astype(float)
    rows.add("ferro-sequence", [(alpha, 1.0), (beta, -1.0), (prev, after)], SENSE_GE, 0.0)


def _encode_gear_gates(ctx: _Ctx, rows: _GearRows) -> None:
    case, cat, grid = ctx.case, ctx.cat, ctx.grid
    gears, K, T = case.switchgears, ctx.K, ctx.T
    beta = grid["beta"]
    line = [g.line_index for g in gears]
    gamma = cat.group("gamma").start + np.array(line, dtype=np.int64).reshape(-1, 1)
    rows.add("gear-in-topology", [(beta, 1.0), (gamma, -1.0)], SENSE_LE, 0.0)
    u = grid["u"][[case.node_index[g.lateral_node] for g in gears]]  # (G, K)
    terms = [(beta, 1.0)] + [(u[:, k, None], -1.0) for k in range(K)]
    rows.add("gear-energize-cover", terms, SENSE_LE, 0.0)
    # per (k, ph): |flow_p|, |flow_q| <= M beta and curr_sq <= ampacity^2 beta
    fp, fq, cc = (grid[name][line].transpose(0, 2, 1, 3)[..., None] for name in ("flow_p", "flow_q", "curr_sq"))
    flow = np.concatenate([fp, fp, fq, fq, cc], axis=-1)  # (G, T, K, ph, 5)
    sign = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
    cap = np.concatenate(
        [np.full((len(gears), 3, 4), -ctx.m_flow), -ctx.amp_sq[line][:, :, None]], axis=-1
    )[:, None, None]  # (G, 1, 1, ph, 5)
    rows.add("gear-flow-gate", [(flow, sign), (beta[:, :, None, None, None], cap)], SENSE_LE, 0.0)
    for i, g in enumerate(gears):
        lat = list(g.downstream_lines)
        if not lat:
            continue
        cc = grid["curr_sq"][lat].transpose(2, 0, 1, 3)  # (t, line, k, ph)
        amp = -ctx.amp_sq[lat][None, :, None, :]
        key = rows.key()[i].reshape(T, 1, 1, 1)
        rows.blocks.append(
            _block(key, "lateral-curr-gate", [(cc, 1.0), (beta[i].reshape(T, 1, 1, 1), amp)], SENSE_LE, 0.0)
        )


def encode_linearized_products(ctx: _Ctx, rows: _GearRows) -> None:
    """Selector and bracket rows tying reordered products to the swap choice.

    A bracketed line into a dead pair (``_Ctx.dead``) has no bracket row.
    """
    case, grid, T = ctx.case, ctx.grid, ctx.T
    sel, sw = grid["reorder_sel"], grid["swap"]
    # (variant, ph, ps) of every zero entry of each permutation, in that order
    v, ph, ps = np.nonzero(np.array(PERMUTATIONS) == 0.0)
    rows.add("reorder-select", [(sel[:, :, v], 1.0), (sw[:, :, ph, ps], -1.0)], SENSE_GE, 0.0)
    rows.add("reorder-pick-one", [(sel[..., j], 1.0) for j in range(6)], SENSE_LE, 5.0)
    names, index = _BRACKET_FAMILIES
    for i, g in enumerate(case.switchgears):
        lines = ctx.bracket_lines[g.id]
        if not lines:
            continue
        # the live (line, microgrid) pairs, in that order
        at, ks = np.nonzero(~ctx.dead_line[lines])
        ls = np.array(lines)[at]
        pos = np.array([ctx.bracket_pos[li] for li in lines])[at]
        # one block, ordered (t, pair, ph, variant, row, term) as
        # _bracket_coefficients lays out the terms
        curr, fp, fq = (
            grid[name][ls, ks].transpose(1, 0, 2)[:, :, None, None, None, :]
            for name in ("curr_sq", "flow_p", "flow_q")
        )
        y = np.stack([grid[name][pos, ks].transpose(1, 0, 2) for name in ("y_p", "y_q", "y_v")], axis=-1)
        y = y.repeat(2, axis=-1)[:, :, :, None, :]  # (t, pair, ph, 1, row)
        z = sel[i, :, None, None, :, None]  # (t, 1, 1, variant, 1)
        cols = np.zeros((T, ls.size, 3, 6, 6, 11), dtype=np.int64)
        cols[..., 0] = y
        cols[..., :4, 1:4] = curr
        cols[..., :4, 4] = z
        cols[..., 4:, 1:4] = fp
        cols[..., 4:, 4:7] = fq
        cols[..., 4:, 7:10] = curr
        cols[..., 4:, 10] = z
        vals = np.broadcast_to(ctx.bracket_coeffs[g.id][at], cols.shape)
        groups = T * ls.size * 3 * 6
        key = np.repeat(rows.key()[i], groups // T * 6)
        rows.blocks.append(
            RowBlock(
                key, (names, np.tile(index, groups)), cols.reshape(-1, 11), vals.reshape(-1, 11),
                np.tile(_BRACKET_SENSE, groups), np.zeros(groups * 6),
            )
        )


def _encode_switchgears(ctx: _Ctx) -> None:
    """Every switchgear row: per switchgear and period, the steps below in order."""
    rows = _GearRows(ctx)
    steps = [encode_swap_structure, encode_swap_transition, encode_inrush_gate, encode_q_gate, _encode_gear_gates]
    if ctx.opts.fixed_reorder is None:
        steps.append(encode_linearized_products)
    for step, encode in enumerate(steps):
        rows.step = step
        encode(ctx, rows)
    if rows.blocks:
        ctx.b.add_blocks(rows.blocks)


# -- resources ---------------------------------------------------------------


def _encode_ess(ctx: _Ctx) -> None:
    case, cat, b = ctx.case, ctx.cat, ctx.b
    for k, e in enumerate(ctx.ess):
        cap = case.ess_energy_pu_h(e)
        for t in range(ctx.T):
            b.add(
                "ess-exclusive",
                [(cat.col("ess_ch_on", (k, t)), 1.0), (cat.col("ess_dis_on", (k, t)), 1.0)],
                SENSE_LE,
                1.0,
            )
            terms = [(cat.col("ess_soc", (k, t)), 1.0)]
            for ph in range(3):
                terms.append((cat.col("ess_ch", (k, t, ph)), -e.eff_charge * ctx.dt))
                terms.append((cat.col("ess_dis", (k, t, ph)), ctx.dt / e.eff_discharge))
            rhs = 0.0
            if t == 0:
                rhs = e.soc_init * cap
            else:
                terms.append((cat.col("ess_soc", (k, t - 1)), -1.0))
            b.add("ess-energy", terms, SENSE_EQ, rhs)
            for ph in range(3):
                b.add(
                    "ess-charge-lim",
                    [
                        (cat.col("ess_ch", (k, t, ph)), 1.0),
                        (cat.col("ess_ch_on", (k, t)), -float(e.charge_max_pu[ph])),
                    ],
                    SENSE_LE,
                    0.0,
                )
                b.add(
                    "ess-discharge-lim",
                    [
                        (cat.col("ess_dis", (k, t, ph)), 1.0),
                        (cat.col("ess_dis_on", (k, t)), -float(e.discharge_max_pu[ph])),
                    ],
                    SENSE_LE,
                    0.0,
                )


# -- loads --------------------------------------------------------------------


def _encode_loads(ctx: _Ctx) -> None:
    """Per node, period and phase: a lateral node's demand through the swap, else the pickup rows."""
    case, grid, T, K = ctx.case, ctx.grid, ctx.T, ctx.K
    load_p, load_q = np.stack([n.load_p for n in case.nodes]), np.stack([n.load_q for n in case.nodes])
    key = np.arange(len(case.nodes) * T * 3).reshape(-1, T, 3)
    lat = [i for i, n in enumerate(case.nodes) if case.gear_of_downstream_node(n.id) is not None]
    gear = [ctx.gear_pos[case.gear_of_downstream_node(case.nodes[i].id).id] for i in lat]
    sw = grid["swap"][gear]  # (node, t, ph, ps)
    blocks = [
        _block(
            key[lat], family,
            [(grid[name][lat], 1.0)] + [(sw[..., ps], -demand[lat][:, :, None, ps]) for ps in range(3)],
            SENSE_EQ, 0.0,
        )
        for family, name, demand in (("lateral-load-map-p", "load_p", load_p), ("lateral-load-map-q", "load_q", load_q))
    ]
    # any other node: covered demand may be served, at its power factor
    live = np.zeros((len(case.nodes), 1, 3), dtype=bool)
    for i, n in enumerate(case.nodes):
        live[i, 0, list(n.phases)] = i not in lat
    served = live & (load_p > 0.0)
    ratio = served & (load_q != 0.0)
    u = grid["u"][:, None, None, :]
    p, q = grid["load_p"], grid["load_q"]
    for family, keep, terms, sense in (
        ("load-pickup-lim", served, [(p, 1.0)] + [(u[..., k], -load_p) for k in range(K)], SENSE_LE),
        ("load-pq-ratio", ratio, [(q, load_p), (p, -load_q)], SENSE_EQ),
    ):
        blocks.append(_block(key, family, terms, sense, 0.0, keep))
    ctx.b.add_blocks(blocks)


# -- power flow ----------------------------------------------------------------


def _res_at_node(ctx: _Ctx) -> dict[str, list[int]]:
    at: dict[str, list[int]] = {}
    for r, unit in enumerate(ctx.res):
        at.setdefault(unit.node, []).append(r)
    return at


class _PeriodRows:
    """The rows and cones of one microgrid's period 0, replicated over the horizon.

    A term is ``(column at t = 0, column step per period, coefficient)``:
    the step is 3 for a ``(..., t, ph)`` group, 1 for ``beta`` and 0 for
    ``u``.  The horizon is one block, period by period: every row and cone
    of period 0, in the order stated, with each column moved by ``t * step``.
    """

    def __init__(self) -> None:
        self.names: dict[str, int] = {}  # family name -> its place in the block's table
        self.family: list[int] = []  # per row
        self.terms: list[list[tuple[int, int, float]]] = []
        self.sense: list[int] = []
        self.rhs: list[float] = []
        self.cones: list[tuple[int, int, int, int]] = []  # the I, V, P, Q columns at t = 0

    def add(self, family: str, terms, sense: int, rhs: float) -> None:
        self.family.append(self.names.setdefault(family, len(self.names)))
        self.terms.append(terms)
        self.sense.append(sense)
        self.rhs.append(rhs)

    def add_where_on(self, family: str, terms, on, m: float) -> None:
        """``sum(terms) = 0`` wherever every ``on`` column is 1.

        An equality row when ``on`` is empty, else two big-M rows stating
        ``|sum(terms)| <= m * (len(on) - sum(on))``.
        """
        if not on:
            self.add(family, terms, SENSE_EQ, 0.0)
            return
        relax = [(c, s, m) for c, s in on]
        rhs = m * len(on)
        # The order of the two rows steers warm-started simplex runs; with the
        # upper row first, one reduced13 workload seed ended a warm start 5e-11
        # short of its LP optimum, on a point whose cone was not tight.
        self.add(family, [(c, s, -v) for c, s, v in terms] + relax, SENSE_LE, rhs)
        self.add(family, terms + relax, SENSE_LE, rhs)

    def add_cone(self, col_i: int, col_v: int, col_p: int, col_q: int) -> None:
        self.cones.append((col_i, col_v, col_p, col_q))

    def emit(self, b: ModelBuilder, T: int) -> None:
        n = np.array([len(terms) for terms in self.terms], dtype=np.int64)
        row = np.repeat(np.arange(n.size), n)
        at = np.arange(row.size) - np.repeat(np.cumsum(n) - n, n)  # each term's place in its row
        col0 = np.zeros((n.size, n.max(initial=0)), dtype=np.int64)
        step = np.zeros_like(col0)
        vals = np.zeros(col0.shape)
        if row.size:
            c, s, v = zip(*itertools.chain.from_iterable(self.terms))
            col0[row, at], step[row, at], vals[row, at] = c, s, v
        periods = np.arange(T)[:, None, None]
        b.add_rows(
            (list(self.names), np.tile(np.array(self.family, dtype=np.int64), T)),
            (col0 + periods * step).reshape(-1, col0.shape[1]),
            np.broadcast_to(vals, (T,) + vals.shape).reshape(-1, vals.shape[1]),
            np.tile(np.array(self.sense, dtype=np.int8), T),
            np.tile(np.array(self.rhs, dtype=np.float64), T),
        )
        cones = np.array(self.cones, dtype=np.int64).reshape(-1, 4)
        b.add_cones((cones + 3 * periods).reshape(-1, 4))


def _encode_power_flow(ctx: _Ctx) -> None:
    """Balance, voltage-drop, cone and line-limit rows, per microgrid and period.

    Within a period the balance rows come first, node by node in
    breadth-first order, then per line and phase the drop pair, its cone
    and its line limits.  A dead pair (``_Ctx.dead``) and the line into it
    have none.
    """
    case, cat, grid = ctx.case, ctx.cat, ctx.grid
    res_at = _res_at_node(ctx)
    for k in range(ctx.K):
        o = ctx.orient[k]
        e = ctx.ess[k]
        rated_q = [
            float(e.reactive_max_pu[ph]) + sum(float(r.reactive_max_pu[ph]) for r in ctx.res) for ph in range(3)
        ]
        # period-0 columns; a (..., t, ph) group steps 3 per period
        fp, fq, cs = (grid[name][:, k, 0] for name in ("flow_p", "flow_q", "curr_sq"))
        vs, u = grid["volt_sq"][:, k, 0], grid["u"][:, k]
        y = {name: grid[name][:, k, 0] for name in ("y_p", "y_q", "y_v")}
        rows = _PeriodRows()
        for nid in o.order:
            n = case.node_index[nid]
            if ctx.dead[n, k]:
                continue
            for ph in ctx.node_phases(nid):
                terms_p = []
                terms_q = []
                for li, child in o.children.get(nid, ()):  # outgoing
                    if ph in ctx.line_phases(li):
                        terms_p.append((fp[li, ph], 3, 1.0))
                        terms_q.append((fq[li, ph], 3, 1.0))
                pline = o.parent_line.get(nid)
                on = []  # a node outside microgrid k leaves its balance free
                if pline is not None and ph in ctx.line_phases(pline):
                    on.append((u[n], 0))
                    terms_p.append((fp[pline, ph], 3, -1.0))
                    terms_q.append((fq[pline, ph], 3, -1.0))
                    if pline in ctx.bracketed:
                        terms_p.append((y["y_p"][ctx.bracket_pos[pline], ph], 3, 1.0))
                        terms_q.append((y["y_q"][ctx.bracket_pos[pline], ph], 3, 1.0))
                    else:
                        coeffs = ctx.coeffs[pline]
                        for ps in ctx.line_phases(pline):
                            terms_p.append((cs[pline, ps], 3, coeffs.r[ph, ps]))
                            terms_q.append((cs[pline, ps], 3, coeffs.x[ph, ps]))
                if nid == o.root:
                    terms_p.append((cat.col("ess_dis", (k, 0, ph)), 3, -1.0))
                    terms_p.append((cat.col("ess_ch", (k, 0, ph)), 3, 1.0))
                    terms_q.append((cat.col("ess_q", (k, 0, ph)), 3, -1.0))
                terms_p.append((cat.col("load_p", (nid, 0, ph)), 3, 1.0))
                terms_q.append((cat.col("load_q", (nid, 0, ph)), 3, 1.0))
                for r in res_at.get(nid, ()):  # renewable injections
                    terms_p.append((cat.col("res_p", (r, 0, ph)), 3, -1.0))
                    terms_q.append((cat.col("res_q", (r, 0, ph)), 3, -1.0))
                rows.add_where_on("balance-p", terms_p, on, ctx.m_flow)
                rows.add_where_on("balance-q", terms_q, on, ctx.m_flow)
        for li, (i, j) in o.direction.items():
            if ctx.dead_line[li, k]:
                continue
            live = ctx.line_phases(li)
            ni, nj = case.node_index[i], case.node_index[j]
            # the drop holds inside microgrid k, and across a coupling
            # line only while its switchgear is closed
            on = [(u[nj], 0)]
            gear = case.gear_of_line(li)
            if gear is not None:
                on.append((grid["beta"][ctx.gear_pos[gear.id], 0], 1))
            for ph in live:
                terms = [(vs[ni, ph], 3, 1.0), (vs[nj, ph], 3, -1.0)]
                if li in ctx.bracketed:
                    terms.append((y["y_v"][ctx.bracket_pos[li], ph], 3, -1.0))
                else:
                    c = ctx.coeffs[li]
                    for ps in live:
                        terms.append((fp[li, ps], 3, -2.0 * c.r_hat[ph, ps]))
                        terms.append((fq[li, ps], 3, -2.0 * c.x_hat[ph, ps]))
                        terms.append((cs[li, ps], 3, -c.z_hat[ph, ps]))
                rows.add_where_on("volt-drop", terms, on, ctx.m_volt)
                rows.add_cone(cs[li, ph], vs[nj, ph], fp[li, ph], fq[li, ph])
                # line limits: flows within the source's per-phase ratings,
                # squared current within ampacity, all only when covered
                limits = (
                    ("ess-line-p-lim", fp[li, ph], float(e.rated_phase_pu[ph])),
                    ("ess-line-q-lim", fq[li, ph], rated_q[ph]),
                )
                for family, col, rated in limits:
                    rows.add(family, [(col, 3, 1.0), (u[nj], 0, -rated)], SENSE_LE, 0.0)
                    rows.add(family, [(col, 3, -1.0), (u[nj], 0, -rated)], SENSE_LE, 0.0)
                amp = [(cs[li, ph], 3, 1.0), (u[nj], 0, -ctx.amp_sq[li, ph])]
                rows.add("current-lim", amp, SENSE_LE, 0.0)
        rows.emit(ctx.b, ctx.T)


def _encode_voltage_ranges(ctx: _Ctx) -> None:
    """Per node, period and live phase: the range row, then one cover row per microgrid but the dead ones."""
    case, grid, K = ctx.case, ctx.grid, ctx.K
    vmin, vmax = case.config.v_min_sq, case.config.v_max_sq
    live = np.zeros((len(case.nodes), 1, 3), dtype=bool)
    for i, n in enumerate(case.nodes):
        live[i, 0, list(ctx.node_phases(n.id))] = True
    live = np.broadcast_to(live, (len(case.nodes), ctx.T, 3))
    vs = grid["volt_sq"].transpose(0, 2, 3, 1)  # (node, t, ph, k)
    u = grid["u"][:, None, None, :]
    dead = ctx.dead[:, None, None, :]
    key = np.arange(live.size).reshape(live.shape)
    terms = [(vs[..., k], 1.0) for k in range(K)] + [(u[..., k], -vmin) for k in range(K)]
    rng = _block(key, "volt-range", terms, SENSE_GE, 0.0, live)
    cover = _block(
        key[..., None], "volt-cover", [(vs, 1.0), (u, -vmax)], SENSE_LE, 0.0, live[..., None] & ~dead
    )
    ctx.b.add_blocks([rng, cover])


def _encode_objective(ctx: _Ctx) -> None:
    """Served load weighted by priority, less line losses and bypass penalties, per unit time."""
    case, cat, grid, b = ctx.case, ctx.cat, ctx.grid, ctx.b
    dt = ctx.dt
    b.add_obj(grid["load_p"], np.array([n.weight * dt for n in case.nodes])[:, None, None])
    for k in range(ctx.K):
        for li in ctx.orient[k].direction:
            if ctx.dead_line[li, k]:
                continue
            phases = list(ctx.line_phases(li))
            if li in ctx.bracketed:
                b.add_obj(grid["y_p"][ctx.bracket_pos[li], k][:, phases], -dt)
                continue
            colsum = [float(ctx.coeffs[li].r[:, ph].sum()) for ph in phases]
            on = [ph for ph, c in zip(phases, colsum) if c != 0.0]
            b.add_obj(grid["curr_sq"][li, k][:, on], [-c * dt for c in colsum if c != 0.0])
    gates = cat.group("gate_bypass")
    b.add_obj(gates.start + np.arange(gates.size), -case.config.bypass_penalty)


def build_model(case: FeederCase, options: BuildOptions | None = None) -> LinearModel:
    """Assemble the full restoration model for a case.

    Raises :class:`UnformulatableError` when no grid-forming source exists
    or the horizon is empty.  Building is deterministic: identical cases
    yield identical row and column orderings.
    """
    opts = options or BuildOptions()
    if not case.ess_units:
        raise UnformulatableError("case has no grid-forming storage unit to anchor restoration")
    if case.horizon < 1:
        raise UnformulatableError("horizon must be at least one period")
    for g in case.switchgears:
        if len(case.node(g.feeder_node).phases) != 3:
            raise UnformulatableError(
                f"switchgear {g.id!r}: feeder-side node must be three-phase"
            )
    ctx = _Ctx(case, opts)
    _add_columns(ctx)
    _encode_topology(ctx)
    _encode_switchgears(ctx)
    _encode_ess(ctx)
    _encode_loads(ctx)
    _encode_power_flow(ctx)
    _encode_voltage_ranges(ctx)
    _encode_objective(ctx)
    meta = {
        "name": case.name,
        "kw_base": case.config.kw_base,
        "no_swap": opts.no_swap,
        "ferro_gate": opts.ferro_gate,
        "horizon": case.horizon,
        "period_hours": case.period_hours,
    }
    return ctx.b.build(meta)
