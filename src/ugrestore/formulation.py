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
from index grids over the groups whose keys form a full product
(``_Ctx.grid``):

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

Row families (tags carried by every row):

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

import gc
import itertools
import math
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import itemgetter

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
_BRACKET_FAMILIES = ["reorder-bracket-p"] * 2 + ["reorder-bracket-q"] * 2 + ["reorder-bracket-v"] * 2
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


def _grid(cat: VariableCatalog, name: str, *shape: int) -> np.ndarray:
    """Column indices of group ``name``, whose keys form the full product ``shape``."""
    g = cat.group(name)
    return g.start + np.arange(g.size).reshape(shape)


def _add_columns(ctx: _Ctx) -> None:
    case, cat, T, K = ctx.case, ctx.cat, ctx.T, ctx.K
    gears = case.switchgears
    N, L, G, B = len(case.nodes), len(case.lines), len(gears), len(ctx.bracketed)
    grid = ctx.grid

    cat.add_group("u", [(n.id, k) for n in case.nodes for k in range(K)], binary=True)
    grid["u"] = _grid(cat, "u", N, K)
    for k, e in enumerate(ctx.ess):
        cat.fix(cat.col("u", (e.node, k)), 1.0)

    cat.add_group("gamma", [l.index for l in case.lines], binary=True)
    for l in case.lines:
        if not l.is_switch:
            cat.fix(cat.col("gamma", l.index), 1.0)
    cat.add_group(
        "fict_flow", [l.index for l in case.lines], lb=-ctx.m_fict, ub=ctx.m_fict
    )

    gt = [(g.id, t) for g in gears for t in range(T)]
    cat.add_group("beta", gt, binary=True)
    grid["beta"] = _grid(cat, "beta", G, T)
    cat.add_group("alpha", gt, binary=True)
    grid["alpha"] = _grid(cat, "alpha", G, T)
    gtpp = [(g.id, t, ph, ps) for g in gears for t in range(T) for ph in range(3) for ps in range(3)]
    cat.add_group("swap", gtpp, binary=True)
    grid["swap"] = _grid(cat, "swap", G, T, 3, 3)
    if ctx.opts.no_swap:
        for col in grid["swap"][:, :, ~np.eye(3, dtype=bool)].ravel().tolist():
            cat.fix(col, 0.0)
    cat.add_group("swap_event", gtpp, binary=True)
    grid["swap_event"] = _grid(cat, "swap_event", G, T, 3, 3)
    gtp = [(g.id, t, ph) for g in gears for t in range(T) for ph in range(3)]
    cat.add_group("swap_any", gtp, binary=True)
    cat.add_group("reorder_sel", [(g.id, t, v) for g in gears for t in range(T) for v in range(6)], binary=True)
    grid["reorder_sel"] = _grid(cat, "reorder_sel", G, T, 6)
    cat.add_group("gate_bypass", [g.id for g in gears], binary=True)
    for g in gears:
        if not (ctx.opts.ferro_gate and bypass_eligible(case, g)):
            cat.fix(cat.col("gate_bypass", g.id), 0.0)

    w = case.config.angle_window_rad
    cat.add_group("angle_diff", gtp, lb=-w, ub=w)
    cat.add_group("volt_diff", gtp, lb=-ctx.m_dv, ub=ctx.m_dv)
    cat.add_group("inrush_mag", gtp, lb=0.0, ub=ctx.m_dv)
    cat.add_group("inrush_ang", gtp, lb=0.0, ub=w)
    ctx.inr_coef = {
        g.id: inrush_coefficient_pu(
            ctx.c_eq[g.id], case.config.inrush_rise_time_s, case.config.base_kv, case.config.base_mva
        )
        for g in gears
    }
    inr_ub = [ctx.inr_coef[g.id] * ctx.m_dv for g in gears for t in range(T) for ph in range(3)]
    cat.add_group("inrush", gtp, lb=[-v for v in inr_ub], ub=inr_ub)
    for name in ("swap_any", "angle_diff", "volt_diff", "inrush_mag", "inrush_ang", "inrush"):
        grid[name] = _grid(cat, name, G, T, 3)

    kt = [(k, t) for k in range(K) for t in range(T)]
    ktp = [(k, t, ph) for k in range(K) for t in range(T) for ph in range(3)]
    cat.add_group("ess_ch_on", kt, binary=True)
    cat.add_group("ess_dis_on", kt, binary=True)
    cat.add_group(
        "ess_ch",
        ktp,
        lb=0.0,
        ub=[ctx.ess[k].charge_max_pu[ph] for k, t, ph in ktp],
    )
    cat.add_group(
        "ess_dis",
        ktp,
        lb=0.0,
        ub=[ctx.ess[k].discharge_max_pu[ph] for k, t, ph in ktp],
    )
    cat.add_group(
        "ess_q",
        ktp,
        lb=[-ctx.ess[k].reactive_max_pu[ph] for k, t, ph in ktp],
        ub=[ctx.ess[k].reactive_max_pu[ph] for k, t, ph in ktp],
    )
    cat.add_group(
        "ess_soc",
        kt,
        lb=[ctx.ess[k].soc_min * case.ess_energy_pu_h(ctx.ess[k]) for k, t in kt],
        ub=[ctx.ess[k].soc_max * case.ess_energy_pu_h(ctx.ess[k]) for k, t in kt],
    )

    rtp = [(r, t, ph) for r in range(len(ctx.res)) for t in range(T) for ph in range(3)]
    # the chance constraint is these bounds: output within the derated
    # forecast, reactive support within the rating
    mult = [derated_multiplier(unit.sigma, unit.confidence) for unit in ctx.res]
    cat.add_group(
        "res_p",
        rtp,
        lb=0.0,
        ub=[float(ctx.res[r].forecast_pu[t, ph]) * mult[r] for r, t, ph in rtp],
    )
    cat.add_group(
        "res_q",
        rtp,
        lb=[-ctx.res[r].reactive_max_pu[ph] for r, t, ph in rtp],
        ub=[ctx.res[r].reactive_max_pu[ph] for r, t, ph in rtp],
    )

    # (t, ph) load bounds per node; a lateral node's conductor may land on
    # any phase, so each phase takes the period's largest demand
    ntp = [(n.id, t, ph) for n in case.nodes for t in range(T) for ph in range(3)]
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
    cat.add_group("load_p", ntp, lb=0.0, ub=np.concatenate(p_ub))
    cat.add_group("load_q", ntp, lb=np.concatenate(q_lb), ub=np.concatenate(q_ub))
    grid["load_p"] = _grid(cat, "load_p", N, T, 3)
    grid["load_q"] = _grid(cat, "load_q", N, T, 3)

    lktp = [
        (l.index, k, t, ph)
        for l in case.lines
        for k in range(K)
        for t in range(T)
        for ph in range(3)
    ]
    cat.add_group("flow_p", lktp, lb=-ctx.m_flow, ub=ctx.m_flow)
    cat.add_group("flow_q", lktp, lb=-ctx.m_flow, ub=ctx.m_flow)
    cat.add_group(
        "curr_sq", lktp, lb=0.0, ub=np.broadcast_to(ctx.amp_sq[:, None, None, :], (L, K, T, 3)).ravel()
    )
    nktp = [
        (n.id, k, t, ph) for n in case.nodes for k in range(K) for t in range(T) for ph in range(3)
    ]
    cat.add_group("volt_sq", nktp, lb=0.0, ub=case.config.v_max_sq)
    for name in ("flow_p", "flow_q", "curr_sq"):
        grid[name] = _grid(cat, name, L, K, T, 3)
    grid["volt_sq"] = _grid(cat, "volt_sq", N, K, T, 3)

    ylat = [
        (l, k, t, ph)
        for l in sorted(ctx.bracketed)
        for k in range(K)
        for t in range(T)
        for ph in range(3)
    ]
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
    ybounds = np.repeat(ybounds, K * T * 3, axis=0)
    cat.add_group("y_p", ylat, lb=ybounds[:, 0], ub=ybounds[:, 1])
    cat.add_group("y_q", ylat, lb=ybounds[:, 2], ub=ybounds[:, 3])
    cat.add_group("y_v", ylat, lb=-ybounds[:, 4], ub=ybounds[:, 4])
    for name in ("y_p", "y_q", "y_v"):
        grid[name] = _grid(cat, name, B, K, T, 3)

    # Phase masks: fix columns for conductors that do not exist.
    dead: list[int] = []
    for n in case.nodes:
        for ph in set(range(3)) - set(ctx.node_phases(n.id)):
            dead += grid["volt_sq"][case.node_index[n.id], :, :, ph].ravel().tolist()
    for l in case.lines:
        for ph in set(range(3)) - set(ctx.line_phases(l.index)):
            for name in ("flow_p", "flow_q", "curr_sq"):
                dead += grid[name][l.index, :, :, ph].ravel().tolist()
    for col in dead:
        cat.fix(col, 0.0)


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
                (nid, k),
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
            (n.id,),
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
                b.add("switch-split", (l.index, k), [(ui, 1.0), (uj, 1.0), (gcol, -1.0)], SENSE_LE, 1.0)
                b.add("switch-join", (l.index, k), [(ui, 1.0), (uj, -1.0), (gcol, 1.0)], SENSE_LE, 1.0)
                b.add("switch-join", (l.index, k), [(ui, -1.0), (uj, 1.0), (gcol, 1.0)], SENSE_LE, 1.0)
            else:
                b.add("wire-consistent", (l.index, k), [(ui, 1.0), (uj, -1.0)], SENSE_EQ, 0.0)
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
        (),
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
                b.add("flow-root", (n.id,), [(c, -s) for c, s in terms], SENSE_GE, 1.0)
        else:
            b.add("flow-demand", (n.id,), terms, SENSE_EQ, 1.0)
    for l in case.switch_lines:
        fcol = cat.col("fict_flow", l.index)
        gcol = cat.col("gamma", l.index)
        b.add("flow-gate", (l.index,), [(fcol, 1.0), (gcol, -ctx.m_fict)], SENSE_LE, 0.0)
        b.add("flow-gate", (l.index,), [(fcol, -1.0), (gcol, -ctx.m_fict)], SENSE_LE, 0.0)


# -- switchgear scheduling ---------------------------------------------------


def _block(key, family, locs: list, terms, sense, rhs, keep=None) -> RowBlock:
    """Rows over one index grid, row ``i`` at the grid's ``i``-th point in C order.

    ``terms`` are ``(col, coef)`` pairs of arrays; they, ``key``, ``sense``,
    ``rhs`` and ``keep`` broadcast to the grid's shape.  ``keep`` drops the
    rows where it is False; ``locs`` holds the kept rows' locs.
    """
    arrays = [a for term in terms for a in term] + [key, sense, rhs] + ([] if keep is None else [keep])
    shape = np.broadcast_shapes(*(np.shape(a) for a in arrays))
    rows = slice(None) if keep is None else np.flatnonzero(np.broadcast_to(keep, shape))

    def flat(a, dtype) -> np.ndarray:
        return np.broadcast_to(np.asarray(a, dtype=dtype), shape).reshape(-1)[rows]

    return RowBlock(
        flat(key, np.int64),
        family,
        locs,
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

    def add(self, family, locs, terms, sense, rhs, sub=0, keep=None) -> None:
        """A :func:`_block` over a grid of shape ``(G, T, ...)``, its rows at ``sub`` (broadcast over ``...``)."""
        ndim = len(np.broadcast_shapes(*(np.shape(a) for term in terms for a in term)))
        self.blocks.append(_block(self.key(ndim) + sub, family, locs, terms, sense, rhs, keep))


def _gt_locs(ctx: _Ctx, *tail: range) -> list[tuple]:
    """``(gear id, t, *rest)`` over every switchgear, period and ``tail`` index, in C order."""
    return [(g.id, *rest) for g in ctx.case.switchgears for rest in itertools.product(range(ctx.T), *tail)]


def encode_swap_structure(ctx: _Ctx, rows: _GearRows) -> None:
    """A swap matrix is empty (open) or a permutation (closed)."""
    sw, beta = ctx.grid["swap"], ctx.grid["beta"]
    ph3 = _gt_locs(ctx, range(3))
    rows.add("swap-col-once", ph3, [(sw[:, :, ph, :], 1.0) for ph in range(3)], SENSE_LE, 1.0)
    rows.add("swap-row-once", ph3, [(sw[:, :, :, ps], 1.0) for ps in range(3)], SENSE_LE, 1.0)
    terms = [(sw[:, :, ph, ps], 1.0) for ph in range(3) for ps in range(3)] + [(beta, -3.0)]
    rows.add("swap-open-or-full", _gt_locs(ctx), terms, SENSE_EQ, 0.0)


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
    locs = _gt_locs(ctx, range(3), range(3))
    rows.add("swap-event-extract", locs, [(ev, 1.0)] + delta, SENSE_GE, 0.0, sub)
    rows.add("swap-event-extract", locs, [(ev, 2.0)] + delta, SENSE_LE, 1.0, sub)
    evs = [ev[..., ps] for ps in range(3)]
    sub, locs = 9 + np.arange(3), _gt_locs(ctx, range(3))
    rows.add("swap-event-or", locs, [(e, 1.0) for e in evs] + [(x, -3.0)], SENSE_LE, 0.0, sub)
    rows.add("swap-event-or", locs, [(x, 1.0)] + [(e, -1.0) for e in evs], SENSE_LE, 0.0, sub)


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
    locs = _gt_locs(ctx, range(3))
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
        rows.add(family, locs, terms, sense, rhs, sub)
    joint = np.broadcast_to(coef > 0.0, dv.shape)
    rows.add(
        "inrush-guard",
        [loc for loc, on in zip(locs, joint.ravel().tolist()) if on],
        [(s_mag, coef * f_mag), (s_ang, coef * v_max)],
        SENSE_LE,
        math.sqrt(2.0) * limit,
        sub,
        keep=joint,
    )
    if case.config.delta_v_max_pu is not None:
        cap = case.config.delta_v_max_pu
        rows.add("voltdiff-cap", locs, [(dv, 1.0)], SENSE_LE, cap, sub)
        rows.add("voltdiff-cap", locs, [(dv, -1.0)], SENSE_LE, cap, sub)


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
        rows.blocks.append(_block(rows.key()[i], "ferro-gate", [(g.id, t) for t in range(T)], terms, SENSE_GE, 0.0))
    alpha, beta = grid["alpha"], grid["beta"]
    prev = np.concatenate([beta[:, :1], beta[:, :-1]], axis=1)  # at t = 0 a placeholder of coefficient 0
    after = (np.arange(T) >= 1).astype(float)
    rows.add("ferro-sequence", _gt_locs(ctx), [(alpha, 1.0), (beta, -1.0), (prev, after)], SENSE_GE, 0.0)


def _encode_gear_gates(ctx: _Ctx, rows: _GearRows) -> None:
    case, cat, grid = ctx.case, ctx.cat, ctx.grid
    gears, K, T = case.switchgears, ctx.K, ctx.T
    beta = grid["beta"]
    line = [g.line_index for g in gears]
    gamma = cat.group("gamma").start + np.array(line, dtype=np.int64).reshape(-1, 1)
    rows.add("gear-in-topology", _gt_locs(ctx), [(beta, 1.0), (gamma, -1.0)], SENSE_LE, 0.0)
    u = grid["u"][[case.node_index[g.lateral_node] for g in gears]]  # (G, K)
    terms = [(beta, 1.0)] + [(u[:, k, None], -1.0) for k in range(K)]
    rows.add("gear-energize-cover", _gt_locs(ctx), terms, SENSE_LE, 0.0)
    # per (k, ph): |flow_p|, |flow_q| <= M beta and curr_sq <= ampacity^2 beta
    fp, fq, cc = (grid[name][line].transpose(0, 2, 1, 3)[..., None] for name in ("flow_p", "flow_q", "curr_sq"))
    flow = np.concatenate([fp, fp, fq, fq, cc], axis=-1)  # (G, T, K, ph, 5)
    sign = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
    cap = np.concatenate(
        [np.full((len(gears), 3, 4), -ctx.m_flow), -ctx.amp_sq[line][:, :, None]], axis=-1
    )[:, None, None]  # (G, 1, 1, ph, 5)
    locs = [
        (li, k, t, ph) for li in line for t in range(T) for k in range(K) for ph in range(3) for _ in range(5)
    ]
    rows.add("gear-flow-gate", locs, [(flow, sign), (beta[:, :, None, None, None], cap)], SENSE_LE, 0.0)
    for i, g in enumerate(gears):
        lat = list(g.downstream_lines)
        if not lat:
            continue
        cc = grid["curr_sq"][lat].transpose(2, 0, 1, 3)  # (t, line, k, ph)
        amp = -ctx.amp_sq[lat][None, :, None, :]
        locs = [(li, k, t, ph) for t in range(T) for li in lat for k in range(K) for ph in range(3)]
        key = rows.key()[i].reshape(T, 1, 1, 1)
        rows.blocks.append(
            _block(key, "lateral-curr-gate", locs, [(cc, 1.0), (beta[i].reshape(T, 1, 1, 1), amp)], SENSE_LE, 0.0)
        )


def encode_linearized_products(ctx: _Ctx, rows: _GearRows) -> None:
    """Selector and bracket rows tying reordered products to the swap choice."""
    case, grid, K, T = ctx.case, ctx.grid, ctx.K, ctx.T
    sel, sw = grid["reorder_sel"], grid["swap"]
    # (variant, ph, ps) of every zero entry of each permutation, in that order
    v, ph, ps = np.nonzero(np.array(PERMUTATIONS) == 0.0)
    zeros = list(zip(v.tolist(), ph.tolist(), ps.tolist()))
    locs = [(g.id, t, *idx) for g in case.switchgears for t in range(T) for idx in zeros]
    rows.add("reorder-select", locs, [(sel[:, :, v], 1.0), (sw[:, :, ph, ps], -1.0)], SENSE_GE, 0.0)
    rows.add("reorder-pick-one", _gt_locs(ctx), [(sel[..., j], 1.0) for j in range(6)], SENSE_LE, 5.0)
    for i, g in enumerate(case.switchgears):
        lines = ctx.bracket_lines[g.id]
        if not lines:
            continue
        pos = [ctx.bracket_pos[li] for li in lines]
        # one block, ordered (t, line, k, ph, variant, row, term) as
        # _bracket_coefficients lays out the terms
        curr, fp, fq = (
            grid[name][lines].transpose(2, 0, 1, 3)[:, :, :, None, None, None, :]
            for name in ("curr_sq", "flow_p", "flow_q")
        )
        y = np.stack([grid[name][pos].transpose(2, 0, 1, 3) for name in ("y_p", "y_q", "y_v")], axis=-1)
        y = y.repeat(2, axis=-1)[:, :, :, :, None, :]  # (t, line, k, ph, 1, row)
        z = sel[i, :, None, None, None, :, None]  # (t, 1, 1, 1, variant, 1)
        cols = np.zeros((T, len(lines), K, 3, 6, 6, 11), dtype=np.int64)
        cols[..., 0] = y
        cols[..., :4, 1:4] = curr
        cols[..., :4, 4] = z
        cols[..., 4:, 1:4] = fp
        cols[..., 4:, 4:7] = fq
        cols[..., 4:, 7:10] = curr
        cols[..., 4:, 10] = z
        vals = np.broadcast_to(ctx.bracket_coeffs[g.id][None, :, None], cols.shape)
        groups = T * len(lines) * K * 3 * 6
        # (li, k, t, ph, variant) for each group of six rows
        locs = list(map(itemgetter(1, 2, 0, 3, 4), itertools.product(range(T), lines, range(K), range(3), range(6))))
        locs = list(itertools.chain.from_iterable(zip(*[locs] * 6)))
        key = np.repeat(rows.key()[i], groups // T * 6)
        rows.blocks.append(
            RowBlock(
                key, _BRACKET_FAMILIES * groups, locs, cols.reshape(-1, 11), vals.reshape(-1, 11),
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
                (k, t),
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
            b.add("ess-energy", (k, t), terms, SENSE_EQ, rhs)
            for ph in range(3):
                b.add(
                    "ess-charge-lim",
                    (k, t, ph),
                    [
                        (cat.col("ess_ch", (k, t, ph)), 1.0),
                        (cat.col("ess_ch_on", (k, t)), -float(e.charge_max_pu[ph])),
                    ],
                    SENSE_LE,
                    0.0,
                )
                b.add(
                    "ess-discharge-lim",
                    (k, t, ph),
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
    locs = [(case.nodes[i].id, t, ph) for i in lat for t in range(T) for ph in range(3)]
    blocks = [
        _block(
            key[lat], family, locs,
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
    ids = [n.id for n in case.nodes]
    u = grid["u"][:, None, None, :]
    p, q = grid["load_p"], grid["load_q"]
    for family, keep, terms, sense in (
        ("load-pickup-lim", served, [(p, 1.0)] + [(u[..., k], -load_p) for k in range(K)], SENSE_LE),
        ("load-pq-ratio", ratio, [(q, load_p), (p, -load_q)], SENSE_EQ),
    ):
        locs = [(ids[i], t, ph) for i, t, ph in zip(*(a.tolist() for a in np.nonzero(keep)))]
        blocks.append(_block(key, family, locs, terms, sense, 0.0, keep))
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
    ``u``.  A row's ``head`` ``(id, k, ph)`` becomes its loc ``(id, k, t,
    ph)``.  The horizon is one block, period by period: every row and cone
    of period 0, in the order stated, with each column moved by ``t * step``.
    """

    def __init__(self) -> None:
        self.families: list[str] = []
        self.terms: list[list[tuple[int, int, float]]] = []
        self.sense: list[int] = []
        self.rhs: list[float] = []
        self.heads: list[tuple] = []
        self.row_head: list[int] = []
        self.cones: list[tuple[int, ...]] = []  # head, then the I, V, P, Q columns at t = 0

    def _head(self, head: tuple) -> int:
        if not self.heads or self.heads[-1] != head:
            self.heads.append(head)
        return len(self.heads) - 1

    def add(self, family: str, head: tuple, terms, sense: int, rhs: float) -> None:
        self.families.append(family)
        self.row_head.append(self._head(head))
        self.terms.append(terms)
        self.sense.append(sense)
        self.rhs.append(rhs)

    def add_where_on(self, family: str, head: tuple, terms, on, m: float) -> None:
        """``sum(terms) = 0`` wherever every ``on`` column is 1.

        An equality row when ``on`` is empty, else two big-M rows stating
        ``|sum(terms)| <= m * (len(on) - sum(on))``.
        """
        if not on:
            self.add(family, head, terms, SENSE_EQ, 0.0)
            return
        relax = [(c, s, m) for c, s in on]
        rhs = m * len(on)
        # The order of the two rows steers warm-started simplex runs; with the
        # upper row first, one reduced13 workload seed ended a warm start 5e-11
        # short of its LP optimum, on a point whose cone was not tight.
        self.add(family, head, [(c, s, -v) for c, s, v in terms] + relax, SENSE_LE, rhs)
        self.add(family, head, terms + relax, SENSE_LE, rhs)

    def add_cone(self, head: tuple, col_i: int, col_v: int, col_p: int, col_q: int) -> None:
        self.cones.append((self._head(head), int(col_i), int(col_v), int(col_p), int(col_q)))

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
        locs = [[(a, k, t, ph) for a, k, ph in self.heads] for t in range(T)]
        b.add_rows(
            self.families * T,
            list(itertools.chain.from_iterable(map(heads.__getitem__, self.row_head) for heads in locs)),
            (col0 + periods * step).reshape(-1, col0.shape[1]),
            np.broadcast_to(vals, (T,) + vals.shape).reshape(-1, vals.shape[1]),
            np.tile(np.array(self.sense, dtype=np.int8), T),
            np.tile(np.array(self.rhs, dtype=np.float64), T),
        )
        cones = np.array([c[1:] for c in self.cones], dtype=np.int64).reshape(-1, 4)
        b.add_cones(
            "cone",
            [heads[c[0]] for heads in locs for c in self.cones],
            (cones + 3 * periods).reshape(-1, 4),
        )


def _encode_power_flow(ctx: _Ctx) -> None:
    """Balance, voltage-drop, cone and line-limit rows, per microgrid and period.

    Within a period the balance rows come first, node by node in
    breadth-first order, then per line and phase the drop pair, its cone
    and its line limits.
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
                rows.add_where_on("balance-p", (nid, k, ph), terms_p, on, ctx.m_flow)
                rows.add_where_on("balance-q", (nid, k, ph), terms_q, on, ctx.m_flow)
        for li, (i, j) in o.direction.items():
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
                head = (li, k, ph)
                rows.add_where_on("volt-drop", head, terms, on, ctx.m_volt)
                rows.add_cone(head, cs[li, ph], vs[nj, ph], fp[li, ph], fq[li, ph])
                # line limits: flows within the source's per-phase ratings,
                # squared current within ampacity, all only when covered
                limits = (
                    ("ess-line-p-lim", fp[li, ph], float(e.rated_phase_pu[ph])),
                    ("ess-line-q-lim", fq[li, ph], rated_q[ph]),
                )
                for family, col, rated in limits:
                    rows.add(family, head, [(col, 3, 1.0), (u[nj], 0, -rated)], SENSE_LE, 0.0)
                    rows.add(family, head, [(col, 3, -1.0), (u[nj], 0, -rated)], SENSE_LE, 0.0)
                amp = [(cs[li, ph], 3, 1.0), (u[nj], 0, -ctx.amp_sq[li, ph])]
                rows.add("current-lim", head, amp, SENSE_LE, 0.0)
        rows.emit(ctx.b, ctx.T)


def _encode_voltage_ranges(ctx: _Ctx) -> None:
    """Per node, period and live phase: the range row, then one cover row per microgrid."""
    case, grid, K = ctx.case, ctx.grid, ctx.K
    vmin, vmax = case.config.v_min_sq, case.config.v_max_sq
    live = np.zeros((len(case.nodes), 1, 3), dtype=bool)
    for i, n in enumerate(case.nodes):
        live[i, 0, list(ctx.node_phases(n.id))] = True
    live = np.broadcast_to(live, (len(case.nodes), ctx.T, 3))
    at = list(zip(*(a.tolist() for a in np.nonzero(live))))
    ids = [n.id for n in case.nodes]
    vs = grid["volt_sq"].transpose(0, 2, 3, 1)  # (node, t, ph, k)
    u = grid["u"][:, None, None, :]
    key = np.arange(live.size).reshape(live.shape)
    rng = _block(
        key, "volt-range", [(ids[i], t, ph) for i, t, ph in at],
        [(vs[..., k], 1.0) for k in range(K)] + [(u[..., k], -vmin) for k in range(K)], SENSE_GE, 0.0, live,
    )
    cover = _block(
        key[..., None], "volt-cover", [(ids[i], k, t, ph) for i, t, ph in at for k in range(K)],
        [(vs, 1.0), (u, -vmax)], SENSE_LE, 0.0, live[..., None],
    )
    ctx.b.add_blocks([rng, cover])


def _encode_objective(ctx: _Ctx) -> None:
    """Served load weighted by priority, less line losses and bypass penalties, per unit time."""
    case, cat, grid, b = ctx.case, ctx.cat, ctx.grid, ctx.b
    dt = ctx.dt
    b.add_obj(grid["load_p"], np.array([n.weight * dt for n in case.nodes])[:, None, None])
    for k in range(ctx.K):
        for li in ctx.orient[k].direction:
            phases = list(ctx.line_phases(li))
            if li in ctx.bracketed:
                b.add_obj(grid["y_p"][ctx.bracket_pos[li], k][:, phases], -dt)
                continue
            colsum = [float(ctx.coeffs[li].r[:, ph].sum()) for ph in phases]
            on = [ph for ph, c in zip(phases, colsum) if c != 0.0]
            b.add_obj(grid["curr_sq"][li, k][:, on], [-c * dt for c in colsum if c != 0.0])
    gates = cat.group("gate_bypass")
    b.add_obj(gates.start + np.arange(gates.size), -case.config.bypass_penalty)


@contextmanager
def _collector_paused():
    """Python's cyclic garbage collector paused for the block, as it was after.

    The build allocates a tuple per row tag and a few lists as long as the
    model, none in a reference cycle; collections triggered by those
    allocations, each scanning the growing lists, took about a fifth of the
    ``feeder123`` build.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


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
    with _collector_paused():
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
