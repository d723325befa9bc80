"""Independent plan validation against exact physics and graph oracles.

Nothing here reuses the optimization encoding: radiality is checked by
graph traversal, reordered impedances are applied directly (not through the
big-M bracket rows), inrush uses the exact complex-phasor difference, the
ferroresonance gate re-runs the damping chain, and voltages are cross-checked
with a three-phase forward-backward sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ugrestore import physics
from ugrestore.feeder import FeederCase, equivalent_capacitance
from ugrestore.formulation import derated_multiplier
from ugrestore.plan import RestorationPlan

LINEAR_TOL = 1e-6
CONE_REL_TOL = 1e-4
SWEEP_TOL_PU = 0.01
SOC_TOL_KWH = 1e-6
BRACKET_SLACK = 0.02


class ValidationStructuralError(ValueError):
    pass


@dataclass
class FamilyRecord:
    family: str
    passed: bool
    worst_residual: float = 0.0
    location: tuple = ()
    detail: str = ""


@dataclass
class ValidationReport:
    records: list[FamilyRecord] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def record(self, family: str) -> FamilyRecord:
        for r in self.records:
            if r.family == family:
                return r
        raise KeyError(family)

    def to_dict(self) -> dict:
        from ugrestore.jsonutil import plain

        return plain({
            "passed": self.passed,
            "families": [
                {
                    "family": r.family,
                    "passed": r.passed,
                    "worst_residual": r.worst_residual,
                    "location": list(r.location),
                    "detail": r.detail,
                }
                for r in self.records
            ],
            "metrics": self.metrics,
        })

    def format_table(self) -> str:
        rows = ["family                         status   worst residual  location"]
        for r in self.records:
            status = "pass" if r.passed else "FAIL"
            loc = ",".join(str(p) for p in r.location) if r.location else "-"
            rows.append(f"{r.family:<30} {status:<8} {r.worst_residual:<15.3e} {loc}")
        return "\n".join(rows)


class _Family:
    def __init__(self, name: str, tol: float) -> None:
        self.name = name
        self.tol = tol
        self.worst = 0.0
        self.loc: tuple = ()
        self.detail = ""

    def hit(self, residual: float, loc: tuple, detail: str = "") -> None:
        if residual > self.worst:
            self.worst = residual
            self.loc = tuple(loc)
            self.detail = detail

    def result(self) -> FamilyRecord:
        return FamilyRecord(
            family=self.name,
            passed=self.worst <= self.tol,
            worst_residual=self.worst,
            location=self.loc,
            detail=self.detail,
        )


# ---------------------------------------------------------------------------
# radiality


def radiality_check(case: FeederCase, closed_lines, root_nodes) -> tuple[bool, str]:
    """Closed lines must form a spanning forest, one root per component."""
    parent = {n.id: n.id for n in case.nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    closed = set(closed_lines)
    for li in closed:
        l = case.lines[li]
        ra, rb = find(l.from_node), find(l.to_node)
        if ra == rb:
            return False, f"cycle through line {l.id}"
        parent[ra] = rb
    comps: dict[str, list[str]] = {}
    for n in case.nodes:
        comps.setdefault(find(n.id), []).append(n.id)
    roots = set(root_nodes)
    if len(comps) != len(roots):
        return False, f"{len(comps)} components for {len(roots)} sources"
    for comp_nodes in comps.values():
        hits = [n for n in comp_nodes if n in roots]
        if len(hits) != 1:
            return False, f"component with {len(hits)} sources: {sorted(comp_nodes)[:4]}"
    return True, ""


# ---------------------------------------------------------------------------
# sweep oracle


def sweep_power_flow(
    case: FeederCase,
    closed_lines,
    root: str,
    root_voltage: np.ndarray,
    loads_p: dict[str, np.ndarray],
    loads_q: dict[str, np.ndarray],
    injections_p: dict[str, np.ndarray],
    injections_q: dict[str, np.ndarray],
    swap_of_gear: dict[str, np.ndarray],
    tol: float = 1e-8,
    max_iter: int = 100,
) -> tuple[dict[str, np.ndarray], dict[int, np.ndarray], int]:
    """Three-phase forward-backward sweep on a radial energized island.

    Loads/injections are per-unit feeder-frame 3-vectors; lateral line
    impedances are reordered directly through the plan's swap matrices.
    Returns complex node voltages, complex line currents (keyed by line
    index, positive toward the child) and the iteration count.
    Raises on non-radial topology or non-convergence.
    """
    closed = set(closed_lines)
    adj: dict[str, list] = {n.id: [] for n in case.nodes}
    for li in closed:
        l = case.lines[li]
        adj[l.from_node].append(l)
        adj[l.to_node].append(l)
    order: list[tuple[str, str | None, int | None]] = []
    seen = {root}
    stack = [(root, None, None)]
    while stack:
        nid, parent, pline = stack.pop()
        order.append((nid, parent, pline))
        for l in adj[nid]:
            other = l.to_node if l.from_node == nid else l.from_node
            if other == parent and l.index == pline:
                continue
            if other in seen:
                raise ValidationStructuralError(f"cycle at {other!r} in energized island")
            seen.add(other)
            stack.append((other, nid, l.index))

    z_of: dict[int, np.ndarray] = {}
    for li in closed:
        l = case.lines[li]
        gear = case.gear_of_downstream_line(li)
        if gear is not None and gear.id in swap_of_gear:
            s = swap_of_gear[gear.id]
            if s.sum() > 0:
                z_of[li] = s @ l.z @ s.T
                continue
        z_of[li] = l.z

    volts: dict[str, np.ndarray] = {nid: root_voltage.astype(complex).copy() for nid, _, _ in order}
    children: dict[str, list[tuple[str, int]]] = {nid: [] for nid, _, _ in order}
    for nid, parent, pline in order:
        if parent is not None:
            children[parent].append((nid, pline))

    line_i: dict[int, np.ndarray] = {}
    iters = 0
    for iters in range(1, max_iter + 1):
        node_i: dict[str, np.ndarray] = {}
        for nid, _, _ in order:
            s = (loads_p.get(nid, 0.0) - injections_p.get(nid, 0.0)) + 1j * (
                loads_q.get(nid, 0.0) - injections_q.get(nid, 0.0)
            )
            s = np.asarray(s, dtype=complex) * np.ones(3, dtype=complex)
            v = volts[nid]
            cur = np.zeros(3, dtype=complex)
            nz = np.abs(v) > 1e-9
            cur[nz] = np.conj(s[nz] / v[nz])
            node_i[nid] = cur
        for nid, parent, pline in reversed(order):
            total = node_i[nid].copy()
            for child, cline in children[nid]:
                total += line_i[cline]
            if pline is not None:
                line_i[pline] = total
        max_dv = 0.0
        for nid, parent, pline in order:
            if parent is None:
                continue
            v_new = volts[parent] - z_of[pline] @ line_i[pline]
            max_dv = max(max_dv, float(np.max(np.abs(v_new - volts[nid]))))
            volts[nid] = v_new
        if max_dv < tol:
            break
    else:
        raise ValidationStructuralError("sweep did not converge")
    if iters >= max_iter:
        raise ValidationStructuralError("sweep did not converge")
    return volts, line_i, iters


# ---------------------------------------------------------------------------
# physics assessment


@dataclass
class PhysicsAssessment:
    gear_id: str
    t: int
    c_eq_farad: float
    l_osc_henry: float
    q_factor: float | None
    r_dp_pu: float | None
    delta_v_pu: np.ndarray
    delta_v_exact_pu: np.ndarray
    inrush_pu: np.ndarray
    inrush_exact_pu: np.ndarray
    inrush_amps: np.ndarray
    closing: bool
    gate_passed: bool | None


def assess_switchgears(case: FeederCase, plan: RestorationPlan) -> list[PhysicsAssessment]:
    """Per-switchgear per-period physics quantities implied by a plan."""
    out = []
    cfg = case.config
    i_base = physics.base_current_amperes(cfg.base_kv, cfg.base_mva)
    n_ess = len(case.ess_units)
    for g in case.switchgears:
        c_eq = equivalent_capacitance(g, case)
        l_osc = physics.resonant_inductance(c_eq) if c_eq > 0 else 0.0
        coef = physics.inrush_coefficient_pu(
            c_eq, cfg.inrush_rise_time_s, cfg.base_kv, cfg.base_mva
        )
        for t in range(plan.horizon):
            swap = plan.swap_matrix(g.id, t)
            ptot = float(
                sum(plan.served_p(nid, t).sum() for nid in g.downstream_nodes)
            )
            q_val = r_dp = None
            if c_eq > 0 and ptot > 1e-12:
                r_dp = physics.damping_resistance(cfg.nominal_voltage_sq, g.zip_z, ptot)
                q_val = physics.q_factor(r_dp, c_eq, l_osc)
            closing = plan.beta(g.id, t) > 0.5 and (
                t == 0 or plan.beta(g.id, t - 1) < 0.5
            )
            dv = np.zeros(3)
            dv_exact = np.zeros(3)
            for ph in range(3):
                dv[ph] = plan.value("volt_diff", (g.id, t, ph), 0.0)
                if plan.value("swap_any", (g.id, t, ph), 0.0) > 0.5:
                    v_i_sq = sum(
                        plan.value("volt_sq", (g.feeder_node, k, t, ph), 0.0)
                        for k in range(n_ess)
                    )
                    trap_sq = float(swap[ph] @ g.trapped_v_sq)
                    theta = plan.value("angle_diff", (g.id, t, ph), 0.0)
                    dv_exact[ph] = physics.exact_phasor_difference(
                        math.sqrt(max(v_i_sq, 0.0)), theta, math.sqrt(max(trap_sq, 0.0)), 0.0
                    )
            gate = None
            if closing and c_eq > 0:
                gate = q_val is not None and q_val <= g.q_max + 1e-9
                if plan.bypass(g.id) > 0.5:
                    gate = True
            out.append(
                PhysicsAssessment(
                    gear_id=g.id,
                    t=t,
                    c_eq_farad=c_eq,
                    l_osc_henry=l_osc,
                    q_factor=q_val,
                    r_dp_pu=r_dp,
                    delta_v_pu=dv,
                    delta_v_exact_pu=dv_exact,
                    inrush_pu=coef * dv,
                    inrush_exact_pu=coef * dv_exact,
                    inrush_amps=coef * dv * i_base,
                    closing=closing,
                    gate_passed=gate,
                )
            )
    return out


def worst_closing_inrush(assessments: list[PhysicsAssessment]) -> dict[str, float]:
    """Largest linearized inrush magnitude over each switchgear's closings."""
    worst: dict[str, float] = {}
    for a in assessments:
        if a.closing:
            worst[a.gear_id] = max(worst.get(a.gear_id, 0.0), float(np.max(np.abs(a.inrush_pu))))
    return worst


# ---------------------------------------------------------------------------
# energy accounting


def energy_accounting(case: FeederCase, plan: RestorationPlan) -> dict:
    """Recomputed energy metrics: SOC replay, restored/renewable energy,
    per-microgrid phase shares with and without the swapping."""
    kw = plan.kw_base
    dt = plan.period_hours
    n_ess = len(case.ess_units)
    soc_replay = {}
    soc_residual = 0.0
    for k, e in enumerate(case.ess_units):
        cap_pu_h = case.ess_energy_pu_h(e)
        soc = e.soc_init * cap_pu_h
        traj = []
        for t in range(plan.horizon):
            ch = sum(plan.value("ess_ch", (k, t, ph), 0.0) for ph in range(3))
            dis = sum(plan.value("ess_dis", (k, t, ph), 0.0) for ph in range(3))
            soc = soc + (e.eff_charge * ch - dis / e.eff_discharge) * dt
            traj.append(soc)
            soc_residual = max(
                soc_residual, abs(soc - plan.value("ess_soc", (k, t))) * kw
            )
        soc_replay[k] = [v * kw for v in traj]

    restored_pu_h = 0.0
    weighted_pu_h = 0.0
    shares_by_k = {k: np.zeros(3) for k in range(n_ess)}
    shares_orig_by_k = {k: np.zeros(3) for k in range(n_ess)}
    for n in case.nodes:
        k = plan.microgrid_of(n.id, n_ess)
        gear = case.gear_of_downstream_node(n.id)
        for t in range(plan.horizon):
            served = plan.served_p(n.id, t)
            restored_pu_h += served.sum() * dt
            weighted_pu_h += n.weight * served.sum() * dt
            if k is not None:
                shares_by_k[k] += served * dt
                if gear is not None and plan.beta(gear.id, t) > 0.5:
                    shares_orig_by_k[k] += n.load_p[t] * dt
                else:
                    shares_orig_by_k[k] += served * dt
    renewable_pu_h = 0.0
    for r in range(len(case.res_units)):
        for t in range(plan.horizon):
            renewable_pu_h += (
                sum(plan.value("res_p", (r, t, ph), 0.0) for ph in range(3)) * dt
            )

    def share_stats(vec: np.ndarray):
        total = float(vec.sum())
        if total <= 0:
            return [float("nan")] * 3, float("nan")
        shares = vec / total
        return [float(s) for s in shares], physics.phase_deviation(shares)

    microgrids = {}
    for k in range(n_ess):
        swapped, dev_sw = share_stats(shares_by_k[k])
        orig, dev_or = share_stats(shares_orig_by_k[k])
        microgrids[k] = {
            "root": case.ess_units[k].node,
            "original_shares": orig,
            "original_deviation": dev_or,
            "swapped_shares": swapped,
            "swapped_deviation": dev_sw,
        }

    earliest = {}
    for g in case.switchgears:
        first = None
        for t in range(plan.horizon):
            if plan.beta(g.id, t) > 0.5:
                first = t
                break
        earliest[g.id] = first

    return {
        "restored_kwh": restored_pu_h * kw,
        "weighted_restored_kwh": weighted_pu_h * kw,
        "renewable_kwh": renewable_pu_h * kw,
        "soc_replay_kwh": soc_replay,
        "soc_replay_residual_kwh": soc_residual,
        "microgrids": microgrids,
        "earliest_energization": earliest,
    }


# ---------------------------------------------------------------------------
# full plan check


def check_plan(case: FeederCase, plan: RestorationPlan) -> ValidationReport:
    """Re-check a plan family by family; see module docstring for oracles."""
    if plan.horizon != case.horizon:
        raise ValidationStructuralError(
            f"plan horizon {plan.horizon} does not match case horizon {case.horizon}"
        )
    cfg = case.config
    n_ess = len(case.ess_units)
    fams: dict[str, _Family] = {}

    def fam(name: str, tol: float = LINEAR_TOL) -> _Family:
        if name not in fams:
            fams[name] = _Family(name, tol)
        return fams[name]

    # radiality
    frad = fam("radiality", 0.0)
    ok, why = radiality_check(
        case, plan.closed_lines(case), [e.node for e in case.ess_units]
    )
    if not ok:
        frad.hit(1.0, (), why)

    # coverage
    fcov = fam("coverage")
    for n in case.nodes:
        total = sum(plan.value("u", (n.id, k), 0.0) for k in range(n_ess))
        if total > 1.0 + LINEAR_TOL:
            fcov.hit(total - 1.0, (n.id,), "covered twice")
    for k, e in enumerate(case.ess_units):
        if plan.value("u", (e.node, k), 0.0) < 0.5:
            fcov.hit(1.0, (e.node, k), "source not covering itself")
    for l in case.lines:
        for k in range(n_ess):
            ui = plan.value("u", (l.from_node, k), 0.0)
            uj = plan.value("u", (l.to_node, k), 0.0)
            if l.is_switch:
                closed = plan.gamma(l.index) > 0.5
                if closed and abs(ui - uj) > LINEAR_TOL:
                    fcov.hit(abs(ui - uj), (l.id, k), "closed switch splits coverage")
                if not closed and ui + uj > 1.0 + LINEAR_TOL:
                    fcov.hit(ui + uj - 1.0, (l.id, k), "open switch inside one microgrid")
            else:
                if abs(ui - uj) > LINEAR_TOL:
                    fcov.hit(abs(ui - uj), (l.id, k), "wire endpoints differ")

    # switchgear schedule integrity
    fsw = fam("swap-integrity")
    for g in case.switchgears:
        prev = np.zeros((3, 3))
        for t in range(plan.horizon):
            s = plan.swap_matrix(g.id, t)
            beta = plan.beta(g.id, t)
            try:
                physics.SwapMatrix(np.round(s))
            except physics.PhysicsError as exc:
                fsw.hit(1.0, (g.id, t), str(exc))
            if abs(s.sum() - 3.0 * beta) > LINEAR_TOL:
                fsw.hit(abs(s.sum() - 3.0 * beta), (g.id, t), "swap sum vs closed flag")
            if plan.beta(g.id, t) > 0.5 and plan.gamma(case.lines[g.line_index].index) < 0.5:
                fsw.hit(1.0, (g.id, t), "closed outside topology")
            events = np.maximum(0.0, s - prev)
            for ph in range(3):
                for ps in range(3):
                    got = plan.value("swap_event", (g.id, t, ph, ps), 0.0)
                    if abs(got - events[ph, ps]) > LINEAR_TOL:
                        fsw.hit(abs(got - events[ph, ps]), (g.id, t, ph, ps), "event flag")
                want_any = 1.0 if events[ph].sum() > 0.5 else 0.0
                got_any = plan.value("swap_any", (g.id, t, ph), 0.0)
                if abs(got_any - want_any) > LINEAR_TOL:
                    fsw.hit(abs(got_any - want_any), (g.id, t, ph), "per-phase event flag")
            prev = s
            if plan.no_swap and beta > 0.5:
                off = s - np.diag(np.diag(s))
                if off.sum() > LINEAR_TOL:
                    fsw.hit(off.sum(), (g.id, t), "swapping used in no-swap mode")

    # sequencing / ferroresonance gate
    fseq = fam("sequencing")
    assessments = assess_switchgears(case, plan)
    for a in assessments:
        g = next(g for g in case.switchgears if g.id == a.gear_id)
        if a.closing:
            alpha = plan.alpha(a.gear_id, a.t)
            if alpha < 0.5:
                fseq.hit(1.0, (a.gear_id, a.t), "closed without energize flag")
            if plan.ferro_gate and a.c_eq_farad > 0 and plan.bypass(a.gear_id) < 0.5:
                if a.q_factor is None:
                    fseq.hit(g.q_max, (a.gear_id, a.t), "no damping load at closing")
                elif a.q_factor > g.q_max + 1e-9:
                    fseq.hit(a.q_factor - g.q_max, (a.gear_id, a.t), "quality factor above limit")

    # inrush physics
    finr = fam("inrush")
    fbr = fam("inrush-exact-bracket")
    # the explicit cap on the closing voltage step, where the case sets one
    fcap = fam("voltdiff-cap") if cfg.delta_v_max_pu is not None else None
    for a in assessments:
        g = next(g for g in case.switchgears if g.id == a.gear_id)
        for ph in range(3):
            x = plan.value("swap_any", (a.gear_id, a.t, ph), 0.0)
            if x < 0.5:
                if abs(a.delta_v_pu[ph]) > LINEAR_TOL:
                    finr.hit(abs(a.delta_v_pu[ph]), (a.gear_id, a.t, ph), "step without event")
                continue
            if fcap is not None:
                fcap.hit(abs(a.delta_v_pu[ph]) - cfg.delta_v_max_pu, (a.gear_id, a.t, ph), "step above the cap")
            if abs(a.inrush_pu[ph]) > g.inrush_limit_pu + LINEAR_TOL:
                finr.hit(
                    abs(a.inrush_pu[ph]) - g.inrush_limit_pu,
                    (a.gear_id, a.t, ph),
                    "inrush above rating",
                )
            limit = math.sqrt(2.0) * g.inrush_limit_pu
            coef_slack = (
                physics.inrush_coefficient_pu(
                    a.c_eq_farad, cfg.inrush_rise_time_s, cfg.base_kv, cfg.base_mva
                )
                * BRACKET_SLACK
            )
            if a.inrush_exact_pu[ph] > limit + coef_slack + LINEAR_TOL:
                fbr.hit(
                    a.inrush_exact_pu[ph] - limit,
                    (a.gear_id, a.t, ph),
                    "exact inrush outside the bracket",
                )

    # storage
    facc = energy_accounting(case, plan)
    fess = fam("ess-energy", SOC_TOL_KWH)
    fess.hit(facc["soc_replay_residual_kwh"], (), "stored energy replay")
    fop = fam("ess-operation")
    for k, e in enumerate(case.ess_units):
        cap = case.ess_energy_pu_h(e)
        for t in range(plan.horizon):
            c_on = plan.value("ess_ch_on", (k, t), 0.0)
            d_on = plan.value("ess_dis_on", (k, t), 0.0)
            if c_on + d_on > 1.0 + LINEAR_TOL:
                fop.hit(c_on + d_on - 1.0, (k, t), "charging while discharging")
            soc = plan.value("ess_soc", (k, t))
            if soc < e.soc_min * cap - LINEAR_TOL or soc > e.soc_max * cap + LINEAR_TOL:
                fop.hit(
                    max(e.soc_min * cap - soc, soc - e.soc_max * cap),
                    (k, t),
                    "state of charge outside band",
                )
            for ph in range(3):
                ch = plan.value("ess_ch", (k, t, ph), 0.0)
                dis = plan.value("ess_dis", (k, t, ph), 0.0)
                if ch > float(e.charge_max_pu[ph]) * c_on + LINEAR_TOL:
                    fop.hit(ch - float(e.charge_max_pu[ph]) * c_on, (k, t, ph), "charge bound")
                if dis > float(e.discharge_max_pu[ph]) * d_on + LINEAR_TOL:
                    fop.hit(
                        dis - float(e.discharge_max_pu[ph]) * d_on, (k, t, ph), "discharge bound"
                    )
                q = plan.value("ess_q", (k, t, ph), 0.0)
                if abs(q) > float(e.reactive_max_pu[ph]) + LINEAR_TOL:
                    fop.hit(abs(q) - float(e.reactive_max_pu[ph]), (k, t, ph), "reactive bound")

    # renewables
    fres = fam("res-bounds")
    for r, unit in enumerate(case.res_units):
        mult = derated_multiplier(unit.sigma, unit.confidence)
        for t in range(plan.horizon):
            for ph in range(3):
                p = plan.value("res_p", (r, t, ph), 0.0)
                bound = float(unit.forecast_pu[t, ph]) * mult
                if p > bound + LINEAR_TOL:
                    fres.hit(p - bound, (unit.node, t, ph), "derated output bound")
                if p < -LINEAR_TOL:
                    fres.hit(-p, (unit.node, t, ph), "negative output")
                q = plan.value("res_q", (r, t, ph), 0.0)
                if abs(q) > float(unit.reactive_max_pu[ph]) + LINEAR_TOL:
                    fres.hit(
                        abs(q) - float(unit.reactive_max_pu[ph]),
                        (unit.node, t, ph),
                        "reactive bound",
                    )

    # loads
    fload = fam("load-restoration")
    for n in case.nodes:
        gear = case.gear_of_downstream_node(n.id)
        covered = plan.microgrid_of(n.id, n_ess) is not None
        for t in range(plan.horizon):
            served = plan.served_p(n.id, t)
            served_q = plan.served_q(n.id, t)
            if gear is not None:
                s = plan.swap_matrix(gear.id, t)
                want_p = s @ n.load_p[t]
                want_q = s @ n.load_q[t]
                err = float(np.max(np.abs(served - want_p)) + np.max(np.abs(served_q - want_q)))
                if err > LINEAR_TOL:
                    fload.hit(err, (n.id, t), "lateral load mapping")
            else:
                for ph in range(3):
                    cap = float(n.load_p[t, ph]) * (1.0 if covered else 0.0)
                    if served[ph] > cap + LINEAR_TOL or served[ph] < -LINEAR_TOL:
                        fload.hit(abs(served[ph] - cap), (n.id, t, ph), "pickup bound")
                    dp, dq = float(n.load_p[t, ph]), float(n.load_q[t, ph])
                    if dp > 0:
                        err = abs(served_q[ph] * dp - served[ph] * dq)
                        if err > LINEAR_TOL:
                            fload.hit(err, (n.id, t, ph), "power factor drift")

    # power flow replay with directly reordered impedances
    _check_power_flow(case, plan, fam)

    # summary metrics
    report = ValidationReport(records=[fams[k].result() for k in fams])
    facc["max_inrush_pu"] = worst_closing_inrush(assessments)
    report.metrics = facc
    report.metrics["approx_vs_exact_inrush"] = {
        f"{a.gear_id}@{a.t}": {
            "approx_pu": [float(v) for v in a.inrush_pu],
            "exact_pu": [float(v) for v in a.inrush_exact_pu],
        }
        for a in assessments
        if a.closing
    }
    return report


def _check_power_flow(case: FeederCase, plan: RestorationPlan, fam) -> None:
    from ugrestore.formulation import hat_matrices, orient_from

    cfg = case.config
    n_ess = len(case.ess_units)
    fbalp = fam("power-balance-p")
    fbalq = fam("power-balance-q")
    fdrop = fam("voltage-drop")
    fcone = fam("cone-feasibility")
    ftight = fam("cone-tightness", CONE_REL_TOL)
    flim = fam("flow-limits")
    fvolt = fam("voltage-range")
    fsweep = fam("sweep-agreement", SWEEP_TOL_PU)
    fdead = fam("deenergized-zero")

    res_at: dict[str, list[int]] = {}
    for r, unit in enumerate(case.res_units):
        res_at.setdefault(unit.node, []).append(r)

    for k, e in enumerate(case.ess_units):
        o = orient_from(case, e.node)
        covered = {
            n.id: plan.value("u", (n.id, k), 0.0) > 0.5 for n in case.nodes
        }
        for t in range(plan.horizon):
            live_gear = {g.id: plan.beta(g.id, t) > 0.5 for g in case.switchgears}

            def line_live(li: int) -> bool:
                g = case.gear_of_line(li)
                if g is not None and not live_gear[g.id]:
                    return False
                g2 = case.gear_of_downstream_line(li)
                if g2 is not None and not live_gear[g2.id]:
                    return False
                l = case.lines[li]
                if l.is_switch and plan.gamma(li) < 0.5:
                    return False
                return covered[l.from_node] and covered[l.to_node]

            def node_live(nid: str) -> bool:
                g = case.gear_of_downstream_node(nid)
                if g is not None and not live_gear[g.id]:
                    return False
                return covered[nid]

            for nid in o.order:
                if not covered[nid]:
                    continue  # balance relaxed outside the microgrid
                for ph in range(3):
                    terms = 0.0
                    terms_q = 0.0
                    for li, child in o.children.get(nid, ()):
                        terms += plan.value("flow_p", (li, k, t, ph), 0.0)
                        terms_q += plan.value("flow_q", (li, k, t, ph), 0.0)
                    pline = o.parent_line.get(nid)
                    if pline is not None:
                        l = case.lines[pline]
                        gear = case.gear_of_downstream_line(pline)
                        z = l.z
                        if gear is not None:
                            s = plan.swap_matrix(gear.id, t)
                            if s.sum() > 0.5:
                                z = s @ l.z @ s.T
                        curr = np.array(
                            [plan.value("curr_sq", (pline, k, t, ps), 0.0) for ps in range(3)]
                        )
                        terms -= plan.value("flow_p", (pline, k, t, ph), 0.0) - float(
                            z.real[ph] @ curr
                        )
                        terms_q -= plan.value("flow_q", (pline, k, t, ph), 0.0) - float(
                            z.imag[ph] @ curr
                        )
                    if nid == e.node:
                        terms -= plan.value("ess_dis", (k, t, ph), 0.0) - plan.value(
                            "ess_ch", (k, t, ph), 0.0
                        )
                        terms_q -= plan.value("ess_q", (k, t, ph), 0.0)
                    terms += plan.value("load_p", (nid, t, ph), 0.0)
                    terms_q += plan.value("load_q", (nid, t, ph), 0.0)
                    for r in res_at.get(nid, ()):
                        terms -= plan.value("res_p", (r, t, ph), 0.0)
                        terms_q -= plan.value("res_q", (r, t, ph), 0.0)
                    fbalp.hit(abs(terms), (nid, k, t, ph), "active balance")
                    fbalq.hit(abs(terms_q), (nid, k, t, ph), "reactive balance")

            for li, (i, j) in o.direction.items():
                l = case.lines[li]
                if not covered[j]:
                    continue
                gear_ds = case.gear_of_downstream_line(li)
                z = l.z
                if gear_ds is not None:
                    s = plan.swap_matrix(gear_ds.id, t)
                    if s.sum() > 0.5:
                        z = s @ l.z @ s.T
                coupling = case.gear_of_line(li)
                if coupling is not None and not live_gear[coupling.id]:
                    # open coupling: no flow, voltage decoupled
                    for ph in range(3):
                        fp = plan.value("flow_p", (li, k, t, ph), 0.0)
                        fq = plan.value("flow_q", (li, k, t, ph), 0.0)
                        if abs(fp) + abs(fq) > LINEAR_TOL:
                            fdead.hit(abs(fp) + abs(fq), (l.id, k, t, ph), "flow through open coupling")
                    continue
                r_hat, x_hat, z_hat = hat_matrices(z, cfg.voltage_drop_quadratic_term)
                for ph in range(3):
                    vi = plan.value("volt_sq", (i, k, t, ph), 0.0)
                    vj = plan.value("volt_sq", (j, k, t, ph), 0.0)
                    drop = 0.0
                    for ps in range(3):
                        drop += 2.0 * r_hat[ph, ps] * plan.value("flow_p", (li, k, t, ps), 0.0)
                        drop += 2.0 * x_hat[ph, ps] * plan.value("flow_q", (li, k, t, ps), 0.0)
                        drop += z_hat[ph, ps] * plan.value("curr_sq", (li, k, t, ps), 0.0)
                    fdrop.hit(abs(vi - vj - drop), (l.id, k, t, ph), "drop replay")
                    fp = plan.value("flow_p", (li, k, t, ph), 0.0)
                    fq = plan.value("flow_q", (li, k, t, ph), 0.0)
                    cc = plan.value("curr_sq", (li, k, t, ph), 0.0)
                    slack = cc * vj - (fp * fp + fq * fq)
                    if slack < 0:
                        fcone.hit(-slack, (l.id, k, t, ph), "cone violated")
                    # tightness measures only surplus squared current; the
                    # deficit side belongs to cone feasibility above
                    if line_live(li) and np.any(z.real[ph] != 0.0) and (abs(fp) + abs(fq)) > 1e-6:
                        rel = max(slack, 0.0) / max(cc * vj, fp * fp + fq * fq, 1e-9)
                        ftight.hit(rel, (l.id, k, t, ph), "relaxation not tight")
                    amp = case.lines[li].ampacity_pu
                    amp_sq = float(np.max(amp)) ** 2 if (gear_ds or coupling) else float(amp[ph]) ** 2
                    if cc > amp_sq + LINEAR_TOL:
                        flim.hit(cc - amp_sq, (l.id, k, t, ph), "ampacity")
                    rated = float(e.rated_phase_pu[ph])
                    if abs(fp) > rated + LINEAR_TOL:
                        flim.hit(abs(fp) - rated, (l.id, k, t, ph), "source rating")

            for n in case.nodes:
                if not covered[n.id]:
                    for ph in range(3):
                        v = plan.value("volt_sq", (n.id, k, t, ph), 0.0)
                        if v > LINEAR_TOL:
                            fvolt.hit(v, (n.id, k, t, ph), "voltage outside microgrid")
                    continue
                if not node_live(n.id):
                    continue
                for ph in (range(3) if case.gear_of_downstream_node(n.id) else case.node(n.id).phases):
                    v = plan.value("volt_sq", (n.id, k, t, ph), 0.0)
                    if v < cfg.v_min_sq - LINEAR_TOL or v > cfg.v_max_sq + LINEAR_TOL:
                        fvolt.hit(
                            max(cfg.v_min_sq - v, v - cfg.v_max_sq), (n.id, t, ph), "voltage band"
                        )

            _sweep_compare(case, plan, k, t, node_live, line_live, fsweep)


def _sweep_compare(case, plan, k, t, node_live, line_live, fsweep) -> None:
    e = case.ess_units[k]
    closed = []
    for l in case.lines:
        if not line_live(l.index):
            continue
        closed.append(l.index)
    root_v = np.array(
        [
            math.sqrt(max(plan.value("volt_sq", (e.node, k, t, ph), 0.0), 0.0))
            for ph in range(3)
        ]
    )
    angles = np.exp(1j * np.array([0.0, -2.0 * np.pi / 3.0, 2.0 * np.pi / 3.0]))
    loads_p, loads_q, inj_p, inj_q = {}, {}, {}, {}
    for n in case.nodes:
        if not node_live(n.id):
            continue
        loads_p[n.id] = plan.served_p(n.id, t)
        loads_q[n.id] = plan.served_q(n.id, t)
    for r, unit in enumerate(case.res_units):
        if not node_live(unit.node):
            continue
        inj_p[unit.node] = inj_p.get(unit.node, np.zeros(3)) + np.array(
            [plan.value("res_p", (r, t, ph), 0.0) for ph in range(3)]
        )
        inj_q[unit.node] = inj_q.get(unit.node, np.zeros(3)) + np.array(
            [plan.value("res_q", (r, t, ph), 0.0) for ph in range(3)]
        )
    swaps = {g.id: plan.swap_matrix(g.id, t) for g in case.switchgears}
    try:
        volts, _, _ = sweep_power_flow(
            case,
            closed,
            e.node,
            root_v * angles,
            loads_p,
            loads_q,
            inj_p,
            inj_q,
            swaps,
        )
    except ValidationStructuralError as exc:
        fsweep.hit(1.0, (e.node, t), str(exc))
        return
    for nid, v in volts.items():
        if not node_live(nid):
            continue
        gear = case.gear_of_downstream_node(nid)
        if gear is not None:
            mask = swaps[gear.id] @ np.array(
                [1.0 if ph in case.node(nid).phases else 0.0 for ph in range(3)]
            )
            phases = [ph for ph in range(3) if mask[ph] > 0.5]
        else:
            phases = list(case.node(nid).phases)
        for ph in phases:
            model_v = math.sqrt(max(plan.value("volt_sq", (nid, k, t, ph), 0.0), 0.0))
            fsweep.hit(abs(model_v - abs(v[ph])), (nid, t, ph), "sweep vs relaxation")
