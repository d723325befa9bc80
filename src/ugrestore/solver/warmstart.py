"""Greedy construction of feasible incumbents, and the diving heuristic.

Both build the same kind of structural skeleton: a spanning forest anchoring
the microgrids, a closing schedule per switchgear, one phase assignment per
closed period, and the implied event/selector binaries.  The LP relaxation
with the skeleton pinned then produces the dispatch; storage on/off flags
are rounded from the first pass and the LP is re-solved.  The warm start
owns one :class:`LpBackend`, freed when it returns, so its HiGHS instance
never lives beside the search's.  The diver owns none: it dives in the
backend the search lends it, whose capped cut pool and deadline it shares.

The warm start derives the skeleton from the case alone (first
gate-feasible closing, phase assignment chosen to balance the projected
per-phase peak); the diver derives it from a relaxation point supplied by
the search.
"""

from __future__ import annotations

import sys

import numpy as np

from ugrestore.feeder import FeederCase
from ugrestore.formulation import bypass_eligible, gate_threshold_pu, lateral_demand_pu
from ugrestore.model import LinearModel
from ugrestore.physics import PERMUTATIONS
from ugrestore.solver.bnb import CUTS_PER_ROUND, INT_TOL, MAX_OA_ROUNDS, SolverOptions
from ugrestore.solver.cuts import cone_violations, soc_cut
from ugrestore.solver.lp import LpBackend


def _forest(case: FeederCase, priority: dict[int, float] | None = None):
    """Closed switch states and coverage by greedy component merging.

    ``priority`` ranks switch lines (higher closes first); ties and the
    default fall back to line index order.
    """
    roots = [e.node for e in case.ess_units]
    parent: dict[str, str] = {n.id: n.id for n in case.nodes}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    root_of: dict[str, str] = {}
    for l in case.wire_lines:
        ra, rb = find(l.from_node), find(l.to_node)
        if ra != rb:
            parent[ra] = rb
    for r in roots:
        comp = find(r)
        if comp in root_of:
            return None  # two sources wired together, no forest separates them
        root_of[comp] = r

    order = sorted(
        case.switch_lines,
        key=lambda s: (-(priority or {}).get(s.index, 0.0), s.index),
    )
    gamma: dict[int, float] = {l.index: 0.0 for l in case.switch_lines}
    for l in order:
        ra, rb = find(l.from_node), find(l.to_node)
        if ra == rb:
            continue
        if ra in root_of and rb in root_of:
            continue
        parent[ra] = rb
        newroot = find(rb)
        src = root_of.pop(ra, None) or root_of.pop(rb, None)
        if src is not None:
            root_of[newroot] = src
        gamma[l.index] = 1.0

    comps = {find(n.id) for n in case.nodes}
    if len(comps) != len(roots) or any(c not in root_of for c in comps):
        return None
    coverage: dict[tuple[str, int], float] = {}
    idx_of_root = {e.node: k for k, e in enumerate(case.ess_units)}
    for n in case.nodes:
        src = root_of[find(n.id)]
        for k in range(len(roots)):
            coverage[(n.id, k)] = 1.0 if idx_of_root[src] == k else 0.0
    return gamma, coverage


def _commodity_flows(case: FeederCase, gamma: dict[int, float]) -> dict[int, float]:
    """One unit per non-source node routed over the closed forest."""
    closed = [l for l in case.lines if (not l.is_switch) or gamma.get(l.index, 0.0) > 0.5]
    adj: dict[str, list] = {n.id: [] for n in case.nodes}
    for l in closed:
        adj[l.from_node].append(l)
        adj[l.to_node].append(l)
    flows: dict[int, float] = {l.index: 0.0 for l in case.lines}
    seen: set[str] = set()

    def subtree(nid: str, from_line: int | None) -> int:
        seen.add(nid)
        size = 1
        for l in adj[nid]:
            if l.index == from_line:
                continue
            other = l.to_node if l.from_node == nid else l.from_node
            if other in seen:
                continue
            sz = subtree(other, l.index)
            sign = 1.0 if l.from_node == nid else -1.0
            flows[l.index] = sign * sz
            size += sz
        return size

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, len(case.nodes) * 2 + 100))
    try:
        for e in case.ess_units:
            if e.node not in seen:
                subtree(e.node, None)
    finally:
        sys.setrecursionlimit(old)
    return flows


def _balanced_permutation(case: FeederCase, gear, base: np.ndarray) -> np.ndarray:
    """Permutation landing the lateral's load on the least loaded phases."""
    peak_t = int(
        np.argmax([lateral_demand_pu(case, gear, t) for t in range(case.horizon)])
    )
    lat = np.zeros(3)
    for nid in gear.downstream_nodes:
        lat += case.node(nid).load_p[peak_t]
    best, best_v = None, None
    for perm in PERMUTATIONS:
        peak = float(np.max(base + perm @ lat))
        if best is None or peak < best - 1e-12:
            best, best_v = peak, perm
    return best_v


def _schedule_from_case(case: FeederCase, ferro: bool, no_swap: bool) -> dict:
    """Per gear: (beta per period, bypass flag, swap matrix per period)."""
    base = np.zeros(3)
    for n in case.nodes:
        if case.gear_of_downstream_node(n.id) is None:
            base += n.load_p.max(axis=0)
    out = {}
    gears = sorted(
        case.switchgears,
        key=lambda g: -max(lateral_demand_pu(case, g, t) for t in range(case.horizon)),
    )
    for g in gears:
        thr = gate_threshold_pu(case, g) if ferro else 0.0
        close_at = None
        for t in range(case.horizon):
            d = lateral_demand_pu(case, g, t)
            if d > 0.0 and d >= thr:
                close_at = t
                break
        bypass = 0
        if close_at is None and ferro and bypass_eligible(case, g):
            for t in range(case.horizon):
                if lateral_demand_pu(case, g, t) > 0.0:
                    close_at = t
                    bypass = 1
                    break
        beta = [1 if close_at is not None and t >= close_at else 0 for t in range(case.horizon)]
        perm = np.eye(3)
        if not no_swap and close_at is not None:
            perm = _balanced_permutation(case, g, base)
            peak_t = int(np.argmax([lateral_demand_pu(case, g, t) for t in range(case.horizon)]))
            lat = np.zeros(3)
            for nid in g.downstream_nodes:
                lat += case.node(nid).load_p[peak_t]
            base = base + perm @ lat
        swaps = [perm * b for b in beta]
        out[g.id] = (beta, bypass, swaps)
    return out


def _structural_fixes(
    model: LinearModel,
    case: FeederCase,
    schedule: dict,
    gamma_priority: dict[int, float] | None = None,
) -> dict[int, float] | None:
    cat = model.catalog
    got = _forest(case, gamma_priority)
    if got is None:
        return None
    gamma, coverage = got
    fixes: dict[int, float] = {}
    for li, val in gamma.items():
        fixes[cat.col("gamma", li)] = val
        fixes[cat.col("Gamma", li)] = val
    for (nid, k), val in coverage.items():
        col = cat.col("u", (nid, k))
        if model.col_lb[col] == model.col_ub[col]:
            continue
        fixes[col] = val
    flows = _commodity_flows(case, gamma)
    for li, f in flows.items():
        fixes[cat.col("fict_flow", li)] = f
    for g in case.switchgears:
        beta, bypass, swaps = schedule[g.id]
        if gamma.get(g.line_index, 1.0) < 0.5:
            beta = [0] * case.horizon
            bypass = 0
            swaps = [np.zeros((3, 3))] * case.horizon
        col = cat.col("gate_bypass", g.id)
        if model.col_lb[col] < model.col_ub[col]:
            fixes[col] = float(bypass)
        prev = np.zeros((3, 3))
        for t in range(case.horizon):
            cur = swaps[t]
            fixes[cat.col("beta", (g.id, t))] = float(beta[t])
            closing = beta[t] == 1 and (t == 0 or beta[t - 1] == 0)
            fixes[cat.col("alpha", (g.id, t))] = 1.0 if closing else 0.0
            events = np.maximum(0.0, cur - prev)
            for ph in range(3):
                for ps in range(3):
                    fixes[cat.col("swap", (g.id, t, ph, ps))] = float(cur[ph, ps])
                    fixes[cat.col("swap_event", (g.id, t, ph, ps))] = float(events[ph, ps])
                fixes[cat.col("swap_any", (g.id, t, ph))] = 1.0 if events[ph].sum() > 0.5 else 0.0
            if cur.sum() > 0.5:
                v_star = int(np.argmax([float((cur * p).sum()) for p in PERMUTATIONS]))
            else:
                v_star = 0
            for v in range(6):
                fixes[cat.col("reorder_sel", (g.id, t, v))] = 0.0 if v == v_star else 1.0
            prev = cur
    return fixes


def greedy_warm_start(
    model: LinearModel,
    case: FeederCase,
    options: SolverOptions | None = None,
) -> np.ndarray | None:
    """Feasible full solution vector, or None when construction fails."""
    opts = options or SolverOptions()
    backend = LpBackend(model)
    ferro = bool(model.meta.get("ferro_gate", True))
    no_swap = bool(model.meta.get("no_swap", False))
    zero = {
        g.id: ([0] * case.horizon, 0, [np.zeros((3, 3))] * case.horizon)
        for g in case.switchgears
    }
    for schedule in (_schedule_from_case(case, ferro, no_swap), zero):
        fixes = _structural_fixes(model, case, schedule)
        if fixes is None:
            return None
        x = _resolve(model, backend, fixes, opts)
        if x is not None:
            return x
    return None


def make_diver(model: LinearModel, case: FeederCase, options: SolverOptions | None = None):
    """Factory for the search's diving heuristic.

    The returned callable rounds a relaxation point into a structural
    skeleton (forest from the relaxed switch states, closing schedule and
    phase assignment from the relaxed swap matrices) and LP-resolves it in
    the backend it is given.
    """
    opts = options or SolverOptions()
    cat = model.catalog
    ferro = bool(model.meta.get("ferro_gate", True))
    last: dict = {}  # the last skeleton and its result; repeats come back to back

    def diver(x_lp: np.ndarray, backend: LpBackend) -> np.ndarray | None:
        priority = {
            l.index: float(x_lp[cat.col("gamma", l.index)]) for l in case.switch_lines
        }
        schedule = {}
        for g in case.switchgears:
            thr = gate_threshold_pu(case, g) if ferro else 0.0
            can_bypass = model.col_ub[cat.col("gate_bypass", g.id)] > 0.5
            beta = []
            for t in range(case.horizon):
                want = x_lp[cat.col("beta", (g.id, t))] >= 0.5
                ok = lateral_demand_pu(case, g, t) >= thr or (beta and beta[-1])
                beta.append(1 if (want and (ok or can_bypass)) else 0)
            bypass = 0
            if ferro and thr > 0.0 and can_bypass:
                for t in range(case.horizon):
                    if beta[t] == 1 and (t == 0 or beta[t - 1] == 0):
                        if lateral_demand_pu(case, g, t) < thr:
                            bypass = 1
            swaps = []
            for t in range(case.horizon):
                if beta[t]:
                    s_lp = np.array(
                        [
                            [x_lp[cat.col("swap", (g.id, t, ph, ps))] for ps in range(3)]
                            for ph in range(3)
                        ]
                    )
                    v_star = int(np.argmax([float((s_lp * p).sum()) for p in PERMUTATIONS]))
                    swaps.append(PERMUTATIONS[v_star].copy())
                else:
                    swaps.append(np.zeros((3, 3)))
            schedule[g.id] = (beta, bypass, swaps)
        fixes = _structural_fixes(model, case, schedule, gamma_priority=priority)
        if fixes is None:
            return None
        key = tuple(sorted(fixes.items()))
        if key not in last:
            last.clear()
            last[key] = _resolve(model, backend, fixes, opts)
        return last[key]

    return diver


def _resolve(model, backend: LpBackend, fixes: dict[int, float], opts: SolverOptions):
    x = _lp_with_oa(backend, fixes, opts)
    if x is None:
        return None
    cat = model.catalog
    # round storage on/off flags from the first pass, then pin and re-solve
    for name in ("ess_ch_on", "ess_dis_on"):
        g = cat.group(name)
        power = cat.group("ess_ch" if name == "ess_ch_on" else "ess_dis")
        for key in g.keys:
            col = g.col(key)
            if model.col_lb[col] == model.col_ub[col]:
                continue
            k, t = key
            used = sum(x[power.col((k, t, ph))] for ph in range(3))
            fixes[col] = 1.0 if used > 1e-9 else 0.0
    for k, t in cat.group("ess_ch_on").keys:
        if fixes.get(cat.col("ess_ch_on", (k, t)), 0.0) > 0.5 and fixes.get(
            cat.col("ess_dis_on", (k, t)), 0.0
        ) > 0.5:
            fixes[cat.col("ess_ch_on", (k, t))] = 0.0
    x = _lp_with_oa(backend, fixes, opts)
    if x is None:
        return None
    frac = np.flatnonzero(
        model.col_binary
        & (model.col_lb < model.col_ub)
        & (np.abs(x - np.round(x)) > INT_TOL)
    )
    for col in frac:
        fixes[int(col)] = float(np.round(x[col]))
    if frac.size:
        x = _lp_with_oa(backend, fixes, opts)
        if x is None:
            return None
    if model.check_solution(x, opts.replay_tol, opts.replay_tol):
        return None
    return x


def _lp_with_oa(backend: LpBackend, fixes: dict[int, float], opts: SolverOptions):
    model = backend.model
    res = backend.solve(fixes)
    for _ in range(MAX_OA_ROUNDS):
        if not res.ok:
            break
        viol = cone_violations(model, res.x, opts.oa_tol)
        if not viol:
            break
        for idx, _ in viol[:CUTS_PER_ROUND]:
            cone = model.cones[idx]
            backend.add_cut(idx, soc_cut(cone.point(res.x), cone), res.x)
        res = backend.solve(fixes)
    return res.x if res.ok else None
