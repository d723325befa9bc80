"""Greedy construction of feasible incumbents, and the diving heuristic.

Both build the same kind of structural skeleton: a spanning forest anchoring
the microgrids, a closing schedule per switchgear, one phase assignment per
closed period, and the implied event/selector binaries.  The LP relaxation
with the skeleton pinned then produces the dispatch (:func:`_resolve`):
storage on/off flags are rounded from that first pass and pinned, and the
LP is re-solved.  The skeleton and the storage flags pin every binary of
the model, so the point is integral; the replay, which checks integrality,
rejects it should a binary ever be left free.  The warm start builds one
:class:`LpBackend` per skeleton, with the skeleton as its base fixings, so
HiGHS holds only the part of the model the skeleton leaves live (on
``reduced13`` about a sixth of the rows); the storage flags pinned later
are ordinary ``solve`` fixings.  Each backend is freed when its skeleton is
done, so its HiGHS instance never lives beside the search's.  Every
backend of the warm start shares one deadline, ``time_limit_s`` after the
warm start begins, as the search's backend has its own from the start of
:func:`bnb.solve`; an LP cut off by it is an ``error``, so the skeleton
yields None.  The diver owns none: it dives in the backend the search lends
it, whose capped cut pool and deadline it shares, and every call dives
afresh.

The warm start derives the skeleton from the case alone (first
gate-feasible closing, phase assignment chosen to balance the projected
per-phase peak); the diver derives it from a relaxation point supplied by
the search.

The diver is also given a cutoff, the search's incumbent value, and stops
at the first optimal LP whose objective is no better, before it separates,
so a cut-off dive adds no cut to the shared pool.  That is exact: every LP
of a dive relaxes the model with the dive's fixings (any subset of the
valid cut pool keeps it a bound), and the later steps only add fixings and
cuts, so no plan of the dive can score above that LP.  The warm start runs
without a cutoff.
"""

from __future__ import annotations

import time

import numpy as np

from ugrestore.feeder import FeederCase
from ugrestore.formulation import bypass_eligible, gate_threshold_pu, lateral_demand_pu
from ugrestore.model import LinearModel
from ugrestore.physics import PERMUTATIONS
from ugrestore.solver.bnb import MAX_OA_ROUNDS, SolverOptions
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
    idx_of_root = {e.node: k for k, e in enumerate(case.ess_units)}
    coverage = np.zeros((len(case.nodes), len(roots)))  # over (node, microgrid)
    for i, n in enumerate(case.nodes):
        coverage[i, idx_of_root[root_of[find(n.id)]]] = 1.0
    return gamma, coverage


def _balanced_permutation(
    case: FeederCase, gear, base: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Permutation landing the lateral's peak load on the least loaded phases.

    Returns the permutation and ``base`` with the lateral's load landed by it.
    """
    peak_t = int(
        np.argmax([lateral_demand_pu(case, gear, t) for t in range(case.horizon)])
    )
    lat = np.zeros(3)
    for nid in gear.downstream_nodes:
        lat += case.node(nid).load_p[peak_t]
    best, best_v, best_load = None, None, None
    for perm in PERMUTATIONS:
        load = base + perm @ lat
        peak = float(np.max(load))
        if best is None or peak < best - 1e-12:
            best, best_v, best_load = peak, perm, load
    return best_v, best_load


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
            perm, base = _balanced_permutation(case, g, base)
        swaps = [perm * b for b in beta]
        out[g.id] = (beta, bypass, swaps)
    return out


def _structural_fixes(
    model: LinearModel,
    case: FeederCase,
    schedule: dict,
    gamma_priority: dict[int, float] | None = None,
) -> dict[int, float] | None:
    """The skeleton's fixings: the forest, and each switchgear's schedule with the binaries it implies.

    The schedule is laid out over the model's grids, whose node and gear
    axes are the case's nodes and switchgears in order.
    """
    cat = model.catalog
    got = _forest(case, gamma_priority)
    if got is None:
        return None
    gamma, coverage = got
    fixes = {cat.col("gamma", li): val for li, val in gamma.items()}
    G, T = len(case.switchgears), case.horizon
    beta, bypass, swap = np.zeros((G, T)), np.zeros(G), np.zeros((G, T, 3, 3))
    for i, g in enumerate(case.switchgears):
        if gamma.get(g.line_index, 1.0) >= 0.5:  # an open gear line keeps its gear open
            beta[i], bypass[i], swap[i] = schedule[g.id]

    def previous(a):  # each period's value one period before, all zero before the first
        return np.concatenate([np.zeros_like(a[:, :1]), a[:, :-1]], axis=1)

    closing = (beta == 1) & (previous(beta) == 0)
    events = np.maximum(0.0, swap - previous(swap))
    # the reordering that matches a closed swap best (the first on a tie); 0 when open
    score = np.einsum("gtij,vij->gtv", swap, np.asarray(PERMUTATIONS))
    v_star = np.where(swap.sum(axis=(2, 3)) > 0.5, np.argmax(score, axis=-1), 0)
    for name, values, free_only in (
        ("u", coverage, True),
        ("gate_bypass", bypass, True),
        ("beta", beta, False),
        ("alpha", closing, False),
        ("swap", swap, False),
        ("swap_event", events, False),
        ("swap_any", events.sum(axis=-1) > 0.5, False),
        ("reorder_sel", np.arange(6) != v_star[..., None], False),
    ):
        cols, values = cat.group(name).grid.ravel(), np.ravel(values).astype(float)
        if free_only:
            keep = model.col_lb[cols] < model.col_ub[cols]
            cols, values = cols[keep], values[keep]
        fixes.update(zip(cols.tolist(), values.tolist()))
    return fixes


def greedy_warm_start(
    model: LinearModel,
    case: FeederCase,
    options: SolverOptions | None = None,
) -> np.ndarray | None:
    """Feasible full solution vector, or None when construction fails or outlasts ``time_limit_s``."""
    opts = options or SolverOptions()
    deadline = time.monotonic() + opts.time_limit_s
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
        x = _resolve(model, LpBackend(model, deadline, fixes), fixes, opts)
        if x is not None:
            return x
    return None


def make_diver(model: LinearModel, case: FeederCase, options: SolverOptions | None = None):
    """Factory for the search's diving heuristic.

    The returned callable ``diver(x_lp, backend, cutoff)`` rounds a
    relaxation point into a structural skeleton (forest from the relaxed
    switch states, closing schedule and phase assignment from the relaxed
    swap matrices) and LP-resolves it in the backend it is given.  The dive
    returns None at its first LP whose objective is at most ``cutoff``: no
    plan it could reach scores above that LP, so with the incumbent's value
    as the cutoff it drops only dives that cannot improve.
    """
    opts = options or SolverOptions()
    cat = model.catalog
    ferro = bool(model.meta.get("ferro_gate", True))
    gamma = {l.index: cat.col("gamma", l.index) for l in case.switch_lines}
    beta_cols, swap_cols = cat.group("beta").grid, cat.group("swap").grid
    bypassable = model.col_ub[cat.group("gate_bypass").grid] > 0.5

    def diver(x_lp: np.ndarray, backend: LpBackend, cutoff: float = -np.inf) -> np.ndarray | None:
        priority = {li: float(x_lp[col]) for li, col in gamma.items()}
        beta_lp, swap_lp = x_lp[beta_cols] >= 0.5, x_lp[swap_cols]
        schedule = {}
        for i, g in enumerate(case.switchgears):
            thr = gate_threshold_pu(case, g) if ferro else 0.0
            can_bypass = bypassable[i]
            beta = []
            for t in range(case.horizon):
                ok = lateral_demand_pu(case, g, t) >= thr or (beta and beta[-1])
                beta.append(1 if (beta_lp[i, t] and (ok or can_bypass)) else 0)
            bypass = 0
            if ferro and thr > 0.0 and can_bypass:
                for t in range(case.horizon):
                    if beta[t] == 1 and (t == 0 or beta[t - 1] == 0):
                        if lateral_demand_pu(case, g, t) < thr:
                            bypass = 1
            swaps = []
            for t in range(case.horizon):
                if beta[t]:
                    v_star = int(np.argmax([float((swap_lp[i, t] * p).sum()) for p in PERMUTATIONS]))
                    swaps.append(PERMUTATIONS[v_star].copy())
                else:
                    swaps.append(np.zeros((3, 3)))
            schedule[g.id] = (beta, bypass, swaps)
        fixes = _structural_fixes(model, case, schedule, gamma_priority=priority)
        if fixes is None:
            return None
        return _resolve(model, backend, fixes, opts, cutoff)

    return diver


def _resolve(
    model,
    backend: LpBackend,
    fixes: dict[int, float],
    opts: SolverOptions,
    cutoff: float = -np.inf,
):
    """The replayed point of a skeleton, or None.

    Two LP passes with ``fixes`` pinned, each refined by cone cuts: the
    first gives the dispatch, whose storage on/off flags are then rounded
    and pinned; the second re-solves with them, warm from the first.
    """
    x = _lp_with_oa(backend, fixes, opts, cutoff)
    if x is None:
        return None
    cat = model.catalog
    # round storage on/off flags from the first pass, then pin and re-solve
    on = {name: cat.group(name).grid.ravel() for name in ("ess_ch_on", "ess_dis_on")}
    for name, power in (("ess_ch_on", "ess_ch"), ("ess_dis_on", "ess_dis")):
        used = x[cat.group(power).grid].sum(axis=-1).ravel()
        free = model.col_lb[on[name]] != model.col_ub[on[name]]
        fixes.update(zip(on[name][free].tolist(), np.where(used[free] > 1e-9, 1.0, 0.0).tolist()))
    for ch, dis in zip(on["ess_ch_on"].tolist(), on["ess_dis_on"].tolist()):
        if fixes.get(ch, 0.0) > 0.5 and fixes.get(dis, 0.0) > 0.5:
            fixes[ch] = 0.0
    x = _lp_with_oa(backend, fixes, opts, cutoff)
    if x is None:
        return None
    if model.check_solution(x, opts.replay_tol, opts.replay_tol):
        return None
    return x


def _lp_with_oa(
    backend: LpBackend, fixes: dict[int, float], opts: SolverOptions, cutoff: float = -np.inf
):
    """The refined LP point with ``fixes`` pinned; None once an LP fails or scores <= ``cutoff``."""
    model = backend.model
    res = backend.solve(fixes)
    for _ in range(MAX_OA_ROUNDS):
        if not res.ok or res.objective <= cutoff:
            break
        viol = cone_violations(model, res.x, opts.oa_tol)
        if not viol:
            break
        cone = [idx for idx, _ in viol]
        coefs, rhs = zip(*map(soc_cut, res.x[model.cones[cone]].tolist()))
        backend.add_cuts(cone, coefs, rhs, res.x)
        res = backend.solve(fixes)
    return res.x if res.ok and res.objective > cutoff else None
