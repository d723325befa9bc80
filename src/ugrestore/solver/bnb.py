"""Best-first branch-and-bound over the LP relaxation with lazy cone cuts.

The search owns one :class:`LpBackend`, whose HiGHS instance re-solves each
LP from the last basis.  It holds the model restricted to the root's column
bounds (see the lp module), which hold at every node since nodes only
tighten bounds.  It pins each node's fixings, keeps the outer-approximation
cut pool (shared across the tree, capped per cone) and hands HiGHS the time
left before the deadline.  When the warm start passes
the replay, the pool starts, before the root LP, with one tangent per cone
that carries flow there (:func:`incumbent_tangents`): outer approximation
first linearizes at its first fixed-integer point.  Nodes store only their
fixings and an inherited bound; the LP is solved at pop time, refined by a
small outer-approximation budget (separate, add one tangent at every violated
cone, re-solve) and branched most-fractional-first (ties by catalog order,
then by the seeded tie-breaker).  Integral candidates get a full refinement
loop and are accepted as incumbents only after an independent replay of
every linear row, cone row, column bound and binary's integrality.

After the root LP and the diver, if the incumbent does not yet dominate the
root, one outer-approximation master (:func:`lp.master_bound`: the model as
a MIP in HiGHS, its cone rows replaced by the seed tangents of
``cuts.seed_tangents``) gets at most half the time left.  Its MIP dual bound
caps every node's bound, so when the incumbent dominates it the search ends
at the root.  The master is given the incumbent's dominance threshold (see
below) and stops as soon as its dual bound reaches it, since a tighter
bound would prove nothing more; without an incumbent it runs to its own
gap.  The search's backend is released while the master runs.

The proven bound is the largest of the bounds still open: the best node left
in the heap, the largest bound the incumbent pruned (within the dominance
tolerance ``max(abs_gap, rel_gap * max(1, |incumbent|))``, so it may sit
above the incumbent) and the bound of every subtree left open.  It is capped
by the master's and never below the incumbent.  ``optimal`` means the
incumbent dominates it, by the same tolerance.

Only an ``infeasible`` LP prunes a node.  An LP that ends as ``error`` or
``unbounded`` (an LP cut off at the deadline ends as ``error``), and an
integral point that fails the replay, leave their subtree open: the node's
bound stays in the proven bound, +inf at the root, so the solve cannot claim
``optimal`` past it.

A caller-supplied diving heuristic (see the warm-start module) is invoked
periodically on the current relaxation point to pull the incumbent up
without waiting for the tree to reach integer depth.  It dives in the
search's backend, so its LPs share the cut pool and honour the deadline.
It is given the incumbent's value as a cutoff and abandons the dive at its
first LP that cannot beat it; such a dive adds no cut to the pool.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ugrestore.model import LinearModel
from ugrestore.solver.cuts import cone_violations, incumbent_tangents, seed_tangents, soc_cut
from ugrestore.solver.lp import LpBackend, LpResult, infeasibility_hint, master_bound

MAX_OA_ROUNDS = 80  # at the root and at integral candidates
OA_ROUNDS_FRACTIONAL = 2  # at every other node
INT_TOL = 1e-6
DIVE_EVERY = 20  # nodes between diver calls


@dataclass(frozen=True)
class SolverOptions:
    time_limit_s: float = 600.0
    rel_gap: float = 1e-3
    abs_gap: float = 1e-7
    oa_tol: float = 1e-9
    oa_search_tol: float = 1e-4
    seed: int = 0
    replay_tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.time_limit_s <= 0:
            raise ValueError("time_limit_s must be positive")
        if self.rel_gap < 0:
            raise ValueError("rel_gap must be non-negative")


@dataclass
class Solution:
    # optimal | feasible | infeasible | time_limit, or error when an LP
    # failed, no incumbent was found and the time limit did not pass
    status: str
    x: np.ndarray | None
    objective: float
    bound: float
    gap: float
    node_count: int
    cut_count: int
    runtime_s: float
    # the outer-approximation master's, where it stopped (at most the incumbent's
    # dominance threshold once reached); +inf when not run
    master_bound: float = np.inf
    kwh_factor: float = 1.0
    infeasible_hint: str = ""
    incumbent_source: str = ""

    @property
    def objective_kwh(self) -> float:
        return self.objective * self.kwh_factor


@dataclass(order=True)
class _Node:
    neg_bound: float
    tie: int
    fixes: dict[int, float] = field(compare=False)
    lp: LpResult | None = field(compare=False, default=None)  # solved already


class _Search:
    def __init__(self, model: LinearModel, options: SolverOptions, deadline: float) -> None:
        self.model = model
        self.opts = options
        self.backend = LpBackend(model, deadline)
        self.rng = np.random.default_rng(options.seed)
        self.inc_x: np.ndarray | None = None
        self.inc_val = -np.inf
        self.inc_src = ""
        self.open_bound = -np.inf  # best inherited bound of the subtrees left open
        self.pruned_bound = -np.inf  # best bound of the nodes the incumbent pruned
        self.master_bound = np.inf  # caps every bound once run_master ran

    def out_of_time(self) -> bool:
        return time.monotonic() > self.backend.deadline

    # -- incumbent ------------------------------------------------------------

    def offer_incumbent(self, x: np.ndarray, source: str) -> bool:
        """False if ``x`` fails the replay; a point that replays but is no better is ignored."""
        if self.model.check_solution(x, self.opts.replay_tol, self.opts.replay_tol):
            return False
        val = self.model.objective_value(x)
        if val > self.inc_val:
            self.inc_x, self.inc_val, self.inc_src = x.copy(), val, source
        return True

    def dominance_threshold(self) -> float:
        """The largest bound the incumbent dominates; -inf while there is none."""
        if self.inc_x is None:
            return -np.inf
        tol = max(self.opts.abs_gap, self.opts.rel_gap * max(1.0, abs(self.inc_val)))
        return self.inc_val + tol

    def dominated(self, bound: float) -> bool:
        return self.inc_x is not None and bound <= self.dominance_threshold()

    def prune(self, bound: float) -> bool:
        """True if the incumbent dominates ``bound``, which then stays in the proven bound."""
        if not self.dominated(bound):
            return False
        self.pruned_bound = max(self.pruned_bound, bound)
        return True

    def run_master(self) -> float:
        """The bound of one outer-approximation master, given half the time left.

        The master stops once its bound reaches the incumbent's dominance
        threshold, where a tighter bound would prove nothing more.  The
        search's HiGHS instance is released while the master runs, so the
        two never sit in memory together.
        """
        left = self.backend.deadline - time.monotonic()
        if left > 0.0:
            self.backend.release()
            self.master_bound = master_bound(
                self.model, seed_tangents(self.model), 0.5 * left, self.dominance_threshold()
            )
        return self.master_bound

    # -- relaxation -------------------------------------------------------------

    def leave_open(self, res: LpResult, bound: float) -> None:
        """Only an infeasible LP closes a node; any other failure keeps its bound.

        That includes an optimal LP whose integral point fails the replay.
        """
        if res.status != "infeasible":
            self.open_bound = max(self.open_bound, bound)

    def oa_refine(
        self, fixes: dict[int, float], res: LpResult, rounds: int, tol: float | None = None
    ) -> LpResult:
        tol = self.opts.oa_tol if tol is None else tol
        for _ in range(rounds):
            if not res.ok or self.out_of_time():
                break
            viol = cone_violations(self.model, res.x, tol)
            if not viol:
                break
            cones = self.model.cones
            cuts = [(idx, soc_cut(cones[idx].point(res.x), cones[idx])) for idx, _ in viol]
            self.backend.add_cuts(cuts, res.x)
            res = self.backend.solve(fixes)
        return res

    def fractional_binaries(self, x: np.ndarray) -> list[int]:
        cols = self.model.free_binary_columns
        vals = x[cols]
        frac = np.abs(vals - np.round(vals))
        return [int(c) for c, f in zip(cols, frac) if f > INT_TOL]

    def pick_branch(self, x: np.ndarray, cand: list[int]) -> int:
        dist = [abs(x[c] - round(x[c])) for c in cand]
        best = max(dist)
        tied = sorted(c for c, d in zip(cand, dist) if best - d <= 1e-12)
        if len(tied) > 1 and self.opts.seed:
            return int(tied[self.rng.integers(0, len(tied))])
        return int(tied[0])


def solve(
    model: LinearModel,
    options: SolverOptions | None = None,
    warm_start: np.ndarray | None = None,
    warm_start_source: str = "caller",
    diver: Callable[[np.ndarray, LpBackend, float], np.ndarray | None] | None = None,
) -> Solution:
    """Maximize the model; returns the best incumbent with a proven gap.

    ``warm_start`` must be a fully feasible point (it is replayed before
    acceptance).  ``diver`` maps a relaxation point, the search's backend and
    a cutoff, the incumbent's value (-inf while there is none), to a feasible
    full vector that scores above the cutoff, or None; it is consulted
    periodically for incumbents.
    """
    opts = options or SolverOptions()
    t0 = time.monotonic()
    search = _Search(model, opts, deadline=t0 + opts.time_limit_s)
    kwh = float(model.meta.get("kw_base", 1.0))

    if warm_start is not None:
        search.offer_incumbent(warm_start, warm_start_source)
    if search.inc_x is not None:
        search.backend.add_cuts(incumbent_tangents(model, search.inc_x), search.inc_x)

    tie = itertools.count()
    heap: list[_Node] = []
    timed_out = False

    root = search.oa_refine({}, search.backend.solve(), MAX_OA_ROUNDS, tol=opts.oa_search_tol)
    nodes = 1
    if root.ok:
        heapq.heappush(heap, _Node(-root.objective, next(tie), {}, root))
    else:
        search.leave_open(root, np.inf)

    while heap:
        if search.out_of_time():
            timed_out = True
            break
        node = heapq.heappop(heap)
        bound = min(-node.neg_bound, search.master_bound)
        if search.prune(bound):  # best-first: so is every node left in the heap
            break

        res = node.lp
        if res is None:
            nodes += 1
            res = search.oa_refine(
                node.fixes,
                search.backend.solve(node.fixes),
                OA_ROUNDS_FRACTIONAL,
                tol=opts.oa_search_tol,
            )
        if not res.ok:
            search.leave_open(res, bound)
            continue
        bound = min(bound, res.objective)
        if search.prune(bound):
            continue

        frac = search.fractional_binaries(res.x)
        if not frac:
            res = search.oa_refine(node.fixes, res, MAX_OA_ROUNDS)
            if not res.ok:
                search.leave_open(res, bound)
                continue
            bound = min(bound, res.objective)
            frac = search.fractional_binaries(res.x)
            if not frac:
                if not search.offer_incumbent(res.x, "branch-and-bound"):
                    search.leave_open(res, bound)
                continue
            if search.prune(bound):
                continue

        if (
            diver is not None
            and nodes % DIVE_EVERY == 1
            and time.monotonic() - t0 < 0.8 * opts.time_limit_s
        ):
            dived = diver(res.x, search.backend, search.inc_val)
            if dived is not None:
                search.offer_incumbent(dived, "dive")

        if not node.fixes:  # the root, still open after its LP and the diver
            bound = min(bound, search.run_master())
            if search.prune(bound):
                continue

        col = search.pick_branch(res.x, frac)
        for val in (0.0, 1.0):
            fixes = dict(node.fixes)
            fixes[col] = val
            heapq.heappush(heap, _Node(-bound, next(tie), fixes))

    # every node is in the heap, pruned by the incumbent, left open or closed by its own point
    open_tree = -heap[0].neg_bound if heap else -np.inf
    proven_bound = min(max(open_tree, search.pruned_bound, search.open_bound), search.master_bound)
    # an LP cut off at the deadline left its node open: the time limit ended the search
    timed_out = timed_out or (search.open_bound > -np.inf and search.out_of_time())
    if search.inc_x is None:
        gap = np.inf
        if timed_out:
            status = "time_limit"
        else:
            status = "error" if search.open_bound > -np.inf else "infeasible"
    else:
        proven_bound = max(proven_bound, search.inc_val)
        gap = (proven_bound - search.inc_val) / max(1.0, abs(search.inc_val))
        if search.dominated(proven_bound):
            status = "optimal"
        elif timed_out:
            status = "time_limit"
        else:
            status = "feasible"
    return Solution(
        status=status,
        x=search.inc_x,
        objective=search.inc_val,
        bound=proven_bound,
        gap=gap,
        node_count=nodes,
        cut_count=len(search.backend.cuts),
        runtime_s=time.monotonic() - t0,
        master_bound=search.master_bound,
        kwh_factor=kwh,
        infeasible_hint=infeasibility_hint(model) if status == "infeasible" else "",
        incumbent_source=search.inc_src,
    )
