"""Exhaustive enumeration oracle, independent of the search implementation.

Solves the same model by brute force: every assignment of the free binary
columns, quick rejection against rows whose support is fully pinned by the
assignment, then an LP with hand-rolled tangent refinement of the cone rows.
Deliberately duplicates the tangent-plane math instead of importing it from
the solver under test.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from ugrestore.model import SENSE_EQ, SENSE_GE, SENSE_LE, LinearModel


def _tangent(point, cone):
    # tangent at the boundary point above the violating point (same V, P, Q)
    i0, v0, p0, q0 = point
    if v0 > 1e-9:
        i0 = (p0 * p0 + q0 * q0) / v0
    n = math.sqrt(4 * p0 * p0 + 4 * q0 * q0 + (i0 - v0) ** 2)
    if n <= 0:
        return None
    gi = (i0 - v0) / n - 1.0
    gv = -(i0 - v0) / n - 1.0
    gp = 4.0 * p0 / n
    gq = 4.0 * q0 / n
    f0 = n - (i0 + v0)
    rhs = gi * i0 + gv * v0 + gp * p0 + gq * q0 - f0
    return tuple(cone.tolist()), (gi, gv, gp, gq), rhs


def _lp_with_cones(model: LinearModel, lb, ub, tol=1e-9, max_rounds=300):
    m = model.matrix().tocsr()
    le = np.flatnonzero(model.sense == SENSE_LE)
    ge = np.flatnonzero(model.sense == SENSE_GE)
    eq = np.flatnonzero(model.sense == SENSE_EQ)
    blocks, rhs_parts = [], []
    if le.size:
        blocks.append(m[le])
        rhs_parts.append(model.rhs[le])
    if ge.size:
        blocks.append(-m[ge])
        rhs_parts.append(-model.rhs[ge])
    a_ub = sp.vstack(blocks, format="csr") if blocks else None
    b_ub = np.concatenate(rhs_parts) if rhs_parts else None
    a_eq = m[eq].tocsr() if eq.size else None
    b_eq = model.rhs[eq] if eq.size else None
    cuts_cols, cuts_coefs, cuts_rhs = [], [], []
    prev_worst = None
    stall = 0
    last = None
    for _ in range(max_rounds):
        extra = None
        extra_rhs = None
        if cuts_cols:
            rows = []
            cols = []
            vals = []
            for i, (cc, coefs) in enumerate(zip(cuts_cols, cuts_coefs)):
                rows.extend([i] * 4)
                cols.extend(cc)
                vals.extend(coefs)
            extra = sp.coo_matrix((vals, (rows, cols)), shape=(len(cuts_cols), model.ncols)).tocsr()
            extra_rhs = np.array(cuts_rhs)
        full_a = a_ub if extra is None else (extra if a_ub is None else sp.vstack([a_ub, extra], format="csr"))
        full_b = b_ub if extra_rhs is None else (extra_rhs if b_ub is None else np.concatenate([b_ub, extra_rhs]))
        res = linprog(
            c=-model.obj,
            A_ub=full_a,
            b_ub=full_b,
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=np.column_stack((lb, ub)),
            method="highs",
            options={
                "primal_feasibility_tolerance": 1e-10,
                "dual_feasibility_tolerance": 1e-9,
            },
        )
        if res.status == 2:
            return None
        if res.status != 0:
            return None
        x = res.x
        worst = []
        for cone in model.cones:
            i, v, p, q = x[cone]
            slack = i * v - (p**2 + q**2)
            if slack < -tol:
                worst.append((slack, cone))
        if not worst:
            return float(-res.fun), x
        worst.sort(key=lambda pair: pair[0])
        # accept epsilon-feasible points when the refinement stops moving
        # (the LP solver's own tolerance limits attainable cone precision)
        if prev_worst is not None and abs(worst[0][0] - prev_worst) < 1e-11:
            stall += 1
            if stall >= 3 and worst[0][0] > -10 * tol:
                return float(-res.fun), x
        else:
            stall = 0
        prev_worst = worst[0][0]
        last = (float(-res.fun), x, worst[0][0])
        for _, cone in worst[:20]:
            tangent = _tangent(x[cone].tolist(), cone)
            if tangent is not None:
                cc, coefs, rhs = tangent
                cuts_cols.append(cc)
                cuts_coefs.append(coefs)
                cuts_rhs.append(rhs)
    if last is not None and last[2] > -10 * tol:
        return last[0], last[1]
    return None


def exhaustive_solve(model: LinearModel, tol: float = 1e-9):
    """Best objective over all free-binary assignments, or None if infeasible.

    Returns (objective, x, n_assignments_tried_with_lp).
    """
    free = [int(c) for c in model.free_binary_columns]
    n = len(free)
    assert n <= 14, f"enumeration oracle meant for small instances, got {n} binaries"

    # rows whose support lies entirely in fixed or enumerated columns can
    # reject an assignment without an LP
    m = model.matrix().tocsr()
    fixed_mask = model.col_lb == model.col_ub
    enum_mask = np.zeros(model.ncols, dtype=bool)
    enum_mask[free] = True
    pre_rows = []
    for r in range(model.nrows):
        cols = m.indices[m.indptr[r] : m.indptr[r + 1]]
        if np.all(fixed_mask[cols] | enum_mask[cols]):
            pre_rows.append(r)
    pre = m[pre_rows]
    pre_sense = model.sense[pre_rows]
    pre_rhs = model.rhs[pre_rows]
    base = pre @ np.where(fixed_mask, model.col_lb, 0.0)
    coef = pre[:, free].toarray() if pre_rows else np.zeros((0, n))

    best_val, best_x = -np.inf, None
    lp_calls = 0
    for bits in itertools.product((0.0, 1.0), repeat=n):
        b = np.array(bits)
        lhs = base + coef @ b
        bad = (
            ((pre_sense == SENSE_LE) & (lhs > pre_rhs + 1e-9))
            | ((pre_sense == SENSE_GE) & (lhs < pre_rhs - 1e-9))
            | ((pre_sense == SENSE_EQ) & (np.abs(lhs - pre_rhs) > 1e-9))
        )
        if bad.any():
            continue
        lb = model.col_lb.copy()
        ub = model.col_ub.copy()
        lb[free] = b
        ub[free] = b
        lp_calls += 1
        got = _lp_with_cones(model, lb, ub, tol=tol)
        if got is None:
            continue
        val, x = got
        if val > best_val:
            best_val, best_x = val, x
    return (best_val, best_x, lp_calls) if best_x is not None else None
