"""Deactivation bounds derived from case data.

Every big-M coefficient in the model comes from one of these functions,
computed from the case's variable ranges by interval arithmetic.  There is
deliberately no global fallback constant and no per-case override.
"""

from __future__ import annotations

import numpy as np

from ugrestore.feeder import FeederCase


def _max_trapped_sq(case: FeederCase) -> float:
    if not case.switchgears:
        return 0.0
    return max(float(np.max(g.trapped_v_sq)) for g in case.switchgears)


def voltage_diff_bound(case: FeederCase) -> float:
    """Largest |voltage difference| expressible at a closing event.

    The linearized difference is half the squared-magnitude spread plus the
    angle correction; squared voltages range over [0, v_max_sq], trapped
    values over [0, max trapped], angles over the closing window.
    """
    spread = max(case.config.v_max_sq, _max_trapped_sq(case))
    return 0.5 * spread + case.config.angle_window_rad


def flow_bound(case: FeederCase) -> float:
    """Bound on any single per-phase line flow or balance mismatch."""
    # per period: each node's phases summed, then the nodes one after another
    demand = max(sum(n.load_p.sum(axis=1) for n in case.nodes).tolist(), default=0.0)
    res = sum(float(np.max(r.forecast_pu, initial=0.0)) * 3 for r in case.res_units)
    ess = sum(float(np.sum(e.rated_phase_pu)) for e in case.ess_units)
    return demand + res + ess


def entry_spread(matrix: np.ndarray) -> float:
    """max entry minus min entry; zero for an all-equal (or empty) matrix."""
    if matrix.size == 0:
        return 0.0
    return float(np.max(matrix) - np.min(matrix))


def reorder_power_bracket(coeff: np.ndarray, amp_sq: float) -> float:
    """Bracket bound for reordered coefficient-times-squared-current rows.

    Any two reorderings of the same matrix differ entrywise by at most the
    entry spread; with three phases each at most ``amp_sq``, the row-sum
    bound is ``3 * spread * amp_sq``.
    """
    return 3.0 * entry_spread(coeff) * amp_sq


def reorder_voltage_bracket(
    r_hat: np.ndarray, x_hat: np.ndarray, z_hat: np.ndarray, amp_sq: float, flow: float
) -> float:
    """Bracket bound for the reordered voltage-drop expression."""
    return (
        2.0 * 3.0 * entry_spread(r_hat) * flow
        + 2.0 * 3.0 * entry_spread(x_hat) * flow
        + 3.0 * entry_spread(z_hat) * amp_sq
    )
