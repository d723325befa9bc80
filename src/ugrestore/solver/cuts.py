"""Outer-approximation cuts for the rotated cone rows.

A rotated cone ``I*V >= P^2 + Q^2`` (I, V >= 0) is equivalent to the
standard cone ``||(2P, 2Q, I-V)|| <= I + V``; its violation function

    f(I, V, P, Q) = sqrt(4P^2 + 4Q^2 + (I-V)^2) - (I + V)

is convex, so its linearization at a point of the cone's boundary is a
supporting hyperplane, valid for the whole model (:func:`tangent`).  The
boundary points:

- :func:`soc_cut` lifts a violating point onto the boundary along the
  squared-current axis, I = (P^2 + Q^2) / V, and the cut separates it;
- :func:`incumbent_tangents` lifts a feasible incumbent the same way: outer
  approximation's first linearization, which the search loads before its
  root LP;
- :func:`unit_tangents` sweeps unit-voltage points, the seed rows of the
  MPS export and of the outer-approximation master, which
  :func:`seed_tangents` lays out for every cone as one array block.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from ugrestore.model import ConeRow, LinearModel
from ugrestore.solver.lp import Cut

CONE_TANGENTS = 8  # seed tangent planes per cone, in the MPS export
SNAP = 1e-12  # |coefficient| or |rhs| of a seed tangent below this is rounding residue
V_MIN = 1e-9  # at or below this V a point is not lifted to I = (P^2 + Q^2) / V


class NoCutError(ValueError):
    """The point does not violate the cone, no cut exists."""


def _violation(i: float, v: float, p: float, q: float) -> float:
    return math.sqrt(4.0 * p * p + 4.0 * q * q + (i - v) ** 2) - (i + v)


def tangent(point: tuple[float, float, float, float], cone: ConeRow) -> Cut:
    """Linearization ``f(b) + g . (x - b) <= 0`` of the violation function at ``b = point``.

    At a point of the cone's boundary (f(b) = 0) this is the tangent plane
    there, a supporting hyperplane of the cone.  Every tangent plane of
    the homogeneous cone passes through the apex, so the apex always
    satisfies it with equality.
    """
    i_b, v_b, p_b, q_b = point
    n = math.sqrt(4.0 * p_b * p_b + 4.0 * q_b * q_b + (i_b - v_b) ** 2)
    if n <= 0.0:
        # apex neighborhood: separate with the face i + v >= 0 complement
        n = 1.0
        i_b = v_b = 0.5
    gi = (i_b - v_b) / n - 1.0
    gv = -(i_b - v_b) / n - 1.0
    gp = 4.0 * p_b / n
    gq = 4.0 * q_b / n
    f_b = _violation(i_b, v_b, p_b, q_b)
    rhs = gi * i_b + gv * v_b + gp * p_b + gq * q_b - f_b
    return Cut(
        cols=(cone.col_i, cone.col_v, cone.col_p, cone.col_q),
        coefs=(gi, gv, gp, gq),
        rhs=rhs,
    )


def soc_cut(point: tuple[float, float, float, float], cone: ConeRow, tol: float = 1e-12) -> Cut:
    """Supporting-hyperplane cut separating a cone-violating point.

    The tangent is taken at the boundary point directly above the violating
    point along the squared-current axis (the point a loss-pressured optimum
    converges to), which cuts far deeper than the subgradient at the point
    itself.  At V <= ``V_MIN`` there is no such point, and the cut is the
    linearization at the point itself.
    """
    i0, v0, p0, q0 = point
    f0 = _violation(i0, v0, p0, q0)
    if f0 <= tol:
        raise NoCutError(f"point violates the cone by {f0:.3e} <= {tol:.0e}")
    if v0 > V_MIN:
        i0 = (p0 * p0 + q0 * q0) / v0
    return tangent((i0, v0, p0, q0), cone)


def incumbent_tangents(model: LinearModel, x: np.ndarray) -> list[tuple[int, Cut]]:
    """``(cone, cut)``: the tangent above ``x`` of every cone that carries flow at ``x``.

    Each tangent is taken at the boundary point above ``x``'s (V, P, Q),
    I = (P^2 + Q^2) / V, so it is valid whether or not the cone is tight at
    ``x``.  A cone with V <= ``V_MIN`` or P = Q = 0 gets none: its tangent
    there is I >= 0 or degenerate, which the column bounds already imply.
    """
    out = []
    for idx, cone in enumerate(model.cones):
        _, v, p, q = cone.point(x)
        if v > V_MIN and (p != 0.0 or q != 0.0):
            out.append((idx, tangent(((p * p + q * q) / v, v, p, q), cone)))
    return out


def cone_violations(model: LinearModel, x: np.ndarray, tol: float) -> list[tuple[int, float]]:
    """Indices and magnitudes of cone rows violated beyond ``tol``, worst first."""
    slack = model.cone_values(x)
    bad = np.flatnonzero(slack < -tol)
    out = [(int(i), float(-slack[i])) for i in bad]
    out.sort(key=lambda pair: -pair[1])
    return out


def unit_tangents(
    n_angles: int = CONE_TANGENTS,
) -> list[tuple[tuple[float, float, float, float], float]]:
    """Coefficients on (I, V, P, Q) and right-hand side of each seed tangent plane.

    Tangents are taken at unit-voltage boundary points with flow direction
    swept over ``n_angles`` angles (:func:`tangent`).  They depend on the
    angle only, so every cone shares them.  Rounding residue below ``SNAP``
    (cos and sin at multiples of pi/2, and the right-hand sides, which are
    exactly 0 since every plane passes through the apex) is set to an exact 0.
    """

    def snap(v: float) -> float:
        return 0.0 if abs(v) < SNAP else v

    axes = ConeRow(0, 1, 2, 3, "", ())
    planes = []
    for m in range(n_angles):
        ang = 2.0 * math.pi * m / n_angles
        cut = tangent((1.0, 1.0, math.cos(ang), math.sin(ang)), axes)
        planes.append((tuple(snap(a) for a in cut.coefs), snap(cut.rhs)))
    return planes


def seed_tangents(model: LinearModel, n_angles: int = CONE_TANGENTS) -> tuple[sp.csr_matrix, np.ndarray]:
    """The :func:`unit_tangents` planes of every cone, cone by cone: CSR rows and their right-hand sides.

    Row ``n_angles * cone + angle`` holds the plane's coefficients on the
    cone's (I, V, P, Q) columns, exact zeros included, so the rows are
    those of :func:`initial_cone_cuts`, in its order.
    """
    planes = unit_tangents(n_angles)
    cone_cols = model.cone_cols
    n = len(cone_cols) * n_angles
    rows = sp.csr_matrix(
        (
            np.tile([coefs for coefs, _ in planes], (len(cone_cols), 1)).ravel(),
            np.repeat(cone_cols, n_angles, axis=0).ravel(),
            np.arange(0, 4 * n + 1, 4),
        ),
        shape=(n, model.ncols),
    )
    return rows, np.tile([rhs for _, rhs in planes], len(cone_cols))


def initial_cone_cuts(model: LinearModel, n_angles: int = CONE_TANGENTS) -> list[Cut]:
    """The :func:`unit_tangents` planes of every cone, cone by cone, as :class:`Cut` objects."""
    planes = unit_tangents(n_angles)
    return [
        Cut(cols=(cone.col_i, cone.col_v, cone.col_p, cone.col_q), coefs=coefs, rhs=rhs)
        for cone in model.cones
        for coefs, rhs in planes
    ]
