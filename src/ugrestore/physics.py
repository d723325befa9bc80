"""Closed-form switching and energization physics for underground cables.

Everything a switching decision is judged by lives here:

* squared-voltage difference across a switchgear at closing (the linear
  approximation used inside the optimization) and the exact complex-phasor
  difference used as the validation oracle,
* capacitive inrush peak for a given voltage step and rise time,
* the resonance-matching inductance, Q-factor and ZIP damping resistance
  that gate transformer energization,
* the phase-swapping algebra (3x3 permutation action on loads and on
  line impedance matrices),
* the phase balance statistic reported per microgrid.

All functions are pure and operate on plain floats / numpy arrays.  Angles
are radians, capacitance farads, inductance henries; electrical quantities
are per-unit unless a suffix says otherwise.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

NOMINAL_HZ = 60.0

PHASES = ("a", "b", "c")

# The six ways three lateral conductors can land on the three feeder phases.
# Row ordering convention: entry (new, old) == 1 when original phase `old`
# is reconnected to feeder position `new`.
PERMUTATION_ORDERS: tuple[tuple[int, int, int], ...] = (
    (0, 1, 2),
    (0, 2, 1),
    (1, 0, 2),
    (1, 2, 0),
    (2, 0, 1),
    (2, 1, 0),
)

PERMUTATIONS: tuple[np.ndarray, ...] = tuple(
    np.array([[1.0 if old == order[new] else 0.0 for old in range(3)] for new in range(3)])
    for order in PERMUTATION_ORDERS
)


class PhysicsError(ValueError):
    """Base class for invalid physical inputs."""


class AngleWindowError(PhysicsError):
    """Angle difference outside the validity window of the linearized form."""


class DampingUnavailableError(PhysicsError):
    """No restored load downstream, damping resistance is unbounded."""


@dataclass(frozen=True)
class SwitchingPoint:
    """Electrical state across one phase of a switchgear at closing.

    `v_i_sq` and `v_j_trap_sq` are squared voltage magnitudes (p.u. squared)
    on the feeder side and the trapped-charge lateral side, `delta_theta`
    the angle difference in radians.
    """

    v_i_sq: float
    v_j_trap_sq: float
    delta_theta: float
    phase: str = "a"

    def __post_init__(self) -> None:
        if self.v_i_sq < 0.0 or self.v_j_trap_sq < 0.0:
            raise PhysicsError("squared voltage magnitudes must be non-negative")
        if self.phase not in PHASES:
            raise PhysicsError(f"unknown phase {self.phase!r}")


class SwapMatrix:
    """A 3x3 binary matrix routing lateral conductors onto feeder phases.

    Valid states are the fully open matrix (all zero) and the six full
    permutations; partial connections are rejected.
    """

    __slots__ = ("entries",)

    def __init__(self, entries) -> None:
        m = np.asarray(entries, dtype=float)
        if m.shape != (3, 3):
            raise PhysicsError("swap matrix must be 3x3")
        if not np.all((m == 0.0) | (m == 1.0)):
            raise PhysicsError("swap matrix entries must be 0 or 1")
        rows = m.sum(axis=1)
        cols = m.sum(axis=0)
        if np.any(rows > 1.0) or np.any(cols > 1.0):
            raise PhysicsError("swap matrix rows/columns may hold at most one connection")
        total = m.sum()
        if total not in (0.0, 3.0):
            raise PhysicsError("swap matrix must be fully open or a full permutation")
        self.entries = m

    @classmethod
    def identity(cls) -> "SwapMatrix":
        return cls(np.eye(3))

    @classmethod
    def open(cls) -> "SwapMatrix":
        return cls(np.zeros((3, 3)))


def squared_voltage_difference(point: SwitchingPoint, angle_window: float = math.radians(10.0)) -> float:
    """Linearized voltage difference across a closing switch, in p.u.

    Returns ``(v_i_sq - v_j_trap_sq) / 2 + delta_theta``.  The form is only
    meaningful with per-unit inputs normalized to a 1.0 p.u. reference; the
    angle correction term is valid for small angle differences, so angles
    outside ``angle_window`` are rejected (callers should fall back to
    :func:`exact_phasor_difference` there).
    """
    if abs(point.delta_theta) > angle_window + 1e-12:
        raise AngleWindowError(
            f"|delta_theta|={abs(point.delta_theta):.4f} rad exceeds the "
            f"{angle_window:.4f} rad validity window"
        )
    return 0.5 * (point.v_i_sq - point.v_j_trap_sq) + point.delta_theta


def exact_phasor_difference(v_i: float, theta_i: float, v_j: float, theta_j: float) -> float:
    """|V_i e^{j theta_i} - V_j e^{j theta_j}| by complex arithmetic.

    No small-angle or small-magnitude-difference assumptions; this is the
    oracle the linearized form is validated against.
    """
    if v_i < 0.0 or v_j < 0.0:
        raise PhysicsError("voltage magnitudes must be non-negative")
    return abs(v_i * cmath.exp(1j * theta_i) - v_j * cmath.exp(1j * theta_j))


def inrush_peak(c_tot: float, delta_v: float, rise_time: float) -> float:
    """Capacitive inrush peak ``C * dV / dt`` in amperes.

    ``c_tot`` is the total downstream cable capacitance in farads,
    ``delta_v`` the voltage step in volts, ``rise_time`` the closing rise
    time in seconds.
    """
    if rise_time <= 0.0:
        raise PhysicsError("rise_time must be positive")
    return c_tot * delta_v / rise_time


def inrush_coefficient_pu(c_tot: float, rise_time: float, base_kv: float, base_mva: float) -> float:
    """Per-unit inrush current produced per unit of per-unit voltage step.

    With Z_base = kV^2 / MVA, the amp-level formula C*dV/dt collapses to
    ``I_pu = (C * Z_base / dt) * dV_pu``; this returns that multiplier.
    """
    if rise_time <= 0.0:
        raise PhysicsError("rise_time must be positive")
    if base_kv <= 0.0 or base_mva <= 0.0:
        raise PhysicsError("base quantities must be positive")
    z_base = (base_kv**2) / base_mva
    return c_tot * z_base / rise_time


def base_current_amperes(base_kv: float, base_mva: float) -> float:
    """Per-phase base current for a three-phase base, in amperes."""
    return base_mva * 1e6 / (math.sqrt(3.0) * base_kv * 1e3)


def resonant_inductance(c_eq: float, f_nom: float = NOMINAL_HZ) -> float:
    """Inductance that resonates with ``c_eq`` at the nominal frequency."""
    if c_eq <= 0.0:
        raise PhysicsError("c_eq must be positive")
    w = 2.0 * math.pi * f_nom
    return 1.0 / (w * w * c_eq)


def q_factor(r_dp: float, c_eq: float, l_osc: float) -> float:
    """Quality factor ``R * sqrt(C / L)`` of the series-parallel RLC loop."""
    if c_eq <= 0.0 or l_osc <= 0.0:
        raise PhysicsError("c_eq and l_osc must be positive")
    if r_dp < 0.0:
        raise PhysicsError("r_dp must be non-negative")
    return r_dp * math.sqrt(c_eq / l_osc)


def damping_resistance(v_j_sq: float, zip_z: float, p_tot: float) -> float:
    """Damping resistance of the constant-impedance load share, p.u.

    ZIP decomposition: the Z-type fraction ``zip_z`` of the restored
    downstream load ``p_tot`` behaves as resistance ``v_j_sq / (zip_z *
    p_tot)``.  With no restored load there is nothing to damp the resonance
    and the value diverges, which is reported as an error.
    """
    if not 0.0 < zip_z < 1.0:
        raise PhysicsError("zip_z must lie in (0, 1)")
    if p_tot <= 0.0:
        raise DampingUnavailableError("no restored load downstream, damping resistance unbounded")
    return v_j_sq / (zip_z * p_tot)


def q_factor_from_load(c_eq: float, p_tot: float, zip_z: float, v_nom_sq: float = 1.0) -> float:
    """Q-factor implied by a restored downstream load level.

    Chains :func:`damping_resistance` with :func:`q_factor` using the
    resonance-matched inductance for ``c_eq``.
    """
    r_dp = damping_resistance(v_nom_sq, zip_z, p_tot)
    return q_factor(r_dp, c_eq, resonant_inductance(c_eq))


def q_gate_load_threshold(c_eq: float, q_max: float, zip_z: float, v_nom_sq: float = 1.0) -> float:
    """Minimum restored downstream load for the Q-factor to stay under q_max.

    Algebraic inversion of ``q_factor_from_load(c_eq, p) <= q_max``; the
    threshold is ``v_nom_sq / (zip_z * q_max * sqrt(l_osc / c_eq))``.
    Returns 0.0 when there is no downstream cable capacitance.
    """
    if q_max <= 0.0:
        raise PhysicsError("q_max must be positive")
    if c_eq <= 0.0:
        return 0.0
    l_osc = resonant_inductance(c_eq)
    return v_nom_sq / (zip_z * q_max * math.sqrt(l_osc / c_eq))


def equivalent_capacitance_farads(segments) -> float:
    """Total shunt capacitance of cable segments given as (miles, nF/mile)."""
    total_nf = 0.0
    for length_miles, nf_per_mile in segments:
        if length_miles < 0.0 or nf_per_mile < 0.0:
            raise PhysicsError("cable segment lengths and capacitances must be non-negative")
        total_nf += length_miles * nf_per_mile
    return total_nf * 1e-9


def apply_phase_swap(swap: SwapMatrix, load) -> np.ndarray:
    """Route a per-phase 3-vector of load through the swap matrix."""
    v = np.asarray(load, dtype=float)
    if v.shape != (3,):
        raise PhysicsError("load must be a 3-vector")
    return swap.entries @ v


def reorder_impedance(perm, z) -> np.ndarray:
    """Reorder a symmetric 3x3 impedance matrix: ``P z P^T``.

    ``perm`` must be one of the six phase permutation matrices; the result
    expresses the same conductors in the feeder phase frame after swapping.
    """
    p = np.asarray(perm, dtype=float)
    if p.shape != (3, 3) or not np.all((p == 0.0) | (p == 1.0)):
        raise PhysicsError("perm must be a 3x3 binary matrix")
    if not (np.all(p.sum(axis=0) == 1.0) and np.all(p.sum(axis=1) == 1.0)):
        raise PhysicsError("perm must be a permutation matrix")
    zm = np.asarray(z, dtype=complex)
    if zm.shape != (3, 3):
        raise PhysicsError("impedance must be 3x3")
    if not np.allclose(zm, zm.T, rtol=1e-9, atol=1e-12):
        raise PhysicsError("impedance matrix must be symmetric")
    return p @ zm @ p.T


def phase_deviation(shares) -> float:
    """Population standard deviation of the three phase load shares.

    ``shares`` must sum to 1 (within 1e-6); returns 0 exactly when the three
    phases carry equal load.
    """
    s = np.asarray(shares, dtype=float)
    if s.shape != (3,):
        raise PhysicsError("shares must be a 3-vector")
    if abs(float(s.sum()) - 1.0) > 1e-6:
        raise PhysicsError("shares must sum to 1")
    return float(np.sqrt(np.mean((s - s.mean()) ** 2)))
