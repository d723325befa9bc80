"""Standard normal CDF and quantile used by the chance-constraint derating.

The standard library's :class:`statistics.NormalDist` does the work: the
CDF through ``erfc`` and the quantile by Wichura's algorithm AS241, good to
about 1e-16.
"""

from __future__ import annotations

from statistics import NormalDist

_STANDARD = NormalDist()


def normal_cdf(x: float) -> float:
    return _STANDARD.cdf(x)


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF; ``ValueError`` outside (0, 1), NaN included."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1)")
    return _STANDARD.inv_cdf(p)
