import mpmath
import numpy as np
import pytest

from ugrestore.quantile import normal_cdf, normal_quantile

mpmath.mp.dps = 40


def mp_cdf(x: float) -> float:
    return float(mpmath.ncdf(x))


class TestNormalCdf:
    def test_symmetry_point(self):
        assert normal_cdf(0.0) == 0.5

    @pytest.mark.parametrize("x", [-4.0, -1.0, -0.3, 0.7, 1.0, 2.5, 5.0])
    def test_against_high_precision(self, x):
        assert normal_cdf(x) == pytest.approx(mp_cdf(x), rel=1e-14, abs=1e-18)


class TestNormalQuantile:
    def test_median(self):
        assert normal_quantile(0.5) == 0.0

    def test_one_sigma(self):
        # Phi(1) from the high-precision series
        p = mp_cdf(1.0)
        assert abs(p - 0.8413447460685429) < 1e-15
        assert normal_quantile(0.8413447) == pytest.approx(1.0, abs=1e-4)

    def test_two_and_half_percent(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                normal_quantile(bad)

    def test_round_trip_accuracy(self):
        rng = np.random.default_rng(7)
        ps = rng.uniform(0.001, 0.999, size=10_000)
        worst = max(abs(normal_cdf(normal_quantile(p)) - p) for p in ps)
        assert worst < 1e-9

    def test_tails(self):
        for p in (1e-6, 1e-4, 0.0012, 0.9988, 1 - 1e-4, 1 - 1e-6):
            q = normal_quantile(p)
            assert normal_cdf(q) == pytest.approx(p, abs=1e-12)
