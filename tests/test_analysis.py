import math

import numpy as np
import pytest

from thinpart.analysis import (
    Box,
    GridTooSmallError,
    ScalarField,
    compact_group_sublevel_fit,
    sublevel_measure,
)


def _monomial(d):
    return ScalarField(1, lambda pts, d=d: pts[:, 0] ** d, f"x^{d}")


_UNIT = Box(center=np.zeros(1), radius=1.0)


class TestSublevelMeasure:
    def test_monomial_closed_form(self):
        # measure{|x^d| < eps} on [-1, 1] is exactly eps^(1/d)
        rng = np.random.default_rng(11)
        for d in (1, 2, 3):
            est = sublevel_measure(_monomial(d), _UNIT, 1e-2, 400_000, rng)
            want = (1e-2) ** (1.0 / d)
            assert abs(est.value - want) <= max(est.halfwidth, 3e-4)

    def test_band_shrinks_with_samples(self):
        rng = np.random.default_rng(12)
        wide = sublevel_measure(_monomial(1), _UNIT, 0.1, 2_000, rng)
        tight = sublevel_measure(_monomial(1), _UNIT, 0.1, 200_000, rng)
        assert tight.halfwidth < wide.halfwidth

    def test_input_validation(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError):
            sublevel_measure(_monomial(1), _UNIT, 0.1, 10, rng)
        with pytest.raises(ValueError):
            sublevel_measure(_monomial(1), _UNIT, -0.1, 2_000, rng)
        field2 = ScalarField(2, lambda pts: pts[:, 0], "first")
        with pytest.raises(ValueError):
            sublevel_measure(field2, _UNIT, 0.1, 2_000, rng)

    def test_box_validation(self):
        with pytest.raises(ValueError):
            Box(center=np.zeros(2), radius=0.0)


class TestCompactGroupFit:
    def test_so2_slope_and_prefactor(self):
        # measure{|cos theta| < eps} = (2/pi) asin(eps) ~ (2/pi) eps
        rng = np.random.default_rng(16)
        kappa, slope = compact_group_sublevel_fit(
            2, (0, 0), [1e-1, 1e-2, 1e-3], rng, n_samples=2_000_000
        )
        assert slope == pytest.approx(1.0, abs=0.05)
        assert kappa == pytest.approx(2.0 / math.pi, rel=0.10)

    def test_so3_entry_has_slope_one(self):
        # any single coefficient of SO(3) vanishes to first order
        rng = np.random.default_rng(17)
        _, slope = compact_group_sublevel_fit(
            3, (1, 2), [3e-1, 1e-1, 3e-2], rng, n_samples=4_000
        )
        assert slope == pytest.approx(1.0, abs=0.2)

    def test_grid_below_resolution_raises(self):
        rng = np.random.default_rng(18)
        with pytest.raises(GridTooSmallError):
            compact_group_sublevel_fit(2, (0, 0), [1e-9, 1e-8], rng, n_samples=2_000)
