import math

import numpy as np
import pytest

from thinpart.analysis import (
    Box,
    GridTooSmallError,
    ScalarField,
    _haar_coefficient_samples,
    compact_group_sublevel_fit,
    sublevel_measure,
)
from thinpart.linalg import haar_orthogonal


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


class TestHaarCoefficients:
    @pytest.mark.parametrize("coefficient", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_so2_coefficients_follow_the_angle(self, coefficient):
        # <g e_i, e_j> = g[j, i] for g = [[cos, -sin], [sin, cos]], sign included
        i, j = coefficient
        got = _haar_coefficient_samples(2, coefficient, 5_000, np.random.default_rng(19))
        theta = np.random.default_rng(19).uniform(0.0, 2.0 * np.pi, size=5_000)
        rotation = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        assert np.array_equal(got, rotation[j][i])

    @pytest.mark.parametrize("n", [3, 4])
    def test_stacked_draw_matches_per_sample_loop(self, n):
        # reference: one haar_orthogonal per sample from the same generator
        for coefficient in ((0, 0), (1, 2), (n - 1, 0)):
            i, j = coefficient
            got = _haar_coefficient_samples(n, coefficient, 500, np.random.default_rng(20))
            rng = np.random.default_rng(20)
            want = np.array([haar_orthogonal(n, rng)[j, i] for _ in range(500)])
            assert np.array_equal(got, want)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            _haar_coefficient_samples(3, (0, 3), 10, np.random.default_rng(21))
