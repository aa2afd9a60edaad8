import math

import numpy as np
import pytest

from oracles import full_draw_sublevel_measure, sorted_sublevel_measures
from thinpart.analysis import (
    _BLOCK,
    Box,
    GridTooSmallError,
    ScalarField,
    _haar_coefficient_samples,
    compact_group_sublevel_fit,
    compact_group_sublevel_measures,
    sublevel_measure,
)
from thinpart.linalg import haar_orthogonal


def _monomial(d):
    return ScalarField(1, lambda pts, d=d: pts[:, 0] ** d)


_UNIT = Box(center=np.zeros(1), radius=1.0)


class TestSublevelMeasure:
    def test_monomial_closed_form(self):
        # measure{|x^d| < eps} on [-1, 1] is exactly eps^(1/d)
        rng = np.random.default_rng(11)
        for d in (1, 2, 3):
            got = sublevel_measure(_monomial(d), _UNIT, 1e-2, 400_000, rng)
            want = (1e-2) ** (1.0 / d)
            band = 3.0 * math.sqrt(got * (1.0 - got) / 400_000)  # 3 sigma CLT band
            assert abs(got - want) <= max(band, 3e-4)

    def test_input_validation(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError):
            sublevel_measure(_monomial(1), _UNIT, 0.1, 10, rng)
        with pytest.raises(ValueError):
            sublevel_measure(_monomial(1), _UNIT, -0.1, 2_000, rng)
        field2 = ScalarField(2, lambda pts: pts[:, 0])
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

    @pytest.mark.parametrize("n_samples", [0, -5])
    def test_sample_count_below_one_raises(self, n_samples):
        # a plain ValueError, not the GridTooSmallError an empty count would give
        for call in (compact_group_sublevel_fit, compact_group_sublevel_measures):
            with pytest.raises(ValueError, match="at least 1 sample") as info:
                call(2, (0, 0), [1e-1, 1e-2], np.random.default_rng(22), n_samples)
            assert not isinstance(info.value, GridTooSmallError)


# sample counts on both sides of the block boundary, and several blocks with a tail
_COUNTS = [1, _BLOCK - 1, _BLOCK, 3 * _BLOCK + 17]
_EPS_GRID = [0.5, 1e-3, 0.1, 2.0, 1e-2]  # unsorted, one eps above sup|f|


class TestBlockedCounting:
    """Blocked counts equal the one-shot oracles exactly, and use the same stream."""

    @pytest.mark.parametrize("n_samples", _COUNTS)
    @pytest.mark.parametrize(
        "n, coefficient",
        [(2, (0, 0)), (2, (0, 1)), (2, (1, 0)), (2, (1, 1)), (3, (1, 2)), (4, (3, 0))],
    )
    def test_measures_match_sort_and_searchsorted(self, n, coefficient, n_samples):
        rng, ref = np.random.default_rng(23), np.random.default_rng(23)
        got = compact_group_sublevel_measures(n, coefficient, _EPS_GRID, rng, n_samples)
        want = sorted_sublevel_measures(n, coefficient, _EPS_GRID, ref, n_samples)
        assert np.array_equal(got, want)
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("n", [2, 3])
    def test_fit_matches_the_fit_of_the_oracle_measures(self, n):
        grid = [1e-1, 3e-1, 3e-2]
        got = compact_group_sublevel_fit(n, (0, 1), grid, np.random.default_rng(24), 40_000)
        eps = np.array(sorted(grid))
        measures = sorted_sublevel_measures(n, (0, 1), eps, np.random.default_rng(24), 40_000)
        slope, intercept = np.polyfit(np.log(eps), np.log(measures), 1)
        assert got == (float(np.exp(intercept)), float(slope))

    @pytest.mark.parametrize("n_samples", [1000, _BLOCK - 1, _BLOCK, 3 * _BLOCK + 17])
    @pytest.mark.parametrize(
        "field, box, eps",
        [
            (_monomial(3), _UNIT, 1e-3),
            (ScalarField(2, lambda pts: pts[:, 0] * pts[:, 1] - 0.01),
             Box(center=np.array([0.3, -0.2]), radius=0.5), 2e-2),
        ],
        ids=["1d", "2d"],
    )
    def test_box_measure_matches_full_draw_mean(self, field, box, eps, n_samples):
        rng, ref = np.random.default_rng(25), np.random.default_rng(25)
        got = sublevel_measure(field, box, eps, n_samples, rng)
        assert got == full_draw_sublevel_measure(field, box, eps, n_samples, ref)
        assert got > 0.0
        assert rng.random() == ref.random()


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
