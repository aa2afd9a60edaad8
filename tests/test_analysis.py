import math

import numpy as np
import pytest

from oracles import full_draw_sublevel_measure, sorted_sublevel_measures
from thinpart.analysis import (
    _BLOCK,
    _WINDOW_MARGIN,
    GridTooSmallError,
    compact_group_sublevel_fit,
    compact_group_sublevel_measures,
    sublevel_measure,
)


def _monomial(d):
    return lambda x: x ** d


class TestSublevelMeasure:
    def test_monomial_closed_form(self):
        # measure{|x^d| < eps} on [-1, 1] is exactly eps^(1/d)
        rng = np.random.default_rng(11)
        for d in (1, 2, 3):
            got = sublevel_measure(_monomial(d), [1e-2], 400_000, rng)[0]
            want = (1e-2) ** (1.0 / d)
            band = 3.0 * math.sqrt(got * (1.0 - got) / 400_000)  # 3 sigma CLT band
            assert abs(got - want) <= max(band, 3e-4)

    def test_input_validation(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError):
            sublevel_measure(_monomial(1), [0.1], 10, rng)
        with pytest.raises(ValueError):
            sublevel_measure(_monomial(1), [0.1, -0.1], 2_000, rng)

    @pytest.mark.parametrize("grid", [[], [-0.1], [0.1, 0.0], [math.nan, 0.1]])
    def test_grid_without_positive_eps_raises_before_drawing(self, grid):
        # refused before the first block is drawn, the empty grid included
        rng, ref = np.random.default_rng(27), np.random.default_rng(27)
        with pytest.raises(ValueError, match="eps must be positive"):
            sublevel_measure(_monomial(1), grid, 2_000, rng)
        assert rng.random() == ref.random()


class TestCompactGroupFit:
    def test_so2_slope_and_prefactor(self):
        # measure{|cos theta| < eps} = (2/pi) asin(eps) ~ (2/pi) eps
        grid = [1e-1, 1e-2, 1e-3]
        measures = compact_group_sublevel_measures(grid, np.random.default_rng(16), 2_000_000)
        kappa, slope = compact_group_sublevel_fit(grid, measures)
        assert slope == pytest.approx(1.0, abs=0.05)
        assert kappa == pytest.approx(2.0 / math.pi, rel=0.10)

    def test_grid_below_resolution_raises(self):
        measures = compact_group_sublevel_measures([1e-9, 1e-8], np.random.default_rng(18), 2_000)
        with pytest.raises(GridTooSmallError, match="any mass"):
            compact_group_sublevel_fit([1e-9, 1e-8], measures)
        with pytest.raises(GridTooSmallError, match="fewer than two"):
            compact_group_sublevel_fit([1e-3, 1e-1, 2.0], [0.0, 0.06, 1.0])

    def test_fit_drops_empty_and_full_grid_points(self):
        # only the two interior points, which lie on 2 eps, enter the fit
        kappa, slope = compact_group_sublevel_fit([1e-6, 1e-2, 1e-1, 2.0], [0.0, 0.02, 0.2, 1.0])
        assert slope == pytest.approx(1.0, rel=1e-12)
        assert kappa == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("n_samples", [0, -5])
    def test_sample_count_below_one_raises(self, n_samples):
        # refused outright, not a 0/0 measure
        with pytest.raises(ValueError, match="at least 1 sample"):
            compact_group_sublevel_measures([1e-1, 1e-2], np.random.default_rng(22), n_samples)

    @pytest.mark.parametrize("grid", [[], [-0.1], [0.1, 0.0], [-2.0], [math.nan, 0.1], [0.1, math.nan]])
    def test_grid_without_positive_eps_raises_before_drawing(self, grid):
        # refused with sublevel_measure's wording, whatever the position of the bad eps
        rng, ref = np.random.default_rng(26), np.random.default_rng(26)
        with pytest.raises(ValueError, match="eps must be positive"):
            compact_group_sublevel_measures(grid, rng, 1_000)
        assert rng.random() == ref.random()


# sample counts on both sides of the block boundary, and several blocks with a tail
_COUNTS = [1, _BLOCK - 1, _BLOCK, 3 * _BLOCK + 17]
_EPS_GRID = [0.5, 1e-3, 0.1, 2.0, 1e-2]  # unsorted, one eps above sup|f|
# goodfn's grid, and the two sides of the 1/2 rule: windowed at max eps = 0.5, not at 0.5000001
_WINDOW_GRIDS = [[1e-1, 1e-2, 1e-3], [1e-3, 0.5, 0.1], [0.25, 0.5000001, 1e-2]]


class TestBlockedCounting:
    """Blocked counts equal the one-shot oracles exactly, and use the same stream."""

    @pytest.mark.parametrize("n_samples", _COUNTS)
    def test_measures_match_sort_and_searchsorted(self, n_samples):
        for grid in [_EPS_GRID, *_WINDOW_GRIDS]:
            rng, ref = np.random.default_rng(23), np.random.default_rng(23)
            got = compact_group_sublevel_measures(grid, rng, n_samples)
            want = sorted_sublevel_measures(grid, ref, n_samples)
            assert np.array_equal(got, want), grid
            assert rng.random() == ref.random()

    @pytest.mark.parametrize("grid", _WINDOW_GRIDS[:2])
    def test_angles_at_the_window_edges_count_as_a_full_cosine(self, grid):
        # the edges of each sublevel set, the window's own edges and the ends of
        # [0, 2 pi), each 0-4 ulp either side, served over more than one block
        w = math.asin(max(grid)) + _WINDOW_MARGIN
        centres = [math.pi / 2 + x for eps in grid for x in (math.asin(eps), -math.asin(eps))]
        centres += [math.pi / 2 + w, math.pi / 2 - w]
        centres += [np.pi + c for c in centres] + [0.0, np.pi, np.nextafter(2.0 * np.pi, 0.0)]
        edges = []
        for c in centres:
            below = above = c
            edges.append(c)
            for _ in range(4):
                below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
                edges += [below, above]
        edges = np.array([a for a in edges if 0.0 <= a < 2.0 * np.pi])
        angles = np.tile(edges, _BLOCK // len(edges) + 2)

        class Stub:
            served = 0

            def uniform(self, low, high, size):
                assert (low, high) == (0.0, 2.0 * np.pi)
                block = angles[self.served:self.served + size]
                self.served += size
                return block

        stub = Stub()
        got = compact_group_sublevel_measures(grid, stub, len(angles))
        assert stub.served == len(angles) > _BLOCK
        values = np.abs(np.cos(angles))
        want = np.array([np.count_nonzero(values < eps) for eps in grid]) / len(angles)
        assert np.array_equal(got, want)
        assert np.all(got > 0.0)

    def test_fit_matches_the_fit_of_the_oracle_measures(self):
        grid = [1e-1, 3e-1, 3e-2]
        measures = compact_group_sublevel_measures(grid, np.random.default_rng(24), 40_000)
        want = sorted_sublevel_measures(grid, np.random.default_rng(24), 40_000)
        slope, intercept = np.polyfit(np.log(grid), np.log(want), 1)
        got = compact_group_sublevel_fit(grid, measures)
        assert got == (float(np.exp(intercept)), float(slope))

    @pytest.mark.parametrize("n_samples", [1000, _BLOCK - 1, _BLOCK, 3 * _BLOCK + 17])
    def test_interval_measure_matches_full_draw_mean(self, n_samples):
        rng, ref = np.random.default_rng(25), np.random.default_rng(25)
        got = sublevel_measure(_monomial(3), _EPS_GRID, n_samples, rng)
        want = full_draw_sublevel_measure(_monomial(3), _EPS_GRID, n_samples, ref)
        assert np.array_equal(got, want)
        assert np.all(got > 0.0)
        assert rng.random() == ref.random()
