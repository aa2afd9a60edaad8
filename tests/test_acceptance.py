"""One test per shipped guarantee, each at its stated tolerance and runtime
budget.  The heavy Monte Carlo reports are computed once in module-scoped
fixtures and shared; everything else runs inline."""

import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from oracles import AsymptoticParams, ad_operator, delta_asymptotic, diagonal_ad_norm, op_norm
from thinpart.analysis import Box, ScalarField, sublevel_measure
from thinpart.contraction import balance_holds, delta_opt, phi
from thinpart.grassmann import check_projection_bound, split_from_basis
from thinpart.harness.config import ExperimentConfig
from thinpart.harness.experiments import (
    model_radius,
    run_constants,
    run_evanescence,
    run_expansion_probability,
    run_goodfn,
    run_key_inequality,
    run_stationary_bound,
    sample_base_conjugator,
)
from thinpart.harness.report import render_report_json, render_samples_csv
from thinpart.linalg import Subspace, haar_orthogonal, hadamard_bound
from thinpart.rootdata import delta_lower_bound, group_constants
from thinpart.slgroup import expanding_element, mu_s_draws, radius_params


@pytest.fixture(scope="module")
def cfg():
    return ExperimentConfig()


@pytest.fixture(scope="module")
def expansion(cfg):
    start = time.perf_counter()
    report = run_expansion_probability(cfg)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def p_hat(expansion):
    return expansion[0].summary["p_hat"]


@pytest.fixture(scope="module")
def key_report(cfg, p_hat):
    start = time.perf_counter()
    report = run_key_inequality(cfg, p_hat=p_hat)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def stationary_report(cfg, p_hat):
    start = time.perf_counter()
    report = run_stationary_bound(cfg, p_hat=p_hat)
    return report, time.perf_counter() - start


def test_criterion_01_constant_tables():
    start = time.perf_counter()
    expected = {2: Fraction(1, 81), 3: Fraction(1, 2304), 4: Fraction(1, 2460375)}
    for n, want in expected.items():
        assert delta_lower_bound(group_constants(n)).delta == want
    assert time.perf_counter() - start < 1.0


def _grid_argmin(a1, a2, p):
    # bracket the minimum (phi(0) = 1 and phi blows up), then refine once;
    # the fine spacing stays well below the 1e-4 agreement tolerance
    hi = 1.0
    while phi(hi, a1, a2, p) <= 1.0:
        hi *= 2.0
    coarse = np.linspace(0.0, hi, 2001)
    values = p * a1**-coarse + (1.0 - p) * a2**-coarse
    i = int(np.argmin(values))
    fine = np.linspace(coarse[max(i - 1, 0)], coarse[min(i + 1, 2000)], 2001)
    values = p * a1**-fine + (1.0 - p) * a2**-fine
    return float(fine[np.argmin(values)])


def test_criterion_02_drift_calculus():
    start = time.perf_counter()
    d0 = delta_opt(2.0, 0.5, 0.9)
    assert d0 == pytest.approx(math.log(9.0) / math.log(4.0), abs=1e-12)
    assert phi(d0, 2.0, 0.5, 0.9) == pytest.approx(0.6, abs=1e-12)
    rng = np.random.default_rng(2)
    for _ in range(1000):
        a1 = math.exp(rng.uniform(0.1, 3.0))
        a2 = math.exp(-rng.uniform(0.1, 3.0))
        p_floor = math.log(1.0 / a2) / (math.log(a1) + math.log(1.0 / a2))
        p = p_floor + (1.0 - p_floor) * rng.uniform(0.05, 0.95)
        assert balance_holds(a1, a2, p)
        d_star = delta_opt(a1, a2, p)
        assert phi(d_star, a1, a2, p) < 1.0
        assert abs(_grid_argmin(a1, a2, p) - d_star) <= 1e-4
    assert time.perf_counter() - start < 5.0


def test_criterion_03_asymptotic_exponent():
    start = time.perf_counter()
    # The gap to alpha/h closes only at rate ln ln lam / ln lam (0.115 for
    # h = 2 and 0.208 for h = 1 at lam = 1e8), so the limit is checked from
    # lam = 1e60 on, where the closed-form gap is below the tolerance.
    for h, alpha in ((2.0, 1.0), (1.0, 1.0)):
        ap = AsymptoticParams(h=h, alpha=alpha, zeta=1.0, a0=1.0)
        gaps = []
        for k in range(60, 301, 10):
            value = delta_asymptotic(ap, 10.0**k)
            assert value is not None
            gap = abs(value - alpha / h)
            assert gap <= 0.05
            gaps.append(gap)
        assert all(b <= a for a, b in zip(gaps, gaps[1:]))
    assert time.perf_counter() - start < 1.0


def test_criterion_04_ad_norm_closed_form():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        raw = rng.uniform(-2.0, 2.0, n)
        diag = np.exp(raw - raw.mean())
        closed = diagonal_ad_norm(diag)
        numeric = op_norm(ad_operator(np.diag(diag)))
        assert abs(closed - numeric) <= 1e-8 * closed
    assert time.perf_counter() - start < 10.0


def test_criterion_05_sampler_singular_values():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    for n in (2, 3):
        sp = expanding_element(n, 55.0, math.exp(-1.0))
        want = np.sort(np.diag(sp.s_lambda))[::-1]
        for _ in range(500):
            sv = np.linalg.svd(mu_s_draws(sp, rng, 1)[0], compute_uv=False)
            assert np.max(np.abs(sv - want)) <= 1e-10
    assert time.perf_counter() - start < 5.0


def test_criterion_06_grassmannian_projection_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(6)
    seen = set()
    for _ in range(10_000):
        n = int(rng.integers(2, 7))
        dim_u = int(rng.integers(1, n))
        frame = haar_orthogonal(n, rng)
        ss = split_from_basis(frame[:, :dim_u])
        dim_w = int(rng.integers(1, dim_u + 1))
        w = Subspace(n, np.linalg.qr(rng.normal(size=(n, dim_w)))[0])
        holds, slack = check_projection_bound(ss, w)
        assert holds, (n, dim_u, dim_w, slack)
        seen.add((n, dim_u, dim_w))
    admissible = {
        (n, dim_u, dim_w)
        for n in range(2, 7)
        for dim_u in range(1, n)
        for dim_w in range(1, dim_u + 1)
    }
    assert seen == admissible
    for _ in range(10_000):
        n = int(rng.integers(1, 7))
        mat = rng.normal(size=(n, n)) * rng.uniform(0.1, 10.0)
        assert abs(np.linalg.det(mat)) <= hadamard_bound(mat) + 1e-9
    assert time.perf_counter() - start < 30.0


def test_criterion_07_discreteness_radius():
    start = time.perf_counter()
    sp = expanding_element(2, math.exp(2.0), math.exp(-1.0))
    rp = radius_params(sp)

    def radius_of(g):
        return model_radius(g, rp)

    rng = np.random.default_rng(7)
    shear = np.array([[1.0, 0.4], [0.0, 1.0]])
    bases = [
        np.diag([0.2, 5.0]),
        np.diag([1.0 / 7.0, 7.0]),
        np.diag([0.2, 5.0]) @ shear,
        np.diag([1.0 / 6.0, 6.0]) @ np.linalg.inv(shear),
    ]
    for base in bases:
        r0 = radius_of(base)
        assert r0 < rp.rho  # the invariance check must see a nontrivial value
        for _ in range(25):
            k = haar_orthogonal(2, rng)
            assert abs(radius_of(k @ base) - r0) <= 1e-9

    ad_inv = diagonal_ad_norm(1.0 / np.diag(sp.s_lambda))
    for _ in range(200):
        g = sample_base_conjugator(2, rng)
        assert radius_of(sp.s_lambda @ g) >= radius_of(g) / ad_inv - 1e-9

    cusp = radius_of(np.diag([0.1, 10.0]))
    assert cusp == pytest.approx(1e-2, rel=1e-15)
    assert time.perf_counter() - start < 120.0


def test_p_hat_within_its_band_of_the_exact_law(cfg, expansion):
    # expansion-prob's pairs are independent Bernoulli(p) draws with p in
    # closed form (slgroup.exact_expansion_probability), so its 3-sigma
    # binomial band must hold p_exact as constants reports it
    report, _ = expansion
    p_exact = run_constants(cfg).summary["exact_expansion"]["p_exact"]
    assert abs(report.summary["p_hat"] - p_exact) <= report.summary["band"]


def test_criterion_08_key_inequality(expansion, key_report):
    expansion_report, expansion_elapsed = expansion
    report, elapsed = key_report
    assert expansion_report.all_passed()
    assert report.summary["p_hat_source"] == "supplied"
    assert report.summary["n_bases"] == 200
    assert report.summary["samples_per_base"] == 500
    assert report.summary["pass_fraction"] >= 0.95
    assert report.all_passed()
    assert expansion_elapsed + elapsed <= 600.0


def test_criterion_09_stationary_superlevel_bound(stationary_report):
    report, elapsed = stationary_report
    verdicts = {v.check: v for v in report.verdicts}
    assert verdicts["superlevel-bound"].passed
    for level in report.summary["levels"]:
        assert level["passed"], level
    assert verdicts["superlevel-slope"].passed
    assert report.summary["slope"] >= report.summary["delta"] - 0.2
    assert elapsed <= 600.0


def test_criterion_10_sublevel_exponents(cfg):
    start = time.perf_counter()
    report = run_goodfn(cfg)
    verdicts = {v.check: v for v in report.verdicts}
    assert verdicts["so2-arcsin"].passed  # within 5% of (2/pi) arcsin at 1e-3
    for d in (1, 2, 3):
        assert verdicts[f"monomial-exponent-{d}"].passed
    # independent small-scale route for the monomial exponents
    rng = np.random.default_rng(10)
    for d in (1, 2, 3):
        f = ScalarField(1, lambda pts, d=d: pts[:, 0] ** d)
        box = Box(np.zeros(1), 1.0)
        lo = sublevel_measure(f, box, 1e-4, 2_000_000, rng)
        hi = sublevel_measure(f, box, 1e-2, 2_000_000, rng)
        slope = math.log(hi / lo) / math.log(1e2)
        assert abs(slope * d - 1.0) <= 0.05
    assert time.perf_counter() - start < 60.0


def test_criterion_11_evanescence_cusp_ray(cfg):
    start = time.perf_counter()
    report = run_evanescence(cfg)
    assert abs(report.summary["slope"] + 1.0) <= 0.05
    assert {v.check: v.passed for v in report.verdicts}["cusp-slope"]
    assert time.perf_counter() - start < 60.0


def test_criterion_12_determinism(cfg, p_hat, key_report, stationary_report):
    key_first, _ = key_report
    stationary_first, _ = stationary_report
    key_again = run_key_inequality(cfg, p_hat=p_hat)
    assert render_report_json(key_again) == render_report_json(key_first)
    assert render_samples_csv(key_again) == render_samples_csv(key_first)
    stationary_again = run_stationary_bound(cfg, p_hat=p_hat)
    assert render_report_json(stationary_again) == render_report_json(stationary_first)
    assert render_samples_csv(stationary_again) == render_samples_csv(stationary_first)
    wide = dataclasses.replace(cfg, workers=2)
    key_wide = run_key_inequality(wide, p_hat=p_hat)
    assert key_wide.summary == key_first.summary
    assert key_wide.samples == key_first.samples
    stationary_wide = run_stationary_bound(wide, p_hat=p_hat)
    assert stationary_wide.summary == stationary_first.summary
