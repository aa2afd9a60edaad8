import concurrent.futures
import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import mu_s_draw, samples_csv_by_row
from thinpart.harness import cli, experiments
from thinpart.harness.cli import main as cli_main
from thinpart.harness.config import (
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    derive_group,
    load_config,
)
import thinpart
from thinpart import slgroup
from thinpart.analysis import compact_group_sublevel_measures
from thinpart.harness.experiments import (
    _TAG_DRIFT_BASE,
    _TAG_WALK,
    _WALK_BLOCK,
    _WALK_CHAINS,
    InsufficientDataError,
    conjugation_walk,
    drift_parameters,
    expansion_indicator,
    model_radius,
    run_constants,
    run_evanescence,
    run_expansion_probability,
    run_goodfn,
    run_grassmann,
    run_integrability,
    run_key_inequality,
    run_stationary_bound,
    sample_base_conjugator,
)
from thinpart.harness.report import (
    _CSV_BLOCK,
    ExperimentReport,
    Verdict,
    render_report_json,
    render_samples_csv,
    write_report,
)
from thinpart.slgroup import (
    expanding_element,
    reduced_conjugator,
)

_SMALL = ExperimentConfig(n_base_points=6, n_mc_samples=30, walk_length=300)
# An n = 3 scale: one ray step of x0 = 0.58, rho = 0.34 x0^2 = 0.114,
# where many walk steps lie below rho.  p_hat = 0.95 balances its drift.
_N3 = dataclasses.replace(
    _SMALL, group_n=3, lambda_=1.75, x0=0.58, eps_grid=(1e-2, 3e-3, 1e-3)
)
_N3_P_HAT = 0.95

# cells whose spellings a column-at-a-time render could confuse: signed
# zeros, bool against int against float, numpy scalars, subnormals, and
# every refused kind (non-finite floats, separators, numpy ints and bools)
_CELL_POOL = (
    0.0, -0.0, True, False, 1, 1.0, 2, 2.0, -3, None, "", "x", "y-z", "a,b", "a\nb",
    np.float64(0.1), np.float64(-0.0), 5e-324, -2.5e-320, 0.1, 1e300,
    math.inf, -math.inf, math.nan, np.int64(1), np.bool_(True),
)
_CELLS = st.one_of(st.sampled_from(_CELL_POOL), st.floats(), st.integers())


@st.composite
def _csv_tables(draw, min_rows=0, max_rows=12):
    """(columns, rows): each column draws its cells from a few values of
    its own, so columns of one type (the fast paths) are common; now and
    then a row is ragged."""
    width = draw(st.integers(0, 4))
    kinds = [draw(st.lists(_CELLS, min_size=1, max_size=3)) for _ in range(width)]
    rows = []
    for _ in range(draw(st.integers(min_rows, max_rows))):
        row_kinds = kinds
        if draw(st.integers(0, 29)) == 0:
            row_kinds = [[draw(_CELLS)] for _ in range(draw(st.integers(0, 5)))]
        rows.append(tuple(draw(st.sampled_from(k)) for k in row_kinds))
    return tuple(f"c{j}" for j in range(width)), rows


def _csv_and_oracle(columns, rows) -> list:
    """render_samples_csv's and the row-by-row oracle's outcome on the same
    rows: the text, or the type and message of the refusal."""
    rep = ExperimentReport("demo", ExperimentConfig(), "-", columns, rows, {}, [])
    outcomes = []
    for render in (lambda: render_samples_csv(rep), lambda: samples_csv_by_row(columns, rows)):
        try:
            outcomes.append(render())
        except (TypeError, ValueError) as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.group_n == 2
        assert cfg.lambda_ == 55.0
        assert cfg.x0 == pytest.approx(math.exp(-1.0))
        assert cfg.workers == 1

    def test_json_round_trip_uses_bare_lambda(self, tmp_path):
        cfg = ExperimentConfig(lambda_=60.0)
        doc = cfg.to_json_dict()
        assert doc["lambda"] == 60.0
        assert "lambda_" not in doc
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert load_config(path) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            config_from_dict({"lambda": 55.0, "bogus": 1})

    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(x0=1.5)
        with pytest.raises(ConfigError):
            ExperimentConfig(a1=1.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(n_base_points=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(seed=-1)
        with pytest.raises(ConfigError):
            ExperimentConfig(eps_grid=(1e-3, 1e-3))

    @pytest.mark.parametrize(
        "grid", [["a"], "1e-3", [1e-3, True], [[1e-3]], 1e-3, None],
        ids=["string-entry", "string", "bool-entry", "nested", "scalar", "null"],
    )
    def test_eps_grid_must_be_a_list_of_numbers(self, grid):
        with pytest.raises(ConfigError, match="eps_grid"):
            config_from_dict({"eps_grid": grid})

    @pytest.mark.parametrize("raw", [{"lambda": 10**400}, {"eps_grid": [10**400]}],
                             ids=["lambda", "eps_grid"])
    def test_integer_past_float_range_is_config_error(self, raw):
        with pytest.raises(ConfigError, match="too large"):
            config_from_dict(raw)

    def test_eps_grid_accepts_ints_and_floats(self):
        assert config_from_dict({"eps_grid": [1, 1e-3]}).eps_grid == (1.0, 1e-3)

    def test_eps_grid_must_sit_below_rho(self):
        with pytest.raises(ConfigError, match="search radius"):
            derive_group(ExperimentConfig(eps_grid=(0.1, 0.01)))

    def test_adjoint_norm_refused_before_s_lambda_is_built(self):
        # at the default scale lambda0^(n0 (n - 1)) overflows a double from
        # n = 179 on; it is checked before the n x n s_lambda is built,
        # whose entries overflow too (a numpy warning) and which takes
        # 72 MB at n = 3000
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="group parameters rejected"):
                derive_group(ExperimentConfig(group_n=800))
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="group parameters rejected"):
                derive_group(ExperimentConfig(group_n=3000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_whole_floats_stay_floats(self):
        cfg = config_from_dict({"lambda": 55, "a1": 2})
        assert cfg == ExperimentConfig()
        assert isinstance(cfg.lambda_, float) and isinstance(cfg.a1, float)

    def test_replace_revalidates(self):
        cfg = ExperimentConfig()
        assert dataclasses.replace(cfg, seed=5).seed == 5
        with pytest.raises(ConfigError):
            dataclasses.replace(cfg, walk_length=0)


class TestReport:
    def _tiny_report(self):
        return ExperimentReport(
            experiment="demo",
            config=ExperimentConfig(),
            revision="deadbeef",
            columns=("a", "b"),
            samples=[(1, 0.5), (2, None)],
            summary={"x": 1.0, "nested": {"flag": True, "items": [1, 2.5]}},
            verdicts=[Verdict("check-one", True, 0.25), Verdict("check-two", False, None)],
        )

    def test_json_is_stable_and_parseable(self):
        rep = self._tiny_report()
        text = render_report_json(rep)
        assert text == render_report_json(rep)
        doc = json.loads(text)
        assert doc["experiment"] == "demo"
        assert doc["summary"]["nested"]["items"] == [1, 2.5]
        assert doc["verdicts"][1]["margin"] is None

    def test_float_round_trip_precision(self):
        rep = self._tiny_report()
        rep.summary = {"v": 0.1 + 0.2}
        doc = json.loads(render_report_json(rep))
        assert doc["summary"]["v"] == 0.1 + 0.2

    def test_json_is_the_standard_encoding(self):
        # the rendered text is json.dumps of its own parse: key order,
        # indent, separators and the shortest round-trip float spelling
        rep = self._tiny_report()
        rep.summary = {"v": 0.1 + 0.2, "empty": [], "none": {}, "np": np.float64(0.1)}
        text = render_report_json(rep)
        assert text == json.dumps(json.loads(text), indent=2, allow_nan=False) + "\n"
        assert '"np": 0.1\n' in text
        assert '"v": 0.30000000000000004,' in text
        assert '"lambda": 55.0,' in text
        assert '"a1": 2.0,' in text
        assert '"eps_grid": [\n      0.003,\n' in text
        assert '"x0": 0.36787944117144233,' in text

    def test_csv_cells(self):
        rep = self._tiny_report()
        rep.columns = ("a", "b", "c")
        rep.samples = [(1, True, None), (2, False, 0.25)]
        text = render_samples_csv(rep)
        assert text == "a,b,c\n1,1,\n2,0,0.25\n"
        rep.samples = [("x", 55.0, np.float64(0.1)), ("y-z", 3e-3, 0.8775)]
        assert render_samples_csv(rep) == "a,b,c\nx,55.0,0.1\ny-z,0.003,0.8775\n"
        # 0.0 == -0.0, yet each zero keeps its sign, whichever comes first
        rep.columns = ("a",)
        for zeros in ([0.0, -0.0, 0.0], [-0.0, 0.0, 1.5]):
            rep.samples = [(z,) for z in zeros]
            assert render_samples_csv(rep) == "a\n" + "".join(f"{z!r}\n" for z in zeros)

    def test_unsupported_types_refused(self):
        rep = self._tiny_report()
        rep.summary = {"flag": np.bool_(True)}
        with pytest.raises(TypeError):
            render_report_json(rep)
        rep.columns = ("a",)
        for cell in (np.bool_(True), np.int64(1), [1]):
            rep.samples = [(cell,)]
            with pytest.raises(TypeError):
                render_samples_csv(rep)

    def test_csv_rejects_ragged_rows(self):
        rep = self._tiny_report()
        rep.samples = [(1,)]
        with pytest.raises(ValueError):
            render_samples_csv(rep)

    def test_non_finite_floats_refused(self):
        rep = self._tiny_report()
        rep.summary = {"v": math.inf}
        with pytest.raises(ValueError):
            render_report_json(rep)
        # samples.csv refuses them too, and string cells holding a separator
        rep.columns = ("a",)
        for cell in (math.inf, -math.inf, math.nan, "x,y", "x\ny"):
            rep.samples = [(cell,)]
            with pytest.raises(ValueError):
                render_samples_csv(rep)
            # and in a later block of rows
            rep.samples = [(0.5,)] * _CSV_BLOCK + [(cell,)]
            with pytest.raises(ValueError):
                render_samples_csv(rep)

    def test_write_report_creates_files(self, tmp_path):
        json_path, csv_path = write_report(self._tiny_report(), tmp_path / "out")
        assert json_path.read_text().startswith("{")
        assert csv_path.read_text().startswith("a,b")

    def test_refused_report_leaves_the_previous_pair(self, tmp_path):
        first = self._tiny_report()
        json_path, csv_path = write_report(first, tmp_path)
        before = json_path.read_text(), csv_path.read_text()
        second = self._tiny_report()
        second.summary = {"v": 2}
        second.samples = [(1, math.inf)]
        with pytest.raises(ValueError):
            write_report(second, tmp_path)
        assert (json_path.read_text(), csv_path.read_text()) == before

    @settings(max_examples=200, deadline=None)
    @given(_csv_tables(), st.sampled_from([1, 2, 3, 5]))
    def test_csv_matches_the_row_by_row_oracle(self, table, block):
        # small blocks put block boundaries inside a dozen rows
        with mock.patch("thinpart.harness.report._CSV_BLOCK", block):
            got, want = _csv_and_oracle(*table)
        assert got == want

    @settings(max_examples=25, deadline=None)
    @given(_csv_tables(min_rows=1, max_rows=4), st.integers(_CSV_BLOCK - 2, 2 * _CSV_BLOCK + 2))
    def test_csv_matches_the_oracle_across_real_blocks(self, table, n_rows):
        # a few drawn rows repeated past one or two block boundaries
        columns, pattern = table
        rows = [pattern[i % len(pattern)] for i in range(n_rows)]
        got, want = _csv_and_oracle(columns, rows)
        assert got == want

    @pytest.mark.parametrize(
        "runner",
        [
            run_expansion_probability,
            lambda cfg: run_key_inequality(cfg, p_hat=0.88),
            lambda cfg: run_stationary_bound(cfg, p_hat=0.88),
            lambda cfg: run_integrability(cfg, p_hat=0.88),
            run_evanescence,
            run_constants,
            run_goodfn,
            run_grassmann,
        ],
        ids=["expansion-prob", "key-inequality", "stationary-bound", "integrability",
             "evanescence", "constants", "goodfn", "grassmann"],
    )
    def test_runner_samples_render_as_the_oracle(self, runner):
        rep = runner(_SMALL)
        assert rep.samples
        assert render_samples_csv(rep) == samples_csv_by_row(rep.columns, rep.samples)


class TestRunners:
    def test_expansion_summary_recomputable_from_samples(self):
        rep = run_expansion_probability(_SMALL)
        flags = [row[4] for row in rep.samples]
        assert rep.summary["p_hat"] == pytest.approx(np.mean(flags), abs=0.0)
        assert rep.summary["n_pairs"] == len(rep.samples)
        assert rep.summary["per_model"] == 3

    def test_goodfn_memory_does_not_scale_with_samples(self):
        # 10^7 angle and 3 x 4*10^6 interval samples, counted in blocks: a full-length
        # float64 draw alone would be 80 MB (numpy reports its buffers here)
        tracemalloc.start()
        try:
            report = run_goodfn(ExperimentConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.all_passed()
        assert peak < 32 * 2**20
        # the SO(2) count alone: its reused buffer is one block long
        tracemalloc.start()
        try:
            compact_group_sublevel_measures([1e-1, 1e-2, 1e-3], np.random.default_rng(6), 10_000_000)
            so2_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert so2_peak < 2 * 2**20

    def test_expansion_indicator_threshold(self):
        assert expansion_indicator(2.0, 1.0)
        assert not expansion_indicator(1.99, 1.0)

    def test_thin_filter_failure_is_config_error(self):
        # at this scale rho is so small that no conjugator in the sampler's
        # conditioning window can be thin
        cfg = ExperimentConfig(
            lambda_=math.exp(10.0) + 1.0,
            n_base_points=1,
            n_mc_samples=10,
            eps_grid=(1.2e-5, 1e-5),
        )
        with pytest.raises(ConfigError, match="conditioning"):
            run_expansion_probability(cfg)

    def test_key_inequality_supplied_p_hat(self):
        rep = run_key_inequality(_SMALL, p_hat=0.88)
        assert rep.summary["p_hat_source"] == "supplied"
        assert rep.summary["pass_fraction"] >= 0.95
        assert rep.all_passed()
        # f = radius^-delta is recomputable from the stored columns
        for row in rep.samples[:10]:
            assert row[3] == pytest.approx(row[2] ** -rep.summary["delta"], rel=1e-12)

    def test_key_inequality_estimated_p_hat(self):
        rep = run_key_inequality(_SMALL)
        assert rep.summary["p_hat_source"] == "estimated"
        assert rep.summary["p_hat"] == run_expansion_probability(_SMALL).summary["p_hat"]

    def test_degenerate_p_hat_rejected(self):
        with pytest.raises(ConfigError):
            run_key_inequality(_SMALL, p_hat=1.5)
        rep = run_key_inequality(_SMALL, p_hat=1.0)  # boundary: no balance
        assert not rep.all_passed()

    def test_drift_parameters_match_manual_calculus(self):
        from thinpart.contraction import delta_opt, phi

        _, rp = derive_group(_SMALL)
        cp = drift_parameters(_SMALL, rp, 0.88)
        a2 = 55.0**-1
        delta = delta_opt(2.0, a2, 0.88)
        assert cp.a2 == pytest.approx(a2, rel=1e-15)
        assert cp.delta == pytest.approx(delta, rel=1e-15)
        assert cp.c == pytest.approx(phi(delta, 2.0, a2, 0.88), rel=1e-15)
        assert cp.b == pytest.approx((a2 * rp.rho / 2.0) ** -delta, rel=1e-15)

    def test_stationary_levels_recomputable(self):
        rep = run_stationary_bound(_SMALL, p_hat=0.88)
        radii = [r for _, r, kept in rep.samples if kept]
        assert len(radii) == rep.summary["retained"]
        lv = rep.summary["levels"][0]
        assert lv["fraction"] == pytest.approx(np.mean(np.array(radii) < lv["eps"]), abs=0.0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_inverse_expanding_step_is_a_rotated_step(self, n):
        # s^-1 = w s w^T for the signed reversal permutation w in SO(n), so
        # k1 s^-1 k2 = (k1 w) s (w^T k2) is again a mu_s draw: the walk
        # law is symmetric without a separate inverse step
        sp = expanding_element(n, 55.0, math.exp(-1.0))
        w = np.fliplr(np.eye(n))
        if np.linalg.det(w) < 0:
            w[0] = -w[0]
        assert np.linalg.det(w) == pytest.approx(1.0, abs=1e-15)
        assert np.array_equal(w @ w.T, np.eye(n))
        got = w @ sp.s_lambda @ w.T
        want = np.linalg.inv(sp.s_lambda)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_walk_step_is_a_mu_s_draw(self):
        # the walk is _WALK_CHAINS chains g_k = reduced_conjugator(k1 s_lambda
        # k2 g_{k-1}), global step t on chain (t - 1) mod _WALK_CHAINS, with
        # k1 and k2 of every step drawn in step order from the one walk
        # stream; every radius of the report is recomputed one step at a
        # time.  A chain needs a few steps from the identity to reach the
        # cusp, after which Haar measure puts 3 rho / pi of it below rho, so
        # 3000 steps (23 per chain) expect about 15 there
        cfg = dataclasses.replace(_SMALL, walk_length=3000)
        _, rp = derive_group(cfg)
        rows = self._stepwise_walk(cfg)
        rep = run_stationary_bound(cfg, p_hat=0.88)
        assert [(t, r) for t, r, _ in rep.samples] == rows
        assert sum(r < rp.rho for _, r in rows) >= 5  # not only the ceiling

    def test_n3_walk_matches_stepwise_walk(self):
        # the n >= 3 branch of the stacked reduced_conjugator: LLL and QR per
        # matrix, against one step at a time
        cfg = dataclasses.replace(_SMALL, group_n=3, walk_length=400, eps_grid=(1e-5, 1e-6))
        rows = self._stepwise_walk(cfg)
        assert conjugation_walk(cfg) == rows

    @pytest.mark.parametrize("experiment, runner, columns", [
        ("key-inequality", run_key_inequality,
         ["sample_index", "base_index", "i_sample", "f_sample", "i_base", "f_base"]),
        ("stationary-bound", run_stationary_bound, ["step", "i_value", "retained"]),
        ("integrability", run_integrability, ["step", "i_value", "f_value", "running_mean"]),
    ], ids=["key-inequality", "stationary-bound", "integrability"])
    def test_balance_failure_report(self, tmp_path, experiment, runner, columns):
        # p_hat = 0.5 is far below the balance threshold p* ~ 0.85
        rep = runner(_SMALL, p_hat=0.5)
        assert rep.experiment == experiment
        assert rep.samples == []
        assert list(rep.columns) == columns
        assert rep.summary["balance_failed"]
        assert rep.summary["p_hat_source"] == "supplied"
        assert "lambda" in rep.summary["advice"]
        assert [(v.check, v.passed) for v in rep.verdicts] == [("drift-balance", False)]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_SMALL.to_json_dict()))
        code = cli_main([
            experiment, "--config", str(cfg_path), "--p-hat", "0.5",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2

    def test_integrability_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            run_integrability(dataclasses.replace(_SMALL, walk_length=1), p_hat=0.88)

    def test_integrability_walk_matches_stationary_walk(self):
        # both experiments deliberately share the walk stream, and a walk
        # handed in (as the pipeline does) gives the bytes of a fresh one
        stat = run_stationary_bound(_SMALL, p_hat=0.88)
        integ = run_integrability(_SMALL, p_hat=0.88)
        stat_radii = {t: r for t, r, kept in stat.samples if kept}
        assert [(t, r) for t, r, _, _ in integ.samples] == sorted(stat_radii.items())
        walk = conjugation_walk(_SMALL)
        for alone, runner in ((stat, run_stationary_bound), (integ, run_integrability)):
            shared = runner(_SMALL, p_hat=0.88, walk=walk)
            assert render_report_json(shared) == render_report_json(alone)
            assert render_samples_csv(shared) == render_samples_csv(alone)
        with pytest.raises(ConfigError, match="walk rows"):
            run_integrability(_SMALL, p_hat=0.88, walk=walk[:-1])

    def test_evanescence_needs_n2(self):
        cfg = ExperimentConfig(group_n=3, eps_grid=(1e-7, 1e-8))
        with pytest.raises(ConfigError, match="n = 2"):
            run_evanescence(cfg)

    @staticmethod
    def _stepwise_walk(cfg):
        # the walk one step at a time over the same chain layout, with
        # scalar reductions and radii: global step t advances chain
        # (t - 1) mod _WALK_CHAINS by the next draw of the walk stream
        sp, rp = derive_group(cfg)
        rng = np.random.default_rng([cfg.seed, _TAG_WALK, 0])
        chains = [np.eye(cfg.group_n)] * _WALK_CHAINS
        rows = []
        for t in range(1, cfg.walk_length + 1):
            chain = (t - 1) % _WALK_CHAINS
            chains[chain] = reduced_conjugator(mu_s_draw(sp, rng) @ chains[chain])
            rows.append((t, model_radius(chains[chain], rp)))
        return rows

    @pytest.mark.parametrize("length", [100, 200, _WALK_BLOCK, 700])
    def test_walk_matches_stepwise_walk(self, length):
        # on the n = 3 walk of _N3 the stacked blocks give every step the
        # radius of the scalar walk, bit for bit: lengths below one round
        # of _WALK_CHAINS steps (100), at a block (256) and off a multiple
        # of the round (200, 700); every step has a radius, so the kept
        # rows are the steps after burn-in and no incident is counted.
        # The first steps from the identity stay at rho; only the 700-step
        # walk reaches below it
        cfg = dataclasses.replace(_N3, walk_length=length)
        rows = self._stepwise_walk(cfg)
        rep = run_stationary_bound(cfg, p_hat=_N3_P_HAT)
        assert [(t, r) for t, r, _ in rep.samples] == rows
        assert all(type(r) is float for _, r in rows)
        below = sum(r < derive_group(cfg)[1].rho for _, r in rows)
        assert (below > 0) == (length == 700)
        assert rep.summary["cap_incidents"] == 0
        assert rep.summary["retained"] == length - length // 10
        assert [kept for _, _, kept in rep.samples] == [t > length // 10 for t, _ in rows]


class TestDeterminism:
    def test_reports_are_byte_identical(self):
        cfg = ExperimentConfig(n_mc_samples=60)
        first = run_grassmann(cfg)
        second = run_grassmann(cfg)
        assert render_report_json(first) == render_report_json(second)
        assert render_samples_csv(first) == render_samples_csv(second)

    def test_worker_count_does_not_change_summaries(self):
        one = run_expansion_probability(_SMALL)
        two = run_expansion_probability(dataclasses.replace(_SMALL, workers=2))
        assert one.summary == two.summary
        assert one.samples == two.samples

    def test_pool_starts_no_more_processes_than_tasks_or_cores(self, monkeypatch):
        # a fake pool records what it is asked for and maps in-process, so
        # no process starts, whatever the worker count
        asked = {}

        class FakePool:
            def __init__(self, max_workers):
                asked["max_workers"] = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize):
                asked["chunksize"] = chunksize
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        tasks = list(range(-20, 20))
        assert experiments._pool_map(abs, tasks, 10**6) == list(map(abs, tasks))
        assert asked == {"max_workers": 3, "chunksize": 3}
        # an unknown core count runs the tasks in-process, with no pool
        asked.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert experiments._pool_map(abs, tasks, 10**6) == list(map(abs, tasks))
        assert asked == {}

    def test_seed_changes_samples(self):
        base = run_expansion_probability(_SMALL)
        moved = run_expansion_probability(dataclasses.replace(_SMALL, seed=1))
        assert base.samples != moved.samples

    def test_harness_import_leaves_out_multiprocessing(self):
        # the process pool is imported only when workers > 1
        src = str(Path(thinpart.__file__).resolve().parents[1])
        code = "import sys, thinpart.harness; print('multiprocessing' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "False"


class TestPrefixStability:
    """Each task draws its samples from its own generator in one block, so
    a larger sample count or walk extends a smaller run and never shifts
    the draws that run already made."""

    @staticmethod
    def _by_base(samples, base_column, values):
        out = {}
        for row in samples:
            out.setdefault(row[base_column], []).append(tuple(row[i] for i in values))
        return out

    def test_expansion_bases_keep_their_first_rotations(self):
        small = run_expansion_probability(_SMALL)
        large = run_expansion_probability(
            dataclasses.replace(_SMALL, n_mc_samples=2 * _SMALL.n_mc_samples)
        )
        per_model = small.summary["per_model"]
        assert large.summary["per_model"] == 2 * per_model
        got = self._by_base(large.samples, 1, (2, 3))
        want = self._by_base(small.samples, 1, (2, 3))
        assert sorted(got) == sorted(want) == list(range(_SMALL.n_base_points))
        for base, rows in want.items():
            assert got[base][:per_model] == rows

    def test_key_inequality_bases_keep_their_first_steps(self):
        m = _SMALL.n_mc_samples
        small = run_key_inequality(_SMALL, p_hat=0.88)
        large = run_key_inequality(dataclasses.replace(_SMALL, n_mc_samples=2 * m), p_hat=0.88)
        assert large.summary["samples_per_base"] == 2 * m
        got = self._by_base(large.samples, 1, (2, 3, 4, 5))
        want = self._by_base(small.samples, 1, (2, 3, 4, 5))
        assert sorted(got) == sorted(want) == list(range(_SMALL.n_base_points))
        for base, rows in want.items():
            assert got[base][:m] == rows

    def test_walk_keeps_its_first_steps(self):
        length = _SMALL.walk_length
        small = run_stationary_bound(_SMALL, p_hat=0.88)
        large = run_stationary_bound(
            dataclasses.replace(_SMALL, walk_length=2 * length), p_hat=0.88
        )
        assert len(large.samples) == 2 * length
        assert [(t, r) for t, r, _ in large.samples[:length]] == [
            (t, r) for t, r, _ in small.samples
        ]


class TestExactDriftBalance:
    """run_constants' n = 2 section: the exact expansion probability
    against the drift threshold, over the ray steps of lambda."""

    @staticmethod
    def _section(lam, **fields):
        rep = run_constants(ExperimentConfig(lambda_=lam, **fields))
        verdict = rep.verdicts[-1]
        assert verdict.check == "drift-balance-exact"
        return rep.summary["exact_expansion"], verdict

    @pytest.mark.parametrize(
        "lam, passed", [(20.0, False), (35.0, False), (55.0, True), (90.0, True), (140.0, True)]
    )
    def test_verdict_by_lambda(self, lam, passed):
        section, verdict = self._section(lam)
        assert verdict.passed is passed
        assert verdict.margin == section["p_exact"] - section["p_star"]
        assert (verdict.margin > 0.0) is passed

    def test_default_section(self):
        section, _ = self._section(55.0)
        assert section["ad_norm"] == expanding_element(2, 55.0, math.exp(-1.0)).ad_norm
        assert abs(section["p_exact"] - 0.8779480) <= 1e-7
        assert section["p_star"] == pytest.approx(math.log(55.0) / math.log(110.0), rel=1e-15)

    def test_balanced_window(self):
        assert self._section(35.0)[0]["balanced_window"] is None
        start, end = self._section(55.0)[0]["balanced_window"]
        assert start == pytest.approx(math.e**4, rel=1e-15)
        assert end == pytest.approx(146.345, abs=1e-3)
        # the verdict flips exactly at the end of the window
        assert self._section(end * (1 - 1e-9))[1].passed
        assert not self._section(end * (1 + 1e-9))[1].passed
        # A = 5/3 <= 2: p = 0, so no lambda of the step balances
        section, verdict = self._section(1.7, x0=0.6)
        assert section["p_exact"] == 0.0 and section["balanced_window"] is None
        assert not verdict.passed

    @pytest.mark.parametrize("n0", [5, 6, 7])
    def test_whole_step_balances_from_n0_five(self, n0):
        section, verdict = self._section(1.5 * math.e**n0, eps_grid=(1e-6,))
        assert verdict.passed
        start, end = section["balanced_window"]
        assert start == pytest.approx(math.e**n0, rel=1e-14)
        assert end == pytest.approx(math.e ** (n0 + 1), rel=1e-14)

    def test_other_group_sizes_have_no_section(self):
        rep = run_constants(ExperimentConfig(group_n=3))
        assert list(rep.summary) == ["table"]
        assert all("-table-" in v.check for v in rep.verdicts)


class TestCli:
    def test_constants_exit_zero(self, tmp_path, capsys):
        code = cli_main(["constants", "--out", str(tmp_path / "c")])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS] delta-table-n2" in out
        assert (tmp_path / "c" / "report.json").exists()

    def test_verdict_failure_exit_two(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_SMALL.to_json_dict()))
        code = cli_main([
            "key-inequality", "--config", str(cfg_path),
            "--p-hat", "0.5",
            "--out", str(tmp_path / "k"),
        ])
        assert code == 2

    def test_constants_unbalanced_step_exit_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"lambda": 35.0}))
        code = cli_main(["constants", "--config", str(cfg_path), "--out", str(tmp_path / "c")])
        assert code == 2
        assert "[FAIL] drift-balance-exact" in capsys.readouterr().out

    @pytest.mark.parametrize("command, text, flags, message", [
        ("constants", '{"bogus": 1}', [], "unknown config keys"),
        ("constants", None, [], "cannot read config"),
        ("constants", '{"lambda": ', [], "is not valid JSON"),
        ("constants", "[1, 2]", [], "must hold a JSON object"),
        ("constants", '{"lambda": NaN}', [], "lambda must be a finite number"),
        ("grassmann", '{"lambda": true}', [], "lambda must be a finite number"),
        ("grassmann", '{"x0": true}', [], "x0 must be a finite number"),
        ("grassmann", '{"a1": true}', [], "a1 must be a finite number"),
        ("constants", '{"seed": 1.5}', [], "seed must be an integer"),
        ("constants", "{}", ["--workers", "0"], "workers must be an integer >= 1"),
        ("expansion-prob", '{"lambda": 2.0}', [], "below one ray step"),
        # n = 8 at one ray step of 1/0.95: rho = 0.2374, where
        # K^2 rho^2 e^{K rho} / 2 = 1.17 >= 1 with K = 4
        ("expansion-prob", '{"group_n": 8, "x0": 0.95, "lambda": 1.06, "eps_grid": [1e-3]}',
         [], "too large for the unipotence bound"),
        # lambda0^(n0 ht) overflows a double
        ("expansion-prob", '{"group_n": 3, "lambda": 1e300, "eps_grid": [1e-300]}',
         [], "group parameters rejected"),
    ], ids=["unknown-key", "unreadable", "invalid-json", "array", "nan-lambda",
            "bool-lambda", "bool-x0", "bool-a1", "float-seed", "workers-override",
            "lambda-below-one-step", "rho-past-unipotence", "ad-norm-overflow"])
    def test_config_error_exit_one(self, tmp_path, capsys, command, text, flags, message):
        bad = tmp_path / "bad.json"
        if text is not None:
            bad.write_text(text)
        code = cli_main([command, "--config", str(bad), *flags, "--out", str(tmp_path / "c")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "c").exists()

    def test_blocked_out_dir_exit_one(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        code = cli_main(["constants", "--out", str(tmp_path / "file" / "c")])
        assert code == 1
        assert "error: failed to write report" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", [["a"], "1e-3", [], [1e-3, 0.0]],
                             ids=["string-entry", "string", "empty", "non-positive"])
    def test_bad_eps_grid_exit_one(self, tmp_path, capsys, grid):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"eps_grid": grid}))
        code = cli_main(["constants", "--config", str(bad), "--out", str(tmp_path / "c")])
        assert code == 1
        assert "error: eps_grid" in capsys.readouterr().err

    def test_pipeline_feeds_measured_p_hat(self, tmp_path, capsys, monkeypatch):
        # p_hat feeds forward, and the two walk stages share one walk
        walks = []

        def counted_walk(cfg):
            walks.append(cfg)
            return conjugation_walk(cfg)

        monkeypatch.setattr(cli, "conjugation_walk", counted_walk)
        monkeypatch.setattr(experiments, "conjugation_walk", counted_walk)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_SMALL.to_json_dict()))
        out = tmp_path / "p"
        code = cli_main(["pipeline", "--config", str(cfg_path), "--out", str(out)])
        assert walks == [_SMALL]
        assert sorted(p.name for p in out.iterdir()) == sorted([
            "constants", "expansion-prob", "key-inequality",
            "stationary-bound", "integrability", "evanescence",
        ])
        docs = {p.name: json.loads((p / "report.json").read_text()) for p in out.iterdir()}
        assert code == (0 if all(v["passed"] for d in docs.values() for v in d["verdicts"]) else 2)
        key = docs["key-inequality"]["summary"]
        assert key["p_hat_source"] == "supplied"
        assert key["p_hat"] == docs["expansion-prob"]["summary"]["p_hat"]
        assert "key-inequality: [" in capsys.readouterr().out

    def test_seed_override_applies(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_SMALL.to_json_dict()))
        out = tmp_path / "g"
        code = cli_main([
            "grassmann", "--config", str(cfg_path), "--seed", "9", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["seed"] == 9
