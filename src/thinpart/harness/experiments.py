"""Experiment runners behind the CLI.

Each runner takes an ExperimentConfig and returns an ExperimentReport.
All randomness flows through one generator per task, seeded as (seed,
stream tag, task index): a base of expansion-prob or key-inequality, or a
whole walk, goodfn or grassmann run.  A task draws its samples from its
generator in one block, so a report is byte-identical for a fixed seed, a
larger sample count extends a smaller run, and the summary does not depend
on the worker count: the pool only decides who evaluates a base.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial

import numpy as np

from ..analysis import compact_group_sublevel_fit, compact_group_sublevel_measures
from ..analysis import sublevel_measure
from ..contraction import (
    BalanceError,
    ContractionParams,
    balance_holds,
    contraction_constants,
    markov_superlevel_bound,
)
from ..grassmann import check_bijection_contraction, check_projection_bound
from ..linalg import Subspace, haar_orthogonal, haar_rotations, hadamard_bound
from ..rootdata import delta_lower_bound, group_constants, order_bound_real
from ..slgroup import (
    RadiusParams,
    discreteness_radii,
    exact_expansion_probability,
    mu_s_draws,
    reduced_conjugator,
)
from .config import ConfigError, ExperimentConfig, derive_group
from .report import ExperimentReport, Verdict, source_revision

__all__ = [
    "InsufficientDataError",
    "expansion_indicator",
    "sample_base_conjugator",
    "model_radius",
    "drift_parameters",
    "conjugation_walk",
    "run_constants",
    "run_expansion_probability",
    "run_key_inequality",
    "run_stationary_bound",
    "run_integrability",
    "run_evanescence",
    "run_goodfn",
    "run_grassmann",
]

# One tag per independent randomness consumer, so enlarging one stream
# never shifts the draws of another.
_TAG_BASE = 1
_TAG_DRIFT_BASE = 3
_TAG_WALK = 5
_TAG_GOODFN = 6
_TAG_GRASSMANN = 7

_EXPANSION_FACTOR = 2.0
_THIN_CUT = 0.5  # a base model is "thin" below _THIN_CUT * rho
_SIGMAS = 3.0
_BASE_TRIES = 400
# Chains of the conjugation walk, stepped in lockstep (conjugation_walk).
_WALK_CHAINS = 128


class InsufficientDataError(ConfigError):
    """The configured sample budget cannot support the requested estimate."""


def _rng(seed: int, tag: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, index])


def expansion_indicator(i_expanded, i_base):
    """1 when a single expanding step grew the radius by at least
    _EXPANSION_FACTOR."""
    return i_expanded >= _EXPANSION_FACTOR * i_base


def model_radius(conjugators: np.ndarray, rp: RadiusParams) -> float | list:
    """Discreteness radius of one conjugator, or the list of radii of a
    stack, as reduced_conjugator takes one matrix or a stack.

    One discreteness_radii call, which gives every entry a radius at
    every n.
    """
    gs = np.asarray(conjugators, dtype=float)
    single = gs.ndim == 2
    radii = discreteness_radii(gs[None] if single else gs, rp)
    return radii[0] if single else radii


def sample_base_conjugator(
    n: int,
    rng: np.random.Generator,
    cond_low: float = 10.0,
    cond_high: float = 1000.0,
) -> np.ndarray:
    """One determinant-one conjugator g = k a u.

    k is Haar on SO(n); a has increasing log-spaced diagonal with condition
    number log-uniform in [cond_low, cond_high]; u is upper unipotent with
    entries uniform in [-1/2, 1/2].  Since a u a^-1 keeps the top-right
    corner of u intact, large cond(a) forces small discreteness radii,
    which is what the thin filter needs to hit.
    """
    k = haar_orthogonal(n, rng)
    log_cond = rng.uniform(math.log(cond_low), math.log(cond_high))
    raw = np.sort(rng.uniform(0.0, 1.0, size=n))
    raw -= raw.mean()
    span = raw[-1] - raw[0]
    if span < 1e-12:  # measure-zero tie; any fixed spread will do
        raw = np.linspace(-0.5, 0.5, n)
        span = 1.0
    a = np.diag(np.exp(raw * (log_cond / span)))
    u = np.eye(n)
    iu = np.triu_indices(n, 1)
    u[iu] = rng.uniform(-0.5, 0.5, size=len(iu[0]))
    return k @ a @ u


def drift_parameters(
    cfg: ExperimentConfig, rp: RadiusParams, p_hat: float
) -> ContractionParams:
    """Drift constants for the measured expansion probability.

    The modeled one-step contraction is a2 = lambda^-ht (the worst the
    expanding element can do on the lattice side), the expansion is the
    configured a1, rho0 is the thin cut, and the exponent is the optimal
    delta; BalanceError when the pair misses c < 1.
    """
    if not 0 < p_hat < 1:
        raise BalanceError(f"expansion probability {p_hat} is degenerate")
    a2 = cfg.lambda_ ** (-float(group_constants(cfg.group_n).ht_sum))
    return contraction_constants(cfg.a1, a2, p_hat, rp.rho * _THIN_CUT)


def _pool_map(fn, tasks, workers: int) -> list:
    import os

    # the fork start method forks all max_workers children at the first
    # submit, so start no more processes than tasks or cores
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(t) for t in tasks]
    # imported here: at workers = 1 it would load multiprocessing for nothing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, tasks, chunksize=max(1, len(tasks) // (4 * workers))))


def _binomial_band(p: float, n: int) -> float:
    """_SIGMAS standard errors of a proportion p measured over n draws."""
    return _SIGMAS * math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _report(experiment, cfg, columns, samples, summary, verdicts) -> ExperimentReport:
    return ExperimentReport(
        experiment=experiment,
        config=cfg,
        revision=source_revision(),
        columns=tuple(columns),
        samples=samples,
        summary=summary,
        verdicts=verdicts,
    )


# ---------------------------------------------------------------------------
# expansion probability


def _expansion_base_task(seed, sp, rp, per_model, index):
    """The first thin draw of base `index` and its per_model rotation pairs,
    all from its generator; rows None when no thin draw in _BASE_TRIES."""
    rng = _rng(seed, _TAG_BASE, index)
    for tries in range(1, _BASE_TRIES + 1):
        g = sample_base_conjugator(sp.n, rng)
        if model_radius(g, rp) <= rp.rho * _THIN_CUT:
            break
    else:
        return None, tries
    indices = range(index * per_model, (index + 1) * per_model)
    rotated = haar_rotations(rng.standard_normal((per_model, sp.n, sp.n))) @ g
    # each rotated model next to its expanded one, in the order of the rows
    pairs = np.stack([rotated, sp.s_lambda @ rotated], axis=1).reshape(-1, sp.n, sp.n)
    radii = model_radius(pairs, rp)
    rows = [
        (idx, index, i_rotated, i_expanded)
        for idx, i_rotated, i_expanded in zip(indices, radii[0::2], radii[1::2])
    ]
    return rows, tries


def run_expansion_probability(cfg: ExperimentConfig) -> ExperimentReport:
    """Estimate p = P(one expanding step at least doubles a thin radius).

    Thin base models are drawn first; each gets a batch of fresh rotations
    k, and the radius of the k-rotated model is compared against the radius
    after one expanding step on top of the same rotation.  The global-floor
    check asserts the step never shrinks any radius below 1/|Ad s|, thin
    or not, which is the deterministic half of the two-point model.
    """
    sp, rp = derive_group(cfg)
    per_model = max(1, cfg.n_mc_samples // 10)
    task = partial(_expansion_base_task, cfg.seed, sp, rp, per_model)
    bases = _pool_map(task, range(cfg.n_base_points), cfg.workers)
    failed = [index for index, (rows, _) in enumerate(bases) if rows is None]
    if failed:
        raise ConfigError(
            f"{len(failed)} base draws found no conjugator below rho/2 in "
            f"{_BASE_TRIES} tries each (first indices {failed[:5]}); widen "
            f"the conditioning window"
        )
    rows = [row for base_rows, _ in bases for row in base_rows]

    i_rot = np.array([r[2] for r in rows])
    i_exp = np.array([r[3] for r in rows])
    flags = expansion_indicator(i_exp, i_rot)
    n_pairs = len(rows)
    p_hat = float(np.mean(flags))
    band = _binomial_band(p_hat, n_pairs)
    floor_fraction = float(np.mean(i_exp >= i_rot / sp.ad_norm * (1.0 - 1e-9)))

    samples = [(*r, f) for r, f in zip(rows, flags.tolist())]
    summary = {
        "n_pairs": n_pairs,
        "per_model": per_model,
        "p_hat": p_hat,
        "band": band,
        "floor_fraction": floor_fraction,
        "expansion_factor": _EXPANSION_FACTOR,
        "rho": rp.rho,
        "thin_cut": rp.rho * _THIN_CUT,
        "ad_norm": sp.ad_norm,
        "base_tries_max": max(tries for _, tries in bases),
    }
    verdicts = [
        Verdict("p-hat-interior", 0.0 < p_hat < 1.0, min(p_hat, 1.0 - p_hat)),
        Verdict("p-hat-band", band <= 0.05, 0.05 - band),
        Verdict("global-floor", floor_fraction == 1.0, floor_fraction - 1.0),
    ]
    columns = ("sample_index", "base_index", "i_rotated", "i_expanded", "expanded")
    return _report("expansion-prob", cfg, columns, samples, summary, verdicts)


# ---------------------------------------------------------------------------
# key inequality, and the drift set-up it shares with the walk runners


def _drift_setup(experiment, cfg, columns, p_hat):
    """Group, p_hat and drift constants shared by the three drift runners.

    Returns (sp, rp, cp, p_hat, source), or the finished report of a
    failed drift balance.  p_hat None means estimate it with a full
    expansion-prob run.
    """
    sp, rp = derive_group(cfg)
    if p_hat is None:
        p_val, source = float(run_expansion_probability(cfg).summary["p_hat"]), "estimated"
    else:
        p_val, source = float(p_hat), "supplied"
        if not 0.0 <= p_val <= 1.0:
            raise ConfigError(f"supplied p_hat {p_val} is not a probability")
    try:
        cp = drift_parameters(cfg, rp, p_val)
    except BalanceError as exc:
        summary = {
            "p_hat": p_val,
            "p_hat_source": source,
            "balance_failed": True,
            "detail": str(exc),
            "advice": "increase lambda until the expansion term dominates",
        }
        verdicts = [Verdict("drift-balance", False, None)]
        return _report(experiment, cfg, columns, [], summary, verdicts)
    return sp, rp, cp, p_val, source


def _drift_base_task(seed, sp, rp, delta, m, index):
    """Base `index` (no thin filter), its radius, and its m drift steps as
    (sample index, radius, radius^-delta), all from the base's generator."""
    rng = _rng(seed, _TAG_DRIFT_BASE, index)
    g = sample_base_conjugator(sp.n, rng)
    indices = range(index * m, (index + 1) * m)
    stepped = mu_s_draws(sp, rng, m) @ g
    *radii, base = model_radius(np.concatenate([stepped, g[None]]), rp)
    rows = [(idx, radius, radius ** (-delta)) for idx, radius in zip(indices, radii)]
    return base, rows


_KEY_COLUMNS = ("sample_index", "base_index", "i_sample", "f_sample", "i_base", "f_base")


def run_key_inequality(cfg: ExperimentConfig, p_hat=None) -> ExperimentReport:
    """Test the one-step drift E[radius^-delta] <= c radius^-delta + b.

    Base models are drawn without any thinness filter (the inequality is
    claimed everywhere), each gets n_mc_samples independent steps, and the
    per-base sample mean minus a 3-sigma allowance is compared against the
    drift line.  The verdict asks for at least 95% of bases to pass.
    """
    setup = _drift_setup("key-inequality", cfg, _KEY_COLUMNS, p_hat)
    if isinstance(setup, ExperimentReport):
        return setup
    sp, rp, cp, p_val, source = setup

    m = cfg.n_mc_samples
    task = partial(_drift_base_task, cfg.seed, sp, rp, cp.delta, m)
    bases = _pool_map(task, range(cfg.n_base_points), cfg.workers)

    f_vals = np.array([[r[2] for r in rows] for _, rows in bases])
    i_base = np.array([radius for radius, _ in bases])
    f_base = i_base ** (-cp.delta)
    means = f_vals.mean(axis=1)
    sems = np.zeros(len(bases)) if m < 2 else f_vals.std(axis=1, ddof=1) / math.sqrt(m)
    rhs = cp.c * f_base + cp.b
    margins = rhs - (means - _SIGMAS * sems)
    passed = margins >= 0.0
    pass_fraction = float(np.mean(passed))

    i_rows, f_rows = i_base.tolist(), f_base.tolist()
    samples = [
        (idx, b, radius, f, i_rows[b], f_rows[b])
        for b, (_, rows) in enumerate(bases)
        for idx, radius, f in rows
    ]
    summary = {
        "p_hat": p_val,
        "p_hat_source": source,
        "a1": cp.a1,
        "a2": cp.a2,
        "delta": cp.delta,
        "c": cp.c,
        "b": cp.b,
        "rho0": cp.rho0,
        "n_bases": len(bases),
        "samples_per_base": m,
        "pass_fraction": pass_fraction,
        "worst_margin": float(margins.min()),
    }
    verdicts = [
        Verdict("drift-balance", True, 1.0 - cp.c),
        Verdict("drift-pass-fraction", pass_fraction >= 0.95, pass_fraction - 0.95),
    ]
    return _report("key-inequality", cfg, _KEY_COLUMNS, samples, summary, verdicts)


# ---------------------------------------------------------------------------
# stationary superlevel bound and integrability, over the same walk


def conjugation_walk(cfg: ExperimentConfig) -> list:
    """Radius along the mu_s conjugation walk: (step, radius) for every
    global step t = 1 .. walk_length, in step order.

    _WALK_CHAINS = C independent chains g_k = k1 s_lambda k2 g_{k-1}, each
    from the identity, run in lockstep: global step t is step
    (t - 1) // C + 1 of chain (t - 1) mod C, so a round of C consecutive
    steps advances every chain once, and a walk shorter than C, or its
    last partial round, advances the first chains only.  mu_s is
    symmetric, since s_lambda^-1 = w s_lambda w^T for a signed reversal
    permutation w in SO(n), so the walk needs no separate inverse step.
    Every step's draw comes from the walk's one generator in step order,
    one round at a time (mu_s_draws), so a longer walk extends a shorter
    one.  A round is one stacked product and one stacked
    reduced_conjugator, which changes nothing the radius can see but keeps
    each conjugator's conditioning near 1/radius, and one
    discreteness_radii call, which gives every step a radius at every n.

    The runners drop the first walk_length // 10 global steps as burn-in,
    which is the first floor(L / (10 C)) steps of every chain and one more
    of the first (L // 10) mod C chains: 7 or 8 at the default L = 10^4.
    A chain from the identity occupies the cusp below eps = 3e-3 at the
    Haar rate 3 eps / pi from about its fifth step on, and over seeds
    1-240 the kept steps match that rate at every eps down to 3e-5 within
    two between-chain standard errors (CHANGES.md).  C = 128 takes 12%
    less time than C = 64, and the stacked Lagrange-Gauss pass beats a
    loop of python ones on walk rounds from about 30 matrices (44 against
    166 us at 128, minima of 300 calls).  At n = 2 a round's rotations are closed forms
    (haar_rotations) and its radii one more Lagrange-Gauss pass, with no
    LAPACK call per matrix but the determinants.  The default walk takes
    13-14 ms (medians of 40 runs in each of six processes, shared 2-core
    box, numpy 2.4).
    """
    sp, rp = derive_group(cfg)
    rng = _rng(cfg.seed, _TAG_WALK, 0)
    chains = np.broadcast_to(np.eye(cfg.group_n), (_WALK_CHAINS, cfg.group_n, cfg.group_n))
    rows = []
    for start in range(1, cfg.walk_length + 1, _WALK_CHAINS):
        steps = range(start, min(start + _WALK_CHAINS, cfg.walk_length + 1))
        chains = reduced_conjugator(mu_s_draws(sp, rng, len(steps)) @ chains[: len(steps)])
        rows.extend(zip(steps, discreteness_radii(chains, rp)))
    return rows


def _walk_rows(cfg: ExperimentConfig, walk, min_kept: int) -> tuple:
    """(rows, kept, burn) of the walk rows `walk`, or of a fresh
    conjugation_walk when None: kept holds the (step, radius) pairs after
    the first walk_length // 10 burn-in steps.  Raises
    InsufficientDataError below min_kept radii."""
    rows = conjugation_walk(cfg) if walk is None else list(walk)
    if len(rows) != cfg.walk_length:
        raise ConfigError(f"{len(rows)} walk rows for walk_length {cfg.walk_length}")
    burn = cfg.walk_length // 10
    kept = [(t, r) for t, r in rows if t > burn]
    if len(kept) < min_kept:
        raise InsufficientDataError(
            f"{len(kept)} usable walk steps after burn-in, {min_kept} needed; "
            f"increase walk_length"
        )
    return rows, kept, burn


_WALK_COLUMNS = ("step", "i_value", "retained")


def run_stationary_bound(cfg: ExperimentConfig, p_hat=None, walk=None) -> ExperimentReport:
    """Occupation-measure test of the superlevel tail bound.

    After burn-in, the fraction of walk steps with radius below eps is
    compared against beta eps^delta with beta = b / (1 - c); the slope of
    the populated part of the tail is fitted as a second, scale-free check.
    walk takes the rows of a conjugation_walk of cfg already run; None
    runs it.
    """
    setup = _drift_setup("stationary-bound", cfg, _WALK_COLUMNS, p_hat)
    if isinstance(setup, ExperimentReport):
        return setup
    _, _, cp, p_val, source = setup

    rows, kept, burn = _walk_rows(cfg, walk, min_kept=2)
    radii = np.array([r for _, r in kept])
    n_ret = len(radii)
    beta = markov_superlevel_bound(cp.c, cp.b, 1.0)

    levels = []
    for eps in cfg.eps_grid:
        frac = float(np.mean(radii < eps))
        band = _binomial_band(frac, n_ret)
        bound = markov_superlevel_bound(cp.c, cp.b, eps ** (-cp.delta))
        levels.append(
            {"eps": eps, "fraction": frac, "band": band, "bound": bound,
             "passed": frac - band <= bound}
        )

    populated = [(lv["eps"], lv["fraction"]) for lv in levels if lv["fraction"] > 0.0]
    slope = None
    if len(populated) >= 2:
        xs = np.log([e for e, _ in populated])
        ys = np.log([f for _, f in populated])
        slope = float(np.polyfit(xs, ys, 1)[0])
    slope_floor = cp.delta - 0.2

    samples = [(t, r, t > burn) for t, r in rows]
    summary = {
        "p_hat": p_val,
        "p_hat_source": source,
        "delta": cp.delta,
        "c": cp.c,
        "b": cp.b,
        "beta": beta,
        "burn_in": burn,
        "retained": n_ret,
        # every step has a radius; the key stays, at 0, because
        # perfbench's walk check reads it and the report bytes must not move
        "cap_incidents": 0,
        "levels": levels,
        "slope": slope,
        "slope_floor": slope_floor,
    }
    verdicts = [
        Verdict("superlevel-bound", all(lv["passed"] for lv in levels),
                min(lv["bound"] - (lv["fraction"] - lv["band"]) for lv in levels)),
        Verdict("superlevel-slope", slope is not None and slope >= slope_floor,
                None if slope is None else slope - slope_floor),
    ]
    return _report("stationary-bound", cfg, _WALK_COLUMNS, samples, summary, verdicts)


_INTEGRABILITY_COLUMNS = ("step", "i_value", "f_value", "running_mean")
_CHECKPOINTS = 20


def run_integrability(cfg: ExperimentConfig, p_hat=None, walk=None) -> ExperimentReport:
    """Watch the running mean of radius^-(delta/2) stabilize along the walk.

    The halved exponent is the one whose stationary moment the drift pair
    makes finite with room to spare.  walk takes the rows of a
    conjugation_walk of cfg already run; None runs it.
    """
    setup = _drift_setup("integrability", cfg, _INTEGRABILITY_COLUMNS, p_hat)
    if isinstance(setup, ExperimentReport):
        return setup
    _, _, cp, p_val, source = setup
    exponent = 0.5 * cp.delta

    _, kept, burn = _walk_rows(cfg, walk, min_kept=_CHECKPOINTS)
    f_vals = np.array([r for _, r in kept]) ** (-exponent)
    running = np.cumsum(f_vals) / np.arange(1, len(f_vals) + 1)
    positions = [((k + 1) * len(f_vals)) // _CHECKPOINTS - 1 for k in range(_CHECKPOINTS)]
    checkpoints = [
        {"step": kept[pos][0], "mean": float(running[pos])} for pos in positions
    ]
    tail = np.array([c["mean"] for c in checkpoints[_CHECKPOINTS // 2 :]])
    variation = float((tail.max() - tail.min()) / abs(tail[-1]))
    stable = variation < 0.10

    samples = [
        (step, radius, f, mean)
        for (step, radius), f, mean in zip(kept, f_vals.tolist(), running.tolist())
    ]
    summary = {
        "p_hat": p_val,
        "p_hat_source": source,
        "delta": cp.delta,
        "exponent": exponent,
        "burn_in": burn,
        "retained": len(kept),
        # every step has a radius; the key stays, at 0, because
        # perfbench's walk check reads it and the report bytes must not move
        "cap_incidents": 0,
        "checkpoints": checkpoints,
        "tail_variation": variation,
        "stable": stable,
    }
    verdicts = [Verdict("running-mean-stable", stable, 0.10 - variation)]
    return _report("integrability", cfg, _INTEGRABILITY_COLUMNS, samples, summary, verdicts)


# ---------------------------------------------------------------------------
# cusp excursion


def run_evanescence(cfg: ExperimentConfig) -> ExperimentReport:
    """Radius decay along the cusp ray diag(y^-1/2, y^1/2) of the n=2 model.

    On the pure cusp branch the radius is exactly 1/y (the shortest vector
    is the shear fixed by the diagonal), so the log-log slope must be -1;
    the identity point must sit exactly at the ceiling rho.
    """
    if cfg.group_n != 2:
        raise ConfigError("the cusp ray experiment is specific to the n = 2 model")
    sp, rp = derive_group(cfg)
    top = math.sqrt(3000.0 / rp.rho)  # the ray's last entry (discreteness_radii's n = 2 range)
    if top > 2.0**510:
        raise ConfigError(f"the cusp ray's last entry {top:.3g} passes 2**510, the n = 2 range")
    y_grid = np.geomspace(2.0 / rp.rho, 3000.0 / rp.rho, 41)
    samples = []
    for y in y_grid:
        g = np.diag([float(y) ** -0.5, float(y) ** 0.5])
        samples.append((float(y), model_radius(g, rp)))

    ys = np.array([s[0] for s in samples])
    radii = np.array([s[1] for s in samples])
    slope, intercept = np.polyfit(np.log(ys), np.log(radii), 1)
    slope = float(slope)
    i_one = model_radius(np.eye(2), rp)
    identity_gap = abs(i_one - rp.rho)

    thresholds = []
    for eps in cfg.eps_grid:
        below = ys[radii < eps]
        thresholds.append({"eps": eps, "y_entry": float(below[0]) if len(below) else None})

    summary = {
        "rho": rp.rho,
        "y_min": float(ys[0]),
        "y_max": float(ys[-1]),
        "slope": slope,
        "prefactor": float(math.exp(intercept)),
        "i_at_identity": i_one,
        "thresholds": thresholds,
    }
    verdicts = [
        Verdict("cusp-slope", abs(slope + 1.0) <= 0.05, 0.05 - abs(slope + 1.0)),
        Verdict("thick-at-identity", identity_gap == 0.0, 0.0 - identity_gap),
    ]
    return _report("evanescence", cfg, ("y", "i_value"), samples, summary, verdicts)


# ---------------------------------------------------------------------------
# explicit constants table


_CONSTANTS_EXPECTED = {
    2: (Fraction(1, 81), 7),
    3: (Fraction(1, 2304), 37),
    4: (Fraction(1, 2460375), 11881),
}


def _exact_drift_balance(cfg: ExperimentConfig) -> tuple:
    """run_constants' n = 2 section and verdict: the exact expansion
    probability p of expansion-prob's thin models against the threshold
    p* = ln lambda / (ln lambda + ln a1) of drift_parameters' balance test
    (ht = 1, so a2 = 1/lambda), and the lambdas of cfg's ray step that
    balance: p is fixed on the step, so they are
    [lambda0^n0, min(lambda0^(n0 + 1), a1^(p / (1 - p)))), None if empty.
    """
    sp, _ = derive_group(cfg)
    p = exact_expansion_probability(sp, _EXPANSION_FACTOR)

    def balances(lam):
        return p > 0.0 and balance_holds(cfg.a1, 1.0 / lam, p)

    start, top = sp.lambda0**sp.n0, sp.lambda0 ** (sp.n0 + 1)
    end = top if balances(top) else cfg.a1 ** (p / (1.0 - p))
    p_star = math.log(cfg.lambda_) / math.log(cfg.lambda_ * cfg.a1)
    window = [start, end] if balances(start) else None
    section = {"ad_norm": sp.ad_norm, "p_exact": p, "p_star": p_star, "balanced_window": window}
    return section, Verdict("drift-balance-exact", balances(cfg.lambda_), p - p_star)


def run_constants(cfg: ExperimentConfig) -> ExperimentReport:
    """Tabulate the exact constants for n = 2, 3, 4 against frozen values,
    and at group_n = 2 the exact drift balance of cfg's ray step."""
    samples = []
    table = []
    verdicts = []
    for n, (want_delta, want_order) in sorted(_CONSTANTS_EXPECTED.items()):
        gc = group_constants(n)
        db = delta_lower_bound(gc)
        order = order_bound_real(gc)
        samples.append(
            (n, gc.dim_g, gc.dim_u, gc.rank_k, gc.ht_sum, order,
             db.delta.numerator, db.delta.denominator)
        )
        table.append(
            {
                "n": n,
                "dim_g": gc.dim_g,
                "dim_u": gc.dim_u,
                "rank_k": gc.rank_k,
                "height_sum": gc.ht_sum,
                "order_bound": order,
                "delta": str(db.delta),
                "delta_float": float(db.delta),
                "inverse_order": db.inverse_order,
            }
        )
        delta_ok = db.delta == want_delta
        order_ok = order == want_order
        verdicts.append(Verdict(f"delta-table-n{n}", delta_ok, 0.0 if delta_ok else None))
        verdicts.append(Verdict(f"order-table-n{n}", order_ok, 0.0 if order_ok else None))
    columns = (
        "n", "dim_g", "dim_u", "rank_k", "height_sum",
        "order_bound", "delta_num", "delta_den",
    )
    summary = {"table": table}
    if cfg.group_n == 2:
        summary["exact_expansion"], verdict = _exact_drift_balance(cfg)
        verdicts.append(verdict)
    return _report("constants", cfg, columns, samples, summary, verdicts)


# ---------------------------------------------------------------------------
# scalar sublevel calibration


def run_goodfn(cfg: ExperimentConfig) -> ExperimentReport:
    """Calibrate the sublevel machinery on cases with known answers.

    |cos theta| on SO(2) has sublevel measure (2/pi) asin(eps), so both the
    direct value at eps = 1e-3 and the fitted slope 1 are checkable; the
    monomials x^d on [-1, 1] pin the slopes 1/d.  Each check reads all its
    eps from one draw, counted in blocks.
    """
    rng = _rng(cfg.seed, _TAG_GOODFN, 0)
    samples = []
    verdicts = []

    eps0 = 1e-3
    so2_grid = [1e-1, 1e-2, eps0]
    so2_measures = compact_group_sublevel_measures(so2_grid, rng, 10_000_000)
    frac = float(so2_measures[-1])
    closed = 2.0 / math.pi * math.asin(eps0)
    rel = abs(frac / closed - 1.0)
    samples.append(("so2-arcsin", eps0, frac, closed))
    verdicts.append(Verdict("so2-arcsin", rel <= 0.05, 0.05 - rel))

    _, so2_slope = compact_group_sublevel_fit(so2_grid, so2_measures)
    samples.append(("so2-slope", None, so2_slope, 1.0))
    verdicts.append(Verdict("so2-slope", abs(so2_slope - 1.0) <= 0.05,
                            0.05 - abs(so2_slope - 1.0)))

    eps_pair = (1e-2, 1e-4)
    for d in (1, 2, 3):
        # a d-fold product: numpy's x ** 3 goes through pow, about 50 times slower
        measures = sublevel_measure(lambda x, d=d: math.prod([x] * d), eps_pair,
                                    4_000_000, rng)
        for eps, measure in zip(eps_pair, measures):
            samples.append((f"monomial-{d}", eps, float(measure), eps ** (1.0 / d)))
        slope = (math.log(measures[0]) - math.log(measures[1])) / (
            math.log(eps_pair[0]) - math.log(eps_pair[1])
        )
        rel = abs(slope * d - 1.0)
        verdicts.append(Verdict(f"monomial-exponent-{d}", rel <= 0.05, 0.05 - rel))

    summary = {
        "so2_direct": {"eps": eps0, "measured": frac, "closed_form": closed},
        "so2_slope": so2_slope,
        "monomial_eps": list(eps_pair),
    }
    columns = ("check", "eps", "observed", "expected")
    return _report("goodfn", cfg, columns, samples, summary, verdicts)


# ---------------------------------------------------------------------------
# moving-subspace projection bounds


def run_grassmann(cfg: ExperimentConfig) -> ExperimentReport:
    """Random sweep of the projection and bijection-contraction bounds.

    Each trial draws U as the first m columns of a Haar rotation of R^n
    (n <= 6), a subspace W no larger than U, and a split-preserving map
    expanding on U, then checks the wedge lower bound, the Hadamard
    determinant bound, and the product contraction bound.  The verdicts
    and minimum slacks are read off the rows.
    """
    trials = cfg.n_mc_samples
    samples = []
    rng = _rng(cfg.seed, _TAG_GRASSMANN, 0)
    for trial in range(trials):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n))
        q = haar_orthogonal(n, rng)
        u = Subspace(n, q[:, :m])
        l = int(rng.integers(1, m + 1))
        wq, _ = np.linalg.qr(rng.standard_normal((n, l)))
        w = Subspace(n, wq[:, :l])

        _, slack_p = check_projection_bound(u, w)
        a = rng.standard_normal((n, n))
        slack_h = hadamard_bound(a) - abs(float(np.linalg.det(a)))
        d = np.concatenate(
            [np.exp(rng.uniform(0.2, 1.0, m)), np.exp(rng.uniform(-1.0, -0.2, n - m))]
        )
        _, slack_b = check_bijection_contraction(q @ np.diag(d) @ q.T, u, w)
        samples.append((trial, n, m, l, slack_p, slack_h, slack_b))

    min_proj, min_hadamard, min_bij = (min(col) for col in list(zip(*samples))[4:])
    summary = {
        "trials": trials,
        "min_projection_slack": min_proj,
        "min_hadamard_slack": min_hadamard,
        "min_bijection_slack": min_bij,
    }
    verdicts = [
        Verdict("projection-bound", min_proj >= -1e-10, min_proj),
        Verdict("hadamard", min_hadamard >= -1e-9, min_hadamard),
        Verdict("bijection-contraction", min_bij >= -1e-10, min_bij),
    ]
    columns = (
        "trial", "n", "dim_u", "dim_w",
        "projection_slack", "hadamard_slack", "bijection_slack",
    )
    return _report("grassmann", cfg, columns, samples, summary, verdicts)
