"""Brute-force discreteness radius for n = 2, independent of thinpart.slgroup.

The radius of g SL(2,Z) g^-1 is the least |log(g gamma g^-1)|_F over
gamma != I in SL(2,Z), capped at rho.  If |log M|_F <= rho then
|M - I|_F <= rho e^rho, so every qualifying gamma has
|gamma_ij - delta_ij| <= cond(g) rho e^rho.  The search scans that window,
widened by one, exhaustively, solving ad - bc = 1 for d, and takes
log-norms from scipy.linalg.logm.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

MAX_WINDOW = 60
TOLERANCE = 1e-9


def entry_window(g: np.ndarray, rho: float) -> int:
    return int(math.floor(np.linalg.cond(g) * rho * math.exp(rho))) + 1


def _window_elements(w: int) -> np.ndarray:
    """Every gamma in SL(2,Z), gamma != I, with |gamma - I| entries <= w."""
    b, c = (x.ravel() for x in np.meshgrid(np.arange(-w, w + 1), np.arange(-w, w + 1)))
    found = []
    for a in range(1 - w, w + 2):
        if a == 0:
            pairs = (b * c == -1)
            for bb, cc in zip(b[pairs], c[pairs]):
                for d in range(1 - w, w + 2):
                    found.append((0, bb, cc, d))
            continue
        num = 1 + b * c
        hit = (num % a == 0)
        d = num // a
        hit &= np.abs(d - 1) <= w
        found.extend(zip(np.full(hit.sum(), a), b[hit], c[hit], d[hit]))
    out = np.array(found, dtype=np.int64).reshape(-1, 2, 2)
    identity = (out[:, 0, 0] == 1) & (out[:, 0, 1] == 0) & (out[:, 1, 0] == 0) & (out[:, 1, 1] == 1)
    return out[~identity]


def brute_radius(g: np.ndarray, rho: float, w: int | None = None) -> float:
    """Least log-norm over the window, or rho when nothing lies within it."""
    if not 0.0 < rho < math.log(2.0):
        raise ValueError(f"rho must lie in (0, ln 2), got {rho}")
    g = np.asarray(g, dtype=float)
    if w is None:
        w = entry_window(g, rho)
    gammas = _window_elements(w).astype(float)
    conj = g @ gammas @ np.linalg.inv(g)
    # |M - I|_F <= rho e^rho < 2 rho for every qualifying element.
    near = np.sqrt(((conj - np.eye(2)) ** 2).sum(axis=(1, 2))) <= 2.0 * rho
    best = rho
    for m in conj[near]:
        log = scipy.linalg.logm(m)
        if np.abs(np.imag(log)).max() > 1e-12:
            continue
        best = min(best, float(np.linalg.norm(np.real(log), "fro")))
    return best


def draws(seed: int, count: int, s_lambda: np.ndarray) -> list:
    """(kind, g) conjugators in equal numbers: base draws, base draws after
    one expanding step, and the reduced conjugator a walk step reaches from
    a base draw."""
    from thinpart.harness.experiments import sample_base_conjugator
    from thinpart.linalg import haar_orthogonal
    from thinpart.slgroup import reduced_conjugator

    rng = np.random.default_rng([seed, 0x0AC1E])
    per = count // 3

    def step():
        return haar_orthogonal(2, rng) @ s_lambda @ haar_orthogonal(2, rng)

    out = [("base", sample_base_conjugator(2, rng)) for _ in range(per)]
    out += [("stepped", step() @ sample_base_conjugator(2, rng)) for _ in range(per)]
    out += [("walk", reduced_conjugator(step() @ sample_base_conjugator(2, rng)))
            for _ in range(count - 2 * per)]
    return out


def compare(seed: int, count: int = 300) -> dict:
    """model_radius against brute_radius on every searchable draw, and
    model_radius against itself after reduced_conjugator on every draw."""
    from thinpart.harness import ExperimentConfig, derive_group
    from thinpart.harness.experiments import model_radius
    from thinpart.slgroup import reduced_conjugator

    sp, rp = derive_group(ExperimentConfig())
    checked = 0
    below_rho = 0
    worst_brute = 0.0
    worst_reduced = 0.0
    disagree = []
    samples = draws(seed, count, sp.s_lambda)
    for i, (kind, g) in enumerate(samples):
        got = model_radius(g, rp)
        rel = abs(model_radius(reduced_conjugator(g), rp) / got - 1.0)
        worst_reduced = max(worst_reduced, rel)
        if rel > TOLERANCE:
            disagree.append((i, kind, "reduced", rel))
        if entry_window(g, rp.rho) > MAX_WINDOW:
            continue
        checked += 1
        below_rho += got < rp.rho
        rel = abs(got / brute_radius(g, rp.rho) - 1.0)
        worst_brute = max(worst_brute, rel)
        if rel > TOLERANCE:
            disagree.append((i, kind, "brute", rel))
    return {
        "draws": len(samples),
        "checked": checked,
        "checked_below_rho": below_rho,
        "worst_brute_rel": worst_brute,
        "worst_reduced_rel": worst_reduced,
        "disagreements": disagree,
        "passed": not disagree and checked > 0,
    }
