"""Hand cases for the brute-force radius oracle.

    python3 -m pytest perfbench/test_oracle.py
"""

import itertools
import math

import numpy as np
import pytest

from oracle import _window_elements, brute_radius

RHO_PRODUCTION = 0.34 / math.exp(4.0)  # the default config's search radius


def test_window_matches_a_plain_four_entry_scan():
    w = 3
    naive = {
        (a, b, c, d)
        for a, b, c, d in itertools.product(range(1 - w, w + 2), range(-w, w + 1),
                                            range(-w, w + 1), range(1 - w, w + 2))
        if a * d - b * c == 1 and (a, b, c, d) != (1, 0, 0, 1)
    }
    found = {tuple(int(x) for x in m.ravel()) for m in _window_elements(w)}
    assert found == naive


@pytest.mark.parametrize("rho", [0.3, RHO_PRODUCTION])
def test_identity_sits_at_the_cap(rho):
    assert brute_radius(np.eye(2), rho) == rho


@pytest.mark.parametrize("rho", [0.3, RHO_PRODUCTION])
def test_unit_shear_conjugator_leaves_the_lattice_unchanged(rho):
    assert brute_radius(np.array([[1.0, 1.0], [0.0, 1.0]]), rho) == rho


@pytest.mark.parametrize(
    "rho, y",
    [(0.3, 5.0), (0.3, 10.0), (0.3, 40.0),
     (RHO_PRODUCTION, 2.0 / RHO_PRODUCTION), (RHO_PRODUCTION, 9.0 / RHO_PRODUCTION)],
)
def test_cusp_ray_radius_is_one_over_y(rho, y):
    # g gamma g^-1 for the unit shear gamma is [[1, 1/y], [0, 1]], log-norm 1/y.
    g = np.diag([y ** -0.5, y ** 0.5])
    assert brute_radius(g, rho) == pytest.approx(1.0 / y, rel=1e-12)


def test_cusp_ray_above_the_cap_reads_rho():
    y = 2.0  # 1/y = 0.5 exceeds rho = 0.3
    assert brute_radius(np.diag([y ** -0.5, y ** 0.5]), 0.3) == 0.3
