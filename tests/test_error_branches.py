"""Input checks that no other test reaches, each with its exception and message."""

import numpy as np
import pytest

import bifluid
from bifluid import (ClosureParams, GasPairModel, Grid1D, MixtureState, SolverError,
                     entropy_from_temperature, entropy_production_sigma, entropy_sources,
                     lambda_coefficient, relaxation_length, theta_constitutive)
from bifluid.solver import apply_theta_slaving

MODEL = GasPairModel(k1=1.0, k2=0.5, cv1=1.5, cv2=2.5)


def _slave_steep_wave():
    # T = 300 K in both gases and v1 = sin(2 pi x): relaxation-M with M = 1e4
    # splits the temperatures by |Theta| of order 1e4 K, more than T
    grid = Grid1D(8, 1.0)
    rho = np.ones((2, 8)) * [[1.0], [2.0]]
    u = np.concatenate((rho, [np.sin(2 * np.pi * grid.cell_centers()), np.zeros(8)],
                        [entropy_from_temperature(MODEL, a, rho[a - 1], 300.0) for a in (1, 2)]))
    u = MixtureState(grid, *u).packed
    apply_theta_slaving(u, MODEL, ClosureParams(mode="relaxation-M", M=1e4), grid)


ONE = np.ones(3)
UNIT_FIELDS = dict.fromkeys(("rho1", "rho2", "v1", "v2", "s1", "s2", "Omega1", "Omega2"), 1.0)


@pytest.mark.parametrize("call, exc, message", [
    (lambda: relaxation_length(MODEL, 1.0, 2.0, -1.0), ValueError,
     r"^M must be nonnegative$"),
    (lambda: theta_constitutive(MODEL, 1.0, 2.0, -1.0, 0.5), ValueError,
     r"^M must be nonnegative$"),
    (lambda: lambda_coefficient(MODEL, 1.0, 2.0, -1.0), ValueError,
     r"^M must be nonnegative$"),
    (lambda: entropy_sources(MODEL, ONE, ONE, 300.0 * ONE, [300.0, 0.0, 310.0], 305.0 * ONE,
                             0.13, ONE, 1e-6), ValueError, r"^temperatures must be positive$"),
    (lambda: entropy_production_sigma(ONE, ONE, ONE, ONE, ONE, ONE, ONE, ONE, ONE, ONE, ONE,
                                      [300.0, -1.0, 300.0]), ValueError,
     r"^temperature must be positive$"),
    (lambda: entropy_from_temperature(MODEL, 1, [1.0, 0.0], 300.0), ValueError,
     r"^density must be positive$"),
    (lambda: bifluid.gibbs_terms(bifluid.ManufacturedFields.constant(),
                                 bifluid.ExtendedPotential.quadratic(), mode="x"), ValueError,
     r"^unknown mode 'x'$"),
    (lambda: bifluid.gibbs_residual(bifluid.ManufacturedFields(**UNIT_FIELDS | {"rho2": -2.0}),
                                    bifluid.ExtendedPotential.quadratic()), ValueError,
     r"^sample window contains nonpositive densities$"),
    (_slave_steep_wave, SolverError,
     r"^theta slaving produced nonpositive temperatures: T\d = -\d+\.\d+ at cell \d$"),
], ids=["length-M-negative", "theta-M-negative", "lambda-M-negative", "sources-T-zero",
        "sigma-T-negative", "entropy-rho-zero", "gibbs-mode-x", "fields-rho-negative",
        "slaving-T-negative"])
def test_error_branch_raises_its_message(call, exc, message):
    with pytest.raises(exc, match=message):
        call()
