"""Shared helpers for the test suite."""

import os

import numpy as np
from hypothesis import settings

from pdckit import VarModel
from pdckit.var import spectral_radius

# HYPOTHESIS_PROFILE=ci makes property tests draw the same examples on every
# run and print the blob that replays a failure
settings.register_profile("ci", derandomize=True, print_blob=True, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


def random_stable_var(rng, m, p, radius=0.7, sigma=None):
    """Draw a random VAR(p) coefficient stack rescaled to a target radius.

    Scaling lag r by s**r moves every companion eigenvalue from lam to
    s*lam, so one rescale lands exactly on the requested radius.
    """
    coeffs = rng.normal(scale=0.4 / np.sqrt(p), size=(p, m, m))
    rho = spectral_radius(coeffs)
    if rho > 0:
        s = radius / rho
        coeffs = coeffs * (s ** np.arange(1, p + 1))[:, None, None]
    if sigma is None:
        sigma = np.eye(m)
    return VarModel(
        order_p=p,
        coeff_matrices=coeffs,
        residual_covariance=sigma,
        n_samples_used=225,
        channel_labels=tuple(f"ch{i + 1}" for i in range(m)),
    )
