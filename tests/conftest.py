"""Shared helpers for the test suite."""

import os

import numpy as np
from hypothesis import settings

from pdckit import VarModel
from pdckit.var import spectral_radius

# every property test runs without a deadline: an example's time varies with
# the machine, and a slow one is not a failure. HYPOTHESIS_PROFILE=ci also draws
# the same examples on every run and prints the blob that replays a failure
settings.register_profile("pdckit", deadline=None)
settings.register_profile("ci", settings.get_profile("pdckit"), derandomize=True,
                          print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "pdckit"))


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


def enumerated_signed_rank_p(diffs):
    """Two-sided signed-rank p by brute force over all 2^n sign assignments.

    Zero differences are dropped first. Ranks are tied to |d|; every sign
    pattern is equally likely under the null, so the p-value is the mass of
    patterns whose min(W+, W-) is at most the observed one.
    """
    # imported here: the scipy-free run of the CLI test loads this file too
    from scipy.stats import rankdata

    diffs = np.asarray(diffs, dtype=float)
    diffs = diffs[diffs != 0.0]
    ranks = rankdata(np.abs(diffs))
    observed = min(ranks[diffs > 0].sum(), ranks[diffs < 0].sum())
    n = diffs.size
    masks = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    w_plus = masks @ ranks
    return float(np.mean(np.minimum(w_plus, ranks.sum() - w_plus) <= observed + 1e-9))
