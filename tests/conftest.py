"""Shared helpers for the test suite: the hypothesis profiles, and the one home
of every synthetic input the tests build (specs, recordings, models, cohorts,
the coupled and quiet VAR(1) lags, fresh per-example paths). A new test draws
its inputs from here. scipy is not imported at module level: the scipy-free run
of the CLI test loads this file too."""

import itertools
import os
from pathlib import Path

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from pdckit import GeneratorSpec, Recording, VarModel, generate
from pdckit.var import spectral_radius

# every property test runs without a deadline: an example's time varies with
# the machine, and a slow one is not a failure. HYPOTHESIS_PROFILE=ci also draws
# the same examples on every run and prints the blob that replays a failure
settings.register_profile("pdckit", deadline=None)
settings.register_profile("ci", settings.get_profile("pdckit"), derandomize=True,
                          print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "pdckit"))


# the two-channel VAR(1) lags of the suite's cohorts: ch1 drives ch2 in COUPLED,
# neither channel drives the other in QUIET. Every test module shares them, so
# they are read-only
COUPLED = np.array([[[0.3, 0.0], [0.4, 0.3]]])
QUIET = np.array([[[0.3, 0.0], [0.0, 0.3]]])
COUPLED.setflags(write=False)
QUIET.setflags(write=False)


def _labels(m):
    return tuple(f"ch{i + 1}" for i in range(m))


def build_spec(coeffs, n_samples, seed, **fields):
    """A `GeneratorSpec` of `coeffs`: identity innovations at 250 Hz, channels
    ch1..chM, unless `fields` say otherwise."""
    coeffs = np.asarray(coeffs, dtype=float)
    fields = {"innovation_covariance": np.eye(coeffs.shape[1]), "sampling_rate_hz": 250.0,
              **fields}
    return GeneratorSpec(coeff_matrices=coeffs, n_samples=n_samples, seed=seed, **fields)


def simulate(coeffs, n_samples, seed, **fields):
    """The recording `generate` draws from `build_spec(coeffs, n_samples, seed, **fields)`."""
    return generate(build_spec(coeffs, n_samples, seed, **fields))


def build_cohort(coeffs, n_samples, seeds, starts, **fields):
    """One (recording, epoch onsets) subject per seed, each simulated from `coeffs`."""
    return [(simulate(coeffs, n_samples, seed, **fields), starts) for seed in seeds]


def build_recording(samples, sampling_rate_hz=250.0, channel_labels=None):
    """A `Recording` of `samples` (a 1-D array is one channel), channels ch1..chM
    unless labelled."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    labels = _labels(samples.shape[1]) if channel_labels is None else channel_labels
    return Recording(samples=samples, sampling_rate_hz=sampling_rate_hz, channel_labels=labels)


def build_model(coeffs, **fields):
    """A `VarModel` of `coeffs`: identity residual covariance, 225 rows used,
    channels ch1..chM, unless `fields` say otherwise."""
    coeffs = np.asarray(coeffs, dtype=float)
    m = coeffs.shape[1]
    fields = {"order_p": coeffs.shape[0], "residual_covariance": np.eye(m),
              "n_samples_used": 225, "channel_labels": _labels(m), **fields}
    return VarModel(coeff_matrices=coeffs, **fields)


def random_stable_var(rng, m, p, radius=0.7):
    """Draw a random VAR(p) model whose coefficients are rescaled to a target radius.

    Scaling lag r by s**r moves every companion eigenvalue from lam to
    s*lam, so one rescale lands exactly on the requested radius.
    """
    coeffs = rng.normal(scale=0.4 / np.sqrt(p), size=(p, m, m))
    rho = spectral_radius(coeffs)
    if rho > 0:
        s = radius / rho
        coeffs = coeffs * (s ** np.arange(1, p + 1))[:, None, None]
    return build_model(coeffs)


def finite(lo, hi, **kw):
    """Floats in [lo, hi], neither NaN nor infinite."""
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


_FRESH = itertools.count()


def fresh_path(directory, name):
    """`directory / name` with a number no earlier call used before its suffix.

    A property test's examples share one tmp_path, and truncating a file an
    earlier example wrote is slow on some file systems (about 50 ms against
    0.01 ms for a new file; CHANGES.md has the measurement), so each example
    writes new files.
    """
    path = Path(directory) / name
    return path.with_name(f"{path.stem}{next(_FRESH)}{path.suffix}")


def stable_lines(path):
    """A written file's lines less those that record the run, not the input
    (`timestamp_utc`): two runs of the same input agree on these."""
    return [line for line in Path(path).read_bytes().splitlines()
            if not line.lstrip().startswith(b'"timestamp_utc":')]


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
