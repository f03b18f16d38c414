import json
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from pdckit import (
    GeneratorSpec,
    generate,
    read_generator_spec_json,
    screen_stationarity,
    write_generator_spec_json,
)
from pdckit.signals import MultichannelSegment


def _spec(coeffs, sigma=None, n=500, seed=0, fs=250.0, **kw):
    coeffs = np.asarray(coeffs, dtype=float)
    m = coeffs.shape[1]
    return GeneratorSpec(
        coeff_matrices=coeffs,
        innovation_covariance=np.eye(m) if sigma is None else np.asarray(sigma, float),
        n_samples=n,
        seed=seed,
        sampling_rate_hz=fs,
        **kw,
    )


WHITE = [[[0.0, 0.0], [0.0, 0.0]]]


# ---------------------------------------------------------------- validation


def test_spec_rejects_unstable_coefficients():
    with pytest.raises(ValueError):
        _spec([[[1.0]]])
    _spec([[[0.999]]])  # strictly inside the unit circle is fine


def test_spec_rejects_bad_covariance():
    with pytest.raises(ValueError):
        _spec(WHITE, sigma=[[1.0, 0.5], [0.4, 1.0]])  # not symmetric
    with pytest.raises(ValueError):
        _spec(WHITE, sigma=[[1.0, 2.0], [2.0, 1.0]])  # not positive definite


def test_spec_rejects_bad_seed_and_sizes():
    with pytest.raises(ValueError):
        _spec(WHITE, seed=-1)
    with pytest.raises(ValueError):
        _spec(WHITE, seed=2**64)
    with pytest.raises(ValueError):
        _spec(WHITE, n=0)
    with pytest.raises(ValueError):
        _spec(WHITE, burn_in=-1)
    with pytest.raises(ValueError):
        _spec([[[0.1, 0.0], [0.0, 0.1]]], sigma=np.eye(3))


@pytest.mark.parametrize("fs", [math.inf, math.nan])
def test_spec_rejects_a_sampling_rate_that_is_not_finite(fs):
    with pytest.raises(ValueError, match="sampling_rate_hz must be a finite positive number"):
        _spec(WHITE, fs=fs)


def test_spec_default_labels_and_burn_in():
    spec = _spec(WHITE)
    assert spec.channel_labels == ("ch1", "ch2")
    assert spec.burn_in == 500
    named = _spec(WHITE, channel_labels=("F3", "T5"))
    assert named.channel_labels == ("F3", "T5")
    with pytest.raises(ValueError):
        _spec(WHITE, channel_labels=("F3",))


# ---------------------------------------------------------------- generation


def test_generate_is_deterministic_per_seed():
    rec1 = generate(_spec(WHITE, seed=42))
    rec2 = generate(_spec(WHITE, seed=42))
    rec3 = generate(_spec(WHITE, seed=43))
    assert_array_equal(rec1.samples, rec2.samples)
    assert np.any(rec1.samples != rec3.samples)
    assert rec1.samples.shape == (500, 2)
    assert rec1.sampling_rate_hz == 250.0
    assert rec1.channel_labels == ("ch1", "ch2")


def test_generate_white_noise_matches_innovation_covariance():
    sigma = np.array([[1.0, 0.6], [0.6, 1.0]])
    rec = generate(_spec(WHITE, sigma=sigma, n=60_000, seed=7))
    sample_cov = np.cov(rec.samples.T)
    assert_allclose(sample_cov, sigma, atol=0.02)


def test_generate_ar1_autocorrelation():
    # lag-1 autocorrelation of a strongly persistent AR(1) is its coefficient
    rec = generate(
        GeneratorSpec(
            coeff_matrices=np.array([[[0.9]]]),
            innovation_covariance=np.eye(1),
            n_samples=20_000,
            seed=11,
            sampling_rate_hz=250.0,
        )
    )
    x = rec.samples[:, 0]
    x = x - x.mean()
    rho = float(np.dot(x[1:], x[:-1]) / np.dot(x, x))
    assert rho == pytest.approx(0.9, abs=0.02)


def test_generate_cross_coupling_shows_in_cross_covariance():
    # x2(t) = 0.4 x1(t-1) + noise: lagged cross-covariance is positive
    coeffs = np.array([[[0.0, 0.0], [0.4, 0.0]]])
    rec = generate(_spec(coeffs, n=30_000, seed=3))
    x1, x2 = rec.samples[:, 0], rec.samples[:, 1]
    lagged = float(np.mean(x1[:-1] * x2[1:]))
    assert lagged == pytest.approx(0.4, abs=0.05)


def test_burn_in_changes_the_emitted_window():
    base = generate(_spec(WHITE, seed=5, burn_in=500))
    longer = generate(_spec(WHITE, seed=5, burn_in=501))
    assert np.any(base.samples != longer.samples)
    zero = generate(_spec(WHITE, seed=5, burn_in=0))
    assert zero.samples.shape == (500, 2)


def test_generated_epochs_pass_the_stationarity_screen():
    # stationary target after burn-in: the default screen passes nearly always
    passed = 0
    for seed in range(1000):
        rec = generate(_spec(WHITE, n=225, seed=70_000 + seed))
        seg = MultichannelSegment(
            samples=rec.samples,
            sampling_rate_hz=rec.sampling_rate_hz,
            channel_labels=rec.channel_labels,
        )
        passed += screen_stationarity(seg).passed
    assert passed >= 950


# ----------------------------------------------------------------------- io


def test_generator_spec_json_round_trip(tmp_path):
    spec = _spec(
        [[[0.3, 0.1], [0.0, 0.2]], [[0.1, 0.0], [0.05, -0.1]]],
        sigma=[[1.0, 0.2], [0.2, 2.0]],
        n=1234,
        seed=99,
        fs=128.0,
        burn_in=250,
        channel_labels=("F3", "T5"),
    )
    path = tmp_path / "gen.json"
    write_generator_spec_json(spec, path)
    back = read_generator_spec_json(path)
    assert back.n_samples == 1234
    assert back.seed == 99
    assert back.sampling_rate_hz == 128.0
    assert back.burn_in == 250
    assert back.channel_labels == ("F3", "T5")
    assert_allclose(back.coeff_matrices, spec.coeff_matrices, rtol=0, atol=0)
    assert_allclose(back.innovation_covariance, spec.innovation_covariance, rtol=0, atol=0)


def test_generator_spec_json_defaults_optional_fields(tmp_path):
    path = tmp_path / "gen.json"
    payload = {
        "coeff_matrices": [[[0.2]]],
        "innovation_covariance": [[1.0]],
        "n_samples": 100,
        "seed": 1,
        "sampling_rate_hz": 250.0,
    }
    path.write_text(json.dumps(payload))
    spec = read_generator_spec_json(path)
    assert spec.burn_in == 500
    assert spec.channel_labels == ("ch1",)


# what each generator spec JSON key must hold, as the reader's error words it
SPEC_KINDS = {
    "seed": "an integer",
    "n_samples": "an integer",
    "burn_in": "an integer",
    "sampling_rate_hz": "a finite number",
    "channel_labels": "a list of strings or null",
    "coeff_matrices": "equally long nested lists of finite numbers",
    "innovation_covariance": "equally long nested lists of finite numbers",
}


@pytest.mark.parametrize("field, value", [
    ("seed", 7.9),
    ("seed", True),
    ("n_samples", 100.5),
    ("burn_in", "10"),
    ("sampling_rate_hz", "250"),
    ("sampling_rate_hz", True),
    ("channel_labels", "ab"),
    ("coeff_matrices", [[[0.0, "0.5"], [0.0, 0.0]]]),
    ("coeff_matrices", [[[0.0, True], [0.0, 0.0]]]),
    ("innovation_covariance", [[1.0, 0.0], [0.0, math.nan]]),
    ("innovation_covariance", [[1.0, 0.0], 1.0]),
    ("burnin", 3),
])
def test_generator_spec_json_requires_integers(tmp_path, field, value):
    """Every key holds its JSON kind, integers included; unknown keys are refused."""
    path = tmp_path / "gen.json"
    write_generator_spec_json(_spec(WHITE, n=100, seed=7), path)
    path.write_text(json.dumps({**json.loads(path.read_text()), field: value}))
    if field in SPEC_KINDS:
        message = f"{field} must be {SPEC_KINDS[field]}, got "
    else:
        message = re.escape(f"{path}: unknown generator spec keys [{field!r}]")
    with pytest.raises(ValueError, match=message):
        read_generator_spec_json(path)
