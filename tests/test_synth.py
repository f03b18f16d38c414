import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from pdckit import (
    GeneratorSpec,
    generate,
    read_generator_spec_json,
    screen_stationarity,
    write_generator_spec_json,
)
from pdckit.synth import _generate_stack

from conftest import build_spec, random_stable_var, simulate, simulate_many


WHITE = [[[0.0, 0.0], [0.0, 0.0]]]


# ---------------------------------------------------------------- validation


def test_spec_rejects_unstable_coefficients():
    with pytest.raises(ValueError):
        build_spec([[[1.0]]], 500, 0)
    build_spec([[[0.999]]], 500, 0)  # strictly inside the unit circle is fine


def test_spec_rejects_bad_covariance():
    with pytest.raises(ValueError):
        # not symmetric
        build_spec(WHITE, 500, 0, innovation_covariance=[[1.0, 0.5], [0.4, 1.0]])
    with pytest.raises(ValueError):
        # not positive definite
        build_spec(WHITE, 500, 0, innovation_covariance=[[1.0, 2.0], [2.0, 1.0]])


@pytest.mark.parametrize("coeffs, sigma, message", [
    ([[0.1, 0.0], [0.0, 0.1]], None, "coeff_matrices must have shape (p, M, M), got (2, 2)"),
    ([[[0.1, math.nan], [0.0, 0.1]]], None, "coeff_matrices must be finite"),
    # semidefinite, so past the covariance rule, but a generator draws through Cholesky
    (WHITE, [[1.0, 1.0], [1.0, 1.0]], "innovation_covariance must be positive definite"),
    (WHITE, np.eye(3), "innovation_covariance must be 2x2, got (3, 3)"),
], ids=["shape", "non-finite", "singular", "covariance-shape"])
def test_each_refusal_raises_its_message(coeffs, sigma, message):
    with pytest.raises(ValueError) as info:
        GeneratorSpec(coeff_matrices=coeffs,
                      innovation_covariance=np.eye(2) if sigma is None else sigma,
                      n_samples=500, seed=0, sampling_rate_hz=250.0)
    assert str(info.value) == message


def test_spec_default_labels_and_burn_in():
    spec = build_spec(WHITE, 500, 0)
    assert spec.channel_labels == ("ch1", "ch2")
    assert spec.burn_in == 500
    named = build_spec(WHITE, 500, 0, channel_labels=("F3", "T5"))
    assert named.channel_labels == ("F3", "T5")
    with pytest.raises(ValueError):
        build_spec(WHITE, 500, 0, channel_labels=("F3",))


# ---------------------------------------------------------------- generation


def test_generate_is_deterministic_per_seed():
    rec1 = simulate(WHITE, 500, 42)
    rec2 = simulate(WHITE, 500, 42)
    rec3 = simulate(WHITE, 500, 43)
    assert_array_equal(rec1.samples, rec2.samples)
    assert np.any(rec1.samples != rec3.samples)
    assert rec1.samples.shape == (500, 2)
    assert rec1.sampling_rate_hz == 250.0
    assert rec1.channel_labels == ("ch1", "ch2")


def _generate_by_copy(spec):
    """The samples of `generate` as its first version built them: each sample in a
    copy of its innovation, written back after its lag terms. The benchmark's
    recorded reference outputs rest on these bits."""
    p, m = spec.order_p, spec.n_channels
    total = spec.burn_in + spec.n_samples
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    innovations = rng.standard_normal((total, m)) @ np.linalg.cholesky(
        spec.innovation_covariance).T
    history = np.zeros((p + total, m))
    for t in range(total):
        x = innovations[t].copy()
        for r in range(p):
            x += spec.coeff_matrices[r] @ history[p + t - 1 - r]
        history[p + t] = x
    return history[p + spec.burn_in:]


@settings(max_examples=60)
@given(m=st.integers(1, 4), p=st.integers(1, 5), n=st.integers(1, 300),
       burn_in=st.integers(0, 50), seed=st.integers(0, 2**64 - 1))
def test_generate_is_the_per_sample_copy_loop_bit_for_bit(m, p, n, burn_in, seed):
    rng = np.random.default_rng(seed)
    coeffs = random_stable_var(rng, m, p, radius=0.9).coeff_matrices
    root = rng.normal(size=(m, m))
    spec = GeneratorSpec(coeff_matrices=coeffs, innovation_covariance=root @ root.T + np.eye(m),
                         n_samples=n, seed=seed, sampling_rate_hz=250.0, burn_in=burn_in)
    assert generate(spec).samples.tobytes() == _generate_by_copy(spec).tobytes()


@settings(max_examples=60)
@given(m=st.integers(1, 4), p=st.integers(1, 3), total=st.integers(1, 300),
       seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8), data=st.data())
def test_each_spec_of_a_lockstep_stack_gets_its_own_generate_bit_for_bit(m, p, total, seeds,
                                                                         data):
    specs = []
    for seed in seeds:  # own lags, covariance, seed and burn-in split of the shared length
        rng = np.random.default_rng(seed)
        root = rng.normal(size=(m, m))
        burn_in = data.draw(st.integers(0, total - 1), label="burn_in")
        specs.append(GeneratorSpec(
            coeff_matrices=random_stable_var(rng, m, p, radius=0.9).coeff_matrices,
            innovation_covariance=root @ root.T + np.eye(m), n_samples=total - burn_in,
            seed=seed, sampling_rate_hz=250.0, burn_in=burn_in))
    for spec, recording in zip(specs, _generate_stack(specs), strict=True):
        assert recording.samples.tobytes() == generate(spec).samples.tobytes()
    # a spec of another order, width or length does not fit the stack
    other = build_spec(np.zeros((p, m, m)), total + 1, 0, burn_in=0)
    with pytest.raises(ValueError, match="stacked specs must share order"):
        _generate_stack([*specs, other])


def test_generate_white_noise_matches_innovation_covariance():
    sigma = np.array([[1.0, 0.6], [0.6, 1.0]])
    rec = simulate(WHITE, 60_000, 7, innovation_covariance=sigma)
    sample_cov = np.cov(rec.samples.T)
    assert_allclose(sample_cov, sigma, atol=0.02)


def test_generate_ar1_autocorrelation():
    # lag-1 autocorrelation of a strongly persistent AR(1) is its coefficient
    rec = simulate([[[0.9]]], 20_000, 11)
    x = rec.samples[:, 0]
    x = x - x.mean()
    rho = float(np.dot(x[1:], x[:-1]) / np.dot(x, x))
    assert rho == pytest.approx(0.9, abs=0.02)


def test_generate_cross_coupling_shows_in_cross_covariance():
    # x2(t) = 0.4 x1(t-1) + noise: lagged cross-covariance is positive
    coeffs = np.array([[[0.0, 0.0], [0.4, 0.0]]])
    rec = simulate(coeffs, 30_000, 3)
    x1, x2 = rec.samples[:, 0], rec.samples[:, 1]
    lagged = float(np.mean(x1[:-1] * x2[1:]))
    assert lagged == pytest.approx(0.4, abs=0.05)


def test_burn_in_changes_the_emitted_window():
    base = simulate(WHITE, 500, 5, burn_in=500)
    longer = simulate(WHITE, 500, 5, burn_in=501)
    assert np.any(base.samples != longer.samples)
    zero = simulate(WHITE, 500, 5, burn_in=0)
    assert zero.samples.shape == (500, 2)


def test_generated_epochs_pass_the_stationarity_screen():
    # stationary target after burn-in: the default screen passes nearly always
    passed = sum(screen_stationarity(rec).passed
                 for rec in simulate_many(WHITE, 225, range(70_000, 71_000)))
    assert passed >= 950


# ----------------------------------------------------------------------- io


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
    for key in payload:  # every other key is required
        path.write_text(json.dumps({k: v for k, v in payload.items() if k != key}))
        with pytest.raises(ValueError) as info:
            read_generator_spec_json(path)
        assert str(info.value) == f"{path}: {key} is required"


# what each generator spec JSON key must hold, as the reader's error words it
SPEC_KINDS = {
    "seed": "an integer",
    "n_samples": "an integer",
    "burn_in": "an integer",
    "sampling_rate_hz": "a finite number",
    "channel_labels": "a list or null",
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
    write_generator_spec_json(build_spec(WHITE, 100, 7), path)
    path.write_text(json.dumps({**json.loads(path.read_text()), field: value}))
    if field in SPEC_KINDS:
        message = f"{path}: {field} must be {SPEC_KINDS[field]}, got {json.dumps(value)}"
    else:
        message = f"{path}: unknown generator spec keys [{field!r}]"
    with pytest.raises(ValueError) as info:
        read_generator_spec_json(path)
    assert str(info.value) == message
