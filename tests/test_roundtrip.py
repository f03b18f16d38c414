"""Property-based round trips for every file format the toolkit writes.

Each writer/reader pair must give back an equal object, and writing the
read-back object again must reproduce the file byte for byte. The recording
writer instead refuses a label that the reader would not give back as written.
"""

import dataclasses
import itertools
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pdckit import (
    FrequencyGrid,
    GeneratorSpec,
    PdcSpectrum,
    PipelineConfig,
    Recording,
    VarModel,
    read_config_json,
    read_generator_spec_json,
    read_model_json,
    read_recording_csv,
    read_spectrum_csv,
    write_config_json,
    write_generator_spec_json,
    write_model_json,
    write_recording_csv,
    write_spectrum_csv,
)

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

# each example writes new files: truncating one an earlier example wrote can
# cost far more than the round trip itself on some file systems
_EXAMPLES = itertools.count()


def fresh_paths(tmp_path, suffix):
    n = next(_EXAMPLES)
    return tmp_path / f"a{n}{suffix}", tmp_path / f"b{n}{suffix}"


# control characters and lone surrogates are not label text
TEXT = st.text(st.characters(exclude_categories=("Cc", "Cs")), min_size=1, max_size=6)


def finite(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


def labels(min_size=1, max_size=4):
    return st.lists(TEXT, min_size=min_size, max_size=max_size, unique=True)


@st.composite
def configs(draw):
    fs = draw(finite(1.0, 5000.0))
    low = draw(finite(0.0, fs / 2))
    high = draw(finite(low, fs / 2))
    step = draw(finite(1e-3, 50.0))
    # a config's every band must hold a grid frequency: draw one, then edges around it
    grid = FrequencyGrid.regular(low, high, step, fs).freqs_hz
    bands = {}
    for name in draw(labels(max_size=5)):
        f = float(grid[draw(st.integers(0, grid.size - 1))])
        lo = draw(finite(0.0, f))
        bands[name] = (lo, draw(finite(f, f + 100.0)))
    pairs = None
    if draw(st.booleans()):
        chans = draw(labels(min_size=2, max_size=4))
        all_pairs = [(s, t) for s in chans for t in chans if s != t]
        pairs = tuple(draw(st.lists(st.sampled_from(all_pairs), min_size=1, unique=True)))
    return PipelineConfig(
        sampling_rate_hz=fs,
        epoch_length_ms=draw(finite(1e-3, 1e5, exclude_min=True)),
        channel_pairs=pairs,
        bands=bands,
        freq_low_hz=low,
        freq_high_hz=high,
        freq_step_hz=step,
        order_mode=draw(st.sampled_from(["fixed", "auto_aic"])),
        fixed_order=draw(st.integers(1, 200)),
        p_scan_max=draw(st.integers(1, 200)),
        stationarity_n_windows=draw(st.integers(2, 50)),
        stationarity_mean_drift_tol=draw(finite(1e-6, 100.0)),
        stationarity_variance_ratio_tol=draw(finite(1e-6, 100.0)),
        alpha=draw(finite(0.0, 1.0, exclude_min=True, exclude_max=True)),
        amplitude_reject_threshold=draw(st.none() | finite(1e-6, 1e6)),
        model_scope=draw(st.sampled_from(["per_pair", "joint"])),
        mean_center=draw(st.booleans()),
    )


@SETTINGS
@given(cfg=configs())
def test_config_json_round_trip_property(tmp_path, cfg):
    first, second = fresh_paths(tmp_path, ".json")
    write_config_json(cfg, first)
    back = read_config_json(first)
    assert back == cfg
    write_config_json(back, second)
    assert second.read_bytes() == first.read_bytes()


@st.composite
def models(draw):
    names = draw(labels())
    m = len(names)
    p = draw(st.integers(1, 4))
    coeffs = draw(st.lists(finite(-5.0, 5.0), min_size=p * m * m, max_size=p * m * m))
    root = np.array(draw(st.lists(finite(-3.0, 3.0), min_size=m * m, max_size=m * m)))
    root = root.reshape(m, m)
    # a diagonal floor keeps the covariance clear of the PSD tolerance
    cov = root @ root.T + np.eye(m)
    cov = (cov + cov.T) / 2.0
    return VarModel(
        order_p=p,
        coeff_matrices=np.array(coeffs).reshape(p, m, m),
        residual_covariance=cov,
        n_samples_used=draw(st.integers(1, 10**6)),
        channel_labels=tuple(names),
    )


@SETTINGS
@given(model=models())
def test_model_json_round_trip_property(tmp_path, model):
    first, second = fresh_paths(tmp_path, ".json")
    write_model_json(model, first)
    back = read_model_json(first)
    assert back.order_p == model.order_p
    assert back.n_samples_used == model.n_samples_used
    assert back.channel_labels == model.channel_labels
    assert np.array_equal(back.coeff_matrices, model.coeff_matrices)
    assert np.array_equal(back.residual_covariance, model.residual_covariance)
    write_model_json(back, second)
    assert second.read_bytes() == first.read_bytes()


@st.composite
def generator_specs(draw):
    names = draw(labels())
    m = len(names)
    p = draw(st.integers(1, 4))
    coeffs = np.array(draw(st.lists(finite(-1.0, 1.0), min_size=p * m * m,
                                    max_size=p * m * m))).reshape(p, m, m)
    # sum_i ||A(i)||_inf <= p * m * max|a| < 1 bounds the spectral radius below 1
    largest = np.abs(coeffs).max()
    if largest > 0:
        # divided first, so a subnormal largest entry cannot overflow the scale
        coeffs = coeffs / largest * (draw(finite(0.0, 0.99)) / (p * m))
    root = np.array(draw(st.lists(finite(-3.0, 3.0), min_size=m * m, max_size=m * m)))
    root = root.reshape(m, m)
    # a diagonal floor keeps the covariance positive definite
    cov = root @ root.T + np.eye(m)
    cov = (cov + cov.T) / 2.0
    return GeneratorSpec(
        coeff_matrices=coeffs,
        innovation_covariance=cov,
        n_samples=draw(st.integers(1, 10**6)),
        seed=draw(st.integers(0, 2**64 - 1)),
        sampling_rate_hz=draw(finite(1e-3, 1e5, exclude_min=True)),
        burn_in=draw(st.integers(0, 10**4)),
        channel_labels=tuple(names),
    )


@SETTINGS
@given(spec=generator_specs())
def test_generator_spec_json_round_trip_property(tmp_path, spec):
    first, second = fresh_paths(tmp_path, ".json")
    write_generator_spec_json(spec, first)
    back = read_generator_spec_json(first)
    for f in dataclasses.fields(GeneratorSpec):
        mine, theirs = getattr(back, f.name), getattr(spec, f.name)
        if isinstance(mine, np.ndarray):
            assert np.array_equal(mine, theirs), f.name
        else:
            assert mine == theirs and type(mine) is type(theirs), f.name
    write_generator_spec_json(back, second)
    assert second.read_bytes() == first.read_bytes()


@st.composite
def spectra(draw):
    names = draw(labels())
    m = len(names)
    fs = draw(finite(1.0, 5000.0))
    freqs = sorted(draw(st.lists(finite(0.0, fs / 2), min_size=1, max_size=6, unique=True)))
    n = len(freqs) * m * m
    values = draw(st.lists(finite(0.0, 1.0), min_size=n, max_size=n))
    return PdcSpectrum(
        values=np.array(values).reshape(len(freqs), m, m),
        grid=FrequencyGrid(freqs_hz=np.array(freqs), sampling_rate_hz=fs),
        channel_labels=tuple(names),
    )


@SETTINGS
@given(spectrum=spectra())
def test_spectrum_csv_round_trip_property(tmp_path, spectrum):
    first, second = fresh_paths(tmp_path, ".csv")
    write_spectrum_csv(spectrum, first)
    back = read_spectrum_csv(first, sampling_rate_hz=spectrum.grid.sampling_rate_hz)
    assert back.channel_labels == spectrum.channel_labels
    assert np.array_equal(back.grid.freqs_hz, spectrum.grid.freqs_hz)
    assert np.array_equal(back.values, spectrum.values)
    write_spectrum_csv(back, second)
    assert second.read_bytes() == first.read_bytes()


@st.composite
def recordings(draw):
    # an empty label is drawn too: the writer refuses it with the padded ones
    names = draw(st.lists(st.text(st.characters(exclude_categories=("Cc", "Cs")), max_size=6),
                          min_size=1, max_size=4, unique=True))
    n = draw(st.integers(1, 20))
    values = draw(st.lists(finite(-1e12, 1e12), min_size=n * len(names),
                           max_size=n * len(names)))
    return Recording(
        samples=np.array(values).reshape(n, len(names)),
        sampling_rate_hz=draw(finite(1e-3, 1e5, exclude_min=True)),
        channel_labels=tuple(names),
    )


@SETTINGS
@given(recording=recordings())
def test_recording_csv_round_trip_property(tmp_path, recording):
    first, second = fresh_paths(tmp_path, ".csv")
    refused = [lab for lab in recording.channel_labels if not lab or lab != lab.strip()]
    if refused:
        # the reader strips header labels and rejects an empty one, so the
        # writer refuses them up front
        with pytest.raises(ValueError, match=re.escape(repr(refused[0]))):
            write_recording_csv(recording, first)
        return
    write_recording_csv(recording, first)
    back = read_recording_csv(first, sampling_rate_hz=recording.sampling_rate_hz)
    assert back.channel_labels == recording.channel_labels
    assert np.array_equal(back.samples, recording.samples)
    write_recording_csv(back, second)
    assert second.read_bytes() == first.read_bytes()
