"""Property-based round trips for every file format the toolkit writes.

Each writer/reader pair must give back an equal object, and writing the
read-back object again must reproduce the file byte for byte. The recording
writer instead refuses a label that the reader would not give back as written.
The exact text of the JSON and CSV writers for small fixed objects is pinned
as well.
"""

import dataclasses
import itertools
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pdckit import (
    BandAverages,
    FrequencyGrid,
    GeneratorSpec,
    PairedTestResult,
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
    write_test_table_csv,
)
from pdckit.pdc import write_band_averages_json

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


def labels(min_size=1, max_size=4, text=TEXT):
    return st.lists(text, min_size=min_size, max_size=max_size, unique=True)


@st.composite
def configs(draw):
    fs = draw(finite(1.0, 5000.0))
    low = draw(finite(0.0, fs / 2))
    high = draw(finite(low, fs / 2))
    step = draw(finite(1e-3, 50.0))
    # a config's every band must hold a grid frequency: draw one, then edges around it
    grid = FrequencyGrid.regular(low, high, step, fs).freqs_hz
    bands = {}
    # band names are labels: a padded one is refused (tests/test_cli.py)
    for name in draw(labels(max_size=5, text=TEXT.filter(lambda t: t == t.strip()))):
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


def test_json_writers_text(tmp_path):
    model = VarModel(order_p=1, coeff_matrices=np.array([[[0.5, 0.0], [0.25, -0.5]]]),
                     residual_covariance=np.array([[1.0, 0.1], [0.1, 2.0]]),
                     n_samples_used=99, channel_labels=("F3", "F4"))
    write_model_json(model, tmp_path / "model.json")
    assert (tmp_path / "model.json").read_text() == """\
{
  "order": 1,
  "channel_labels": [
    "F3",
    "F4"
  ],
  "coeff_matrices": [
    [
      [
        0.5,
        0.0
      ],
      [
        0.25,
        -0.5
      ]
    ]
  ],
  "residual_covariance": [
    [
      1.0,
      0.1
    ],
    [
      0.1,
      2.0
    ]
  ],
  "n_samples_used": 99
}
"""
    spec = GeneratorSpec(coeff_matrices=np.array([[[0.5]]]), innovation_covariance=np.array([[1.0]]),
                         n_samples=10, seed=7, sampling_rate_hz=250.0)
    write_generator_spec_json(spec, tmp_path / "spec.json")
    assert (tmp_path / "spec.json").read_text() == """\
{
  "coeff_matrices": [
    [
      [
        0.5
      ]
    ]
  ],
  "innovation_covariance": [
    [
      1.0
    ]
  ],
  "n_samples": 10,
  "burn_in": 500,
  "seed": 7,
  "sampling_rate_hz": 250.0,
  "channel_labels": [
    "ch1"
  ]
}
"""
    averages = BandAverages(bands={"alpha": np.array([[1.0, 0.25], [0.5, 1.0]])},
                            band_edges_hz={"alpha": (8.0, 12.5)}, channel_labels=("F3", "F4"))
    write_band_averages_json(averages, tmp_path / "bands.json")
    assert (tmp_path / "bands.json").read_text() == """\
{
  "channel_labels": [
    "F3",
    "F4"
  ],
  "band_edges_hz": {
    "alpha": [
      8.0,
      12.5
    ]
  },
  "bands": {
    "alpha": [
      [
        1.0,
        0.25
      ],
      [
        0.5,
        1.0
      ]
    ]
  }
}
"""


def test_csv_writers_text(tmp_path):
    # csv writes a float as its repr: -0.0, subnormals, 1e16 and integral
    # values keep the text float() reads back exactly
    recording = Recording(samples=np.array([[-0.0, 5e-324], [1e16, 1e-300], [2.0, -3.0]]),
                          sampling_rate_hz=250.0, channel_labels=("F3", "F4"))
    write_recording_csv(recording, tmp_path / "rec.csv")
    assert (tmp_path / "rec.csv").read_bytes() == (
        b"F3,F4\r\n-0.0,5e-324\r\n1e+16,1e-300\r\n2.0,-3.0\r\n")
    spectrum = PdcSpectrum(values=np.array([[[1.0, 0.25], [-0.0, 5e-324]],
                                            [[0.5, 1e-300], [0.75, 1.0]]]),
                           grid=FrequencyGrid(freqs_hz=np.array([4.0, 12.5]),
                                              sampling_rate_hz=250.0),
                           channel_labels=("F3", "F4"))
    write_spectrum_csv(spectrum, tmp_path / "spectrum.csv")
    assert (tmp_path / "spectrum.csv").read_bytes() == (
        b"freq_hz,source,target,pdc\r\n"
        b"4.0,F3,F3,1.0\r\n4.0,F3,F4,-0.0\r\n4.0,F4,F3,0.25\r\n4.0,F4,F4,5e-324\r\n"
        b"12.5,F3,F3,0.5\r\n12.5,F3,F4,0.75\r\n12.5,F4,F3,1e-300\r\n12.5,F4,F4,1.0\r\n")
    results = {
        (("F3", "F4"), "alpha"): PairedTestResult(statistic_w=3.0, n_effective=7, p_raw=0.046875,
                                                  p_adjusted=0.09375, significant=False,
                                                  direction="a_greater"),
        (("F4", "F3"), "alpha"): PairedTestResult(statistic_w=0.0, n_effective=9, p_raw=1e-300,
                                                  p_adjusted=2e-300, significant=True,
                                                  direction="b_greater"),
        (("F3", "F4"), "beta"): PairedTestResult(statistic_w=float("nan"), n_effective=0,
                                                 p_raw=1.0, p_adjusted=1.0, significant=False,
                                                 direction="none", untestable=True),
    }
    write_test_table_csv(results, tmp_path / "table.csv")
    assert (tmp_path / "table.csv").read_bytes() == (
        b"pair,direction,band,n,W,p_raw,p_adjusted,significant\r\n"
        b"F3->F4,a_greater,alpha,7,3.0,0.046875,0.09375,false\r\n"
        b"F4->F3,b_greater,alpha,9,0.0,1e-300,2e-300,true\r\n"
        b"F3->F4,none,beta,0,,1.0,1.0,false\r\n")
