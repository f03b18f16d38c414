"""The two number rules every value and setting is checked by: a finite real
(`_io._is_finite_real`, through `_check_positive` where it must be > 0) and a
count of at least k (`_io._is_count`, through `_check_count`).

pytest turns warnings into errors here, so an accepted case also shows that
no numpy overflow warning is raised on the way.
"""

import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from pdckit import (
    FrequencyGrid,
    PipelineConfig,
    Recording,
    aic,
    band_average,
    compare_conditions,
    compute_pdc,
    evaluate_transfer,
    extract_segments,
    fit_var,
    holm_bonferroni,
    max_order_bound,
    screen_stationarity,
    select_order,
)
from pdckit._io import _check_count, _is_finite_real
from pdckit.pdc import _check_bands

from conftest import COUPLED, build_model, build_spec, random_stable_var, simulate

FS = 250.0
HUGE = 10**400  # an int no float can hold
NON_FINITE = (math.inf, -math.inf, math.nan)
RATE = "sampling_rate_hz must be a finite positive number"


@pytest.mark.parametrize("value", [0, -3, 1.5, -1e308, np.float32(2.5), np.float16(-1),
                                   np.int8(3), np.uint64(2**64 - 1), Fraction(1, 3)])
def test_a_finite_real_is_any_real_number_that_is_not_a_bool(value):
    assert _is_finite_real(value)


@pytest.mark.parametrize("value", [True, False, np.bool_(True), math.nan, math.inf, -math.inf,
                                   np.float32("inf"), np.float64("nan"), HUGE, -HUGE,
                                   Fraction(HUGE, 3), 1j, "1", None, [1.0], np.array(1.0)])
def test_a_finite_real_is_not_a_bool_a_non_finite_number_or_a_non_number(value):
    assert not _is_finite_real(value)


@pytest.mark.parametrize("value", [2, 3, np.int64(2), np.uint8(7), HUGE])
def test_a_count_is_an_int_numpy_ints_included(value):
    _check_count("k", value, 2)


@pytest.mark.parametrize("value", [1, -HUGE, True, 2.0, np.float64(2.0), Fraction(2), "2",
                                   None, np.array(2)])
def test_a_count_refuses_a_bool_a_float_a_non_number_and_a_small_int(value):
    with pytest.raises(ValueError, match=re.escape(f"k must be an integer >= 2, got {value}")):
        _check_count("k", value, 2)


# a two-channel recording and model for the calls whose other arguments are refused
RECORDING = simulate(COUPLED, 675, 4)
MODEL = build_model(np.zeros((1, 2, 2)), n_samples_used=10, channel_labels=("a", "b"))


def _rows(name, call, message, values=NON_FINITE):
    """One refusal per value: ``call(value)`` raises ``<message>, got <value>``."""
    return {f"{name} {value}": (lambda value=value: call(value), f"{message}, got {value}")
            for value in values}


# each call with an out-of-range number or setting -> the start of the ValueError it raises
_REFUSALS = {
    "drift tolerance beyond float range": (
        lambda: PipelineConfig(FS, stationarity_mean_drift_tol=HUGE),
        "stationarity_mean_drift_tol must be a finite positive number"),
    "variance tolerance beyond float range": (
        lambda: PipelineConfig(FS, stationarity_variance_ratio_tol=HUGE),
        "stationarity_variance_ratio_tol must be a finite positive number"),
    "amplitude threshold beyond float range": (
        lambda: PipelineConfig(FS, amplitude_reject_threshold=HUGE),
        "amplitude_reject_threshold must be a finite positive number"),
    "sampling rate beyond float range": (
        lambda: PipelineConfig(HUGE), "sampling_rate_hz must be a finite positive number"),
    "bool sampling rate": (
        lambda: PipelineConfig(sampling_rate_hz=True),
        "sampling_rate_hz must be a finite positive number, got True"),
    "bool epoch length": (
        lambda: PipelineConfig(FS, epoch_length_ms=True),
        "epoch_length_ms must be a finite positive number, got True"),
    "float fixed order": (
        lambda: PipelineConfig(FS, fixed_order=15.5),
        "fixed_order must be an integer >= 1, got 15.5"),
    "bool scan bound": (
        lambda: PipelineConfig(FS, p_scan_max=True), "p_scan_max must be an integer >= 1, got True"),
    "float window count": (
        lambda: PipelineConfig(FS, stationarity_n_windows=2.5),
        "stationarity_n_windows must be an integer >= 2, got 2.5"),
    "band edge beyond float range": (
        lambda: PipelineConfig(FS, bands={"x": (4, HUGE)}), "band 'x' has invalid edges"),
    "bool band edge": (
        lambda: _check_bands({"x": (True, 8.0)}), "band 'x' edges must be a pair of real numbers"),
    "onset beyond float range": (
        lambda: extract_segments(RECORDING, 900.0, [HUGE]),
        f"epoch start (ms) must be a finite number, got {HUGE}"),
    # finite, but more samples than a float can count
    "epoch length past float range in samples": (
        lambda: extract_segments(RECORDING, 1e306, [0.0]),
        "epoch length 1e+306 ms at 250.0 Hz has a sample count past float range"),
    "onset past float range in samples": (
        lambda: extract_segments(RECORDING, 900.0, [0.0, -1e306]),
        "epoch start -1e+306 ms at 250.0 Hz has a sample count past float range"),
    "string onset": (
        lambda: extract_segments(RECORDING, 900.0, ["0"]),
        "epoch start (ms) must be a finite number, got 0"),
    "float fit order": (
        lambda: fit_var(RECORDING, 2.0), "order p must be an integer >= 1, got 2.0"),
    "float scan bound": (
        lambda: select_order(RECORDING, 2.5), "p_scan_max must be an integer >= 1, got 2.5"),
    "one screening window": (
        lambda: screen_stationarity(RECORDING, n_windows=1),
        "n_windows must be an integer >= 2, got 1"),
    "float sample count": (
        lambda: build_spec([[[0.3]]], 10.0, 1), "n_samples must be an integer >= 1, got 10.0"),
    "negative burn-in": (
        lambda: build_spec([[[0.3]]], 10, 1, burn_in=-1),
        "burn_in must be an integer >= 0, got -1"),
    "float model order": (
        lambda: dataclasses.replace(MODEL, order_p=1.0),
        "order_p must be an integer >= 1, got 1.0"),
    "bool model row count": (
        lambda: dataclasses.replace(MODEL, n_samples_used=True),
        "n_samples_used must be an integer >= 1, got True"),
    "zero AIC row count": (lambda: aic(MODEL, 0), "n must be an integer >= 1, got 0"),
    "float bound row count": (
        lambda: max_order_bound(100.0, 2), "n must be an integer >= 1, got 100.0"),
    "zero bound channel count": (
        lambda: max_order_bound(100, 0), "m must be an integer >= 1, got 0"),
    "bool grid start": (
        lambda: PipelineConfig(FS, freq_low_hz=True),
        "frequencies must lie in [0, 125.0] Hz, got [True, 30.0]"),
    "string grid end": (
        lambda: PipelineConfig(FS, freq_high_hz="30"),
        "frequencies must lie in [0, 125.0] Hz, got [4.0, 30]"),
    "bool regular grid end": (
        lambda: FrequencyGrid.regular(0.0, True, 0.5, FS),
        "frequencies must lie in [0, 125.0] Hz, got [0.0, True]"),
    "bool transfer frequency": (
        lambda: evaluate_transfer(MODEL, False, FS),
        "frequencies must lie in [0, 125.0] Hz, got [False, False]"),
    "None grid start": (
        lambda: FrequencyGrid.regular(None, 30.0, 0.5, FS),
        "frequencies must lie in [0, 125.0] Hz, got [None, 30.0]"),
    "string alpha": (lambda: PipelineConfig(FS, alpha="0.5"), "alpha must lie in (0, 1), got 0.5"),
    "bool alpha": (lambda: PipelineConfig(FS, alpha=True), "alpha must lie in (0, 1), got True"),
    "string Holm alpha": (
        lambda: holm_bonferroni([0.1], alpha="x"), "alpha must lie in (0, 1), got x"),
    "None family alpha": (
        lambda: compare_conditions({"k": [1.0, 2.0]}, {"k": [0.5, 1.0]}, alpha=None),
        "alpha must lie in (0, 1), got None"),
    # not a number, but a setting the config file also holds only as true or false
    "string mean_center": (
        lambda: PipelineConfig(FS, mean_center="no"), "mean_center must be true or false, got 'no'"),
    "int mean_center": (
        lambda: PipelineConfig(FS, mean_center=1), "mean_center must be true or false, got 1"),
    **_rows("recording rate", lambda rate: Recording(np.zeros((10, 2)), rate, ("a", "b")),
            RATE),
    **_rows("config rate", PipelineConfig, RATE, [math.inf]),
    **_rows("spec rate", lambda rate: build_spec([[[0.3]]], 10, 1, sampling_rate_hz=rate), RATE,
            [math.inf, math.nan]),
    # at an infinite rate every f / rate would be 0, so each frequency would read the 0 Hz value
    **_rows("grid rate", lambda rate: FrequencyGrid(np.array([4.0, 30.0]), rate), RATE,
            [math.inf, math.nan, 0.0]),
    **_rows("regular grid rate", lambda rate: FrequencyGrid.regular(4.0, 30.0, 0.5, rate), RATE,
            [math.inf, math.nan, 0.0]),
    **_rows("transfer rate", lambda rate: evaluate_transfer(MODEL, 10.0, rate), RATE,
            [math.inf, math.nan, 0.0]),
    **_rows("epoch length", lambda length: extract_segments(RECORDING, length, [0.0]),
            "epoch_length_ms must be a finite positive number", [math.inf, math.nan]),
    **_rows("config epoch length", lambda length: PipelineConfig(FS, epoch_length_ms=length),
            "epoch_length_ms must be a finite positive number", [math.inf]),
    **_rows("onset", lambda start: extract_segments(RECORDING, 900.0, [0.0, start]),
            "epoch start (ms) must be a finite number"),
    # NaN compares false with everything, and an infinite step makes every frequency NaN
    **_rows("grid step", lambda step: FrequencyGrid.regular(4.0, 30.0, step, FS),
            "step_hz must be a finite positive number", [math.nan, math.inf]),
    **_rows("config grid step", lambda step: PipelineConfig(FS, freq_step_hz=step),
            "step_hz must be a finite positive number", [math.nan]),
    # no score passes a NaN tolerance, so every epoch would be screened out
    **_rows("drift tolerance", lambda tol: PipelineConfig(FS, stationarity_mean_drift_tol=tol),
            "stationarity_mean_drift_tol must be a finite positive number", [math.nan]),
    **_rows("variance tolerance",
            lambda tol: PipelineConfig(FS, stationarity_variance_ratio_tol=tol),
            "stationarity_variance_ratio_tol must be a finite positive number", [math.nan]),
    # a finite positive step too fine for its grid to be built
    **{f"grid step {step}": (lambda step=step: FrequencyGrid.regular(4.0, 30.0, step, FS),
                             f"step_hz {step} makes a grid of {count} frequencies from 4.0 to "
                             "30.0 Hz, more than can be allocated")
       for step, count in [(5e-324, "inf"), (1e-12, "2.6e+13"), (1e-20, "2.6e+21")]},
    **{f"band edges {edges}": (
           lambda edges=edges: band_average(
               compute_pdc(MODEL, FrequencyGrid.regular(4.0, 30.0, 0.5, FS)), {"x": edges}),
           f"band 'x' has invalid edges ({edges[0]}, {edges[1]}); edges must be finite, ")
       for edges in [(4.0, math.inf), (-math.inf, 8.0), (math.nan, 8.0), (4.0, math.nan)]},
    **{f"band name {name!r}": (
           lambda name=name: _check_bands({name: (4.0, 8.0)}),
           f"band name {name!r} must be a non-empty string without edge whitespace or '->'")
       for name in ["", " a", "a ", "a->b"]},
    "zero sample count": (
        lambda: build_spec([[[0.3]]], 0, 1), "n_samples must be an integer >= 1, got 0"),
    "zero fit order": (lambda: fit_var(RECORDING, 0), "order p must be an integer >= 1, got 0"),
    "negative model row count": (
        lambda: dataclasses.replace(MODEL, n_samples_used=-5),
        "n_samples_used must be an integer >= 1, got -5"),
    "zero Holm alpha": (
        lambda: holm_bonferroni([0.5], alpha=0.0), "alpha must lie in (0, 1), got 0.0"),
}


@pytest.mark.parametrize("call, message", _REFUSALS.values(), ids=_REFUSALS)
def test_an_out_of_range_number_is_refused_naming_its_field(call, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        call()


@pytest.mark.parametrize("real", [np.float32, np.float16, np.int16])
def test_band_edges_of_any_real_numpy_type_are_taken_as_floats(real):
    bands = {"x": (real(4), real(8))}
    assert _check_bands(bands) == {"x": (4.0, 8.0)}
    assert PipelineConfig(FS, bands=bands).bands == {"x": (4.0, 8.0)}
    grid = FrequencyGrid.regular(4.0, 30.0, 0.5, FS)
    averages = band_average(compute_pdc(random_stable_var(np.random.default_rng(1), 2, 2), grid),
                            bands)
    assert averages.band_edges_hz == {"x": (4.0, 8.0)}


@pytest.mark.parametrize("seed", [2.5, 2.0, True, np.float64(2.0), np.bool_(True), -1, 2**64,
                                  "2", None])
def test_a_seed_is_an_unsigned_64_bit_integer(seed):
    with pytest.raises(ValueError) as info:
        build_spec([[[0.3]]], 10, seed)
    assert str(info.value) == f"seed must be an unsigned 64-bit integer, got {seed}"


@pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
def test_a_numpy_seed_generates_the_samples_of_the_equal_int(seed):
    samples = simulate([[[0.3]]], 10, seed).samples
    for numpy_int in (np.uint64, np.int64):
        if seed <= np.iinfo(numpy_int).max:
            assert simulate([[[0.3]]], 10, numpy_int(seed)).samples.tobytes() == samples.tobytes()


def test_numpy_counts_and_reals_are_taken():
    model, _ = fit_var(RECORDING, np.int64(2))
    assert model.order_p == 2
    assert PipelineConfig(np.float64(FS), fixed_order=np.int32(3)).fixed_order == 3
    assert len(extract_segments(RECORDING, np.float32(900.0), [np.int64(0)])) == 1
    assert Recording(RECORDING.samples, np.float32(FS), ("a", "b")).sampling_rate_hz == FS
    assert PipelineConfig(FS, mean_center=np.False_).mean_center == False  # noqa: E712
    assert holm_bonferroni([0.01], alpha=np.float32(0.05)) == [(0.01, True)]
