import dataclasses
import json
import math
import operator
import os
import re
import stat
from collections import Counter
from itertools import permutations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, reject, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import pdckit.pdc
import pdckit.pipeline
import pdckit.var
from pdckit import (
    PdcSpectrum,
    PipelineError,
    Recording,
    VarModel,
    compute_pdc,
    default_config,
    extract_segments,
    fit_var,
    read_config_json,
    run_pipeline,
    report_to_dict,
    select_order,
    write_config_json,
    write_recording_csv,
    write_report,
    write_test_table_csv,
)
from pdckit.cli import main
from pdckit.pipeline import (
    ORDER_MODE_AUTO_AIC,
    ORDER_MODE_FIXED,
    SCOPE_JOINT,
    SCOPE_PER_PAIR,
    AnalysisReport,
    ConditionSummary,
    PipelineConfig,
    _write_atomic,
)
from pdckit.stats import _pair_cell, format_pair

from conftest import (COUPLED, LOOSE_SCREEN, QUIET, build_cohort, fresh_path, pipeline_cases,
                      stable_lines)

FS = 250.0
EPOCHS = 6
STARTS = [900.0 * k for k in range(EPOCHS)]
NSAMP = 225 * EPOCHS


def _cohorts(n_subjects=6, base=880_000):
    """Condition a quiet, condition b coupled: ch1 drives ch2 in b alone."""
    return tuple(build_cohort(coeffs, NSAMP, range(first, first + n_subjects), STARTS)
                 for coeffs, first in ((QUIET, base), (COUPLED, base + 500)))


# -------------------------------------------------------------------- config


def test_default_config_is_the_reference_protocol():
    cfg = default_config(FS)
    assert cfg.epoch_length_ms == 900.0
    assert cfg.order_mode == "fixed"
    assert cfg.fixed_order == 15
    assert (cfg.freq_low_hz, cfg.freq_high_hz, cfg.freq_step_hz) == (4.0, 30.0, 0.5)
    assert cfg.bands == {
        "theta": (4.0, 7.5),
        "alpha": (8.0, 12.5),
        "beta1": (13.0, 20.5),
        "beta2": (21.0, 30.0),
    }
    assert cfg.alpha == 0.05
    assert cfg.mean_center is True
    assert cfg.channel_pairs is None
    assert cfg.frequency_grid().n_freqs == 53
    # the screen's own defaults, which screen_stationarity reads from the same constants
    assert (cfg.stationarity_n_windows, cfg.stationarity_mean_drift_tol,
            cfg.stationarity_variance_ratio_tol) == (3, 0.5, 2.0)


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(sampling_rate_hz=0.0)
    with pytest.raises(ValueError):
        PipelineConfig(sampling_rate_hz=FS, epoch_length_ms=-1.0)
    with pytest.raises(ValueError):
        PipelineConfig(sampling_rate_hz=FS, channel_pairs=(("a", "a"),))
    with pytest.raises(ValueError):
        PipelineConfig(sampling_rate_hz=FS, channel_pairs=(("a", "b"), ("a", "b")))
    with pytest.raises(ValueError):
        PipelineConfig(sampling_rate_hz=FS, bands={})
    with pytest.raises(ValueError):
        PipelineConfig(sampling_rate_hz=FS, bands={"x": (9.0, 7.0)})
    with pytest.raises(ValueError):
        PipelineConfig(sampling_rate_hz=FS, freq_high_hz=126.0)  # above Nyquist
    with pytest.raises(ValueError, match="30.2"):
        # above Nyquist even though the grid's last step, 30 Hz, is not
        PipelineConfig(sampling_rate_hz=60.0, freq_high_hz=30.2)
    with pytest.raises(ValueError, match="'gamma'"):
        PipelineConfig(sampling_rate_hz=FS, bands={"gamma": (35.0, 45.0)})  # grid ends at 30
    with pytest.raises(ValueError):
        PipelineConfig(sampling_rate_hz=FS, order_mode="guess")
    with pytest.raises(ValueError):
        PipelineConfig(sampling_rate_hz=FS, alpha=1.0)
    with pytest.raises(ValueError):
        PipelineConfig(sampling_rate_hz=FS, model_scope="global")
    with pytest.raises(ValueError):
        PipelineConfig(sampling_rate_hz=FS, stationarity_n_windows=1)


@pytest.mark.parametrize("field, value, message", [
    ("bands", {"theta": (4.0, 7.5), "x": (4.0, math.inf)},
     "band 'x' has invalid edges (4.0, inf); edges must be finite, ordered and non-negative"),
    ("stationarity_mean_drift_tol", math.inf,
     "stationarity_mean_drift_tol must be a finite positive number, got inf"),
    ("stationarity_variance_ratio_tol", math.inf,
     "stationarity_variance_ratio_tol must be a finite positive number, got inf"),
    ("amplitude_reject_threshold", math.inf,
     "amplitude_reject_threshold must be a finite positive number, got inf"),
])
def test_config_rejects_an_infinite_value_its_json_file_cannot_hold(tmp_path, field, value,
                                                                   message):
    with pytest.raises(ValueError, match=re.escape(message)):
        PipelineConfig(sampling_rate_hz=FS, **{field: value})
    # the largest finite value is written as a JSON number and read back
    finite = {name: (4.0, np.nextafter(math.inf, 0.0)) for name in value} \
        if field == "bands" else np.nextafter(math.inf, 0.0)
    cfg = PipelineConfig(sampling_rate_hz=FS, **{field: finite})
    write_config_json(cfg, tmp_path / "config.json")
    assert "Infinity" not in (tmp_path / "config.json").read_text()
    assert read_config_json(tmp_path / "config.json") == cfg


def test_config_json_defaults_and_unknown_keys(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"sampling_rate_hz": 250.0}))
    cfg = read_config_json(path)
    assert cfg == default_config(250.0)

    path.write_text(json.dumps({"sampling_rate_hz": 250.0, "epoch_ms": 900}))
    with pytest.raises(ValueError, match="epoch_ms"):
        read_config_json(path)

    path.write_text(json.dumps({"epoch_length_ms": 900}))
    with pytest.raises(ValueError) as info:
        read_config_json(path)
    assert str(info.value) == f"{path}: sampling_rate_hz is required"


def test_config_json_default_text(tmp_path):
    path = tmp_path / "config.json"
    write_config_json(default_config(250.0), path)
    assert path.read_text() == """\
{
  "sampling_rate_hz": 250.0,
  "epoch_length_ms": 900.0,
  "channel_pairs": null,
  "bands": {
    "theta": [
      4.0,
      7.5
    ],
    "alpha": [
      8.0,
      12.5
    ],
    "beta1": [
      13.0,
      20.5
    ],
    "beta2": [
      21.0,
      30.0
    ]
  },
  "freq_grid": {
    "low_hz": 4.0,
    "high_hz": 30.0,
    "step_hz": 0.5
  },
  "order_mode": "fixed",
  "fixed_order": 15,
  "p_scan_max": 20,
  "stationarity": {
    "n_windows": 3,
    "mean_drift_tol": 0.5,
    "variance_ratio_tol": 2.0
  },
  "alpha": 0.05,
  "amplitude_reject_threshold": null,
  "model_scope": "per_pair",
  "mean_center": true
}
"""


@pytest.mark.parametrize("extra, where", [
    ({"freq_grid": {"low_hz": 4.0, "high_hz": 30.0, "step_hz": 0.5, "extra": 1}},
     "freq_grid.extra"),
    ({"stationarity": {"n_windows": 3, "typo_tol": 1.0}}, "stationarity.typo_tol"),
    ({"mean_center": "false"}, "mean_center"),
    ({"mean_center": 0}, "mean_center"),
    ({"fixed_order": 15.7}, "fixed_order"),
    ({"fixed_order": True}, "fixed_order"),
    ({"alpha": "0.05"}, "alpha"),
    ({"epoch_length_ms": True}, "epoch_length_ms"),
    ({"stationarity": {"n_windows": 2.5}}, "stationarity.n_windows"),
    ({"freq_grid": {"step_hz": "0.5"}}, "freq_grid.step_hz"),
    ({"freq_grid": {"step_hz": float("nan")}}, "freq_grid.step_hz"),
    ({"epoch_length_ms": 10**400}, "epoch_length_ms"),
    ({"channel_pairs": [["ch1", 2]]}, "channel_pairs"),
    ({"bands": {"theta": [4.0, "7.5"]}}, "bands"),
    ({"bands": {"theta": [4.0]}}, "bands"),
    ({"bands": {"theta": [4.0, math.inf]}}, "bands"),
    ({"alpha": 1.5}, "alpha must lie in (0, 1), got 1.5"),
    # a dotted path is a key only inside its group
    ({"freq_grid.low_hz": 2.0}, "unknown config keys ['freq_grid.low_hz']"),
    ({"stationarity.n_windows": 4}, "unknown config keys ['stationarity.n_windows']"),
    ({"freq_grid.low_hz": 2.0, "freq_grid": {"low_hz": 3.0}},
     "unknown config keys ['freq_grid.low_hz']"),
])
def test_config_json_is_validated_by_the_schema(tmp_path, extra, where):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"sampling_rate_hz": 250.0, **extra}))
    with pytest.raises(ValueError, match=re.escape(where)):
        read_config_json(path)


def test_config_json_missing_nested_keys_take_defaults(tmp_path):
    path = tmp_path / "config.json"
    # a grid that starts below every band, so each band keeps grid frequencies
    path.write_text(json.dumps({"sampling_rate_hz": 250.0,
                                "freq_grid": {"low_hz": 2.0},
                                "stationarity": {"n_windows": 4}}))
    cfg = read_config_json(path)
    assert cfg == dataclasses.replace(default_config(250.0), freq_low_hz=2.0,
                                      stationarity_n_windows=4)


# ----------------------------------------------------------------- execution


def test_pipeline_flags_injected_coupling():
    # smallest exact p at n subjects is 2/2^n; the Holm threshold for a
    # family of 8 needs n >= 9, so use 10 with margin
    cond_a, cond_b = _cohorts(n_subjects=10)
    report = run_pipeline(default_config(FS), cond_a, cond_b)

    assert report.channel_pairs == (("ch1", "ch2"), ("ch2", "ch1"))
    assert report.band_names == ("theta", "alpha", "beta1", "beta2")
    assert set(report.test_results) == {
        (pair, band) for pair in report.channel_pairs for band in report.band_names
    }
    assert report.subjects_used == tuple(range(10))

    forward = [report.test_results[(("ch1", "ch2"), b)] for b in report.band_names]
    assert all(r.significant for r in forward)
    assert all(r.direction == "b_greater" for r in forward)

    for cond in (report.condition_a, report.condition_b):
        assert cond.segments_in == 10 * EPOCHS
        assert cond.segments_in == cond.screened_out + cond.failed_fit + cond.used
        assert cond.used > 0
        for key, values in cond.band_values.items():
            assert len(values) == len(report.subjects_used)
            assert all(0.0 <= v <= 1.0 for v in values)


def test_the_band_rule_runs_once_per_config_build_and_once_per_run(monkeypatch):
    calls = []
    real = pdckit.pdc._check_bands

    def counted(bands):
        calls.append(bands)
        return real(bands)

    monkeypatch.setattr(pdckit.pdc, "_check_bands", counted)
    monkeypatch.setattr(pdckit.pipeline, "_check_bands", counted)
    cfg = default_config(FS)
    assert len(calls) == 1
    run_pipeline(cfg, *_cohorts(n_subjects=2))
    assert len(calls) == 2


def test_a_band_edited_after_the_build_is_refused_before_any_fit(monkeypatch):
    # the config is frozen, but its bands dict is not
    cfg = default_config(FS)
    cfg.bands["x"] = (4.0, math.inf)
    fits = []
    monkeypatch.setattr(pdckit.pipeline, "fit_var",
                        lambda *args: fits.append(args) or fit_var(*args))
    with pytest.raises(ValueError, match=re.escape("band 'x' has invalid edges (4.0, inf)")):
        run_pipeline(cfg, *_cohorts(n_subjects=2))
    assert fits == []


@pytest.mark.parametrize("changes", [{}, {"order_mode": ORDER_MODE_AUTO_AIC, "p_scan_max": 4,
                                          "mean_center": False}], ids=["fixed", "aic"])
def test_the_pipeline_checks_no_value_it_derives_from_checked_ones(monkeypatch, changes):
    cond_a, cond_b = _cohorts(n_subjects=3)  # checked before the count starts
    calls = Counter()

    def counted(name, call):
        def wrapper(self):
            calls[name] += 1
            return call(self)
        return wrapper

    for cls in (Recording, VarModel, PdcSpectrum):
        monkeypatch.setattr(cls, "__post_init__", counted(cls.__name__, cls.__post_init__))
    # a centred recording's means can overflow, so it is checked
    monkeypatch.setattr(Recording, "centered", counted("centered", Recording.centered))
    report = run_pipeline(dataclasses.replace(default_config(FS), **changes), cond_a, cond_b)
    assert len(report.subjects_used) == 3
    assert calls["VarModel"] == calls["PdcSpectrum"] == 0
    centred = 2 * 3 * EPOCHS if changes.get("mean_center", True) else 0  # every epoch
    assert calls["Recording"] == calls["centered"] == centred


def test_an_epoch_that_cannot_be_fitted_counts_as_failed_fit():
    cond_a, cond_b = _cohorts(n_subjects=4)
    starts = STARTS[:3]
    cond_a = [(rec, starts) for rec, _ in cond_a]
    cond_b = [(rec, starts) for rec, _ in cond_b]
    # channel 2 a copy of channel 1 in subject 0's second epoch: a rank-deficient design
    samples = cond_a[0][0].samples.copy()
    samples[225:450, 1] = samples[225:450, 0]
    cond_a[0] = (Recording(samples, FS, cond_a[0][0].channel_labels), starts)
    report = run_pipeline(default_config(FS), cond_a, cond_b)
    a = report.condition_a
    assert (a.segments_in, a.screened_out, a.failed_fit, a.used) == (12, 1, 1, 10)
    assert report.condition_b.failed_fit == 0
    assert report.subjects_used == (0, 1, 2, 3)


@pytest.mark.parametrize("mean_center", [True, False])
def test_an_epoch_whose_statistics_overflow_counts_as_screened_out(mean_center):
    cond_a, cond_b = _cohorts(n_subjects=5)
    starts = STARTS[:3]
    cond_a = [(rec, starts) for rec, _ in cond_a]
    cond_b = [(rec, starts) for rec, _ in cond_b]
    # finite samples whose window sums, and so means and variances, pass float range;
    # a numpy warning would fail the test
    samples = (np.random.default_rng(7).standard_normal((NSAMP, 2)) + 5) * 1e307
    cond_a[4] = (Recording(samples, FS, cond_a[4][0].channel_labels), starts)
    config = dataclasses.replace(default_config(FS), mean_center=mean_center)
    report = run_pipeline(config, cond_a, cond_b)
    a = report.condition_a
    assert (a.segments_in, a.screened_out, a.failed_fit, a.used) == (15, 4, 0, 11)
    assert report.subjects_used == (0, 1, 2, 3)


@pytest.mark.parametrize("power, attrition, subjects", [
    (152, (15, 2, 0, 13), (0, 1, 2, 3, 4)),
    (152.4, (15, 2, 0, 13), (0, 1, 2, 3, 4)),  # QR's certificate overflows: lstsq fits
    (153, (15, 2, 3, 10), (1, 2, 3, 4)),  # the residual product overflows
    (200, (15, 5, 0, 10), (1, 2, 3, 4)),  # the screen's squared deviations overflow
], ids=["1e152", "1e152.4", "1e153", "1e200"])
def test_a_subject_scaled_near_float_range_is_fitted_then_refused(power, attrition, subjects):
    # the fit's bound lies below the screen's, so a scale-free screen would move such
    # epochs from screened_out to failed_fit and use none of them; no numpy warning escapes
    cond_a, cond_b = _cohorts(n_subjects=5)
    starts = STARTS[:3]
    cond_a = [(rec, starts) for rec, _ in cond_a]
    cond_b = [(rec, starts) for rec, _ in cond_b]
    rec = cond_a[0][0]
    cond_a[0] = (Recording(rec.samples * 10.0 ** power, FS, rec.channel_labels), starts)
    report = run_pipeline(default_config(FS), cond_a, cond_b)
    a = report.condition_a
    assert (a.segments_in, a.screened_out, a.failed_fit, a.used) == attrition
    assert report.subjects_used == subjects


# ------------------------------------------------------ metamorphic relations
# How the report must move when the cohort moves in a known way, on drawn cohorts
# and protocols and on the fixed cohort below under the reference protocol.

# ch1 drives ch2 in condition b only; ch3 is on its own in both
FIXED_CASE = (default_config(FS), *(
    build_cohort(lags, NSAMP, range(first, first + 5), STARTS) for lags, first in (
        (np.diag([0.3, 0.3, 0.3])[None], 893_000),
        (np.array([[[0.3, 0.0, 0.0], [0.4, 0.3, 0.0], [0.0, 0.0, 0.3]]]), 893_100))))


def _report(config, cond_a, cond_b):
    """The case's report; a case that keeps no subject in both conditions is drawn again."""
    try:
        return run_pipeline(config, cond_a, cond_b)
    except PipelineError:
        reject()


def _values(report):
    """Both conditions' band values, one row per key in sorted key order."""
    return np.array([summary.band_values[key] for summary in (report.condition_a,
                     report.condition_b) for key in sorted(summary.band_values)])


def _rerun(case, recording, onsets=lambda starts: starts):
    """The case's report with every recording and its onsets mapped."""
    config, cond_a, cond_b = case
    return run_pipeline(config, *([(recording(rec), onsets(starts)) for rec, starts in cohort]
                                  for cohort in (cond_a, cond_b)))


# an example runs the pipeline once or twice, 10-120 ms a run on a 2-vCPU
# machine, and ten tests draw them, so each draws few; the weekly CI run draws new ones
RELATION = settings(max_examples=3)


@RELATION
@given(case=pipeline_cases(), order=st.permutations(range(6)))
@example(case=FIXED_CASE, order=[3, 0, 4, 2, 1, 5])
def test_permuting_the_subjects_leaves_every_test_result(case, order):
    config, cond_a, cond_b = case
    report = _report(*case)
    order = [i for i in order if i < len(cond_a)]
    permuted = run_pipeline(config, [cond_a[i] for i in order], [cond_b[i] for i in order])
    assert repr(permuted.test_results) == repr(report.test_results)
    for cond in ("condition_a", "condition_b"):
        by_subject = {key: dict(zip(report.subjects_used, values))
                      for key, values in getattr(report, cond).band_values.items()}
        assert getattr(permuted, cond).band_values == {key: tuple(
            values[i] for i in order if i in values) for key, values in by_subject.items()}


@pytest.mark.parametrize("scope", [SCOPE_PER_PAIR, SCOPE_JOINT])
@RELATION
@given(case=pipeline_cases(), columns=st.permutations(range(4)))
@example(case=FIXED_CASE, columns=[2, 0, 1, 3])
def test_permuting_the_channels_with_their_labels_keeps_every_key(scope, case, columns):
    config, cond_a, cond_b = case
    case = (dataclasses.replace(config, model_scope=scope), cond_a, cond_b)
    report = _report(*case)
    columns = [i for i in columns if i < cond_a[0][0].n_channels]
    other = _rerun(case, lambda rec: dataclasses.replace(rec, samples=rec.samples[:, columns],
                   channel_labels=tuple(rec.channel_labels[i] for i in columns)))
    assert_allclose(_values(other), _values(report), rtol=0, atol=1e-12)
    verdict = operator.attrgetter("p_raw", "significant", "direction")
    assert {key: verdict(result) for key, result in other.test_results.items()} == \
        {key: verdict(result) for key, result in report.test_results.items()}


@RELATION
@given(case=pipeline_cases(), power=st.integers(-3, 3))
@example(case=FIXED_CASE, power=3)
def test_a_common_scale_keeps_every_test_row(case, power):
    report = _report(*case)
    other = _rerun(case, lambda rec: dataclasses.replace(rec, samples=rec.samples * 10.0 ** power))
    assert_allclose(_values(other), _values(report), rtol=0, atol=1e-12)
    assert report_to_dict(other)["tests"] == report_to_dict(report)["tests"]


@settings(RELATION, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=pipeline_cases(), k=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
@example(case=FIXED_CASE, k=7, seed=17)
def test_shifting_the_onsets_with_the_recordings_changes_no_output_byte(tmp_path, case, k,
                                                                       seed):
    # k rows prepended and every onset k rows later
    report = _report(*case)
    rng, shift_ms = np.random.default_rng(seed), 1000.0 * k / case[0].sampling_rate_hz
    other = _rerun(case, lambda rec: dataclasses.replace(rec, samples=np.vstack(
                       [rng.normal(scale=5.0, size=(k, rec.n_channels)), rec.samples])),
                   lambda starts: [onset + shift_ms for onset in starts])
    files = [write_report(run, fresh_path(tmp_path, "out")) for run in (report, other)]
    for kind in ("report", "test_table"):
        assert stable_lines(files[0][kind]) == stable_lines(files[1][kind])


@RELATION
@given(case=pipeline_cases())
@example(case=FIXED_CASE)
def test_swapping_the_conditions_flips_only_the_test_directions(case):
    config, cond_a, cond_b = case
    report = _report(*case)
    flipped = {"a_greater": "b_greater", "b_greater": "a_greater", "none": "none"}
    swapped = report_to_dict(run_pipeline(config, cond_b, cond_a))["tests"]
    assert swapped == [{**row, "direction": flipped[row["direction"]]}
                       for row in report_to_dict(report)["tests"]]


@pytest.mark.parametrize("scope", [SCOPE_PER_PAIR, SCOPE_JOINT])
@pytest.mark.parametrize("order_mode", [ORDER_MODE_FIXED, ORDER_MODE_AUTO_AIC])
@RELATION
@given(case=pipeline_cases())
@example(case=FIXED_CASE)
def test_every_band_value_is_the_direct_chain_over_its_epochs(scope, order_mode, case):
    # the loose screen keeps every epoch, so the means run over all of them; the
    # scan stops at 6 at most, as drawn, for the reference protocol's 20 is past the
    # order bound of a joint 3-channel 225-row epoch
    config, cond_a, cond_b = case
    config = dataclasses.replace(config, model_scope=scope, order_mode=order_mode,
                                 p_scan_max=min(config.p_scan_max, 6), **LOOSE_SCREEN)
    report = run_pipeline(config, cond_a, cond_b)
    labels = cond_a[0][0].channel_labels
    assert report.channel_pairs == (config.channel_pairs or tuple(permutations(labels, 2)))
    assert report.subjects_used == tuple(range(len(cond_a)))
    grid = config.frequency_grid()
    for cohort, summary in zip((cond_a, cond_b), (report.condition_a, report.condition_b)):
        assert summary.used == summary.segments_in == sum(len(starts) for _, starts in cohort)
        for subject, (recording, starts) in enumerate(cohort):
            for source, target in report.channel_pairs:
                # one model over the pair in the pair's own order, or over all channels
                channels = labels if config.model_scope == SCOPE_JOINT else (source, target)
                spectra = []
                for seg in extract_segments(recording, config.epoch_length_ms, starts):
                    seg = seg.centered().select_channels(channels)
                    order = select_order(seg, config.p_scan_max).chosen_p \
                        if config.order_mode == ORDER_MODE_AUTO_AIC else config.fixed_order
                    spectra.append(compute_pdc(fit_var(seg, order)[0], grid).values)
                mean = np.mean(spectra, axis=0)[:, channels.index(target), channels.index(source)]
                for band, (low, high) in config.bands.items():
                    in_band = mean[(grid.freqs_hz >= low) & (grid.freqs_hz <= high)].mean()
                    got = summary.band_values[((source, target), band)][subject]
                    assert got == pytest.approx(in_band, rel=1e-12, abs=1e-12)


def test_scaling_one_channel_changes_pdc():
    # PDC normalizes each source's column over the targets in their own units,
    # so a gain on one channel is not a relation PDC keeps (gPDC would)
    config, cond_a, cond_b = FIXED_CASE
    report = run_pipeline(*FIXED_CASE)
    assert report.subjects_used == tuple(range(5))
    louder_ch2 = np.array([1.0, 10.0, 1.0])
    other = run_pipeline(config, *([(dataclasses.replace(rec, samples=rec.samples * louder_ch2),
                                     starts) for rec, starts in cohort]
                                   for cohort in (cond_a, cond_b)))
    key = (("ch1", "ch2"), "alpha")
    moved = np.subtract(other.condition_b.band_values[key], report.condition_b.band_values[key])
    assert np.all(moved > 0.05)


def test_run_pipeline_has_no_threads_keyword():
    # subjects are processed one after another; the ignored keyword is gone
    with pytest.raises(TypeError):
        run_pipeline(default_config(FS), [], [], threads=1)


def _montage_cohorts(n_subjects=2):
    labels = ("F3", "F4", "T5", "T6")
    coeffs = np.diag([0.3] * 4)[None]
    return [build_cohort(coeffs, NSAMP, range(first, first + n_subjects), STARTS,
                         channel_labels=labels) for first in (890_000, 890_100)]


# Protocols that cannot run, each known before any fitting: config changes
# (PipelineConfig fields and top-level JSON keys alike), epoch onsets (ms, as
# the markers file spells them), the condition-a subject whose recording is
# one epoch short, and what the error must name.
ONSETS = [f"{900 * k}" for k in range(EPOCHS)]
UNWORKABLE = {
    "empty-band": ({"bands": {"theta": [4.0, 7.5], "gamma": [35.0, 45.0]}}, ONSETS, None,
                   "band 'gamma'"),
    "onset-past-end": ({}, ONSETS, 1, "subject 1"),
    "nan-onset": ({}, ["0", "nan"], None, "epoch start (ms) must be a finite number, got"),
    "inf-onset": ({}, ["0", "inf"], None, "epoch start (ms) must be a finite number, got"),
    "no-onsets": ({}, [], None, "no subject has an epoch onset"),
    "20ms-epoch": ({"epoch_length_ms": 20.0, "fixed_order": 1}, ONSETS, None, "5 samples"),
    # 900 ms at 250 Hz is 225 rows; a joint model over 4 channels caps the order
    "scan-bound": ({"order_mode": "auto_aic", "p_scan_max": 20, "model_scope": "joint"},
                   ONSETS, None, "order bound 11"),
    "fixed-order-rows": ({"fixed_order": 60, "model_scope": "joint"}, ONSETS, None,
                         "N - p >= M*p + 1"),
}


@pytest.mark.parametrize("case", list(UNWORKABLE))
def test_unworkable_protocol_is_rejected_before_fitting(tmp_path, capsys, monkeypatch, case):
    changes, onsets, short, named = UNWORKABLE[case]
    fits = []

    def counted(fit):
        def wrapper(*args, **kwargs):
            fits.append(args)
            return fit(*args, **kwargs)
        return wrapper

    # the pipeline's own fits and the order scan's
    for module in (pdckit.pipeline, pdckit.var):
        monkeypatch.setattr(module, "fit_var", counted(module.fit_var))

    cohorts = _montage_cohorts()
    if short is not None:
        rec, _ = cohorts[0][short]
        cohorts[0][short] = (Recording(samples=rec.samples[:-225], sampling_rate_hz=FS,
                                       channel_labels=rec.channel_labels), None)
    starts = [float(text) for text in onsets]
    with pytest.raises(ValueError, match=re.escape(named)):
        config = PipelineConfig(sampling_rate_hz=FS, **changes)
        run_pipeline(config, *[[(rec, starts) for rec, _ in c] for c in cohorts])

    config_path, markers = tmp_path / "config.json", tmp_path / "markers.csv"
    config_path.write_text(json.dumps({"sampling_rate_hz": FS, **changes}))
    markers.write_text("".join(f"{text}\n" for text in onsets))
    paths = {}
    for cond, cohort in zip("ab", cohorts):
        paths[cond] = [str(tmp_path / f"{cond}{s}.csv") for s in range(len(cohort))]
        for (rec, _), path in zip(cohort, paths[cond]):
            write_recording_csv(rec, path)
    code = main(["pipeline", "--config", str(config_path), "--markers", str(markers),
                 "--condition-a", *paths["a"], "--condition-b", *paths["b"],
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("pdckit: argument-error:") and err.count("\n") == 1
    assert named in err
    assert fits == []


@pytest.mark.parametrize("scope", [SCOPE_PER_PAIR, SCOPE_JOINT])
def test_a_cohort_of_one_channel_is_rejected_before_fitting(tmp_path, capsys, monkeypatch,
                                                           scope):
    fits = []
    monkeypatch.setattr(pdckit.pipeline, "fit_var", lambda *args: fits.append(args))
    cohorts = [build_cohort([[[0.3]]], NSAMP, range(first, first + 2), STARTS,
                            channel_labels=("Cz",)) for first in (892_000, 892_100)]
    named = ("no channel pair can be formed: a cohort needs at least two channels, "
             "the recordings have ['Cz']")
    with pytest.raises(ValueError) as info:
        run_pipeline(PipelineConfig(sampling_rate_hz=FS, model_scope=scope), *cohorts)
    assert str(info.value) == named

    config_path, markers = tmp_path / "config.json", tmp_path / "markers.csv"
    config_path.write_text(json.dumps({"sampling_rate_hz": FS, "model_scope": scope}))
    markers.write_text("".join(f"{text}\n" for text in ONSETS))
    paths = {}
    for cond, cohort in zip("ab", cohorts):
        paths[cond] = [str(tmp_path / f"{cond}{s}.csv") for s in range(len(cohort))]
        for (rec, _), path in zip(cohort, paths[cond]):
            write_recording_csv(rec, path)
    assert main(["pipeline", "--config", str(config_path), "--markers", str(markers),
                 "--condition-a", *paths["a"], "--condition-b", *paths["b"],
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"pdckit: argument-error: {named}\n"
    assert fits == []


def test_config_reader_refuses_a_repeated_key_inside_a_group(tmp_path):
    path = tmp_path / "config.json"
    for group, key in (('"freq_grid": {"low_hz": 4.0, "low_hz": 6.0}', "low_hz"),
                       ('"bands": {"x": [4.0, 8.0], "x": [20.0, 30.0]}', "x")):
        path.write_text(f'{{"sampling_rate_hz": 250.0, {group}}}')
        with pytest.raises(ValueError) as info:
            read_config_json(path)
        assert str(info.value) == f'{path}: key "{key}" is repeated'


def test_pipeline_amplitude_rejection_counts_as_screened_out():
    cond_a, cond_b = _cohorts(n_subjects=4, base=884_000)
    spiked_rec, starts = cond_a[0]
    samples = spiked_rec.samples.copy()
    samples[10, 0] = 1e6  # one wild sample inside the first epoch
    cond_a[0] = (
        Recording(samples=samples, sampling_rate_hz=FS,
                  channel_labels=spiked_rec.channel_labels),
        starts,
    )
    cfg = dataclasses.replace(default_config(FS), amplitude_reject_threshold=100.0)
    base = run_pipeline(cfg, cond_a, cond_b)
    no_thresh = run_pipeline(default_config(FS), cond_a, cond_b)
    assert base.condition_a.screened_out >= no_thresh.condition_a.screened_out
    assert base.condition_a.screened_out >= 1


def test_pipeline_drops_subject_missing_in_one_condition():
    cond_a, cond_b = _cohorts(n_subjects=4, base=885_000)
    rec, starts = cond_a[1]
    # constant channel: every epoch fails the variance screen in condition a
    flat = Recording(
        samples=np.zeros_like(rec.samples),
        sampling_rate_hz=FS,
        channel_labels=rec.channel_labels,
    )
    cond_a[1] = (flat, starts)
    report = run_pipeline(default_config(FS), cond_a, cond_b)
    assert report.subjects_used == (0, 2, 3)
    for values in report.condition_b.band_values.values():
        assert len(values) == 3  # dropped from both conditions


def test_pipeline_fails_when_nothing_survives():
    cond_a, cond_b = _cohorts(n_subjects=2, base=886_000)
    flat = [
        (
            Recording(
                samples=np.zeros((NSAMP, 2)),
                sampling_rate_hz=FS,
                channel_labels=("ch1", "ch2"),
            ),
            STARTS,
        )
        for _ in range(2)
    ]
    with pytest.raises(PipelineError, match="attrition"):
        run_pipeline(default_config(FS), flat, cond_b)


def test_pipeline_validates_cohort_shape():
    cond_a, cond_b = _cohorts(n_subjects=3, base=887_000)
    with pytest.raises(ValueError):
        run_pipeline(default_config(FS), cond_a[:2], cond_b)
    with pytest.raises(ValueError):
        run_pipeline(default_config(FS), [], [])
    with pytest.raises(ValueError):
        run_pipeline(default_config(200.0), cond_a, cond_b)  # fs mismatch
    rec, starts = cond_a[1]
    reordered = dataclasses.replace(rec, samples=rec.samples[:, ::-1],
                                    channel_labels=("ch2", "ch1"))
    relabeled = [(dataclasses.replace(rec, channel_labels=("x1", "x2")), starts)
                 for rec, starts in cond_b]
    differ = ("do not match the first recording's ('ch1', 'ch2'); all recordings must list the "
              "same channels in the same order")
    for pairs, cohorts, message in (
            (None, ([cond_a[0], (reordered, starts)], cond_b[:2]),
             f"condition a, subject 1: channels ('ch2', 'ch1') {differ}"),
            (None, (cond_a, relabeled), f"condition b, subject 0: channels ('x1', 'x2') {differ}"),
            ((("ch1", "nope"),), (cond_a, cond_b),
             "configured channel 'nope' not in recording channels ['ch1', 'ch2']")):
        with pytest.raises(ValueError, match=re.escape(message)):
            run_pipeline(PipelineConfig(FS, channel_pairs=pairs), *cohorts)


# ------------------------------------------------------------------- outputs


def test_report_dict_is_json_safe_and_complete():
    cond_a, cond_b = _cohorts(n_subjects=4, base=888_000)
    report = run_pipeline(default_config(FS), cond_a, cond_b)
    payload = report_to_dict(report)
    json.dumps(payload)  # round-trippable, no NaN
    assert payload["config"]["epoch_length_ms"] == 900.0
    assert payload["config"]["channel_pairs"] == [["ch1", "ch2"], ["ch2", "ch1"]]
    assert len(payload["tests"]) == 8
    for row in payload["tests"]:
        assert set(row) == {"pair", "direction", "band", "n", "W",
                            "p_raw", "p_adjusted", "significant", "untestable"}
        if row["untestable"]:
            assert row["W"] is None
    attr = payload["conditions"]["a"]["attrition"]
    assert attr["segments_in"] == attr["screened_out"] + attr["failed_fit"] + attr["used"]


def test_write_report_files(tmp_path):
    cond_a, cond_b = _cohorts(n_subjects=4, base=889_000)
    report = run_pipeline(default_config(FS), cond_a, cond_b)
    paths = write_report(report, tmp_path / "out")
    with open(paths["report"]) as fh:
        payload = json.load(fh)
    assert payload["toolkit_version"]
    with open(paths["test_table"]) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0].split(",") == ["pair", "direction", "band", "n", "W",
                                   "p_raw", "p_adjusted", "significant"]
    assert len(lines) == 1 + 8


def test_a_report_that_cannot_be_written_leaves_no_file(tmp_path):
    report = run_pipeline(default_config(FS), *_cohorts(n_subjects=2, base=889_000))
    # standard JSON has no NaN, so the report's writer refuses it
    broken = dataclasses.replace(report, config_echo={**report.config_echo, "alpha": math.nan})
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_report(broken, out)
    assert list(out.iterdir()) == []


def _write_then_fail(tmp):
    with open(tmp, "w") as fh:
        fh.write("half a report")
    raise OSError("No space left on device")


_SUMMARY = {"n_subjects": 1, "segments_in": 3, "screened_out": 1, "failed_fit": 0, "used": 2,
            "unstable_models": 0, "degenerate_columns": 0, "band_values": {}}


@pytest.mark.parametrize("refuse, error, message", [
    (lambda out: ConditionSummary(**{**_SUMMARY, "used": 1}), ValueError,
     "attrition counts do not add up"),
    (lambda out: AnalysisReport(
        toolkit_version="0", config_echo={}, channel_pairs=(("a", "b"),), band_names=("alpha",),
        subjects_used=(0,), condition_a=ConditionSummary(**_SUMMARY),
        condition_b=ConditionSummary(**_SUMMARY), test_results={}, timestamp_utc=""),
     ValueError, "test table does not cover the (pair, band) family exactly once"),
    (lambda out: PipelineConfig(FS, channel_pairs=[]), ValueError,
     "channel_pairs must be non-empty when given"),
    # the temporary file the writer made is removed, and the target never appears
    (lambda out: _write_atomic(str(out / "report.json"), _write_then_fail), OSError,
     "No space left on device"),
], ids=["attrition", "family", "no-pairs", "write-atomic"])
def test_each_refusal_raises_its_message(tmp_path, refuse, error, message):
    with pytest.raises(error) as info:
        refuse(tmp_path)
    assert str(info.value) == message
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077], ids=["022", "027", "077"])
def test_report_files_get_the_mode_open_gives_a_new_file(tmp_path, umask):
    report = run_pipeline(default_config(FS), *_cohorts(n_subjects=2))
    out = tmp_path / "out"
    old = os.umask(umask)
    try:
        paths = write_report(report, out)
        write_test_table_csv(report.test_results, tmp_path / "plain.csv")  # through open()
    finally:
        os.umask(old)
    assert sorted(os.listdir(out)) == ["report.json", "test_table.csv"]  # no temporary left
    for path in (*paths.values(), tmp_path / "plain.csv"):
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o666 & ~umask


@pytest.mark.parametrize("pair", ["ab", "F3", 5, ("a",), ("a", "b", "c")],
                         ids=["str-of-two", "str", "int", "one-item", "three-items"])
def test_a_configured_pair_must_be_two_items_not_a_strings_letters(pair):
    with pytest.raises(ValueError, match=r"^channel_pairs holds .*, which is not a pair of two "
                       r"different labels, each a non-empty string without edge whitespace "
                       r"or '->'$"):
        PipelineConfig(FS, channel_pairs=[pair])
    assert PipelineConfig(FS, channel_pairs=[["F3", "F4"]]).channel_pairs == (("F3", "F4"),)


# items of a configured pair: labels, strings that break the label rule, and non-strings
PAIR_ITEMS = st.one_of(st.sampled_from(["F3", "F4", "a"]),
                       st.sampled_from(["", " F3", "F3 ", "\tF4", "a->b", "->", "a->", "->b"]),
                       st.text(st.sampled_from("ab ->\t"), max_size=5),
                       st.integers(-1, 2), st.none(), st.booleans())


@settings(max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pair=st.tuples(PAIR_ITEMS, PAIR_ITEMS))
def test_a_configured_pair_is_one_the_pair_format_reads_back(tmp_path, pair):
    try:
        reads_back = _pair_cell("t.csv:2", "pair", format_pair(pair)) == pair
    except ValueError:
        reads_back = False
    # the rule in words: two different labels, each a str without edge whitespace or '->'
    assert reads_back == (pair[0] != pair[1] and all(
        type(item) is str and item and item == item.strip() and "->" not in item
        for item in pair))
    try:
        accepted = PipelineConfig(FS, channel_pairs=[pair]).channel_pairs == (pair,)
    except ValueError as exc:
        assert str(exc) == (f"channel_pairs holds {pair!r}, which is not a pair of two "
                            "different labels, each a non-empty string without edge "
                            "whitespace or '->'")
        accepted = False
    assert accepted == reads_back
    path = fresh_path(tmp_path, "config.json")
    path.write_text(json.dumps({"sampling_rate_hz": FS, "channel_pairs": [list(pair)]}))
    try:
        accepted = read_config_json(path).channel_pairs == (pair,)
    except ValueError:
        accepted = False
    assert accepted == reads_back
