import dataclasses
import json
import re

import numpy as np
import pytest

from pdckit import (
    GeneratorSpec,
    PipelineError,
    Recording,
    default_config,
    generate,
    read_config_json,
    run_pipeline,
    report_to_dict,
    write_config_json,
    write_report,
)
from pdckit.pipeline import (
    ORDER_MODE_AUTO_AIC,
    SCOPE_JOINT,
    PipelineConfig,
)

FS = 250.0
EPOCHS = 6
STARTS = [900.0 * k for k in range(EPOCHS)]
NSAMP = 225 * EPOCHS

COUPLED = np.array([[[0.3, 0.0], [0.4, 0.3]]])
INDEPENDENT = np.array([[[0.3, 0.0], [0.0, 0.3]]])


def _subject(coeffs, seed, m=2, labels=None):
    spec = GeneratorSpec(
        coeff_matrices=np.asarray(coeffs, dtype=float),
        innovation_covariance=np.eye(m),
        n_samples=NSAMP,
        seed=seed,
        sampling_rate_hz=FS,
        channel_labels=labels,
    )
    return (generate(spec), STARTS)


def _cohorts(n_subjects=6, base=880_000):
    cond_a = [_subject(INDEPENDENT, base + s) for s in range(n_subjects)]
    cond_b = [_subject(COUPLED, base + 500 + s) for s in range(n_subjects)]
    return cond_a, cond_b


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
    with pytest.raises(ValueError):
        PipelineConfig(sampling_rate_hz=FS, order_mode="guess")
    with pytest.raises(ValueError):
        PipelineConfig(sampling_rate_hz=FS, alpha=1.0)
    with pytest.raises(ValueError):
        PipelineConfig(sampling_rate_hz=FS, model_scope="global")
    with pytest.raises(ValueError):
        PipelineConfig(sampling_rate_hz=FS, stationarity_n_windows=1)


def test_config_json_round_trip(tmp_path):
    cfg = dataclasses.replace(
        default_config(FS),
        channel_pairs=(("F3", "T5"), ("T5", "F3")),
        order_mode=ORDER_MODE_AUTO_AIC,
        p_scan_max=12,
        amplitude_reject_threshold=150.0,
        mean_center=False,
    )
    path = tmp_path / "config.json"
    write_config_json(cfg, path)
    back = read_config_json(path)
    assert back == cfg


def test_config_json_defaults_and_unknown_keys(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"sampling_rate_hz": 250.0}))
    cfg = read_config_json(path)
    assert cfg == default_config(250.0)

    path.write_text(json.dumps({"sampling_rate_hz": 250.0, "epoch_ms": 900}))
    with pytest.raises(ValueError, match="epoch_ms"):
        read_config_json(path)

    path.write_text(json.dumps({"epoch_length_ms": 900}))
    with pytest.raises(ValueError):
        read_config_json(path)


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
])
def test_config_json_is_validated_by_the_schema(tmp_path, extra, where):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"sampling_rate_hz": 250.0, **extra}))
    with pytest.raises(ValueError, match=re.escape(where)):
        read_config_json(path)


def test_config_json_missing_nested_keys_take_defaults(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"sampling_rate_hz": 250.0,
                                "freq_grid": {"low_hz": 8.0},
                                "stationarity": {"n_windows": 4}}))
    cfg = read_config_json(path)
    assert cfg == dataclasses.replace(default_config(250.0), freq_low_hz=8.0,
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


def test_pipeline_threads_do_not_change_results():
    cond_a, cond_b = _cohorts(n_subjects=4, base=881_000)
    serial = run_pipeline(default_config(FS), cond_a, cond_b, threads=1)
    with pytest.warns(DeprecationWarning):
        threaded = run_pipeline(default_config(FS), cond_a, cond_b, threads=3)
    assert serial.test_results == threaded.test_results
    assert serial.condition_a.band_values == threaded.condition_a.band_values


def test_pipeline_auto_order_and_joint_scope():
    cfg = dataclasses.replace(
        default_config(FS),
        order_mode=ORDER_MODE_AUTO_AIC,
        p_scan_max=6,
        model_scope=SCOPE_JOINT,
    )
    cond_a, cond_b = _cohorts(n_subjects=4, base=882_000)
    report = run_pipeline(cfg, cond_a, cond_b)
    assert report.config_echo["order_mode"] == "auto_aic"
    assert report.config_echo["model_scope"] == "joint"
    assert set(report.test_results)  # completes and covers the family


def _montage_cohorts(n_subjects=2):
    labels = ("F3", "F4", "T5", "T6")
    coeffs = np.diag([0.3] * 4)[None]
    return [[_subject(coeffs, 890_000 + 100 * c + s, m=4, labels=labels)
             for s in range(n_subjects)] for c in (0, 1)]


@pytest.mark.parametrize("changes, bound", [
    ({"order_mode": ORDER_MODE_AUTO_AIC, "p_scan_max": 20}, "order bound 11"),
    ({"fixed_order": 60}, "N - p >= M*p + 1"),
])
def test_pipeline_rejects_infeasible_protocol_before_fitting(changes, bound):
    # 900 ms at 250 Hz is 225 rows; a joint model over 4 channels caps the order
    cfg = dataclasses.replace(default_config(FS), model_scope=SCOPE_JOINT, **changes)
    cond_a, cond_b = _montage_cohorts()
    with pytest.raises(ValueError, match=re.escape(bound)):
        run_pipeline(cfg, cond_a, cond_b)


def test_pipeline_explicit_pair_subset():
    cfg = dataclasses.replace(default_config(FS), channel_pairs=(("ch1", "ch2"),))
    cond_a, cond_b = _cohorts(n_subjects=4, base=883_000)
    report = run_pipeline(cfg, cond_a, cond_b)
    assert report.channel_pairs == (("ch1", "ch2"),)
    assert len(report.test_results) == 4  # one pair, four bands
    with pytest.raises(ValueError):
        bad = dataclasses.replace(default_config(FS), channel_pairs=(("ch1", "nope"),))
        run_pipeline(bad, cond_a, cond_b)


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
    relabeled = [
        (
            Recording(samples=rec.samples, sampling_rate_hz=FS,
                      channel_labels=("x1", "x2")),
            starts,
        )
        for rec, starts in cond_b
    ]
    with pytest.raises(ValueError):
        run_pipeline(default_config(FS), cond_a, relabeled)


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
    payload = json.loads(open(paths["report"]).read())
    assert payload["toolkit_version"]
    with open(paths["test_table"]) as fh:
        header = fh.readline().strip().split(",")
    assert header == ["pair", "direction", "band", "n", "W",
                      "p_raw", "p_adjusted", "significant"]
    lines = open(paths["test_table"]).read().strip().splitlines()
    assert len(lines) == 1 + 8
