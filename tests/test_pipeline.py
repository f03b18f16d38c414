import dataclasses
import json
import math
import re

import numpy as np
import pytest

import pdckit.pipeline
import pdckit.var
from pdckit import (
    GeneratorSpec,
    MultichannelSegment,
    PipelineError,
    Recording,
    compute_pdc,
    default_config,
    fit_var,
    generate,
    read_config_json,
    run_pipeline,
    report_to_dict,
    write_config_json,
    write_recording_csv,
    write_report,
)
from pdckit.cli import main
from pdckit.pipeline import (
    ORDER_MODE_AUTO_AIC,
    SCOPE_JOINT,
    SCOPE_PER_PAIR,
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


@pytest.mark.parametrize("field", ["sampling_rate_hz", "epoch_length_ms"])
def test_config_rejects_an_infinite_rate_or_epoch_length(field):
    values = {"sampling_rate_hz": FS, field: math.inf}
    with pytest.raises(ValueError, match=f"{field} must be a finite positive number, got inf"):
        PipelineConfig(**values)


def test_config_rejects_a_nan_grid_step():
    with pytest.raises(ValueError, match="step_hz must be a finite positive number, got nan"):
        PipelineConfig(sampling_rate_hz=FS, freq_step_hz=math.nan)


@pytest.mark.parametrize("field", ["stationarity_mean_drift_tol",
                                   "stationarity_variance_ratio_tol"])
def test_config_rejects_a_nan_screening_tolerance(field):
    # no score passes a NaN tolerance, so every epoch would be screened out
    with pytest.raises(ValueError, match="stationarity tolerances must be positive"):
        PipelineConfig(sampling_rate_hz=FS, **{field: math.nan})


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


def test_run_pipeline_has_no_threads_keyword():
    # subjects are processed one after another; the ignored keyword is gone
    with pytest.raises(TypeError):
        run_pipeline(default_config(FS), [], [], threads=1)


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


# Protocols that cannot run, each known before any fitting: config changes
# (PipelineConfig fields and top-level JSON keys alike), epoch onsets (ms, as
# the markers file spells them), the condition-a subject whose recording is
# one epoch short, and what the error must name.
ONSETS = [f"{900 * k}" for k in range(EPOCHS)]
UNWORKABLE = {
    "empty-band": ({"bands": {"theta": [4.0, 7.5], "gamma": [35.0, 45.0]}}, ONSETS, None,
                   "band 'gamma'"),
    "onset-past-end": ({}, ONSETS, 1, "subject 1"),
    "nan-onset": ({}, ["0", "nan"], None, "nan"),
    "inf-onset": ({}, ["0", "inf"], None, "inf"),
    "no-onsets": ({}, [], None, "no subject has an epoch onset"),
    "20ms-epoch": ({"epoch_length_ms": 20.0, "fixed_order": 1}, ONSETS, None, "5 samples"),
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
    cohorts = [[_subject([[[0.3]]], 892_000 + 100 * c + s, m=1, labels=("Cz",))
                for s in range(2)] for c in (0, 1)]
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
    path.write_text('{"sampling_rate_hz": 250.0, "freq_grid": {"low_hz": 4.0, "low_hz": 6.0}}')
    with pytest.raises(ValueError) as info:
        read_config_json(path)
    assert str(info.value) == f'{path}: key "low_hz" is repeated'


def test_pipeline_explicit_pair_subset():
    cfg = dataclasses.replace(default_config(FS), channel_pairs=(("ch1", "ch2"),))
    cond_a, cond_b = _cohorts(n_subjects=4, base=883_000)
    report = run_pipeline(cfg, cond_a, cond_b)
    assert report.channel_pairs == (("ch1", "ch2"),)
    assert len(report.test_results) == 4  # one pair, four bands
    with pytest.raises(ValueError):
        bad = dataclasses.replace(default_config(FS), channel_pairs=(("ch1", "nope"),))
        run_pipeline(bad, cond_a, cond_b)


@pytest.mark.parametrize("scope", [SCOPE_PER_PAIR, SCOPE_JOINT])
def test_pipeline_band_values_equal_a_direct_per_pair_computation(scope):
    # recording order T6, F3, F4: the pair T6/F3 sorts against it, and
    # F3->T6 is T6->F3 reversed
    labels = ("T6", "F3", "F4")
    pairs = (("T6", "F3"), ("F3", "T6"), ("F4", "F3"))
    coeffs = np.diag([0.3, 0.3, 0.3])[None]
    coeffs[0, 0, 1] = 0.4  # F3 drives T6
    cohorts = [[_subject(coeffs, 893_000 + 100 * c + s, m=3, labels=labels) for s in range(2)]
               for c in (0, 1)]
    # loose screen tolerances keep every epoch, so the means run over all of them
    cfg = dataclasses.replace(default_config(FS), channel_pairs=pairs, model_scope=scope,
                              stationarity_mean_drift_tol=100.0,
                              stationarity_variance_ratio_tol=100.0)
    report = run_pipeline(cfg, *cohorts)
    assert report.channel_pairs == pairs
    assert report.subjects_used == (0, 1)
    grid = cfg.frequency_grid()
    epoch = NSAMP // EPOCHS
    for cohort, summary in zip(cohorts, (report.condition_a, report.condition_b)):
        assert summary.used == summary.segments_in == 2 * EPOCHS
        for subject, (recording, _) in enumerate(cohort):
            for source, target in pairs:
                # one model over the pair in the pair's own order, or over all channels
                channels = labels if scope == SCOPE_JOINT else (source, target)
                i, j = channels.index(target), channels.index(source)
                spectra = []
                for k in range(EPOCHS):
                    seg = MultichannelSegment(recording.samples[k * epoch:(k + 1) * epoch],
                                              FS, labels).centered().select_channels(channels)
                    model, _ = fit_var(seg, cfg.fixed_order)
                    spectra.append(compute_pdc(model, grid).values)
                mean = np.mean(spectra, axis=0)
                for band, (low, high) in cfg.bands.items():
                    in_band = mean[(grid.freqs_hz >= low) & (grid.freqs_hz <= high)].mean(axis=0)
                    got = summary.band_values[((source, target), band)][subject]
                    assert got == pytest.approx(in_band[i, j], rel=1e-12, abs=1e-12)
                    # the entry is told apart from its transpose
                    assert got != pytest.approx(in_band[j, i], rel=1e-6)


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
    with open(paths["report"]) as fh:
        payload = json.load(fh)
    assert payload["toolkit_version"]
    with open(paths["test_table"]) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0].split(",") == ["pair", "direction", "band", "n", "W",
                                   "p_raw", "p_adjusted", "significant"]
    assert len(lines) == 1 + 8
