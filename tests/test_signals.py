import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from pdckit import (
    MultichannelSegment,
    Recording,
    extract_segments,
    read_recording_csv,
    screen_stationarity,
    write_recording_csv,
)
from pdckit.signals import read_markers_csv


def _recording(samples, fs=250.0, labels=None):
    samples = np.asarray(samples, dtype=float)
    if labels is None:
        labels = tuple(f"ch{i + 1}" for i in range(samples.shape[1]))
    return Recording(samples=samples, sampling_rate_hz=fs, channel_labels=labels)


# ---------------------------------------------------------------- containers


def test_recording_rejects_bad_inputs():
    good = np.zeros((10, 2))
    with pytest.raises(ValueError):
        Recording(samples=good, sampling_rate_hz=0.0, channel_labels=("a", "b"))
    with pytest.raises(ValueError):
        Recording(samples=good, sampling_rate_hz=250.0, channel_labels=("a",))
    with pytest.raises(ValueError):
        Recording(samples=good, sampling_rate_hz=250.0, channel_labels=("a", "a"))
    bad = good.copy()
    bad[3, 1] = np.nan
    with pytest.raises(ValueError):
        Recording(samples=bad, sampling_rate_hz=250.0, channel_labels=("a", "b"))


def test_segment_rejects_one_dimensional_input():
    with pytest.raises(ValueError):
        MultichannelSegment(
            samples=np.zeros(8), sampling_rate_hz=100.0, channel_labels=("a",)
        )


def test_select_channels_reorders_columns():
    seg = MultichannelSegment(
        samples=np.arange(12.0).reshape(4, 3),
        sampling_rate_hz=100.0,
        channel_labels=("a", "b", "c"),
        source_offset=7,
    )
    sub = seg.select_channels(("c", "a"))
    assert sub.channel_labels == ("c", "a")
    assert sub.source_offset == 7
    assert_array_equal(sub.samples, seg.samples[:, [2, 0]])
    with pytest.raises(ValueError):
        seg.select_channels(("a", "nope"))


# ---------------------------------------------------------------- extraction


def test_extract_contiguous_900ms_epochs():
    # 10 s at 250 Hz, 900 ms epochs: 225 rows each, offsets step by 225
    rec = _recording(np.random.default_rng(0).normal(size=(2500, 2)))
    starts = [900.0 * k for k in range(10)]
    segs = extract_segments(rec, 900.0, starts)
    assert len(segs) == 10
    for k, seg in enumerate(segs):
        assert seg.n_samples == 225
        assert seg.source_offset == 225 * k
        assert seg.channel_labels == rec.channel_labels
        assert seg.sampling_rate_hz == rec.sampling_rate_hz
        assert_array_equal(seg.samples, rec.samples[225 * k : 225 * (k + 1)])


def test_extract_rounds_fractional_sample_starts():
    rec = _recording(np.zeros((100, 1)))
    # 1 ms at 250 Hz is 0.25 samples; nearest-sample alignment
    (seg,) = extract_segments(rec, 100.0, [1.0])
    assert seg.source_offset == 0
    (seg,) = extract_segments(rec, 100.0, [3.0])
    assert seg.source_offset == 1


def test_extract_rejects_epochs_outside_recording():
    rec = _recording(np.zeros((100, 1)))
    with pytest.raises(ValueError):
        extract_segments(rec, 100.0, [-4.0])
    with pytest.raises(ValueError):
        extract_segments(rec, 100.0, [304.0])  # sample 76 + 25 rows > 100
    with pytest.raises(ValueError):
        extract_segments(rec, 0.0, [0.0])
    with pytest.raises(ValueError):
        extract_segments(rec, 4.0, [0.0])  # 1 sample per epoch is too short
    assert extract_segments(rec, 100.0, []) == []


# ----------------------------------------------------------------- screening


def _segment(values):
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    return MultichannelSegment(
        samples=arr,
        sampling_rate_hz=100.0,
        channel_labels=tuple(f"ch{i + 1}" for i in range(arr.shape[1])),
    )


def test_screen_scores_match_hand_computation():
    # two windows of three samples, one channel
    seg = _segment([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    rep = screen_stationarity(seg, n_windows=2, mean_drift_tol=10.0, variance_ratio_tol=10.0)
    assert rep.per_window_means == ((1.0,), (4.0,))
    assert rep.per_window_variances == ((1.0,), (1.0,))
    assert_allclose(rep.mean_drift_score, 3.0)  # spread 3 over pooled std 1
    assert_allclose(rep.variance_ratio_score, 1.0)
    assert rep.passed
    assert not screen_stationarity(seg, n_windows=2).passed  # default drift tol 0.5


def test_screen_drops_tail_remainder():
    # 7 samples, 3 windows: only the first 6 are used
    seg = _segment([1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 99.0])
    rep = screen_stationarity(seg, n_windows=3)
    assert rep.per_window_means == ((1.5,), (1.5,), (1.5,))
    assert rep.passed


def test_screen_flags_mean_step():
    rng = np.random.default_rng(7)
    base = rng.normal(size=(225, 1))
    stepped = base + np.where(np.arange(225) >= 150, 5.0, 0.0)[:, None]
    assert screen_stationarity(_segment(base)).passed
    assert not screen_stationarity(_segment(stepped)).passed


def test_screen_flags_variance_blowup():
    rng = np.random.default_rng(8)
    scale = np.where(np.arange(225) >= 150, 4.0, 1.0)[:, None]
    seg = _segment(rng.normal(size=(225, 1)) * scale)
    rep = screen_stationarity(seg)
    assert not rep.passed
    assert rep.variance_ratio_score > rep.variance_ratio_tol


def test_screen_constant_segment_fails_on_variance():
    rep = screen_stationarity(_segment(np.ones(30)))
    assert not rep.passed
    assert rep.variance_ratio_score == np.inf
    assert rep.mean_drift_score == 0.0


def test_screen_validates_window_count():
    seg = _segment(np.arange(30.0))
    with pytest.raises(ValueError):
        screen_stationarity(seg, n_windows=1)
    with pytest.raises(ValueError):
        screen_stationarity(_segment(np.arange(4.0)), n_windows=3)


def test_screen_passes_white_noise_at_default_tolerances():
    # 225-sample epochs, defaults 3 windows / 0.5 / 2.0: pass rate well above 0.95
    passed = 0
    for seed in range(1000):
        rng = np.random.default_rng(90_000 + seed)
        passed += screen_stationarity(_segment(rng.normal(size=(225, 2)))).passed
    assert passed >= 950


# ----------------------------------------------------------------------- io


def test_recording_csv_round_trip(tmp_path):
    rec = _recording(np.random.default_rng(3).normal(size=(40, 3)), fs=128.0)
    path = tmp_path / "rec.csv"
    write_recording_csv(rec, path)
    back = read_recording_csv(path, sampling_rate_hz=128.0)
    assert back.channel_labels == rec.channel_labels
    assert_array_equal(back.samples, rec.samples)


@pytest.mark.parametrize("labels", [(" F3", "F4 "), ("F3", "F3 ")])
def test_recording_csv_writer_refuses_padded_labels(tmp_path, labels):
    # the reader strips header labels: the first pair would read back as
    # ('F3', 'F4'), the second as a duplicate
    rec = _recording(np.zeros((3, 2)), labels=labels)
    path = tmp_path / "rec.csv"
    padded = next(lab for lab in labels if lab != lab.strip())
    with pytest.raises(ValueError, match=repr(padded)):
        write_recording_csv(rec, path)
    assert not path.exists()


def test_recording_csv_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1.0\n")
    with pytest.raises(ValueError):
        read_recording_csv(path, sampling_rate_hz=100.0)
    path.write_text("a,b\n1.0,x\n")
    with pytest.raises(ValueError):
        read_recording_csv(path, sampling_rate_hz=100.0)
    path.write_text("")
    with pytest.raises(ValueError):
        read_recording_csv(path, sampling_rate_hz=100.0)


def test_markers_csv_reads_one_start_per_line(tmp_path):
    path = tmp_path / "markers.csv"
    path.write_text("0\n900\n\n1800.5\n")
    assert read_markers_csv(path) == [0.0, 900.0, 1800.5]
    path.write_text("0\nabc\n")
    with pytest.raises(ValueError):
        read_markers_csv(path)
