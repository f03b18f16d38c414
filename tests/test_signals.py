import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from pdckit import (
    BandAverages,
    FrequencyGrid,
    GeneratorSpec,
    PdcSpectrum,
    Recording,
    VarModel,
    extract_segments,
    read_recording_csv,
    screen_stationarity,
)
from pdckit.signals import read_markers_csv

from conftest import build_recording, csv_records, csv_texts, fresh_path

# the label rule, as every message that refuses a channel label words it
LABEL_RULE = "a non-empty string without edge whitespace or '->'"


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


@pytest.mark.parametrize("shape", [(0, 2), (10, 0), (0, 0)])
def test_recording_refuses_a_matrix_without_rows_or_channels(shape):
    message = f"samples must have at least one row and one channel, got shape {shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        Recording(np.zeros(shape), 250.0, ("a", "b")[: shape[1]])
    # no channel subset can be empty either
    with pytest.raises(ValueError, match=re.escape(f"got shape {(10, 0)}")):
        build_recording(np.zeros((10, 2))).select_channels(())


def test_segment_rejects_one_dimensional_input():
    with pytest.raises(ValueError):
        Recording(
            samples=np.zeros(8), sampling_rate_hz=100.0, channel_labels=("a",)
        )


def test_select_channels_reorders_columns():
    seg = Recording(
        samples=np.arange(12.0).reshape(4, 3),
        sampling_rate_hz=100.0,
        channel_labels=("a", "b", "c"),
    )
    sub = seg.select_channels(("c", "a"))
    assert sub.channel_labels == ("c", "a")
    assert_array_equal(sub.samples, seg.samples[:, [2, 0]])
    # the labels are read once, so a generator works as well as a tuple
    sub = seg.select_channels(lab for lab in ["b", "a"])
    assert sub.channel_labels == ("b", "a")
    assert_array_equal(sub.samples, seg.samples[:, [1, 0]])
    with pytest.raises(ValueError):
        seg.select_channels(("a", "nope"))


def test_select_channels_refuses_a_repeated_label():
    seg = build_recording(np.zeros((10, 2)), channel_labels=("F3", "F4"))
    with pytest.raises(ValueError) as info:
        seg.select_channels(("F3", "F3"))
    assert str(info.value) == "column 2 repeats channel label 'F3'"


# ---------------------------------------------------------------- extraction


def test_extract_contiguous_900ms_epochs():
    # 10 s at 250 Hz, 900 ms epochs: 225 rows each, offsets step by 225
    rec = build_recording(np.random.default_rng(0).normal(size=(2500, 2)))
    starts = [900.0 * k for k in range(10)]
    segs = extract_segments(rec, 900.0, starts)
    assert len(segs) == 10
    for k, seg in enumerate(segs):
        assert seg.n_samples == 225
        assert seg.channel_labels == rec.channel_labels
        assert seg.sampling_rate_hz == rec.sampling_rate_hz
        assert_array_equal(seg.samples, rec.samples[225 * k : 225 * (k + 1)])


def test_extract_rounds_fractional_sample_starts():
    rec = build_recording(np.arange(100.0)[:, None])
    # 1 ms at 250 Hz is 0.25 samples; nearest-sample alignment
    (seg,) = extract_segments(rec, 100.0, [1.0])
    assert seg.samples[0, 0] == 0.0
    (seg,) = extract_segments(rec, 100.0, [3.0])
    assert seg.samples[0, 0] == 1.0


def test_extract_rejects_epochs_outside_recording():
    rec = build_recording(np.zeros((100, 1)))
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


def test_screen_scores_match_hand_computation():
    # two windows of three samples, one channel
    seg = build_recording([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], 100.0)
    rep = screen_stationarity(seg, n_windows=2, mean_drift_tol=10.0, variance_ratio_tol=10.0)
    assert rep.per_window_means == ((1.0,), (4.0,))
    assert rep.per_window_variances == ((1.0,), (1.0,))
    assert_allclose(rep.mean_drift_score, 3.0)  # spread 3 over pooled std 1
    assert_allclose(rep.variance_ratio_score, 1.0)
    assert rep.passed
    assert not screen_stationarity(seg, n_windows=2).passed  # default drift tol 0.5


def test_screen_drops_tail_remainder():
    # 7 samples, 3 windows: only the first 6 are used
    seg = build_recording([1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 99.0], 100.0)
    rep = screen_stationarity(seg, n_windows=3)
    assert rep.per_window_means == ((1.5,), (1.5,), (1.5,))
    assert rep.passed


def test_screen_flags_mean_step():
    rng = np.random.default_rng(7)
    base = rng.normal(size=(225, 1))
    stepped = base + np.where(np.arange(225) >= 150, 5.0, 0.0)[:, None]
    assert screen_stationarity(build_recording(base, 100.0)).passed
    assert not screen_stationarity(build_recording(stepped, 100.0)).passed


def test_screen_flags_variance_blowup():
    rng = np.random.default_rng(8)
    scale = np.where(np.arange(225) >= 150, 4.0, 1.0)[:, None]
    seg = build_recording(rng.normal(size=(225, 1)) * scale, 100.0)
    rep = screen_stationarity(seg)
    assert not rep.passed
    assert rep.variance_ratio_score > rep.variance_ratio_tol


def test_screen_constant_segment_fails_on_variance():
    rep = screen_stationarity(build_recording(np.ones(30), 100.0))
    assert not rep.passed
    assert rep.variance_ratio_score == np.inf
    assert rep.mean_drift_score == 0.0


def test_screen_validates_window_count():
    seg = build_recording(np.arange(30.0), 100.0)
    with pytest.raises(ValueError):
        screen_stationarity(seg, n_windows=1)
    with pytest.raises(ValueError):
        screen_stationarity(build_recording(np.arange(4.0), 100.0), n_windows=3)


def _screen_reference(samples, n_windows):
    """The screen's windows, means, variances and scores, with the arithmetic of
    np.mean and np.var(ddof=1) written out: sums over counts, and the squared
    deviations from those means. The screen calls numpy itself, so a reference
    through numpy would check nothing; an attrition count is compared exactly,
    and one ulp in a window statistic could flip a borderline epoch."""
    win = samples.shape[0] // n_windows
    windows = samples[: win * n_windows].reshape(n_windows, win, samples.shape[1])
    means = np.add.reduce(windows, axis=1) / win
    deviations = windows - means[:, None, :]
    variances = np.add.reduce(deviations * deviations, axis=1) / (win - 1)
    spread = means.max(axis=0) - means.min(axis=0)
    pooled_std = np.sqrt(variances.mean(axis=0))
    with np.errstate(divide="ignore", invalid="ignore"):
        drift = np.where(pooled_std > 0, spread / pooled_std, np.where(spread > 0, np.inf, 0.0))
        ratio = np.where(variances.min(axis=0) > 0,
                         variances.max(axis=0) / variances.min(axis=0), np.inf)
    return means, variances, float(drift.max()), float(ratio.max())


@settings(max_examples=80)
@given(n=st.integers(4, 300), m=st.integers(1, 4), n_windows=st.integers(2, 6),
       seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-6, 1.0, 1e6]),
       constant=st.booleans())
def test_screen_means_and_variances_equal_numpy_mean_and_var(n, m, n_windows, seed, scale,
                                                             constant):
    n = max(n, 2 * n_windows)
    x = np.random.default_rng(seed).normal(loc=3.0, scale=scale, size=(n, m))
    if constant:  # a zero-variance channel takes the screen's infinite-ratio branch
        x[:, 0] = 2.0
    rec = build_recording(x)
    means, variances, drift, ratio = _screen_reference(x, n_windows)
    rep = screen_stationarity(rec, n_windows=n_windows)
    # tuples of np.float64 compare bit for bit, -0.0 == 0.0 aside
    assert rep.per_window_means == tuple(map(tuple, means))
    assert rep.per_window_variances == tuple(map(tuple, variances))
    assert all(type(v) is np.float64 for row in rep.per_window_means for v in row)
    assert (rep.mean_drift_score, rep.variance_ratio_score) == (drift, ratio)
    # centring subtracts np.mean's arithmetic too: the sum over the count
    assert rec.centered().samples.tobytes() == (x - np.add.reduce(x, axis=0) / n).tobytes()


def test_screen_passes_white_noise_at_default_tolerances():
    # 225-sample epochs, defaults 3 windows / 0.5 / 2.0: pass rate well above 0.95
    passed = 0
    for seed in range(1000):
        rng = np.random.default_rng(90_000 + seed)
        passed += screen_stationarity(build_recording(rng.normal(size=(225, 2)), 100.0)).passed
    assert passed >= 950


# ----------------------------------------------------------------------- io


# each container built with one channel per label
_CONTAINERS = {
    "Recording": lambda labels: Recording(
        samples=np.zeros((3, len(labels))), sampling_rate_hz=250.0, channel_labels=labels),
    "VarModel": lambda labels: VarModel(
        order_p=1, coeff_matrices=np.zeros((1, len(labels), len(labels))),
        residual_covariance=np.eye(len(labels)), n_samples_used=10, channel_labels=labels),
    "PdcSpectrum": lambda labels: PdcSpectrum(
        values=np.full((1, len(labels), len(labels)), 0.5),
        grid=FrequencyGrid(freqs_hz=np.array([4.0]), sampling_rate_hz=250.0),
        channel_labels=labels),
    "BandAverages": lambda labels: BandAverages(
        bands={"alpha": np.full((len(labels), len(labels)), 0.5)},
        band_edges_hz={"alpha": (8.0, 12.0)}, channel_labels=labels),
    "GeneratorSpec": lambda labels: GeneratorSpec(
        coeff_matrices=np.zeros((1, len(labels), len(labels))),
        innovation_covariance=np.eye(len(labels)), n_samples=10, seed=0,
        sampling_rate_hz=250.0, channel_labels=labels),
}


@pytest.mark.parametrize("container", list(_CONTAINERS))
@pytest.mark.parametrize("labels, message", [
    (("", "b"), f"column 1 has channel label '', which is not {LABEL_RULE}"),
    ((" a", "b"), f"column 1 has channel label ' a', which is not {LABEL_RULE}"),
    (("a ", "b"), f"column 1 has channel label 'a ', which is not {LABEL_RULE}"),
    (("a", "a"), "column 2 repeats channel label 'a'"),
    (("a", 1), f"column 2 has channel label 1, which is not {LABEL_RULE}"),
    ((["a"], "b"), f"column 1 has channel label ['a'], which is not {LABEL_RULE}"),  # unhashable
    (("a->b", "c"), f"column 1 has channel label 'a->b', which is not {LABEL_RULE}"),
    (("a", "b->c"), f"column 2 has channel label 'b->c', which is not {LABEL_RULE}"),
    ("ab", "channel labels must be a sequence of labels, got 'ab'"),  # not split into letters
    # a repeat found last, after 63 labels that each follow the rule
    ((*(f"ch{i}" for i in range(1, 64)), "ch1"), "column 64 repeats channel label 'ch1'"),
])
def test_containers_follow_the_channel_label_rule(container, labels, message):
    build = _CONTAINERS[container]
    assert build(("a", "b")).channel_labels == ("a", "b")
    with pytest.raises(ValueError) as info:
        build(labels)
    assert str(info.value) == message


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


@pytest.mark.parametrize("text, line, cell", [
    ('"a\nb",c\n1,2\n3,x\n', 4, "x"),
    ('"a\nb",c\n1,2\n"3\n",4\n5,y\n', 6, "y"),
])
def test_recording_csv_names_the_physical_line_after_a_quoted_line_break(
        tmp_path, text, line, cell):
    # a quoted cell may hold a line break (the writer quotes such a label), so
    # records and lines part ways; the message names the record's last line
    path = tmp_path / "rec.csv"
    path.write_text(text, newline="")
    with pytest.raises(ValueError) as info:
        read_recording_csv(path, sampling_rate_hz=100.0)
    assert str(info.value) == f"{path}:{line}: c must be a finite number, got {cell!r}"


@pytest.mark.parametrize("body", ["", "\n\r\n", "\r"])
def test_recording_csv_header_only_file_raises_without_a_warning(tmp_path, body):
    path = tmp_path / "rec.csv"
    path.write_text(f"a,b\n{body}", newline="")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError) as info:
            read_recording_csv(path, sampling_rate_hz=100.0)
    assert str(info.value) == f"{path}: recording has a header but no samples"
    assert caught == []


def _read_by_line_reference(path):
    """The per-record reader the one-call parse must agree with: the samples, or the
    message naming the record's last physical line and the first bad cell's column."""
    records = csv_records(path)
    labels = [label.strip() for label in next(records)[1]]
    rows = []
    try:
        for lineno, row in records:
            values = []
            for label, cell in zip(labels, row):
                try:
                    values.append(float(cell))
                except ValueError:
                    values.append(math.nan)
                if not math.isfinite(values[-1]):
                    return f"{path}:{lineno}: {label} must be a finite number, got {cell!r}"
            rows.append(values)
    except ValueError as exc:  # a record not as wide as the header
        return str(exc)
    if not rows:
        return f"{path}: recording has a header but no samples"
    return np.array(rows, dtype=float)


# cells the per-line reader and numpy may parse differently, or not at all
ODD_CELLS = st.sampled_from([
    "1_0", "inf", "-inf", "nan", "1e400", "-1e400", "1e-400", "-0", "+1", "\u0661",
    "Infinity", "0x1p3", "1e", "abc", "", " ", '1"', '"1"2', '""', ' "1"', "0\x1c",
    "1\x1d", "\x1e2", "\x1f1", "1\x85",
])


NUMBER_CELLS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                         st.integers(-10**20, 10**20).map(str))
PADS = st.sampled_from(["", "", "", " ", "\t", "\xa0"])
# a number, or a number or odd cell, between two pads; built once, since building
# a strategy per drawn cell took most of the property's time
CELLS = {odd: st.tuples(PADS, st.one_of(NUMBER_CELLS, ODD_CELLS) if odd else NUMBER_CELLS,
                        PADS).map("".join) for odd in (False, True)}


@st.composite
def _recording_files(draw):
    """Recording CSV text of 1-3 columns and 0-6 rows, odd cells in one file of
    three, with every quirk of `csv_texts`, a BOM and pads after quotes among them."""
    width = draw(st.integers(1, 3))
    cells = CELLS[draw(st.integers(0, 2)) == 0]
    rows = [[draw(cells) for _ in range(width)] for _ in range(draw(st.integers(0, 6)))]
    return draw(csv_texts("abc"[:width], rows, bom=True, pads=PADS))


@settings(max_examples=400,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_recording_files())
@example(text="a,b\n1_0,2\n")
@example(text="a\n\u0661\n")
@example(text="a,b\r\n1,inf\r3,4\n")
@example(text="a,b\n1,nan\n")
@example(text="a,b\n1e400,2\n")
@example(text="a,b\n-0,0\n")
@example(text='a,b\n"1" , "2"\n\n\t\n3,4')
@example(text="a,b\n1,\n")
@example(text="a,b\n1,2,3\n")
@example(text="a,b\n1,2\n  \n")
@example(text="a,b\n\r\n\n")
@example(text="a,b")
@example(text="a\n1\n\n2\r3")
@example(text="a\n0\x1c\n")
@example(text='"a\nb",c\n1,2\n3,x\n')
@example(text='"a\nb",c\n1,2\n"3\n",4\n5,y\n')
@example(text="\ufeffa,b\n1,x\n")
def test_recording_csv_reader_agrees_with_the_per_line_reader(tmp_path, text):
    path = fresh_path(tmp_path, "rec.csv")
    path.write_bytes(text.encode("utf-8"))
    expected = _read_by_line_reference(path)
    try:
        got = read_recording_csv(path, sampling_rate_hz=100.0).samples
    except ValueError as exc:
        got = str(exc)
    if isinstance(expected, str):
        assert got == expected
    else:
        # bit for bit, so -0.0 and 0.0 differ
        assert isinstance(got, np.ndarray) and got.dtype == expected.dtype
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def test_markers_csv_reads_one_start_per_line(tmp_path):
    path = tmp_path / "markers.csv"
    path.write_text("0\n900\n\n1800.5\n")
    assert read_markers_csv(path) == [0.0, 900.0, 1800.5]
    path.write_text("0\nabc\n")
    with pytest.raises(ValueError):
        read_markers_csv(path)
