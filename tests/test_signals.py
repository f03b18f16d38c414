import csv
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
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


@pytest.mark.parametrize("container", [Recording, MultichannelSegment])
@pytest.mark.parametrize("rate", [math.inf, -math.inf, math.nan])
def test_containers_reject_a_sampling_rate_that_is_not_finite(container, rate):
    with pytest.raises(ValueError, match="sampling_rate_hz must be a finite positive number"):
        container(samples=np.zeros((10, 2)), sampling_rate_hz=rate, channel_labels=("a", "b"))


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


@pytest.mark.parametrize("length", [math.inf, math.nan])
def test_extract_rejects_an_epoch_length_that_is_not_finite(length):
    rec = _recording(np.zeros((100, 1)))
    with pytest.raises(ValueError, match=f"epoch_length_ms must be a finite positive "
                                         f"number, got {length}"):
        extract_segments(rec, length, [0.0])


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


@pytest.mark.parametrize("labels", [(" F3", "F4 "), ("F3", "F3 "), ("F3", "")])
def test_recording_csv_writer_refuses_padded_labels(tmp_path, labels):
    # the reader strips header labels and rejects an empty one: the first
    # pair would read back as ('F3', 'F4'), the second as a duplicate
    rec = _recording(np.zeros((3, 2)), labels=labels)
    path = tmp_path / "rec.csv"
    padded = next(lab for lab in labels if not lab or lab != lab.strip())
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


@pytest.mark.parametrize("header, column", [("F3,,T5", 2), ("F3, ,T5", 2), (",F3", 1)])
def test_recording_csv_rejects_an_empty_header_label(tmp_path, header, column):
    path = tmp_path / "rec.csv"
    path.write_text(f"{header}\n1,2,3\n")
    with pytest.raises(ValueError) as info:
        read_recording_csv(path, sampling_rate_hz=100.0)
    assert str(info.value) == f"{path}:1: column {column} has an empty channel label"


def test_recording_csv_names_a_repeated_header_label(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text("F3,T5, F3\n1,2,3\n")
    with pytest.raises(ValueError) as info:
        read_recording_csv(path, sampling_rate_hz=100.0)
    assert str(info.value) == f"{path}:1: column 3 repeats channel label 'F3'"


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400", "-Infinity"])
def test_recording_csv_names_the_line_of_a_non_finite_sample(tmp_path, cell):
    path = tmp_path / "rec.csv"
    path.write_text(f"a,b\n1,2\n\n3,{cell}\n4,5\n")
    with pytest.raises(ValueError) as info:
        read_recording_csv(path, sampling_rate_hz=100.0)
    assert str(info.value) == f"{path}:4: non-finite sample value"


def test_recording_csv_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_bytes(b"a,b\r\n1,2\r3,4\n5,\xff\n")
    with pytest.raises(ValueError) as info:
        read_recording_csv(path, sampling_rate_hz=100.0)
    assert str(info.value) == f"{path}:4: not UTF-8 text (invalid start byte)"


@pytest.mark.parametrize("text, line", [
    ('"a\nb",c\n1,2\n3,x\n', 4),
    ('"a\nb",c\n1,2\n"3\n",4\n5,y\n', 6),
])
def test_recording_csv_names_the_physical_line_after_a_quoted_line_break(
        tmp_path, text, line):
    # a quoted cell may hold a line break (the writer quotes such a label), so
    # records and lines part ways; the message names the record's last line
    path = tmp_path / "rec.csv"
    path.write_text(text, newline="")
    with pytest.raises(ValueError) as info:
        read_recording_csv(path, sampling_rate_hz=100.0)
    assert str(info.value) == f"{path}:{line}: non-numeric sample value"


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
    message naming the record's last physical line."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        labels = next(reader)
        rows = []
        for row in reader:
            if not row:
                continue
            lineno = reader.line_num
            if len(row) != len(labels):
                return f"{path}:{lineno}: expected {len(labels)} values, got {len(row)}"
            try:
                values = [float(v) for v in row]
            except ValueError:
                return f"{path}:{lineno}: non-numeric sample value"
            if not all(map(math.isfinite, values)):
                return f"{path}:{lineno}: non-finite sample value"
            rows.append(values)
    if not rows:
        return f"{path}: recording has a header but no samples"
    return np.array(rows, dtype=float)


# cells the per-line reader and numpy may parse differently, or not at all
ODD_CELLS = st.sampled_from([
    "1_0", "inf", "-inf", "nan", "1e400", "-1e400", "1e-400", "-0", "+1", "\u0661",
    "Infinity", "0x1p3", "1e", "abc", "", " ", '1"', '"1"2', '""', ' "1"', "0\x1c",
    "\x1f1", "1\x85",
])


@st.composite
def _cells(draw, odd):
    number = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                       st.integers(-10**20, 10**20).map(str))
    text = draw(st.one_of(number, ODD_CELLS) if odd else number)
    pads = st.sampled_from(["", "", "", " ", "\t", "\xa0"])
    text = draw(pads) + text + draw(pads)
    if draw(st.booleans()):
        text = '"' + text.replace('"', '""') + '"' + draw(pads)
    return text


@st.composite
def _recording_files(draw):
    """Recording CSV text: 1-3 columns, 0-6 lines that may be ragged, blank or odd,
    and \\n, \\r\\n or \\r line endings mixed within one file."""
    width = draw(st.integers(1, 3))
    odd = draw(st.integers(0, 2)) == 0
    ragged = draw(st.integers(0, 2)) == 0
    lines = [",".join("abc"[:width])]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "", " ", "\t"])))
            continue
        n = draw(st.integers(1, width + 1)) if ragged else width
        lines.append(",".join(draw(_cells(odd)) for _ in range(n)))
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    return "".join(line + draw(ends) for line in lines[:-1]) + lines[-1] + draw(
        st.sampled_from(["", "\n", "\r\n", "\r"]))


@settings(max_examples=400, deadline=None,
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
def test_recording_csv_reader_agrees_with_the_per_line_reader(tmp_path, text):
    # a new file per example: truncating an existing one is slow on some file systems
    path = tmp_path / f"rec{len(list(tmp_path.iterdir()))}.csv"
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


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN"])
def test_markers_csv_rejects_non_finite_starts(tmp_path, text):
    path = tmp_path / "markers.csv"
    path.write_text(f"0\n900\n{text}\n")
    with pytest.raises(ValueError, match=f"markers.csv:3: .*{text!r}"):
        read_markers_csv(path)


@pytest.mark.parametrize("start", [float("nan"), float("inf"), -float("inf")])
def test_extract_rejects_non_finite_starts(start):
    rec = _recording(np.zeros((1000, 2)))
    with pytest.raises(ValueError, match="not a finite number"):
        extract_segments(rec, 900.0, [0.0, start])
