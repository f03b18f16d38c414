"""Multichannel time-series containers, epoch extraction, and stationarity screening.

A :class:`Recording` holds the full sample matrix (rows = time points,
columns = channels). Analysis epochs are cut out as
:class:`MultichannelSegment` windows, and each segment can be screened for
weak stationarity before any model is fitted to it.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from ._io import _check_positive, _decode_utf8, _read_text, _write_csv

__all__ = [
    "Recording",
    "MultichannelSegment",
    "StationarityReport",
    "extract_segments",
    "screen_stationarity",
    "read_recording_csv",
    "write_recording_csv",
    "read_markers_csv",
]


@dataclass(frozen=True)
class Recording:
    """A continuous multichannel recording.

    Attributes
    ----------
    samples : np.ndarray
        Shape (n_samples, n_channels); all values finite.
    sampling_rate_hz : float
        Finite positive sampling rate.
    channel_labels : tuple of str
        One unique label per column.
    """

    samples: np.ndarray
    sampling_rate_hz: float
    channel_labels: tuple[str, ...]

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"samples must be a 2-D matrix, got ndim={arr.ndim}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples contain non-finite values")
        labels = tuple(str(c) for c in self.channel_labels)
        if arr.shape[1] != len(labels):
            raise ValueError(
                f"sample matrix has {arr.shape[1]} columns but "
                f"{len(labels)} channel labels were given"
            )
        if len(set(labels)) != len(labels):
            raise ValueError("channel labels must be unique")
        _check_positive("sampling_rate_hz", self.sampling_rate_hz)
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "sampling_rate_hz", float(self.sampling_rate_hz))
        object.__setattr__(self, "channel_labels", labels)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def n_channels(self) -> int:
        return self.samples.shape[1]

    @property
    def duration_ms(self) -> float:
        return self.n_samples / self.sampling_rate_hz * 1000.0


@dataclass(frozen=True)
class MultichannelSegment(Recording):
    """One analysis epoch cut from a recording, at least 2 rows long, starting
    at row ``source_offset`` of its recording."""

    source_offset: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.n_samples < 2:
            raise ValueError(f"segment needs at least 2 rows, got {self.n_samples}")
        object.__setattr__(self, "source_offset", int(self.source_offset))

    def select_channels(self, labels) -> "MultichannelSegment":
        """Return a segment restricted to the given labels, in the given order."""
        idx = []
        for lab in labels:
            if lab not in self.channel_labels:
                raise ValueError(f"channel {lab!r} not present in segment")
            idx.append(self.channel_labels.index(lab))
        return replace(self, samples=self.samples[:, idx], channel_labels=tuple(labels))

    def centered(self) -> "MultichannelSegment":
        """Return the segment with each channel's mean subtracted."""
        return replace(self, samples=self.samples - self.samples.mean(axis=0))


@dataclass(frozen=True)
class StationarityReport:
    """Outcome of the windowed mean-drift / variance-ratio screen.

    ``passed`` is true iff ``mean_drift_score <= mean_drift_tol`` and
    ``variance_ratio_score <= variance_ratio_tol``.
    """

    passed: bool
    per_window_means: tuple
    per_window_variances: tuple
    mean_drift_score: float
    variance_ratio_score: float
    mean_drift_tol: float = field(default=math.nan)
    variance_ratio_tol: float = field(default=math.nan)


def extract_segments(recording: Recording, epoch_length_ms: float, epoch_starts_ms) -> list[MultichannelSegment]:
    """Cut fixed-length epochs out of a recording.

    Parameters
    ----------
    recording : Recording
    epoch_length_ms : float
        Epoch length in milliseconds; must yield at least 2 samples.
    epoch_starts_ms : sequence of float
        Epoch onsets in milliseconds from the start of the recording.

    Returns
    -------
    list of MultichannelSegment
        One segment per requested start, each with
        ``round(epoch_length_ms * sampling_rate_hz / 1000)`` rows and the
        recording's labels and sampling rate.

    Raises
    ------
    ValueError
        If the length is not finite and positive or is too short, or an onset is not
        finite or its epoch does not lie fully inside the recording.
    """
    _check_positive("epoch_length_ms", epoch_length_ms)
    fs = recording.sampling_rate_hz
    n_rows = round(epoch_length_ms * fs / 1000.0)
    if n_rows < 2:
        raise ValueError(
            f"epoch of {epoch_length_ms} ms at {fs} Hz yields {n_rows} samples; need at least 2"
        )
    segments = []
    for start_ms in epoch_starts_ms:
        if not math.isfinite(start_ms):
            raise ValueError(f"epoch start {start_ms} ms is not a finite number")
        start = round(float(start_ms) * fs / 1000.0)
        if start < 0 or start + n_rows > recording.n_samples:
            raise ValueError(
                f"epoch starting at {start_ms} ms (sample {start}) does not fit in a "
                f"{recording.n_samples}-sample recording"
            )
        segments.append(
            MultichannelSegment(
                samples=recording.samples[start : start + n_rows],
                sampling_rate_hz=fs,
                channel_labels=recording.channel_labels,
                source_offset=start,
            )
        )
    return segments


def _window_length(n_samples: int, n_windows: int) -> int:
    """Samples per screening window; the screen needs >= 2 windows of >= 2 samples."""
    if n_windows < 2:
        raise ValueError(f"n_windows must be at least 2, got {n_windows}")
    if n_samples // n_windows < 2:
        raise ValueError(f"segment of {n_samples} samples is too short for {n_windows} "
                         "windows of >= 2 samples")
    return n_samples // n_windows


def screen_stationarity(
    segment: MultichannelSegment,
    n_windows: int = 3,
    mean_drift_tol: float = 0.5,
    variance_ratio_tol: float = 2.0,
) -> StationarityReport:
    """Screen a segment for weak stationarity.

    The segment is split into ``n_windows`` contiguous equal-length windows
    (remainder samples dropped from the tail). Two scores are computed per
    channel and maximized over channels:

    * mean drift: (max window mean - min window mean) / pooled std
    * variance ratio: max window variance / min window variance

    A zero-variance window forces the variance ratio to ``inf`` and the
    screen fails.

    Parameters
    ----------
    segment : MultichannelSegment
    n_windows : int
        Number of windows, at least 2.
    mean_drift_tol, variance_ratio_tol : float
        Pass thresholds for the two scores.

    Returns
    -------
    StationarityReport
    """
    win_len = _window_length(segment.n_samples, n_windows)
    # drop the remainder from the tail so every window has equal length
    used = segment.samples[: win_len * n_windows]
    windows = used.reshape(n_windows, win_len, segment.n_channels)

    means = windows.mean(axis=1)              # (n_windows, M)
    variances = windows.var(axis=1, ddof=1)   # (n_windows, M)

    spread = means.max(axis=0) - means.min(axis=0)
    pooled_std = np.sqrt(variances.mean(axis=0))
    with np.errstate(divide="ignore", invalid="ignore"):
        drift = np.where(pooled_std > 0, spread / pooled_std,
                         np.where(spread > 0, np.inf, 0.0))

    var_min = variances.min(axis=0)
    var_max = variances.max(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(var_min > 0, var_max / var_min, np.inf)

    mean_drift_score = float(drift.max())
    variance_ratio_score = float(ratio.max())
    passed = bool(
        mean_drift_score <= mean_drift_tol and variance_ratio_score <= variance_ratio_tol
    )
    return StationarityReport(
        passed=passed,
        per_window_means=tuple(tuple(row) for row in means),
        per_window_variances=tuple(tuple(row) for row in variances),
        mean_drift_score=mean_drift_score,
        variance_ratio_score=variance_ratio_score,
        mean_drift_tol=float(mean_drift_tol),
        variance_ratio_tol=float(variance_ratio_tol),
    )


def _read_header(path, reader) -> tuple[str, ...]:
    """Channel labels from the first CSV record: stripped, non-empty and unique."""
    try:
        row = next(reader)
    except StopIteration:
        raise ValueError(f"{path}: empty recording file") from None
    except csv.Error as exc:
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    labels = tuple(lab.strip() for lab in row)
    for column, label in enumerate(labels, start=1):
        if not label:
            raise ValueError(f"{path}:{reader.line_num}: column {column} has an empty "
                             "channel label")
        if label in labels[: column - 1]:
            raise ValueError(f"{path}:{reader.line_num}: column {column} repeats channel "
                             f"label {label!r}")
    return labels


# ASCII separators that numpy strips from the edges of a cell and float() does not
_KEPT_BY_FLOAT = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _read_in_one_call(path, data: bytes):
    """Labels and samples, the body parsed in one `np.loadtxt` call; None where
    the row loop must decide.

    Apart from `_KEPT_BY_FLOAT`, `loadtxt` accepts a subset of what the loop
    accepts (no `1_0`, no non-ASCII digits) with the same float conversion, so
    a finite matrix of the header's width is what the loop would have built.
    """
    if any(sep in data for sep in _KEPT_BY_FLOAT):
        return None
    try:
        with (io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="") as body,
              warnings.catch_warnings()):
            warnings.simplefilter("error")  # a body without rows only warns
            labels = _read_header(path, csv.reader(body))
            samples = np.loadtxt(body, delimiter=",", ndmin=2, comments=None, quotechar='"')
    except (ValueError, UserWarning):  # the loop names it, or reads past it
        return None
    if samples.shape[1] == len(labels) and np.isfinite(samples).all():
        return labels, samples
    return None


def _read_by_row(path, data: bytes):
    """Labels and samples one CSV record at a time; the owner of every message, which
    names the record's last physical line."""
    reader = csv.reader(io.StringIO(_decode_utf8(path, data), newline=""))
    labels = _read_header(path, reader)
    rows = []
    try:
        for row in reader:
            if not row:
                continue
            where = f"{path}:{reader.line_num}"
            if len(row) != len(labels):
                raise ValueError(f"{where}: expected {len(labels)} values, got {len(row)}")
            try:
                values = [float(v) for v in row]
            except ValueError:
                raise ValueError(f"{where}: non-numeric sample value") from None
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{where}: non-finite sample value")
            rows.append(values)
    except csv.Error as exc:
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: recording has a header but no samples")
    return labels, np.array(rows, dtype=float)


def read_recording_csv(path, sampling_rate_hz: float) -> Recording:
    """Load a recording from UTF-8 CSV: header row of channel labels, one time point per row.

    Every error names the file, and its line where there is one.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    labels, samples = _read_in_one_call(path, data) or _read_by_row(path, data)
    return Recording(samples=samples, sampling_rate_hz=sampling_rate_hz, channel_labels=labels)


def write_recording_csv(recording: Recording, path) -> None:
    """Write a recording as `read_recording_csv` reads it; a label it would not give back raises."""
    for label in recording.channel_labels:
        if not label or label != label.strip():
            raise ValueError(f"channel label {label!r} is empty or has edge whitespace "
                             "the reader would strip")
    _write_csv(path, recording.channel_labels, recording.samples.tolist())


def read_markers_csv(path) -> list[float]:
    """Load epoch starts (ms) from a UTF-8 CSV with one start per line."""
    starts = []
    for lineno, line in enumerate(io.StringIO(_read_text(path), newline=""), start=1):
        text = line.strip().rstrip(",")
        if not text:
            continue
        try:
            start = float(text)
        except ValueError:
            start = math.nan
        if not math.isfinite(start):
            raise ValueError(f"{path}:{lineno}: expected one finite epoch start (ms), got {text!r}")
        starts.append(start)
    return starts
