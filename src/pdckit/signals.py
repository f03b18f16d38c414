"""Multichannel time-series containers, epoch extraction, and stationarity screening.

A :class:`Recording` holds the full sample matrix (rows = time points,
columns = channels). Analysis epochs are cut out as
:class:`MultichannelSegment` windows, and each segment can be screened for
weak stationarity before any model is fitted to it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

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


def _as_sample_matrix(samples) -> np.ndarray:
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"samples must be a 2-D matrix, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples contain non-finite values")
    return arr


def _check_channels(arr: np.ndarray, channel_labels) -> tuple[str, ...]:
    labels = tuple(str(c) for c in channel_labels)
    if arr.shape[1] != len(labels):
        raise ValueError(
            f"sample matrix has {arr.shape[1]} columns but "
            f"{len(labels)} channel labels were given"
        )
    if len(set(labels)) != len(labels):
        raise ValueError("channel labels must be unique")
    return labels


@dataclass(frozen=True)
class Recording:
    """A continuous multichannel recording.

    Attributes
    ----------
    samples : np.ndarray
        Shape (n_samples, n_channels); all values finite.
    sampling_rate_hz : float
        Positive sampling rate.
    channel_labels : tuple of str
        One unique label per column.
    """

    samples: np.ndarray
    sampling_rate_hz: float
    channel_labels: tuple[str, ...]

    def __post_init__(self):
        arr = _as_sample_matrix(self.samples)
        labels = _check_channels(arr, self.channel_labels)
        if not self.sampling_rate_hz > 0:
            raise ValueError(f"sampling_rate_hz must be positive, got {self.sampling_rate_hz}")
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
class MultichannelSegment:
    """One fixed-length analysis epoch cut from a recording."""

    samples: np.ndarray
    sampling_rate_hz: float
    channel_labels: tuple[str, ...]
    source_offset: int = 0

    def __post_init__(self):
        arr = _as_sample_matrix(self.samples)
        labels = _check_channels(arr, self.channel_labels)
        if arr.shape[0] < 2:
            raise ValueError(f"segment needs at least 2 rows, got {arr.shape[0]}")
        if not self.sampling_rate_hz > 0:
            raise ValueError(f"sampling_rate_hz must be positive, got {self.sampling_rate_hz}")
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "sampling_rate_hz", float(self.sampling_rate_hz))
        object.__setattr__(self, "channel_labels", labels)
        object.__setattr__(self, "source_offset", int(self.source_offset))

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def n_channels(self) -> int:
        return self.samples.shape[1]

    def select_channels(self, labels) -> "MultichannelSegment":
        """Return a segment restricted to the given labels, in the given order."""
        idx = []
        for lab in labels:
            if lab not in self.channel_labels:
                raise ValueError(f"channel {lab!r} not present in segment")
            idx.append(self.channel_labels.index(lab))
        return MultichannelSegment(
            samples=self.samples[:, idx],
            sampling_rate_hz=self.sampling_rate_hz,
            channel_labels=tuple(labels),
            source_offset=self.source_offset,
        )

    def centered(self) -> "MultichannelSegment":
        """Return the segment with each channel's mean subtracted."""
        return MultichannelSegment(
            samples=self.samples - self.samples.mean(axis=0),
            sampling_rate_hz=self.sampling_rate_hz,
            channel_labels=self.channel_labels,
            source_offset=self.source_offset,
        )


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
        If the length is non-positive or too short, or an epoch does not lie
        fully inside the recording.
    """
    if not epoch_length_ms > 0:
        raise ValueError(f"epoch_length_ms must be positive, got {epoch_length_ms}")
    fs = recording.sampling_rate_hz
    n_rows = round(epoch_length_ms * fs / 1000.0)
    if n_rows < 2:
        raise ValueError(
            f"epoch of {epoch_length_ms} ms at {fs} Hz yields {n_rows} samples; need at least 2"
        )
    segments = []
    for start_ms in epoch_starts_ms:
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
    if n_windows < 2:
        raise ValueError(f"n_windows must be at least 2, got {n_windows}")
    n = segment.n_samples
    win_len = n // n_windows
    if win_len < 2:
        raise ValueError(
            f"segment of {n} samples is too short for {n_windows} windows of >= 2 samples"
        )
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


def read_recording_csv(path, sampling_rate_hz: float) -> Recording:
    """Load a recording from CSV: header row of channel labels, one time point per row."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            labels = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty recording file") from None
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(labels):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(labels)} values, got {len(row)}"
                )
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric sample value") from None
    if not rows:
        raise ValueError(f"{path}: recording has a header but no samples")
    return Recording(
        samples=np.array(rows, dtype=float),
        sampling_rate_hz=sampling_rate_hz,
        channel_labels=tuple(lab.strip() for lab in labels),
    )


def write_recording_csv(recording: Recording, path) -> None:
    """Write a recording as `read_recording_csv` reads it; edge whitespace in a label raises."""
    for label in recording.channel_labels:
        if label != label.strip():
            raise ValueError(f"channel label {label!r} has edge whitespace the reader would strip")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(recording.channel_labels)
        for row in recording.samples:
            writer.writerow([repr(float(v)) for v in row])


def read_markers_csv(path) -> list[float]:
    """Load epoch starts (ms) from a CSV with one start per line."""
    starts = []
    with open(path, newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip().rstrip(",")
            if not text:
                continue
            try:
                starts.append(float(text))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected one epoch start (ms), got {text!r}") from None
    return starts
