"""Multichannel time-series containers, epoch extraction, and stationarity screening.

A :class:`Recording` holds a sample matrix (rows = time points,
columns = channels). An analysis epoch is a :class:`Recording` too, cut out of
a longer one, and each epoch can be screened for weak stationarity before any
model is fitted to it.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._io import (_check_count, _check_positive, _csv_records, _is_finite_real, _labels,
                  _number_cell, _read_text, _unchecked, _write_csv)

__all__ = [
    "Recording",
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
        Shape (n_samples, n_channels), at least one of each; all values finite.
    sampling_rate_hz : float
        Finite positive sampling rate.
    channel_labels : tuple of str
        One label per column: non-empty, without edge whitespace, unique.
    """

    samples: np.ndarray
    sampling_rate_hz: float
    channel_labels: tuple[str, ...]

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"samples must be a 2-D matrix, got ndim={arr.ndim}")
        if not (arr.shape[0] and arr.shape[1]):
            raise ValueError("samples must have at least one row and one channel, "
                             f"got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("samples contain non-finite values")
        labels = _labels(self.channel_labels)
        if arr.shape[1] != len(labels):
            raise ValueError(
                f"sample matrix has {arr.shape[1]} columns but "
                f"{len(labels)} channel labels were given"
            )
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

    def select_channels(self, labels) -> "Recording":
        """Return a recording restricted to the given labels, in the given order."""
        labels = tuple(labels)
        idx = []
        for lab in labels:
            if lab not in self.channel_labels:
                raise ValueError(f"channel {lab!r} not present in segment")
            idx.append(self.channel_labels.index(lab))
        fields = {**vars(self), "samples": self.samples[:, idx], "channel_labels": labels}
        if labels and len(set(labels)) == len(labels):  # present labels are checked ones
            return _unchecked(Recording, fields)
        return Recording(**fields)  # which refuses no label or a repeated one

    def centered(self) -> "Recording":
        """Return the recording with each channel's mean subtracted; refused if not finite."""
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, without a warning
            samples = self.samples - self.samples.mean(axis=0)
        return Recording(samples, self.sampling_rate_hz, self.channel_labels)


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
    mean_drift_tol: float
    variance_ratio_tol: float


def extract_segments(recording: Recording, epoch_length_ms: float, epoch_starts_ms) -> list[Recording]:
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
    list of Recording
        One epoch per requested start, each with
        ``round(epoch_length_ms * sampling_rate_hz / 1000)`` rows and the
        recording's labels and sampling rate.

    Raises
    ------
    ValueError
        If the length is not finite and positive or is too short, or an onset is not
        finite or its epoch does not lie fully inside the recording, or the length or
        an onset is more samples than a float can hold.
    """
    _check_positive("epoch_length_ms", epoch_length_ms)
    fs = recording.sampling_rate_hz
    n_rows = _samples("epoch length", epoch_length_ms, fs)
    if n_rows < 2:
        raise ValueError(
            f"epoch of {epoch_length_ms} ms at {fs} Hz yields {n_rows} samples; need at least 2"
        )
    segments = []
    for start_ms in epoch_starts_ms:
        if not _is_finite_real(start_ms):
            raise ValueError(f"epoch start (ms) must be a finite number, got {start_ms}")
        start = _samples("epoch start", start_ms, fs)
        if start < 0 or start + n_rows > recording.n_samples:
            raise ValueError(
                f"epoch starting at {start_ms} ms (sample {start}) does not fit in a "
                f"{recording.n_samples}-sample recording"
            )
        segments.append(_unchecked(Recording, {  # rows of a checked recording, at least 2
            **vars(recording), "samples": recording.samples[start : start + n_rows]}))
    return segments


def _samples(what: str, ms, fs: float) -> int:
    """The whole number of samples nearest ``ms`` milliseconds at ``fs`` Hz, for a
    finite ``ms``; refused, naming ``what``, where that number is past float range."""
    samples = float(ms) * fs / 1000.0
    if not math.isfinite(samples):
        raise ValueError(f"{what} {ms} ms at {fs} Hz has a sample count past float range")
    return round(samples)


def _window_length(n_samples: int, n_windows: int) -> int:
    """Samples per screening window; the screen needs >= 2 windows of >= 2 samples."""
    _check_count("n_windows", n_windows, 2)
    if n_samples // n_windows < 2:
        raise ValueError(f"segment of {n_samples} samples is too short for {n_windows} "
                         "windows of >= 2 samples")
    return n_samples // n_windows


# the screen of the reference protocol, which `PipelineConfig`'s stationarity_*
# fields default to as well
_SCREEN_N_WINDOWS = 3
_SCREEN_MEAN_DRIFT_TOL = 0.5
_SCREEN_VARIANCE_RATIO_TOL = 2.0


def screen_stationarity(
    segment: Recording,
    n_windows: int = _SCREEN_N_WINDOWS,
    mean_drift_tol: float = _SCREEN_MEAN_DRIFT_TOL,
    variance_ratio_tol: float = _SCREEN_VARIANCE_RATIO_TOL,
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
    segment : Recording
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

    # a statistic past float range is inf or NaN, and the screen fails on it
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        means = windows.mean(axis=1)                 # (n_windows, M)
        variances = windows.var(axis=1, ddof=1)      # (n_windows, M)
        spread = np.maximum.reduce(means) - np.minimum.reduce(means)
        pooled_std = np.sqrt(np.add.reduce(variances) / n_windows)
        var_min = np.minimum.reduce(variances)
        var_max = np.maximum.reduce(variances)
        drift = np.where(pooled_std > 0, spread / pooled_std,
                         np.where(spread > 0, np.inf, 0.0))
        ratio = np.where(var_min > 0, var_max / var_min, np.inf)

    mean_drift_score = float(np.maximum.reduce(drift))
    variance_ratio_score = float(np.maximum.reduce(ratio))
    passed = bool(
        mean_drift_score <= mean_drift_tol and variance_ratio_score <= variance_ratio_tol
    )
    return StationarityReport(
        passed=passed,
        per_window_means=tuple(map(tuple, means)),
        per_window_variances=tuple(map(tuple, variances)),
        mean_drift_score=mean_drift_score,
        variance_ratio_score=variance_ratio_score,
        mean_drift_tol=float(mean_drift_tol),
        variance_ratio_tol=float(variance_ratio_tol),
    )


def _read_header(path, records) -> tuple[str, ...]:
    """Channel labels from the first CSV record: stripped, non-empty and unique."""
    where, row = next(records, (path, None))
    if row is None:
        raise ValueError(f"{path}: empty recording file")
    try:
        return _labels(lab.strip() for lab in row)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


# ASCII separators that numpy strips from the edges of a cell and float() does not
_KEPT_BY_FLOAT = ("\x1c", "\x1d", "\x1e", "\x1f")


def _read_in_one_call(path, text: str):
    """Labels and samples of a recording file's decoded text, the body parsed in one
    `np.loadtxt` call; None where the row loop must decide.

    Apart from `_KEPT_BY_FLOAT`, `loadtxt` accepts a subset of what the loop
    accepts (no `1_0`, no non-ASCII digits) with the same float conversion, so
    a finite matrix of the header's width is what the loop would have built.
    """
    if any(sep in text for sep in _KEPT_BY_FLOAT):
        return None
    body = io.StringIO(text, newline="")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a body without rows only warns
            labels = _read_header(path, _csv_records(path, body))
            samples = np.loadtxt(body, delimiter=",", ndmin=2, comments=None, quotechar='"')
    except (ValueError, UserWarning):  # the loop names it, or reads past it
        return None
    if samples.shape[1] == len(labels) and np.isfinite(samples).all():
        return labels, samples
    return None


def _read_by_row(path, text: str):
    """Labels and samples of a recording file's decoded text, one CSV record at a time;
    the owner of every message, which names the record's last physical line."""
    records = _csv_records(path, io.StringIO(text, newline=""))
    labels = _read_header(path, records)
    rows = []
    for where, row in records:
        rows.append([_number_cell(where, label, cell) for label, cell in zip(labels, row)])
    if not rows:
        raise ValueError(f"{path}: recording has a header but no samples")
    return labels, np.array(rows, dtype=float)


def read_recording_csv(path, sampling_rate_hz: float) -> Recording:
    """Load a recording from UTF-8 CSV: header row of channel labels, one time point per row.

    Every error names the file, and its line where there is one.
    """
    text = _read_text(path)
    labels, samples = _read_in_one_call(path, text) or _read_by_row(path, text)
    return Recording(samples=samples, sampling_rate_hz=sampling_rate_hz, channel_labels=labels)


def write_recording_csv(recording: Recording, path) -> None:
    """Write a recording as `read_recording_csv` reads it."""
    _write_csv(path, recording.channel_labels, recording.samples.tolist())


def read_markers_csv(path) -> list[float]:
    """Load epoch starts (ms) from a UTF-8 CSV with one start per line."""
    starts = []
    for lineno, line in enumerate(io.StringIO(_read_text(path), newline=""), start=1):
        text = line.strip().rstrip(",")
        if text:
            starts.append(_number_cell(f"{path}:{lineno}", "epoch start (ms)", text))
    return starts
