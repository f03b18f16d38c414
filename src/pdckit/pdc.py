"""Frequency-domain coefficient transform and partial directed coherence.

The lag matrices of a fitted VAR model are transformed to a complex matrix
over frequency; its column-normalized magnitudes give the partial directed
coherence ``P[i, j]``, the directed influence of channel j on channel i at a
given frequency (Baccala & Sameshima, 2001). The transform here keeps the
off-diagonal lag sums with a positive sign; PDC magnitudes are identical to
the subtractive convention either way.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._io import _check_positive, _csv_rows, _is_label, _labels, _write_csv, _write_json
from .var import VarModel

__all__ = [
    "FrequencyGrid",
    "PdcSpectrum",
    "BandAverages",
    "DEFAULT_BANDS",
    "evaluate_transfer",
    "compute_pdc",
    "average_over_segments",
    "band_average",
    "write_spectrum_csv",
    "read_spectrum_csv",
    "write_band_averages_json",
]

# Rhythm bands (Hz), inclusive edges.
DEFAULT_BANDS: dict[str, tuple[float, float]] = {
    "theta": (4.0, 7.5),
    "alpha": (8.0, 12.5),
    "beta1": (13.0, 20.5),
    "beta2": (21.0, 30.0),
}

_DEGENERATE_COLUMN_NORM = 1e-12
# the columns of a spectrum CSV, one row per frequency and source -> target pair
_SPECTRUM_COLUMNS = ("freq_hz", "source", "target", "pdc")


def _check_range(low_hz: float, high_hz: float, sampling_rate_hz: float) -> None:
    """The range rule of a grid: a finite positive rate and 0 <= low <= high <= Nyquist."""
    _check_positive("sampling_rate_hz", sampling_rate_hz)
    nyquist = sampling_rate_hz / 2.0
    if not 0 <= low_hz <= high_hz <= nyquist:
        raise ValueError(f"frequencies must lie in [0, {nyquist}] Hz, got [{low_hz}, {high_hz}]")


@dataclass(frozen=True)
class FrequencyGrid:
    """A strictly increasing set of physical frequencies below Nyquist."""

    freqs_hz: np.ndarray
    sampling_rate_hz: float

    def __post_init__(self):
        freqs = np.asarray(self.freqs_hz, dtype=float)
        if freqs.ndim != 1 or freqs.size == 0:
            raise ValueError("freqs_hz must be a non-empty 1-D array")
        if np.any(np.diff(freqs) <= 0):
            raise ValueError("freqs_hz must be strictly increasing")
        _check_range(freqs[0], freqs[-1], self.sampling_rate_hz)
        object.__setattr__(self, "freqs_hz", freqs)
        object.__setattr__(self, "sampling_rate_hz", float(self.sampling_rate_hz))

    @classmethod
    def regular(cls, low_hz: float, high_hz: float, step_hz: float,
                sampling_rate_hz: float) -> "FrequencyGrid":
        """Evenly spaced grid from low_hz to the last step not past high_hz; a step
        past it by rounding only (< 1e-9 step) ends the grid at high_hz exactly."""
        _check_positive("step_hz", step_hz)
        _check_range(low_hz, high_hz, sampling_rate_hz)
        count = math.floor((high_hz - low_hz) / step_hz + 1e-9) + 1
        freqs = np.minimum(low_hz + step_hz * np.arange(count), high_hz)
        return cls(freqs_hz=freqs, sampling_rate_hz=sampling_rate_hz)

    @property
    def n_freqs(self) -> int:
        return self.freqs_hz.size


@dataclass(frozen=True)
class PdcSpectrum:
    """PDC values over a frequency grid.

    ``values[f, i, j]`` is the influence of source channel j on target
    channel i at grid frequency f, in [0, 1]. On a single-model spectrum the
    squared entries of every source column sum to 1 at every frequency;
    averaged spectra do not keep that normalization.
    """

    values: np.ndarray
    grid: FrequencyGrid
    channel_labels: tuple[str, ...]
    degenerate_columns: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self):
        labels = _labels(self.channel_labels)
        vals = np.asarray(self.values, dtype=float)
        m = len(labels)
        expected = (self.grid.n_freqs, m, m)
        if vals.shape != expected:
            raise ValueError(f"values must have shape {expected}, got {vals.shape}")
        # written so that NaN, which fails every comparison, fails the check
        if vals.size and not (vals.min() >= 0.0 and vals.max() <= 1.0):
            raise ValueError("PDC values must lie in [0, 1]")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "channel_labels", labels)
        object.__setattr__(self, "degenerate_columns",
                           tuple((int(f), int(j)) for f, j in self.degenerate_columns))


@dataclass(frozen=True)
class BandAverages:
    """PDC averaged within named frequency bands; entries in [0, 1].

    Each band holds a float copy of one M x M matrix for the M channel labels, and
    its name and float edges (a copy too) follow the band rule of `band_average`.
    """

    bands: dict
    band_edges_hz: dict
    channel_labels: tuple[str, ...]

    def __post_init__(self):
        if set(self.bands) != set(self.band_edges_hz):
            raise ValueError("bands and band_edges_hz must share the same names")
        object.__setattr__(self, "band_edges_hz", _check_bands(self.band_edges_hz))
        object.__setattr__(self, "bands", {
            name: np.array(mat, dtype=float) for name, mat in self.bands.items()})
        labels = _labels(self.channel_labels)
        shape = (len(labels), len(labels))
        for name, arr in self.bands.items():
            if arr.shape != shape:
                raise ValueError(f"band {name!r} has a matrix of shape {arr.shape}; "
                                 f"{len(labels)} channel labels need {shape}")
            if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):  # NaN fails too
                raise ValueError(f"band {name!r} has values outside [0, 1]")
        object.__setattr__(self, "channel_labels", labels)


@lru_cache(maxsize=64)
def _phase_table(freqs_bytes: bytes, sampling_rate_hz: float, order: int) -> np.ndarray:
    """Read-only ``exp(-2 pi i g r)`` for every grid frequency and lag r = 1..order,
    shape (F, order), keyed on the grid's float64 bytes rather than on any object."""
    g = np.frombuffer(freqs_bytes)[:, None] / sampling_rate_hz
    phases = np.exp(-2j * np.pi * g * np.arange(1, order + 1))
    phases.flags.writeable = False
    return phases


def _transfer(coeff_matrices: np.ndarray, freqs_hz, sampling_rate_hz: float) -> np.ndarray:
    """Transform matrices at every frequency in one contraction, shape (F, M, M)."""
    p, m, _ = coeff_matrices.shape
    freqs = np.asarray(freqs_hz, dtype=float)
    phases = _phase_table(freqs.tobytes(), sampling_rate_hz, p)
    flat = phases @ coeff_matrices.reshape(p, m * m)
    diagonal = flat[:, :: m + 1]  # entry (i, i) of each row-major M x M matrix
    np.subtract(1.0, diagonal, out=diagonal)
    return flat.reshape(-1, m, m)


def evaluate_transfer(model: VarModel, f_hz: float, sampling_rate_hz: float) -> np.ndarray:
    """Transform the lag matrices to one complex M x M matrix at a frequency.

    With normalized frequency ``g = f_hz / sampling_rate_hz`` and lag sum
    ``S[i, j] = sum_r A(r)[i, j] * exp(-1j * 2 * pi * g * r)``, the result has
    ``1 - S[i, i]`` on the diagonal and ``S[i, j]`` off the diagonal.

    Raises
    ------
    ValueError
        If ``f_hz`` lies outside [0, Nyquist].
    """
    _check_range(f_hz, f_hz, sampling_rate_hz)
    return _transfer(model.coeff_matrices, [f_hz], sampling_rate_hz)[0]


def compute_pdc(model: VarModel, grid: FrequencyGrid) -> PdcSpectrum:
    """Partial directed coherence of a fitted model over a frequency grid.

    Per frequency and channel pair, ``P[i, j] = |T[i, j]| / ||T[:, j]||``
    where T is the transfer matrix from `evaluate_transfer`. A column whose
    norm falls below 1e-12 is zeroed and recorded in
    ``degenerate_columns`` instead of raising.

    A stable model (`check_stability`) is recommended but not enforced.
    """
    mags = np.abs(_transfer(model.coeff_matrices, grid.freqs_hz, grid.sampling_rate_hz))
    col_norms = np.sqrt(np.add.reduce(mags * mags, axis=1))
    degenerate = col_norms < _DEGENERATE_COLUMN_NORM
    if degenerate.any():
        safe_norms = np.where(degenerate, 1.0, col_norms)  # degenerate columns are zeroed, not 0/0
        values = np.where(degenerate[:, None, :], 0.0, mags / safe_norms[:, None, :])
        columns = tuple(zip(*np.nonzero(degenerate)))
    else:
        values = np.divide(mags, col_norms[:, None, :], out=mags)
        columns = ()
    np.clip(values, 0.0, 1.0, out=values)
    return PdcSpectrum(
        values=values,
        grid=grid,
        channel_labels=model.channel_labels,
        degenerate_columns=columns,
    )


def average_over_segments(spectra) -> PdcSpectrum:
    """Elementwise mean of per-segment spectra, per frequency and pair.

    All spectra must share the same grid and channel labels. The mean of
    normalized columns is generally not normalized, so the result's columns
    are not expected to satisfy the single-model invariant.
    """
    spectra = list(spectra)
    if not spectra:
        raise ValueError("no spectra to average")
    first = spectra[0]
    for s in spectra[1:]:
        if s.channel_labels != first.channel_labels:
            raise ValueError("spectra differ in channel labels")
        if s.grid.sampling_rate_hz != first.grid.sampling_rate_hz or not np.array_equal(
            s.grid.freqs_hz, first.grid.freqs_hz
        ):
            raise ValueError("spectra differ in frequency grid")
    mean = _clipped_mean([s.values for s in spectra])
    degenerate = sorted({entry for s in spectra for entry in s.degenerate_columns})
    return PdcSpectrum(values=mean, grid=first.grid, channel_labels=first.channel_labels,
                       degenerate_columns=tuple(degenerate))


def _clipped_mean(stack) -> np.ndarray:
    """Mean over the first axis of a stack of spectrum values, clipped to [0, 1]."""
    mean = np.mean(stack, axis=0)
    np.clip(mean, 0.0, 1.0, out=mean)
    return mean


def _band_means(values: np.ndarray, masks: dict) -> dict:
    """Per band, the mean of ``values[..., f, i, j]`` over the band's frequencies f."""
    return {name: values[..., mask, :, :].mean(axis=-3) for name, mask in masks.items()}


def _is_real(value) -> bool:
    """A real number, numpy's real scalars included, that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_bands(bands) -> dict:
    """The band rule of a name -> (low_hz, high_hz) map (at least one band, names that
    are labels, edges a pair of real numbers that are finite, ordered and non-negative);
    returns it with float edges."""
    if not bands:
        raise ValueError("bands must be non-empty")
    checked = {}
    for name, edges in bands.items():
        if not (isinstance(name, str) and _is_label(name)):
            raise ValueError(f"band name {name!r} must be a non-empty string without edge "
                             "whitespace")
        try:
            low, high = edges
        except (TypeError, ValueError):
            low = high = None
        if not (_is_real(low) and _is_real(high)):
            raise ValueError(f"band {name!r} edges must be a pair of real numbers, "
                             f"got {edges!r}")
        # NaN fails too, and so does an int that no float can hold
        if not 0 <= low <= high <= sys.float_info.max:
            raise ValueError(f"band {name!r} has invalid edges ({low}, {high}); edges must "
                             "be finite, ordered and non-negative")
        checked[name] = (float(low), float(high))
    return checked


def _band_masks(bands, freqs_hz: np.ndarray) -> dict:
    """Grid mask of each band, edges inclusive, for bands that already follow the
    band rule (`_check_bands`). Raises unless each band holds a grid frequency."""
    masks = {}
    for name, (low, high) in bands.items():
        masks[name] = (freqs_hz >= low) & (freqs_hz <= high)
        if not masks[name].any():
            raise ValueError(f"band {name!r} ({low}-{high} Hz) contains no grid frequency")
    return masks


def band_average(spectrum: PdcSpectrum, bands=None) -> BandAverages:
    """Average a spectrum within named bands (edges inclusive on both ends).

    Parameters
    ----------
    spectrum : PdcSpectrum
    bands : mapping name -> (low_hz, high_hz), optional
        Defaults to the theta/alpha/beta1/beta2 rhythm bands.

    Raises
    ------
    ValueError
        If ``bands`` is empty, or a band's name is empty or has edge
        whitespace, or the band has an infinite, unordered or negative edge
        or contains no grid frequency, naming the band.
    """
    if bands is None:
        bands = DEFAULT_BANDS
    bands = _check_bands(bands)
    masks = _band_masks(bands, spectrum.grid.freqs_hz)
    return BandAverages(
        bands=_band_means(spectrum.values, masks),
        band_edges_hz=bands,
        channel_labels=spectrum.channel_labels,
    )


def write_spectrum_csv(spectrum: PdcSpectrum, path) -> None:
    """Dump a spectrum as CSV rows (freq_hz, source, target, pdc)."""
    labels = spectrum.channel_labels
    # values[f, i, j] with the source j before the target i: [f][j][i]
    columns = spectrum.values.transpose(0, 2, 1).tolist()
    _write_csv(path, _SPECTRUM_COLUMNS, (
        [f_hz, source, target, pdc]
        for f_hz, per_source in zip(spectrum.grid.freqs_hz.tolist(), columns)
        for source, column in zip(labels, per_source)
        for target, pdc in zip(labels, column)))


def read_spectrum_csv(path, sampling_rate_hz: float | None = None) -> PdcSpectrum:
    """Load a spectrum written by `write_spectrum_csv` from UTF-8 CSV.

    When the sampling rate is not given, it defaults to twice the highest
    frequency present (the minimal rate for which the grid is valid), or to
    1 Hz for a table of 0 Hz alone. A cell out of range, or a source or target
    cell that is not a channel label, is named by path:line.
    """
    cells: dict[tuple[float, str, str], float] = {}
    seen: dict[str, None] = {}  # channel labels in first-seen order
    for where, row in _csv_rows(path, set(_SPECTRUM_COLUMNS)):
        try:
            f_hz, value = float(row["freq_hz"]), float(row["pdc"])
        except ValueError:
            raise ValueError(f"{where}: freq_hz and pdc must be numbers, got "
                             f"{row['freq_hz']!r} and {row['pdc']!r}") from None
        if not 0.0 <= f_hz < math.inf:  # NaN fails too
            raise ValueError(f"{where}: freq_hz must be finite and >= 0, got {row['freq_hz']!r}")
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{where}: PDC values must lie in [0, 1], got {row['pdc']!r}")
        source, target = row["source"], row["target"]
        if not (_is_label(source) and _is_label(target)):
            raise ValueError(f"{where}: source and target must be non-empty channel labels "
                             f"without edge whitespace, got {source!r} and {target!r}")
        key = (f_hz, source, target)
        if key in cells:
            raise ValueError(f"{where}: duplicate row for {f_hz} Hz, {source}->{target}")
        seen.setdefault(source)
        seen.setdefault(target)
        cells[key] = value
    if not cells:
        raise ValueError(f"{path}: no spectrum rows")
    freqs = sorted({f_hz for f_hz, _, _ in cells})
    labels = tuple(seen)
    m = len(labels)
    values = np.empty((len(freqs), m, m))
    try:
        for fi, f_hz in enumerate(freqs):
            for j, source in enumerate(labels):
                for i, target in enumerate(labels):
                    values[fi, i, j] = cells[(f_hz, source, target)]
    except KeyError as exc:
        raise ValueError(f"{path}: incomplete spectrum table, missing {exc}") from None
    if sampling_rate_hz is None:
        sampling_rate_hz = 2.0 * max(freqs) or 1.0
    try:
        grid = FrequencyGrid(freqs_hz=np.array(freqs), sampling_rate_hz=sampling_rate_hz)
    except ValueError as exc:  # a given rate below twice the highest frequency
        raise ValueError(f"{path}: {exc}") from None
    return PdcSpectrum(values=values, grid=grid, channel_labels=labels)


def write_band_averages_json(averages: BandAverages, path) -> None:
    """Dump band matrices as a JSON map band -> row-major matrix, edges checked anew."""
    _check_bands(averages.band_edges_hz)
    _write_json(path, {key: getattr(averages, key)
                       for key in ("channel_labels", "band_edges_hz", "bands")})
