"""Shared helpers for the test suite: the hypothesis profiles, and the one home
of every synthetic input the tests build (specs, recordings, models, cohorts,
the coupled and quiet VAR(1) lags, fresh per-example paths, and
`pipeline_cases`, drawn cohorts and protocols for the pipeline) and of the file
strategies: `csv_texts`, CSV text with the quirks a reader must take,
`csv_records`, the plain `csv.reader` walk the readers' references build on,
and `spectra`/`recordings`, valid containers to write. A new test draws its
inputs from here. scipy is not imported at module level: the scipy-free run of
the CLI test loads this file too."""

import csv
import itertools
import math
import os
from pathlib import Path

import numpy as np
from hypothesis import assume, settings
from hypothesis import strategies as st

from pdckit import (ORDER_MODE_AUTO_AIC, ORDER_MODE_FIXED, SCOPE_JOINT, SCOPE_PER_PAIR,
                    FrequencyGrid, GeneratorSpec, PdcSpectrum, PipelineConfig, Recording,
                    VarModel, generate)
from pdckit.synth import _generate_stack
from pdckit.var import spectral_radius

# every property test runs without a deadline: an example's time varies with
# the machine, and a slow one is not a failure. A failure prints the blob that
# replays it; HYPOTHESIS_PROFILE=ci also draws the same examples on every run
settings.register_profile("pdckit", deadline=None, print_blob=True)
settings.register_profile("ci", settings.get_profile("pdckit"), derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "pdckit"))


# the two-channel VAR(1) lags of the suite's cohorts: ch1 drives ch2 in COUPLED,
# neither channel drives the other in QUIET. Every test module shares them, so
# they are read-only
COUPLED = np.array([[[0.3, 0.0], [0.4, 0.3]]])
QUIET = np.array([[[0.3, 0.0], [0.0, 0.3]]])
COUPLED.setflags(write=False)
QUIET.setflags(write=False)


def _labels(m):
    return tuple(f"ch{i + 1}" for i in range(m))


def build_spec(coeffs, n_samples, seed, **fields):
    """A `GeneratorSpec` of `coeffs`: identity innovations at 250 Hz, channels
    ch1..chM, unless `fields` say otherwise."""
    coeffs = np.asarray(coeffs, dtype=float)
    fields = {"innovation_covariance": np.eye(coeffs.shape[1]), "sampling_rate_hz": 250.0,
              **fields}
    return GeneratorSpec(coeff_matrices=coeffs, n_samples=n_samples, seed=seed, **fields)


def simulate(coeffs, n_samples, seed, **fields):
    """The recording `generate` draws from `build_spec(coeffs, n_samples, seed, **fields)`."""
    return generate(build_spec(coeffs, n_samples, seed, **fields))


def simulate_many(coeffs, n_samples, seeds, **fields):
    """`simulate` at each seed, drawn in one lockstep recursion: the same bits."""
    return _generate_stack([build_spec(coeffs, n_samples, seed, **fields) for seed in seeds])


def build_cohort(coeffs, n_samples, seeds, starts, **fields):
    """One (recording, epoch onsets) subject per seed, each simulated from `coeffs`."""
    return [(recording, starts) for recording in simulate_many(coeffs, n_samples, seeds, **fields)]


def build_recording(samples, sampling_rate_hz=250.0, channel_labels=None):
    """A `Recording` of `samples` (a 1-D array is one channel), channels ch1..chM
    unless labelled."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    labels = _labels(samples.shape[1]) if channel_labels is None else channel_labels
    return Recording(samples=samples, sampling_rate_hz=sampling_rate_hz, channel_labels=labels)


def build_model(coeffs, **fields):
    """A `VarModel` of `coeffs`: identity residual covariance, 225 rows used,
    channels ch1..chM, unless `fields` say otherwise."""
    coeffs = np.asarray(coeffs, dtype=float)
    m = coeffs.shape[1]
    fields = {"order_p": coeffs.shape[0], "residual_covariance": np.eye(m),
              "n_samples_used": 225, "channel_labels": _labels(m), **fields}
    return VarModel(coeff_matrices=coeffs, **fields)


def random_stable_var(rng, m, p, radius=0.7):
    """Draw a random VAR(p) model whose coefficients are rescaled to a target radius.

    Scaling lag r by s**r moves every companion eigenvalue from lam to
    s*lam, so one rescale lands exactly on the requested radius.
    """
    coeffs = rng.normal(scale=0.4 / np.sqrt(p), size=(p, m, m))
    rho = spectral_radius(coeffs)
    if rho > 0:
        s = radius / rho
        coeffs = coeffs * (s ** np.arange(1, p + 1))[:, None, None]
    return build_model(coeffs)


def finite(lo, hi, **kw):
    """Floats in [lo, hi], neither NaN nor infinite."""
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


_FRESH = itertools.count()


def fresh_path(directory, name):
    """`directory / name` with a number no earlier call used before its suffix.

    A property test's examples share one tmp_path, and truncating a file an
    earlier example wrote is slow on some file systems (about 50 ms against
    0.01 ms for a new file; CHANGES.md has the measurement), so each example
    writes new files.
    """
    path = Path(directory) / name
    return path.with_name(f"{path.stem}{next(_FRESH)}{path.suffix}")


def stable_lines(path):
    """A written file's lines less those that record the run, not the input
    (`timestamp_utc`): two runs of the same input agree on these."""
    return [line for line in Path(path).read_bytes().splitlines()
            if not line.lstrip().startswith(b'"timestamp_utc":')]


# screen tolerances loose enough that every epoch of a simulated cohort passes
LOOSE_SCREEN = {"stationarity_mean_drift_tol": 100.0, "stationarity_variance_ratio_tol": 100.0}


@st.composite
def pipeline_cases(draw):
    """(config, condition a, condition b) for `run_pipeline`: 2-4 channels, labels and
    column order drawn; 3-6 subjects of 2-3 back-to-back 225-row epochs from a random
    stable VAR(1), plus a drawn coupling in condition b; per-pair or joint scope, fixed
    order 1-15 or AIC up to 2-6, all or some pairs, 1-4 bands, default or loose screen."""
    labels = tuple(draw(st.lists(st.sampled_from(["F3", "F4", "Fz", "C3", "T6", "O1", "a", "1"]),
                                 min_size=2, max_size=4, unique=True)))
    lags = random_stable_var(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                             len(labels), 1).coeff_matrices
    coupled = lags.copy()
    target, source = draw(st.permutations(range(len(labels))))[:2]
    coupled[0, target, source] += draw(finite(-0.5, 0.5))
    assume(spectral_radius(coupled) < 0.95)
    n, epochs = draw(st.integers(3, 6)), draw(st.integers(2, 3))
    first = draw(st.integers(0, 2**31))
    cohorts = [build_cohort(c, 225 * epochs, range(first + k * n, first + k * n + n),
                            [900.0 * e for e in range(epochs)], channel_labels=labels)
               for k, c in enumerate((lags, coupled))]
    edges = draw(st.lists(st.tuples(st.integers(0, 52), st.integers(0, 52)).map(sorted),
                          min_size=1, max_size=4))
    pairs = st.lists(st.sampled_from(list(itertools.permutations(labels, 2))), min_size=1,
                     unique=True)
    # both order settings are drawn, so a test may switch the mode and keep a small scan
    config = PipelineConfig(
        250.0, channel_pairs=draw(st.none() | pairs),
        bands={f"band{k}": (4.0 + low / 2, 4.0 + high / 2) for k, (low, high) in enumerate(edges)},
        model_scope=draw(st.sampled_from([SCOPE_PER_PAIR, SCOPE_JOINT])),
        order_mode=draw(st.sampled_from([ORDER_MODE_FIXED, ORDER_MODE_AUTO_AIC])),
        fixed_order=draw(st.integers(1, 15)), p_scan_max=draw(st.integers(2, 6)),
        **draw(st.sampled_from([{}, LOOSE_SCREEN])))
    return (config, *cohorts)


@st.composite
def spectra(draw, label, rates=finite(1.0, 5000.0)):
    """A `PdcSpectrum` of 1-4 channels named by `label`, at a rate drawn from
    `rates`, on 1-6 frequencies up to its Nyquist, with values in [0, 1]."""
    names = tuple(draw(st.lists(label, min_size=1, max_size=4, unique=True)))
    fs = draw(rates)
    freqs = sorted(draw(st.lists(finite(0.0, fs / 2), min_size=1, max_size=6, unique=True)))
    shape = (len(freqs), len(names), len(names))
    n = math.prod(shape)
    values = draw(st.lists(finite(0.0, 1.0), min_size=n, max_size=n))
    return PdcSpectrum(np.array(values).reshape(shape), FrequencyGrid(np.array(freqs), fs), names)


@st.composite
def recordings(draw, label):
    """A `Recording` of 1-4 channels named by `label` and 1-20 rows of finite samples."""
    names = tuple(draw(st.lists(label, min_size=1, max_size=4, unique=True)))
    n = draw(st.integers(1, 20)) * len(names)
    values = draw(st.lists(finite(-1e12, 1e12), min_size=n, max_size=n))
    return Recording(np.array(values).reshape(-1, len(names)),
                     draw(finite(1e-3, 1e5, exclude_min=True)), names)


# built once: building a strategy per drawn line took much of a property's time
_BLANK_LINES = st.sampled_from(["", "", " ", "\t"])
_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_texts(draw, header, rows, bom=False, pads=st.just("")):
    """CSV text of `header` and `rows` (lists of cell text) with the quirks a
    reader must take: a leading BOM now and then if `bom`; a blank or
    whitespace-only line before a row or at the end; in one file of three, rows
    one cell short or long; a cell holding a line break quoted, any other at
    random, its quotes doubled and a pad from `pads` after the closing quote;
    and \\n, \\r\\n or \\r line endings mixed within one file, the last line
    ending in one of them or in none."""
    ragged = draw(st.integers(0, 2)) == 0
    lines = [(draw(st.sampled_from(["", "\ufeff"])) if bom else "") + ",".join(header)]
    for row in [*rows, None]:
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(_BLANK_LINES))
        if row is None:
            break
        if ragged and draw(st.integers(0, 3)) == 0:
            row = row[:-1] if draw(st.booleans()) else [*row, row[-1]]
        lines.append(",".join('"' + cell.replace('"', '""') + '"' + draw(pads)
                              if "\n" in cell or draw(st.booleans()) else cell for cell in row))
    return "".join(line + draw(_LINE_ENDS) for line in lines[:-1]) + lines[-1] + draw(
        st.sampled_from(["", "\n", "\r\n", "\r"]))


def csv_records(path):
    """Walk a CSV file as a plain `csv.reader` reads it, less one leading BOM: yield
    (last physical line, cells) of its header and of each later non-blank record. A
    record not as wide as the header raises `ValueError` with the readers' message,
    `path:line: expected N values, got K`."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        yield reader.line_num, header
        for cells in reader:
            if not cells:
                continue
            if len(cells) != len(header):
                raise ValueError(f"{path}:{reader.line_num}: expected {len(header)} values, "
                                 f"got {len(cells)}")
            yield reader.line_num, cells


def enumerated_signed_rank_p(diffs):
    """Two-sided signed-rank p by brute force over all 2^n sign assignments.

    Zero differences are dropped first. Ranks are tied to |d|; every sign
    pattern is equally likely under the null, so the p-value is the mass of
    patterns whose min(W+, W-) is at most the observed one.
    """
    # imported here: the scipy-free run of the CLI test loads this file too
    from scipy.stats import rankdata

    diffs = np.asarray(diffs, dtype=float)
    diffs = diffs[diffs != 0.0]
    ranks = rankdata(np.abs(diffs))
    observed = min(ranks[diffs > 0].sum(), ranks[diffs < 0].sum())
    n = diffs.size
    masks = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    w_plus = masks @ ranks
    return float(np.mean(np.minimum(w_plus, ranks.sum() - w_plus) <= observed + 1e-9))
