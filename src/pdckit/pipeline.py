"""Two-condition connectivity analysis, end to end.

Per condition and subject: cut epochs, optionally reject on amplitude,
screen for weak stationarity, fit a VAR per configured channel pair (or one
joint model), turn each fit into a PDC spectrum, average spectra over a
subject's surviving segments per frequency, then average within bands. The
per-subject band values of the two conditions feed paired signed-rank tests
corrected across the full (pair, band) family.

Everything here is deterministic: identical inputs and config produce an
identical report apart from its timestamp field.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field, fields

import numpy as np

from ._io import _check_positive, _json_fields, _read_json, _write_json
from ._version import __version__
from .errors import EstimationError, PipelineError
from .pdc import (
    DEFAULT_BANDS,
    FrequencyGrid,
    _band_masks,
    _band_means,
    _clipped_mean,
    compute_pdc,
)
# not called here: this module averages stacked arrays itself. Both names stay
# attributes of it because perfbench/spans.py wraps them under this module
from .pdc import average_over_segments, band_average  # noqa: F401
from .signals import _window_length, extract_segments, screen_stationarity
from .stats import DEFAULT_ALPHA, _test_rows, compare_conditions, format_pair, write_test_table_csv
from .var import _check_rows, _check_scan, check_stability, fit_var, select_order

__all__ = [
    "ORDER_MODE_FIXED",
    "ORDER_MODE_AUTO_AIC",
    "SCOPE_PER_PAIR",
    "SCOPE_JOINT",
    "PipelineConfig",
    "ConditionSummary",
    "AnalysisReport",
    "default_config",
    "run_pipeline",
    "report_to_dict",
    "write_report",
    "write_config_json",
    "read_config_json",
]

ORDER_MODE_FIXED = "fixed"
ORDER_MODE_AUTO_AIC = "auto_aic"
SCOPE_PER_PAIR = "per_pair"
SCOPE_JOINT = "joint"


@dataclass(frozen=True)
class PipelineConfig:
    """Analysis protocol. The defaults are the reference protocol: 900 ms
    epochs, fixed order 15, 4-30 Hz at 0.5 Hz, theta/alpha/beta1/beta2
    bands, alpha = 0.05.

    ``channel_pairs`` of None resolves at run time to every ordered pair of
    distinct recording channels (a 4-channel montage gives the standard
    12-pair, 48-hypothesis family).
    """

    sampling_rate_hz: float
    epoch_length_ms: float = 900.0
    channel_pairs: tuple | None = None
    bands: dict = field(default_factory=lambda: dict(DEFAULT_BANDS))
    freq_low_hz: float = 4.0
    freq_high_hz: float = 30.0
    freq_step_hz: float = 0.5
    order_mode: str = ORDER_MODE_FIXED
    fixed_order: int = 15
    p_scan_max: int = 20
    stationarity_n_windows: int = 3
    stationarity_mean_drift_tol: float = 0.5
    stationarity_variance_ratio_tol: float = 2.0
    alpha: float = DEFAULT_ALPHA
    amplitude_reject_threshold: float | None = None
    model_scope: str = SCOPE_PER_PAIR
    mean_center: bool = True

    def __post_init__(self):
        _check_positive("sampling_rate_hz", self.sampling_rate_hz)
        _check_positive("epoch_length_ms", self.epoch_length_ms)
        if self.channel_pairs is not None:
            pairs = tuple((str(s), str(t)) for s, t in self.channel_pairs)
            if not pairs:
                raise ValueError("channel_pairs must be non-empty when given")
            for s, t in pairs:
                if s == t:
                    raise ValueError(f"channel pair ({s!r}, {t!r}) is not a directed pair")
            if len(set(pairs)) != len(pairs):
                raise ValueError("channel_pairs contains duplicates")
            object.__setattr__(self, "channel_pairs", pairs)
        bands = {str(name): (float(lo), float(hi)) for name, (lo, hi) in self.bands.items()}
        _band_masks(bands, self.frequency_grid().freqs_hz)
        object.__setattr__(self, "bands", bands)
        if self.order_mode not in (ORDER_MODE_FIXED, ORDER_MODE_AUTO_AIC):
            raise ValueError(f"unknown order_mode {self.order_mode!r}")
        if self.fixed_order < 1:
            raise ValueError(f"fixed_order must be >= 1, got {self.fixed_order}")
        if self.p_scan_max < 1:
            raise ValueError(f"p_scan_max must be >= 1, got {self.p_scan_max}")
        if self.stationarity_n_windows < 2:
            raise ValueError(
                f"stationarity_n_windows must be >= 2, got {self.stationarity_n_windows}"
            )
        if not (self.stationarity_mean_drift_tol > 0 and self.stationarity_variance_ratio_tol > 0):
            raise ValueError("stationarity tolerances must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.amplitude_reject_threshold is not None and not self.amplitude_reject_threshold > 0:
            raise ValueError("amplitude_reject_threshold must be positive when given")
        if self.model_scope not in (SCOPE_PER_PAIR, SCOPE_JOINT):
            raise ValueError(f"unknown model_scope {self.model_scope!r}")

    def frequency_grid(self) -> FrequencyGrid:
        return FrequencyGrid.regular(self.freq_low_hz, self.freq_high_hz,
                                     self.freq_step_hz, self.sampling_rate_hz)


def default_config(sampling_rate_hz: float) -> PipelineConfig:
    """The reference protocol at a given sampling rate."""
    return PipelineConfig(sampling_rate_hz=sampling_rate_hz)


@dataclass(frozen=True)
class ConditionSummary:
    """Attrition counts and per-subject band values for one condition.

    The invariant ``segments_in = screened_out + failed_fit + used`` holds by
    construction; a segment where any configured fit fails counts once in
    failed_fit and contributes nothing.
    """

    n_subjects: int
    segments_in: int
    screened_out: int
    failed_fit: int
    used: int
    unstable_models: int
    degenerate_columns: int
    band_values: dict

    def __post_init__(self):
        if self.segments_in != self.screened_out + self.failed_fit + self.used:
            raise ValueError("attrition counts do not add up")


# the per-condition counters of ConditionSummary, summed over subjects: the
# attrition of the segments, which adds up, and counts over the fitted models
_ATTRITION = ("segments_in", "screened_out", "failed_fit", "used")
_MODEL_COUNTS = ("unstable_models", "degenerate_columns")
_COUNTS = _ATTRITION + _MODEL_COUNTS


@dataclass(frozen=True)
class AnalysisReport:
    """Everything a run produced: config echo, per-condition band values and
    attrition, and the corrected test table over the full hypothesis family.
    """

    toolkit_version: str
    config_echo: dict
    channel_pairs: tuple
    band_names: tuple
    subjects_used: tuple
    condition_a: ConditionSummary
    condition_b: ConditionSummary
    test_results: dict
    timestamp_utc: str

    def __post_init__(self):
        expected = {(pair, band) for pair in self.channel_pairs for band in self.band_names}
        if set(self.test_results) != expected or len(self.test_results) != len(expected):
            raise ValueError("test table does not cover the (pair, band) family exactly once")


def _fit_order(config: PipelineConfig, segment) -> int:
    if config.order_mode == ORDER_MODE_FIXED:
        return config.fixed_order
    return select_order(segment, config.p_scan_max).chosen_p


def _process_subject(config: PipelineConfig, segments, groups, lookups, grid: FrequencyGrid,
                     masks: dict):
    """One subject's epochs in one condition: returns (counts dict, band values or None).

    Each epoch is screened and then fitted once per channel group. Band values
    map (pair, band) -> float; None when no segment survived, in which case
    the subject cannot contribute a paired observation.
    """
    counts = dict.fromkeys(_COUNTS, 0)
    counts["segments_in"] = len(segments)
    # per used epoch, the (groups, F, M, M) stack of its groups' PDC values; an
    # epoch enters every group or none, so every group averages the same epochs
    used = []
    for seg in segments:
        if (config.amplitude_reject_threshold is not None
                and np.abs(seg.samples).max() > config.amplitude_reject_threshold):
            counts["screened_out"] += 1
            continue
        if config.mean_center:
            seg = seg.centered()
        report = screen_stationarity(
            seg,
            n_windows=config.stationarity_n_windows,
            mean_drift_tol=config.stationarity_mean_drift_tol,
            variance_ratio_tol=config.stationarity_variance_ratio_tol,
        )
        if not report.passed:
            counts["screened_out"] += 1
            continue
        try:
            spectra = []
            unstable = 0
            for group in groups:
                sub = seg.select_channels(group)
                model, _ = fit_var(sub, _fit_order(config, sub))
                unstable += not check_stability(model)
                spectra.append(compute_pdc(model, grid))
        except (ValueError, EstimationError):
            counts["failed_fit"] += 1
            continue
        counts["used"] += 1
        counts["unstable_models"] += unstable
        counts["degenerate_columns"] += sum(len(s.degenerate_columns) for s in spectra)
        used.append([s.values for s in spectra])

    if not used:
        return counts, None
    bands = _band_means(_clipped_mean(used), masks)
    return counts, {(pair, band): float(bands[band][g, row, col])
                    for pair, (g, row, col) in lookups.items() for band in config.bands}


def _resolve_pairs(config: PipelineConfig, labels: tuple) -> tuple:
    if config.channel_pairs is not None:
        for s, t in config.channel_pairs:
            for lab in (s, t):
                if lab not in labels:
                    raise ValueError(f"configured channel {lab!r} not in recording "
                                     f"channels {list(labels)}")
        return config.channel_pairs
    if len(labels) < 2:
        raise ValueError(f"no channel pair can be formed: a cohort needs at least two "
                         f"channels, the recordings have {list(labels)}")
    return tuple((s, t) for s in labels for t in labels if s != t)


def _plan(config: PipelineConfig, labels: tuple) -> tuple:
    """A run's fits: (channel groups, lookups).

    The groups are the label tuples fitted on every epoch: all labels in
    joint scope, each pair's sorted labels in per-pair scope. The lookups map
    each resolved pair, in order, to (group index, target row, source column)
    of its entry in that group's PDC matrices.
    """
    pairs = _resolve_pairs(config, labels)
    if config.model_scope == SCOPE_JOINT:
        groups = (labels,)
    else:
        groups = tuple(dict.fromkeys(tuple(sorted(pair)) for pair in pairs))
    # each pair lies in exactly one group
    lookups = {(s, t): (g, group.index(t), group.index(s))
               for s, t in pairs for g, group in enumerate(groups) if s in group and t in group}
    return groups, lookups


def _check_feasible(config: PipelineConfig, n: int, groups: tuple) -> None:
    """Reject a protocol no N-sample epoch can be screened and fitted with."""
    m = max(map(len, groups))
    _window_length(n, config.stationarity_n_windows)
    if config.order_mode == ORDER_MODE_FIXED:
        _check_rows(n, m, config.fixed_order)
    else:
        _check_scan(n, m, config.p_scan_max)


def _cut(config: PipelineConfig, labels: tuple, recording, starts) -> list:
    """One subject's epochs, after checking the recording matches the cohort."""
    if recording.channel_labels != labels:
        raise ValueError("all recordings must share one channel set")
    if recording.sampling_rate_hz != config.sampling_rate_hz:
        raise ValueError(
            f"recording sampled at {recording.sampling_rate_hz} Hz but config "
            f"says {config.sampling_rate_hz} Hz"
        )
    return extract_segments(recording, config.epoch_length_ms, starts)


def run_pipeline(config: PipelineConfig, condition_a_inputs,
                 condition_b_inputs) -> AnalysisReport:
    """Run the full two-condition analysis.

    Parameters
    ----------
    config : PipelineConfig
    condition_a_inputs, condition_b_inputs : sequence of (Recording, starts)
        One entry per subject, index-aligned between conditions (the test is
        paired); ``starts`` are epoch onsets in ms for that recording.

    Raises
    ------
    PipelineError
        If no subject retains a usable segment in both conditions; the
        message carries the per-stage attrition counts.
    ValueError
        Before any fitting: on mismatched subject counts, channel sets or
        sampling rates, an epoch onset that is not finite or whose epoch
        does not fit its recording (naming the condition and subject), no
        onset at all, or epochs too short for the stationarity windows or
        the order setting.
    """
    a_inputs = list(condition_a_inputs)
    b_inputs = list(condition_b_inputs)
    if len(a_inputs) != len(b_inputs):
        raise ValueError(
            f"paired design needs equal subject counts, got {len(a_inputs)} vs {len(b_inputs)}"
        )
    if not a_inputs:
        raise ValueError("no subjects given")
    labels = a_inputs[0][0].channel_labels
    epochs = {"a": [], "b": []}
    for cond, inputs in (("a", a_inputs), ("b", b_inputs)):
        for index, (recording, starts) in enumerate(inputs):
            try:
                epochs[cond].append(_cut(config, labels, recording, starts))
            except ValueError as exc:
                raise ValueError(f"condition {cond}, subject {index}: {exc}") from None

    groups, lookups = _plan(config, labels)
    pairs = tuple(lookups)
    grid = config.frequency_grid()
    masks = _band_masks(config.bands, grid.freqs_hz)
    first = next((subject[0] for subject in epochs["a"] + epochs["b"] if subject), None)
    if first is None:
        raise ValueError("no subject has an epoch onset")
    _check_feasible(config, first.n_samples, groups)  # every epoch has its length

    outcomes = {cond: [_process_subject(config, segments, groups, lookups, grid, masks)
                       for segments in subjects]
                for cond, subjects in epochs.items()}
    totals = {cond: {key: sum(counts[key] for counts, _ in outcome) for key in _COUNTS}
              for cond, outcome in outcomes.items()}
    subjects_used = tuple(i for i, ((_, a), (_, b)) in enumerate(zip(*outcomes.values()))
                          if a is not None and b is not None)
    if not subjects_used:
        raise PipelineError(
            "no subject kept a usable segment in both conditions; attrition "
            f"a={totals['a']} b={totals['b']}"
        )

    band_names = tuple(config.bands)
    summaries = {
        cond: ConditionSummary(
            n_subjects=len(outcome),
            band_values={(pair, band): tuple(outcome[i][1][(pair, band)] for i in subjects_used)
                         for pair in pairs for band in band_names},
            **totals[cond],
        )
        for cond, outcome in outcomes.items()
    }
    test_results = compare_conditions(summaries["a"].band_values, summaries["b"].band_values,
                                      alpha=config.alpha)

    return AnalysisReport(
        toolkit_version=__version__,
        # the echo is the config as its JSON file holds it, with pairs resolved
        config_echo={**json.loads(json.dumps(_config_payload(config))),
                     "channel_pairs": [list(p) for p in pairs]},
        channel_pairs=pairs,
        band_names=band_names,
        subjects_used=subjects_used,
        condition_a=summaries["a"],
        condition_b=summaries["b"],
        test_results=test_results,
        timestamp_utc=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    )


def _condition_dict(summary: ConditionSummary, pairs, band_names) -> dict:
    values = {format_pair(pair): {band: list(summary.band_values[(pair, band)])
                                  for band in band_names} for pair in pairs}
    return {
        "n_subjects": summary.n_subjects,
        "attrition": {key: getattr(summary, key) for key in _ATTRITION},
        **{key: getattr(summary, key) for key in _MODEL_COUNTS},
        "band_values": values,
    }


def report_to_dict(report: AnalysisReport) -> dict:
    """JSON-safe view of a report (matrices row-major, NaN-free)."""
    return {
        "toolkit_version": report.toolkit_version,
        "timestamp_utc": report.timestamp_utc,
        "config": report.config_echo,
        "subjects_used": list(report.subjects_used),
        "conditions": {
            "a": _condition_dict(report.condition_a, report.channel_pairs, report.band_names),
            "b": _condition_dict(report.condition_b, report.channel_pairs, report.band_names),
        },
        "tests": _test_rows(report.test_results),
    }


def _write_atomic(path: str, writer) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        os.close(fd)
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_report(report: AnalysisReport, out_dir) -> dict:
    """Write report.json and test_table.csv into out_dir (atomically each).

    Returns the paths written, keyed 'report' and 'test_table'.
    """
    os.makedirs(out_dir, exist_ok=True)
    report_path = os.path.join(out_dir, "report.json")
    table_path = os.path.join(out_dir, "test_table.csv")

    payload = report_to_dict(report)
    _write_atomic(report_path, lambda tmp: _write_json(tmp, payload))
    _write_atomic(table_path, lambda tmp: write_test_table_csv(report.test_results, tmp))
    return {"report": report_path, "test_table": table_path}


# PipelineConfig fields with these prefixes sit in a nested JSON object,
# e.g. freq_low_hz is freq_grid.low_hz; every other field is a top-level key
_JSON_GROUPS = {"freq_": "freq_grid", "stationarity_": "stationarity"}


def _json_path(name: str) -> str:
    for prefix, group in _JSON_GROUPS.items():
        if name.startswith(prefix):
            return f"{group}.{name[len(prefix):]}"
    return name


def _config_payload(config: PipelineConfig) -> dict:
    payload = {}
    for f in fields(PipelineConfig):
        node, key = payload, _json_path(f.name)
        if "." in key:
            group, key = key.split(".")
            node = payload.setdefault(group, {})
        node[key] = getattr(config, f.name)
    return payload


def write_config_json(config: PipelineConfig, path) -> None:
    _write_json(path, _config_payload(config))


def read_config_json(path) -> PipelineConfig:
    """Load a config; missing keys, nested ones included, take the protocol
    defaults.

    Every value must have its field's JSON type (no strings for numbers, no
    numbers for booleans, no fractions for integers), and unknown keys are
    rejected at every level so typos cannot silently change a run. Errors
    name the offending JSON path.
    """
    def build(payload):
        flat = {}
        for key, value in payload.items():
            if key in _JSON_GROUPS.values():
                if not isinstance(value, dict):
                    raise ValueError(f"{key} must be a JSON object")
                flat.update((f"{key}.{inner}", v) for inner, v in value.items())
            else:
                flat[key] = value
        schema = {_json_path(f.name): f for f in fields(PipelineConfig)}
        kinds = {where: f.type for where, f in schema.items()}
        values = _json_fields(flat, kinds, ("sampling_rate_hz",), "config")
        return PipelineConfig(**{schema[where].name: value for where, value in values.items()})
    return _read_json(path, "config", build)
