"""Paired Wilcoxon signed-rank tests with Holm step-down correction.

Band-averaged coupling strengths from two conditions are compared per
(channel pair, band) key; the whole key set is one correction family, so the
family-wise error rate is controlled across every hypothesis of a run.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr

from .errors import DegenerateSampleError

__all__ = [
    "DIRECTION_A_GREATER",
    "DIRECTION_B_GREATER",
    "DIRECTION_NONE",
    "DEFAULT_ALPHA",
    "DEFAULT_EXACT_THRESHOLD",
    "PairedSample",
    "PairedTestResult",
    "WilcoxonOutcome",
    "wilcoxon_signed_rank",
    "holm_bonferroni",
    "compare_conditions",
    "write_test_table_csv",
]

DIRECTION_A_GREATER = "a_greater"
DIRECTION_B_GREATER = "b_greater"
DIRECTION_NONE = "none"

DEFAULT_ALPHA = 0.05
# Exact enumeration is cheap up to here and removes approximation error for
# the small cohorts this toolkit is aimed at.
DEFAULT_EXACT_THRESHOLD = 25


@dataclass(frozen=True)
class PairedSample:
    """Index-aligned paired observations from two conditions."""

    condition_a: np.ndarray
    condition_b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.condition_a, dtype=float)
        b = np.asarray(self.condition_b, dtype=float)
        if a.ndim != 1 or b.ndim != 1:
            raise ValueError("condition values must be 1-D")
        if a.size != b.size:
            raise ValueError(f"paired lengths differ: {a.size} vs {b.size}")
        if a.size < 1:
            raise ValueError("need at least one pair")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("paired values must be finite")
        object.__setattr__(self, "condition_a", a)
        object.__setattr__(self, "condition_b", b)

    @property
    def n_pairs(self) -> int:
        return self.condition_a.size


class WilcoxonOutcome(NamedTuple):
    statistic_w: float
    n_effective: int
    p_raw: float


@dataclass(frozen=True)
class PairedTestResult:
    """One hypothesis's test outcome after family-wise correction.

    ``statistic_w`` is NaN and ``untestable`` is True when every paired
    difference was zero; such keys contribute p = 1 to the correction family
    so the family size stays equal to the number of keys.
    """

    statistic_w: float
    n_effective: int
    p_raw: float
    p_adjusted: float
    significant: bool
    direction: str
    untestable: bool = False

    def __post_init__(self):
        if not 0.0 <= self.p_raw <= 1.0:
            raise ValueError(f"p_raw outside [0, 1]: {self.p_raw}")
        if not 0.0 <= self.p_adjusted <= 1.0:
            raise ValueError(f"p_adjusted outside [0, 1]: {self.p_adjusted}")
        if self.p_adjusted < self.p_raw:
            raise ValueError("adjusted p below raw p")
        if self.direction not in (DIRECTION_A_GREATER, DIRECTION_B_GREATER, DIRECTION_NONE):
            raise ValueError(f"unknown direction {self.direction!r}")
        if self.untestable and self.n_effective != 0:
            raise ValueError("untestable result must have n_effective = 0")


# The exact null counts are int64; the total count 2**n overflows above here.
_MAX_EXACT_THRESHOLD = 62


def _check_exact_threshold(exact_threshold) -> None:
    if exact_threshold > _MAX_EXACT_THRESHOLD:
        raise ValueError(
            f"exact_threshold must be at most {_MAX_EXACT_THRESHOLD} (the exact null "
            f"counts overflow int64 above n = {_MAX_EXACT_THRESHOLD}), got {exact_threshold}"
        )


@lru_cache(maxsize=64)
def _signed_rank_cumulative_counts(n: int) -> np.ndarray:
    """Cumulative counts of sign assignments by positive-rank sum.

    Entry w is the number of the 2**n assignments whose positive-rank sum is
    <= w, for distinct ranks 1..n. Built by the usual convolution recurrence;
    the last entry is 2**n, so int64 holds every entry for
    n <= _MAX_EXACT_THRESHOLD. Treat as read-only (cached).
    """
    total = n * (n + 1) // 2
    counts = np.zeros(total + 1, dtype=np.int64)
    counts[0] = 1
    for k in range(1, n + 1):
        counts[k:] = counts[k:] + counts[:-k]
    return np.cumsum(counts)


def wilcoxon_signed_rank(sample: PairedSample,
                         exact_threshold: int = DEFAULT_EXACT_THRESHOLD) -> WilcoxonOutcome:
    """Two-sided paired signed-rank test.

    Differences a - b are taken, zero differences discarded, and absolute
    differences ranked with mid-ranks for ties. W is the smaller of the two
    signed-rank sums. With at most `exact_threshold` effective pairs and no
    tied magnitudes the p-value is exact (two-sided tail of the full
    sign-assignment distribution); otherwise a normal approximation with
    continuity correction and tie-corrected variance is used.

    Returns
    -------
    WilcoxonOutcome
        (statistic_w, n_effective, p_raw) named tuple.

    Raises
    ------
    DegenerateSampleError
        If every difference is zero (no information in the sample).
    ValueError
        If `exact_threshold` exceeds 62, where the exact counts overflow.
    """
    _check_exact_threshold(exact_threshold)
    diffs = sample.condition_a - sample.condition_b
    diffs = diffs[diffs != 0.0]
    n_eff = diffs.size
    if n_eff == 0:
        raise DegenerateSampleError(
            "all paired differences are zero; signed-rank test undefined"
        )
    magnitudes = np.abs(diffs)
    order = magnitudes.argsort()
    magnitudes = magnitudes[order]
    positive = diffs[order] > 0.0
    # edges[i]: sorted position i starts a tie group (edges[n] closes the last one)
    edges = np.ones(n_eff + 1, dtype=bool)
    np.not_equal(magnitudes[1:], magnitudes[:-1], out=edges[1:-1])
    tied = not edges.all()
    if tied:
        # a group of c tied magnitudes from 0-based position s has mid-rank s + (c + 1) / 2
        bounds = np.flatnonzero(edges)
        starts = bounds[:-1]
        tie_counts = bounds[1:] - starts
        ranks = np.repeat(starts + (tie_counts + 1) / 2.0, tie_counts)
        w_pos = float(ranks[positive].sum())
    else:
        # ranks are 1..n: the positive ranks are their 0-based positions plus one
        positions = np.flatnonzero(positive)
        w_pos = float(positions.sum() + positions.size)
    # rank sums are half-integers, exact in float64, so W- = n(n+1)/2 - W+ exactly
    w = min(w_pos, n_eff * (n_eff + 1) / 2.0 - w_pos)

    if n_eff <= exact_threshold and not tied:
        cumulative = _signed_rank_cumulative_counts(n_eff)
        p = min(1.0, 2.0 * float(cumulative[int(w)]) / 2.0 ** n_eff)
    else:
        mean = n_eff * (n_eff + 1) / 4.0
        variance = n_eff * (n_eff + 1) * (2 * n_eff + 1) / 24.0
        if tied:
            variance -= float((tie_counts ** 3 - tie_counts).sum()) / 48.0
        z = (w - mean + 0.5) / math.sqrt(variance)
        p = min(1.0, 2.0 * float(ndtr(z)))
    return WilcoxonOutcome(statistic_w=w, n_effective=n_eff, p_raw=p)


def holm_bonferroni(p_values, alpha: float = DEFAULT_ALPHA) -> list:
    """Step-down correction of Holm (1979).

    Sorted ascending, the p-value at 1-based rank k among m is multiplied by
    (m - k + 1); adjusted values are the running maximum of those products,
    clamped to 1. Rejection (adjusted <= alpha) therefore never resumes after
    the first retained hypothesis in sorted order.

    Returns
    -------
    list of (p_adjusted, reject) in the input order.
    """
    p = np.asarray(list(p_values), dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("p_values must be a non-empty 1-D collection")
    if np.any((p < 0.0) | (p > 1.0)) or not np.isfinite(p).all():
        raise ValueError("p-values must lie in [0, 1]")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    m = p.size
    order = np.argsort(p, kind="stable")
    multipliers = m - np.arange(m)
    scaled = p[order] * multipliers
    adjusted_sorted = np.minimum(np.maximum.accumulate(scaled), 1.0)
    adjusted = np.empty(m)
    adjusted[order] = adjusted_sorted
    return [(float(adj), bool(adj <= alpha)) for adj in adjusted]


def _direction_from_median(diffs: np.ndarray) -> str:
    # np.median's arithmetic: the mean of the middle pair (the middle value twice for odd n)
    ordered = np.sort(diffs)
    n = ordered.size
    med = (ordered.item((n - 1) // 2) + ordered.item(n // 2)) / 2.0
    if med > 0.0:
        return DIRECTION_A_GREATER
    if med < 0.0:
        return DIRECTION_B_GREATER
    return DIRECTION_NONE


def compare_conditions(band_values_a: dict, band_values_b: dict,
                       alpha: float = DEFAULT_ALPHA,
                       exact_threshold: int = DEFAULT_EXACT_THRESHOLD) -> dict:
    """Test every (pair, band) key and correct across the full key family.

    Parameters
    ----------
    band_values_a, band_values_b : dict
        Same key set; each key maps to an index-aligned list of per-subject
        values for that condition.
    alpha : float
        Family-wise significance level.

    Returns
    -------
    dict key -> PairedTestResult
        Keys whose paired differences are all zero come back with
        ``untestable=True`` and p = 1; they still count toward the family
        size, so the correction multipliers are unaffected by degeneracy.

    Raises
    ------
    ValueError
        If the two maps have different key sets, if a key's values are
        misaligned or not finite (the message starts with the key, written
        ``source->target/band`` for ``((source, target), band)`` keys), or if
        `exact_threshold` exceeds 62.
    """
    _check_exact_threshold(exact_threshold)
    if set(band_values_a) != set(band_values_b):
        missing = set(band_values_a) ^ set(band_values_b)
        raise ValueError(f"condition maps differ in keys: {sorted(missing)!r}")
    if not band_values_a:
        raise ValueError("no hypotheses to test")

    keys = list(band_values_a)
    raw_p = []
    outcomes = {}
    directions = {}
    for key in keys:
        try:
            sample = PairedSample(condition_a=band_values_a[key], condition_b=band_values_b[key])
        except ValueError as exc:
            raise ValueError(f"{_key_label(key)}: {exc}") from exc
        directions[key] = _direction_from_median(sample.condition_a - sample.condition_b)
        try:
            outcome = wilcoxon_signed_rank(sample, exact_threshold=exact_threshold)
        except DegenerateSampleError:
            outcome = None
        outcomes[key] = outcome
        raw_p.append(1.0 if outcome is None else outcome.p_raw)

    corrected = holm_bonferroni(raw_p, alpha=alpha)
    results = {}
    for key, (p_adj, reject) in zip(keys, corrected):
        outcome = outcomes[key]
        if outcome is None:
            results[key] = PairedTestResult(
                statistic_w=float("nan"), n_effective=0, p_raw=1.0,
                p_adjusted=p_adj, significant=reject,
                direction=DIRECTION_NONE, untestable=True,
            )
        else:
            results[key] = PairedTestResult(
                statistic_w=outcome.statistic_w, n_effective=outcome.n_effective,
                p_raw=outcome.p_raw, p_adjusted=p_adj, significant=reject,
                direction=directions[key], untestable=False,
            )
    return results


def format_pair(pair) -> str:
    """(source, target) -> 'source->target'."""
    source, target = pair
    return f"{source}->{target}"


def _key_label(key) -> str:
    """((source, target), band) -> 'source->target/band'; any other key -> repr(key)."""
    if isinstance(key, tuple) and len(key) == 2 and isinstance(key[0], tuple) and len(key[0]) == 2:
        return f"{format_pair(key[0])}/{key[1]}"
    return repr(key)


def write_test_table_csv(results: dict, path) -> None:
    """Dump per-hypothesis results keyed by ((source, target), band).

    Columns: pair, direction, band, n, W, p_raw, p_adjusted, significant.
    Untestable keys keep their row (n = 0, empty W) so the table always
    lists the complete hypothesis family.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pair", "direction", "band", "n", "W",
                         "p_raw", "p_adjusted", "significant"])
        for (pair, band), res in results.items():
            w_cell = "" if res.untestable else repr(float(res.statistic_w))
            writer.writerow([
                format_pair(pair), res.direction, band, res.n_effective, w_cell,
                repr(float(res.p_raw)), repr(float(res.p_adjusted)),
                "true" if res.significant else "false",
            ])
