"""Paired Wilcoxon signed-rank tests with Holm step-down correction.

Band-averaged coupling strengths from two conditions are compared per
(channel pair, band) key; the whole key set is one correction family, so the
family-wise error rate is controlled across every hypothesis of a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ._io import _write_csv
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
    "format_pair",
    "write_test_table_csv",
]

DIRECTION_A_GREATER = "a_greater"
DIRECTION_B_GREATER = "b_greater"
DIRECTION_NONE = "none"
_DIRECTIONS = (DIRECTION_A_GREATER, DIRECTION_B_GREATER, DIRECTION_NONE)

DEFAULT_ALPHA = 0.05
# Exact enumeration is cheap up to here and removes approximation error for
# the small cohorts this toolkit is aimed at.
DEFAULT_EXACT_THRESHOLD = 25


def _unchecked(cls, fields: dict):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as given, views
    included, without its `__post_init__`: the caller has checked the class's rule."""
    obj = object.__new__(cls)
    object.__setattr__(obj, "__dict__", fields)
    return obj


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
        if not (np.count_nonzero(np.isfinite(a)) == a.size
                and np.count_nonzero(np.isfinite(b)) == b.size):
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
        if self.direction not in _DIRECTIONS:
            raise ValueError(f"unknown direction {self.direction!r}")
        if self.untestable and self.n_effective != 0:
            raise ValueError("untestable result must have n_effective = 0")


# The normal tail of the approximate branch: Cephes' ndtr/erf/erfc (Moshier 1989,
# "Methods and Programs for Mathematical Functions"), the code scipy.special.ndtr
# runs, with its coefficient tables, branch points and Horner order, so every
# p-value is bit-identical to scipy's.
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (  # leading 1.0 implied (p1evl)
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (  # leading 1.0 implied (p1evl)
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (  # leading 1.0 implied (p1evl)
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_MAXLOG = 7.09782712893383996843e2
_SQRT1_2 = 7.07106781186547524401e-1


def _polevl(x: float, coef) -> float:
    """Horner's rule, highest power first (Cephes polevl)."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef) -> float:
    """`_polevl` with an implied leading coefficient of 1 (Cephes p1evl)."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erfc(a: float) -> float:
    x = abs(a)
    if x < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z < -_MAXLOG:
        return 2.0 if a < 0 else 0.0
    z = math.exp(z)
    if x < 8.0:
        p = _polevl(x, _ERFC_P)
        q = _p1evl(x, _ERFC_Q)
    else:
        p = _polevl(x, _ERFC_R)
        q = _p1evl(x, _ERFC_S)
    y = (z * p) / q
    return 2.0 - y if a < 0 else y


def _erf(x: float) -> float:
    if x < 0.0:
        return -_erf(-x)
    if x > 1.0:
        return 1.0 - _erfc(x)
    z = x * x
    return x * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)


def _ndtr(a: float) -> float:
    """Standard normal CDF at `a`."""
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


@lru_cache(maxsize=64)
def _signed_rank_cumulative_counts(n: int) -> np.ndarray:
    """Cumulative counts of sign assignments by positive-rank sum.

    Entry w is the number of the 2**n assignments whose positive-rank sum is
    <= w, for distinct ranks 1..n. Built by the usual convolution recurrence;
    the last entry is 2**n, so int64 holds every entry for
    n <= DEFAULT_EXACT_THRESHOLD. Read-only: every exact p-value at this n
    reads the one cached table.
    """
    total = n * (n + 1) // 2
    counts = np.zeros(total + 1, dtype=np.int64)
    counts[0] = 1
    for k in range(1, n + 1):
        counts[k:] = counts[k:] + counts[:-k]
    cumulative = np.cumsum(counts)
    cumulative.flags.writeable = False
    return cumulative


def wilcoxon_signed_rank(sample: PairedSample) -> WilcoxonOutcome:
    """Two-sided paired signed-rank test.

    Differences a - b are taken, zero differences discarded, and absolute
    differences ranked with mid-ranks for ties. W is the smaller of the two
    signed-rank sums. With at most `DEFAULT_EXACT_THRESHOLD` (25) effective
    pairs and no tied magnitudes the p-value is exact (two-sided tail of the
    full sign-assignment distribution); otherwise a normal approximation with
    continuity correction and tie-corrected variance is used.

    Returns
    -------
    WilcoxonOutcome
        (statistic_w, n_effective, p_raw) named tuple.

    Raises
    ------
    DegenerateSampleError
        If every difference is zero (no information in the sample).
    """
    diffs = sample.condition_a - sample.condition_b
    diffs = diffs[diffs.nonzero()]  # +0.0 and -0.0 alike
    n_eff = diffs.size
    if n_eff == 0:
        raise DegenerateSampleError(
            "all paired differences are zero; signed-rank test undefined"
        )
    magnitudes = np.abs(diffs)
    order = magnitudes.argsort()
    magnitudes = magnitudes[order]
    negative = np.signbit(diffs[order])  # no difference is zero
    # at tens of pairs the per-call overhead, not the arithmetic, sets the time: so
    # a tie is found with np.count_nonzero (not .any()), and each sum below is
    # Python's sum of a short list (not np.add.reduce)
    same = magnitudes[1:] == magnitudes[:-1]
    tied = np.count_nonzero(same) > 0
    if tied:
        # edges[i]: sorted position i starts a tie group (edges[n] closes the last one);
        # a group of c tied magnitudes from 0-based position s has mid-rank s + (c + 1) / 2
        edges = np.ones(n_eff + 1, dtype=bool)
        np.logical_not(same, out=edges[1:-1])
        bounds = edges.nonzero()[0]
        starts = bounds[:-1]
        tie_counts = bounds[1:] - starts
        ranks = np.repeat(starts + (tie_counts + 1) / 2.0, tie_counts)
        w_neg = sum(ranks[negative].tolist(), 0.0)
    else:
        # ranks are 1..n: the negative ranks are their 0-based positions plus one
        positions = negative.nonzero()[0]
        w_neg = float(sum(positions.tolist()) + positions.size)
    # rank sums are half-integers, exact in float64 in any order of summation,
    # so W+ = n(n+1)/2 - W- exactly
    w = min(w_neg, n_eff * (n_eff + 1) / 2.0 - w_neg)

    if n_eff <= DEFAULT_EXACT_THRESHOLD and not tied:
        cumulative = _signed_rank_cumulative_counts(n_eff)
        p = min(1.0, 2.0 * cumulative.item(int(w)) / 2.0 ** n_eff)
    else:
        mean = n_eff * (n_eff + 1) / 4.0
        variance = n_eff * (n_eff + 1) * (2 * n_eff + 1) / 24.0
        if tied:
            variance -= sum((tie_counts ** 3 - tie_counts).tolist()) / 48.0
        z = (w - mean + 0.5) / math.sqrt(variance)
        p = min(1.0, 2.0 * _ndtr(z))
    return WilcoxonOutcome(w, n_eff, p)


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
    try:
        values = list(p_values)
    except TypeError:  # a number or a 0-d array: refused below as empty
        values = ()
    p = np.asarray(values, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("p_values must be a non-empty 1-D collection")
    order = p.argsort(kind="stable")
    ordered = p[order]
    # NaN sorts last and fails the comparison
    if not (ordered[0] >= 0.0 and ordered[-1] <= 1.0):
        raise ValueError("p-values must lie in [0, 1]")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    m = p.size
    ordered *= np.arange(m, 0, -1)
    np.maximum.accumulate(ordered, out=ordered)
    np.minimum(ordered, 1.0, out=ordered)
    adjusted = np.empty(m)
    adjusted[order] = ordered
    return list(zip(adjusted.tolist(), (adjusted <= float(alpha)).tolist()))


# the outcome of a key whose paired differences are all zero: no statistic and no
# effective pairs, and p = 1, so it stays in the family without weighing on it
_UNTESTABLE = WilcoxonOutcome(statistic_w=math.nan, n_effective=0, p_raw=1.0)


def _median_directions(diffs: np.ndarray) -> list:
    """The direction of each row of a 2-D array of paired differences a - b: the
    sign of the row's median, with np.median's arithmetic (the mean of the middle
    pair, the middle value twice for an odd count). A middle of +-0 is no direction."""
    ordered = np.sort(diffs, axis=1)
    n = ordered.shape[1]
    medians = ((ordered[:, (n - 1) // 2] + ordered[:, n // 2]) / 2.0).tolist()
    return [DIRECTION_A_GREATER if med > 0.0 else DIRECTION_B_GREATER if med < 0.0
            else DIRECTION_NONE for med in medians]


def _stacked(keys: list, band_values_a: dict, band_values_b: dict):
    """The two conditions as (keys x pairs) float64 arrays in key order, when every
    key's values meet `PairedSample`'s rule and all keys have the same number of
    pairs; else None. numpy iterates no generator, so a refused family reaches the
    per-key loop unread."""
    try:
        a = np.array([band_values_a[key] for key in keys], dtype=float)
        b = np.array([band_values_b[key] for key in keys], dtype=float)
    except Exception:  # whatever a key breaks, the per-key loop raises it by key
        return None
    if (a.ndim != 2 or a.shape != b.shape or a.shape[1] < 1
            or np.count_nonzero(np.isfinite(a)) != a.size
            or np.count_nonzero(np.isfinite(b)) != b.size):
        return None
    return a, b


def compare_conditions(band_values_a: dict, band_values_b: dict,
                       alpha: float = DEFAULT_ALPHA) -> dict:
    """Test every (pair, band) key and correct across the full key family.

    Parameters
    ----------
    band_values_a, band_values_b : dict
        Same key set; each key maps to an index-aligned list of per-subject
        values for that condition. Keys may differ in their number of pairs.
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
        ``source->target/band`` for ``((source, target), band)`` keys).
    """
    if band_values_a.keys() != band_values_b.keys():
        missing = set(band_values_a) ^ set(band_values_b)
        raise ValueError(f"condition maps differ in keys: {sorted(missing)!r}")
    if not band_values_a:
        raise ValueError("no hypotheses to test")

    keys = list(band_values_a)
    stacked = _stacked(keys, band_values_a, band_values_b)
    if stacked is not None:
        # a rectangular family, converted and checked once: each row view meets
        # PairedSample's rule (1-D float64, equal non-zero lengths, every value finite)
        a, b = stacked
        samples = [_unchecked(PairedSample, {"condition_a": row_a, "condition_b": row_b})
                   for row_a, row_b in zip(a, b)]
        directions = _median_directions(a - b)
    else:
        # ragged or refused: the per-key loop converts, checks and names the key
        samples = []
        for key in keys:
            try:
                samples.append(PairedSample(condition_a=band_values_a[key],
                                            condition_b=band_values_b[key]))
            except ValueError as exc:
                raise ValueError(f"{_key_label(key)}: {exc}") from exc
        directions = [_median_directions((s.condition_a - s.condition_b)[np.newaxis])[0]
                      for s in samples]

    # one output step for both paths; an outcome's fields are the first three of
    # PairedTestResult, in the same order
    outcomes = []
    for sample in samples:
        try:
            outcomes.append(wilcoxon_signed_rank(sample))
        except DegenerateSampleError:
            outcomes.append(_UNTESTABLE)
    p_raw = [outcome.p_raw for outcome in outcomes]
    corrected = holm_bonferroni(p_raw, alpha=alpha)
    # PairedTestResult's rule, checked once for the family; untestable is n = 0 below
    if not (all(0.0 <= raw <= p_adj <= 1.0 for raw, (p_adj, _) in zip(p_raw, corrected))
            and set(directions).issubset(_DIRECTIONS)):
        raise ValueError("test results break PairedTestResult's rule")
    return {key: _unchecked(PairedTestResult, {
                "statistic_w": w, "n_effective": n, "p_raw": p, "p_adjusted": p_adj,
                "significant": reject, "direction": direction, "untestable": n == 0})
            for key, (w, n, p), direction, (p_adj, reject)
            in zip(keys, outcomes, directions, corrected)}


def format_pair(pair) -> str:
    """(source, target) -> 'source->target'."""
    source, target = pair
    return f"{source}->{target}"


def _key_label(key) -> str:
    """((source, target), band) -> 'source->target/band'; any other key -> repr(key)."""
    if isinstance(key, tuple) and len(key) == 2 and isinstance(key[0], tuple) and len(key[0]) == 2:
        return f"{format_pair(key[0])}/{key[1]}"
    return repr(key)


def _test_rows(results: dict) -> list:
    """One row per ((source, target), band) key of a results map, in its order:
    the ``tests`` list of report.json, and the test table without ``untestable``."""
    return [{"pair": format_pair(pair), "direction": res.direction, "band": band,
             "n": res.n_effective, "W": None if res.untestable else res.statistic_w,
             "p_raw": res.p_raw, "p_adjusted": res.p_adjusted,
             "significant": res.significant, "untestable": res.untestable}
            for (pair, band), res in results.items()]


# the test table's column -> the cell `_write_csv` writes for a test row's value there
_TABLE_CELLS = {
    **dict.fromkeys(("pair", "direction", "band", "n"), lambda value: value),
    "W": lambda w: None if w is None else float(w),
    **dict.fromkeys(("p_raw", "p_adjusted"), float),
    "significant": lambda significant: "true" if significant else "false",
}


def write_test_table_csv(results: dict, path) -> None:
    """Dump per-hypothesis results keyed by ((source, target), band).

    Columns: pair, direction, band, n, W, p_raw, p_adjusted, significant.
    Untestable keys keep their row (n = 0, empty W) so the table always
    lists the complete hypothesis family.
    """
    rows = ([cell(row[column]) for column, cell in _TABLE_CELLS.items()]
            for row in _test_rows(results))
    _write_csv(path, _TABLE_CELLS, rows)
