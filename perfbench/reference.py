"""Independent reference for every output the benchmark checks.

The benchmark never trusts the program to check itself: each op's report is
compared with what this module computes from the same generated arrays. The
arithmetic that decides discrete outcomes (the stationarity screen, the
least-squares fits, ranks, exact and approximate p-values, Holm) follows the
reference protocol step for step, so those outcomes must match exactly. The
spectral path is written independently (one contraction over all
frequencies), so band values are compared to within 1e-12.

Only numpy and scipy.special are used; nothing here imports pdckit.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import ndtr

SAMPLING_RATE_HZ = 250.0
EPOCH_ROWS = 225                      # 900 ms at 250 Hz
FREQS_HZ = 4.0 + 0.5 * np.arange(53)  # 4-30 Hz at 0.5 Hz
BANDS = {"theta": (4.0, 7.5), "alpha": (8.0, 12.5),
         "beta1": (13.0, 20.5), "beta2": (21.0, 30.0)}
ALPHA = 0.05
FIXED_ORDER = 15
P_SCAN_MAX = 20
EXACT_THRESHOLD = 25
SCREEN_WINDOWS = 3
MEAN_DRIFT_TOL = 0.5
VARIANCE_RATIO_TOL = 2.0
STABILITY_MARGIN = 1e-9
DEGENERATE_COLUMN_NORM = 1e-12


def ordered_pairs(labels):
    return [(s, t) for s in labels for t in labels if s != t]


def fit_groups(pairs):
    groups = []
    for s, t in pairs:
        g = tuple(sorted((s, t)))
        if g not in groups:
            groups.append(g)
    return groups


# ---------------------------------------------------------------- screening

def screen_passes(x: np.ndarray) -> bool:
    """Windowed mean-drift / variance-ratio screen of a centred epoch."""
    n, m = x.shape
    win = n // SCREEN_WINDOWS
    windows = x[: win * SCREEN_WINDOWS].reshape(SCREEN_WINDOWS, win, m)
    means = windows.mean(axis=1)
    variances = windows.var(axis=1, ddof=1)
    spread = means.max(axis=0) - means.min(axis=0)
    pooled = np.sqrt(variances.mean(axis=0))
    if np.any(pooled <= 0) or np.any(variances.min(axis=0) <= 0):
        return False
    drift = float((spread / pooled).max())
    ratio = float((variances.max(axis=0) / variances.min(axis=0)).max())
    return drift <= MEAN_DRIFT_TOL and ratio <= VARIANCE_RATIO_TOL


# ---------------------------------------------------------------- VAR

def _design(x: np.ndarray, p: int):
    n, m = x.shape
    design = np.empty((n - p, m * p))
    for lag in range(1, p + 1):
        design[:, (lag - 1) * m: lag * m] = x[p - lag: n - lag]
    return design, x[p:]


def fit_coefficients(x: np.ndarray, p: int):
    """Least-squares lag matrices (p, M, M), or None when rank deficient."""
    m = x.shape[1]
    design, target = _design(x, p)
    flat, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < m * p:
        return None
    return np.stack([flat[i * m: (i + 1) * m].T for i in range(p)])


def is_stable(coeffs: np.ndarray) -> bool:
    p, m, _ = coeffs.shape
    comp = np.zeros((m * p, m * p))
    comp[:m] = coeffs.transpose(1, 0, 2).reshape(m, m * p)
    comp[m:, : m * (p - 1)] = np.eye(m * (p - 1))
    return float(np.abs(np.linalg.eigvals(comp)).max()) < 1.0 - STABILITY_MARGIN


def order_bound(n: int, m: int) -> int:
    return math.isqrt(9 * n - 1) // m


def scan_order(x: np.ndarray, p_max: int) -> int:
    """AIC order choice over 1..p_max on the common window, from one QR.

    The regressors of order p are the first M*p columns of the order-p_max
    design, so one factorization gives every candidate's residuals.
    """
    n, m = x.shape
    design, target = _design(x, p_max)
    rows = design.shape[0]
    q, _ = np.linalg.qr(design)
    z = q.T @ target
    values = []
    for p in range(1, p_max + 1):
        resid = target - q[:, : m * p] @ z[: m * p]
        _, logdet = np.linalg.slogdet(resid.T @ resid / rows)
        values.append(n * logdet + 2 * p * m * m)
    for i in range(1, len(values) - 1):
        if values[i] < values[i - 1] and values[i] <= values[i + 1]:
            return i + 1
    return min(p_max, order_bound(n, m))


# ---------------------------------------------------------------- PDC

def pdc_values(coeffs: np.ndarray) -> tuple:
    """(PDC (F, M, M), degenerate column count) of one model, in one contraction."""
    p, m, _ = coeffs.shape
    phases = np.exp(-2j * np.pi * np.outer(FREQS_HZ / SAMPLING_RATE_HZ, np.arange(1, p + 1)))
    transfer = -np.einsum("fr,rij->fij", phases, coeffs)
    transfer[:, np.arange(m), np.arange(m)] += 1.0
    mags = np.abs(transfer)
    norms = np.sqrt((mags * mags).sum(axis=1, keepdims=True))
    degenerate = norms < DEGENERATE_COLUMN_NORM
    values = np.where(degenerate, 0.0, mags / np.where(degenerate, 1.0, norms))
    return np.clip(values, 0.0, 1.0), int(degenerate.sum())


def band_matrix(spectrum: np.ndarray) -> dict:
    out = {}
    for name, (lo, hi) in BANDS.items():
        mask = (FREQS_HZ >= lo) & (FREQS_HZ <= hi)
        out[name] = spectrum[mask].mean(axis=0)
    return out


# ---------------------------------------------------------------- cohort

def analyze_subject(samples: np.ndarray, labels, onsets_ms, pairs, groups, auto_order: bool):
    """One subject and condition: counts, band values (or None), chosen orders."""
    counts = {"segments_in": 0, "screened_out": 0, "failed_fit": 0, "used": 0,
              "unstable_models": 0, "degenerate_columns": 0,
              "fit_calls": 0, "scan_calls": 0}
    orders = []
    spectra = {g: [] for g in groups}
    col = {lab: i for i, lab in enumerate(labels)}
    for onset in onsets_ms:
        start = round(float(onset) * SAMPLING_RATE_HZ / 1000.0)
        seg = samples[start: start + EPOCH_ROWS]
        counts["segments_in"] += 1
        seg = seg - seg.mean(axis=0)
        if not screen_passes(seg):
            counts["screened_out"] += 1
            continue
        fitted = {}
        unstable = degenerate = 0
        for g in groups:
            sub = seg[:, [col[lab] for lab in g]]
            if auto_order:
                counts["scan_calls"] += 1
                p = scan_order(sub, P_SCAN_MAX)
                orders.append(p)
            else:
                p = FIXED_ORDER
            counts["fit_calls"] += 1
            coeffs = fit_coefficients(sub, p)
            if coeffs is None:
                break
            unstable += not is_stable(coeffs)
            fitted[g], n_degenerate = pdc_values(coeffs)
            degenerate += n_degenerate
        if len(fitted) < len(groups):
            counts["failed_fit"] += 1
            continue
        counts["used"] += 1
        counts["unstable_models"] += unstable
        counts["degenerate_columns"] += degenerate
        for g, values in fitted.items():
            spectra[g].append(values)
    if counts["used"] == 0:
        return counts, None, orders
    values = {}
    for g, stack in spectra.items():
        bands = band_matrix(np.clip(np.mean(stack, axis=0), 0.0, 1.0))
        for source, target in pairs:
            if source in g and target in g:
                i, j = g.index(target), g.index(source)
                for name, mat in bands.items():
                    values[(source, target, name)] = float(mat[i, j])
    return counts, values, orders


def analyze_cohort(cohort_a, cohort_b, onsets_ms, labels, auto_order: bool) -> dict:
    """Expected report content of a two-condition pipeline run.

    ``cohort_a``/``cohort_b`` are lists of (n, M) sample arrays, one per
    subject. Returns the fields the benchmark compares with the program's
    report, plus the layer counts that follow from the protocol, which every
    traced op must reproduce.
    """
    pairs = ordered_pairs(labels)
    groups = fit_groups(pairs)
    keys = [(s, t, b) for s, t in pairs for b in BANDS]
    conditions = {}
    per_subject = {}
    orders = []
    for name, cohort in (("a", cohort_a), ("b", cohort_b)):
        totals = None
        values = []
        for samples in cohort:
            counts, vals, chosen = analyze_subject(samples, labels, onsets_ms, pairs,
                                                   groups, auto_order)
            orders.extend(chosen)
            totals = counts if totals is None else {k: totals[k] + counts[k] for k in totals}
            values.append(vals)
        conditions[name] = totals
        per_subject[name] = values
    used = [i for i in range(len(cohort_a))
            if per_subject["a"][i] is not None and per_subject["b"][i] is not None]
    band_values = {c: {k: [per_subject[c][i][k] for i in used] for k in keys}
                   for c in ("a", "b")}
    tests = compare_family([band_values["a"][k] for k in keys],
                           [band_values["b"][k] for k in keys])

    def total(field):
        return sum(conditions[c][field] for c in "ab")

    # a failed epoch stops at its one failed fit; every other fit gives a model
    models = total("fit_calls") - total("failed_fit")
    return {
        "keys": keys,
        "subjects_used": used,
        "conditions": conditions,
        "band_values": band_values,
        "tests": dict(zip(keys, tests)),
        "orders": orders,
        "layer_counts": {
            "epochs_in": total("segments_in"),
            "screen_calls": total("segments_in"),
            "screen_passed": total("segments_in") - total("screened_out"),
            "fit_calls": total("fit_calls"),
            "stability_calls": models,
            "scan_calls": total("scan_calls"),
            "transform_calls": models,
            "wilcoxon_calls": len(keys),
        },
    }


# ---------------------------------------------------------------- tests

def _midranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.size)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i: j + 1]] = (i + j + 2) / 2.0
        i = j + 1
    return ranks


@lru_cache(maxsize=None)
def _cumulative_counts(n: int) -> tuple:
    """Sign assignments of ranks 1..n with positive-rank sum <= w, for each w."""
    counts = [1] + [0] * (n * (n + 1) // 2)
    for k in range(1, n + 1):
        for w in range(len(counts) - 1, k - 1, -1):
            counts[w] += counts[w - k]
    cumulative, running = [], 0
    for c in counts:
        running += c
        cumulative.append(running)
    return tuple(cumulative)


def signed_rank(a, b):
    """(W, n_effective, p_raw, exact) or None when every difference is zero."""
    diffs = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    diffs = diffs[diffs != 0.0]
    n = diffs.size
    if n == 0:
        return None
    magnitude = np.abs(diffs)
    ranks = _midranks(magnitude)
    w = min(float(ranks[diffs > 0].sum()), float(ranks[diffs < 0].sum()))
    _, ties = np.unique(magnitude, return_counts=True)
    if n <= EXACT_THRESHOLD and ties.size == n:
        p = min(1.0, 2.0 * _cumulative_counts(n)[int(round(w))] / 2.0 ** n)
        return w, n, p, True
    mean = n * (n + 1) / 4.0
    variance = n * (n + 1) * (2 * n + 1) / 24.0
    variance -= float(sum(float(t) ** 3 - t for t in ties)) / 48.0
    z = (w - mean + 0.5) / math.sqrt(variance)
    return w, n, min(1.0, 2.0 * float(ndtr(z))), False


def _direction(a, b) -> str:
    med = float(np.median(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))
    return "a_greater" if med > 0 else "b_greater" if med < 0 else "none"


def compare_family(values_a, values_b) -> list:
    """Expected test rows, in key order, for one family of paired samples."""
    outcomes = [signed_rank(a, b) for a, b in zip(values_a, values_b)]
    raw = np.array([1.0 if o is None else o[2] for o in outcomes])
    order = np.argsort(raw, kind="stable")
    scaled = raw[order] * (raw.size - np.arange(raw.size))
    adjusted = np.empty(raw.size)
    adjusted[order] = np.minimum(np.maximum.accumulate(scaled), 1.0)
    rows = []
    for o, adj, a, b in zip(outcomes, adjusted, values_a, values_b):
        untestable = o is None
        rows.append({
            "n": 0 if untestable else o[1],
            "W": None if untestable else o[0],
            "p_raw": 1.0 if untestable else o[2],
            "p_adjusted": float(adj),
            "significant": bool(adj <= ALPHA),
            "untestable": untestable,
            "direction": "none" if untestable else _direction(a, b),
            "exact": False if untestable else o[3],
        })
    return rows
