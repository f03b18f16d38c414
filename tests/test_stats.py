import csv
import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.stats import norm, rankdata

import pdckit.stats

from pdckit import (
    DIRECTION_A_GREATER,
    DIRECTION_B_GREATER,
    DIRECTION_NONE,
    DegenerateSampleError,
    PairedSample,
    compare_conditions,
    format_pair,
    holm_bonferroni,
    wilcoxon_signed_rank,
)
from pdckit.stats import (
    DEFAULT_EXACT_THRESHOLD,
    PairedTestResult,
    WilcoxonOutcome,
    _erf,
    _erfc,
    _key_label,
    _ndtr,
    _signed_rank_cumulative_counts,
    write_test_table_csv,
)


def _sample(a, b):
    return PairedSample(condition_a=tuple(a), condition_b=tuple(b))


def _enumerated_p(diffs):
    """Two-sided signed-rank p by brute force over all sign assignments.

    Ranks are tied to |d|; every one of the 2^n sign patterns is equally
    likely under the null, so the p-value is the mass of patterns whose
    min(W+, W-) is at most the observed one.
    """
    diffs = np.asarray(diffs, dtype=float)
    diffs = diffs[diffs != 0.0]
    n = diffs.size
    ranks = rankdata(np.abs(diffs))
    total = ranks.sum()
    observed = min(ranks[diffs > 0].sum(), ranks[diffs < 0].sum())
    hits = 0
    for signs in itertools.product((0, 1), repeat=n):
        w_plus = sum(r for r, s in zip(ranks, signs) if s)
        if min(w_plus, total - w_plus) <= observed + 1e-9:
            hits += 1
    return hits / 2.0**n


# -------------------------------------------------------------- paired input


def test_paired_sample_validation():
    with pytest.raises(ValueError):
        _sample([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        _sample([], [])
    with pytest.raises(ValueError):
        _sample([1.0, float("nan")], [0.0, 0.0])
    s = _sample([1.0, 2.0], [0.5, 0.5])
    assert s.n_pairs == 2


# ------------------------------------------------------------------ wilcoxon


def test_all_positive_five_pair_sample():
    # smallest possible two-sided p at n=5 is 2/32
    out = wilcoxon_signed_rank(_sample([2.0, 3.0, 1.5, 4.0, 2.5], [1.0] * 5))
    assert out.statistic_w == 0.0
    assert out.n_effective == 5
    assert out.p_raw == 0.0625
    assert type(out.p_raw) is float  # as WilcoxonOutcome declares, not np.float64


def test_single_flipped_pair_at_n5():
    # flipping the smallest |d| gives W = 1 and p = 4/32
    out = wilcoxon_signed_rank(_sample([2.0, 3.0, 0.5, 4.0, 2.5], [1.0] * 5))
    assert out.statistic_w == 1.0
    assert out.p_raw == 0.125


def test_zero_differences_are_discarded():
    out = wilcoxon_signed_rank(_sample([1.0, 2.0, 3.0, 7.0, 9.0, 11.0],
                                       [1.0, 2.0, 3.0, 1.0, 1.0, 1.0]))
    assert out.n_effective == 3
    assert out.p_raw == 0.25  # all-positive n=3: 2/8


def test_all_zero_differences_raise():
    with pytest.raises(DegenerateSampleError):
        wilcoxon_signed_rank(_sample([1.0, 2.0], [1.0, 2.0]))


def test_exact_path_matches_enumeration_for_small_n():
    rng = np.random.default_rng(77)
    for trial in range(100):
        n = int(rng.integers(4, 13))
        diffs = rng.normal(size=n)
        out = wilcoxon_signed_rank(_sample(diffs, np.zeros(n)))
        assert out.p_raw == pytest.approx(_enumerated_p(diffs), abs=1e-12), (
            f"trial {trial}: n={n}"
        )


def _reference_outcome(diffs):
    """The test spelled out with scipy's mid-ranks and normal cdf."""
    diffs = diffs[diffs != 0.0]
    n = diffs.size
    ranks = rankdata(np.abs(diffs), method="average")
    w = min(float(ranks[diffs > 0].sum()), float(ranks[diffs < 0].sum()))
    _, ties = np.unique(np.abs(diffs), return_counts=True)
    if n <= DEFAULT_EXACT_THRESHOLD and ties.size == n:
        return w, n, min(1.0, 2.0 * _signed_rank_cumulative_counts(n)[int(round(w))] / 2.0**n)
    variance = n * (n + 1) * (2 * n + 1) / 24.0
    variance -= float((ties.astype(float) ** 3 - ties).sum()) / 48.0
    z = (w - n * (n + 1) / 4.0 + 0.5) / math.sqrt(variance)
    return w, n, min(1.0, 2.0 * float(norm.cdf(z)))


def test_ties_in_absolute_differences_use_midranks():
    # |d| = 1, 1, 2, 3: the tied pair shares rank 1.5 in the approx path
    diffs = np.array([1.0, -1.0, 2.0, 3.0, 4.0, -5.0, 6.0, 7.0, -8.0, 9.0])
    out = wilcoxon_signed_rank(_sample(diffs, np.zeros(10)))
    ranks = rankdata(np.abs(diffs))
    w_plus = ranks[diffs > 0].sum()
    w = min(w_plus, ranks.sum() - w_plus)
    assert out.statistic_w == w
    # seeded property: ties, zeros of either sign, n up to 100 on both sides of the
    # exact threshold; the -0.0 differences must be discarded like the +0.0 ones
    rng = np.random.default_rng(1945)
    branches = set()
    tied_above_44 = set()
    negative_zero = False
    for trial in range(3000):
        n = int(rng.integers(1, 101))
        if trial % 2:
            diffs = rng.integers(-4, 5, size=n) * 0.25  # heavy ties and zeros
        else:
            diffs = np.where(rng.random(n) < 0.2, 0.0, rng.normal(size=n))
        diffs = np.where(diffs == 0.0, rng.choice([0.0, -0.0], size=n), diffs)
        if not diffs.any():
            continue
        out = wilcoxon_signed_rank(_sample(diffs, np.zeros(n)))
        assert tuple(out) == _reference_outcome(diffs), f"trial {trial}: {diffs!r}"
        nonzero = np.abs(diffs[diffs != 0.0])
        tied = np.unique(nonzero).size < nonzero.size
        branches.add(("approx" if tied or nonzero.size > DEFAULT_EXACT_THRESHOLD else "exact",
                      tied))
        if nonzero.size > 44:
            tied_above_44.add(tied)
        negative_zero |= bool(np.signbit(diffs[diffs == 0.0]).any())
    assert branches == {("exact", False), ("approx", False), ("approx", True)}
    assert tied_above_44 == {False, True}  # both approximate branches above n = 44
    assert negative_zero


def test_cached_count_table_is_read_only():
    # every exact p-value at one n reads the same cached table
    table = _signed_rank_cumulative_counts(5)
    with pytest.raises(ValueError):
        table[0] = 16
    out = wilcoxon_signed_rank(_sample([2.0, 3.0, 1.5, 4.0, 2.5], [1.0] * 5))
    assert out.p_raw == 0.0625


def test_exact_threshold_is_not_a_keyword():
    # the threshold is the fixed DEFAULT_EXACT_THRESHOLD
    sample = _sample([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
    with pytest.raises(TypeError):
        wilcoxon_signed_rank(sample, exact_threshold=25)
    with pytest.raises(TypeError):
        compare_conditions({"k": [1.0]}, {"k": [0.0]}, exact_threshold=25)


def test_normal_approximation_formula():
    # hand-check the continuity-corrected z against the closed form
    rng = np.random.default_rng(5)
    diffs = rng.normal(loc=0.4, size=30)
    out = wilcoxon_signed_rank(_sample(diffs, np.zeros(30)))
    n = 30
    ranks = rankdata(np.abs(diffs))
    w_plus = ranks[diffs > 0].sum()
    w = min(w_plus, n * (n + 1) / 2 - w_plus)
    sigma = math.sqrt(n * (n + 1) * (2 * n + 1) / 24.0)
    z = (w - n * (n + 1) / 4.0 + 0.5) / sigma
    assert out.p_raw == pytest.approx(min(1.0, 2.0 * norm.cdf(z)), rel=1e-12)


def _normal_branch_z(n, tie_counts=None):
    """Every z the normal branch forms for n pairs with these tie group sizes, in
    `wilcoxon_signed_rank`'s arithmetic: W from 0 to n(n+1)/2 in steps of 1, or of
    1/2 with ties."""
    mean = n * (n + 1) / 4.0
    variance = n * (n + 1) * (2 * n + 1) / 24.0
    step = 1.0
    if tie_counts is not None:
        variance -= float((tie_counts ** 3 - tie_counts).sum()) / 48.0
        step = 0.5
    sd = math.sqrt(variance)
    return [(w - mean + 0.5) / sd for w in np.arange(0.0, n * (n + 1) / 2.0 + step, step)]


def _tie_counts(rng, n):
    """Tie group sizes of n magnitudes drawn from fewer than n values, so some tie."""
    magnitudes = rng.integers(0, rng.integers(1, n), size=n)
    return np.unique(magnitudes, return_counts=True)[1]


def _with_neighbours(values, ulps=4):
    """Each value and its `ulps` nearest floats on either side."""
    out = []
    for v in values:
        below = above = v
        out.append(v)
        for _ in range(ulps):
            below = math.nextafter(below, -math.inf)
            above = math.nextafter(above, math.inf)
            out += [below, above]
    return out


def _assert_same_bits(port, reference, xs):
    x = np.array(xs)
    got = np.array([port(v) for v in xs])
    expected = reference(x)
    differ = np.flatnonzero(got.view(np.uint64) != expected.view(np.uint64))
    assert differ.size == 0, (
        f"{differ.size} of {x.size} differ, first at {x[differ[0]]!r}: "
        f"{got[differ[0]]!r} vs {expected[differ[0]]!r}")


def test_normal_tail_is_bit_identical_to_scipy_ndtr():
    # _ndtr ports Cephes' ndtr, which scipy.special.ndtr runs; a changed coefficient
    # or branch point shows as a different last bit somewhere in this set
    rng = np.random.default_rng(20261018)
    zs = []
    for n in range(1, 63):
        zs += _normal_branch_z(n)
    for _ in range(200):
        n = int(rng.integers(2, 63))
        zs += _normal_branch_z(n, _tie_counts(rng, n))
    zs += rng.uniform(-40.0, 40.0, size=100_000).tolist()
    root2 = math.sqrt(2.0)
    zs += _with_neighbours([0.0, -0.0, 1.0, -1.0, root2, -root2, 8 * root2, -8 * root2])
    zs += [math.inf, -math.inf]
    _assert_same_bits(_ndtr, scipy.special.ndtr, zs)


@pytest.mark.parametrize("port, reference", [(_erf, scipy.special.erf),
                                             (_erfc, scipy.special.erfc)])
def test_erf_and_erfc_are_bit_identical_to_scipy(port, reference):
    # _ndtr calls erf only below 1/sqrt(2) and erfc only at x >= 0; this set takes
    # each of their branches (26.64 is about sqrt(MAXLOG), where erfc reaches 0 or 2)
    xs = np.random.default_rng(27).uniform(-30.0, 30.0, size=20_000).tolist()
    xs += _with_neighbours([0.0, -0.0, 1.0, -1.0, 8.0, -8.0, 26.64, -26.64])
    _assert_same_bits(port, reference, xs + [math.inf, -math.inf])


def test_exact_p_never_exceeds_one():
    # balanced signs push min(W+, W-) to its ceiling; p must clamp at 1
    diffs = np.array([1.0, -2.0, 3.0, -4.0, 5.0, -6.0])
    out = wilcoxon_signed_rank(_sample(diffs, np.zeros(6)))
    assert 0.0 < out.p_raw <= 1.0


# ---------------------------------------------------------------------- holm


def test_holm_three_value_example():
    adjusted = holm_bonferroni([0.01, 0.02, 0.04], alpha=0.05)
    assert [round(p, 10) for p, _ in adjusted] == [0.03, 0.04, 0.04]
    assert [r for _, r in adjusted] == [True, True, True]


def test_holm_preserves_input_order():
    adjusted = holm_bonferroni([0.04, 0.01, 0.02], alpha=0.05)
    assert [round(p, 10) for p, _ in adjusted] == [0.04, 0.03, 0.04]


def test_holm_properties_on_random_vectors():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        m = int(rng.integers(1, 12))
        raw = rng.uniform(size=m)
        adjusted = holm_bonferroni(raw, alpha=0.05)
        adj = np.array([p for p, _ in adjusted])
        rejected = np.array([r for _, r in adjusted])
        assert np.all(adj >= raw - 1e-15)
        assert np.all(adj <= np.minimum(1.0, m * raw) + 1e-15)
        assert np.all(adj <= 1.0)
        # step-down consistency: rejections are a prefix of the sorted order
        order = np.argsort(raw, kind="stable")
        flags = rejected[order]
        if not flags.all():
            first_keep = int(np.argmin(flags))
            assert not flags[first_keep:].any()
        # rejection iff adjusted p at most alpha
        assert np.array_equal(rejected, adj <= 0.05)


@pytest.mark.parametrize("p_values", [
    np.array(0.5), 0.5, np.float64(0.5), None, [], np.array([]), [[0.5]], np.array([[0.1, 0.2]]),
], ids=["0-d array", "float", "numpy scalar", "None", "empty list", "empty array",
        "nested list", "2-D array"])
def test_holm_refuses_what_is_not_a_non_empty_1d_collection(p_values):
    with pytest.raises(ValueError, match="^p_values must be a non-empty 1-D collection$"):
        holm_bonferroni(p_values)


def test_holm_reads_a_generator():
    assert holm_bonferroni(p for p in (0.04, 0.01)) == holm_bonferroni([0.04, 0.01])


def test_holm_rejects_invalid_input():
    with pytest.raises(ValueError):
        holm_bonferroni([0.5, 1.5])
    with pytest.raises(ValueError):
        holm_bonferroni([])
    with pytest.raises(ValueError):
        holm_bonferroni([0.5], alpha=0.0)


# --------------------------------------------------------- condition compare


def _band_tables(rng, keys, n, shift=None):
    a, b = {}, {}
    for key in keys:
        base = rng.uniform(0.2, 0.6, size=n)
        noise = rng.normal(scale=0.01, size=n)
        delta = shift.get(key, 0.0) if shift else 0.0
        a[key] = tuple(base)
        b[key] = tuple(base + noise + delta)
    return a, b


def test_compare_conditions_flags_a_shifted_key():
    rng = np.random.default_rng(21)
    keys = [(("f", "t"), band) for band in ("theta", "alpha")]
    a, b = _band_tables(rng, keys, n=12, shift={keys[0]: 0.2})
    results = compare_conditions(a, b, alpha=0.05)
    assert set(results) == set(keys)
    hit = results[keys[0]]
    assert hit.significant
    assert hit.direction == DIRECTION_B_GREATER
    assert results[keys[1]].p_adjusted >= results[keys[1]].p_raw


def test_compare_conditions_requires_matching_keys():
    rng = np.random.default_rng(3)
    keys = [(("f", "t"), "theta")]
    a, b = _band_tables(rng, keys, n=6)
    with pytest.raises(ValueError):
        compare_conditions(a, {})
    b_extra = dict(b)
    b_extra[(("f", "t"), "alpha")] = b[keys[0]]
    with pytest.raises(ValueError):
        compare_conditions(a, b_extra)


def test_compare_conditions_keeps_untestable_keys_in_family():
    rng = np.random.default_rng(4)
    keys = [(("f", "t"), "theta"), (("f", "t"), "alpha"), (("f", "t"), "beta1")]
    a, b = _band_tables(rng, keys, n=10, shift={keys[0]: 0.3})
    # identical values: all paired differences are zero
    a[keys[2]] = b[keys[2]] = tuple(np.full(10, 0.4))
    results = compare_conditions(a, b, alpha=0.05)
    dead = results[keys[2]]
    assert dead.untestable
    assert math.isnan(dead.statistic_w)
    assert dead.n_effective == 0
    assert dead.p_raw == 1.0
    assert dead.p_adjusted == 1.0
    assert not dead.significant
    assert dead.direction == DIRECTION_NONE
    # the untestable key still counts toward the Holm family of 3
    live = results[keys[0]]
    assert live.p_adjusted == pytest.approx(min(1.0, 3.0 * live.p_raw))


def test_compare_conditions_direction_follows_median():
    rng = np.random.default_rng(8)
    keys = [(("x", "y"), "theta")]
    a, b = _band_tables(rng, keys, n=10, shift={keys[0]: -0.2})
    results = compare_conditions(a, b)
    assert results[keys[0]].direction == DIRECTION_A_GREATER


def test_compare_conditions_direction_is_the_sign_of_the_median():
    rng = np.random.default_rng(1946)
    keys = [(("x", "y"), f"b{i}") for i in range(20)]
    for _ in range(100):
        a, b, expected = {}, {}, {}
        for key in keys:
            n = int(rng.integers(1, 25))  # odd and even
            kind = int(rng.integers(0, 4))
            if kind == 0:
                diffs = rng.normal(size=n)
            elif kind == 1:
                diffs = rng.integers(-2, 3, size=n) * 0.5  # ties and zeros
            elif kind == 2:
                diffs = rng.choice([-0.0, 0.0, 1.0, -1.0], size=n)
            else:
                diffs = np.where(rng.random(n) < 0.5, 0.0, rng.normal(size=n))
            base = np.zeros(n) if kind == 2 else rng.uniform(0.2, 0.6, size=n)
            a[key], b[key] = tuple(base + diffs), tuple(base)
            median = np.median(np.asarray(a[key]) - np.asarray(b[key]))
            expected[key] = (DIRECTION_A_GREATER if median > 0 else
                             DIRECTION_B_GREATER if median < 0 else DIRECTION_NONE)
        results = compare_conditions(a, b)
        assert {k: r.direction for k, r in results.items()} == expected


def test_compare_conditions_tests_ragged_keys_on_their_own_pairs():
    rng = np.random.default_rng(12)
    sizes = {(("f", "t"), "theta"): 6, (("f", "t"), "alpha"): 11,
             (("t", "f"), "theta"): 30, (("t", "f"), "alpha"): 3}
    a = {k: tuple(rng.normal(size=n)) for k, n in sizes.items()}
    b = {k: tuple(rng.normal(size=n)) for k, n in sizes.items()}
    b[(("t", "f"), "alpha")] = a[(("t", "f"), "alpha")]  # untestable
    results = compare_conditions(a, b, alpha=0.05)
    raw = []
    for key, n in sizes.items():
        res = results[key]
        if key == (("t", "f"), "alpha"):
            assert res.untestable and res.n_effective == 0
            raw.append(1.0)
            continue
        alone = wilcoxon_signed_rank(_sample(a[key], b[key]))
        assert (res.statistic_w, res.n_effective, res.p_raw) == tuple(alone)
        assert res.n_effective == n
        raw.append(alone.p_raw)
    adjusted = [p for p, _ in holm_bonferroni(raw)]
    assert [results[k].p_adjusted for k in sizes] == adjusted


def test_results_hold_python_scalars():
    # report writers and callers get plain Python values, never numpy scalars
    rng = np.random.default_rng(1979)
    keys = [(("x", "y"), f"b{i}") for i in range(6)]
    a, b = _band_tables(rng, keys, n=20, shift={keys[0]: 0.5})
    # 20 differences with at most 3 magnitudes: tied, so the normal branch
    a[keys[1]], b[keys[1]] = tuple(rng.integers(-3, 4, size=20) * 0.5), (0.0,) * 20
    b[keys[2]] = a[keys[2]]  # untestable
    results = compare_conditions(a, b)
    assert results[keys[2]].untestable and results[keys[1]].n_effective > 3
    for res in results.values():
        for field in dataclasses.fields(res):
            allowed = (str,) if field.name == "direction" else (float, int, bool)
            assert type(getattr(res, field.name)) in allowed, field.name
    for alpha in (0.05, np.float64(0.05)):
        for p_adjusted, reject in holm_bonferroni(np.array([0.001, 0.2, 0.03]), alpha=alpha):
            assert type(p_adjusted) is float and type(reject) is bool


@pytest.mark.parametrize("key, label", [
    ((("F3", "F4"), "alpha"), "F3->F4/alpha"),
    ("k1", "'k1'"),
])
def test_compare_conditions_errors_name_the_key(key, label):
    good = (("F3", "T5"), "theta")
    a = {good: (1.0, 2.0, 3.0), key: (1.0, 2.0)}
    b = {good: (0.0, 0.0, 0.0), key: (1.0, 2.0, 3.0)}
    with pytest.raises(ValueError, match=f"^{re.escape(label)}: paired lengths differ: 2 vs 3$"):
        compare_conditions(a, b)
    b[key] = (1.0, float("nan"))
    with pytest.raises(ValueError, match=f"^{re.escape(label)}: paired values must be finite$"):
        compare_conditions(a, b)


def _direction_from_sorted_list(diffs):
    ordered = sorted(diffs.tolist())
    n = len(ordered)
    med = (ordered[(n - 1) // 2] + ordered[n // 2]) / 2.0
    if med > 0.0:
        return DIRECTION_A_GREATER
    if med < 0.0:
        return DIRECTION_B_GREATER
    return DIRECTION_NONE


def _compare_key_by_key(band_values_a, band_values_b, alpha=0.05):
    """`compare_conditions` as one loop over the keys: a PairedSample, a test and a
    median per key, then one Holm correction. The reference for every family."""
    if set(band_values_a) != set(band_values_b):
        missing = set(band_values_a) ^ set(band_values_b)
        raise ValueError(f"condition maps differ in keys: {sorted(missing)!r}")
    if not band_values_a:
        raise ValueError("no hypotheses to test")
    tested = {}
    for key in band_values_a:
        try:
            sample = PairedSample(condition_a=band_values_a[key], condition_b=band_values_b[key])
        except ValueError as exc:
            raise ValueError(f"{_key_label(key)}: {exc}") from exc
        try:
            outcome = wilcoxon_signed_rank(sample)
        except DegenerateSampleError:
            outcome = WilcoxonOutcome(statistic_w=math.nan, n_effective=0, p_raw=1.0)
        tested[key] = outcome, _direction_from_sorted_list(sample.condition_a - sample.condition_b)
    corrected = holm_bonferroni([outcome.p_raw for outcome, _ in tested.values()], alpha=alpha)
    return {
        key: PairedTestResult(*outcome, p_adjusted=p_adj, significant=reject,
                              direction=direction, untestable=outcome.n_effective == 0)
        for (key, (outcome, direction)), (p_adj, reject) in zip(tested.items(), corrected)
    }


def _key_values(rng, n, kind):
    """One key's (a, b) of n pairs: distinct (exact), tied, all-zero or +-0 differences."""
    base = rng.uniform(0.2, 0.6, size=n)
    if kind == "exact":
        return base + rng.normal(size=n), base
    if kind == "tied":
        return base + rng.integers(-2, 3, size=n) * 0.5, base
    if kind == "zero":
        return base, base.copy()
    signed_zeros = rng.choice([-0.0, 0.0, 0.0, 1.0, -1.0], size=n)
    return signed_zeros, np.zeros(n)


def _as(container, values):
    if container == "list":
        return values.tolist()
    if container == "tuple":
        return tuple(values.tolist())
    if container == "float32":
        return values.astype(np.float32)
    return np.round(values * 4).astype(int).tolist()  # Python ints


def _corrupt(a, b, key, fault):
    if fault == "nan":
        a[key] = list(a[key])[:-1] + [math.nan]
    elif fault == "inf":
        b[key] = [-math.inf] + list(b[key])[1:]
    elif fault == "length":
        b[key] = list(b[key]) + [0.5]
    elif fault == "empty":
        a[key], b[key] = [], []
    elif fault == "2-D":
        a[key] = [[v] for v in list(a[key])]
    elif fault == "scalar":
        a[key], b[key] = 1.0, 0.5
    else:
        a[key] = None


@st.composite
def _families(draw, shapes=("rectangular", "ragged", "refused")):
    """Band-value maps of 1-12 keys: rectangular, ragged, or one key that breaks the rule."""
    shape = draw(st.sampled_from(shapes))
    n_keys = draw(st.integers(1, 12))
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keys = [(("F3", f"c{i % 3}"), f"b{i}") for i in range(n_keys)]
    a, b = {}, {}
    for key in keys:
        size = draw(st.integers(1, 30)) if shape == "ragged" else n
        kind = draw(st.sampled_from(["exact", "tied", "zero", "signed-zero"]))
        container = draw(st.sampled_from(["list", "tuple", "float32", "int"]))
        values_a, values_b = _key_values(rng, size, kind)
        a[key], b[key] = _as(container, values_a), _as(container, values_b)
    if shape == "refused":
        fault = draw(st.sampled_from(["nan", "inf", "length", "empty", "2-D", "scalar", "None"]))
        _corrupt(a, b, draw(st.sampled_from(keys)), fault)
    return a, b


def _outcome(compare, a, b):
    try:
        results = compare(a, b)
    except Exception as exc:  # the refusal itself is the outcome compared
        return type(exc), str(exc)
    return repr([(key, [(f.name, type(getattr(res, f.name)), getattr(res, f.name))
                        for f in dataclasses.fields(res)])
                 for key, res in results.items()])


@settings(max_examples=300, deadline=None)
@given(family=_families())
def test_compare_conditions_matches_the_key_by_key_loop(family):
    a, b = family
    assert _outcome(compare_conditions, a, b) == _outcome(_compare_key_by_key, a, b)


_FLIPPED = {DIRECTION_A_GREATER: DIRECTION_B_GREATER, DIRECTION_B_GREATER: DIRECTION_A_GREATER,
            DIRECTION_NONE: DIRECTION_NONE}
_TESTED = _families(shapes=("rectangular", "ragged"))


def _fields(res, *skip):
    """A result's fields but `skip`, with NaN written as None so that NaN equals NaN."""
    return {f.name: None if f.name == "statistic_w" and math.isnan(res.statistic_w)
            else getattr(res, f.name) for f in dataclasses.fields(res) if f.name not in skip}


@settings(max_examples=100, deadline=None)
@given(family=_TESTED)
def test_swapping_the_conditions_flips_only_the_directions(family):
    a, b = family
    forward, swapped = compare_conditions(a, b), compare_conditions(b, a)
    assert list(swapped) == list(forward)
    for key, res in forward.items():
        assert _fields(swapped[key], "direction") == _fields(res, "direction")
        assert swapped[key].direction == _FLIPPED[res.direction]


@settings(max_examples=100, deadline=None)
@given(family=_TESTED, seed=st.integers(0, 2**32 - 1))
def test_results_do_not_depend_on_the_order_of_subjects_or_keys(family, seed):
    a, b = family
    rng = np.random.default_rng(seed)
    results = {key: repr(res) for key, res in compare_conditions(a, b).items()}
    # the subjects of each key in one new order, the same in both conditions
    orders = {key: rng.permutation(len(a[key])).tolist() for key in a}
    shuffled = [{key: [values[key][i] for i in orders[key]] for key in a}
                for values in (a, b)]
    assert {key: repr(res) for key, res in compare_conditions(*shuffled).items()} == results
    keys = [list(a)[i] for i in rng.permutation(len(a))]
    reordered = compare_conditions({key: a[key] for key in keys}, {key: b[key] for key in keys})
    assert list(reordered) == keys
    assert {key: repr(res) for key, res in reordered.items()} == results


@pytest.mark.parametrize("ragged", [False, True])
def test_each_key_gets_a_checked_sample_and_one_call(monkeypatch, ragged):
    rng = np.random.default_rng(2024)
    keys = [((f"c{i % 4}", f"c{i // 4 % 3}"), f"b{i}") for i in range(48)]
    a, b = {}, {}
    for i, key in enumerate(keys):
        n = 10 + i % 5 if ragged else 20
        values_a, values_b = _key_values(rng, n, ["exact", "tied", "zero", "signed-zero"][i % 4])
        a[key], b[key] = values_a.tolist(), values_b.tolist()
    samples, holm_calls = [], []
    real_wilcoxon, real_holm = pdckit.stats.wilcoxon_signed_rank, pdckit.stats.holm_bonferroni

    def wilcoxon(sample):
        samples.append(sample)
        return real_wilcoxon(sample)

    def holm(p_values, alpha):
        holm_calls.append(len(p_values))
        return real_holm(p_values, alpha=alpha)

    monkeypatch.setattr(pdckit.stats, "wilcoxon_signed_rank", wilcoxon)
    monkeypatch.setattr(pdckit.stats, "holm_bonferroni", holm)
    results = compare_conditions(a, b)
    assert len(samples) == 48 and holm_calls == [48]
    for res in results.values():  # each result also passes the public constructor's rule
        rebuilt = PairedTestResult(**{f.name: getattr(res, f.name)
                                      for f in dataclasses.fields(res)})
        assert repr(rebuilt) == repr(res)
    for sample, key in zip(samples, keys):
        for values, given_values in ((sample.condition_a, a[key]), (sample.condition_b, b[key])):
            assert values.ndim == 1 and values.dtype == np.float64
            assert values.size == len(given_values) > 0
            assert np.isfinite(values).all()
            assert values.tolist() == given_values
        checked = PairedSample(sample.condition_a, sample.condition_b)
        assert np.array_equal(checked.condition_a, sample.condition_a)
        assert np.array_equal(checked.condition_b, sample.condition_b)


def test_a_generator_value_is_refused_unread():
    values = (v for v in (1.0, 2.0))
    message = "float() argument must be a string or a real number, not 'generator'"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        compare_conditions({"k": values, "j": [1.0, 2.0]}, {"k": [0.0, 0.0], "j": [0.0, 1.0]})
    assert list(values) == [1.0, 2.0]



# ----------------------------------------------------------------------- io


def test_format_pair():
    assert format_pair(("F3", "T5")) == "F3->T5"


def test_test_table_csv_layout(tmp_path):
    rng = np.random.default_rng(14)
    keys = [(("f", "t"), "theta"), (("f", "t"), "alpha")]
    a, b = _band_tables(rng, keys, n=8, shift={keys[0]: 0.25})
    a[keys[1]] = b[keys[1]] = tuple(np.full(8, 0.3))  # untestable row
    results = compare_conditions(a, b, alpha=0.05)
    path = tmp_path / "table.csv"
    write_test_table_csv(results, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["pair", "direction", "band", "n", "W",
                       "p_raw", "p_adjusted", "significant"]
    by_band = {row[2]: row for row in rows[1:]}
    live = by_band["theta"]
    assert live[0] == "f->t"
    assert live[3] == "8"
    assert float(live[5]) <= float(live[6])
    assert live[7] in ("true", "false")
    dead = by_band["alpha"]
    assert dead[3] == "0"
    assert dead[4] == ""
    assert float(dead[5]) == 1.0
    assert dead[7] == "false"
