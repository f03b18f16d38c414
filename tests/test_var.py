import json
import math
import re
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pdckit import (
    EstimationError,
    GeneratorSpec,
    Recording,
    VarModel,
    aic,
    check_stability,
    choose_order_from_aic,
    fit_var,
    generate,
    max_order_bound,
    screen_stationarity,
    select_order,
)
from pdckit.var import (
    RULE_CAPPED_BY_BOUND,
    RULE_FIRST_LOCAL_MINIMUM,
    _companion_shift,
    _joint_design,
    _qr_top_rows,
    _upper_trapezoid,
    companion_matrix,
    read_model_json,
    spectral_radius,
    write_model_json,
)

from conftest import random_stable_var


def build_design(samples, p):
    """The lagged design and target of a VAR(p) regression, as two arrays."""
    joint = _joint_design(samples, p).copy()
    k = samples.shape[1] * p
    return joint[:, :k], joint[:, k:]


def _segment(samples, fs=250.0):
    samples = np.asarray(samples, dtype=float)
    return Recording(
        samples=samples,
        sampling_rate_hz=fs,
        channel_labels=tuple(f"ch{i + 1}" for i in range(samples.shape[1])),
    )


def _simulate(coeffs, n, seed, m=None):
    coeffs = np.asarray(coeffs, dtype=float)
    m = coeffs.shape[1] if m is None else m
    rec = generate(
        GeneratorSpec(
            coeff_matrices=coeffs,
            innovation_covariance=np.eye(m),
            n_samples=n,
            seed=seed,
            sampling_rate_hz=250.0,
        )
    )
    return _segment(rec.samples)


# ------------------------------------------------------------------- fitting


def test_fit_reproduces_exact_linear_recurrence():
    # noise-free AR(1): x(t) = 0.5 x(t-1) starting from 1, single channel
    x = 0.5 ** np.arange(30.0)
    model, resid = fit_var(_segment(x[:, None]), 1)
    assert model.order_p == 1
    assert model.n_samples_used == 29
    assert_allclose(model.coeff_matrices[0], [[0.5]], atol=1e-12)
    assert_allclose(resid, np.zeros((29, 1)), atol=1e-12)
    assert_allclose(model.residual_covariance, [[0.0]], atol=1e-24)


def test_fit_residual_covariance_uses_row_count_denominator():
    rng = np.random.default_rng(5)
    seg = _segment(rng.normal(size=(100, 2)))
    model, resid = fit_var(seg, 3)
    assert model.n_samples_used == 97
    assert_allclose(model.residual_covariance, resid.T @ resid / 97.0, rtol=1e-12)


def test_fit_with_one_spare_row_accepts_a_large_singular_covariance():
    # 5 rows, 4 coefficients per equation: the 4x4 covariance has rank 1,
    # and its rounding scales with the data (about -1e-6 here)
    samples = 1e5 * np.random.default_rng(3).normal(size=(6, 4))
    model, _ = fit_var(_segment(samples), 1)
    assert np.linalg.matrix_rank(model.residual_covariance) == 1


@pytest.mark.parametrize("cov", [[[1.0, 2.0], [2.0, 1.0]], [[1e10, 0.0], [0.0, -1e3]],
                                 [[1.0, 1e-7], [0.0, 1.0]]])
def test_model_rejects_a_covariance_that_is_not_symmetric_psd(cov):
    with pytest.raises(ValueError, match="residual_covariance"):
        VarModel(order_p=1, coeff_matrices=np.zeros((1, 2, 2)), residual_covariance=cov,
                 n_samples_used=10, channel_labels=("a", "b"))


def test_fit_rejects_orders_without_enough_rows():
    seg = _segment(np.random.default_rng(0).normal(size=(10, 2)))
    with pytest.raises(ValueError):
        fit_var(seg, 0)
    with pytest.raises(ValueError):
        fit_var(seg, 9)  # no regression rows left


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("consume, message", [
    (lambda r: fit_var(r, 1), r"order 1 breaks N - p >= M\*p \+ 1 for N={n} samples"),
    (lambda r: select_order(r, 1), r"order 1 breaks N - p >= M\*p \+ 1 for N={n} samples"),
    (screen_stationarity, r"segment of {n} samples is too short for 3 windows"),
], ids=["fit_var", "select_order", "screen_stationarity"])
def test_every_epoch_consumer_refuses_a_recording_of_two_rows_or_fewer(n, consume, message):
    if n == 0:  # no consumer can be handed one: the container refuses 0 rows
        with pytest.raises(ValueError, match=r"at least one row and one channel, got shape \(0, 2\)"):
            Recording(np.zeros((0, 2)), 250.0, ("a", "b"))
        return
    short = Recording(np.arange(2.0 * n).reshape(n, 2), 250.0, ("a", "b"))
    with pytest.raises(ValueError, match=message.format(n=n)):
        consume(short)


def test_fit_recovers_var2_coefficients_within_standard_errors():
    # 3-sigma elementwise coverage should hold for nearly all seeds
    a1 = np.array([[0.5, 0.1], [0.2, 0.4]])
    a2 = np.array([[-0.2, 0.05], [0.0, -0.15]])
    truth = np.stack([a1, a2])
    hits = 0
    for seed in range(100):
        seg = _simulate(truth, 3000, 40_000 + seed)
        model, _ = fit_var(seg, 2)
        design, _ = build_design(seg.samples, 2)
        gram_diag = np.diag(np.linalg.inv(design.T @ design))
        # se_flat[r, k] matches coeffs_flat[r, k]; reshape like fit_var does
        se_flat = np.sqrt(np.outer(gram_diag, np.diag(model.residual_covariance)))
        se = np.stack([se_flat[i * 2 : (i + 1) * 2].T for i in range(2)])
        hits += bool((np.abs(model.coeff_matrices - truth) <= 3.0 * se).all())
    assert hits >= 90


def test_fit_white_noise_coefficients_shrink_with_sample_size():
    ok = 0
    for seed in range(1000):
        rng = np.random.default_rng(30_000 + seed)
        model, _ = fit_var(_segment(rng.normal(size=(5000, 2))), 1)
        ok += bool(np.abs(model.coeff_matrices).max() < 0.05)
    assert ok >= 990


# ------------------------------------- the QR fit against its lstsq fallback

_LSTSQ = np.linalg.lstsq
_EPS = np.finfo(float).eps


def _lstsq_fit(samples, p):
    """The SVD least-squares fit that fit_var falls back to, kept as the reference."""
    m = samples.shape[1]
    design, target = build_design(samples, p)
    coeffs_flat, _, rank, _ = _LSTSQ(design, target, rcond=None)
    if rank < m * p:
        raise EstimationError(f"regressor matrix is rank deficient ({rank} < {m * p})")
    residuals = target - design @ coeffs_flat
    cov = residuals.T @ residuals / design.shape[0]
    coeffs = np.stack([coeffs_flat[i * m : (i + 1) * m].T for i in range(p)])
    model = VarModel(order_p=p, coeff_matrices=coeffs, residual_covariance=cov,
                     n_samples_used=design.shape[0], channel_labels=_segment(samples).channel_labels)
    return model, residuals


def _condition(samples, p):
    """||A||_F * ||A^+||_F of the design: the quantity the QR path certifies."""
    s = np.linalg.svd(build_design(samples, p)[0], compute_uv=False)
    return float(np.sqrt(np.sum(s**2) * np.sum(s**-2.0)))


def _near_duplicate(delta, n=120, seed=5):
    x = np.random.default_rng(seed).normal(size=(n, 2))
    x[:, 1] = x[:, 0] + delta * x[:, 1]
    return x


_WHITE = np.random.default_rng(11).normal(size=(120, 2))
_CONSTANT = np.column_stack([_WHITE[:, 0], np.full(120, 2.0)])
_ZERO = np.column_stack([_WHITE[:, 0], np.zeros(120)])
_DUPLICATE = np.column_stack([_WHITE[:, 0], _WHITE[:, 0]])
_PAST_CAP = _near_duplicate(1.5e-4)  # condition 1.3e4 at p = 1
_BELOW_CAP = _near_duplicate(3e-4)   # condition 6.4e3 at p = 1


@st.composite
def fit_inputs(draw):
    """AR(1) channels pulled toward their common mean, at any feasible order."""
    m = draw(st.sampled_from([1, 2, 4]))
    n = draw(st.integers(m + 2, 260))
    p = draw(st.integers(1, (n - 1) // (m + 1)))  # the row rule N - p >= M*p + 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phi = draw(st.floats(-0.999, 0.999))
    x = rng.standard_normal((n, m))
    for t in range(1, n):
        x[t] += phi * x[t - 1]
    # a pull of 1 - 1e-8 puts the design far past the 1e4 cap, and one of
    # 1 - 1e-16 leaves channels equal up to rounding
    pull = 1.0 - 10.0 ** -draw(st.floats(0.0, 16.0))
    x = (1.0 - pull) * x + pull * x.mean(axis=1, keepdims=True)
    return x * 10.0 ** draw(st.integers(-6, 6)), p


def test_fit_matches_lstsq_fallback_on_every_input():
    """fit_var equals the lstsq fit: the same errors, and the same numbers to rounding.

    Where fit_var runs lstsq itself, the results must be identical. Where
    the QR path runs, any two backward-stable least-squares solvers may
    differ by a small multiple of eps * kappa times the forward-error scale
    of each output (Golub & Van Loan, 5.3): ``||x|| + kappa ||r|| / ||A||``
    for the coefficients, ``||b||`` for the residuals, and
    ``2 ||r|| ||b|| / rows`` for the covariance.
    """
    seen = Counter()

    @settings(max_examples=150, deadline=None)
    @given(fit_inputs())
    @example((_CONSTANT, 1))
    @example((_CONSTANT, 2))
    @example((_ZERO, 1))
    @example((_DUPLICATE, 1))
    @example((_PAST_CAP, 1))
    @example((_BELOW_CAP, 1))
    def check(case):
        samples, p = case
        try:
            expected = _lstsq_fit(samples, p)
        except EstimationError:
            expected = None
        with mock.patch.object(np.linalg, "lstsq", wraps=_LSTSQ) as lstsq:
            if expected is None:
                with pytest.raises(EstimationError, match="rank deficient"):
                    fit_var(_segment(samples), p)
                assert lstsq.call_count == 1
                seen["rank deficient"] += 1
                return
            model, residuals = fit_var(_segment(samples), p)
        ref_model, ref_residuals = expected
        coeffs, cov = ref_model.coeff_matrices, ref_model.residual_covariance
        if lstsq.call_count:
            seen["lstsq"] += 1
            assert np.array_equal(model.coeff_matrices, coeffs)
            assert np.array_equal(residuals, ref_residuals)
            assert np.array_equal(model.residual_covariance, cov)
            return
        seen["qr"] += 1
        design, target = build_design(samples, p)
        kappa = _condition(samples, p)
        tol = 64 * _EPS * kappa
        norm = np.linalg.norm
        r, b = norm(ref_residuals), norm(target)
        assert norm(model.coeff_matrices - coeffs) <= tol * (norm(coeffs) + kappa * r / norm(design))
        assert norm(residuals - ref_residuals) <= tol * b
        assert norm(model.residual_covariance - cov) <= tol * 2 * r * b / design.shape[0]

    check()
    assert seen["qr"] and seen["lstsq"] and seen["rank deficient"], seen


def test_fit_takes_qr_up_to_the_cap_and_lstsq_past_it():
    assert 1e4 < _condition(_PAST_CAP, 1) < 2e4
    assert 5e3 < _condition(_BELOW_CAP, 1) < 1e4
    for samples, lstsq_calls in ((_PAST_CAP, 1), (_BELOW_CAP, 0)):
        with mock.patch.object(np.linalg, "lstsq", wraps=_LSTSQ) as lstsq:
            fit_var(_segment(samples), 1)
        assert lstsq.call_count == lstsq_calls


@pytest.mark.parametrize("m, p", [(2, 15), (4, 15), (3, 5)])
def test_fit_matches_lstsq_to_1e12_on_bench_shaped_models(m, p):
    # 225-sample epochs of a stable VAR, as the reference protocol fits them
    rng = np.random.default_rng(40 + m)
    for seed in range(10):
        truth = random_stable_var(rng, m, 2, radius=0.9).coeff_matrices
        samples = _simulate(truth, 225, 50_000 + seed).samples
        with mock.patch.object(np.linalg, "lstsq", wraps=_LSTSQ) as lstsq:
            model, residuals = fit_var(_segment(samples), p)
        assert lstsq.call_count == 0
        ref_model, ref_residuals = _lstsq_fit(samples, p)
        coeffs, cov = ref_model.coeff_matrices, ref_model.residual_covariance
        assert_allclose(model.coeff_matrices, coeffs, rtol=0, atol=1e-12 * np.abs(coeffs).max())
        assert_allclose(residuals, ref_residuals, rtol=0, atol=1e-12 * np.abs(ref_residuals).max())
        assert_allclose(model.residual_covariance, cov, rtol=0, atol=1e-12 * np.abs(cov).max())


# ------------------------- the fit's kernels against their reference computations


def _joint_design_by_lag(samples, p):
    """``[design | target]`` filled one lag block at a time, as the fit once built it."""
    n, m = samples.shape
    joint = np.empty((n - p, m * p + m))
    for lag in range(1, p + 1):
        joint[:, (lag - 1) * m : lag * m] = samples[p - lag : n - lag]
    joint[:, m * p :] = samples[p:]
    return joint


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 80), m=st.integers(1, 5), data=st.data())
def test_joint_design_equals_the_per_lag_copy(n, m, data):
    p = data.draw(st.integers(1, n - 1), label="p")
    base = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(size=(n, m + 2))
    layouts = {
        "contiguous": np.ascontiguousarray(base[:, :m]),
        "column-sliced": base[:, 1 : m + 1],
        "negative row stride": base[::-1, :m],
        "negative column stride": base[:, m - 1 :: -1] if m > 1 else base[:, :1],
        "column-major": np.asfortranarray(base[:, :m]),
    }
    for samples in layouts.values():
        before = samples.copy()
        expected = _joint_design_by_lag(samples, p)
        assert np.array_equal(_joint_design(samples, p), expected)
        design, target = build_design(samples, p)
        assert np.array_equal(design, expected[:, : m * p])
        assert np.array_equal(target, expected[:, m * p :])
        assert np.array_equal(samples, before)


@settings(max_examples=60, deadline=None)
@given(fit_inputs())
@example((_DUPLICATE, 1))
@example((_ZERO, 1))
def test_qr_top_rows_equal_the_r_mode_triangle(case):
    samples, p = case
    k = samples.shape[1] * p
    joint = _joint_design(samples, p)
    for a in (joint, np.ascontiguousarray(joint)):  # column-major as the fit passes it, and row-major
        top = _qr_top_rows(a, k)
        # row-major, so that R^-1 times its right block rounds as it always did
        assert top.flags.c_contiguous
        assert np.array_equal(top, np.linalg.qr(a, mode="r")[:k])
    mask = _upper_trapezoid(k, joint.shape[1])
    assert not mask.flags.writeable
    with pytest.raises(ValueError):
        mask[0, 0] = False


def _fit_by_r_mode(samples, p):
    """fit_var's coefficients, residuals and covariance as computed before its
    kernels were rewritten: the per-lag design, ``np.linalg.qr(mode="r")``,
    ``np.linalg.norm`` and the lstsq fallback. Returns the branch taken and
    the arrays, or None for a rank-deficient design."""
    m = samples.shape[1]
    k = m * p
    joint = _joint_design_by_lag(samples, p)
    design, target = joint[:, :k], joint[:, k:]
    r = np.linalg.qr(joint, mode="r")
    try:
        r_inv = np.linalg.inv(r[:k, :k])
    except np.linalg.LinAlgError:
        r_inv = None
    if r_inv is not None and np.linalg.norm(r[:k, :k]) * np.linalg.norm(r_inv) <= 1e4:
        branch, coeffs_flat = "qr", r_inv @ r[:k, k:]
    else:
        coeffs_flat, _, rank, _ = _LSTSQ(design, target, rcond=None)
        if rank < k:
            return "rank deficient", None
        branch = "lstsq"
    residuals = target - design @ coeffs_flat
    coeffs = coeffs_flat.reshape(p, m, m).transpose(0, 2, 1)
    return branch, (coeffs, residuals, residuals.T @ residuals / design.shape[0])


def test_fit_is_bit_identical_to_the_r_mode_fit_and_fails_on_the_same_inputs():
    seen = Counter()

    @settings(max_examples=150, deadline=None)
    @given(fit_inputs())
    @example((_CONSTANT, 1))
    @example((_CONSTANT, 2))
    @example((_ZERO, 1))
    @example((_DUPLICATE, 1))
    @example((_PAST_CAP, 1))
    @example((_BELOW_CAP, 1))
    def check(case):
        samples, p = case
        branch, expected = _fit_by_r_mode(samples, p)
        seen[branch] += 1
        if expected is None:
            with pytest.raises(EstimationError, match="rank deficient"):
                fit_var(_segment(samples), p)
            return
        model, residuals = fit_var(_segment(samples), p)
        got = (model.coeff_matrices, residuals, model.residual_covariance)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))

    check()
    assert seen["qr"] and seen["lstsq"] and seen["rank deficient"], seen


# ----------------------------------------------------------------------- aic


def test_aic_identity_covariance_counts_parameters_only():
    model = VarModel(
        order_p=15,
        coeff_matrices=np.zeros((15, 2, 2)),
        residual_covariance=np.eye(2),
        n_samples_used=210,
        channel_labels=("a", "b"),
    )
    assert aic(model, 225) == 120.0  # ln det I = 0, 2 * 15 * 2^2


def test_aic_matches_hand_value_on_diagonal_covariance():
    model = VarModel(
        order_p=2,
        coeff_matrices=np.zeros((2, 2, 2)),
        residual_covariance=np.diag([2.0, 0.5]),
        n_samples_used=98,
        channel_labels=("a", "b"),
    )
    # det = 1.0 so the fit term vanishes again; perturb to exercise it
    assert aic(model, 100) == pytest.approx(16.0)
    model2 = VarModel(
        order_p=2,
        coeff_matrices=np.zeros((2, 2, 2)),
        residual_covariance=np.diag([2.0, 1.0]),
        n_samples_used=98,
        channel_labels=("a", "b"),
    )
    assert aic(model2, 100) == pytest.approx(100.0 * math.log(2.0) + 16.0)


def test_aic_rejects_singular_covariance():
    from pdckit import EstimationError

    model = VarModel(
        order_p=1,
        coeff_matrices=np.zeros((1, 2, 2)),
        residual_covariance=np.zeros((2, 2)),
        n_samples_used=50,
        channel_labels=("a", "b"),
    )
    with pytest.raises(EstimationError):
        aic(model, 51)
    with pytest.raises(ValueError):
        aic(random_stable_var(np.random.default_rng(0), 2, 1), 0)


# ------------------------------------------------------------- order choice


def test_max_order_bound_hand_values():
    # largest p with (p m)^2 < 9 n
    assert max_order_bound(225, 2) == 22
    assert max_order_bound(225, 4) == 11
    assert max_order_bound(9, 1) == 8  # (9*1)^2 = 81 = 9*9 excluded
    assert max_order_bound(10, 1) == 9
    with pytest.raises(ValueError):
        max_order_bound(0, 2)
    with pytest.raises(ValueError):
        max_order_bound(225, 0)


def test_choose_order_picks_first_interior_minimum():
    values = [(1, 10.0), (2, 8.0), (3, 9.0), (4, 7.0), (5, 12.0)]
    sel = choose_order_from_aic(values, n=225, m=2)
    assert sel.chosen_p == 2
    assert sel.rule_applied == RULE_FIRST_LOCAL_MINIMUM
    assert sel.aic_values == tuple(values)


def test_choose_order_plateau_counts_as_minimum():
    # AIC(2) < AIC(1) and AIC(2) == AIC(3) still selects 2
    sel = choose_order_from_aic([(1, 10.0), (2, 8.0), (3, 8.0)], n=225, m=2)
    assert sel.chosen_p == 2
    assert sel.rule_applied == RULE_FIRST_LOCAL_MINIMUM


def test_choose_order_strictly_decreasing_caps_at_bound():
    values = [(p, 100.0 - p) for p in range(1, 31)]
    sel = choose_order_from_aic(values, n=225, m=2)
    assert sel.chosen_p == 22  # max_order_bound(225, 2)
    assert sel.rule_applied == RULE_CAPPED_BY_BOUND
    # short scan: the scan ceiling wins when it is below the bound
    sel = choose_order_from_aic(values[:10], n=225, m=2)
    assert sel.chosen_p == 10
    assert sel.rule_applied == RULE_CAPPED_BY_BOUND


def test_choose_order_increasing_sequence_has_no_interior_minimum():
    # monotone rise from p=1: p=1 has no predecessor, so the cap rule applies
    sel = choose_order_from_aic([(1, 5.0), (2, 6.0), (3, 7.0)], n=225, m=2)
    assert sel.chosen_p == 3
    assert sel.rule_applied == RULE_CAPPED_BY_BOUND


def test_choose_order_validates_input():
    with pytest.raises(ValueError):
        choose_order_from_aic([], n=225, m=2)
    with pytest.raises(ValueError):
        choose_order_from_aic([(1, 1.0), (3, 2.0)], n=225, m=2)  # gap in orders


def test_select_order_recovers_known_order_on_long_series():
    truth = np.stack(
        [
            [[0.35, 0.10], [0.15, 0.30]],
            [[-0.25, 0.05], [0.05, -0.20]],
            [[0.15, -0.05], [0.10, 0.15]],
            [[-0.25, 0.10], [0.05, -0.30]],
        ]
    )
    hits = 0
    for seed in range(40):
        sel = select_order(_simulate(truth, 2000, 60_000 + seed), p_scan_max=8)
        hits += sel.chosen_p == 4
    assert hits >= 34


def test_select_order_on_white_noise_stays_low_or_caps():
    # no true dynamics: either an early local minimum or the scan cap, and
    # AIC(1) vs AIC(2) differs by less than the 2 m^2 parameter penalty
    near = 0
    for seed in range(200):
        rng = np.random.default_rng(20_000 + seed)
        sel = select_order(_segment(rng.normal(size=(2000, 2))), p_scan_max=6)
        values = dict(sel.aic_values)
        if sel.rule_applied == RULE_FIRST_LOCAL_MINIMUM:
            assert sel.chosen_p <= 5
        else:
            assert sel.chosen_p == 6
        near += abs(values[1] - values[2]) < 8.0
    assert near >= 190


def test_a_second_scan_of_the_default_depth_builds_no_new_mask():
    # the default scan fits 20 orders, each with its own upper-trapezoid mask
    seg = _simulate([[[0.3, 0.0], [0.4, 0.3]]], 225, 61_000)
    select_order(seg, p_scan_max=20)
    misses = _upper_trapezoid.cache_info().misses
    select_order(seg, p_scan_max=20)
    assert _upper_trapezoid.cache_info().misses == misses


def test_select_order_respects_bound_by_default():
    seg = _segment(np.random.default_rng(1).normal(size=(60, 2)))
    # bound for N=60, M=2: largest p with (2p)^2 < 540 is 11
    sel = select_order(seg, p_scan_max=8)
    assert sel.chosen_p <= 8
    with pytest.raises(ValueError):
        select_order(seg, p_scan_max=12)
    with pytest.raises(TypeError):  # the bound has no override
        select_order(seg, p_scan_max=12, allow_exceed_bound=True)


@pytest.mark.parametrize("n, m, p_scan_max", [(12, 2, 5), (20, 1, 13)])
def test_select_order_checks_the_rows_of_its_whole_scan_before_any_fit(monkeypatch, n, m,
                                                                       p_scan_max):
    # p_scan_max is within max_order_bound(n, m), but order p_scan_max on the
    # rows after the first p_scan_max breaks N - p >= M*p + 1
    import pdckit.var as var_module

    assert p_scan_max == max_order_bound(n, m)
    fits = mock.Mock(wraps=fit_var)
    monkeypatch.setattr(var_module, "fit_var", fits)
    seg = _segment(np.random.default_rng(3).normal(size=(n, m)))
    with pytest.raises(ValueError, match=re.escape(
            f"order {p_scan_max} breaks N - p >= M*p + 1 for N={n} samples and M={m} channels")):
        select_order(seg, p_scan_max=p_scan_max)
    assert fits.call_count == 0


# ----------------------------------------------------------------- stability


def test_companion_matrix_layout():
    a1 = np.array([[0.5, 0.1], [0.0, 0.4]])
    a2 = np.array([[-0.2, 0.0], [0.3, -0.1]])
    comp = companion_matrix(np.stack([a1, a2]))
    assert comp.shape == (4, 4)
    assert_allclose(comp[:2, :2], a1)
    assert_allclose(comp[:2, 2:], a2)
    assert_allclose(comp[2:, :2], np.eye(2))
    assert_allclose(comp[2:, 2:], np.zeros((2, 2)))


def test_companion_matrix_is_a_fresh_array_over_an_unchanged_template():
    coeffs = np.random.default_rng(3).normal(size=(3, 2, 2))
    expected = np.zeros((6, 6))
    expected[:2] = np.hstack(list(coeffs))
    expected[2:, :4] = np.eye(4)
    comp = companion_matrix(coeffs)
    assert np.array_equal(comp, expected)
    assert comp.flags.writeable and comp.flags.owndata
    comp[:] = 7.0  # a caller's write reaches neither the template nor the next result
    assert np.array_equal(companion_matrix(coeffs), expected)
    template = _companion_shift(2, 3)
    assert np.array_equal(template[2:], expected[2:]) and not template[:2].any()
    assert not template.flags.writeable
    with pytest.raises(ValueError):
        template[0, 0] = 1.0


def test_spectral_radius_ar1_equals_coefficient():
    assert spectral_radius(np.array([[[0.9]]])) == pytest.approx(0.9)
    assert spectral_radius(np.array([[[1.02]]])) == pytest.approx(1.02)


def test_check_stability_threshold():
    stable = VarModel(
        order_p=1,
        coeff_matrices=np.array([[[0.99]]]),
        residual_covariance=np.eye(1),
        n_samples_used=10,
        channel_labels=("a",),
    )
    unstable = VarModel(
        order_p=1,
        coeff_matrices=np.array([[[1.0]]]),
        residual_covariance=np.eye(1),
        n_samples_used=10,
        channel_labels=("a",),
    )
    assert check_stability(stable)
    assert not check_stability(unstable)


def test_random_rescaled_models_hit_target_radius():
    rng = np.random.default_rng(17)
    for _ in range(20):
        model = random_stable_var(rng, m=3, p=4, radius=0.8)
        assert spectral_radius(model.coeff_matrices) == pytest.approx(0.8, rel=1e-9)


_RADII = (0.5, 0.9, 0.99, 0.999999, 1 - 2e-9, 1 - 1e-9, 1.0, 1.01)


def test_check_stability_matches_the_eigenvalue_verdict(monkeypatch):
    import pdckit.var as var_module

    fallback = mock.Mock(wraps=spectral_radius)
    monkeypatch.setattr(var_module, "spectral_radius", fallback)
    rng = np.random.default_rng(29)
    certified = models = 0
    for m in (1, 2, 4):
        for p in (1, 5, 15):
            for radius in _RADII:
                for _ in range(3):
                    model = random_stable_var(rng, m, p, radius=radius)
                    calls = fallback.call_count
                    verdict = check_stability(model)
                    assert verdict == (spectral_radius(model.coeff_matrices) < 1 - 1e-9), (m, p, radius)
                    certified += fallback.call_count == calls
                    models += 1
    assert 0 < certified < models


def test_check_stability_leaves_a_large_transient_to_the_eigenvalues(monkeypatch):
    # ||C^(2^k)|| falls below the bound by k = 6, but squaring a norm of 1e6
    # can round by more than 1, so the squarings prove nothing
    import pdckit.var as var_module

    fallback = mock.Mock(wraps=spectral_radius)
    monkeypatch.setattr(var_module, "spectral_radius", fallback)
    model = VarModel(order_p=1, coeff_matrices=np.array([[[0.5, 1e6], [0.0, 0.5]]]),
                     residual_covariance=np.eye(2), n_samples_used=10, channel_labels=("a", "b"))
    assert check_stability(model)
    assert fallback.call_count == 1


@pytest.mark.parametrize("coeffs, stable", [
    ([[[1e200]]], False),
    ([[[1e160, -1e160], [1e160, 1e160]]], False),
    ([[[0.0, 1e10], [0.0, 0.0]]], True),
])
def test_check_stability_of_extreme_coefficients_warns_nothing(coeffs, stable):
    model = VarModel(order_p=1, coeff_matrices=np.array(coeffs), residual_covariance=np.eye(len(coeffs[0])),
                     n_samples_used=10, channel_labels=tuple("ab"[: len(coeffs[0])]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check_stability(model) is stable


# ----------------------------------------------------------------------- io


def test_model_json_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    model = random_stable_var(rng, m=2, p=3)
    path = tmp_path / "model.json"
    write_model_json(model, path)
    back = read_model_json(path)
    assert back.order_p == model.order_p
    assert back.channel_labels == model.channel_labels
    assert back.n_samples_used == model.n_samples_used
    assert_allclose(back.coeff_matrices, model.coeff_matrices, rtol=0, atol=0)
    assert_allclose(back.residual_covariance, model.residual_covariance, rtol=0, atol=0)


# what each model JSON key must hold, as the reader's error words it
MODEL_KINDS = {
    "order": "an integer",
    "n_samples_used": "an integer",
    "channel_labels": "a list of strings",
    "coeff_matrices": "equally long nested lists of finite numbers",
    "residual_covariance": "equally long nested lists of finite numbers",
}


@pytest.mark.parametrize("field, value", [
    ("n_samples_used", 99.9),
    ("n_samples_used", "99"),
    ("order", True),
    ("order", 3.0),
    ("channel_labels", "ab"),
    ("channel_labels", ["ch1", 2]),
    ("coeff_matrices", [[[0.1, "0.5"], [0.0, 0.1]]] * 3),
    ("coeff_matrices", [[[0.1, True], [0.0, 0.1]]] * 3),
    ("coeff_matrices", [[[0.1, math.nan], [0.0, 0.1]]] * 3),
    ("coeff_matrices", [[[0.1, 0.0], [0.1]]] * 3),
    ("residual_covariance", [[1.0, 0.0], [0.0, math.inf]]),
    ("residual_covariance", "[[1, 0], [0, 1]]"),
    ("burn_in", 3),
])
def test_model_json_requires_integers(tmp_path, field, value):
    """Every key holds its JSON kind, integers included; unknown keys are refused."""
    path = tmp_path / "model.json"
    write_model_json(random_stable_var(np.random.default_rng(2), m=2, p=3), path)
    payload = json.loads(path.read_text())
    path.write_text(json.dumps({**payload, field: value}))
    if field in MODEL_KINDS:
        message = f"{field} must be {MODEL_KINDS[field]}, got "
    else:
        message = re.escape(f"{path}: unknown model keys [{field!r}]")
    with pytest.raises(ValueError, match=message):
        read_model_json(path)


def test_model_json_requires_every_key(tmp_path):
    path = tmp_path / "model.json"
    write_model_json(random_stable_var(np.random.default_rng(2), m=2, p=3), path)
    payload = json.loads(path.read_text())
    del payload["n_samples_used"]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="n_samples_used is required"):
        read_model_json(path)


@pytest.mark.parametrize("name", ["coeff_matrices", "residual_covariance"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_model_rejects_non_finite_arrays(name, bad):
    arrays = {"coeff_matrices": np.full((1, 2, 2), 0.1), "residual_covariance": np.eye(2)}
    arrays[name][..., 0, 1] = bad
    with pytest.raises(ValueError, match="must be finite"):
        VarModel(order_p=1, n_samples_used=10, channel_labels=("a", "b"), **arrays)


def test_model_rejects_non_positive_sample_count(tmp_path):
    path = tmp_path / "model.json"
    write_model_json(random_stable_var(np.random.default_rng(2), m=2, p=3), path)
    path.write_text(json.dumps({**json.loads(path.read_text()), "n_samples_used": -5}))
    with pytest.raises(ValueError, match="n_samples_used must be positive"):
        read_model_json(path)
