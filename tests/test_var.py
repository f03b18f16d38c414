import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdckit import (
    GeneratorSpec,
    MultichannelSegment,
    VarModel,
    aic,
    check_stability,
    choose_order_from_aic,
    fit_var,
    generate,
    max_order_bound,
    select_order,
)
from pdckit.var import (
    RULE_CAPPED_BY_BOUND,
    RULE_FIRST_LOCAL_MINIMUM,
    companion_matrix,
    read_model_json,
    spectral_radius,
    write_model_json,
)

from conftest import random_stable_var


def _segment(samples, fs=250.0):
    samples = np.asarray(samples, dtype=float)
    return MultichannelSegment(
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


def test_fit_rejects_orders_without_enough_rows():
    seg = _segment(np.random.default_rng(0).normal(size=(10, 2)))
    with pytest.raises(ValueError):
        fit_var(seg, 0)
    with pytest.raises(ValueError):
        fit_var(seg, 9)  # no regression rows left


def test_fit_recovers_var2_coefficients_within_standard_errors():
    # 3-sigma elementwise coverage should hold for nearly all seeds
    from pdckit.var import build_design

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


def test_select_order_respects_bound_by_default():
    seg = _segment(np.random.default_rng(1).normal(size=(60, 2)))
    # bound for N=60, M=2: largest p with (2p)^2 < 540 is 11
    sel = select_order(seg, p_scan_max=8)
    assert sel.chosen_p <= 8
    with pytest.raises(ValueError):
        select_order(seg, p_scan_max=12)
    sel = select_order(seg, p_scan_max=12, allow_exceed_bound=True)
    assert max(p for p, _ in sel.aic_values) == 12
    assert sel.chosen_p <= 11  # the capped fallback still respects the bound


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


@pytest.mark.parametrize("field, value", [
    ("n_samples_used", 99.9),
    ("n_samples_used", "99"),
    ("order", True),
    ("order", 3.0),
])
def test_model_json_requires_integers(tmp_path, field, value):
    path = tmp_path / "model.json"
    write_model_json(random_stable_var(np.random.default_rng(2), m=2, p=3), path)
    payload = json.loads(path.read_text())
    path.write_text(json.dumps({**payload, field: value}))
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        read_model_json(path)


def test_model_rejects_non_positive_sample_count(tmp_path):
    path = tmp_path / "model.json"
    write_model_json(random_stable_var(np.random.default_rng(2), m=2, p=3), path)
    path.write_text(json.dumps({**json.loads(path.read_text()), "n_samples_used": -5}))
    with pytest.raises(ValueError, match="n_samples_used must be positive"):
        read_model_json(path)
