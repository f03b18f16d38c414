"""Acceptance gate: ten end-to-end checks of the toolkit's core claims.

Each test prints one verdict line (visible with pytest -s); the pytest -v
status line per test is the machine-readable pass/fail record. Monte Carlo
designs and seeds are frozen so reruns are deterministic.
"""

import numpy as np

from pdckit import (
    DEFAULT_BANDS,
    FrequencyGrid,
    PairedSample,
    aic,
    compare_conditions,
    compute_pdc,
    default_config,
    fit_var,
    holm_bonferroni,
    max_order_bound,
    run_pipeline,
    select_order,
    spectral_radius,
    wilcoxon_signed_rank,
)
from pdckit.var import choose_order_from_aic
from pdckit.pipeline import _resolve_pairs

from conftest import (
    build_cohort,
    build_model,
    enumerated_signed_rank_p,
    random_stable_var,
    simulate_many,
)


GRID = FrequencyGrid.regular(4.0, 30.0, 0.5, 250.0)


def _verdict(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_pdc_column_normalization():
    rng = np.random.default_rng(101)
    worst = 0.0
    n_models = 0
    for m in (2, 3, 4):
        for p in (1, 2, 3, 4, 5):
            for _ in range(7):
                model = random_stable_var(rng, m, p)
                spectrum = compute_pdc(model, GRID)
                assert spectrum.degenerate_columns == ()
                sums = np.sum(spectrum.values**2, axis=1)
                worst = max(worst, float(np.max(np.abs(sums - 1.0))))
                n_models += 1
    _verdict(1, n_models >= 100 and worst <= 1e-10,
             f"unit column sums on {n_models} models, worst |dev| {worst:.2e}")


# stable lag-3-dominant design: every seed recovers all 12 coefficients
# within +-0.05 at N=2000 during calibration
CRIT2_TRUTH = np.array([
    [[0.12, 0.06], [-0.06, 0.12]],
    [[-0.10, 0.04], [0.04, -0.10]],
    [[0.85, 0.20], [-0.20, 0.85]],
])


def test_criterion_02_var3_coefficient_recovery():
    assert spectral_radius(CRIT2_TRUTH) < 1.0
    hits = 0
    for rec in simulate_many(CRIT2_TRUTH, 2000, range(1000, 1200)):
        model, _ = fit_var(rec, 3)
        hits += np.max(np.abs(model.coeff_matrices - CRIT2_TRUTH)) < 0.05
    _verdict(2, hits >= 190, f"elementwise +-0.05 recovery in {hits}/200 seeds")


# VAR(4) with a strong fourth lag so the AIC minimum sits at the true order
CRIT3_TRUTH = np.array([
    [[0.35, 0.10], [0.15, 0.30]],
    [[-0.25, 0.05], [0.05, -0.20]],
    [[0.15, -0.05], [0.10, 0.15]],
    [[-0.25, 0.10], [0.05, -0.30]],
])


def test_criterion_03_order_selection():
    assert spectral_radius(CRIT3_TRUTH) < 1.0
    hits = 0
    for rec in simulate_many(CRIT3_TRUTH, 2000, range(5000, 5200)):
        hits += select_order(rec, 10).chosen_p == 4
    # strictly decreasing AIC never has an interior minimum; the cap rule
    # must then return max_order_bound(225, 2) = 22 exactly
    decreasing = [(p, 1000.0 - p) for p in range(1, 31)]
    capped = choose_order_from_aic(decreasing, 225, 2)
    cap_ok = capped.chosen_p == max_order_bound(225, 2) == 22
    _verdict(3, hits >= 180 and cap_ok,
             f"true order found in {hits}/200 seeds; decreasing-AIC cap -> "
             f"{capped.chosen_p}")


def test_criterion_04_directionality():
    truth = np.array([[[0.5, 0.0], [0.4, 0.5]]])
    hits = 0
    forward = []
    reverse = []
    for rec in simulate_many(truth, 2000, range(7000, 7100)):
        model, _ = fit_var(rec, 1)
        values = compute_pdc(model, GRID).values
        p21 = float(np.mean(values[:, 1, 0]))
        p12 = float(np.mean(values[:, 0, 1]))
        forward.append(p21)
        reverse.append(p12)
        hits += p21 >= 0.3 and p12 < 0.1
    _verdict(4, hits >= 95,
             f"{hits}/100 seeds; mean driven 2<-1 {np.mean(forward):.3f}, "
             f"mean spurious 1<-2 {np.mean(reverse):.3f}")


def test_criterion_05_aic_dual_route():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 5))
        p = int(rng.integers(1, 21))
        n = int(rng.integers(50, 5001))
        b = rng.normal(size=(m, m))
        sigma = b @ b.T + 0.1 * np.eye(m)
        model = build_model(np.zeros((p, m, m)), residual_covariance=sigma, n_samples_used=n)
        # independent route: log-determinant via Cholesky, not slogdet
        logdet = 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(sigma)))))
        oracle = n * logdet + 2.0 * p * m * m
        worst = max(worst, abs(aic(model, n) - oracle) / abs(oracle))
    identity = build_model(np.zeros((15, 2, 2)))
    exact = [aic(identity, n) for n in (100, 225, 2000)]
    _verdict(5, worst <= 1e-9 and all(v == 120.0 for v in exact),
             f"worst relative gap {worst:.2e}; identity-noise AIC {exact[0]}")


def test_criterion_06_wilcoxon_exactness():
    rng = np.random.default_rng(66)
    worst = 0.0
    for i in range(100):
        n = 4 + i % 9   # cycles through every n in 4..12
        diffs = rng.normal(size=n)
        sample = PairedSample(condition_a=tuple(diffs), condition_b=(0.0,) * n)
        outcome = wilcoxon_signed_rank(sample)
        assert outcome.n_effective == n
        worst = max(worst, abs(outcome.p_raw - enumerated_signed_rank_p(diffs)))
    all_positive = PairedSample(condition_a=(1.0, 2.0, 3.0, 4.0, 5.0),
                                condition_b=(0.0,) * 5)
    p5 = wilcoxon_signed_rank(all_positive).p_raw
    _verdict(6, worst <= 1e-12 and p5 == 0.0625,
             f"worst enumeration gap {worst:.2e}; all-positive n=5 p {p5}")


def test_criterion_07_holm_bonferroni():
    adjusted = [adj for adj, _ in holm_bonferroni([0.01, 0.02, 0.04])]
    np.testing.assert_allclose(adjusted, [0.03, 0.04, 0.04], rtol=1e-12)

    rng = np.random.default_rng(77)
    ok = True
    for _ in range(1000):
        m = int(rng.integers(1, 21))
        raw = rng.uniform(size=m)
        result = holm_bonferroni(raw, alpha=0.05)
        adj = np.array([a for a, _ in result])
        rejects = np.array([r for _, r in result])
        ok &= bool(np.all(adj >= raw - 1e-15))
        ok &= bool(np.all(adj <= np.minimum(1.0, m * raw) + 1e-12))
        ok &= bool(np.all(rejects == (adj <= 0.05)))
        # step-down: in ascending raw order rejections form a prefix
        order = np.argsort(raw, kind="stable")
        ok &= bool(np.all(np.diff(rejects[order].astype(int)) <= 0))
        ok &= bool(np.all(np.diff(adj[order]) >= -1e-15))
    _verdict(7, ok, "3-value example plus 1000 random p-vectors")


def test_criterion_08_familywise_error_under_global_null():
    pairs = [(f"s{i}", f"t{j}") for i in range(4) for j in range(4) if i != j]
    keys = [(p, b) for p in pairs for b in DEFAULT_BANDS]
    assert len(keys) == 48
    rng = np.random.default_rng(4242)
    hits = 0
    for _ in range(2000):
        a_draw = rng.standard_normal((48, 20))
        b_draw = rng.standard_normal((48, 20))
        values_a = {k: tuple(a_draw[i]) for i, k in enumerate(keys)}
        values_b = {k: tuple(b_draw[i]) for i, k in enumerate(keys)}
        results = compare_conditions(values_a, values_b, alpha=0.05)
        hits += any(r.significant for r in results.values())
    rate = hits / 2000
    _verdict(8, rate <= 0.07,
             f"families with >=1 rejection {hits}/2000 = {rate:.4f}")


def test_criterion_09_end_to_end_pipeline():
    config = default_config(250.0)
    diag = np.diag([0.3, 0.3, 0.3])[None, :, :]
    coupled = diag.copy()
    coupled[0, 1, 0] = 0.4
    n_subjects, n_epochs = 10, 12
    starts = [900.0 * k for k in range(n_epochs)]

    good = 0
    report = None
    for run in range(50):
        base = 777_000 + 1000 * run
        report = run_pipeline(config, *(
            build_cohort(coeffs, 225 * n_epochs, range(first, first + n_subjects), starts)
            for coeffs, first in ((diag, base), (coupled, base + 500))))
        flagged = {k for k, r in report.test_results.items() if r.significant}
        injected = {(("ch1", "ch2"), b) for b in report.band_names}
        pure = {(p, b)
                for p in (("ch1", "ch3"), ("ch3", "ch1"))
                for b in report.band_names}
        good += injected <= flagged and not (flagged & pure)

    echo = report.config_echo
    echo_ok = (
        echo["epoch_length_ms"] == 900.0
        and echo["order_mode"] == "fixed"
        and echo["fixed_order"] == 15
        and echo["freq_grid"] == {"low_hz": 4.0, "high_hz": 30.0, "step_hz": 0.5}
        and echo["bands"] == {"theta": [4.0, 7.5], "alpha": [8.0, 12.5],
                              "beta1": [13.0, 20.5], "beta2": [21.0, 30.0]}
        and echo["alpha"] == 0.05
    )
    # the reference four-channel montage yields 12 ordered pairs x 4 bands
    montage_pairs = _resolve_pairs(config, ("F3", "F4", "T5", "T6"))
    family = len(montage_pairs) * len(DEFAULT_BANDS)
    _verdict(9, good >= 45 and echo_ok and family == 48,
             f"injected-only flags in {good}/50 runs; default protocol echo ok; "
             f"4-channel family {family}")


def test_criterion_10_sign_convention_immunity():
    rng = np.random.default_rng(110)
    worst = 0.0
    for i in range(100):
        m = 2 + i % 3
        p = 1 + i % 5
        model = random_stable_var(rng, m, p)
        spectrum = compute_pdc(model, GRID)
        # subtractive convention: Abar(f) = sum_r Abar_r z^r with Abar_0 = I
        # and Abar_r = -A_r, accumulated in the opposite association order
        abar0 = np.eye(m, dtype=complex)
        for fi, f in enumerate(GRID.freqs_hz):
            acc = abar0.copy()
            for r in range(p, 0, -1):
                z = np.exp(-2j * np.pi * f * r / GRID.sampling_rate_hz)
                acc += -model.coeff_matrices[r - 1] * z
            mags = np.abs(acc)
            norms = np.sqrt(np.sum(mags**2, axis=0))
            oracle = mags / norms
            worst = max(worst, float(np.max(np.abs(spectrum.values[fi] - oracle))))
    _verdict(10, worst <= 1e-12, f"worst cross-convention gap {worst:.2e}")
