import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pdckit import (
    DEFAULT_BANDS,
    BandAverages,
    FrequencyGrid,
    PdcSpectrum,
    PipelineConfig,
    average_over_segments,
    band_average,
    compute_pdc,
    evaluate_transfer,
)
from pdckit.pdc import (
    _phase_table,
    read_spectrum_csv,
    write_band_averages_json,
    write_spectrum_csv,
)

from conftest import build_model, random_stable_var


LOWER_VAR1 = build_model([[[0.5, 0.0], [0.4, 0.5]]])


# ----------------------------------------------------------------- the grid


def test_regular_grid_counts_and_endpoints():
    grid = FrequencyGrid.regular(4.0, 30.0, 0.5, sampling_rate_hz=250.0)
    assert grid.n_freqs == 53
    assert grid.freqs_hz[0] == 4.0
    assert grid.freqs_hz[-1] == 30.0
    theta = grid.freqs_hz[(grid.freqs_hz >= 4.0) & (grid.freqs_hz <= 7.5)]
    assert theta.size == 8


def test_regular_grid_never_passes_high_hz():
    # 26.3 / 0.5 rounds up to 53 steps; the last one would end at 30.5 Hz
    grid = FrequencyGrid.regular(4.0, 30.3, 0.5, sampling_rate_hz=250.0)
    assert grid.n_freqs == 53
    assert grid.freqs_hz[-1] == 30.0
    # 28.9 / 0.1 is 288.99999999999994 in floating point: the grid still
    # reaches 30 Hz, and ends on it exactly rather than 4e-15 Hz above it
    fine = FrequencyGrid.regular(1.1, 30.0, 0.1, sampling_rate_hz=250.0)
    assert fine.n_freqs == 290
    assert fine.freqs_hz[-1] == 30.0
    default = FrequencyGrid.regular(4.0, 30.0, 0.5, sampling_rate_hz=250.0)
    assert np.array_equal(default.freqs_hz, 4.0 + 0.5 * np.arange(53))


def test_grid_validation():
    with pytest.raises(ValueError):
        FrequencyGrid(freqs_hz=np.array([4.0, 4.0]), sampling_rate_hz=250.0)
    with pytest.raises(ValueError):
        FrequencyGrid(freqs_hz=np.array([-1.0, 4.0]), sampling_rate_hz=250.0)
    with pytest.raises(ValueError):
        FrequencyGrid(freqs_hz=np.array([4.0, 130.0]), sampling_rate_hz=250.0)
    with pytest.raises(ValueError):
        FrequencyGrid.regular(4.0, 30.0, -0.5, sampling_rate_hz=250.0)
    single = FrequencyGrid.regular(10.0, 10.0, 0.5, sampling_rate_hz=250.0)
    assert single.n_freqs == 1


def _spectrum(labels):
    grid = FrequencyGrid.regular(4.0, 8.0, 1.0, 250.0)
    return PdcSpectrum(values=np.full((5, 2, 2), 0.5), grid=grid, channel_labels=labels)


@pytest.mark.parametrize("refuse, message", [
    (lambda: PdcSpectrum(values=np.zeros((2, 2, 2)), channel_labels=("a", "b"),
                         grid=FrequencyGrid.regular(4.0, 8.0, 1.0, 250.0)),
     "values must have shape (5, 2, 2), got (2, 2, 2)"),
    (lambda: BandAverages(bands={"alpha": np.eye(2)}, band_edges_hz={"theta": (4.0, 8.0)},
                          channel_labels=("a", "b")),
     "bands and band_edges_hz must share the same names"),
    (lambda: average_over_segments([_spectrum(("a", "b")), _spectrum(("a", "c"))]),
     "spectra differ in channel labels"),
    (lambda: FrequencyGrid(freqs_hz=np.array([]), sampling_rate_hz=250.0),
     "freqs_hz must be a non-empty 1-D array"),
], ids=["spectrum-shape", "band-names", "segment-labels", "empty-grid"])
def test_each_refusal_raises_its_message(refuse, message):
    with pytest.raises(ValueError) as info:
        refuse()
    assert str(info.value) == message


# ----------------------------------------------------------- transfer matrix


def test_transfer_at_zero_frequency_matches_hand_values():
    # diagonal 1 - a_ii, off-diagonal +a_ij at normalized frequency 0
    a = evaluate_transfer(LOWER_VAR1, f_hz=0.0, sampling_rate_hz=250.0)
    assert_allclose(a, np.array([[0.5, 0.0], [0.4, 0.5]]), atol=1e-15)


def test_transfer_phase_rotation_var1():
    # at normalized frequency 1/4 the lag-1 phase factor is exp(-i pi/2) = -i
    a = evaluate_transfer(LOWER_VAR1, f_hz=62.5, sampling_rate_hz=250.0)
    assert_allclose(a[0, 0], 1.0 + 0.5j, atol=1e-14)
    assert_allclose(a[1, 0], -0.4j, atol=1e-14)
    assert_allclose(a[1, 1], 1.0 + 0.5j, atol=1e-14)


def test_transfer_sums_over_lags():
    model = build_model([[[0.3]], [[0.2]]], channel_labels=("x",))
    f, fs = 10.0, 100.0
    z1 = np.exp(-2j * np.pi * f / fs)
    expected = 1.0 - 0.3 * z1 - 0.2 * z1**2
    a = evaluate_transfer(model, f_hz=f, sampling_rate_hz=fs)
    assert_allclose(a[0, 0], expected, rtol=1e-14)


# ----------------------------------------------------------------------- pdc


def test_pdc_matches_hand_normalization():
    grid = FrequencyGrid(freqs_hz=np.array([0.0]), sampling_rate_hz=250.0)
    spec = compute_pdc(LOWER_VAR1, grid)
    norm = math.sqrt(0.41)
    assert_allclose(spec.values[0, 0, 0], 0.5 / norm, atol=5e-6)
    assert_allclose(spec.values[0, 1, 0], 0.4 / norm, atol=5e-6)
    assert spec.values[0, 0, 1] == 0.0
    assert spec.values[0, 1, 1] == 1.0
    assert spec.values[0, 0, 0] == pytest.approx(0.78087, abs=1e-5)
    assert spec.values[0, 1, 0] == pytest.approx(0.62470, abs=1e-5)


def test_pdc_columns_have_unit_square_sum():
    rng = np.random.default_rng(123)
    grid = FrequencyGrid.regular(4.0, 30.0, 0.5, sampling_rate_hz=250.0)
    for m in (2, 3, 4):
        for p in (1, 3, 5):
            spec = compute_pdc(random_stable_var(rng, m, p), grid)
            sums = (spec.values**2).sum(axis=1)
            assert_allclose(sums, np.ones((grid.n_freqs, m)), atol=1e-12)


def test_pdc_degenerate_column_is_zeroed_and_reported():
    # second column of A(f) vanishes at f=0: a12 = 0 everywhere, a22 = 1
    model = build_model([[[0.5, 0.0], [0.0, 1.0]]])
    grid = FrequencyGrid(freqs_hz=np.array([0.0, 10.0]), sampling_rate_hz=250.0)
    spec = compute_pdc(model, grid)
    assert spec.degenerate_columns == ((0, 1),)
    assert_allclose(spec.values[0, :, 1], [0.0, 0.0])
    assert spec.values[1, 1, 1] > 0.0  # fine away from the degenerate point


def test_pdc_refuses_the_nan_of_a_transform_past_float_range():
    # three lags of 1e308 sum to inf, and inf over an infinite column norm is NaN
    grid = FrequencyGrid(freqs_hz=np.array([0.0, 10.0]), sampling_rate_hz=250.0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError) as info:
        compute_pdc(build_model(np.full((3, 2, 2), 1e308)), grid)
    assert str(info.value) == "PDC values must lie in [0, 1]"


def test_pdc_is_scale_free_past_the_square_of_float_range():
    # squared entries of 1e160 overflow; the columns are rescaled, not divided by inf
    grid = FrequencyGrid(freqs_hz=np.array([10.0, 125.0]), sampling_rate_hz=250.0)
    lag = np.array([[[0.5, 0.2], [0.4, 0.5]]])
    huge = compute_pdc(build_model(lag * 1e160), grid)
    assert_allclose(huge.values, compute_pdc(build_model(lag * 1e150), grid).values,
                    rtol=0, atol=1e-12)
    assert huge.degenerate_columns == ()


def _pdc_per_frequency(model, grid):
    """Reference: |T[i, j]| / ||T[:, j]|| from `evaluate_transfer`, one frequency at a time."""
    m = model.n_channels
    values = np.zeros((grid.n_freqs, m, m))
    degenerate = []
    for fi, f_hz in enumerate(grid.freqs_hz):
        mags = np.abs(evaluate_transfer(model, float(f_hz), grid.sampling_rate_hz))
        for j in range(m):
            norm = math.sqrt(float((mags[:, j] ** 2).sum()))
            if norm < 1e-12:
                degenerate.append((fi, j))
            else:
                values[fi, :, j] = mags[:, j] / norm
    return values, tuple(degenerate)


def _assert_matches_per_frequency(model, grid):
    spec = compute_pdc(model, grid)
    values, degenerate = _pdc_per_frequency(model, grid)
    assert_allclose(spec.values, values, rtol=0, atol=1e-12)
    assert spec.degenerate_columns == degenerate


def test_pdc_matches_per_frequency_reference_on_random_models():
    rng = np.random.default_rng(2001)
    grid = FrequencyGrid.regular(4.0, 30.0, 0.5, sampling_rate_hz=250.0)
    for _ in range(60):
        m, p = int(rng.integers(2, 5)), int(rng.integers(1, 21))
        coeffs = rng.normal(scale=0.5 / math.sqrt(p), size=(p, m, m))
        _assert_matches_per_frequency(
            build_model(coeffs, channel_labels=("a", "b", "c", "d")[:m]), grid)


def test_pdc_matches_per_frequency_reference_with_a_vanishing_column():
    # channel 2 has lag-2 coefficient -1 only: T[1, 1] = 1 + exp(-4j*pi*f/fs)
    # vanishes at f = fs/4 (62.5 Hz), an interior point of the grid
    coeffs = np.zeros((2, 3, 3))
    coeffs[0] = [[0.4, 0.0, 0.2], [0.0, 0.0, 0.0], [0.3, 0.0, -0.2]]
    coeffs[1, 1, 1] = -1.0
    model = build_model(coeffs, channel_labels=("a", "b", "c"))
    grid = FrequencyGrid.regular(0.0, 125.0, 12.5, sampling_rate_hz=250.0)
    _assert_matches_per_frequency(model, grid)
    assert compute_pdc(model, grid).degenerate_columns == ((5, 1),)


def test_pdc_matches_per_frequency_reference_on_one_frequency():
    grid = FrequencyGrid(freqs_hz=np.array([10.0]), sampling_rate_hz=250.0)
    rng = np.random.default_rng(7)
    _assert_matches_per_frequency(build_model(rng.normal(scale=0.3, size=(5, 3, 3)),
                                              channel_labels=("a", "b", "c")), grid)
    _assert_matches_per_frequency(LOWER_VAR1, grid)


def _uncached_pdc(coeffs, freqs_hz, sampling_rate_hz):
    """compute_pdc's values and degenerate columns with the transfer built as it
    was before its phase table was cached: the exponentials on every call and
    one np.tensordot."""
    g = np.asarray(freqs_hz, dtype=float)[:, None] / sampling_rate_hz
    phases = np.exp(-2j * np.pi * g * np.arange(1, coeffs.shape[0] + 1))
    transfer = np.tensordot(phases, coeffs, axes=(1, 0))
    idx = np.arange(coeffs.shape[1])
    transfer[:, idx, idx] = 1.0 - transfer[:, idx, idx]
    mags = np.abs(transfer)
    col_norms = np.sqrt((mags * mags).sum(axis=1))
    degenerate = col_norms < 1e-12
    safe_norms = np.where(degenerate, 1.0, col_norms)
    values = np.where(degenerate[:, None, :], 0.0, mags / safe_norms[:, None, :])
    np.clip(values, 0.0, 1.0, out=values)
    return values, tuple(zip(*np.nonzero(degenerate)))


@st.composite
def _pdc_calls(draw):
    """Models of several orders, grids of one length at several rates and
    frequencies, and an interleaved sequence of (model, grid) calls."""
    n_freqs = draw(st.integers(1, 6))
    grids = []
    for _ in range(draw(st.integers(2, 4))):
        fs = draw(st.sampled_from([20.0, 100.0, 250.0, 256.0]))
        # quarter-Hz steps up to Nyquist; 0 Hz lets a unit lag-1 diagonal vanish
        quarters = draw(st.lists(st.integers(0, int(fs) * 2), min_size=n_freqs,
                                 max_size=n_freqs, unique=True))
        grids.append((np.array(sorted(quarters)) / 4.0, fs))
    m = draw(st.integers(1, 3))
    models = []
    for _ in range(draw(st.integers(1, 3))):
        p = draw(st.integers(1, 4))
        cells = st.sampled_from([0.0, 1.0, -0.5]) | st.floats(-2.0, 2.0)
        coeffs = np.array(draw(st.lists(cells, min_size=p * m * m, max_size=p * m * m)))
        coeffs = coeffs.reshape(p, m, m)
        if draw(st.booleans()):
            # column 0 is the unit lag-1 diagonal only: it vanishes at 0 Hz
            coeffs[:, :, 0] = 0.0
            coeffs[0, 0, 0] = 1.0
        models.append(build_model(coeffs, channel_labels=("a", "b", "c")[:m]))
    calls = draw(st.lists(st.tuples(st.integers(0, len(models) - 1),
                                    st.integers(0, len(grids) - 1)), min_size=1, max_size=12))
    return models, grids, calls


def _masked_reference_case(vanishing):
    """A random 3-channel VAR(2) on a 0 / 10 / 62.5 Hz grid at 250 Hz; with
    ``vanishing``, column 0 is the unit lag-1 diagonal only and vanishes at 0 Hz."""
    coeffs = np.random.default_rng(11).normal(scale=0.3, size=(2, 2, 3, 3))[int(vanishing)]
    if vanishing:
        coeffs[:, :, 0] = 0.0
        coeffs[0, 0, 0] = 1.0
    return ([build_model(coeffs, channel_labels=("a", "b", "c"))],
            [(np.array([0.0, 10.0, 62.5]), 250.0)], [(0, 0)])


@settings(max_examples=80)
@given(case=_pdc_calls())
@example(case=_masked_reference_case(vanishing=False))
@example(case=_masked_reference_case(vanishing=True))
def test_pdc_with_the_cached_phase_table_equals_the_uncached_transfer(case):
    models, grids, calls = case
    for model_index, grid_index in calls:
        model = models[model_index]
        freqs, fs = grids[grid_index]
        # a new grid object on every call, so no object identity outlives it
        spectrum = compute_pdc(model, FrequencyGrid(freqs_hz=freqs.copy(), sampling_rate_hz=fs))
        values, degenerate = _uncached_pdc(model.coeff_matrices, freqs, fs)
        assert np.array_equal(spectrum.values, values)
        assert spectrum.degenerate_columns == degenerate
    for freqs, fs in grids:
        for model in models:
            table = _phase_table(freqs.tobytes(), fs, model.order_p)
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 0.0


def test_pdc_rejects_grid_channel_mismatch():
    grid = FrequencyGrid.regular(4.0, 30.0, 0.5, sampling_rate_hz=250.0)
    spec = compute_pdc(LOWER_VAR1, grid)
    assert spec.channel_labels == LOWER_VAR1.channel_labels
    assert spec.values.shape == (53, 2, 2)


# ------------------------------------------------------------------- bands


def _linear_spectrum(grid, m=2):
    # every entry equals f/30, a known linear profile for averaging checks
    vals = np.repeat((grid.freqs_hz / 30.0)[:, None, None], m * m).reshape(
        grid.n_freqs, m, m
    )
    return PdcSpectrum(
        values=vals,
        grid=grid,
        channel_labels=tuple(f"ch{i + 1}" for i in range(m)),
    )


@pytest.mark.parametrize("bad", [math.nan, -0.1, 1.1])
def test_spectrum_and_band_values_outside_the_unit_interval_are_rejected(bad):
    grid = FrequencyGrid.regular(4.0, 6.0, 1.0, 250.0)
    values = np.full((grid.n_freqs, 2, 2), 0.5)
    values[1, 0, 1] = bad
    with pytest.raises(ValueError, match=r"PDC values must lie in \[0, 1\]"):
        PdcSpectrum(values=values, grid=grid, channel_labels=("a", "b"))
    with pytest.raises(ValueError, match="band 'theta' has values outside"):
        BandAverages(bands={"theta": values[1]}, band_edges_hz={"theta": (4.0, 7.5)},
                     channel_labels=("a", "b"))


def test_band_average_of_linear_profile():
    grid = FrequencyGrid.regular(4.0, 30.0, 0.5, sampling_rate_hz=250.0)
    averages = band_average(_linear_spectrum(grid), DEFAULT_BANDS)
    mids = {"theta": 5.75, "alpha": 10.25, "beta1": 16.75, "beta2": 25.5}
    for name, mid in mids.items():
        assert_allclose(averages.bands[name], np.full((2, 2), mid / 30.0), rtol=1e-12)
    assert averages.band_edges_hz["alpha"] == (8.0, 12.5)


def test_band_average_edges_are_inclusive():
    grid = FrequencyGrid(freqs_hz=np.array([8.0, 12.5]), sampling_rate_hz=250.0)
    averages = band_average(_linear_spectrum(grid), {"alpha": (8.0, 12.5)})
    assert_allclose(averages.bands["alpha"], np.full((2, 2), 10.25 / 30.0))


def test_band_average_empty_band_names_the_band():
    grid = FrequencyGrid(freqs_hz=np.array([8.0, 12.5]), sampling_rate_hz=250.0)
    with pytest.raises(ValueError, match="theta"):
        band_average(_linear_spectrum(grid), {"theta": (4.0, 7.5)})


@pytest.mark.parametrize("bands, edges, labels, message", [
    ({"x": np.full((3, 3), 0.5)}, {"x": (4.0, 8.0)}, ("a", "b"),
     "band 'x' has a matrix of shape (3, 3); 2 channel labels need (2, 2)"),
    ({"x": np.zeros((0, 0))}, {"x": (4.0, 8.0)}, ("a", "b"),
     "band 'x' has a matrix of shape (0, 0); 2 channel labels need (2, 2)"),
    ({}, {}, ("a", "b"), "bands must be non-empty"),
    ({"x": np.full((2, 2), 0.5)}, {"x": (8.0, 4.0)}, ("a", "b"),
     "band 'x' has invalid edges (8.0, 4.0); edges must be finite, ordered and non-negative"),
    ({"x": np.full((2, 2), 0.5)}, {"x": (4.0, math.inf)}, ("a", "b"),
     "band 'x' has invalid edges (4.0, inf); edges must be finite, ordered and non-negative"),
    ({" x": np.full((2, 2), 0.5)}, {" x": (4.0, 8.0)}, ("a", "b"),
     "band name ' x' must be a non-empty string without edge whitespace or '->'"),
], ids=["3x3-for-2-labels", "0x0-for-2-labels", "no-band", "unordered-edges", "infinite-edge",
        "padded-name"])
def test_band_averages_follow_the_band_rule(bands, edges, labels, message):
    with pytest.raises(ValueError) as info:
        BandAverages(bands=bands, band_edges_hz=edges, channel_labels=labels)
    assert str(info.value) == message


_BAND_BUILDERS = {
    "BandAverages": lambda bands: BandAverages(
        bands={name: np.full((2, 2), 0.5) for name in bands}, band_edges_hz=bands,
        channel_labels=("a", "b")),
    "band_average": lambda bands: band_average(
        compute_pdc(LOWER_VAR1, FrequencyGrid.regular(4.0, 30.0, 0.5, 250.0)), bands),
    "PipelineConfig": lambda bands: PipelineConfig(sampling_rate_hz=250.0, bands=bands),
}


@pytest.mark.parametrize("builder", sorted(_BAND_BUILDERS))
@pytest.mark.parametrize("edges, message", [
    ((1.0, 2.0, 3.0), "band 'x' edges must be a pair of real numbers, got (1.0, 2.0, 3.0)"),
    (("1", "2"), "band 'x' edges must be a pair of real numbers, got ('1', '2')"),
    ((4.0,), "band 'x' edges must be a pair of real numbers, got (4.0,)"),
    (8.0, "band 'x' edges must be a pair of real numbers, got 8.0"),
    ((True, 8.0), "band 'x' edges must be a pair of real numbers, got (True, 8.0)"),
    (None, "band 'x' edges must be a pair of real numbers, got None"),
], ids=["triple", "strings", "single", "scalar", "bool", "None"])
def test_every_band_builder_refuses_edges_that_are_not_two_real_numbers(builder, edges,
                                                                       message):
    with pytest.raises(ValueError) as info:
        _BAND_BUILDERS[builder]({"theta": (4.0, 7.5), "x": edges})
    assert str(info.value) == message


@pytest.mark.parametrize("builder", sorted(_BAND_BUILDERS))
def test_every_band_builder_refuses_an_int_edge_no_float_can_hold(builder):
    with pytest.raises(ValueError, match=r"^band 'x' has invalid edges \(4, 1000"):
        _BAND_BUILDERS[builder]({"x": (4, 10**400)})


@pytest.mark.parametrize("builder", sorted(_BAND_BUILDERS))
def test_every_band_builder_keeps_real_edges_as_float_pairs(builder):
    bands = {"theta": (4, 7.5), "x": np.array([8, 12]), "y": [np.float32(13.0), 20]}
    built = _BAND_BUILDERS[builder](bands)
    edges = built.bands if builder == "PipelineConfig" else built.band_edges_hz
    assert edges == {"theta": (4.0, 7.5), "x": (8.0, 12.0), "y": (13.0, 20.0)}
    assert {type(edge) for pair in edges.values() for edge in pair} == {float}
    with pytest.raises(ValueError, match=r"^band name 1 must be a non-empty string"):
        _BAND_BUILDERS[builder]({1: (4.0, 8.0)})


def test_band_average_of_a_spectrum_without_channels_is_empty():
    grid = FrequencyGrid.regular(4.0, 8.0, 1.0, 250.0)
    spectrum = PdcSpectrum(values=np.zeros((grid.n_freqs, 0, 0)), grid=grid, channel_labels=())
    averages = band_average(spectrum, {"x": (4.0, 8.0)})
    assert averages.bands["x"].shape == (0, 0) and averages.channel_labels == ()


def test_json_writers_refuse_a_number_standard_json_cannot_hold(tmp_path):
    averages = BandAverages(bands={"x": np.full((2, 2), 0.5)}, band_edges_hz={"x": (4.0, 8.0)},
                            channel_labels=("a", "b"))
    averages.bands["x"][0, 0] = math.inf  # the matrices stay mutable after the checks
    path = tmp_path / "bands.json"
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        write_band_averages_json(averages, path)
    assert not path.exists()  # refused before the file is opened


def test_band_averages_keep_their_own_float_copies(tmp_path):
    bands, edges = {"x": [[0.5, 0.25], [0.0, 1.0]]}, {"x": (4, 8)}
    averages = BandAverages(bands=bands, band_edges_hz=edges, channel_labels=("a", "b"))
    bands["x"][0][0], edges["x"] = 0.75, (4, 9)
    assert averages.band_edges_hz == {"x": (4.0, 8.0)}
    assert type(averages.band_edges_hz["x"][0]) is float
    assert averages.bands["x"].dtype == float and averages.bands["x"][0, 0] == 0.5
    path = tmp_path / "bands.json"
    write_band_averages_json(averages, path)
    assert json.loads(path.read_text())["band_edges_hz"] == {"x": [4.0, 8.0]}
    assert '"x": [\n      4.0,\n      8.0\n    ]' in path.read_text()


def test_band_averages_writer_refuses_edges_edited_after_the_build(tmp_path):
    averages = BandAverages(bands={"x": np.full((2, 2), 0.5)}, band_edges_hz={"x": (4.0, 8.0)},
                            channel_labels=("a", "b"))
    averages.band_edges_hz["x"] = (4.0, math.inf)  # the map stays mutable after the checks
    path = tmp_path / "bands.json"
    with pytest.raises(ValueError) as info:
        write_band_averages_json(averages, path)
    assert str(info.value) == ("band 'x' has invalid edges (4.0, inf); edges must be finite, "
                               "ordered and non-negative")
    assert not path.exists()


def test_band_average_default_bands():
    grid = FrequencyGrid.regular(4.0, 30.0, 0.5, sampling_rate_hz=250.0)
    averages = band_average(_linear_spectrum(grid))
    assert set(averages.bands) == {"theta", "alpha", "beta1", "beta2"}


# ---------------------------------------------------------------- averaging


def test_average_over_segments_is_elementwise_mean():
    grid = FrequencyGrid.regular(4.0, 6.0, 1.0, sampling_rate_hz=250.0)
    rng = np.random.default_rng(9)
    specs = []
    stack = []
    for k in range(3):
        vals = rng.uniform(size=(3, 2, 2))
        stack.append(vals)
        specs.append(
            PdcSpectrum(
                values=vals,
                grid=grid,
                channel_labels=("a", "b"),
                degenerate_columns=((k, 0),) if k == 1 else (),
            )
        )
    avg = average_over_segments(specs)
    assert_allclose(avg.values, np.mean(stack, axis=0), rtol=1e-15)
    assert avg.degenerate_columns == ((1, 0),)


def test_average_over_segments_requires_matching_grids():
    grid1 = FrequencyGrid.regular(4.0, 6.0, 1.0, sampling_rate_hz=250.0)
    grid2 = FrequencyGrid.regular(4.0, 6.0, 0.5, sampling_rate_hz=250.0)
    s1 = _linear_spectrum(grid1)
    s2 = _linear_spectrum(grid2)
    with pytest.raises(ValueError):
        average_over_segments([s1, s2])
    with pytest.raises(ValueError):
        average_over_segments([])


# ----------------------------------------------------------------------- io


def test_spectrum_csv_reader_takes_the_rate_it_is_given(tmp_path):
    grid = FrequencyGrid.regular(4.0, 30.0, 0.5, sampling_rate_hz=250.0)
    path = tmp_path / "spec.csv"
    write_spectrum_csv(compute_pdc(LOWER_VAR1, grid), path)
    assert read_spectrum_csv(path, 250.0).grid.sampling_rate_hz == 250.0
    with pytest.raises(TypeError):  # the table holds no rate, so none is guessed
        read_spectrum_csv(path)


def test_spectrum_csv_rejects_a_duplicate_row(tmp_path):
    path = tmp_path / "spec.csv"
    path.write_text("freq_hz,source,target,pdc\n4.0,a,a,0.5\n4,a,a,0.9\n")
    with pytest.raises(ValueError) as info:
        read_spectrum_csv(path, 250.0)
    assert str(info.value) == f"{path}:3: duplicate row for 4.0 Hz, a->a"


def test_spectrum_csv_names_the_file_of_a_rate_below_its_frequencies(tmp_path):
    path = tmp_path / "spec.csv"
    path.write_text("freq_hz,source,target,pdc\n40.0,a,a,1.0\n")
    with pytest.raises(ValueError) as info:
        read_spectrum_csv(path, sampling_rate_hz=50.0)
    assert str(info.value) == f"{path}: frequencies must lie in [0, 25.0] Hz, got [40.0, 40.0]"


def test_band_averages_json_layout(tmp_path):
    grid = FrequencyGrid.regular(4.0, 30.0, 0.5, sampling_rate_hz=250.0)
    averages = band_average(compute_pdc(LOWER_VAR1, grid))
    path = tmp_path / "bands.json"
    write_band_averages_json(averages, path)
    payload = json.loads(path.read_text())
    assert set(payload["bands"]) == {"theta", "alpha", "beta1", "beta2"}
    assert payload["channel_labels"] == ["ch1", "ch2"]
    assert payload["band_edges_hz"]["alpha"] == [8.0, 12.5]
    arr = np.array(payload["bands"]["alpha"])
    assert arr.shape == (2, 2)
    assert np.isfinite(arr).all()
