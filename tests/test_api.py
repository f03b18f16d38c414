"""The package's public names: each module's ``__all__`` is the one list."""

import pdckit
from pdckit import errors, pdc, pipeline, signals, stats, synth, var

# every name pdckit.__all__ listed before it was built from the modules' lists;
# none of them may go
_EARLIER_NAMES = {
    "__version__", "DegenerateSampleError", "EstimationError", "PipelineError",
    "Recording", "MultichannelSegment", "StationarityReport", "extract_segments",
    "screen_stationarity", "read_recording_csv", "write_recording_csv", "read_markers_csv",
    "VarModel", "OrderSelection", "fit_var", "aic", "max_order_bound",
    "choose_order_from_aic", "select_order", "companion_matrix", "check_stability",
    "spectral_radius", "read_model_json", "write_model_json", "FrequencyGrid",
    "PdcSpectrum", "BandAverages", "DEFAULT_BANDS", "evaluate_transfer", "compute_pdc",
    "average_over_segments", "band_average", "read_spectrum_csv", "write_spectrum_csv",
    "write_band_averages_json", "PairedSample", "PairedTestResult", "WilcoxonOutcome",
    "wilcoxon_signed_rank", "holm_bonferroni", "compare_conditions", "format_pair",
    "DIRECTION_A_GREATER", "DIRECTION_B_GREATER", "DIRECTION_NONE", "write_test_table_csv",
    "GeneratorSpec", "generate", "read_generator_spec_json", "write_generator_spec_json",
    "PipelineConfig", "ConditionSummary", "AnalysisReport", "default_config", "run_pipeline",
    "report_to_dict", "write_report", "read_config_json", "write_config_json",
}


def test_package_exports_every_module_name_once():
    modules = (errors, signals, var, pdc, stats, synth, pipeline)
    assert pdckit.__all__ == ["__version__", *(name for m in modules for name in m.__all__)]
    assert len(set(pdckit.__all__)) == len(pdckit.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(pdckit, name) is getattr(module, name), name
    assert len(_EARLIER_NAMES) == 59
    assert _EARLIER_NAMES <= set(pdckit.__all__)
    # the module constants the hand-written list left out
    assert {"ORDER_MODE_FIXED", "ORDER_MODE_AUTO_AIC", "SCOPE_PER_PAIR", "SCOPE_JOINT",
            "DEFAULT_ALPHA", "DEFAULT_EXACT_THRESHOLD", "DEFAULT_BURN_IN"} <= set(pdckit.__all__)
    # an epoch is a Recording; the old name stays importable
    assert pdckit.MultichannelSegment is pdckit.Recording

