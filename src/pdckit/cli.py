"""Command-line interface.

Subcommands cover the individual stages (simulate, fit, pdc, bands, compare)
and the full two-condition pipeline. Every command but `simulate` reads the
protocol it applies from the config JSON file that `pipeline` reads
(`--config`): `fit` the sampling rate, the order rule and centring, `pdc` the
frequency grid, `bands` the sampling rate and the bands, `compare` the
family-wise alpha. So each stage writes what the pipeline computes under the
same config, and no command has a protocol default of its own.

Failures exit nonzero with one machine-parseable line on stderr:

    pdckit: <category>: <message>

categories: argument-error (2), io-error (3), estimation-error (4),
pipeline-error (6), unexpected-error (1).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from ._io import _csv_rows, _label_cell, _number_cell
from ._version import __version__
from .errors import EstimationError, PipelineError
from .pdc import (
    band_average,
    compute_pdc,
    read_spectrum_csv,
    write_band_averages_json,
    write_spectrum_csv,
)
from .pipeline import _fit_order, read_config_json, run_pipeline, write_report
from .signals import read_markers_csv, read_recording_csv, write_recording_csv
from .stats import _key_label, _pair_cell, compare_conditions, write_test_table_csv
from .synth import generate, read_generator_spec_json
from .var import fit_var, read_model_json, write_model_json

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_ARGUMENT = 2
EXIT_IO = 3
EXIT_ESTIMATION = 4
EXIT_PIPELINE = 6


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


_CONFIG_HELP = ("pipeline config JSON, read and checked whole as `pipeline` reads it, so "
                "sampling_rate_hz is required; this command uses {}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdckit",
        description="Directed spectral coupling analysis of multichannel recordings.",
    )
    parser.add_argument("--version", action="version", version=f"pdckit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a recording from a generator spec")
    p.add_argument("--spec", required=True, help="generator spec JSON")
    p.add_argument("--out", required=True, help="output recording CSV")
    p.add_argument("--seed", type=int, default=None,
                   help="override the seed stored in the spec")

    p = sub.add_parser("fit", help="fit one VAR model to a whole recording")
    p.add_argument("--input", required=True, help="recording CSV")
    p.add_argument("--config", required=True, help=_CONFIG_HELP.format(
        "sampling_rate_hz, order_mode, fixed_order, p_scan_max and mean_center"))
    p.add_argument("--out", required=True, help="output model JSON")

    p = sub.add_parser("pdc", help="coupling spectrum of a fitted model")
    p.add_argument("--model", required=True, help="model JSON, as `fit` writes it")
    p.add_argument("--config", required=True,
                   help=_CONFIG_HELP.format("sampling_rate_hz and freq_grid"))
    p.add_argument("--out", required=True, help="output spectrum CSV")

    p = sub.add_parser("bands", help="average a spectrum within frequency bands")
    p.add_argument("--spectrum", required=True, help="spectrum CSV")
    p.add_argument("--config", required=True,
                   help=_CONFIG_HELP.format("sampling_rate_hz and bands"))
    p.add_argument("--out", required=True, help="output band JSON")

    p = sub.add_parser("compare", help="paired tests between two band-value tables")
    p.add_argument("--condition-a", required=True,
                   help="CSV with columns pair,band,subject,value")
    p.add_argument("--condition-b", required=True,
                   help="CSV with columns pair,band,subject,value")
    p.add_argument("--config", required=True, help=_CONFIG_HELP.format("alpha"))
    p.add_argument("--out", required=True, help="output test-table CSV")

    p = sub.add_parser("pipeline", help="full two-condition analysis")
    p.add_argument("--config", required=True, help="pipeline config JSON")
    p.add_argument("--condition-a", required=True, nargs="+",
                   help="recording CSVs, one per subject")
    p.add_argument("--condition-b", required=True, nargs="+",
                   help="recording CSVs, one per subject, index-aligned with --condition-a")
    p.add_argument("--markers", required=True, help="epoch onsets CSV (ms, one per line)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--threads", type=_positive_int, default=None,
                   help="deprecated and ignored; subjects are processed sequentially")

    return parser


def _cmd_simulate(args) -> int:
    spec = read_generator_spec_json(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    recording = generate(spec)
    write_recording_csv(recording, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_fit(args) -> int:
    config = read_config_json(args.config)
    recording = read_recording_csv(args.input, sampling_rate_hz=config.sampling_rate_hz)
    segment = recording.centered() if config.mean_center else recording
    model, _ = fit_var(segment, _fit_order(config, segment))
    write_model_json(model, args.out)
    print(f"wrote {args.out} (order {model.order_p})")
    return EXIT_OK


def _cmd_pdc(args) -> int:
    grid = read_config_json(args.config).frequency_grid()
    spectrum = compute_pdc(read_model_json(args.model), grid)
    write_spectrum_csv(spectrum, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_bands(args) -> int:
    config = read_config_json(args.config)
    spectrum = read_spectrum_csv(args.spectrum, config.sampling_rate_hz)
    write_band_averages_json(band_average(spectrum, config.bands), args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


# a band-value table's columns and cell readers, one row per (pair, band) key and subject
_BAND_VALUE_COLUMNS = {"pair": _pair_cell, "band": _label_cell, "subject": _label_cell,
                       "value": _number_cell}


def _read_band_values_csv(path) -> dict:
    """pair,band,subject,value rows of UTF-8 CSV -> {(pair, band): {subject: value}}."""
    table: dict = {}
    for where, row in _csv_rows(path, _BAND_VALUE_COLUMNS):
        key, subject = (row["pair"], row["band"]), row["subject"]
        per_subject = table.setdefault(key, {})
        if subject in per_subject:
            raise ValueError(f"{where}: duplicate subject {subject!r} for {_key_label(key)}")
        per_subject[subject] = row["value"]
    if not table:
        raise ValueError(f"{path}: no data rows")
    return table


def _cmd_compare(args) -> int:
    alpha = read_config_json(args.config).alpha
    table_a = _read_band_values_csv(args.condition_a)
    table_b = _read_band_values_csv(args.condition_b)
    if set(table_a) != set(table_b):
        raise ValueError("the two tables define different (pair, band) sets")
    values_a = {}
    values_b = {}
    for key in table_a:
        subjects_a = table_a[key]
        subjects_b = table_b[key]
        if set(subjects_a) != set(subjects_b):
            raise ValueError(f"subject sets differ for {_key_label(key)}")
        ordered = sorted(subjects_a)
        values_a[key] = [subjects_a[s] for s in ordered]
        values_b[key] = [subjects_b[s] for s in ordered]
    results = compare_conditions(values_a, values_b, alpha=alpha)
    write_test_table_csv(results, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    config = read_config_json(args.config)
    starts = read_markers_csv(args.markers)

    def load(paths):
        return [(read_recording_csv(p, sampling_rate_hz=config.sampling_rate_hz), starts)
                for p in paths]

    report = run_pipeline(config, load(args.condition_a), load(args.condition_b))
    paths = write_report(report, args.out)
    n_significant = sum(1 for r in report.test_results.values() if r.significant)
    print(f"wrote {paths['report']}")
    print(f"wrote {paths['test_table']}")
    print(f"hypotheses {len(report.test_results)}, significant {n_significant}")
    return EXIT_OK


_HANDLERS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "pdc": _cmd_pdc,
    "bands": _cmd_bands,
    "compare": _cmd_compare,
    "pipeline": _cmd_pipeline,
}


def _fail(category: str, exc: BaseException, code: int) -> int:
    message = " ".join(str(exc).split()) or exc.__class__.__name__
    print(f"pdckit: {category}: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except EstimationError as exc:
        return _fail("estimation-error", exc, EXIT_ESTIMATION)
    except PipelineError as exc:
        return _fail("pipeline-error", exc, EXIT_PIPELINE)
    except OSError as exc:
        name = getattr(exc, "filename", None)
        detail = f"{exc.strerror or exc}: {name}" if name else str(exc)
        return _fail("io-error", OSError(detail), EXIT_IO)
    except ValueError as exc:
        return _fail("argument-error", exc, EXIT_ARGUMENT)
    except Exception as exc:  # last-resort guard: a fault of the program, not of its input
        return _fail("unexpected-error", exc, EXIT_UNEXPECTED)


if __name__ == "__main__":
    sys.exit(main())
