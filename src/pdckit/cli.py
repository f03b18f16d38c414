"""Command-line interface.

Subcommands cover the individual stages (simulate, fit, pdc, bands, compare)
and the full two-condition pipeline. Failures exit nonzero with one
machine-parseable line on stderr:

    pdckit: <category>: <message>

categories: argument-error (2), io-error (3), estimation-error (4),
pipeline-error (6), unexpected-error (1).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from ._io import _csv_rows, _is_label
from ._version import __version__
from .errors import EstimationError, PipelineError
from .pdc import (
    FrequencyGrid,
    band_average,
    compute_pdc,
    read_spectrum_csv,
    write_band_averages_json,
    write_spectrum_csv,
)
from .pipeline import PipelineConfig, read_config_json, run_pipeline, write_report
from .signals import (
    MultichannelSegment,
    read_markers_csv,
    read_recording_csv,
    write_recording_csv,
)
from .stats import DEFAULT_ALPHA, _key_label, compare_conditions, format_pair, write_test_table_csv
from .synth import generate, read_generator_spec_json
from .var import fit_var, read_model_json, select_order, write_model_json

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


def _band_spec(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected name:low:high, got {text!r}")
    name, low, high = parts
    try:
        return name, float(low), float(high)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric band edges in {text!r}") from None


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
    p.add_argument("--sampling-rate", type=float, required=True, help="Hz")
    p.add_argument("--out", required=True, help="output model JSON")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--order", type=_positive_int, help="fixed model order")
    group.add_argument("--auto-order", action="store_true",
                       help="choose the order by AIC scan")
    p.add_argument("--p-scan-max", type=_positive_int, default=PipelineConfig.p_scan_max,
                   help="top of the AIC scan range (with --auto-order)")
    p.add_argument("--mean-center", action="store_true",
                   help="subtract per-channel means before fitting")

    p = sub.add_parser("pdc", help="coupling spectrum from a model or a recording")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", help="model JSON")
    group.add_argument("--input", help="recording CSV (fit first, then transform)")
    p.add_argument("--sampling-rate", type=float, required=True, help="Hz")
    p.add_argument("--out", required=True, help="output spectrum CSV")
    p.add_argument("--low", type=float, default=PipelineConfig.freq_low_hz, help="grid start, Hz")
    p.add_argument("--high", type=float, default=PipelineConfig.freq_high_hz, help="grid end, Hz")
    p.add_argument("--step", type=float, default=PipelineConfig.freq_step_hz, help="grid step, Hz")
    p.add_argument("--order", type=_positive_int, default=None,
                   help="model order when fitting from --input")
    p.add_argument("--mean-center", action="store_true",
                   help="subtract per-channel means before fitting (with --input)")

    p = sub.add_parser("bands", help="average a spectrum within frequency bands")
    p.add_argument("--spectrum", required=True, help="spectrum CSV")
    p.add_argument("--out", required=True, help="output band JSON")
    p.add_argument("--band", action="append", type=_band_spec, metavar="NAME:LOW:HIGH",
                   help="band definition; repeatable; default theta/alpha/beta1/beta2")

    p = sub.add_parser("compare", help="paired tests between two band-value tables")
    p.add_argument("--condition-a", required=True,
                   help="CSV with columns pair,band,subject,value")
    p.add_argument("--condition-b", required=True,
                   help="CSV with columns pair,band,subject,value")
    p.add_argument("--out", required=True, help="output test-table CSV")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA, help="significance level")

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


def _recording_as_segment(recording, mean_center: bool) -> MultichannelSegment:
    segment = MultichannelSegment(
        samples=recording.samples,
        sampling_rate_hz=recording.sampling_rate_hz,
        channel_labels=recording.channel_labels,
    )
    return segment.centered() if mean_center else segment


def _cmd_simulate(args) -> int:
    spec = read_generator_spec_json(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    recording = generate(spec)
    write_recording_csv(recording, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_fit(args) -> int:
    recording = read_recording_csv(args.input, sampling_rate_hz=args.sampling_rate)
    segment = _recording_as_segment(recording, args.mean_center)
    if args.auto_order:
        order = select_order(segment, args.p_scan_max).chosen_p
    else:
        order = args.order
    model, _ = fit_var(segment, order)
    write_model_json(model, args.out)
    print(f"wrote {args.out} (order {model.order_p})")
    return EXIT_OK


def _cmd_pdc(args) -> int:
    if args.model is not None:
        model = read_model_json(args.model)
    else:
        if args.order is None:
            raise ValueError("--order is required when fitting from --input")
        recording = read_recording_csv(args.input, sampling_rate_hz=args.sampling_rate)
        model, _ = fit_var(_recording_as_segment(recording, args.mean_center), args.order)
    grid = FrequencyGrid.regular(args.low, args.high, args.step, args.sampling_rate)
    spectrum = compute_pdc(model, grid)
    write_spectrum_csv(spectrum, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_bands(args) -> int:
    names = [name for name, _, _ in args.band or ()]
    if len(set(names)) < len(names):
        raise ValueError(f"--band names must be unique, got {names}")
    spectrum = read_spectrum_csv(args.spectrum)
    bands = {name: (low, high) for name, low, high in args.band} if args.band else None
    averages = band_average(spectrum, bands)
    write_band_averages_json(averages, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _read_band_values_csv(path) -> dict:
    """pair,band,subject,value rows of UTF-8 CSV -> {(pair, band): {subject: value}}."""
    table: dict = {}
    for where, row in _csv_rows(path, {"pair", "band", "subject", "value"}):
        pair_text = row["pair"]
        source, _, target = pair_text.partition("->")
        # format_pair must give the cell back, and a '->' in the target
        # would let the cell split two ways
        if not (_is_label(source) and _is_label(target) and "->" not in target
                and format_pair((source, target)) == pair_text):
            raise ValueError(f"{where}: pair must look like 'src->tgt' with two non-empty "
                             f"labels without edge whitespace, got {pair_text!r}")
        for column in ("band", "subject"):
            if not _is_label(row[column]):
                raise ValueError(f"{where}: {column} must be a non-empty label without edge "
                                 f"whitespace, got {row[column]!r}")
        band, subject = row["band"], row["subject"]
        key = ((source, target), band)
        per_subject = table.setdefault(key, {})
        if subject in per_subject:
            raise ValueError(f"{where}: duplicate subject {subject!r} for {_key_label(key)}")
        try:
            value = float(row["value"])
        except (TypeError, ValueError):  # TypeError: a short row has no value cell
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"{where}: value must be a finite number, got {row['value']!r}")
        per_subject[subject] = value
    if not table:
        raise ValueError(f"{path}: no data rows")
    return table


def _cmd_compare(args) -> int:
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
    results = compare_conditions(values_a, values_b, alpha=args.alpha)
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
