import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from pdckit import (
    GeneratorSpec,
    default_config,
    read_recording_csv,
    write_config_json,
    write_generator_spec_json,
)
from pdckit import cli
from pdckit.cli import _build_parser, main
from pdckit.pdc import band_average, read_spectrum_csv
from pdckit.var import read_model_json


def _gen_spec_file(tmp_path, coeffs=None, n=800, seed=12, name="gen.json"):
    coeffs = np.array([[[0.3, 0.0], [0.4, 0.3]]]) if coeffs is None else coeffs
    spec = GeneratorSpec(
        coeff_matrices=coeffs,
        innovation_covariance=np.eye(coeffs.shape[1]),
        n_samples=n,
        seed=seed,
        sampling_rate_hz=250.0,
    )
    path = tmp_path / name
    write_generator_spec_json(spec, path)
    return path


def _simulate(tmp_path, name="rec.csv", **kw):
    spec = _gen_spec_file(tmp_path, **kw)
    out = tmp_path / name
    assert main(["simulate", "--spec", str(spec), "--out", str(out)]) == 0
    return out


# ------------------------------------------------------------------ commands


def test_simulate_writes_deterministic_recording(tmp_path, capsys):
    rec_path = _simulate(tmp_path)
    rec = read_recording_csv(rec_path, sampling_rate_hz=250.0)
    assert rec.samples.shape == (800, 2)
    first = rec_path.read_bytes()
    assert main(["simulate", "--spec", str(_gen_spec_file(tmp_path)),
                 "--out", str(rec_path)]) == 0
    assert rec_path.read_bytes() == first
    capsys.readouterr()


def test_simulate_seed_override_changes_output(tmp_path, capsys):
    spec = _gen_spec_file(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--spec", str(spec), "--out", str(out1)]) == 0
    assert main(["simulate", "--spec", str(spec), "--out", str(out2),
                 "--seed", "999"]) == 0
    a = read_recording_csv(out1, sampling_rate_hz=250.0)
    b = read_recording_csv(out2, sampling_rate_hz=250.0)
    assert np.any(a.samples != b.samples)
    capsys.readouterr()


@pytest.mark.parametrize("source", ["--input", "--model"])
def test_pdc_rejects_an_infinite_sampling_rate(tmp_path, capsys, source):
    rec = _simulate(tmp_path)
    path = rec
    if source == "--model":
        path = tmp_path / "model.json"
        assert main(["fit", "--input", str(rec), "--sampling-rate", "250",
                     "--order", "2", "--out", str(path)]) == 0
        capsys.readouterr()
    out = tmp_path / "s.csv"
    code = main(["pdc", source, str(path), "--sampling-rate", "inf", "--order", "2",
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert not out.exists()
    assert err == ("pdckit: argument-error: sampling_rate_hz must be a finite positive "
                   "number, got inf\n")


@pytest.mark.parametrize("step", ["nan", "inf"])
def test_pdc_rejects_a_grid_step_that_is_not_finite(tmp_path, capsys, step):
    rec = _simulate(tmp_path)
    model, out = tmp_path / "model.json", tmp_path / "s.csv"
    assert main(["fit", "--input", str(rec), "--sampling-rate", "250", "--order", "2",
                 "--out", str(model)]) == 0
    capsys.readouterr()
    code = main(["pdc", "--model", str(model), "--sampling-rate", "250", "--step", step,
                 "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"pdckit: argument-error: step_hz must be a finite positive number, got {step}\n")


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_simulate_rejects_seed_outside_64_bits(tmp_path, capsys, seed):
    code = main(["simulate", "--spec", str(_gen_spec_file(tmp_path)),
                 "--out", str(tmp_path / "r.csv"), "--seed", seed])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("pdckit: argument-error:") and err.count("\n") == 1
    assert seed in err


def test_fit_fixed_and_auto_order(tmp_path, capsys):
    rec = _simulate(tmp_path, n=1500)
    model_path = tmp_path / "model.json"
    assert main(["fit", "--input", str(rec), "--sampling-rate", "250",
                 "--order", "2", "--out", str(model_path)]) == 0
    model = read_model_json(model_path)
    assert model.order_p == 2
    assert model.channel_labels == ("ch1", "ch2")

    auto_path = tmp_path / "auto.json"
    assert main(["fit", "--input", str(rec), "--sampling-rate", "250",
                 "--auto-order", "--p-scan-max", "6", "--out", str(auto_path)]) == 0
    auto = read_model_json(auto_path)
    assert 1 <= auto.order_p <= 6
    out = capsys.readouterr().out
    assert "order" in out


def test_fit_auto_order_refuses_a_scan_too_long_for_the_recording(tmp_path, capsys):
    # 12 rows of 2 channels: p_scan_max 5 is the order bound, but order 5 on
    # the 7 rows after the first 5 breaks N - p >= M*p + 1
    short = tmp_path / "short.csv"
    short.write_text("".join(_simulate(tmp_path).read_text().splitlines(keepends=True)[:13]))
    code = main(["fit", "--input", str(short), "--sampling-rate", "250", "--auto-order",
                 "--p-scan-max", "5", "--out", str(tmp_path / "m.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("pdckit: argument-error: order 5 breaks N - p >= M*p + 1 for N=12")
    assert not (tmp_path / "m.json").exists()


def test_pdc_from_model_and_from_recording(tmp_path, capsys):
    rec = _simulate(tmp_path, n=1500)
    model_path = tmp_path / "model.json"
    main(["fit", "--input", str(rec), "--sampling-rate", "250",
          "--order", "1", "--out", str(model_path)])

    spec_path = tmp_path / "spec.csv"
    assert main(["pdc", "--model", str(model_path), "--sampling-rate", "250",
                 "--out", str(spec_path)]) == 0
    spectrum = read_spectrum_csv(spec_path, sampling_rate_hz=250.0)
    assert spectrum.grid.n_freqs == 53
    assert spectrum.values.shape == (53, 2, 2)

    direct = tmp_path / "direct.csv"
    assert main(["pdc", "--input", str(rec), "--sampling-rate", "250",
                 "--order", "1", "--low", "4", "--high", "20", "--step", "1",
                 "--out", str(direct)]) == 0
    narrow = read_spectrum_csv(direct, sampling_rate_hz=250.0)
    assert narrow.grid.n_freqs == 17
    capsys.readouterr()


def test_bands_default_and_custom(tmp_path, capsys):
    rec = _simulate(tmp_path, n=1500)
    spec_path = tmp_path / "spec.csv"
    main(["pdc", "--input", str(rec), "--sampling-rate", "250",
          "--order", "1", "--out", str(spec_path)])

    bands_path = tmp_path / "bands.json"
    assert main(["bands", "--spectrum", str(spec_path),
                 "--out", str(bands_path)]) == 0
    payload = json.loads(bands_path.read_text())
    assert set(payload["bands"]) == {"theta", "alpha", "beta1", "beta2"}

    custom = tmp_path / "custom.json"
    assert main(["bands", "--spectrum", str(spec_path), "--out", str(custom),
                 "--band", "mid:10:20", "--band", "low:4:8"]) == 0
    payload = json.loads(custom.read_text())
    assert set(payload["bands"]) == {"mid", "low"}
    capsys.readouterr()


def _band_table_csv(path, shift, subjects, scramble=False):
    rows = [("pair", "band", "subject", "value")]
    rng = np.random.default_rng(6)
    listed = list(subjects)
    if scramble:
        listed = listed[::-1]
    for subject in listed:
        base = 0.3 + 0.01 * rng.standard_normal()
        rows.append(("f->t", "theta", subject, f"{base + shift:.6f}"))
        rows.append(("f->t", "alpha", subject, f"{base:.6f}"))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_pdc_refuses_a_model_with_a_nan_coefficient(tmp_path, capsys):
    rec = _simulate(tmp_path, n=1500)
    model_path = tmp_path / "model.json"
    main(["fit", "--input", str(rec), "--sampling-rate", "250",
          "--order", "1", "--out", str(model_path)])
    payload = json.loads(model_path.read_text())
    payload["coeff_matrices"][0][1][0] = float("nan")
    model_path.write_text(json.dumps(payload))
    out = tmp_path / "spec.csv"
    code = main(["pdc", "--model", str(model_path), "--sampling-rate", "250",
                 "--out", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"pdckit: argument-error: {model_path}: coeff_matrices must be ")


def test_bands_refuses_a_spectrum_with_a_nan_cell(tmp_path, capsys):
    rec = _simulate(tmp_path, n=1500)
    spec_path = tmp_path / "spec.csv"
    main(["pdc", "--input", str(rec), "--sampling-rate", "250",
          "--order", "1", "--out", str(spec_path)])
    lines = spec_path.read_text().splitlines()
    freq, source, target, _ = lines[5].split(",")
    lines[5] = f"{freq},{source},{target},nan"
    spec_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "bands.json"
    code = main(["bands", "--spectrum", str(spec_path), "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert "PDC values must lie in [0, 1]" in capsys.readouterr().err


def test_compare_pairs_subjects_by_id(tmp_path, capsys):
    subjects = [f"s{i}" for i in range(10)]
    a_path = tmp_path / "a.csv"
    _band_table_csv(a_path, 0.0, subjects)
    b_path = tmp_path / "b.csv"
    _band_table_csv(b_path, 0.2, subjects, scramble=True)
    out = tmp_path / "table.csv"
    assert main(["compare", "--condition-a", str(a_path),
                 "--condition-b", str(b_path), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = {r["band"]: r for r in csv.DictReader(fh)}
    assert rows["theta"]["significant"] == "true"
    assert rows["theta"]["direction"] == "b_greater"
    capsys.readouterr()


def test_compare_of_identical_tables_writes_untestable_rows(tmp_path, capsys):
    # an all-zero key is an untestable row, not an error: no command exits 5
    a_path = tmp_path / "a.csv"
    _band_table_csv(a_path, 0.0, ["s1", "s2", "s3"])
    out = tmp_path / "table.csv"
    assert main(["compare", "--condition-a", str(a_path), "--condition-b", str(a_path),
                 "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["band"] for row in rows] == ["theta", "alpha"]
    for row in rows:
        assert (row["n"], row["W"], row["p_raw"], row["p_adjusted"]) == ("0", "", "1.0", "1.0")
        assert (row["direction"], row["significant"]) == ("none", "false")
    capsys.readouterr()


def test_compare_rejects_mismatched_subjects(tmp_path, capsys):
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    _band_table_csv(a_path, 0.0, ["s1", "s2", "s3"])
    _band_table_csv(b_path, 0.1, ["s1", "s2", "s9"])
    code = main(["compare", "--condition-a", str(a_path),
                 "--condition-b", str(b_path), "--out", str(tmp_path / "t.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("pdckit: argument-error:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("cell", ["abc", "nan", "inf", "-inf", ""])
def test_compare_names_the_line_of_a_bad_value(tmp_path, capsys, cell):
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    _band_table_csv(a_path, 0.0, ["s1", "s2", "s3"])
    _band_table_csv(b_path, 0.1, ["s1", "s2", "s3"])
    lines = a_path.read_text().splitlines()
    lines[4] = f"f->t,alpha,s2,{cell}"
    a_path.write_text("\n".join(lines) + "\n")
    code = main(["compare", "--condition-a", str(a_path),
                 "--condition-b", str(b_path), "--out", str(tmp_path / "t.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"pdckit: argument-error: {a_path}:5: ")
    assert repr(cell) in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("pair, band, bad", [
    ("->t", "", "->t"),
    ("f->", "alpha", "f->"),
    ("->", "alpha", "->"),
    ("ft", "alpha", "ft"),
    (" f->t", "alpha", " f->t"),
    ("f ->t", "alpha", "f ->t"),
    ("f-> t", "alpha", "f-> t"),
    ("a->b->c", "alpha", "a->b->c"),
    (" a -> b->c ", "alpha", " a -> b->c "),
    ("f->t", "", ""),
    ("f->t", " alpha", " alpha"),
    ("f->t", "alpha ", "alpha "),
])
def test_compare_rejects_a_pair_or_band_that_does_not_round_trip(tmp_path, capsys, pair, band, bad):
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    _band_table_csv(a_path, 0.0, ["s1", "s2", "s3"])
    _band_table_csv(b_path, 0.1, ["s1", "s2", "s3"])
    lines = a_path.read_text().splitlines()
    lines[4] = f"{pair},{band},s2,0.3"
    a_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "t.csv"
    code = main(["compare", "--condition-a", str(a_path),
                 "--condition-b", str(b_path), "--out", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"pdckit: argument-error: {a_path}:5: ")
    assert repr(bad) in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("subject", ["", " s1", "s1 "])
def test_compare_rejects_an_empty_or_padded_subject(tmp_path, capsys, subject):
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    _band_table_csv(a_path, 0.0, ["s1", "s2", "s3"])
    _band_table_csv(b_path, 0.1, ["s1", "s2", "s3"])
    # s1's alpha row carries the same bad subject cell in both tables, so the
    # two subject sets still match and only the cell itself can be refused
    for path, value in ((a_path, 0.31), (b_path, 0.41)):
        lines = path.read_text().splitlines()
        lines[2] = f"f->t,alpha,{subject},{value}"
        path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "t.csv"
    code = main(["compare", "--condition-a", str(a_path),
                 "--condition-b", str(b_path), "--out", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"pdckit: argument-error: {a_path}:3: subject ")
    assert repr(subject) in err
    assert err.count("\n") == 1


def _pipeline_argv(tmp_path, config, coupled, quiet, n_subjects=10):
    """Write a config, markers and two cohorts; return the argv minus --out."""
    from pdckit import generate, write_recording_csv

    config_path = tmp_path / "config.json"
    write_config_json(config, config_path)
    markers = tmp_path / "markers.csv"
    markers.write_text("".join(f"{900 * k}\n" for k in range(6)))

    paths = {"a": [], "b": []}
    for cond, coeffs, base in (("a", quiet, 0), ("b", coupled, 100)):
        for s in range(n_subjects):
            rec = generate(GeneratorSpec(
                coeff_matrices=coeffs,
                innovation_covariance=np.eye(coeffs.shape[1]),
                n_samples=225 * 6,
                seed=55_000 + base + s,
                sampling_rate_hz=250.0,
            ))
            p = tmp_path / f"{cond}{s}.csv"
            write_recording_csv(rec, p)
            paths[cond].append(str(p))
    return ["pipeline", "--config", str(config_path),
            "--condition-a", *paths["a"], "--condition-b", *paths["b"],
            "--markers", str(markers)]


def test_pipeline_command_end_to_end(tmp_path, capsys):
    coupled = np.array([[[0.3, 0.0], [0.4, 0.3]]])
    quiet = np.array([[[0.3, 0.0], [0.0, 0.3]]])
    argv = _pipeline_argv(tmp_path, default_config(250.0), coupled, quiet)

    out_dir = tmp_path / "out"
    code = main([*argv, "--out", str(out_dir)])
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert len(report["tests"]) == 8
    assert (out_dir / "test_table.csv").exists()
    out = capsys.readouterr().out
    assert "hypotheses 8" in out


def test_pipeline_names_the_recording_with_a_non_finite_sample(tmp_path, capsys):
    quiet = np.array([[[0.3, 0.0], [0.0, 0.3]]])
    argv = _pipeline_argv(tmp_path, default_config(250.0), quiet, quiet, n_subjects=3)
    bad = tmp_path / "b1.csv"
    lines = bad.read_text().splitlines()
    lines[7] = lines[7].split(",")[0] + ",inf"
    bad.write_text("\n".join(lines) + "\n")
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"pdckit: argument-error: {bad}:8: non-finite sample value\n")


def test_pipeline_threads_flag_is_accepted_and_ignored(tmp_path, capsys, monkeypatch):
    # the thread-count variable is no longer read, so a malformed value is harmless
    monkeypatch.setenv("PDC_TOOLKIT_THREADS", "abc")
    coupled = np.array([[[0.3, 0.0], [0.4, 0.3]]])
    quiet = np.array([[[0.3, 0.0], [0.0, 0.3]]])
    argv = _pipeline_argv(tmp_path, default_config(250.0), coupled, quiet, n_subjects=4)
    assert main([*argv, "--out", str(tmp_path / "plain")]) == 0
    assert main([*argv, "--out", str(tmp_path / "threads"), "--threads", "2"]) == 0
    plain = (tmp_path / "plain" / "test_table.csv").read_bytes()
    assert (tmp_path / "threads" / "test_table.csv").read_bytes() == plain
    capsys.readouterr()


@pytest.mark.parametrize("changes", [
    {},
    {"model_scope": "joint", "order_mode": "auto_aic", "p_scan_max": 10},
], ids=["default", "joint-auto-aic"])
def test_pipeline_output_does_not_depend_on_the_blas_thread_count(tmp_path, changes):
    quiet = np.diag([0.3, 0.3, 0.3])[None]
    coupled = quiet.copy()
    coupled[0, 1, 0] = 0.4
    config = dataclasses.replace(default_config(250.0), **changes)
    argv = _pipeline_argv(tmp_path, config, coupled, quiet, n_subjects=5)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run([sys.executable, "-m", "pdckit", *argv, "--out", str(out)],
                              env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        report = [line for line in (out / "report.json").read_bytes().splitlines()
                  if not line.lstrip().startswith(b'"timestamp_utc":')]
        outputs.append((report, (out / "test_table.csv").read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("changes, bound", [
    ({"order_mode": "auto_aic", "p_scan_max": 20}, "order bound 11"),
    ({"fixed_order": 60}, "N - p >= M*p + 1"),
])
def test_pipeline_infeasible_protocol_is_argument_error(tmp_path, capsys, changes, bound):
    config = dataclasses.replace(default_config(250.0), model_scope="joint", **changes)
    coeffs = np.diag([0.3] * 4)[None]
    argv = _pipeline_argv(tmp_path, config, coeffs, coeffs, n_subjects=2)
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("pdckit: argument-error:")
    assert bound in err


# -------------------------------------------------------------------- errors


def test_missing_input_file_is_io_error(tmp_path, capsys):
    code = main(["fit", "--input", str(tmp_path / "absent.csv"),
                 "--sampling-rate", "250", "--order", "2",
                 "--out", str(tmp_path / "m.json")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("pdckit: io-error:")
    assert "absent.csv" in err


def test_malformed_json_is_argument_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["simulate", "--spec", str(bad), "--out", str(tmp_path / "r.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith("pdckit: argument-error:")


def test_unfittable_order_is_argument_error(tmp_path, capsys):
    rec = _simulate(tmp_path, n=800)
    code = main(["fit", "--input", str(rec), "--sampling-rate", "250",
                 "--order", "400", "--out", str(tmp_path / "m.json")])
    assert code == 2
    capsys.readouterr()


def test_a_key_error_in_a_handler_is_unexpected_error(tmp_path, capsys, monkeypatch):
    # no input reaches a KeyError, so one is a fault of the program, not an argument error
    def broken(args):
        raise KeyError("ch9")

    monkeypatch.setitem(cli._HANDLERS, "fit", broken)
    code = main(["fit", "--input", str(tmp_path / "rec.csv"), "--sampling-rate", "250",
                 "--order", "2", "--out", str(tmp_path / "m.json")])
    assert code == 1
    assert capsys.readouterr().err == "pdckit: unexpected-error: 'ch9'\n"


def test_constant_recording_is_estimation_error(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ch1", "ch2"])
        writer.writerows([[1.0, 2.0]] * 500)
    code = main(["fit", "--input", str(path), "--sampling-rate", "250",
                 "--order", "2", "--out", str(tmp_path / "m.json")])
    assert code == 4
    assert capsys.readouterr().err.startswith("pdckit: estimation-error:")


def _reader_inputs(tmp_path):
    """Valid inputs for every file reader the CLI has: reader -> (file, argv that reads it)."""
    spec = _gen_spec_file(tmp_path)
    rec = _simulate(tmp_path)
    model, spectrum = tmp_path / "model.json", tmp_path / "spectrum.csv"
    assert main(["fit", "--input", str(rec), "--sampling-rate", "250", "--order", "1",
                 "--out", str(model)]) == 0
    assert main(["pdc", "--model", str(model), "--sampling-rate", "250",
                 "--out", str(spectrum)]) == 0
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    _band_table_csv(a_path, 0.0, ["s1", "s2", "s3"])
    _band_table_csv(b_path, 0.1, ["s1", "s2", "s3"])
    config, markers = tmp_path / "config.json", tmp_path / "markers.csv"
    write_config_json(default_config(250.0), config)
    markers.write_text("0\n900\n")
    out = str(tmp_path / "out")
    pipeline = ["pipeline", "--config", str(config), "--condition-a", str(rec),
                "--condition-b", str(rec), "--markers", str(markers), "--out", out]
    return {
        "generator spec": (spec, ["simulate", "--spec", str(spec), "--out", out]),
        "recording": (rec, ["fit", "--input", str(rec), "--sampling-rate", "250",
                            "--order", "1", "--out", out]),
        "model": (model, ["pdc", "--model", str(model), "--sampling-rate", "250",
                          "--out", out]),
        "spectrum": (spectrum, ["bands", "--spectrum", str(spectrum), "--out", out]),
        "band table": (a_path, ["compare", "--condition-a", str(a_path),
                                "--condition-b", str(b_path), "--out", out]),
        "config": (config, pipeline),
        "markers": (markers, pipeline),
    }


@pytest.mark.parametrize("reader", ["generator spec", "recording", "model", "spectrum",
                                    "band table", "config", "markers"])
def test_every_reader_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, capsys, reader):
    path, argv = _reader_inputs(tmp_path)[reader]
    capsys.readouterr()
    first, rest = path.read_bytes().split(b"\n", 1)
    path.write_bytes(first + b"\n\xff" + rest)
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"pdckit: argument-error: {path}:2: not UTF-8 text (invalid start byte)\n")


@pytest.mark.parametrize("reader", ["generator spec", "model", "config"])
@pytest.mark.parametrize("empty", [False, True], ids=["truncated", "empty"])
def test_every_json_reader_names_the_line_of_malformed_json(tmp_path, capsys, reader, empty):
    path, argv = _reader_inputs(tmp_path)[reader]
    capsys.readouterr()
    text = path.read_text()
    # '{' on line 1, then the first key and its colon but no value on line 2
    path.write_text("" if empty else text[: text.index(":") + 1])
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"pdckit: argument-error: {path}:{1 if empty else 2}: Expecting value\n")


@pytest.mark.parametrize("reader, key, value", [
    ("generator spec", "seed", "8"), ("model", "order", "2"), ("config", "fixed_order", "5"),
])
def test_every_json_reader_refuses_a_repeated_key(tmp_path, capsys, reader, key, value):
    path, argv = _reader_inputs(tmp_path)[reader]
    capsys.readouterr()
    text = path.read_text()
    # the repeat comes last, where a plain decode would keep it
    path.write_text(f'{text[:text.rindex("}")]}, "{key}": {value}}}\n')
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f'pdckit: argument-error: {path}: key "{key}" is repeated\n')


@pytest.mark.parametrize("reader, key", [
    ("generator spec", "coeff_matrices"), ("model", "coeff_matrices"),
    ("config", "channel_pairs"),
])
@pytest.mark.parametrize("document", ["unclosed", "deep array"])
def test_every_json_reader_names_the_file_of_deeply_nested_json(tmp_path, capsys, reader, key,
                                                                 document):
    path, argv = _reader_inputs(tmp_path)[reader]
    capsys.readouterr()
    if document == "unclosed":
        path.write_text("[" * 100_000)  # past the decoder's recursion limit
    else:
        # decodes, but is past the recursion limit of the value checks
        payload = {**json.loads(path.read_text()), key: "deep"}
        path.write_text(json.dumps(payload).replace('"deep"', "[" * 980 + "0.5" + "]" * 980))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"pdckit: argument-error: {path}: ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("reader, line", [
    ("recording", 1), ("recording", 2), ("spectrum", 1), ("spectrum", 3),
    ("band table", 1), ("band table", 3),
])
def test_a_cell_past_the_csv_field_limit_is_named_by_line(tmp_path, capsys, reader, line):
    path, argv = _reader_inputs(tmp_path)[reader]
    capsys.readouterr()
    lines = path.read_bytes().splitlines(keepends=True)
    # a number the one-call parse reads; the short last row sends the file to the row loop
    lines[line - 1] = b"0" * 131_073 + lines[line - 1][lines[line - 1].index(b","):]
    path.write_bytes(b"".join(lines) + b"1\n")
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"pdckit: argument-error: {path}:{line}: field larger than field limit (131072)\n")


@pytest.mark.parametrize("column, cell, message", [
    ("pdc", "nan", "PDC values must lie in [0, 1], got 'nan'"),
    ("pdc", "1.5", "PDC values must lie in [0, 1], got '1.5'"),
    ("freq_hz", "-4.0", "freq_hz must be finite and >= 0, got '-4.0'"),
    ("freq_hz", "inf", "freq_hz must be finite and >= 0, got 'inf'"),
], ids=["nan-pdc", "pdc-above-1", "negative-freq", "infinite-freq"])
def test_spectrum_reader_names_the_line_of_a_cell_out_of_range(tmp_path, capsys, column, cell,
                                                                message):
    path, argv = _reader_inputs(tmp_path)["spectrum"]
    capsys.readouterr()
    lines = path.read_text().splitlines()
    cells = dict(zip(lines[0].split(","), lines[2].split(",")))
    lines[2] = ",".join({**cells, column: cell}.values())
    path.write_text("\n".join(lines) + "\n")
    assert main(argv) == 2
    assert capsys.readouterr().err == f"pdckit: argument-error: {path}:3: {message}\n"


def test_bands_refuses_a_repeated_band_name(tmp_path, capsys):
    path, _ = _reader_inputs(tmp_path)["spectrum"]
    capsys.readouterr()
    out = tmp_path / "bands.json"
    assert main(["bands", "--spectrum", str(path), "--out", str(out),
                 "--band", "x:4:8", "--band", "x:20:30"]) == 2
    assert capsys.readouterr().err == (
        "pdckit: argument-error: --band names must be unique, got ['x', 'x']\n")
    assert not out.exists()


@pytest.mark.parametrize("header, row, argv", [
    ("freq_hz,source,target,pdc,pdc", "4.0,a,a,0.5,0.9", ["bands", "--spectrum"]),
    ("pair,band,subject,value,value", "a->b,alpha,s1,0.1,0.7",
     ["compare", "--condition-b", "absent.csv", "--condition-a"]),
], ids=["spectrum", "band table"])
def test_csv_tables_refuse_a_repeated_column(tmp_path, capsys, header, row, argv):
    # read_spectrum_csv and the band-table reader would keep the last cell;
    # compare reads condition a first, so the absent b table is never opened
    path = tmp_path / "table.csv"
    path.write_text(f"{header}\n{row}\n")
    assert main([*argv, str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"pdckit: argument-error: {path}:1: column {header.split(',')[-1]!r} is repeated\n")


@pytest.mark.parametrize("name", ["", " a", "a "])
def test_band_names_follow_the_label_rule(tmp_path, capsys, name):
    spectrum = tmp_path / "spectrum.csv"
    spectrum.write_text("freq_hz,source,target,pdc\n4.0,a,a,1.0\n")
    message = f"band name {name!r} must be a non-empty string without edge whitespace"
    with pytest.raises(ValueError, match=re.escape(message)):
        band_average(read_spectrum_csv(spectrum), {name: (4.0, 8.0)})
    assert main(["bands", "--spectrum", str(spectrum), "--band", f"{name}:4:8",
                 "--out", str(tmp_path / "bands.json")]) == 2
    assert capsys.readouterr().err == f"pdckit: argument-error: {message}\n"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sampling_rate_hz": 250.0,
                                  "bands": {"theta": [4.0, 8.0], name: [8.0, 12.0]}}))
    out = str(tmp_path / "out")
    assert main(["pipeline", "--config", str(config), "--condition-a", out, "--condition-b", out,
                 "--markers", out, "--out", out]) == 2
    assert capsys.readouterr().err == f"pdckit: argument-error: {config}: {message}\n"


def test_bands_reads_back_a_spectrum_of_0_hz_alone(tmp_path, capsys):
    _, argv = _reader_inputs(tmp_path)["model"]  # pdc --model model.json ...
    spectrum, out = tmp_path / "dc.csv", tmp_path / "dc.json"
    assert main([*argv[:-1], str(spectrum), "--low", "0", "--high", "0"]) == 0
    assert main(["bands", "--spectrum", str(spectrum), "--band", "dc:0:0",
                 "--out", str(out)]) == 0
    assert read_spectrum_csv(spectrum).grid.sampling_rate_hz == 1.0
    assert json.loads(out.read_text())["band_edges_hz"] == {"dc": [0.0, 0.0]}
    capsys.readouterr()


def test_parser_defaults_are_the_protocol_defaults():
    config = default_config(250.0)
    parse = _build_parser().parse_args
    fit = parse(["fit", "--input", "r.csv", "--sampling-rate", "250", "--out", "m.json",
                 "--auto-order"])
    assert fit.p_scan_max == config.p_scan_max
    pdc = parse(["pdc", "--model", "m.json", "--sampling-rate", "250", "--out", "s.csv"])
    assert (pdc.low, pdc.high, pdc.step) == (config.freq_low_hz, config.freq_high_hz,
                                             config.freq_step_hz)
    compare = parse(["compare", "--condition-a", "a.csv", "--condition-b", "b.csv",
                     "--out", "t.csv"])
    assert compare.alpha == config.alpha


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("pdckit ")


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "pdckit", "--version"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("pdckit ")


def test_cli_import_leaves_out_scipy_stats():
    # numpy is the only runtime dependency; scipy.special alone would take most of
    # the CLI's start-up
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, pdckit.cli; print(sorted(m for m in sys.modules "
         "if m.startswith('scipy')))"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _tied_band_table_csv(path, rng, shift):
    """30 subjects on two pairs and two bands; values are multiples of 1/64, so
    differences are exact and many tie, and every key takes the normal branch."""
    rows = [("pair", "band", "subject", "value")]
    for pair in ("F3->F4", "F4->F3"):
        for band in ("theta", "alpha"):
            for subject in range(30):
                value = (16 + shift + int(rng.integers(-4, 5))) / 64
                rows.append((pair, band, f"s{subject:02d}", repr(value)))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_compare_runs_without_scipy(tmp_path):
    rng = np.random.default_rng(30)
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    _tied_band_table_csv(a_path, rng, shift=2)
    _tied_band_table_csv(b_path, rng, shift=0)
    tables = {}
    for name, block in (("blocked", "sys.modules['scipy'] = None; "), ("importable", "")):
        out = tmp_path / f"{name}.csv"
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys; {block}from pdckit.cli import main; sys.exit(main(sys.argv[1:]))",
             "compare", "--condition-a", str(a_path), "--condition-b", str(b_path),
             "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        tables[name] = out.read_bytes()
    assert tables["blocked"] == tables["importable"]
    rows = list(csv.DictReader(io.StringIO(tables["blocked"].decode())))
    assert len(rows) == 4 and all(row["n"] != "0" for row in rows)
