import argparse
import ast
import csv
import dataclasses
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pdckit import (
    band_average,
    compute_pdc,
    default_config,
    fit_var,
    read_config_json,
    read_recording_csv,
    select_order,
    write_band_averages_json,
    write_config_json,
    write_generator_spec_json,
    write_model_json,
    write_recording_csv,
    write_spectrum_csv,
)
from pdckit import cli
from pdckit.cli import main
from pdckit.pdc import read_spectrum_csv
from pdckit.pipeline import _CONFIG_KEYS, _fit_order

from conftest import (COUPLED, QUIET, build_spec, csv_records, csv_texts, fresh_path, simulate,
                      stable_lines)


def _gen_spec_file(tmp_path, n=800, seed=12):
    """A generator spec file of the coupled VAR(1); its path."""
    path = tmp_path / "gen.json"
    write_generator_spec_json(build_spec(COUPLED, n, seed), path)
    return path


def _simulated_csv(tmp_path, **kw):
    """The recording the `simulate` command writes from `_gen_spec_file`; its path."""
    spec = _gen_spec_file(tmp_path, **kw)
    out = tmp_path / "rec.csv"
    assert main(["simulate", "--spec", str(spec), "--out", str(out)]) == 0
    return out


def _config(tmp_path, name="config.json", **changes):
    """A config file of the reference protocol at 250 Hz with `changes`; its path."""
    path = tmp_path / name
    write_config_json(dataclasses.replace(default_config(250.0), **changes), path)
    return path


def _fit_and_transform(tmp_path, rec):
    """`fit` at order 1 then `pdc` on the default grid; the spectrum's path."""
    config = _config(tmp_path, fixed_order=1)
    model, spectrum = tmp_path / "model.json", tmp_path / "spec.csv"
    assert main(["fit", "--input", str(rec), "--config", str(config), "--out", str(model)]) == 0
    assert main(["pdc", "--model", str(model), "--config", str(config),
                 "--out", str(spectrum)]) == 0
    return spectrum


# ------------------------------------------------------------------ commands


def test_simulate_writes_deterministic_recording(tmp_path, capsys):
    rec_path = _simulated_csv(tmp_path)
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


# each config a `fit` then `pdc` run takes: both order modes, with and without
# centring, and a grid other than the default, whose bands must each hold a frequency
_STAGE_CONFIGS = {
    "fixed": {"fixed_order": 2},
    "fixed-raw": {"fixed_order": 2, "mean_center": False},
    "auto": {"order_mode": "auto_aic", "p_scan_max": 6},
    "auto-raw": {"order_mode": "auto_aic", "p_scan_max": 6, "mean_center": False},
    "grid": {"fixed_order": 1, "freq_low_hz": 4.0, "freq_high_hz": 20.0, "freq_step_hz": 1.0,
             "bands": {"theta": (4.0, 7.5), "alpha": (8.0, 12.5), "beta1": (13.0, 20.0)}},
}


def test_fit_then_pdc_write_what_the_pipeline_route_writes(tmp_path, capsys):
    # every channel shifted by +50, so centring changes the fitted model
    plain = read_recording_csv(_simulated_csv(tmp_path, n=1500), sampling_rate_hz=250.0)
    path = tmp_path / "shifted.csv"
    write_recording_csv(dataclasses.replace(plain, samples=plain.samples + 50.0), path)
    rec = read_recording_csv(path, sampling_rate_hz=250.0)
    models = {}
    for name, changes in _STAGE_CONFIGS.items():
        config = _config(tmp_path, f"{name}.json", **changes)
        model_path, spectrum_path = tmp_path / f"{name}.model.json", tmp_path / f"{name}.csv"
        bands_path = tmp_path / f"{name}.bands.json"
        assert main(["fit", "--input", str(path), "--config", str(config),
                     "--out", str(model_path)]) == 0
        assert main(["pdc", "--model", str(model_path), "--config", str(config),
                     "--out", str(spectrum_path)]) == 0
        assert main(["bands", "--spectrum", str(spectrum_path), "--config", str(config),
                     "--out", str(bands_path)]) == 0
        # the route run_pipeline takes for one epoch under the same config
        protocol = read_config_json(config)
        segment = rec.centered() if protocol.mean_center else rec
        model, _ = fit_var(segment, _fit_order(protocol, segment))
        spectrum = compute_pdc(model, protocol.frequency_grid())
        write_model_json(model, tmp_path / "want.json")
        write_spectrum_csv(spectrum, tmp_path / "want.csv")
        write_band_averages_json(band_average(spectrum, protocol.bands),
                                 tmp_path / "want.bands.json")
        assert model_path.read_bytes() == (tmp_path / "want.json").read_bytes(), name
        assert spectrum_path.read_bytes() == (tmp_path / "want.csv").read_bytes(), name
        assert bands_path.read_bytes() == (tmp_path / "want.bands.json").read_bytes(), name
        assert f"(order {model.order_p})" in capsys.readouterr().out
        models[name] = model
    assert models["fixed"].order_p == 2 and 1 <= models["auto"].order_p <= 6
    assert models["auto"].order_p == select_order(rec.centered(), 6).chosen_p
    assert not np.array_equal(models["fixed"].coeff_matrices, models["fixed-raw"].coeff_matrices)
    assert read_spectrum_csv(tmp_path / "grid.csv", 250.0).grid.freqs_hz.tolist() == list(
        range(4, 21))
    assert read_spectrum_csv(tmp_path / "fixed.csv", 250.0).grid.n_freqs == 53
    assert set(json.loads((tmp_path / "grid.bands.json").read_text())["bands"]) == {
        "theta", "alpha", "beta1"}


_TESTS = Path(__file__).parent
_README = (_TESTS.parent / "README.md").read_text(encoding="utf-8")


def _readme_walkthrough():
    """The first `sh` block under README's "Command-line walkthrough": its heredoc
    files (name -> text) and its `pdckit` lines, each split into an argv."""
    block = _README.split("## Command-line walkthrough", 1)[1].split("```sh\n", 1)[1]
    lines = iter(block.split("```", 1)[0].splitlines())
    files, commands = {}, []
    for line in lines:
        heredoc = re.fullmatch(r"cat > (\S+) <<'EOF'", line)
        if heredoc:
            files[heredoc[1]] = "".join(f"{body}\n" for body in iter(lines.__next__, "EOF"))
        elif line.startswith("pdckit "):
            commands.append(shlex.split(line)[1:])
        else:
            assert not line.strip(), f"a walkthrough line this test does not run: {line!r}"
    return files, commands


def test_the_readme_walkthrough_runs(tmp_path, capsys, monkeypatch):
    files, commands = _readme_walkthrough()
    assert {"fit", "pdc"} <= {argv[0] for argv in commands}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
    capsys.readouterr()


@pytest.mark.parametrize("block", re.findall(r"```python\n(.*?)```", _README, re.S),
                         ids=lambda block: block.split("\n", 1)[0])
def test_each_readme_python_block_runs(tmp_path, monkeypatch, block):
    monkeypatch.chdir(tmp_path)  # a block may write a file, as the config block does
    exec(compile(block, "README.md", "exec"), {})


def test_every_readme_command_parses():
    # every `pdckit` line of every README `sh` block, `\` continuations joined,
    # so a flag the parser no longer takes cannot stay in the docs
    commands = [shlex.split(line)[1:]
                for block in re.findall(r"```sh\n(.*?)```", _README, re.S)
                for line in block.replace("\\\n", " ").splitlines() if line.startswith("pdckit ")]
    assert {argv[0] for argv in commands} == set(cli._HANDLERS)
    parser = cli._build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README line does not parse: pdckit {shlex.join(argv)}")


def _top_level_names(path):
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_every_test_the_readme_names_is_defined():
    # README names the owner of each rule; a renamed table or test must not leave
    # a dead pointer. A case id in brackets is not checked, only its function
    defined = {path.name: _top_level_names(path) for path in _TESTS.glob("*.py")}
    everywhere = set().union(*defined.values())
    pointers = re.findall(r"`tests/(\w+\.py)::(\w+)(?:\[[^`]*\])?`", _README)
    bare = re.findall(r"`(test_\w+)(?:\[[^`]*\])?`", _README)
    assert pointers and bare
    for file, name in pointers:
        assert name in defined.get(file, ()), f"README names tests/{file}::{name}"
    for name in bare:
        assert name in everywhere, f"README names {name}, which no file in tests/ defines"


def test_bands_default_and_custom(tmp_path, capsys):
    rec = _simulated_csv(tmp_path, n=1500)
    spec_path = _fit_and_transform(tmp_path, rec)
    custom = _config(tmp_path, "custom.json", bands={"mid": (10.0, 20.0), "low": (4.0, 8.0)})
    for config, names in ((tmp_path / "config.json", {"theta", "alpha", "beta1", "beta2"}),
                          (custom, {"mid", "low"})):
        bands_path = tmp_path / "bands.json"
        assert main(["bands", "--spectrum", str(spec_path), "--config", str(config),
                     "--out", str(bands_path)]) == 0
        assert set(json.loads(bands_path.read_text())["bands"]) == names
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


def test_compare_pairs_subjects_by_id(tmp_path, capsys):
    subjects = [f"s{i}" for i in range(10)]
    a_path = tmp_path / "a.csv"
    _band_table_csv(a_path, 0.0, subjects)
    b_path = tmp_path / "b.csv"
    _band_table_csv(b_path, 0.2, subjects, scramble=True)
    out = tmp_path / "table.csv"
    # theta's Holm-adjusted p is 2 * 2/1024: significant at the reference alpha, not at 0.001
    for alpha, significant in ((0.05, "true"), (0.001, "false")):
        config = _config(tmp_path, alpha=alpha)
        assert main(["compare", "--condition-a", str(a_path), "--condition-b", str(b_path),
                     "--config", str(config), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = {r["band"]: r for r in csv.DictReader(fh)}
        assert rows["theta"]["p_adjusted"] == repr(2 * 2 / 1024)
        assert rows["theta"]["significant"] == significant
        assert rows["theta"]["direction"] == "b_greater"
    capsys.readouterr()


def test_compare_of_identical_tables_writes_untestable_rows(tmp_path, capsys):
    # an all-zero key is an untestable row, not an error: no command exits 5
    a_path = tmp_path / "a.csv"
    _band_table_csv(a_path, 0.0, ["s1", "s2", "s3"])
    out = tmp_path / "table.csv"
    assert main(["compare", "--condition-a", str(a_path), "--condition-b", str(a_path),
                 "--config", str(_config(tmp_path)), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["band"] for row in rows] == ["theta", "alpha"]
    for row in rows:
        assert (row["n"], row["W"], row["p_raw"], row["p_adjusted"]) == ("0", "", "1.0", "1.0")
        assert (row["direction"], row["significant"]) == ("none", "false")
    capsys.readouterr()


def _pipeline_argv(tmp_path, config, coupled, quiet, n_subjects=10):
    """Write a config, markers and two cohorts; return the argv minus --out."""
    config_path = tmp_path / "config.json"
    write_config_json(config, config_path)
    markers = tmp_path / "markers.csv"
    markers.write_text("".join(f"{900 * k}\n" for k in range(6)))

    paths = {"a": [], "b": []}
    for cond, coeffs, base in (("a", quiet, 0), ("b", coupled, 100)):
        for s in range(n_subjects):
            p = tmp_path / f"{cond}{s}.csv"
            write_recording_csv(simulate(coeffs, 225 * 6, 55_000 + base + s), p)
            paths[cond].append(str(p))
    return ["pipeline", "--config", str(config_path),
            "--condition-a", *paths["a"], "--condition-b", *paths["b"],
            "--markers", str(markers)]


def test_pipeline_command_end_to_end(tmp_path, capsys):
    argv = _pipeline_argv(tmp_path, default_config(250.0), COUPLED, QUIET)

    out_dir = tmp_path / "out"
    code = main([*argv, "--out", str(out_dir)])
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert len(report["tests"]) == 8
    assert (out_dir / "test_table.csv").exists()
    out = capsys.readouterr().out
    assert "hypotheses 8" in out


def test_pipeline_threads_flag_is_accepted_and_ignored(tmp_path, capsys, monkeypatch):
    # the thread-count variable is no longer read, so a malformed value is harmless
    monkeypatch.setenv("PDC_TOOLKIT_THREADS", "abc")
    argv = _pipeline_argv(tmp_path, default_config(250.0), COUPLED, QUIET, n_subjects=4)
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
        outputs.append((stable_lines(out / "report.json"), (out / "test_table.csv").read_bytes()))
    assert outputs[0] == outputs[1]


# -------------------------------------------------------------------- errors


# files every failure-contract row may read, beside rec.csv (`_simulated_csv`) and big.csv
# (rec.csv scaled by 1e200: finite samples whose residual products overflow)
_CONTRACT_FILES = {
    "bad.json": "{not json",
    "flat.csv": "ch1,ch2\n" + "1.0,2.0\n" * 500,
    "list.json": "[]\n",
    "grouped.json": '{"sampling_rate_hz": 250.0, "freq_grid": 5}\n',
    "screen_all.json": '{"sampling_rate_hz": 250.0, "amplitude_reject_threshold": 1e-9}\n',
    "order2.json": '{"sampling_rate_hz": 250.0, "fixed_order": 2, "mean_center": false}\n',
    "order400.json": '{"sampling_rate_hz": 250.0, "fixed_order": 400, "mean_center": false}\n',
    "order0.json": '{"sampling_rate_hz": 250.0, "fixed_order": 0}\n',
    "scan.json": '{"sampling_rate_hz": 250.0, "order_mode": "auto_aic", "mean_center": false}\n',
    "infinite_rate.json": '{"sampling_rate_hz": Infinity}\n',
    "nan_step.json": '{"sampling_rate_hz": 250.0, "freq_grid": {"step_hz": NaN}}\n',
    "markers.csv": "0\n",
    "huge_onset.csv": "0\n1e306\n",
    "no_rows.csv": "freq_hz,source,target,pdc\n",
    "partial.csv": "freq_hz,source,target,pdc\n4.0,a,a,1.0\n4.0,a,b,0.5\n",
    "no_data.csv": "pair,band,subject,value\n",
    "twice.csv": "pair,band,subject,value\na->b,alpha,s1,0.1\na->b,alpha,s1,0.2\n",
    "alpha.csv": "pair,band,subject,value\na->b,alpha,s1,0.1\n",
    "theta.csv": "pair,band,subject,value\na->b,theta,s1,0.1\n",
    "no_value.csv": "pair,band,subject\na->b,alpha,s1\n",
    "alpha_only.json": '{"alpha": 0.01}\n',
    # 12 rows of 2 channels: p_scan_max 5 is within the order bound, but order 5 on
    # the 7 rows after the first 5 breaks N - p >= M*p + 1
    "short.csv": "ch1,ch2\n" + "".join(f"{k},{k % 3}\n" for k in range(12)),
    "scan5.json": '{"sampling_rate_hz": 250.0, "order_mode": "auto_aic", "p_scan_max": 5}\n',
    "fine_step.json": '{"sampling_rate_hz": 250.0, "freq_grid": {"step_hz": 5e-324}}\n',
    "band_name.json": '{"sampling_rate_hz": 250.0, "bands": {"theta": [4, 8], "a ": [8, 12]}}\n',
    "labels_spec.json": '{"coeff_matrices": [[[0.3, 0.0], [0.4, 0.3]]], "innovation_covariance": '
                        '[[1.0, 0.0], [0.0, 1.0]], "n_samples": 10, "seed": 1, '
                        '"sampling_rate_hz": 250.0, "channel_labels": [" a", "b"]}\n',
    "nan_model.json": '{"order": 1, "channel_labels": ["a", "b"], "coeff_matrices": [[[0.3, 0.0], '
                      '[NaN, 0.3]]], "residual_covariance": [[1.0, 0.0], [0.0, 1.0]], '
                      '"n_samples_used": 100}\n',
    "labels_model.json": '{"order": 1, "channel_labels": ["ch1", 2], "coeff_matrices": [[[0.3, '
                         '0.0], [0.4, 0.3]]], "residual_covariance": [[1.0, 0.0], [0.0, 1.0]], '
                         '"n_samples_used": 100}\n',
    "order1_model.json": '{"order": 1, "channel_labels": ["a", "b"], "coeff_matrices": [[[0.3, 0.0], '
                         '[0.4, 0.3]]], "residual_covariance": [[1.0, 0.0], [0.0, 1.0]], '
                         '"n_samples_used": 100}\n',
    "inf_sample.csv": "ch1,ch2\n1.0,2.0\n3.0,inf\n",
    "spectrum.csv": "freq_hz,source,target,pdc\n4.0,a,a,1.0\n",
    "nan_cell.csv": "freq_hz,source,target,pdc\n4.0,a,a,nan\n",
    # one row in each default band
    "band_spectrum.csv": "freq_hz,source,target,pdc\n6.0,a,a,1.0\n10.0,a,a,1.0\n15.0,a,a,1.0\n"
                         "25.0,a,a,1.0\n",
    "above_one.csv": "freq_hz,source,target,pdc\n4.0,a,a,1.5\n",
    "negative_freq.csv": "freq_hz,source,target,pdc\n-4.0,a,a,1.0\n",
    "padded_label.csv": "freq_hz,source,target,pdc\n4.0, a,a,1.0\n",
    "s2.csv": "pair,band,subject,value\na->b,alpha,s2,0.1\n",
    "empty_value.csv": "pair,band,subject,value\na->b,alpha,s1,\n",
    # the pair and the band both break the rule: the first bad cell is named
    "pair_first.csv": "pair,band,subject,value\n->t,,s1,0.3\n",
    "padded_subject.csv": "pair,band,subject,value\na->b,alpha, s1,0.1\n",
}


def _fit(recording="rec.csv", config="order2.json"):
    return ["fit", "--out", "{tmp}/m.json", "--input", "{tmp}/" + recording,
            "--config", "{tmp}/" + config]


def _pdc(model="m.json", config="order2.json"):
    return ["pdc", "--out", "{tmp}/s.csv", "--model", "{tmp}/" + model,
            "--config", "{tmp}/" + config]


def _pipeline(config, recording="rec.csv", markers="markers.csv"):
    return ["pipeline", "--condition-a", "{tmp}/rec.csv", "--condition-b", "{tmp}/" + recording,
            "--markers", "{tmp}/" + markers, "--out", "{tmp}/report",
            "--config", "{tmp}/" + config]


def _bands(spectrum, config="order2.json"):
    return ["bands", "--out", "{tmp}/b.json", "--spectrum", "{tmp}/" + spectrum,
            "--config", "{tmp}/" + config]


def _compare(table_a, table_b, config="order2.json"):
    return ["compare", "--out", "{tmp}/t.csv", "--condition-a", "{tmp}/" + table_a,
            "--condition-b", "{tmp}/" + table_b, "--config", "{tmp}/" + config]


_LABEL_RULE = "a non-empty string without edge whitespace or '->'"
# invocation -> exit code and its one stderr line; None where argparse itself exits,
# whose usage text is not the contract's line
_FAILURES = {
    "io-error": (_fit("absent.csv"), 3,
                 "io-error: No such file or directory: {tmp}/absent.csv"),
    "estimation-error": (_fit("flat.csv"), 4,
                         "estimation-error: regressor matrix is rank deficient (1 < 4); "
                         "channels may be collinear or constant"),
    "pipeline-error": (_pipeline("screen_all.json"), 6,
                       "pipeline-error: no subject kept a usable segment in both conditions; "
                       "attrition " + " ".join(
                           f"{c}={{'segments_in': 1, 'screened_out': 1, 'failed_fit': 0, "
                           "'used': 0, 'unstable_models': 0, 'degenerate_columns': 0}"
                           for c in "ab")),
    "unexpected-error": (_fit(), 1, "unexpected-error: 'ch9'"),
    "unfittable-order": (_fit(config="order400.json"), 2,
                         "argument-error: order 400 breaks N - p >= M*p + 1 for N=800 samples "
                         "and M=2 channels"),
    "malformed-json": (["simulate", "--out", "{tmp}/r.csv", "--spec", "{tmp}/bad.json"], 2,
                       "argument-error: {tmp}/bad.json:1: Expecting property name enclosed "
                       "in double quotes"),
    "fit-past-float-range": (_fit("big.csv"), 2,
                             "argument-error: residual_covariance must be finite"),
    "auto-order-past-float-range": (_fit("big.csv", "scan.json"), 2,
                                    "argument-error: residual_covariance must be finite"),
    "no-spectrum-rows": (_bands("no_rows.csv"), 2,
                         "argument-error: {tmp}/no_rows.csv: no spectrum rows"),
    "incomplete-spectrum": (_bands("partial.csv"), 2,
                            "argument-error: {tmp}/partial.csv: incomplete spectrum table, "
                            "missing (4.0, 'b', 'a')"),
    "no-data-rows": (_compare("no_data.csv", "alpha.csv"), 2,
                     "argument-error: {tmp}/no_data.csv: no data rows"),
    "duplicate-subject": (_compare("twice.csv", "alpha.csv"), 2,
                          "argument-error: {tmp}/twice.csv:3: duplicate subject 's1' for "
                          "a->b/alpha"),
    "different-keys": (_compare("alpha.csv", "theta.csv"), 2,
                       "argument-error: the two tables define different (pair, band) sets"),
    "expected-columns": (_compare("no_value.csv", "alpha.csv"), 2,
                         "argument-error: {tmp}/no_value.csv: expected columns "
                         "['band', 'pair', 'subject', 'value']"),
    "json-not-an-object": (_pdc("list.json"), 2,
                           "argument-error: {tmp}/list.json: model must be a JSON object"),
    "group-not-an-object": (_pipeline("grouped.json"), 2,
                            "argument-error: {tmp}/grouped.json: freq_grid must be a JSON "
                            "object"),
    # fit and pdc read the protocol from the config, which carries each bad value
    "order-0": (_fit(config="order0.json"), 2,
                "argument-error: {tmp}/order0.json: fixed_order must be an integer >= 1, got 0"),
    "fit-infinite-rate": (_fit(config="infinite_rate.json"), 2,
                          "argument-error: {tmp}/infinite_rate.json: sampling_rate_hz must be a "
                          "finite number, got Infinity"),
    "pdc-infinite-rate": (_pdc(config="infinite_rate.json"), 2,
                          "argument-error: {tmp}/infinite_rate.json: sampling_rate_hz must be a "
                          "finite number, got Infinity"),
    "pdc-nan-step": (_pdc(config="nan_step.json"), 2,
                     "argument-error: {tmp}/nan_step.json: freq_grid.step_hz must be a finite "
                     "number, got NaN"),
    "pdc-too-fine-a-step": (_pdc(config="fine_step.json"), 2,
                            "argument-error: {tmp}/fine_step.json: step_hz 5e-324 makes a grid "
                            "of inf frequencies from 4.0 to 30.0 Hz, more than can be allocated"),
    "fit-scan-too-long": (_fit("short.csv", "scan5.json"), 2,
                          "argument-error: order 5 breaks N - p >= M*p + 1 for N=12 samples and "
                          "M=2 channels"),
    "simulate-seed": (["simulate", "--out", "{tmp}/r.csv", "--spec", "{tmp}/gen.json",
                       "--seed", "-1"], 2,
                      "argument-error: seed must be an unsigned 64-bit integer, got -1"),
    "spec-labels": (["simulate", "--out", "{tmp}/r.csv", "--spec", "{tmp}/labels_spec.json"], 2,
                    "argument-error: {tmp}/labels_spec.json: column 1 has channel label ' a', "
                    f"which is not {_LABEL_RULE}"),
    "model-nan-coefficient": (_pdc("nan_model.json"), 2,
                              "argument-error: {tmp}/nan_model.json: coeff_matrices must be "
                              "equally long nested lists of finite numbers, got "
                              "[[[0.3, 0.0], [NaN, 0.3]]]"),
    "model-labels": (_pdc("labels_model.json"), 2,
                     "argument-error: {tmp}/labels_model.json: column 2 has channel label 2, "
                     f"which is not {_LABEL_RULE}"),
    "spectrum-nan-cell": (_bands("nan_cell.csv"), 2,
                          "argument-error: {tmp}/nan_cell.csv:2: pdc must be a finite number, "
                          "got 'nan'"),
    "spectrum-pdc-above-1": (_bands("above_one.csv"), 2,
                             "argument-error: {tmp}/above_one.csv:2: PDC values must lie in "
                             "[0, 1], got 1.5"),
    "spectrum-negative-freq": (_bands("negative_freq.csv"), 2,
                               "argument-error: {tmp}/negative_freq.csv:2: freq_hz must be >= 0, "
                               "got -4.0"),
    "spectrum-label": (_bands("padded_label.csv"), 2,
                       "argument-error: {tmp}/padded_label.csv:2: source must be "
                       f"{_LABEL_RULE}, got ' a'"),
    "config-band-name": (_pipeline("band_name.json"), 2,
                         f"argument-error: {{tmp}}/band_name.json: band name 'a ' must be "
                         f"{_LABEL_RULE}"),
    "different-subjects": (_compare("alpha.csv", "s2.csv"), 2,
                           "argument-error: subject sets differ for a->b/alpha"),
    "empty-value": (_compare("empty_value.csv", "alpha.csv"), 2,
                    "argument-error: {tmp}/empty_value.csv:2: value must be a finite number, "
                    "got ''"),
    "pair-before-band": (_compare("pair_first.csv", "alpha.csv"), 2,
                         "argument-error: {tmp}/pair_first.csv:2: pair must look like "
                         f"'src->tgt' with two different labels, each {_LABEL_RULE}, "
                         "got '->t'"),
    "padded-subject": (_compare("padded_subject.csv", "alpha.csv"), 2,
                       "argument-error: {tmp}/padded_subject.csv:2: subject must be "
                       f"{_LABEL_RULE}, got ' s1'"),
    "pipeline-non-finite-sample": (_pipeline("order2.json", "inf_sample.csv"), 2,
                                   "argument-error: {tmp}/inf_sample.csv:3: ch2 must be a finite "
                                   "number, got 'inf'"),
    "pipeline-onset-past-float-range": (_pipeline("order2.json", markers="huge_onset.csv"), 2,
                                        "argument-error: condition a, subject 0: epoch start "
                                        "1e+306 ms at 250.0 Hz has a sample count past float "
                                        "range"),
    "pipeline-unfittable-order": (_pipeline("order400.json"), 2,
                                  "argument-error: order 400 breaks N - p >= M*p + 1 for N=225 "
                                  "samples and M=2 channels"),
    # pdc transforms a model file alone: fitting is `fit`'s
    "pdc-input": ([*_pdc(), "--input", "{tmp}/rec.csv"], 2, None),
    "pdc-order": ([*_pdc(), "--order", "3"], 2, None),
    "pdc-mean-center": ([*_pdc(), "--mean-center"], 2, None),
    # the protocol flags `--config` replaced, and `--config` left out
    "fit-sampling-rate": ([*_fit(), "--sampling-rate", "250"], 2, None),
    "fit-order": ([*_fit(), "--order", "2"], 2, None),
    "fit-auto-order": ([*_fit(), "--auto-order"], 2, None),
    "fit-p-scan-max": ([*_fit(), "--p-scan-max", "6"], 2, None),
    "fit-mean-center": ([*_fit(), "--mean-center"], 2, None),
    "fit-no-config": (_fit()[:-2], 2, None),
    "pdc-sampling-rate": ([*_pdc(), "--sampling-rate", "250"], 2, None),
    "pdc-low": ([*_pdc(), "--low", "4"], 2, None),
    "pdc-high": ([*_pdc(), "--high", "20"], 2, None),
    "pdc-step": ([*_pdc(), "--step", "1"], 2, None),
    "pdc-no-config": (_pdc()[:-2], 2, None),
    "bands-band": ([*_bands("spectrum.csv"), "--band", "x:4:8"], 2, None),
    "bands-no-config": (_bands("spectrum.csv")[:-2], 2, None),
    "compare-alpha": ([*_compare("alpha.csv", "alpha.csv"), "--alpha", "0.01"], 2, None),
    "compare-no-config": (_compare("alpha.csv", "alpha.csv")[:-2], 2, None),
    # every stage reads and checks the whole config, the one home of the protocol,
    # so a file without sampling_rate_hz is refused even where the stage uses no rate
    **{f"{argv[0]}-config-without-rate": (argv, 2, "argument-error: {tmp}/alpha_only.json: "
                                          "sampling_rate_hz is required")
       for argv in (_fit(config="alpha_only.json"), _pdc("order1_model.json", "alpha_only.json"),
                    _bands("band_spectrum.csv", "alpha_only.json"),
                    _compare("alpha.csv", "alpha.csv", "alpha_only.json"),
                    _pipeline("alpha_only.json"))},
    # argparse refuses a thread count below 1 before the command runs
    "pipeline-threads-0": ([*_pipeline("order2.json"), "--threads", "0"], 2, None),
}


@pytest.mark.parametrize("case", list(_FAILURES))
def test_each_failure_exits_with_its_code_and_one_stderr_line(tmp_path, capsys, monkeypatch,
                                                             case):
    rec = read_recording_csv(_simulated_csv(tmp_path), sampling_rate_hz=250.0)
    write_recording_csv(dataclasses.replace(rec, samples=rec.samples * 1e200),
                        tmp_path / "big.csv")
    for name, text in _CONTRACT_FILES.items():
        (tmp_path / name).write_text(text)
    capsys.readouterr()
    if case == "unexpected-error":
        # no input reaches a KeyError, so one is a fault of the program, not an argument error
        def broken(args):
            raise KeyError("ch9")

        monkeypatch.setitem(cli._HANDLERS, "fit", broken)
    argv, code, line = _FAILURES[case]
    try:
        got = main([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    except SystemExit as exc:  # argparse's own exit
        got = exc.code
    assert got == code
    err = capsys.readouterr().err
    if line is not None:
        assert err == f"pdckit: {line.replace('{tmp}', str(tmp_path))}\n"
    # and no command wrote its output
    assert not any((tmp_path / out).exists()
                   for out in ("r.csv", "m.json", "s.csv", "b.json", "t.csv", "report"))


@pytest.mark.parametrize("command", ["fit", "pdc", "bands", "compare"])
def test_config_help_says_the_whole_file_is_checked_and_names_real_keys(command):
    # the `*-config-without-rate` rows pin the check the help describes; a renamed
    # config key must not leave its old name in the help
    commands = next(action.choices for action in cli._build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    text = next(action.help for action in commands[command]._actions
                if action.option_strings == ["--config"])
    assert "read and checked whole" in text and "sampling_rate_hz is required" in text
    used = re.split(r", | and ", text.split("this command uses ", 1)[1])
    assert set(used) <= {key.split(".")[0] for key in _CONFIG_KEYS}, used


def _reader_inputs(tmp_path):
    """Valid inputs for every file reader the CLI has: reader -> (file, argv that reads it)."""
    spec = _gen_spec_file(tmp_path)
    rec = _simulated_csv(tmp_path)
    spectrum = _fit_and_transform(tmp_path, rec)
    model, config = tmp_path / "model.json", tmp_path / "config.json"
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    _band_table_csv(a_path, 0.0, ["s1", "s2", "s3"])
    _band_table_csv(b_path, 0.1, ["s1", "s2", "s3"])
    markers = tmp_path / "markers.csv"
    markers.write_text("0\n900\n")
    out = str(tmp_path / "out")
    pipeline = ["pipeline", "--config", str(config), "--condition-a", str(rec),
                "--condition-b", str(rec), "--markers", str(markers), "--out", out]
    return {
        "generator spec": (spec, ["simulate", "--spec", str(spec), "--out", out]),
        "recording": (rec, ["fit", "--input", str(rec), "--config", str(config), "--out", out]),
        "model": (model, ["pdc", "--model", str(model), "--config", str(config), "--out", out]),
        "spectrum": (spectrum, ["bands", "--spectrum", str(spectrum), "--config", str(config),
                                "--out", out]),
        "band table": (a_path, ["compare", "--condition-a", str(a_path),
                                "--condition-b", str(b_path), "--config", str(config),
                                "--out", out]),
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
    assert main([*argv, str(path), "--config", str(_config(tmp_path)),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"pdckit: argument-error: {path}:1: column {header.split(',')[-1]!r} is repeated\n")


@pytest.mark.parametrize("width", ["wide", "short"])
@pytest.mark.parametrize("reader, via", [
    ("recording", "recording"), ("recording", "config"), ("spectrum", "spectrum"),
    ("band table", "band table"),
], ids=["recording-fit", "recording-pipeline", "spectrum", "band table"])
def test_every_csv_reader_refuses_a_row_not_as_wide_as_its_header(tmp_path, capsys, reader,
                                                                  via, width):
    inputs = _reader_inputs(tmp_path)
    path, argv = inputs[reader][0], inputs[via][1]  # the config's argv runs `pipeline`
    capsys.readouterr()
    lines = path.read_text().splitlines()
    n = lines[0].count(",") + 1
    lines[2] = lines[2] + ",0.5" if width == "wide" else lines[2].rsplit(",", 1)[0]
    path.write_text("\n".join(lines) + "\n")
    assert main(argv) == 2
    got = n + 1 if width == "wide" else n - 1
    assert capsys.readouterr().err == (
        f"pdckit: argument-error: {path}:3: expected {n} values, got {got}\n")


def _read_table_reference(path, columns):
    """The records a table reader must build on, by a plain `csv.reader`: one
    column -> cell dict per non-blank record, or the message naming the last
    physical line of the first record whose width is not the header's."""
    records = csv_records(path)
    header = next(records)[1]
    assert sorted(header) == sorted(columns)
    try:
        return [dict(zip(header, cells)) for _, cells in records]
    except ValueError as exc:
        return str(exc)


# each table's header and complete set of valid records: labels and subjects that
# hold a line break are quoted, every record is drawn once in some order
_TABLES = {
    "spectrum": (("freq_hz", "source", "target", "pdc"), [
        {"freq_hz": f_hz, "source": source, "target": target}
        for f_hz in ("0.0", "4.0", "30.5") for source in ("a", "b\nc")
        for target in ("a", "b\nc")]),
    "band table": (("pair", "band", "subject", "value"), [
        {"pair": pair, "band": band, "subject": subject}
        for pair in ("a->b", "b->a") for band in ("alpha", "beta1")
        for subject in ("s1", "s\n2", "s3")]),
}


@st.composite
def _table_files(draw, table):
    """Table CSV text in a drawn column order: the table's records in a drawn
    order with drawn values, with every quirk of `csv_texts` but a BOM and pads."""
    columns, records = _TABLES[table]
    header = draw(st.permutations(columns))
    number = columns[-1]  # pdc or value
    values = st.floats(0.0, 1.0) if table == "spectrum" else st.floats(-1e6, 1e6)
    rows = [[{**record, number: repr(draw(values))}[name] for name in header]
            for record in draw(st.permutations(records))]
    return draw(csv_texts(header, rows))


def _read_table(table, path):
    """A table reader's values as the reference builds them, or its message."""
    try:
        if table == "band table":
            return {(f"{source}->{target}", band, subject): value
                    for ((source, target), band), per_subject in
                    cli._read_band_values_csv(path).items()
                    for subject, value in per_subject.items()}
        spectrum = read_spectrum_csv(path, 250.0)
    except ValueError as exc:
        return str(exc)
    labels = spectrum.channel_labels
    return {(f_hz, source, target): spectrum.values[fi, i, j]
            for fi, f_hz in enumerate(spectrum.grid.freqs_hz.tolist())
            for j, source in enumerate(labels) for i, target in enumerate(labels)}


@pytest.mark.parametrize("table", ["spectrum", "band table"])
@settings(max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_table_readers_agree_with_a_plain_csv_reader(tmp_path, table, data):
    text = data.draw(_table_files(table), label="text")
    path = fresh_path(tmp_path, "table.csv")
    path.write_bytes(text.encode("utf-8"))
    expected = _read_table_reference(path, _TABLES[table][0])
    if not isinstance(expected, str):
        if table == "band table":
            expected = {(row["pair"], row["band"], row["subject"]): float(row["value"])
                        for row in expected}
        else:
            expected = {(float(row["freq_hz"]), row["source"], row["target"]): float(row["pdc"])
                        for row in expected}
    assert _read_table(table, path) == expected


def test_bands_reads_back_a_spectrum_of_0_hz_alone(tmp_path, capsys):
    _, argv = _reader_inputs(tmp_path)["model"]  # pdc --model model.json ...
    config = _config(tmp_path, "dc_config.json", freq_low_hz=0.0, freq_high_hz=0.0,
                     bands={"dc": (0.0, 0.0)})
    spectrum, out = tmp_path / "dc.csv", tmp_path / "dc.json"
    assert main([*argv[:3], "--config", str(config), "--out", str(spectrum)]) == 0
    assert main(["bands", "--spectrum", str(spectrum), "--config", str(config),
                 "--out", str(out)]) == 0
    assert read_spectrum_csv(spectrum, 250.0).grid.freqs_hz.tolist() == [0.0]
    assert json.loads(out.read_text())["band_edges_hz"] == {"dc": [0.0, 0.0]}
    capsys.readouterr()


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


def _tied_band_tables(tmp_path, rng, condition, shift):
    """Two band tables of one condition. ``<condition>.csv`` holds 30 subjects on
    two pairs and two bands; values are multiples of 1/64, so differences are
    exact and many tie, and every key takes the normal branch.
    ``ragged_<condition>.csv`` adds a key over four of the subjects alone."""
    rows = [("pair", "band", "subject", "value")]
    for pair in ("F3->F4", "F4->F3"):
        for band in ("theta", "alpha"):
            for subject in range(30):
                value = (16 + shift + int(rng.integers(-4, 5))) / 64
                rows.append((pair, band, f"s{subject:02d}", repr(value)))
    extra = [("T5->F4", "alpha", f"s{subject:02d}", repr((subject + 4 * shift) / 64))
             for subject in range(4)]
    for name, table in ((condition, rows), (f"ragged_{condition}", rows + extra)):
        with open(tmp_path / f"{name}.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(table)


# runs each argv of the JSON list in argv[1] through `main`, then prints the exit
# codes and the scipy modules loaded by then (a None entry is a blocked import)
_RUN_EVERY_COMMAND = (
    "import json, sys; {block}from pdckit.cli import main; "
    "codes = [main(argv) for argv in json.loads(sys.argv[1])]; "
    "print(json.dumps([codes, sorted(name for name, module in sys.modules.items() "
    "if name.startswith('scipy') and module is not None)]))")


def test_every_command_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency: every command runs, and writes the same
    # bytes, with scipy unimportable; and where scipy is importable, no command loads
    # it (scipy.special alone would take most of the CLI's start-up)
    spec = _gen_spec_file(tmp_path, n=500, seed=7)
    pipeline = _pipeline_argv(tmp_path, default_config(250.0), COUPLED, QUIET, n_subjects=4)
    rng = np.random.default_rng(30)
    _tied_band_tables(tmp_path, rng, "a", shift=2)
    _tied_band_tables(tmp_path, rng, "b", shift=0)

    raw = ["--config", str(_config(tmp_path, "raw.json", fixed_order=1, mean_center=False))]
    auto = ["--config", str(_config(tmp_path, "auto.json", order_mode="auto_aic", p_scan_max=6))]
    centred = ["--config", str(_config(tmp_path, "centred.json", fixed_order=1))]

    def commands(out):
        rec = str(out / "rec.csv")
        return [
            ["simulate", "--spec", str(spec), "--out", rec],
            ["fit", "--input", rec, *raw, "--out", str(out / "model.json")],
            ["fit", "--input", rec, *auto, "--out", str(out / "auto.json")],
            ["pdc", "--model", str(out / "model.json"), *raw, "--out", str(out / "spectrum.csv")],
            ["fit", "--input", rec, *centred, "--out", str(out / "centred.json")],
            ["pdc", "--model", str(out / "centred.json"), *centred,
             "--out", str(out / "centred.csv")],
            ["bands", "--spectrum", str(out / "spectrum.csv"), *raw,
             "--out", str(out / "bands.json")],
            [*pipeline, "--out", str(out / "report")],
            *(["compare", "--condition-a", str(tmp_path / f"{prefix}a.csv"),
               "--condition-b", str(tmp_path / f"{prefix}b.csv"), *raw,
               "--out", str(out / f"{prefix}tests.csv")] for prefix in ("", "ragged_")),
        ]

    outputs = {}
    # the blocked run loads tests/conftest.py too: pytest loads it first wherever scipy
    # is absent, so it must import no scipy at module level
    blocked = f"sys.modules['scipy'] = None; sys.path.insert(0, {str(_TESTS)!r}); import conftest; "
    for name, block in (("blocked", blocked), ("importable", "")):
        out = tmp_path / name
        out.mkdir()
        argvs = commands(out)
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_EVERY_COMMAND.format(block=block), json.dumps(argvs)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        codes, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
        assert codes == [0] * len(argvs), proc.stderr
        assert scipy_modules == []
        # every file the commands wrote, report.json less the line of its run time
        outputs[name] = {str(path.relative_to(out)): stable_lines(path)
                         for path in sorted(out.rglob("*")) if path.is_file()}
    assert outputs["blocked"] == outputs["importable"]
    assert len(outputs["blocked"]) == 11

    def rows(name):
        text = b"\n".join(outputs["blocked"][name]).decode()
        return list(csv.DictReader(io.StringIO(text)))

    assert len(rows("report/test_table.csv")) == 8  # 2 pairs x 4 bands
    assert len(rows("tests.csv")) == 4 and all(row["n"] != "0" for row in rows("tests.csv"))
    ragged = rows("ragged_tests.csv")
    assert len(ragged) == 5 and ragged[-1]["pair"] == "T5->F4" and ragged[-1]["n"] == "4"
