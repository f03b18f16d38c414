"""Seeded benchmark of pdckit: one workload, one seed, one run.

    python3 perfbench/run.py --workload cohort-fixed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout. The run generates its inputs from
the seed with ``pdckit.synth`` (under ``perfbench/_run/``), computes the
expected outputs with ``reference.py``, times set-up in fresh interpreters,
then hands the timed closed loop to one worker process (``worker.py``). The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (from a traced run) with ``--trace 1``.
The line before it records the environment and a calibration time.

``--smoke`` runs every workload once at a tiny size, checks outputs and
layer counts, and compares the reference with the outputs recorded at the
commit that defined the benchmark (``golden.json``). It has no time limit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 6          # extra fresh interpreters timed besides the worker
WORKER_TIMEOUT_S = 150
SMOKE_SEED = 20201
GOLDEN = os.path.join(HERE, "golden.json")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------- environment

def calibration_s() -> float:
    """A fixed pure-Python loop; its time tracks how busy the host is."""
    t0 = time.perf_counter()
    total = 0
    for i in range(3_000_000):
        total += i * i
    return time.perf_counter() - t0


def source_digest() -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "pdckit")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


# ---------------------------------------------------------------- inputs

def _key(s, t, b=None) -> str:
    return f"{s}->{t}" if b is None else f"{s}->{t}|{b}"


def prepare(shape, seed: int, workdir: str, trace: bool) -> tuple:
    """Write the workload's inputs; return (job fields, facts for metrics)."""
    import workloads

    timings: dict = {}
    if isinstance(shape, workloads.Cohort):
        inputs = workloads.prepare_cohort(shape, seed, workdir, timings)
        exp = inputs["expected"]
        expected = {
            "subjects_used": exp["subjects_used"],
            "conditions": exp["conditions"],
            "band_values": {c: {_key(*k): v for k, v in exp["band_values"][c].items()}
                            for c in ("a", "b")},
            "tests": {_key(*k): {f: row[f] for f in row if f != "exact"}
                      for k, row in exp["tests"].items()},
            "orders": exp["orders"],
            "coupled": _key(*workloads.COUPLED_PAIR),
            "driven": workloads.DRIVEN,
        }
        job = {"kind": "cohort", "argv": inputs["argv"], "expected": expected,
               "expected_counts": exp["layer_counts"],
               "threads": shape.threads, "warmup": 1 if trace else 0}
        used = sum(exp["conditions"][c]["used"] for c in ("a", "b"))
        facts = {"items_per_op": used, "csv_bytes": inputs["csv_bytes"],
                 "exact_key_frac": sum(r["exact"] for r in exp["tests"].values())
                 / len(exp["tests"]),
                 "reference_counts": exp["layer_counts"], "reference": expected}
    else:
        inputs = workloads.prepare_families(shape, seed, workdir, timings)
        rows = [row for family in inputs["expected"] for row in family]
        job = {"kind": "families", "families": inputs["families"], "keys": inputs["keys"],
               "expected": [[{f: r[f] for f in r if f != "exact"} for r in family]
                            for family in inputs["expected"]],
               "expected_counts": {"wilcoxon_calls": len(inputs["keys"])},
               "threads": 1, "warmup": 5}
        facts = {"items_per_op": 1, "csv_bytes": 0,
                 "exact_key_frac": sum(r["exact"] for r in rows) / len(rows),
                 "reference_counts": job["expected_counts"], "reference": job["expected"][:2],
                 "fwer": sum(any(r["significant"] for r in family)
                             for family in inputs["expected"]) / len(inputs["expected"])}
    facts["timings"] = timings
    return job, facts


# ---------------------------------------------------------------- processes

def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_worker(args: list) -> tuple:
    """Start a worker; return (process, seconds until it printed ``ready``)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start (printed {line!r})")
    return proc, ready


def measure(job: dict, workdir: str) -> tuple:
    """Time set-up in fresh interpreters, then run the job in one worker."""
    setup = []
    for _ in range(SETUP_PROBES):
        proc, ready = start_worker(["--probe"])
        proc.communicate(timeout=60)
        setup.append(ready)
    job_path = os.path.join(workdir, "job.json")
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    proc, ready = start_worker([job_path])
    setup.append(ready)
    try:
        proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker ran past {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    with open(job["result"]) as fh:
        return json.load(fh), setup


# ---------------------------------------------------------------- metrics

def percentile(values: list, q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(result: dict, setup: list, facts: dict) -> dict:
    """Fastest set-up, best-op throughput and peak RSS of one run.

    Set-up and throughput use the run's fastest sample: interference from
    the shared host comes in bursts that only ever add time, and shifts a
    median or a p90 by more than any useful bound (see README.md). Every
    sample is kept in the record.
    """
    return {
        "setup_s": {"value": min(setup), "unit": "s"},
        "items_per_s": {"value": facts["items_per_op"] / min(result["latencies_s"]),
                        "unit": "items/s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(result: dict, facts: dict) -> dict:
    c = result["layer_counts"]
    t = result["layer_times"]

    def ratio(a, b):
        return a / b if b else 0.0

    traced = [x for x, f in zip(result["latencies_s"], result["traced"]) if f]
    plain = [x for x, f in zip(result["latencies_s"], result["traced"]) if not f]
    timings = facts["timings"]
    generate_s = timings.get("synth.generate_s", 0.0)
    values = {
        "signals.read_csv_s": (t["read_csv_s"], "s"),
        "signals.read_csv_mb_per_s": (ratio(facts["csv_bytes"] / 1e6, t["read_csv_s"]), "MB/s"),
        "signals.screen_s": (t["screen_s"], "s"),
        "signals.extract_s": (t["extract_s"], "s"),
        "signals.screen_pass_frac": (ratio(c["screen_passed"], c["screen_calls"]), "ratio"),
        "signals.epochs_in": (c["epochs_in"], "count"),
        "signals.epochs_screened_out": (c["screen_calls"] - c["screen_passed"], "count"),
        "pipeline.epochs_used": (c["screen_passed"] - c["failed_fits"], "count"),
        "var.fit_calls": (c["fit_calls"], "count"),
        "var.fit_s": (t["fit_s"], "s"),
        "var.stability_s": (t["stability_s"], "s"),
        "var.scan_calls": (c["scan_calls"], "count"),
        "var.scan_s": (t["scan_s"], "s"),
        "var.fits_per_scan": (ratio(c["scan_fit_calls"], c["scan_calls"]), "count"),
        "var.unstable_frac": (ratio(c["unstable"], c["stability_calls"]), "ratio"),
        "var.failed_fit_frac": (ratio(c["failed_fits"], c["fit_calls"]), "ratio"),
        "pdc.transform_calls": (c["transform_calls"], "count"),
        "pdc.transform_s": (t["transform_s"], "s"),
        "pdc.us_per_model_freq": (ratio(t["transform_s"] * 1e6,
                                        c["transform_calls"] * 53), "us"),
        "pdc.transfer_calls": (c["transfer_calls"], "count"),
        "pdc.segment_avg_s": (t["segment_avg_s"], "s"),
        "pdc.band_avg_s": (t["band_avg_s"], "s"),
        "stats.compare_s": (t["compare_s"], "s"),
        "stats.us_per_key": (ratio(t["compare_s"] * 1e6, c["compare_calls"] * 48), "us"),
        "stats.wilcoxon_calls": (c["wilcoxon_calls"], "count"),
        "stats.holm_s": (t["holm_s"], "s"),
        "stats.exact_key_frac": (facts["exact_key_frac"], "ratio"),
        "pipeline.run_self_s": (t["run_self_s"], "s"),
        "pipeline.write_report_s": (t["write_report_s"], "s"),
        "pipeline.report_bytes": (result["output_bytes"], "bytes"),
        "cli.self_s": (t["cli_self_s"], "s"),
        "synth.generate_s": (generate_s, "s"),
        "synth.samples_per_s": (ratio(timings.get("synth.samples", 0), generate_s),
                                "samples/s"),
        "trace.overhead_frac": (statistics.median(traced) / statistics.median(plain) - 1.0,
                                "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


# ---------------------------------------------------------------- one run

def run_once(name: str, shape, seed: int, seconds: float, trace: bool,
             min_ops: int | None = None) -> dict:
    workdir = os.path.join(HERE, "_run", name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    calibration = calibration_s()
    try:
        job, facts = prepare(shape, seed, workdir, trace)
        job.update(seconds=seconds, trace=int(trace), src=SRC,
                   result=os.path.join(workdir, "result.json"),
                   spans=os.path.join(HERE, "_run", f"spans-{name}.npz"))
        if min_ops is not None:
            job["min_ops"] = min_ops
        result, setup = measure(job, workdir)
    finally:
        # inputs are regenerated from the seed; do not leave them on disk
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(result["latencies_s"]) + job["warmup"]
    failed_ops = {f["op"] for f in result["failures"]}
    # a run-level failure (op "all") or a traced run without one clean traced
    # op fails every op of the run
    if "all" in failed_ops or (trace and result["layer_counts"] is None):
        failed = attempted
    else:
        failed = len(failed_ops)
    if not trace:
        metrics = end_to_end(result, setup, facts)
    elif result["layer_counts"] is not None:
        metrics = per_layer(result, facts)
    else:
        metrics = {}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(), "calibration_s": calibration,
        "setup_samples_s": setup, "items_per_op": facts["items_per_op"],
        "latency_ms": {"min": 1e3 * min(result["latencies_s"]),
                       "p50": 1e3 * statistics.median(result["latencies_s"]),
                       "p90": 1e3 * percentile(result["latencies_s"], 0.9),
                       "samples": len(result["latencies_s"])},
        "latencies_s": result["latencies_s"],
        "traced": result["traced"], "failures": result["failures"],
        "layer_counts": result["layer_counts"],
        "reference_counts": facts["reference_counts"],
        "fwer": facts.get("fwer"), "prepare": facts["timings"],
    }
    with open(os.path.join(HERE, "_run", f"record-{name}-{seed}-{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "record": record, "facts": facts, "result": result}


# ---------------------------------------------------------------- smoke

def smoke() -> int:
    """Every workload once at tiny size; outputs, counts and golden checked."""
    import workloads

    with open(GOLDEN) as fh:
        golden = json.load(fh)
    problems = []
    for name, shape in workloads.SMOKE.items():
        out = run_once(name, shape, SMOKE_SEED, seconds=0.0, trace=True, min_ops=3)
        result, facts = out["result"], out["facts"]
        for f in result["failures"]:
            problems.append(f"{name}: op {f['op']}: {f['problems']}")
        if facts["reference"] != golden[name]["reference"]:
            problems.append(f"{name}: reference differs from golden.json")
        counts = result["layer_counts"]
        # the worker checked the protocol counts; the other call counts may
        # change with the code, so they are reported, not failed
        for key, want in golden[name]["layer_counts"].items():
            if counts.get(key) != want:
                print(f"note: {name}: {key} {counts.get(key)} (at golden commit: {want})")
        print(f"{name}: {len(result['latencies_s'])} ops, "
              f"{len(result['failures'])} failures, counts {counts}")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("smoke:", "FAIL" if problems else "ok")
    return 1 if problems else 0


# ---------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pdckit", "cli.py")):
        return fail(f"no pdckit source under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import workloads

    if args.smoke:
        return smoke()
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; "
                    f"choose from {sorted(workloads.WORKLOADS)}")
    if not 0 <= args.seed < 2 ** 63:
        return fail("seed must be a non-negative 63-bit integer")
    out = run_once(args.workload, workloads.WORKLOADS[args.workload], args.seed,
                   args.seconds, bool(args.trace))
    record = out["record"]
    print(json.dumps({"environment": record["environment"],
                      "calibration_s": record["calibration_s"],
                      "setup_samples_s": record["setup_samples_s"],
                      "ops": len(record["latencies_s"]),
                      "failures": record["failures"][:5]}))
    print(json.dumps({k: out[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
