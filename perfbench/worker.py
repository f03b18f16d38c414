"""Measurement worker: one fresh interpreter per run.

Started by ``run.py``. Its first act is to import ``pdckit.cli`` and print
``ready``; the parent times set-up from starting the interpreter to that
line. Then it runs ops in a closed loop (one client: the next op starts only
after the previous one returned and was checked) until the time is up, and
writes latencies, check results, layer counts and peak RSS to the result
file named in the job.

    python3 perfbench/worker.py --probe        # import, print ready, exit
    python3 perfbench/worker.py JOB.json       # run the job
"""

import sys

if __name__ == "__main__":
    import pdckit.cli  # the timed import: set-up ends when it returns
    print("ready", flush=True)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import pdckit.cli  # noqa: E402
import pdckit.stats  # noqa: E402
from spans import Tracer  # noqa: E402

BAND_TOL = 1e-12
TEST_FIELDS = ("n", "W", "p_raw", "p_adjusted", "significant", "untestable", "direction")


# ---------------------------------------------------------------- checks

def check_report(out_dir: str, expected: dict) -> list:
    """Problems found in one pipeline op's report; empty when it is correct."""
    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    problems = []
    if report["subjects_used"] != expected["subjects_used"]:
        problems.append(f"subjects_used {report['subjects_used']}")
    for cond in ("a", "b"):
        got = report["conditions"][cond]
        want = expected["conditions"][cond]
        counts = dict(got["attrition"], unstable_models=got["unstable_models"],
                      degenerate_columns=got["degenerate_columns"])
        for key, value in counts.items():
            if value != want[key]:
                problems.append(f"condition {cond} {key} {value} != {want[key]}")
        for key, values in expected["band_values"][cond].items():
            pair, band = key.split("|")
            actual = got["band_values"][pair][band]
            if len(actual) != len(values) or any(
                    not abs(x - y) <= BAND_TOL for x, y in zip(actual, values)):
                problems.append(f"condition {cond} band value {key}")
    rows = {f"{r['pair']}|{r['band']}": r for r in report["tests"]}
    if set(rows) != set(expected["tests"]):
        return problems + ["test family keys differ"]
    for key, want in expected["tests"].items():
        for field in TEST_FIELDS:
            if rows[key][field] != want[field]:
                problems.append(f"test {key} {field} {rows[key][field]!r} != {want[field]!r}")
        pair = key.split("|")[0]
        # ground truth: the injected pair is found in every band, and no
        # pair between channels the coupling does not drive is flagged
        if pair == expected["coupled"] and not rows[key]["significant"]:
            problems.append(f"injected coupling {key} not flagged")
        if expected["driven"] not in pair.split("->") and rows[key]["significant"]:
            problems.append(f"uncoupled {key} flagged")
    return problems


def check_counts(counts: dict, expected: dict) -> list:
    """Problems in one traced op's layer counts against the protocol's."""
    return [f"layer count {k} {counts[k]} != {want}"
            for k, want in expected.items() if counts[k] != want]


def check_family(results: dict, keys: list, expected: list) -> list:
    """Problems in one family's results; p-values must match exactly."""
    problems = []
    for key, want in zip(keys, expected):
        r = results[key]
        got = (r.n_effective, None if r.untestable else r.statistic_w, r.p_raw,
               r.p_adjusted, r.significant, r.untestable, r.direction)
        if got != tuple(want[f] for f in TEST_FIELDS):
            problems.append(f"test {key} {got!r}")
    return problems


# ---------------------------------------------------------------- op sources

class CohortOps:
    """One op is one ``pdckit pipeline`` command, CSV read to report written."""

    min_ops = 3

    def __init__(self, job: dict):
        self.output_bytes = 0
        self.argv = job["argv"]
        self.expected = job["expected"]
        self.out_dir = self.argv[self.argv.index("--out") + 1]

    def before(self, i: int):
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def run(self, i: int):
        with contextlib.redirect_stdout(io.StringIO()):
            return pdckit.cli.main(self.argv)

    def check(self, i: int, rc) -> list:
        if rc != 0:
            return [f"exit code {rc}"]
        self.output_bytes = sum(os.path.getsize(os.path.join(self.out_dir, f))
                                for f in ("report.json", "test_table.csv"))
        return check_report(self.out_dir, self.expected)


class FamilyOps:
    """One op is one ``compare_conditions`` call on a 48-key family."""

    min_ops = 100
    output_bytes = 0

    def __init__(self, job: dict):
        data = np.load(job["families"])
        self.keys = [((s, t), b) for s, t, b in job["keys"]]
        self.a, self.b = data["a"], data["b"]
        self.family = None
        self.expected = job["expected"]

    def before(self, i: int):
        # only the family of this op is held as the dicts of lists the API takes
        k = i % len(self.a)
        self.family = tuple({key: row.tolist() for key, row in zip(self.keys, x[k])}
                            for x in (self.a, self.b))

    def run(self, i: int):
        return pdckit.stats.compare_conditions(*self.family, alpha=0.05)

    def check(self, i: int, results) -> list:
        self.family = None
        return check_family(results, self.keys, self.expected[i % len(self.a)])


# ---------------------------------------------------------------- layers

def layer_counts(summary: dict, tracer: Tracer) -> dict:
    """Work counts of one traced op, at the layer boundaries."""
    def calls(name):
        return summary[name]["calls"]

    return {
        "extract_calls": calls("pdckit.pipeline.extract_segments"),
        "epochs_in": tracer.tag("pdckit.pipeline.extract_segments", "segments"),
        "screen_calls": calls("pdckit.pipeline.screen_stationarity"),
        "screen_passed": tracer.tag("pdckit.pipeline.screen_stationarity", "passed"),
        "fit_calls": calls("pdckit.pipeline.fit_var"),
        "failed_fits": tracer.tag("pdckit.pipeline.fit_var", "raised"),
        "stability_calls": calls("pdckit.pipeline.check_stability"),
        "unstable": tracer.tag("pdckit.pipeline.check_stability", "unstable"),
        "scan_calls": calls("pdckit.pipeline.select_order"),
        "scan_fit_calls": calls("pdckit.var.fit_var"),
        "transform_calls": calls("pdckit.pipeline.compute_pdc"),
        "transfer_calls": calls("pdckit.pdc.evaluate_transfer"),
        "compare_calls": calls("pdckit.pipeline.compare_conditions")
        + calls("pdckit.stats.compare_conditions"),
        "wilcoxon_calls": calls("pdckit.stats.wilcoxon_signed_rank"),
        "holm_calls": calls("pdckit.stats.holm_bonferroni"),
        "csv_reads": calls("pdckit.cli.read_recording_csv"),
    }


def layer_times(summary: dict) -> dict:
    """Seconds spent inside each layer boundary during one traced op."""
    def total(*names):
        return sum(summary[n]["total_s"] for n in names)

    return {
        "read_csv_s": total("pdckit.cli.read_recording_csv"),
        "screen_s": total("pdckit.pipeline.screen_stationarity"),
        "extract_s": total("pdckit.pipeline.extract_segments"),
        "fit_s": total("pdckit.pipeline.fit_var"),
        "stability_s": total("pdckit.pipeline.check_stability"),
        "scan_s": total("pdckit.pipeline.select_order"),
        "transform_s": total("pdckit.pipeline.compute_pdc"),
        "segment_avg_s": total("pdckit.pipeline.average_over_segments"),
        "band_avg_s": total("pdckit.pipeline.band_average"),
        "compare_s": total("pdckit.pipeline.compare_conditions",
                           "pdckit.stats.compare_conditions"),
        "holm_s": total("pdckit.stats.holm_bonferroni"),
        "run_self_s": summary["pdckit.cli.run_pipeline"]["self_s"],
        "write_report_s": total("pdckit.cli.write_report"),
        "cli_self_s": summary["pdckit.cli.main"]["self_s"],
    }


# ---------------------------------------------------------------- loop

def attempt(source, i: int) -> tuple:
    """Run op i; return (seconds, problems). Only the op itself is timed."""
    source.before(i)
    t0 = time.perf_counter()
    try:
        result = source.run(i)
    except Exception as exc:  # an op that raises counts as failed
        return time.perf_counter() - t0, [f"{type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - t0
    return elapsed, source.check(i, result)


def run_job(job: dict) -> dict:
    """Closed loop: warm up, then one op at a time until the time is up.

    With tracing, every other op runs traced (the first one included), so
    traced and untraced latencies come from the same stretch of the run.
    """
    source = CohortOps(job) if job["kind"] == "cohort" else FamilyOps(job)
    tracer = Tracer() if job["trace"] else None
    want_orders = job["expected"].get("orders") if job["kind"] == "cohort" else None
    latencies, traced_flags, failures = [], [], []
    counts, times = [], []

    i = 0
    for _ in range(job["warmup"]):
        _, problems = attempt(source, i)
        if problems:
            failures.append({"op": i, "problems": problems[:10]})
        i += 1

    start = time.perf_counter()
    n = 0
    min_ops = job.get("min_ops", source.min_ops)
    while n < min_ops or time.perf_counter() - start < job["seconds"]:
        traced = tracer is not None and n % 2 == 0
        if traced:
            tracer.begin_op(i)
            tracer.install()
        elapsed, problems = attempt(source, i)
        if traced:
            tracer.uninstall()
        if traced and not problems:
            summary = tracer.op_summary()
            counts.append(layer_counts(summary, tracer))
            times.append(layer_times(summary))
            problems += check_counts(counts[-1], job["expected_counts"])
            if want_orders:
                got, want = tracer.orders, want_orders
                if job["threads"] > 1:
                    got, want = sorted(got), sorted(want)
                if got != want:
                    problems.append("chosen orders differ from the reference")
        if problems:
            failures.append({"op": i, "problems": problems[:10]})
        latencies.append(elapsed)
        traced_flags.append(traced)
        i += 1
        n += 1

    # every traced op of a run must do exactly the same work
    if len({json.dumps(c, sort_keys=True) for c in counts}) > 1:
        failures.append({"op": "all", "problems": ["layer counts differ between ops"]})
    if tracer is not None:
        tracer.save(job["spans"])
    return {
        "latencies_s": latencies,
        "traced": traced_flags,
        "failures": failures,
        "layer_counts": counts[0] if counts else None,
        "layer_times": {k: float(np.mean([t[k] for t in times])) for k in times[0]}
        if times else None,
        "output_bytes": source.output_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv) -> int:
    if argv == ["--probe"]:
        return 0
    with open(argv[0]) as fh:
        job = json.load(fh)
    src = os.path.realpath(job["src"])
    if not os.path.realpath(pdckit.cli.__file__).startswith(src + os.sep):
        print(f"worker: pdckit imported from {pdckit.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    result = run_job(job)
    with open(job["result"], "w") as fh:
        json.dump(result, fh, allow_nan=False)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
