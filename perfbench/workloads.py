"""Workload shapes and their seeded inputs.

Every input comes from ``pdckit.synth`` (recordings) or from a numpy
generator (test families), keyed on the ``--seed`` of the run, so one seed
always gives the same files. The program only ever sees the written files
(pipeline workloads) or plain dicts of per-subject values (test families).
"""

from __future__ import annotations

import dataclasses
import os
import time

import numpy as np

import reference as ref

LABELS = ("F3", "F4", "T5", "T6")
AR_COEFF = 0.3
COUPLING = 0.6   # F3 -> F4 at lag 1, condition b only
COUPLED_PAIR = ("F3", "F4")
DRIVEN = COUPLED_PAIR[1]
FAMILY_SUBJECTS = 20
QUANTIZED_KEYS = 6   # per family, rounded to a 0.5 grid: ties, normal approximation
ALL_ZERO_KEYS = 2    # per family, b repeats a: untestable


@dataclasses.dataclass(frozen=True)
class Cohort:
    """A two-condition pipeline run over synthetic subjects."""

    subjects: int
    epochs: int
    rows: int | None = None   # samples per recording; None cuts epochs back to back
    auto_order: bool = False
    threads: int = 1


@dataclasses.dataclass(frozen=True)
class Families:
    """A pool of 48-key test families under the global null."""

    pool: int


WORKLOADS = {
    "cohort-fixed": Cohort(subjects=16, epochs=4),
    "cohort-fixed-t2": Cohort(subjects=16, epochs=4, threads=2),
    "cohort-aic": Cohort(subjects=16, epochs=3, auto_order=True),
    "session-io": Cohort(subjects=12, epochs=6, rows=12_000),
    "null-families": Families(pool=256),
}

# Same code paths at a size that runs in seconds; used by --smoke.
SMOKE = {
    "cohort-fixed": Cohort(subjects=12, epochs=3),
    "cohort-fixed-t2": Cohort(subjects=12, epochs=3, threads=2),
    "cohort-aic": Cohort(subjects=12, epochs=2, auto_order=True),
    "session-io": Cohort(subjects=12, epochs=2, rows=2_000),
    "null-families": Families(pool=8),
}


def subject_seeds(seed: int, n: int) -> list:
    """Unsigned 64-bit generator keys, one per subject, derived from the run seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n, dtype=np.uint64)]


def epoch_onsets_ms(shape: Cohort, seed: int) -> list:
    """Epoch onsets shared by every recording of the cohort, in ms."""
    if shape.rows is None:
        return [ref.EPOCH_ROWS * k * 4.0 for k in range(shape.epochs)]
    # sparse markers: one epoch at a seeded position inside each equal slot
    rng = np.random.default_rng([seed, 1])
    slot = shape.rows // shape.epochs
    return [float(k * slot + rng.integers(0, slot - ref.EPOCH_ROWS)) * 4.0
            for k in range(shape.epochs)]


def _coefficients(coupled: bool) -> np.ndarray:
    coeffs = np.diag([AR_COEFF] * len(LABELS))[None].copy()
    if coupled:
        coeffs[0, LABELS.index(COUPLED_PAIR[1]), LABELS.index(COUPLED_PAIR[0])] = COUPLING
    return coeffs


def prepare_cohort(shape: Cohort, seed: int, workdir: str, timings: dict) -> dict:
    """Write a cohort's recordings, markers and config; return the job inputs.

    Both conditions of a subject share one innovation sequence, and condition
    b adds the F3 -> F4 coupling. Channels the coupling does not drive are
    then identical across conditions, so a pair between them can differ only
    through epochs the screen keeps in one condition and not the other.
    """
    from pdckit.pipeline import ORDER_MODE_AUTO_AIC, default_config, write_config_json
    from pdckit.signals import write_recording_csv
    from pdckit.synth import GeneratorSpec, generate

    rows = shape.rows or shape.epochs * ref.EPOCH_ROWS
    onsets = epoch_onsets_ms(shape, seed)
    files = {"a": [], "b": []}
    arrays = {"a": [], "b": []}
    generate_s = 0.0
    for i, key in enumerate(subject_seeds(seed, shape.subjects)):
        for cond in ("a", "b"):
            spec = GeneratorSpec(coeff_matrices=_coefficients(cond == "b"),
                                 innovation_covariance=np.eye(len(LABELS)),
                                 n_samples=rows, seed=key,
                                 sampling_rate_hz=ref.SAMPLING_RATE_HZ,
                                 channel_labels=LABELS)
            t0 = time.perf_counter()
            recording = generate(spec)
            generate_s += time.perf_counter() - t0
            path = os.path.join(workdir, f"{cond}_{i:02d}.csv")
            write_recording_csv(recording, path)
            files[cond].append(path)
            arrays[cond].append(recording.samples)
    timings["synth.generate_s"] = generate_s
    timings["synth.samples"] = 2 * shape.subjects * rows

    markers = os.path.join(workdir, "markers.csv")
    with open(markers, "w") as fh:
        fh.writelines(f"{onset!r}\n" for onset in onsets)
    config = default_config(ref.SAMPLING_RATE_HZ)
    if shape.auto_order:
        config = dataclasses.replace(config, order_mode=ORDER_MODE_AUTO_AIC,
                                     p_scan_max=ref.P_SCAN_MAX)
    config_path = os.path.join(workdir, "config.json")
    write_config_json(config, config_path)

    expected = ref.analyze_cohort(arrays["a"], arrays["b"], onsets, LABELS, shape.auto_order)
    return {
        "argv": ["pipeline", "--config", config_path,
                 "--condition-a", *files["a"], "--condition-b", *files["b"],
                 "--markers", markers, "--out", os.path.join(workdir, "out"),
                 "--threads", str(shape.threads)],
        "csv_bytes": sum(os.path.getsize(p) for p in files["a"] + files["b"]),
        "expected": expected,
    }


def family_keys() -> list:
    return [(s, t, b) for s, t in ref.ordered_pairs(LABELS) for b in ref.BANDS]


def prepare_families(shape: Families, seed: int, workdir: str, timings: dict) -> dict:
    """Draw the family pool and its expected test rows.

    Per family, ``QUANTIZED_KEYS`` keys are rounded to a 0.5 grid (tied
    magnitudes send them to the normal approximation) and ``ALL_ZERO_KEYS``
    keys repeat condition a in condition b (untestable); the rest are
    continuous and take the exact path.
    """
    keys = family_keys()
    rng = np.random.default_rng([seed, 2])
    t0 = time.perf_counter()
    a = rng.standard_normal((shape.pool, len(keys), FAMILY_SUBJECTS))
    b = rng.standard_normal((shape.pool, len(keys), FAMILY_SUBJECTS))
    for k in range(shape.pool):
        picked = rng.choice(len(keys), QUANTIZED_KEYS + ALL_ZERO_KEYS, replace=False)
        quantized, zero = picked[:QUANTIZED_KEYS], picked[QUANTIZED_KEYS:]
        a[k, quantized] = np.round(a[k, quantized] * 2.0) / 2.0
        b[k, quantized] = np.round(b[k, quantized] * 2.0) / 2.0
        b[k, zero] = a[k, zero]
    timings["families.draw_s"] = time.perf_counter() - t0
    path = os.path.join(workdir, "families.npz")
    np.savez(path, a=a, b=b)
    expected = [ref.compare_family(a[k], b[k]) for k in range(shape.pool)]
    return {"families": path, "keys": keys, "expected": expected}
