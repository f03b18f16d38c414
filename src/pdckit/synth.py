"""Synthetic multichannel series from known stable VAR models.

Ground truth for the estimators: pick lag matrices and an innovation
covariance, simulate, and every downstream quantity (coefficients, spectra,
band averages) has a known target. Innovations come from a counter-based
generator so output is reproducible regardless of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._io import _check_positive, _json_fields, _read_json, _write_json
from .signals import Recording
from .var import spectral_radius

__all__ = [
    "DEFAULT_BURN_IN",
    "GeneratorSpec",
    "generate",
    "write_generator_spec_json",
    "read_generator_spec_json",
]

# Initial-condition influence decays geometrically; 500 samples is ample for
# spectral radius up to ~0.95.
DEFAULT_BURN_IN = 500

_SYMMETRY_TOL = 1e-8
_MAX_SEED = 2 ** 64


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of one simulation run.

    Attributes
    ----------
    coeff_matrices : np.ndarray
        Lag matrices, shape (p, M, M); the implied companion matrix must be
        stable (spectral radius < 1).
    innovation_covariance : np.ndarray
        Symmetric positive-definite (M, M) covariance of the Gaussian
        innovations.
    n_samples : int
        Rows in the returned recording, after burn-in removal.
    burn_in : int
        Leading samples discarded to wash out the zero initial state.
    seed : int
        Unsigned 64-bit key of the counter-based generator.
    sampling_rate_hz : float
    channel_labels : tuple of str, optional
        Defaults to ch1..chM.
    """

    coeff_matrices: np.ndarray
    innovation_covariance: np.ndarray
    n_samples: int
    seed: int
    sampling_rate_hz: float
    burn_in: int = DEFAULT_BURN_IN
    channel_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        coeffs = np.asarray(self.coeff_matrices, dtype=float)
        if coeffs.ndim != 3 or coeffs.shape[0] < 1 or coeffs.shape[1] != coeffs.shape[2]:
            raise ValueError(f"coeff_matrices must have shape (p, M, M), got {coeffs.shape}")
        if not np.isfinite(coeffs).all():
            raise ValueError("coeff_matrices must be finite")
        m = coeffs.shape[1]
        cov = np.asarray(self.innovation_covariance, dtype=float)
        if cov.shape != (m, m):
            raise ValueError(f"innovation_covariance must have shape ({m}, {m}), got {cov.shape}")
        if not np.isfinite(cov).all() or not np.allclose(cov, cov.T, atol=_SYMMETRY_TOL):
            raise ValueError("innovation_covariance must be finite and symmetric")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ValueError("innovation_covariance must be positive definite") from None
        radius = spectral_radius(coeffs)
        if not radius < 1.0:
            raise ValueError(f"unstable coefficient matrices: spectral radius {radius:.6f} >= 1")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be >= 0, got {self.burn_in}")
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        _check_positive("sampling_rate_hz", self.sampling_rate_hz)
        labels = self.channel_labels
        if labels is None:
            labels = tuple(f"ch{i + 1}" for i in range(m))
        else:
            labels = tuple(str(c) for c in labels)
            if len(labels) != m:
                raise ValueError(f"expected {m} channel labels, got {len(labels)}")
        object.__setattr__(self, "coeff_matrices", coeffs)
        object.__setattr__(self, "innovation_covariance", cov)
        object.__setattr__(self, "channel_labels", labels)

    @property
    def order_p(self) -> int:
        return self.coeff_matrices.shape[0]

    @property
    def n_channels(self) -> int:
        return self.coeff_matrices.shape[1]


def generate(spec: GeneratorSpec) -> Recording:
    """Simulate X(t) = sum_i A(i) X(t-i) + E(t) from a zero initial state.

    E(t) is zero-mean Gaussian with the spec's covariance, drawn by applying
    its Cholesky factor to standard normals from Philox keyed on the seed.
    The first `burn_in` rows are discarded. Bit-identical output for equal
    specs.
    """
    p = spec.order_p
    m = spec.n_channels
    total = spec.burn_in + spec.n_samples
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    chol = np.linalg.cholesky(spec.innovation_covariance)
    innovations = rng.standard_normal((total, m)) @ chol.T

    coeffs = spec.coeff_matrices
    history = np.zeros((p + total, m))
    for t in range(total):
        x = innovations[t].copy()
        for r in range(p):
            x += coeffs[r] @ history[p + t - 1 - r]
        history[p + t] = x
    return Recording(
        samples=history[p + spec.burn_in:],
        sampling_rate_hz=spec.sampling_rate_hz,
        channel_labels=spec.channel_labels,
    )


# generator spec JSON key -> kind, in file order; the keys are GeneratorSpec's fields
_SPEC_KINDS = {
    "coeff_matrices": "array",
    "innovation_covariance": "array",
    "n_samples": "int",
    "burn_in": "int",
    "seed": "int",
    "sampling_rate_hz": "float",
    "channel_labels": "labels | None",
}


def write_generator_spec_json(spec: GeneratorSpec, path) -> None:
    """Dump a spec as JSON (matrices row-major)."""
    _write_json(path, {key: getattr(spec, key) for key in _SPEC_KINDS})


def read_generator_spec_json(path) -> GeneratorSpec:
    """Load a spec written by `write_generator_spec_json`.

    burn_in and channel_labels may be omitted from the file; seed may be
    overridden at the call site (CLI --seed flag). Every value must have its
    JSON kind (integers for counts and the seed, a number for the rate, a
    list of strings for the labels, nested lists of finite numbers for the
    matrices), and unknown keys are rejected.
    """
    required = ("coeff_matrices", "innovation_covariance", "n_samples", "seed",
                "sampling_rate_hz")
    return _read_json(path, "generator spec", lambda payload: GeneratorSpec(
        **_json_fields(payload, _SPEC_KINDS, required, "generator spec")))
