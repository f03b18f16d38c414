"""Synthetic multichannel series from known stable VAR models.

Ground truth for the estimators: pick lag matrices and an innovation
covariance, simulate, and every downstream quantity (coefficients, spectra,
band averages) has a known target. Innovations come from a counter-based
generator so output is reproducible regardless of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._io import (_check_count, _check_positive, _is_count, _json_payload, _labels, _read_json,
                  _write_json)
from .signals import Recording
from .var import _covariance, spectral_radius

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
        cov = _covariance("innovation_covariance", self.innovation_covariance, m)
        try:  # a generator draws through the Cholesky factor: semidefinite is not enough
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ValueError("innovation_covariance must be positive definite") from None
        radius = spectral_radius(coeffs)
        if not radius < 1.0:
            raise ValueError(f"unstable coefficient matrices: spectral radius {radius:.6f} >= 1")
        _check_count("n_samples", self.n_samples)
        _check_count("burn_in", self.burn_in, 0)
        if not (_is_count(self.seed, 0) and int(self.seed) < _MAX_SEED):
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        _check_positive("sampling_rate_hz", self.sampling_rate_hz)
        labels = (tuple(f"ch{i + 1}" for i in range(m)) if self.channel_labels is None
                  else _labels(self.channel_labels))
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
    return _generate_stack([spec])[0]


def _generate_stack(specs) -> list[Recording]:
    """`generate` of each spec, in one recursion over all of them.

    The specs must share order, channel count and burn_in + n_samples. Each
    spec's innovations come from its own seed and Cholesky factor, and each lag
    term is one (M, M) @ (M, 1) product of a stacked `np.matmul`, added in lag
    order as for one spec, so every recording has the bits `generate` gives it.
    """
    shapes = {(spec.order_p, spec.n_channels, spec.burn_in + spec.n_samples) for spec in specs}
    if len(shapes) != 1:
        raise ValueError("stacked specs must share order, channel count and "
                         f"burn_in + n_samples, got {sorted(shapes)}")
    ((p, m, total),) = shapes
    # time-major: p zero rows of initial state, then the samples, one (S, M, 1) stack per row
    history = np.zeros((p + total, len(specs), m, 1))
    for k, spec in enumerate(specs):
        rng = np.random.Generator(np.random.Philox(key=spec.seed))
        chol = np.linalg.cholesky(spec.innovation_covariance)
        history[p:, k, :, 0] = rng.standard_normal((total, m)) @ chol.T
    coeffs = np.stack([spec.coeff_matrices for spec in specs], axis=1)  # (p, S, M, M)

    for t in range(p, p + total):
        x = history[t]  # the innovations, to which each lag term is added in place
        for r in range(p):
            x += np.matmul(coeffs[r], history[t - 1 - r])
    return [Recording(
        samples=np.ascontiguousarray(history[p + spec.burn_in:, k, :, 0]),
        sampling_rate_hz=spec.sampling_rate_hz,
        channel_labels=spec.channel_labels,
    ) for k, spec in enumerate(specs)]


# generator spec JSON keys, each the GeneratorSpec field it holds, in file order: not
# the field order, since burn_in comes before seed
_SPEC_KEYS = {name: name for name in ("coeff_matrices", "innovation_covariance", "n_samples",
                                      "burn_in", "seed", "sampling_rate_hz", "channel_labels")}


def write_generator_spec_json(spec: GeneratorSpec, path) -> None:
    """Dump a spec as JSON (matrices row-major)."""
    _write_json(path, _json_payload(spec, _SPEC_KEYS))


def read_generator_spec_json(path) -> GeneratorSpec:
    """Load a spec written by `write_generator_spec_json`.

    Each key holds the kind of its `GeneratorSpec` field (`_io._from_json`):
    integers for counts and the seed, a number for the rate, a list of channel
    labels, nested lists of finite numbers for the matrices. burn_in and
    channel_labels, whose fields have defaults, may be omitted; unknown keys are
    rejected. seed may be overridden at the call site (CLI --seed flag).
    """
    return _read_json(path, GeneratorSpec, _SPEC_KEYS, "generator spec")
