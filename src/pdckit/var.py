"""Vector autoregressive model estimation, order selection, and stability.

The model is ``X(t) = sum_{i=1..p} A(i) X(t-i) + E(t)`` with no intercept.
Coefficients are estimated by ordinary least squares on the lagged-regressor
design matrix, solved through an orthogonal factorization (LAPACK least
squares) rather than explicit normal equations. Element ``A(i)[k, m]``
quantifies the contribution of channel ``m`` at lag ``i`` to the current
value of channel ``k``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError
from .signals import MultichannelSegment

__all__ = [
    "VarModel",
    "OrderSelection",
    "fit_var",
    "aic",
    "max_order_bound",
    "select_order",
    "choose_order_from_aic",
    "companion_matrix",
    "check_stability",
    "write_model_json",
    "read_model_json",
]

RULE_FIRST_LOCAL_MINIMUM = "first_local_minimum"
RULE_CAPPED_BY_BOUND = "capped_by_bound"

_SYMMETRY_TOL = 1e-8
_STABILITY_MARGIN = 1e-9


@dataclass(frozen=True)
class VarModel:
    """A fitted VAR(p) model.

    Attributes
    ----------
    order_p : int
        Model order.
    coeff_matrices : np.ndarray
        Shape (p, M, M); ``coeff_matrices[i-1]`` is the lag-i matrix A(i).
    residual_covariance : np.ndarray
        Shape (M, M), symmetric positive semidefinite.
    n_samples_used : int
        Number of regression rows (N - p).
    channel_labels : tuple of str
    """

    order_p: int
    coeff_matrices: np.ndarray
    residual_covariance: np.ndarray
    n_samples_used: int
    channel_labels: tuple[str, ...]

    def __post_init__(self):
        coeffs = np.asarray(self.coeff_matrices, dtype=float)
        cov = np.asarray(self.residual_covariance, dtype=float)
        if self.order_p < 1:
            raise ValueError(f"order_p must be positive, got {self.order_p}")
        if self.n_samples_used < 1:
            raise ValueError(f"n_samples_used must be positive, got {self.n_samples_used}")
        m = len(self.channel_labels)
        if coeffs.shape != (self.order_p, m, m):
            raise ValueError(
                f"coeff_matrices must have shape ({self.order_p}, {m}, {m}), got {coeffs.shape}"
            )
        if cov.shape != (m, m):
            raise ValueError(f"residual_covariance must be {m}x{m}, got {cov.shape}")
        asym = np.abs(cov - cov.T).max() if m else 0.0
        if asym > _SYMMETRY_TOL:
            raise ValueError(f"residual_covariance asymmetry {asym:g} exceeds {_SYMMETRY_TOL:g}")
        if m and np.linalg.eigvalsh(cov).min() < -_SYMMETRY_TOL:
            raise ValueError("residual_covariance is not positive semidefinite")
        object.__setattr__(self, "coeff_matrices", coeffs)
        object.__setattr__(self, "residual_covariance", cov)
        object.__setattr__(self, "channel_labels", tuple(str(c) for c in self.channel_labels))

    @property
    def n_channels(self) -> int:
        return len(self.channel_labels)


@dataclass(frozen=True)
class OrderSelection:
    """Result of an AIC scan over candidate orders."""

    aic_values: tuple[tuple[int, float], ...]
    chosen_p: int
    rule_applied: str


def build_design(samples: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Build the lagged design matrix and target for a VAR(p) regression.

    Row t of the design is ``[X(t-1), X(t-2), ..., X(t-p)]`` flattened; the
    matching target row is ``X(t)``, for t = p .. N-1.
    """
    n, m = samples.shape
    rows = n - p
    design = np.empty((rows, m * p))
    for lag in range(1, p + 1):
        design[:, (lag - 1) * m : lag * m] = samples[p - lag : n - lag]
    target = samples[p:]
    return design, target


def _check_rows(n: int, m: int, p: int) -> None:
    """The row rule of a least-squares VAR(p) fit to N samples of M channels."""
    if p < 1:
        raise ValueError(f"order p must be positive, got {p}")
    if n - p < m * p + 1:
        raise ValueError(f"order {p} breaks N - p >= M*p + 1 for N={n} samples and M={m} channels")


def _check_scan_bound(n: int, m: int, p_scan_max: int) -> None:
    """The AIC scan's cap: p_scan_max <= max_order_bound(N, M)."""
    bound = max_order_bound(n, m)
    if p_scan_max > bound:
        raise ValueError(f"p_scan_max={p_scan_max} exceeds the order bound {bound} "
                         f"(p < 3*sqrt(N)/M) for N={n} samples and M={m} channels")


def fit_var(segment: MultichannelSegment, p: int) -> tuple[VarModel, np.ndarray]:
    """Fit a VAR(p) model to a segment by least squares.

    Parameters
    ----------
    segment : MultichannelSegment
    p : int
        Model order; requires ``N - p >= M*p + 1`` regression rows.

    Returns
    -------
    (VarModel, np.ndarray)
        The fitted model and the (N-p, M) residual matrix. The residual
        covariance uses the denominator ``N - p``.

    Raises
    ------
    ValueError
        If p is non-positive or the segment is too short.
    EstimationError
        If the regressor matrix is numerically rank deficient (collinear
        channels or constant data).
    """
    x = segment.samples
    n, m = x.shape
    _check_rows(n, m, p)
    rows = n - p
    design, target = build_design(x, p)
    coeffs_flat, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < m * p:
        raise EstimationError(
            f"regressor matrix is rank deficient ({rank} < {m * p}); "
            "channels may be collinear or constant"
        )
    residuals = target - design @ coeffs_flat
    cov = residuals.T @ residuals / rows
    # coeffs_flat rows are per-lag blocks of regressor weights; transpose each
    # block so that coeff[i][k, m] multiplies channel m at lag i+1 in channel k's equation
    coeffs = np.stack([coeffs_flat[i * m : (i + 1) * m].T for i in range(p)])
    model = VarModel(
        order_p=p,
        coeff_matrices=coeffs,
        residual_covariance=cov,
        n_samples_used=rows,
        channel_labels=segment.channel_labels,
    )
    return model, residuals


def aic(model: VarModel, n: int) -> float:
    """Akaike information criterion ``n * ln(det Sigma) + 2 * p * M^2``.

    Raises
    ------
    ValueError
        If n is non-positive.
    EstimationError
        If ``det Sigma <= 0`` (degenerate residuals: the model overfits or
        the data are rank deficient).
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    sign, logdet = np.linalg.slogdet(model.residual_covariance)
    if sign <= 0:
        raise EstimationError(
            "residual covariance has non-positive determinant; "
            "model overfit or rank-deficient data"
        )
    m = model.n_channels
    return float(n * logdet + 2 * model.order_p * m * m)


def max_order_bound(n: int, m: int) -> int:
    """Largest order p with ``p < 3*sqrt(n)/m``.

    Evaluated in exact integer arithmetic as the largest p with
    ``(p*m)^2 < 9*n``.

    Raises
    ------
    ValueError
        If the bound is below 1 (segment too short for the channel count).
    """
    if n < 1 or m < 1:
        raise ValueError(f"n and m must be positive, got n={n}, m={m}")
    k = math.isqrt(9 * n - 1)  # largest integer with k^2 < 9n
    bound = k // m
    if bound < 1:
        raise ValueError(
            f"order bound 3*sqrt({n})/{m} is below 1; segment too short for {m} channels"
        )
    return bound


def choose_order_from_aic(aic_values, n: int, m: int) -> OrderSelection:
    """Apply the order-choice rule to a scanned AIC sequence.

    The chosen order is the first interior local minimum: the smallest p with
    ``AIC(p) < AIC(p-1)`` and ``AIC(p) <= AIC(p+1)``. Plateaus do not count
    as minima. If no interior local minimum exists (e.g. the sequence
    decreases throughout the scan), the order is capped at
    ``min(p_scan_max, max_order_bound(n, m))``.
    """
    values = tuple((int(p), float(v)) for p, v in aic_values)
    if not values:
        raise ValueError("empty AIC scan")
    orders = [p for p, _ in values]
    if orders != list(range(orders[0], orders[0] + len(orders))):
        raise ValueError(f"AIC scan orders must be consecutive, got {orders}")
    for idx in range(1, len(values) - 1):
        prev_v = values[idx - 1][1]
        cur_p, cur_v = values[idx]
        next_v = values[idx + 1][1]
        if cur_v < prev_v and cur_v <= next_v:
            return OrderSelection(aic_values=values, chosen_p=cur_p,
                                  rule_applied=RULE_FIRST_LOCAL_MINIMUM)
    p_scan_max = values[-1][0]
    chosen = min(p_scan_max, max_order_bound(n, m))
    return OrderSelection(aic_values=values, chosen_p=chosen,
                          rule_applied=RULE_CAPPED_BY_BOUND)


def select_order(
    segment: MultichannelSegment,
    p_scan_max: int,
    allow_exceed_bound: bool = False,
) -> OrderSelection:
    """Scan orders 1..p_scan_max by AIC and choose one.

    All candidate orders are evaluated on a common regression window (the
    targets X(p_scan_max)..X(N-1)), so their AIC values compare like for
    like; otherwise each order would be scored on a slightly different
    sample and the comparison would carry spurious noise.

    Parameters
    ----------
    segment : MultichannelSegment
    p_scan_max : int
        Upper end of the scan; must not exceed
        ``max_order_bound(N, M)`` unless ``allow_exceed_bound`` is set.
    allow_exceed_bound : bool
        Explicit override of the scan cap. The capped fallback still never
        chooses above the bound.

    Returns
    -------
    OrderSelection
    """
    if p_scan_max < 1:
        raise ValueError(f"p_scan_max must be positive, got {p_scan_max}")
    n = segment.n_samples
    m = segment.n_channels
    if not allow_exceed_bound:
        _check_scan_bound(n, m, p_scan_max)
    scanned = []
    for p in range(1, p_scan_max + 1):
        # drop the leading rows a lower order would otherwise use as extra
        # targets; every candidate then predicts the same rows
        trimmed = MultichannelSegment(
            samples=segment.samples[p_scan_max - p:],
            sampling_rate_hz=segment.sampling_rate_hz,
            channel_labels=segment.channel_labels,
            source_offset=segment.source_offset + p_scan_max - p,
        )
        model, _ = fit_var(trimmed, p)
        scanned.append((p, aic(model, n)))
    return choose_order_from_aic(scanned, n, m)


def companion_matrix(coeff_matrices: np.ndarray) -> np.ndarray:
    """Companion form of the lag matrices: (M*p, M*p) block matrix."""
    coeffs = np.asarray(coeff_matrices, dtype=float)
    p, m, _ = coeffs.shape
    comp = np.zeros((m * p, m * p))
    comp[:m] = coeffs.transpose(1, 0, 2).reshape(m, m * p)
    if p > 1:
        comp[m:, : m * (p - 1)] = np.eye(m * (p - 1))
    return comp


def check_stability(model: VarModel) -> bool:
    """True iff every companion-matrix eigenvalue modulus is below 1 - 1e-9."""
    return spectral_radius(model.coeff_matrices) < 1.0 - _STABILITY_MARGIN


def spectral_radius(coeff_matrices: np.ndarray) -> float:
    """Largest companion-matrix eigenvalue modulus of a lag-matrix stack."""
    eigvals = np.linalg.eigvals(companion_matrix(coeff_matrices))
    return float(np.abs(eigvals).max())


def write_model_json(model: VarModel, path) -> None:
    """Dump a model as JSON with row-major coefficient matrices."""
    payload = {
        "order": model.order_p,
        "channel_labels": list(model.channel_labels),
        "coeff_matrices": model.coeff_matrices.tolist(),
        "residual_covariance": model.residual_covariance.tolist(),
        "n_samples_used": model.n_samples_used,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _json_int(value, where: str) -> int:
    # type() rather than isinstance() because JSON true/false decode as bool
    if type(value) is not int:
        raise ValueError(f"{where} must be an integer, got {json.dumps(value)}")
    return value


def read_model_json(path) -> VarModel:
    """Load a model written by `write_model_json`."""
    with open(path) as fh:
        payload = json.load(fh)
    try:
        return VarModel(
            order_p=_json_int(payload["order"], f"{path}: order"),
            coeff_matrices=np.asarray(payload["coeff_matrices"], dtype=float),
            residual_covariance=np.asarray(payload["residual_covariance"], dtype=float),
            n_samples_used=_json_int(payload["n_samples_used"], f"{path}: n_samples_used"),
            channel_labels=tuple(payload["channel_labels"]),
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing model field {exc}") from None
