"""Vector autoregressive model estimation, order selection, and stability.

The model is ``X(t) = sum_{i=1..p} A(i) X(t-i) + E(t)`` with no intercept.
Coefficients are estimated by ordinary least squares on the lagged-regressor
design matrix, solved through an orthogonal factorization rather than explicit
normal equations. Element ``A(i)[k, m]`` quantifies the contribution of
channel ``m`` at lag ``i`` to the current value of channel ``k``.

Both the fit and the stability check take a cheap path when a certificate
shows that it reaches the reference computation's verdict, and run that
computation otherwise (Golub & Van Loan, *Matrix Computations*, 5.2-5.3;
Lütkepohl 2005, 2.1):

- The fit solves through one Householder QR when the condition estimate
  ``||R||_F * ||R^-1||_F`` is at most 1e4, which is far inside the rank
  threshold of LAPACK's SVD least squares; otherwise it runs that SVD
  least squares, whose rank verdict raises `EstimationError`.
- The stability check squares the companion matrix C and stops as soon as
  ``||C^(2^k)||_F`` plus a bound on its rounding error proves
  ``rho(C) < 1 - 1e-9 - 1e-6``; otherwise it computes the eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ._io import _json_fields, _labels, _read_json, _write_json
from .errors import EstimationError
from .signals import Recording

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
    "spectral_radius",
    "write_model_json",
    "read_model_json",
]

RULE_FIRST_LOCAL_MINIMUM = "first_local_minimum"
RULE_CAPPED_BY_BOUND = "capped_by_bound"

_SYMMETRY_TOL = 1e-8
_STABILITY_MARGIN = 1e-9
# largest ||R||_F * ||R^-1||_F the QR fit accepts; LAPACK's rank threshold
# eps * max(rows, cols) is ~1e-13, about 1e9 times below 1 / 1e4
_CONDITION_CAP = 1e4
# squarings of the companion matrix before the eigenvalue fallback, and the
# radius they must prove: 1e-6 below the stability threshold
_SQUARINGS = 10
_CERTIFIED_RADIUS = 1.0 - _STABILITY_MARGIN - 1e-6
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class VarModel:
    """A fitted VAR(p) model.

    Attributes
    ----------
    order_p : int
        Model order.
    coeff_matrices : np.ndarray
        Shape (p, M, M), finite; ``coeff_matrices[i-1]`` is the lag-i matrix A(i).
    residual_covariance : np.ndarray
        Shape (M, M), finite, symmetric positive semidefinite.
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
        labels = _labels(self.channel_labels)
        coeffs = np.asarray(self.coeff_matrices, dtype=float)
        cov = np.asarray(self.residual_covariance, dtype=float)
        if not (np.isfinite(coeffs).all() and np.isfinite(cov).all()):
            raise ValueError("coeff_matrices and residual_covariance must be finite")
        if self.order_p < 1:
            raise ValueError(f"order_p must be positive, got {self.order_p}")
        if self.n_samples_used < 1:
            raise ValueError(f"n_samples_used must be positive, got {self.n_samples_used}")
        m = len(labels)
        if coeffs.shape != (self.order_p, m, m):
            raise ValueError(
                f"coeff_matrices must have shape ({self.order_p}, {m}, {m}), got {coeffs.shape}"
            )
        if cov.shape != (m, m):
            raise ValueError(f"residual_covariance must be {m}x{m}, got {cov.shape}")
        # relative above unit scale: a covariance of 1e10 carries rounding of 1e-6
        tol = _SYMMETRY_TOL * max(1.0, float(np.abs(cov).max())) if m else _SYMMETRY_TOL
        asym = np.abs(cov - cov.T).max() if m else 0.0
        if asym > tol:
            raise ValueError(f"residual_covariance asymmetry {asym:g} exceeds {tol:g}")
        if m and np.linalg.eigvalsh(cov).min() < -tol:
            raise ValueError("residual_covariance is not positive semidefinite")
        object.__setattr__(self, "coeff_matrices", coeffs)
        object.__setattr__(self, "residual_covariance", cov)
        object.__setattr__(self, "channel_labels", labels)

    @property
    def n_channels(self) -> int:
        return len(self.channel_labels)


@dataclass(frozen=True)
class OrderSelection:
    """Result of an AIC scan over candidate orders."""

    aic_values: tuple[tuple[int, float], ...]
    chosen_p: int
    rule_applied: str


def _joint_design(samples: np.ndarray, p: int) -> np.ndarray:
    """``[design | target]`` of a VAR(p) regression in one (N-p, M*p + M) array,
    column-major: the layout LAPACK factors without a transposing copy.

    Row t of the design is ``[X(t-1), X(t-2), ..., X(t-p)]`` flattened; the
    matching target row is ``X(t)``, for t = p .. N-1."""
    n, m = samples.shape
    rows = n - p
    step, column = samples.strides
    # block[j, c] is column j*M + c: channel c at lag j + 1 for j < p, the target for j = p
    block = np.empty((p + 1, m, rows))
    # lag j + 1 of row t is sample t + p - 1 - j; read back from sample p - 1,
    # the view's indices run from 0 to N - 2
    block[:p] = as_strided(samples[p - 1:], (p, m, rows), (-step, column, step),
                           writeable=False)
    block[p] = samples[p:].T
    return block.reshape(m * (p + 1), rows).T


def _check_rows(n: int, m: int, p: int) -> None:
    """The row rule of a least-squares VAR(p) fit to N samples of M channels."""
    if p < 1:
        raise ValueError(f"order p must be positive, got {p}")
    if n - p < m * p + 1:
        raise ValueError(f"order {p} breaks N - p >= M*p + 1 for N={n} samples and M={m} channels")


def _check_scan(n: int, m: int, p_scan_max: int) -> None:
    """The AIC scan's rules: p_scan_max <= max_order_bound(N, M), and the row
    rule at p_scan_max, since every candidate predicts the rows after the first
    p_scan_max (Lütkepohl 2005, 4.3)."""
    bound = max_order_bound(n, m)
    if p_scan_max > bound:
        raise ValueError(f"p_scan_max={p_scan_max} exceeds the order bound {bound} "
                         f"(p < 3*sqrt(N)/M) for N={n} samples and M={m} channels")
    _check_rows(n, m, p_scan_max)


def fit_var(segment: Recording, p: int) -> tuple[VarModel, np.ndarray]:
    """Fit a VAR(p) model to a segment by least squares.

    The coefficients come from one Householder QR of ``[design | target]``
    when its triangle R certifies ``||R||_F * ||R^-1||_F <= 1e4``. That bound
    keeps the design's smallest singular value far above the rank threshold
    of LAPACK's SVD least squares (``numpy.linalg.lstsq``), so both give the
    same full-rank verdict and coefficients that agree to rounding. Any
    other design, including one whose R cannot be inverted, is solved by
    ``lstsq`` itself, which alone decides rank deficiency.

    Parameters
    ----------
    segment : Recording
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
    joint = _joint_design(x, p)
    coeffs_flat = _certified_qr_solve(joint, m * p)
    # row-major for the products below: BLAS rounds a column-major operand differently
    joint = joint.copy()
    design, target = joint[:, : m * p], joint[:, m * p :]
    if coeffs_flat is None:
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
    coeffs = coeffs_flat.reshape(p, m, m).transpose(0, 2, 1).copy()
    model = VarModel(
        order_p=p,
        coeff_matrices=coeffs,
        residual_covariance=cov,
        n_samples_used=rows,
        channel_labels=segment.channel_labels,
    )
    return model, residuals


def _certified_qr_solve(joint: np.ndarray, k: int):
    """Least-squares solution through one QR of ``[design | target]``, whose
    design has k columns, or None without a certificate.

    R's top-left block is the design's triangle and the block to its right
    is ``Q^T target``, so the solution is ``R^-1 (Q^T target)``.
    """
    top = _qr_top_rows(joint, k)
    r_design = top[:, :k]
    try:
        r_inv = np.linalg.inv(r_design)
    except np.linalg.LinAlgError:
        return None
    # not (<=) so that a non-finite estimate also falls back
    if not _frobenius(r_design) * _frobenius(r_inv) <= _CONDITION_CAP:
        return None
    return r_inv @ top[:, k:]


def _qr_top_rows(a: np.ndarray, k: int) -> np.ndarray:
    """The top k rows of the triangle R of a Householder QR of ``a``, row-major,
    as ``np.linalg.qr(a, mode="r")[:k]`` gives them.

    ``mode="raw"`` returns LAPACK's factored matrix transposed: R is its upper
    trapezoid, and the reflectors below the diagonal are masked out.
    """
    h, _ = np.linalg.qr(a, mode="raw")
    return np.where(_upper_trapezoid(k, h.shape[0]), h[:, :k].T, 0.0)


@cache  # one entry per order and group size fitted: a scan's masks stay cached for the next
def _upper_trapezoid(rows: int, columns: int) -> np.ndarray:
    """Read-only mask of the entries (i, j) with j >= i of a rows x columns matrix."""
    mask = ~np.tri(rows, columns, -1, dtype=bool)
    mask.flags.writeable = False
    return mask


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


def select_order(segment: Recording, p_scan_max: int) -> OrderSelection:
    """Scan orders 1..p_scan_max by AIC and choose one.

    All candidate orders are evaluated on a common regression window (the
    targets X(p_scan_max)..X(N-1)), so their AIC values compare like for
    like; otherwise each order would be scored on a slightly different
    sample and the comparison would carry spurious noise.

    Parameters
    ----------
    segment : Recording
    p_scan_max : int
        Upper end of the scan; must not exceed ``max_order_bound(N, M)`` and
        must leave ``N - p_scan_max >= M*p_scan_max + 1`` rows.

    Returns
    -------
    OrderSelection

    Raises
    ------
    ValueError
        Before any fit, if p_scan_max breaks either bound.
    """
    if p_scan_max < 1:
        raise ValueError(f"p_scan_max must be positive, got {p_scan_max}")
    n = segment.n_samples
    m = segment.n_channels
    _check_scan(n, m, p_scan_max)
    scanned = []
    for p in range(1, p_scan_max + 1):
        # drop the leading rows a lower order would otherwise use as extra
        # targets; every candidate then predicts the same rows
        skip = p_scan_max - p
        trimmed = replace(segment, samples=segment.samples[skip:])
        model, _ = fit_var(trimmed, p)
        scanned.append((p, aic(model, n)))
    return choose_order_from_aic(scanned, n, m)


def companion_matrix(coeff_matrices: np.ndarray) -> np.ndarray:
    """Companion form of the lag matrices: (M*p, M*p) block matrix."""
    coeffs = np.asarray(coeff_matrices, dtype=float)
    p, m, _ = coeffs.shape
    comp = _companion_shift(m, p).copy()
    comp[:m] = coeffs.transpose(1, 0, 2).reshape(m, m * p)
    return comp


@lru_cache(maxsize=16)
def _companion_shift(m: int, p: int) -> np.ndarray:
    """Read-only (M*p, M*p) companion template: identity blocks below the first
    block row, which the lag matrices fill."""
    shift = np.eye(m * p, k=-m)
    shift.flags.writeable = False
    return shift


def check_stability(model: VarModel) -> bool:
    """True iff every companion-matrix eigenvalue modulus is below 1 - 1e-9.

    The companion matrix C is squared up to 10 times. Since
    ``rho(C)^(2^k) <= ||C^(2^k)||_F``, the model is stable as soon as the
    computed power's norm plus a bound on its accumulated rounding error
    falls below ``(1 - 1e-9 - 1e-6)^(2^k)``. A model that no squaring
    certifies, including one whose powers grow too large to bound, gets the
    eigenvalue verdict ``spectral_radius(...) < 1 - 1e-9``.
    """
    if _certified_stable(companion_matrix(model.coeff_matrices)):
        return True
    return spectral_radius(model.coeff_matrices) < 1.0 - _STABILITY_MARGIN


def _certified_stable(comp: np.ndarray) -> bool:
    """True if repeated squaring proves ``rho(comp) < _CERTIFIED_RADIUS``.

    A product of two n x n matrices is off by at most ``gamma ||A||_F ||B||_F``
    in Frobenius norm, with ``gamma = n eps / (1 - n eps)``. If the computed
    power P is within E of the exact one, its computed square is within
    ``gamma ||P||^2 + 2 ||P|| E + E^2`` of the exact square.
    """
    unit = comp.shape[0] * _EPS
    gamma = unit / (1.0 - unit)
    power = comp
    with np.errstate(over="ignore"):  # an overflowing norm fails the first check
        norm = _frobenius(power)
    error = 0.0
    bound = _CERTIFIED_RADIUS
    for _ in range(_SQUARINGS):
        error = gamma * norm * norm + 2.0 * norm * error + error * error
        if not error < 1.0:
            # E >= 1 stays >= 1 while the bound stays < 1; stopping here
            # also keeps the product below overflow
            return False
        power = power @ power
        norm = _frobenius(power)
        bound *= bound
        if norm + error < bound:
            return True
    return False


def _frobenius(a: np.ndarray) -> float:
    """Frobenius norm by ``np.linalg.norm``'s arithmetic on a row-major array:
    ravel, dot, square root."""
    flat = a.ravel()
    return math.sqrt(flat.dot(flat))


def spectral_radius(coeff_matrices: np.ndarray) -> float:
    """Largest companion-matrix eigenvalue modulus of a lag-matrix stack."""
    eigvals = np.linalg.eigvals(companion_matrix(coeff_matrices))
    return float(np.abs(eigvals).max())


# model JSON key -> (VarModel field, kind), in file order; every key is required
_MODEL_KEYS = {
    "order": ("order_p", "int"),
    "channel_labels": ("channel_labels", "labels"),
    "coeff_matrices": ("coeff_matrices", "array"),
    "residual_covariance": ("residual_covariance", "array"),
    "n_samples_used": ("n_samples_used", "int"),
}


def write_model_json(model: VarModel, path) -> None:
    """Dump a model as JSON with row-major coefficient matrices."""
    _write_json(path, {key: getattr(model, name) for key, (name, _) in _MODEL_KEYS.items()})


def read_model_json(path) -> VarModel:
    """Load a model written by `write_model_json`.

    Every key is required and must have its JSON kind (integers for the
    order and row count, a list of strings for the labels, nested lists of
    finite numbers for the matrices); unknown keys are rejected.
    """
    kinds = {key: kind for key, (_, kind) in _MODEL_KEYS.items()}
    return _read_json(path, "model", lambda payload: VarModel(**{
        _MODEL_KEYS[key][0]: value
        for key, value in _json_fields(payload, kinds, kinds, "model").items()}))
