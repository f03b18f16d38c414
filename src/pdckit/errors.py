"""Exception types shared across the toolkit.

Argument and range violations raise plain ``ValueError``; the classes here
mark failure modes a batch driver may want to handle separately.
"""

__all__ = ["DegenerateSampleError", "EstimationError", "PipelineError"]


class EstimationError(RuntimeError):
    """Model estimation failed (rank-deficient regressors, degenerate residuals)."""


class DegenerateSampleError(ValueError):
    """A paired sample carries no usable information (all differences zero)."""


class PipelineError(RuntimeError):
    """A pipeline stage left nothing to analyze."""
