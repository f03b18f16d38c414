"""Directed spectral coupling analysis for multichannel time series.

The toolkit models recordings with vector autoregressions, transforms the
fitted coefficients to frequency-domain coupling spectra (partial directed
coherence), averages them within rhythm bands, and compares two experimental
conditions with paired signed-rank tests under family-wise error control.

The package exports every public name of its modules; each module's
``__all__`` is the one list of them.
"""

from . import errors, pdc, pipeline, signals, stats, synth, var
from ._version import __version__
from .errors import *  # noqa: F403
from .pdc import *  # noqa: F403
from .pipeline import *  # noqa: F403
from .signals import *  # noqa: F403
from .stats import *  # noqa: F403
from .synth import *  # noqa: F403
from .var import *  # noqa: F403

__all__ = ["__version__", *errors.__all__, *signals.__all__, *var.__all__, *pdc.__all__,
           *stats.__all__, *synth.__all__, *pipeline.__all__]
