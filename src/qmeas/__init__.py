"""Generalized quantum measurement toolkit.

Builds POVMs from measurement-interaction models, quantifies measurement
nonideality via stochastic-matrix recovery and entropy measures, and
numerically verifies the entropic joint-measurement bound, the Robertson
uncertainty product, and the CHSH behavior of single-setup versus pasted
two-photon experiments.

Every name in a module's `__all__` is re-exported here.  `qmeas.cli` is
not: importing the package stays free of the command-line layer.
"""

from . import experiments, nonideality, operators, povm, premeasurement, sampling, states
from .experiments import *  # noqa: F403
from .nonideality import *  # noqa: F403
from .operators import *  # noqa: F403
from .povm import *  # noqa: F403
from .premeasurement import *  # noqa: F403
from .sampling import *  # noqa: F403
from .states import *  # noqa: F403

__all__ = [
    name
    for module in (experiments, nonideality, operators, povm, premeasurement, sampling, states)
    for name in module.__all__
]

__version__ = "0.1.0"
