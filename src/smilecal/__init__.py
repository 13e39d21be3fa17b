"""smilecal: volatility smile calibration with risk-neutral density validation.

Fit a three-parameter smile to market vol quotes, extract the implied
return density two independent ways (closed form and
finite-difference second strike-derivative), detect density pathologies
(interior relative minima, negative probability), and enforce the
critical plateau-ratio bound chi <= chi_c that keeps the density unimodal.

Each module's ``__all__`` is the one list of its public names; the package
re-exports them all.
"""

from . import adiabatic, bs_core, density, errors, smile
from .adiabatic import *
from .bs_core import *
from .density import *
from .errors import *
from .smile import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (adiabatic, bs_core, density, errors, smile)
    for name in module.__all__
]
