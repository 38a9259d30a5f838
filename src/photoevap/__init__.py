"""Angular distributions and thermalization diagnostics for compound
photoproton emission.

The package splits into four layers: exact angular-momentum recoupling
(``angmom``), the interference model for the emitted-proton angular
distribution (``xsection``), evaporation-spectrum and lifetime
diagnostics (``thermo``) and multi-start parameter extraction
(``fitkit``).  ``cli`` exposes all of them as the ``photoevap`` command.
"""

from . import angmom, errors, fitkit, thermo, xsection
from .angmom import *
from .errors import *
from .fitkit import *
from .thermo import *
from .xsection import *

__version__ = "0.1.0"

__all__ = [
    *angmom.__all__,
    *errors.__all__,
    *fitkit.__all__,
    *thermo.__all__,
    *xsection.__all__,
    "__version__",
]
