"""Controllability toolkit for bilinear Schrodinger systems.

Models with discrete spectra (harmonic oscillator, 3D box, custom data),
certification of the controllability hypotheses (connectedness, nonresonance,
Lie algebra rank), piecewise-constant control synthesis on Galerkin
truncations, and verified propagation with steering-time lower bounds.
"""

from . import certification, linalg, models, simulation, synthesis
from .linalg import *  # noqa: F401,F403
from .models import *  # noqa: F401,F403
from .certification import *  # noqa: F401,F403
from .synthesis import *  # noqa: F401,F403
from .simulation import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *linalg.__all__,
    *models.__all__,
    *certification.__all__,
    *synthesis.__all__,
    *simulation.__all__,
]
