"""paramint: a numerical laboratory for differentiating under the integral sign.

Evaluate parametric integrals I(alpha) = int f(x, alpha) dx, check the
derivative-integral interchange numerically, scan for dominating
envelopes, and reconstruct I from dI/d alpha given one anchor value —
all against a catalog of integrals with known closed forms.
"""

from . import engine, quadrature
from .quadrature import *  # noqa: F401,F403
from .engine import *  # noqa: F401,F403
from . import catalog

__version__ = "0.1.0"

__all__ = ["__version__", "catalog", *quadrature.__all__, *engine.__all__]
