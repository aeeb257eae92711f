"""paramint: a numerical laboratory for differentiating under the integral sign.

Evaluate parametric integrals I(alpha) = int f(x, alpha) dx, check the
derivative-integral interchange numerically, scan for dominating
envelopes, and reconstruct I from dI/d alpha given one anchor value —
all against a catalog of integrals with known closed forms.
"""

from .quadrature import (
    DomainSpec,
    EndpointKind,
    EvaluationError,
    NonIntegrableSingularityError,
    OscillatoryTail,
    QuadConfig,
    QuadratureError,
    QuadResult,
    QuadStatus,
    integrate,
    integrate_finite,
    integrate_improper,
    integrate_oscillatory_improper,
    integrate_singular,
)
from .engine import (
    Anchor,
    DegenerateWindowError,
    DominationReport,
    DominationVerdict,
    InterchangeReport,
    MissingAnchorError,
    OneSidedDifferenceError,
    ParamDomain,
    ParameterDomainError,
    ParametricIntegral,
    VerificationPoint,
    VerificationReport,
    deriv_under_integral,
    domination_scan,
    eval_direct,
    interchange_check,
    reconstruct,
    verify,
)
from . import catalog

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "catalog",
    # quadrature
    "DomainSpec",
    "EndpointKind",
    "OscillatoryTail",
    "QuadConfig",
    "QuadResult",
    "QuadStatus",
    "QuadratureError",
    "EvaluationError",
    "NonIntegrableSingularityError",
    "integrate",
    "integrate_finite",
    "integrate_singular",
    "integrate_improper",
    "integrate_oscillatory_improper",
    # engine
    "ParamDomain",
    "Anchor",
    "ParametricIntegral",
    "InterchangeReport",
    "DominationVerdict",
    "DominationReport",
    "VerificationPoint",
    "VerificationReport",
    "ParameterDomainError",
    "OneSidedDifferenceError",
    "DegenerateWindowError",
    "MissingAnchorError",
    "eval_direct",
    "deriv_under_integral",
    "interchange_check",
    "domination_scan",
    "reconstruct",
    "verify",
]
