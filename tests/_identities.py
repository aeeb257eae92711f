"""Two standalone identities of the paper, as quadratures the suite checks.

Neither is a catalog entry: each is a fixed integral whose closed form is
known, evaluated with the package's finite kernel at a tight tolerance.
"""

from __future__ import annotations

import math

from paramint.quadrature import DomainSpec, QuadConfig, integrate_finite

_TIGHT_CFG = QuadConfig(abs_tol=1e-12, rel_tol=1e-12)


def inner_sine_integral(alpha: float) -> float:
    """Quadrature of 1/(1 + alpha sin t) over [-pi/2, pi/2].

    Equals pi/sqrt(1 - alpha^2) for 0 <= alpha < 1; this is the inner
    building block of ex4's derivative and is checked against that
    closed form rather than assumed.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"inner_sine_integral requires 0 <= alpha < 1, got {alpha!r}")

    def f(t: float) -> float:
        s = math.sin(0.5 * t + 0.25 * math.pi)
        return 1.0 / ((1.0 - alpha) + 2.0 * alpha * s * s)

    return integrate_finite(f, DomainSpec.finite(-0.5 * math.pi, 0.5 * math.pi), _TIGHT_CFG).value


def realpart_cancellation_integral(alpha: float) -> float:
    """Quadrature over [0, pi] of the real part of e^{-ix}/(alpha - e^{-ix}).

    For alpha > 1 the two conjugate pole contributions cancel and the
    integral is exactly zero; the numeric value witnesses how completely
    the quadrature reproduces that cancellation.
    """
    if not alpha > 1.0:
        raise ValueError(
            f"realpart_cancellation_integral requires alpha > 1, got {alpha!r}"
        )
    am1 = alpha - 1.0

    def f(x: float) -> float:
        s2 = math.sin(0.5 * x) ** 2
        # real part of e^{-ix}/(alpha - e^{-ix}) over its squared modulus
        return (am1 - 2.0 * alpha * s2) / (am1 * am1 + 4.0 * alpha * s2)

    return integrate_finite(f, DomainSpec.finite(0.0, math.pi), _TIGHT_CFG).value
