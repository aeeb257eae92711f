"""Built-in catalog of parametric integrals with known closed forms.

Each entry bundles an integrand f(x, alpha), its analytic parameter
derivative, the x-domain (with endpoint classification, possibly
alpha-dependent), the valid parameter range, an anchor value where the
integral is known trivially, and closed forms for dI/d alpha and I when
available.  The entries double as regression ground truth: every closed
form here is independently checkable by quadrature.

Integrands are written in forms that stay numerically stable where the
naive formula cancels: logs of sums of squares are arranged as sums of
non-negative terms, removable singularities at x = 0 are given their
limit values explicitly, and radical differences like sqrt(1+t^2) - t
are rationalized.

Entry ids, in registry order:

==========  =================================================  ==========
id          integral                                           parameter
==========  =================================================  ==========
gauss       int_0^inf exp(-a x^2) dx                           a > 0
ex1         int_0^inf log(1 + a x^2) / x^2 dx                  a >= 0
ex2         int_0^pi log(a^2 - 2 a cos x + 1) dx               a >= 1
ex3_beta    int_0^inf exp(-x^2) sin(b x^2) / x^2 dx            b >= 0
ex3_alpha   int_0^inf exp(-a x^2) sin(x^2) / x^2 dx            a >= 0
ex4         int_{-pi/2}^{pi/2} log(1 + a sin t) dt             0 <= a <= 1
==========  =================================================  ==========
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .engine import Anchor, ParamDomain, ParametricIntegral
from .quadrature import DomainSpec

__all__ = [
    "CatalogEntry",
    "UnknownEntryError",
    "entries",
    "get",
    "closed_form",
    "rhs_closed_form",
    "entry_metadata",
]

_QUARTER_PI = 0.25 * math.pi
_HALF_PI = 0.5 * math.pi


class UnknownEntryError(KeyError):
    """Requested catalog id does not exist."""

    def __init__(self, entry_id: str, valid: tuple[str, ...]):
        self.entry_id = entry_id
        self.valid = valid
        super().__init__(
            f"unknown catalog entry {entry_id!r}; valid ids: {', '.join(valid)}"
        )

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    title: str
    parametric: ParametricIntegral
    verification_grid: tuple[float, ...]
    singular_notes: str
    # where rhs_closed holds: narrower than param_domain where it degenerates
    rhs_domain: Optional[ParamDomain] = None

    def __post_init__(self):
        for a in self.verification_grid:
            if not self.parametric.param_domain.contains(a):
                raise ValueError(
                    f"grid point {a!r} of entry {self.id!r} lies outside its "
                    f"parameter domain"
                )


# ---------------------------------------------------------------------------
# gauss: int_0^inf exp(-a x^2) dx = sqrt(pi/a)/2
# ---------------------------------------------------------------------------

def _f_gauss(x: float, a: float) -> float:
    return math.exp(-a * x * x)


def _da_gauss(x: float, a: float) -> float:
    u = x * x
    if u == math.inf:
        return 0.0  # the limit; -inf * 0.0 would be NaN
    return -u * math.exp(-a * u)


def _sol_gauss(a: float) -> float:
    return 0.5 * math.sqrt(math.pi / a)


# ---------------------------------------------------------------------------
# ex1: int_0^inf log(1 + a x^2) / x^2 dx = pi sqrt(a)
# ---------------------------------------------------------------------------

def _f_ex1(x: float, a: float) -> float:
    u = x * x
    if u == 0.0:
        return a  # limit of log(1 + a u)/u as u -> 0
    if u == math.inf:
        return 0.0  # the limit; inf/inf would be NaN
    au = a * u
    if au == math.inf:
        return (math.log(a) + math.log(u)) / u  # a*u overflows; log1p(inf) would be inf
    return math.log1p(au) / u


def _da_ex1(x: float, a: float) -> float:
    return 1.0 / (1.0 + a * x * x)


def _rhs_ex1(a: float) -> float:
    return math.pi / (2.0 * math.sqrt(a))


def _sol_ex1(a: float) -> float:
    return math.pi * math.sqrt(a)


# ---------------------------------------------------------------------------
# ex2: int_0^pi log(a^2 - 2 a cos x + 1) dx = 2 pi log(a), a >= 1
#
# The integrand is rewritten as log((a-1)^2 + 4 a sin^2(x/2)): both
# terms are non-negative, so nothing cancels as a -> 1 or x -> 0.
# At a = 1 exactly the integrand is log-singular at x = 0.
# ---------------------------------------------------------------------------

def _f_ex2(x: float, a: float) -> float:
    s = math.sin(0.5 * x)
    am1 = a - 1.0
    q = am1 * am1 + 4.0 * a * s * s
    if q == math.inf:
        # (a-1)^2 overflows: log((a-1)^2 (1 + 4 a s^2/(a-1)^2))
        return 2.0 * math.log(am1) + math.log1p(4.0 * s * s / am1 * (a / am1))
    return math.log(q)


def _da_ex2(x: float, a: float) -> float:
    s2 = math.sin(0.5 * x) ** 2
    am1 = a - 1.0
    q = am1 * am1 + 4.0 * a * s2
    if q == math.inf:
        # (a-1)^2 overflows: numerator and denominator over a-1
        return (2.0 + 4.0 * s2 / am1) / (am1 + 4.0 * s2 * (a / am1))
    return (2.0 * am1 + 4.0 * s2) / q


def _rhs_ex2(a: float) -> float:
    return 2.0 * math.pi / a


def _sol_ex2(a: float) -> float:
    return 2.0 * math.pi * math.log(a)


_EX2_SINGULAR_BAND = 1e-3  # lower endpoint treated as singular for a in [1, 1+band)
_EX2_SINGULAR = DomainSpec.singular(0.0, math.pi, at_lower=True)
_EX2_REGULAR = DomainSpec.finite(0.0, math.pi)


def _dom_ex2(a: float) -> DomainSpec:
    return _EX2_SINGULAR if a < 1.0 + _EX2_SINGULAR_BAND else _EX2_REGULAR


# ---------------------------------------------------------------------------
# ex3_beta: int_0^inf exp(-x^2) sin(b x^2) / x^2 dx
#         = sqrt(pi/2) sqrt(sqrt(1+b^2) - 1)
# ---------------------------------------------------------------------------

def _f_ex3_beta(x: float, b: float) -> float:
    u = x * x
    if u == 0.0:
        return b  # limit of exp(-u) sin(b u)/u
    if u == math.inf:
        return 0.0  # the limit; sin(inf) would raise
    return math.exp(-u) * math.sin(b * u) / u


def _da_ex3_beta(x: float, b: float) -> float:
    u = x * x
    if u == math.inf:
        return 0.0  # the limit; cos(inf) would raise
    return math.exp(-u) * math.cos(b * u)


def _rhs_ex3_beta(b: float) -> float:
    # real form of d/db sqrt(pi/2) sqrt(sqrt(1+b^2)-1): half-angle in
    # theta = arctan(b) keeps it finite at b = 0.
    theta = math.atan(b)
    return 0.5 * math.sqrt(math.pi) * math.cos(0.5 * theta) / (1.0 + b * b) ** 0.25


def _sol_ex3_beta(b: float) -> float:
    # sqrt(1+b^2) - 1 rationalized to b^2/(1 + sqrt(1+b^2)): no
    # cancellation at small b.
    inner = b * b / (1.0 + math.sqrt(1.0 + b * b))
    return math.sqrt(_HALF_PI) * math.sqrt(inner)


# ---------------------------------------------------------------------------
# ex3_alpha: int_0^inf exp(-a x^2) sin(x^2) / x^2 dx
#          = sqrt(pi/2) sqrt(sqrt(a^2+1) - a)
#
# The tail oscillates with phase x^2, so the domain carries the zeros
# x_k = sqrt(k pi), with dx/dk = pi/(2 sqrt(k pi)), and the oscillatory
# kernel sums over the phase index k from the zero k = 0; this keeps
# a = 0 (pure sin(x^2)/x^2, only conditionally convergent in the
# derivative) inside the valid range.
# ---------------------------------------------------------------------------

def _f_ex3_alpha(x: float, a: float) -> float:
    u = x * x
    if u == 0.0:
        return 1.0  # limit of exp(-a u) sin(u)/u
    if u == math.inf:
        return 0.0  # the limit; sin(inf) would raise
    return math.exp(-a * u) * math.sin(u) / u


def _da_ex3_alpha(x: float, a: float) -> float:
    u = x * x
    if u == math.inf and a > 0.0:
        return 0.0  # the limit; at a = 0, -sin(x^2) has none and raises
    return -math.exp(-a * u) * math.sin(u)


def _sol_ex3_alpha(a: float) -> float:
    # sqrt(a^2+1) - a rationalized to 1/(a + sqrt(a^2+1)); at a = 1 this
    # is bit-identical to _sol_ex3_beta's radical at b = 1.
    inner = 1.0 / (a + math.sqrt(a * a + 1.0))
    return math.sqrt(_HALF_PI) * math.sqrt(inner)


def _sine_square_zero(k: float) -> float:
    return math.sqrt(k * math.pi)


def _sine_square_zero_rate(k: float) -> float:
    return _HALF_PI / math.sqrt(k * math.pi)


_EX3_ALPHA_DOMAIN = DomainSpec.oscillatory(0.0, _sine_square_zero, _sine_square_zero_rate)


# ---------------------------------------------------------------------------
# ex4: int_{-pi/2}^{pi/2} log(1 + a sin t) dt = pi log((1 + sqrt(1-a^2))/2)
#
# 1 + a sin t is computed as (1-a) + 2 a s^2 with s = sin(t/2 + pi/4):
# both terms non-negative, so the log argument is exact even where
# a -> 1 drives it toward zero at t = -pi/2.  Below a = 0.25 (where the mean
# errors cross) it is log1p(a sin t): log rounds to ~eps while I ~ -pi a^2/4.
# ---------------------------------------------------------------------------

def _f_ex4(x: float, a: float) -> float:
    if a < 0.25:
        return math.log1p(a * math.sin(x))
    s = math.sin(0.5 * x + _QUARTER_PI)
    return math.log((1.0 - a) + 2.0 * a * s * s)


def _da_ex4(x: float, a: float) -> float:
    s2 = math.sin(0.5 * x + _QUARTER_PI) ** 2
    return (2.0 * s2 - 1.0) / ((1.0 - a) + 2.0 * a * s2)


def _rhs_ex4(a: float) -> float:
    # (pi/a)(1 - 1/sqrt(1-a^2)) rationalized: removable at a = 0,
    # integrable 1/sqrt blow-up at a = 1.
    root = math.sqrt((1.0 - a) * (1.0 + a))
    return -math.pi * a / (root * (1.0 + root))


def _rhs_ex4_near(end: float, d: float) -> float:
    # _rhs_ex4 at a = end + d from the offset itself: c = 1 - a is exactly
    # -d at end = 1, where a tanh-sinh node closer than ulp(1) rounds a to 1.
    c = (1.0 - end) - d
    root = math.sqrt(c * (2.0 - c))
    return -math.pi * (end + d) / (root * (1.0 + root))


def _sol_ex4(a: float) -> float:
    # log((1 + root)/2) = log1p(-a^2/(2(1 + root))), with no cancellation near
    # a = 0; 0.0 - ... keeps I(0) at +0.0
    root = math.sqrt((1.0 - a) * (1.0 + a))
    return math.pi * math.log1p(0.0 - a * a / (2.0 * (1.0 + root)))


_EX4_SINGULAR_BAND = 0.995  # lower endpoint treated as singular for a above this
_EX4_SINGULAR = DomainSpec.singular(-_HALF_PI, _HALF_PI, at_lower=True)
_EX4_REGULAR = DomainSpec.finite(-_HALF_PI, _HALF_PI)


def _dom_ex4(a: float) -> DomainSpec:
    return _EX4_SINGULAR if a > _EX4_SINGULAR_BAND else _EX4_REGULAR


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_ENTRIES: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        id="gauss",
        title="exp(-a x^2) on [0, inf)",
        parametric=ParametricIntegral(
            integrand=_f_gauss,
            d_alpha=_da_gauss,
            domain=DomainSpec.semi_infinite(0.0),
            param_domain=ParamDomain(0.0, math.inf, lo_open=True),
            anchor=None,  # pure quadrature reference; nothing to reconstruct
            solution_closed=_sol_gauss,
        ),
        verification_grid=(0.5, 1.0, 2.0),
        singular_notes="smooth Gaussian decay; no singular behavior anywhere",
    ),
    CatalogEntry(
        id="ex1",
        title="log(1 + a x^2) / x^2 on (0, inf)",
        parametric=ParametricIntegral(
            integrand=_f_ex1,
            d_alpha=_da_ex1,
            domain=DomainSpec.semi_infinite(0.0),
            param_domain=ParamDomain(0.0, math.inf),
            anchor=Anchor(0.0, 0.0),
            rhs_closed=_rhs_ex1,
            solution_closed=_sol_ex1,
        ),
        verification_grid=(0.25, 1.0, 4.0),
        singular_notes=(
            "integrand removable at x=0 (value a); dI/da has an integrable "
            "1/sqrt(a) singularity at the anchor a=0"
        ),
        rhs_domain=ParamDomain(0.0, math.inf, lo_open=True),
    ),
    CatalogEntry(
        id="ex2",
        title="log(a^2 - 2 a cos x + 1) on [0, pi]",
        parametric=ParametricIntegral(
            integrand=_f_ex2,
            d_alpha=_da_ex2,
            domain=_dom_ex2,
            param_domain=ParamDomain(1.0, math.inf),
            anchor=Anchor(1.0, 0.0),
            rhs_closed=_rhs_ex2,
            solution_closed=_sol_ex2,
        ),
        verification_grid=(1.0, 1.5, 2.0, 5.0),
        singular_notes=(
            "integrable log singularity at x=0 when a=1; the lower endpoint "
            f"is classified singular for a in [1, 1+{_EX2_SINGULAR_BAND:g})"
        ),
        rhs_domain=ParamDomain(1.0, math.inf, lo_open=True),
    ),
    CatalogEntry(
        id="ex3_beta",
        title="exp(-x^2) sin(b x^2) / x^2 on [0, inf)",
        parametric=ParametricIntegral(
            integrand=_f_ex3_beta,
            d_alpha=_da_ex3_beta,
            domain=DomainSpec.semi_infinite(0.0),
            param_domain=ParamDomain(0.0, math.inf),
            anchor=Anchor(0.0, 0.0),
            rhs_closed=_rhs_ex3_beta,
            solution_closed=_sol_ex3_beta,
        ),
        verification_grid=(0.0, 0.5, 1.0, 2.0),
        singular_notes=(
            "integrand removable at x=0 (value b); Gaussian factor keeps "
            "every derivative dominated by exp(-x^2)"
        ),
        rhs_domain=ParamDomain(0.0, math.inf),
    ),
    CatalogEntry(
        id="ex3_alpha",
        title="exp(-a x^2) sin(x^2) / x^2 on [0, inf)",
        parametric=ParametricIntegral(
            integrand=_f_ex3_alpha,
            d_alpha=_da_ex3_alpha,
            domain=_EX3_ALPHA_DOMAIN,
            param_domain=ParamDomain(0.0, math.inf),
            anchor=Anchor(1.0, _sol_ex3_alpha(1.0)),
            solution_closed=_sol_ex3_alpha,
        ),
        verification_grid=(0.0, 0.5, 1.0, 2.0),
        singular_notes=(
            "integrand removable at x=0 (value 1); at a=0 the integral and "
            "its a-derivative converge only through sign alternation, handled "
            "by one Ooura-Mori sum in the phase index, with no extrapolation"
        ),
    ),
    CatalogEntry(
        id="ex4",
        title="log(1 + a sin t) on [-pi/2, pi/2]",
        parametric=ParametricIntegral(
            integrand=_f_ex4,
            d_alpha=_da_ex4,
            domain=_dom_ex4,
            param_domain=ParamDomain(0.0, 1.0),
            anchor=Anchor(0.0, 0.0),
            rhs_closed=_rhs_ex4,
            rhs_near=_rhs_ex4_near,
            solution_closed=_sol_ex4,
        ),
        verification_grid=(0.0, 0.2, 0.5, 0.9, 0.99, 1.0),
        singular_notes=(
            "integrable log singularity at t=-pi/2 when a=1 (endpoint "
            f"classified singular for a > {_EX4_SINGULAR_BAND:g}); dI/da has "
            "an integrable 1/sqrt(1-a) blow-up at a=1"
        ),
        rhs_domain=ParamDomain(0.0, 1.0, hi_open=True),
    ),
)

_IDS: tuple[str, ...] = tuple(e.id for e in _ENTRIES)
_BY_ID = {e.id: e for e in _ENTRIES}


def entries() -> list[CatalogEntry]:
    """All catalog entries in registry order."""
    return list(_ENTRIES)


def get(entry_id: str) -> CatalogEntry:
    try:
        return _BY_ID[entry_id]
    except KeyError:
        raise UnknownEntryError(entry_id, _IDS) from None


def closed_form(entry_id: str, alpha: float) -> float:
    """Evaluate the entry's closed-form solution I(alpha)."""
    entry = get(entry_id)
    P = entry.parametric
    if P.solution_closed is None:
        raise ValueError(f"entry {entry_id!r} has no closed-form solution")
    P.param_domain.require(alpha)
    return P.solution_closed(alpha)


def rhs_closed_form(entry_id: str, alpha: float) -> float:
    """Evaluate the entry's closed-form derivative dI/d alpha."""
    entry = get(entry_id)
    if entry.rhs_domain is None:
        raise ValueError(
            f"entry {entry_id!r} has no closed-form derivative; available for: "
            + ", ".join(sorted(e.id for e in _ENTRIES if e.rhs_domain is not None))
        )
    entry.rhs_domain.require(alpha, name="domain of the closed-form derivative")
    return entry.parametric.rhs_closed(alpha)


def entry_metadata(entry: CatalogEntry) -> dict:
    """JSON-ready summary of an entry (no callables)."""
    P = entry.parametric
    return {
        "id": entry.id,
        "title": entry.title,
        # keys in ParamDomain's and Anchor's field order, a JSON contract
        "param_domain": dict(vars(P.param_domain)),
        "anchor": None if P.anchor is None else dict(vars(P.anchor)),
        "verification_grid": list(entry.verification_grid),
        "has_rhs_closed": P.rhs_closed is not None,
        "has_solution_closed": P.solution_closed is not None,
        "singular_notes": entry.singular_notes,
    }
