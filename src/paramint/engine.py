"""Workflow engine for parametric integrals I(alpha) = int f(x, alpha) dx.

The engine mechanizes the classic parameter-differentiation workflow:

1. evaluate I(alpha) directly (:func:`eval_direct`);
2. evaluate the candidate derivative int d f/d alpha dx
   (:func:`deriv_under_integral`);
3. check numerically that the two derivative notions agree
   (:func:`interchange_check`) and that a dominating envelope
   plausibly exists (:func:`domination_scan`);
4. rebuild I(alpha) from a known anchor value by integrating
   dI/d alpha over the parameter (:func:`reconstruct`);
5. compare direct, reconstructed, and closed-form values on a grid
   (:func:`verify`).

Because dI/d alpha never depends on I itself for integrals of this
shape, reconstruction is plain quadrature in the parameter rather than
an ODE time-stepper; integrable endpoint singularities of the
derivative (e.g. a 1/sqrt(alpha) blow-up at the anchor) are routed to
the singular kernel automatically.

All operations are pure: given the same arguments they return
bit-identical results, and nothing here mutates shared state.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union

from .quadrature import (
    DomainSpec,
    EndpointKind,
    QuadConfig,
    QuadResult,
    QuadStatus,
    QuadratureError,
    NonIntegrableSingularityError,
    _STATUS_RANK,
    _Counted,
    _fit_endpoint,
    integrate,
)

__all__ = [
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

_EPS = 2.220446049250313e-16
_FD_SCALE = _EPS ** (1.0 / 3.0)  # ~ 6.06e-6, optimal for central differences
_DEFAULT_CFG = QuadConfig()


class ParameterDomainError(ValueError):
    """A parameter value (or path of values) leaves the valid alpha range."""


class OneSidedDifferenceError(ValueError):
    """Finite differencing was requested at a parameter-domain boundary."""


class DegenerateWindowError(ValueError):
    """A domination window is empty or touches a singular parameter value."""


class MissingAnchorError(ValueError):
    """Reconstruction was requested for an entry that has no anchor."""


@dataclass(frozen=True)
class ParamDomain:
    """Interval of valid parameter values, with open/closed endpoints."""

    lo: float
    hi: float
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("parameter bounds must not be NaN")
        if not self.lo < self.hi:
            raise ValueError(f"parameter domain requires lo < hi, got [{self.lo}, {self.hi}]")

    def contains(self, alpha: float) -> bool:
        if math.isnan(alpha):
            return False
        above = alpha > self.lo if self.lo_open else alpha >= self.lo
        below = alpha < self.hi if self.hi_open else alpha <= self.hi
        return above and below

    def closure_contains(self, alpha: float) -> bool:
        return (not math.isnan(alpha)) and self.lo <= alpha <= self.hi

    def is_interior(self, alpha: float) -> bool:
        return self.lo < alpha < self.hi

    def boundary_distance(self, alpha: float) -> float:
        """Distance to the nearest finite endpoint (inf if none)."""
        d = math.inf
        if math.isfinite(self.lo):
            d = min(d, abs(alpha - self.lo))
        if math.isfinite(self.hi):
            d = min(d, abs(alpha - self.hi))
        return d

    def describe(self) -> str:
        lb = "(" if self.lo_open else "["
        rb = ")" if self.hi_open else "]"
        return f"{lb}{self.lo:g}, {self.hi:g}{rb}"


@dataclass(frozen=True)
class Anchor:
    """A parameter value where the integral is known exactly."""

    alpha0: float
    value0: float


@dataclass(frozen=True)
class ParametricIntegral:
    """A family I(alpha) = int f(x, alpha) dx over a fixed x-interval.

    ``domain`` is either a fixed :class:`DomainSpec` or a rule
    alpha -> DomainSpec.  The rule form exists because the *endpoint
    classification* may change with alpha (an integrand can be smooth
    for most parameters yet endpoint-singular at isolated ones) — the
    interval itself stays fixed.

    ``rhs_closed`` / ``solution_closed`` are optional closed forms for
    dI/d alpha and I; when absent, the engine falls back to quadrature
    of ``d_alpha`` (or a central difference of the integrand).  No field
    says where the rhs blows up: :func:`reconstruct` fits each end of the
    parameter path, the anchor included.
    ``rhs_near(end, d)``, used only alongside ``rhs_closed``, is that rhs
    at alpha = end + d computed from the exact offset d: the tanh-sinh
    kernel samples a singular end of the parameter path through it (see
    :func:`~paramint.quadrature.integrate_singular`).  It is a field of
    its own, not an attribute of ``rhs_closed``, so that wrapping the
    closed rhs (to count its calls, say) keeps it.
    """

    integrand: Callable[[float, float], float]
    param_domain: ParamDomain
    domain: Union[DomainSpec, Callable[[float], DomainSpec]]
    d_alpha: Optional[Callable[[float, float], float]] = None
    anchor: Optional[Anchor] = None
    rhs_closed: Optional[Callable[[float], float]] = None
    solution_closed: Optional[Callable[[float], float]] = None
    rhs_near: Optional[Callable[[float, float], float]] = None

    def __post_init__(self):
        if self.anchor is not None:
            if not self.param_domain.closure_contains(self.anchor.alpha0):
                raise ValueError(
                    f"anchor alpha0={self.anchor.alpha0!r} lies outside the closure "
                    f"of the parameter domain {self.param_domain.describe()}"
                )
            if self.solution_closed is not None:
                drift = abs(self.solution_closed(self.anchor.alpha0) - self.anchor.value0)
                if not drift <= 1e-12:
                    raise ValueError(
                        f"anchor value {self.anchor.value0!r} disagrees with the closed-form "
                        f"solution at alpha0 by {drift:.3e}"
                    )

    def domain_for(self, alpha: float) -> DomainSpec:
        d = self.domain
        return d(alpha) if callable(d) else d


@dataclass(frozen=True)
class InterchangeReport:
    """Outcome of one numeric derivative-integral interchange comparison."""

    alpha: float
    lhs: float  # central difference of the direct integral
    rhs: float  # integral of the alpha-derivative of the integrand
    discrepancy: float
    tolerance_used: float
    passed: bool


class DominationVerdict(enum.Enum):
    DOMINATED = "dominated"
    SUSPECT_DIVERGENT = "suspect_divergent"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class DominationReport:
    """Numeric evidence for (or against) a dominating envelope.

    The envelope is empirical — a max over finitely many alpha samples —
    so a `dominated` verdict is evidence, not proof.
    """

    alpha_window: tuple[float, float]
    envelope_samples: tuple[tuple[float, float], ...]
    envelope_integral_estimate: float  # inf = divergent, nan = inconclusive
    verdict: DominationVerdict


@dataclass(frozen=True)
class VerificationPoint:
    alpha: float
    direct: float
    direct_err_est: float
    reconstructed: Optional[float]
    closed_form: Optional[float]
    disc_direct_closed: Optional[float]
    disc_recon_direct: Optional[float]
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class VerificationReport:
    points: tuple[VerificationPoint, ...]
    tol_direct: float
    tol_reconstruct: float
    passed: bool


# ---------------------------------------------------------------------------
# direct evaluation and the derivative under the integral
# ---------------------------------------------------------------------------

def _require_in_domain(P: ParametricIntegral, alpha: float) -> None:
    if not P.param_domain.contains(alpha):
        raise ParameterDomainError(
            f"alpha={alpha!r} outside the valid parameter domain "
            f"{P.param_domain.describe()}"
        )


def eval_direct(
    P: ParametricIntegral, alpha: float, cfg: QuadConfig | None = None
) -> QuadResult:
    """Quadrature of f(., alpha) over the x-domain, dispatched on endpoint kinds."""
    _require_in_domain(P, alpha)
    f = P.integrand
    return integrate(lambda x: f(x, alpha), P.domain_for(alpha), cfg)


def _fd_step(P: ParametricIntegral, alpha: float) -> float:
    h = _FD_SCALE * max(1.0, abs(alpha))
    room = P.param_domain.boundary_distance(alpha)  # alpha is interior
    if room < h:
        h = 0.5 * room
    if h <= 0.0 or alpha + h == alpha:
        raise OneSidedDifferenceError(
            f"no room for a central difference in alpha at alpha={alpha!r}; "
            "provide an analytic d_alpha"
        )
    return h


def _partial_alpha(
    P: ParametricIntegral, alpha: float
) -> Callable[[float], float]:
    """Pointwise d f/d alpha at fixed alpha: analytic rule or central difference."""
    if P.d_alpha is not None:
        da = P.d_alpha
        return lambda x: da(x, alpha)
    if not P.param_domain.is_interior(alpha):
        raise OneSidedDifferenceError(
            f"alpha={alpha!r} is on the parameter-domain boundary and the entry "
            "has no analytic d_alpha; central differencing would step outside"
        )
    h = _fd_step(P, alpha)
    f = P.integrand
    return lambda x: (f(x, alpha + h) - f(x, alpha - h)) / (2.0 * h)


def deriv_under_integral(
    P: ParametricIntegral, alpha: float, cfg: QuadConfig | None = None
) -> QuadResult:
    """Quadrature of d f/d alpha (., alpha) over the same x-domain."""
    if not P.param_domain.closure_contains(alpha):
        raise ParameterDomainError(
            f"alpha={alpha!r} outside the closure of the parameter domain "
            f"{P.param_domain.describe()}"
        )
    g = _partial_alpha(P, alpha)
    return integrate(g, P.domain_for(alpha), cfg)


# ---------------------------------------------------------------------------
# interchange check
# ---------------------------------------------------------------------------

# interchange_check's central-difference step in alpha, and its gate
# before the difference's own bias is allowed for
_INTERCHANGE_STEP = 1e-4
_INTERCHANGE_TOL = 1e-5


def interchange_check(
    P: ParametricIntegral, alpha: float, cfg: QuadConfig | None = None
) -> InterchangeReport:
    """Compare d/d alpha of the integral against the integral of d f/d alpha.

    lhs is a central difference of eval_direct across a step of 1e-4; rhs
    is deriv_under_integral.  The pass threshold is 1e-5 plus an allowance
    for the central difference's own O(h^2) bias, scaled from the measured
    second difference at alpha (a third direct evaluation): near a
    parameter-domain edge the solution's higher derivatives grow like
    inverse powers of the distance to the edge, so the curvature is
    divided by that distance before multiplying by h^2.
    """
    h = _INTERCHANGE_STEP
    for a in (alpha - h, alpha + h):
        if not P.param_domain.contains(a):
            raise ParameterDomainError(
                f"alpha +/- 1e-4 = {a!r} leaves the parameter domain "
                f"{P.param_domain.describe()}"
            )
    hi = eval_direct(P, alpha + h, cfg)
    lo = eval_direct(P, alpha - h, cfg)
    at = eval_direct(P, alpha, cfg)
    lhs = (hi.value - lo.value) / (2.0 * h)
    rhs_res = deriv_under_integral(P, alpha, cfg)
    rhs = rhs_res.value
    discrepancy = abs(lhs - rhs)

    curvature = abs(hi.value - 2.0 * at.value + lo.value) / (h * h)
    dist = P.param_domain.boundary_distance(alpha)
    allowance = h * h * curvature / max(dist, 2.0 * h)
    tolerance_used = _INTERCHANGE_TOL + allowance
    return InterchangeReport(
        alpha=alpha,
        lhs=lhs,
        rhs=rhs,
        discrepancy=discrepancy,
        tolerance_used=tolerance_used,
        passed=discrepancy <= tolerance_used,
    )


# ---------------------------------------------------------------------------
# domination scan
# ---------------------------------------------------------------------------

# Fixed sampling plan of domination_scan: alphas across the window,
# midpoints over the finite part, and the finite part's width on infinite
# domains; beyond it the tail is fitted in t = 1/x.
_SCAN_N_ALPHA = 9
_SCAN_N_POINTS = 257
_SCAN_SPAN = 32.0


def _envelope_at(
    pa_rules: Sequence[Callable[[float], float]], x: float
) -> float:
    m = 0.0
    for pa in pa_rules:
        try:
            v = abs(pa(x))
        except (ZeroDivisionError, ValueError, OverflowError) as exc:
            raise DegenerateWindowError(
                f"derivative sample failed at x={x!r}: the window touches a "
                f"singular parameter value ({exc})"
            ) from exc
        if not math.isfinite(v):
            raise DegenerateWindowError(
                f"derivative sample non-finite at x={x!r}: the window touches "
                "a singular parameter value"
            )
        m = max(m, v)
    return m


def domination_scan(
    P: ParametricIntegral, alpha_window: tuple[float, float]
) -> DominationReport:
    """Build an empirical envelope max_alpha |d f/d alpha| and size it up.

    Finite domains: midpoint-rule estimate of the envelope integral,
    verdict `dominated` (after checking the envelope does not blow up
    non-integrably at an endpoint).  Infinite domains: finite part plus
    the kernels' endpoint fit of each tail in t = 1/x, where the envelope
    beyond x = base becomes env(1/t)/t**2 on (0, 1/base] — decay faster
    than 1/x gives `dominated` and the fitted mass C * base**-(1+p)/(1+p),
    slower gives `suspect_divergent` (estimate = inf), the ambiguous band
    in between gives `inconclusive` (estimate = nan).
    """
    lo_a, hi_a = alpha_window
    if not (math.isfinite(lo_a) and math.isfinite(hi_a) and lo_a < hi_a):
        raise DegenerateWindowError(
            f"alpha window [{lo_a!r}, {hi_a!r}] is empty or unbounded"
        )
    if not (P.param_domain.closure_contains(lo_a) and P.param_domain.closure_contains(hi_a)):
        raise ParameterDomainError(
            f"alpha window [{lo_a!r}, {hi_a!r}] is not contained in the "
            f"parameter domain {P.param_domain.describe()}"
        )

    alphas = [
        lo_a + (hi_a - lo_a) * i / (_SCAN_N_ALPHA - 1) for i in range(_SCAN_N_ALPHA)
    ]
    pa_rules = [_partial_alpha(P, a) for a in alphas]
    dom = P.domain_for(0.5 * (lo_a + hi_a))

    a, a_kind = dom.lower, dom.lower_kind
    lo_inf = a_kind is EndpointKind.INFINITE
    hi_inf = dom.upper_kind is EndpointKind.INFINITE
    sgn = 1.0  # declared x = sgn * scan-frame x
    if lo_inf and not hi_inf:
        # scan x -> -x so the infinite side is always on the right; samples
        # and messages are mapped back into the declared frame
        sgn = -1.0
        a, a_kind = -dom.upper, dom.upper_kind
        lo_inf, hi_inf = False, True
    if lo_inf:
        a = -0.5 * _SCAN_SPAN  # doubly infinite: the finite part is centred on 0
    width = _SCAN_SPAN if hi_inf else dom.upper - a
    step = width / _SCAN_N_POINTS
    xs = [sgn * (a + (i + 0.5) * step) for i in range(_SCAN_N_POINTS)]
    samples = [(x, _envelope_at(pa_rules, x)) for x in xs]
    finite_part = step * math.fsum(m for _, m in samples)

    def check_growth(endpoint: float, into: float) -> None:
        """Refuse the window if the envelope is non-integrable at ``endpoint``."""
        try:
            _fit_endpoint(lambda x: _envelope_at(pa_rules, x), endpoint, into, width)
        except NonIntegrableSingularityError as exc:
            raise DegenerateWindowError(
                f"envelope grows non-integrably toward x={endpoint!r} "
                f"(local exponent {exc.exponent:.3f}); the window touches a "
                "singular parameter value"
            ) from exc

    if not hi_inf:
        check_growth(a, dom.upper)
        check_growth(dom.upper, a)
        estimate, verdict = finite_part, DominationVerdict.DOMINATED
    else:
        x0 = a + width
        if a_kind is EndpointKind.INTEGRABLE_SINGULARITY:
            check_growth(sgn * a, sgn * x0)
        base = max(x0, 1.0)

        def tail(side: float) -> tuple[float, float]:
            """The tail's fitted exponent in t (the refusal's, if any) and mass."""
            def g(t: float) -> float:
                x = side / t
                m = _envelope_at(pa_rules, x)
                samples.append((x, m))
                return m / t / t  # t * t is 0.0 at the last rung once base > 6e149

            try:
                p, c = _fit_endpoint(g, 0.0, 1.0, 1.0 / base)
            except NonIntegrableSingularityError as exc:
                return exc.exponent, math.inf
            return p, c * base ** -(1.0 + p) / (1.0 + p)

        tails = [tail(side) for side in ((sgn, -sgn) if lo_inf else (sgn,))]
        # the slowest tail decides; within 0.05 of p = -1 (1/x decay) is too
        # close to call
        p = min(p for p, _ in tails)
        if p <= -1.05:
            estimate, verdict = math.inf, DominationVerdict.SUSPECT_DIVERGENT
        elif p < -0.95:
            estimate, verdict = math.nan, DominationVerdict.INCONCLUSIVE
        else:
            estimate = finite_part + sum(mass for _, mass in tails)
            verdict = DominationVerdict.DOMINATED

    return DominationReport(
        alpha_window=(lo_a, hi_a),
        envelope_samples=tuple(samples),
        envelope_integral_estimate=estimate,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# reconstruction from the anchor
# ---------------------------------------------------------------------------

_ALPHA_TOL_FLOOR = 2e-8  # parameter-quadrature tolerance when g is itself numeric
_ALPHA_MAX_SUBDIV = 240
_DERIV_TOL_FLOOR = 1e-9  # per-node tolerance for numeric dI/d alpha
# A tanh-sinh alpha-node of weight W runs its inner quadrature at abs_tol
# theta/W when that is looser, theta = _NODE_ERR_SHARE * (hi - lo), so its
# weighted tolerance is theta: about 2**-31 of the path's node-noise
# allowance at the default tolerances, small enough that no catalog value
# moves by a bit.
_NODE_ERR_SHARE = 2.0 ** -60
# An end of the parameter path goes to the singular kernel when the rhs
# fits a growth exponent at or below this.  The fit uses 3 rungs: deeper
# rungs of a numeric rhs read inner-quadrature noise as growth.
_ROUTE_EXPONENT = -0.05


class _NestedRhs:
    """dI/d alpha = deriv_under_integral(P, alpha) on a parameter path of
    this length, and the account of its inner quadratures: ``n_evals`` (one
    that raises reports none), the worst ``status``, and ``extra_est``, the
    flat share 2 * length * node tolerance plus W * estimate of every node
    that ``weighted`` ran looser.  The node tolerance ``cfg`` is the
    caller's, floored at _DERIV_TOL_FLOOR.  With ``strict``, a sample that
    is not converged raises QuadratureError once it is counted.
    """

    def __init__(self, P: ParametricIntegral, cfg: QuadConfig, length: float, strict=False):
        self.P = P
        self.cfg = replace(
            cfg,
            abs_tol=max(cfg.abs_tol, _DERIV_TOL_FLOOR),
            rel_tol=max(cfg.rel_tol, _DERIV_TOL_FLOOR),
        )
        self.theta = _NODE_ERR_SHARE * length
        self.strict = strict
        self.n_evals = 0
        self.status = QuadStatus.CONVERGED
        self.extra_est = 2.0 * length * self.cfg.abs_tol

    def sample(self, a: float, cfg: QuadConfig | None = None) -> QuadResult:
        """dI/d alpha at a, at ``cfg`` or else the node tolerance."""
        res = deriv_under_integral(self.P, a, cfg or self.cfg)
        self.n_evals += res.n_evals
        self.status = max(self.status, res.status, key=_STATUS_RANK.get)
        if self.strict and res.status is not QuadStatus.CONVERGED:
            raise QuadratureError(f"dI/d alpha at alpha={a!r} is {res.status.value}")
        return res

    def __call__(self, a: float) -> float:
        return self.sample(a).value

    def weighted(self, a: float, w: float) -> float:
        """dI/d alpha at a tanh-sinh node of weight w: a looser inner
        tolerance, whose weighted error joins the estimate."""
        tol = self.theta / w  # < 1e287: w > 1e-305 * length on every node
        if tol <= self.cfg.abs_tol:
            return self(a)
        res = self.sample(a, replace(self.cfg, abs_tol=tol))
        self.extra_est += w * res.abs_err_est
        return res.value


def _singular_end(
    g: Callable[[float], float], end: float, into: float, length: float
) -> bool:
    """Whether an end of a parameter path of this length goes to the
    singular kernel: the 3-rung fit of the rhs g there reads an exponent
    <= _ROUTE_EXPONENT, or meets a failing sample or a non-integrable fit."""
    try:
        p, _ = _fit_endpoint(g, end, into, length, rungs=3)
    except QuadratureError:
        return True
    return p <= _ROUTE_EXPONENT


def reconstruct(
    P: ParametricIntegral, alpha_target: float, cfg: QuadConfig | None = None
) -> QuadResult:
    """value0 + int_{alpha0}^{alpha_target} dI/d alpha, as plain quadrature.

    The right-hand side is the closed form when the entry carries one,
    otherwise deriv_under_integral evaluated pointwise (with slightly
    relaxed tolerances so its noise floor stays below the parameter
    integral's).  Each end of the parameter path, the anchor included, is
    routed by a 3-rung endpoint fit of the rhs alone: an end whose fit
    reads an exponent <= -0.05 or meets a failing sample is an integrable
    blow-up, and switches the parameter integral to the singular kernel.

    A numeric rhs opts in to the singular kernel's node weights (the
    ``weighted`` form of :func:`~paramint.quadrature.integrate_singular`):
    an alpha-node of weight W runs its inner quadrature at abs_tol
    max(node tolerance, theta/W), theta = 2**-60 * (path length), so the
    nodes next to a singular anchor, which weigh almost nothing, stop
    early.  Gauss-Kronrod nodes, the growth probes and the kernel's own
    endpoint fits run at the node tolerance.  The estimate is the
    parameter quadrature's, plus 2 * (path length) * node tolerance for
    the inner noise, plus W * estimate of every node that ran looser; the
    status is the worst of the parameter quadrature's and of every inner
    quadrature's, probes included, so an inner failure is never hidden.

    ``n_evals`` counts every evaluation the call causes, the growth
    probes included: closed-form rhs calls, or the summed ``n_evals`` of
    the inner quadratures behind a numeric rhs (an inner quadrature that
    raises inside a probe reports no count, so its evaluations are left
    out).
    """
    cfg = cfg or _DEFAULT_CFG
    if P.anchor is None:
        raise MissingAnchorError(
            "entry has no anchor value; reconstruction needs a known I(alpha0)"
        )
    a0, v0 = P.anchor.alpha0, P.anchor.value0
    lo, hi = (a0, alpha_target) if a0 <= alpha_target else (alpha_target, a0)
    pd = P.param_domain
    if not (pd.closure_contains(lo) and pd.closure_contains(hi)):
        raise ParameterDomainError(
            f"reconstruction path [{lo!r}, {hi!r}] leaves the closure of the "
            f"parameter domain {pd.describe()}"
        )
    if alpha_target == a0:
        return QuadResult(v0, 0.0, 0, QuadStatus.CONVERGED)

    if P.rhs_closed is not None:
        g = P.rhs_closed
        if P.rhs_near is not None:
            # a copy of the closed rhs that carries its offset form as
            # ``near``, the kernels' contract
            g = functools.partial(g)
            g.near = P.rhs_near
        g_cfg = cfg
    else:
        g = _NestedRhs(P, cfg, hi - lo)
        g_cfg = replace(
            cfg,
            abs_tol=max(cfg.abs_tol, _ALPHA_TOL_FLOOR),
            rel_tol=max(cfg.rel_tol, _ALPHA_TOL_FLOOR),
            max_subdivisions=min(cfg.max_subdivisions, _ALPHA_MAX_SUBDIV),
        )

    probe = _Counted(g)  # counts the rhs calls of the growth probes
    anchor_side_lo = a0 <= alpha_target
    sing_lo = _singular_end(probe, lo, hi, hi - lo)
    sing_hi = _singular_end(probe, hi, lo, hi - lo)
    if sing_lo or sing_hi:
        dom = DomainSpec.singular(lo, hi, at_lower=sing_lo, at_upper=sing_hi)
    else:
        dom = DomainSpec.finite(lo, hi)

    q = integrate(g, dom, g_cfg)
    value = v0 + (q.value if anchor_side_lo else -q.value)
    if P.rhs_closed is not None:
        # one evaluation per call of a closed rhs
        return QuadResult(value, q.abs_err_est, q.n_evals + probe.n, q.status)
    status = max(q.status, g.status, key=_STATUS_RANK.get)
    return QuadResult(value, q.abs_err_est + g.extra_est, g.n_evals, status)


# ---------------------------------------------------------------------------
# grid verification
# ---------------------------------------------------------------------------

# Chebyshev levels of verify's grid interpolant, nested: a doubling reuses every sample
_CHEB_LEVELS = (8, 16, 32, 64)


def _grid_reconstruct(
    P: ParametricIntegral, alphas: Sequence[float], cfg: QuadConfig
) -> Optional[dict[float, QuadResult]]:
    """reconstruct at every grid alpha from one interpolant of a numeric rhs.

    Both ends of the hull [lo, hi] of the anchor and the grid are routed
    once, as reconstruct routes its path's ends (at its node tolerance: the
    fit reads an exponent, and a tight tolerance only makes it dear).
    g = dI/d alpha, at abs_tol = rel_tol = cfg.abs_tol / (4 (hi - lo)), is
    sampled at c + h cos(j pi/n), j = 1 .. n-1 (not at an end, where the
    interchange may fail), n doubling from 8 until the top quarter of the
    b_k in p(cos th) sin th = sum b_k sin k th is within the noise of the
    samples: their largest estimate, or the rounding of the sum when that
    is larger.  I = v0 + h sum b_k d_k, d_k = (T_k(t) - T_k(t0))/k, with
    estimate sum |W_j| est_j over its sample weights, plus h sum 2 |b_k|/k
    over that quarter, plus h sum |d_k| times the rounding of each b_k.

    None, for reconstruct to take each point alone: when the grid has fewer
    than two points off the anchor (no sample to share), on a singular end,
    a failed sample, or when the series cannot chop by n = 64 (it has not,
    and the decay of its b_k from the second to the top quarter, carried
    on geometrically, does not reach the noise by then).
    """
    pd = P.param_domain
    if P.anchor is None or P.rhs_closed is not None:
        return None
    if not all(pd.closure_contains(a) for a in alphas):
        return None
    a0, v0 = P.anchor.alpha0, P.anchor.value0
    if len(set(alphas) - {a0}) < 2:
        return None
    lo, hi = min(a0, *alphas), max(a0, *alphas)
    h = 0.5 * (hi - lo)
    top = _CHEB_LEVELS[-1]
    xs = [lo + h + h * math.cos(math.pi * j / top) for j in range(top + 1)]
    tau = 0.25 * cfg.abs_tol / (hi - lo)
    if not (h < math.inf and tau > 0.0 and lo < xs[-2] and xs[1] < hi):
        return None
    node_cfg = replace(cfg, abs_tol=tau, rel_tol=tau)
    g = _NestedRhs(P, cfg, hi - lo, strict=True)  # probes run at its node tolerance
    got: dict[int, QuadResult] = {}  # converged samples, by their index into xs
    try:
        if _singular_end(g, lo, hi, hi - lo) or _singular_end(g, hi, lo, hi - lo):
            return None
        for n in _CHEB_LEVELS:
            step = top // n
            for j in range(step, top, step):
                if j not in got:
                    got[j] = g.sample(xs[j], node_cfg)
            samples = [got[j * step] for j in range(1, n)]
            sn = [math.sin(math.pi * m / n) for m in range(2 * n)]  # sin(m th_1)
            b = []
            for k in range(1, n):
                terms = (r.value * sn[j] * sn[j * k % (2 * n)] for j, r in enumerate(samples, 1))
                b.append(2.0 / n * math.fsum(terms))
            rounding = n * _EPS * max(abs(r.value) for r in samples)  # of each b_k
            noise = max(max(r.abs_err_est for r in samples), rounding)
            quarter = range(n - n // 4, n)
            top_b = max(abs(b[k - 1]) for k in quarter)
            if top_b <= noise:
                break
            second_b = max(abs(b[k - 1]) for k in range(n // 4, n // 2))
            if second_b <= top_b:
                return None
            # n/2 indices from the second quarter to the top one; 3 (top - n)/4
            # more to the top quarter at n = top
            if top_b * (top_b / second_b) ** (1.5 * (top - n) / n) > noise:
                return None
    except (QuadratureError, ValueError):
        return None

    def theta(a: float) -> float:
        # t = cos th on [-1, 1], so that T_k(t) = cos k th
        return math.acos(max(-1.0, min(1.0, (a - lo - h) / h)))

    th0 = theta(a0)
    chop = h * math.fsum(2.0 * abs(b[k - 1]) / k for k in quarter)
    out = {a0: QuadResult(v0, 0.0, 0, QuadStatus.CONVERGED)}
    for a in set(alphas) - {a0}:
        th = theta(a)
        d = [(math.cos(k * th) - math.cos(k * th0)) / k for k in range(1, n)]
        value = v0 + h * math.fsum(bk * dk for bk, dk in zip(b, d))
        # the weight of sample j in this value, for its share of the estimate
        weighted = []
        for j, r in enumerate(samples, 1):
            terms = (sn[j * k % (2 * n)] * dk for k, dk in enumerate(d, 1))
            w = 2.0 * h / n * sn[j] * math.fsum(terms)
            weighted.append(abs(w) * r.abs_err_est)
        est = math.fsum(weighted) + chop + h * rounding * math.fsum(map(abs, d))
        out[a] = QuadResult(value, est, g.n_evals, QuadStatus.CONVERGED)
    return out


def verify(
    P: ParametricIntegral,
    alphas: Sequence[float],
    tol_direct: float = 1e-7,
    tol_reconstruct: float = 1e-6,
    cfg: QuadConfig | None = None,
) -> VerificationReport:
    """Compare direct quadrature, reconstruction, and closed form per alpha.

    Failures at a point (numeric errors included) are recorded on that
    point rather than raised, so one bad grid value cannot hide the rest;
    each failure note ends with the exception's class name in brackets.
    """
    if not alphas:
        raise ValueError("verification grid must be nonempty")
    grid = _grid_reconstruct(P, alphas, cfg or _DEFAULT_CFG)
    points: list[VerificationPoint] = []
    for alpha in alphas:
        notes: list[str] = []
        direct = math.nan
        direct_err = math.nan
        ok = True
        try:
            res = eval_direct(P, alpha, cfg)
            direct, direct_err = res.value, res.abs_err_est
        except (QuadratureError, ValueError) as exc:
            notes.append(f"direct evaluation failed: {exc} [{type(exc).__name__}]")
            ok = False

        closed: Optional[float] = None
        if P.solution_closed is not None:
            try:
                closed = P.solution_closed(alpha)
            except (ArithmeticError, ValueError) as exc:
                notes.append(f"closed form undefined here: {exc}")

        recon: Optional[float] = None
        if P.anchor is not None:
            try:
                recon = (grid[alpha] if grid else reconstruct(P, alpha, cfg)).value
            except (QuadratureError, ValueError) as exc:
                notes.append(f"reconstruction failed: {exc} [{type(exc).__name__}]")
                ok = False

        disc_dc = abs(direct - closed) if closed is not None and ok else None
        disc_rd = abs(recon - direct) if recon is not None and ok else None
        passed = ok
        if disc_dc is not None and not disc_dc <= tol_direct:
            passed = False
        if disc_rd is not None and not disc_rd <= tol_reconstruct:
            passed = False
        points.append(
            VerificationPoint(
                alpha=alpha,
                direct=direct,
                direct_err_est=direct_err,
                reconstructed=recon,
                closed_form=closed,
                disc_direct_closed=disc_dc,
                disc_recon_direct=disc_rd,
                passed=passed,
                note="; ".join(notes),
            )
        )
    return VerificationReport(
        points=tuple(points),
        tol_direct=tol_direct,
        tol_reconstruct=tol_reconstruct,
        passed=all(p.passed for p in points),
    )
