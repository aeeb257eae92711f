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
from statistics import median
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

def interchange_check(
    P: ParametricIntegral,
    alpha: float,
    fd_step: float = 1e-4,
    tol: float = 1e-5,
    cfg: QuadConfig | None = None,
) -> InterchangeReport:
    """Compare d/d alpha of the integral against the integral of d f/d alpha.

    lhs is a central difference of eval_direct across ``fd_step``; rhs is
    deriv_under_integral.  The pass threshold is ``tol`` plus an allowance
    for the central difference's own O(h^2) bias, scaled from the measured
    second difference at alpha (a third direct evaluation): near a
    parameter-domain edge the solution's higher derivatives grow like
    inverse powers of the distance to the edge, so the curvature is
    divided by that distance before multiplying by h^2.
    """
    if not (fd_step > 0 and math.isfinite(fd_step)):
        raise ValueError("fd_step must be finite and positive")
    for a in (alpha - fd_step, alpha + fd_step):
        if not P.param_domain.contains(a):
            raise ParameterDomainError(
                f"alpha +/- fd_step = {a!r} leaves the parameter domain "
                f"{P.param_domain.describe()}"
            )
    hi = eval_direct(P, alpha + fd_step, cfg)
    lo = eval_direct(P, alpha - fd_step, cfg)
    at = eval_direct(P, alpha, cfg)
    lhs = (hi.value - lo.value) / (2.0 * fd_step)
    rhs_res = deriv_under_integral(P, alpha, cfg)
    rhs = rhs_res.value
    discrepancy = abs(lhs - rhs)

    curvature = abs(hi.value - 2.0 * at.value + lo.value) / (fd_step * fd_step)
    dist = P.param_domain.boundary_distance(alpha)
    allowance = fd_step * fd_step * curvature / max(dist, 2.0 * fd_step)
    tolerance_used = tol + allowance
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
# midpoints over the finite part, the finite part's width on infinite
# domains, and octave-spaced tail probes beyond it for the slope fit.
_SCAN_N_ALPHA = 9
_SCAN_N_POINTS = 257
_SCAN_SPAN = 32.0
_SCAN_TAIL_OCTAVES = 18
_TAIL_PROBE_FACTORS = (1.0, 1.37, 1.73)


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


def _size_tail(
    tail_env: list[float], base: float, finite_part: float, sides: float
) -> tuple[float, DominationVerdict]:
    """Envelope-integral estimate and verdict from the octave tail samples."""
    if all(v == 0.0 for v in tail_env):
        return finite_part, DominationVerdict.DOMINATED
    slopes = [
        math.log2(hi_v / lo_v) if lo_v > 0.0 and hi_v > 0.0 else -math.inf
        for lo_v, hi_v in zip(tail_env, tail_env[1:])
        if lo_v > 0.0
    ]
    if not slopes:
        return math.nan, DominationVerdict.INCONCLUSIVE
    s = median(slopes[-6:])
    if s <= -1.05:
        tail = 0.0 if math.isinf(s) else base * tail_env[0] / (-s - 1.0)
        return finite_part + sides * tail, DominationVerdict.DOMINATED
    if s >= -0.95:
        return math.inf, DominationVerdict.SUSPECT_DIVERGENT
    return math.nan, DominationVerdict.INCONCLUSIVE


def domination_scan(
    P: ParametricIntegral, alpha_window: tuple[float, float]
) -> DominationReport:
    """Build an empirical envelope max_alpha |d f/d alpha| and size it up.

    Finite domains: midpoint-rule estimate of the envelope integral,
    verdict `dominated` (after checking the envelope does not blow up
    non-integrably at an endpoint).  Infinite domains: finite part plus
    an octave-slope fit of the tail — decay faster than 1/x gives
    `dominated`, slower gives `suspect_divergent` (estimate = inf),
    the ambiguous band in between gives `inconclusive` (estimate = nan).
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
        tail_env: list[float] = []
        for k in range(_SCAN_TAIL_OCTAVES):
            xk = base * 2.0 ** k
            best = 0.0
            for fac in _TAIL_PROBE_FACTORS:
                x = sgn * xk * fac
                m = _envelope_at(pa_rules, x)
                samples.append((x, m))
                if lo_inf:
                    m_left = _envelope_at(pa_rules, -x)
                    samples.append((-x, m_left))
                    m = max(m, m_left)
                best = max(best, m)
            tail_env.append(best)
        estimate, verdict = _size_tail(
            tail_env, base, finite_part, 2.0 if lo_inf else 1.0
        )

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

    extra_est = 0.0
    inner_evals = 0  # integrand evaluations behind a numeric rhs
    inner_status = QuadStatus.CONVERGED  # the worst of them
    if P.rhs_closed is not None:
        g = P.rhs_closed
        if P.rhs_near is not None:
            # a copy of the closed rhs that carries its offset form as
            # ``near``, the kernels' contract
            g = functools.partial(g)
            g.near = P.rhs_near
        g_cfg = cfg
    else:
        node_cfg = replace(
            cfg,
            abs_tol=max(cfg.abs_tol, _DERIV_TOL_FLOOR),
            rel_tol=max(cfg.rel_tol, _DERIV_TOL_FLOOR),
        )

        def inner(a: float, node: QuadConfig) -> QuadResult:
            nonlocal inner_evals, inner_status
            res = deriv_under_integral(P, a, node)
            inner_evals += res.n_evals
            inner_status = max(inner_status, res.status, key=_STATUS_RANK.get)
            return res

        def g(a: float) -> float:
            return inner(a, node_cfg).value

        theta = _NODE_ERR_SHARE * (hi - lo)

        def weighted(a: float, w: float) -> float:
            # dI/d alpha at a tanh-sinh node of weight w: a looser inner
            # tolerance, whose weighted error joins the estimate
            nonlocal extra_est
            tol = theta / w  # < 1e287: w > 1e-305 * (hi - lo) on every node
            if tol <= node_cfg.abs_tol:
                return g(a)
            res = inner(a, replace(node_cfg, abs_tol=tol))
            extra_est += w * res.abs_err_est
            return res.value

        g.weighted = weighted
        g_cfg = replace(
            cfg,
            abs_tol=max(cfg.abs_tol, _ALPHA_TOL_FLOOR),
            rel_tol=max(cfg.rel_tol, _ALPHA_TOL_FLOOR),
            max_subdivisions=min(cfg.max_subdivisions, _ALPHA_MAX_SUBDIV),
        )
        # per-node noise accumulated over the path, counted into the estimate
        # (a node that ran looser adds its own weighted estimate on top)
        extra_est = 2.0 * (hi - lo) * node_cfg.abs_tol

    probe = _Counted(g)  # counts the rhs calls of the growth probes

    def singular_at(end: float, into: float) -> bool:
        try:
            p, _ = _fit_endpoint(probe, end, into, hi - lo, rungs=3)
        except QuadratureError:  # a failing sample, or a non-integrable fit
            return True
        return p <= _ROUTE_EXPONENT

    anchor_side_lo = a0 <= alpha_target
    sing_lo, sing_hi = singular_at(lo, hi), singular_at(hi, lo)
    if sing_lo or sing_hi:
        dom = DomainSpec.singular(lo, hi, at_lower=sing_lo, at_upper=sing_hi)
    else:
        dom = DomainSpec.finite(lo, hi)

    q = integrate(g, dom, g_cfg)
    signed = q.value if anchor_side_lo else -q.value
    # every evaluation this call caused: one per call of a closed rhs, the
    # inner kernels' own counts behind a numeric one
    n_evals = q.n_evals + probe.n if P.rhs_closed is not None else inner_evals
    status = max(q.status, inner_status, key=_STATUS_RANK.get)
    return QuadResult(v0 + signed, q.abs_err_est + extra_est, n_evals, status)


# ---------------------------------------------------------------------------
# grid verification
# ---------------------------------------------------------------------------

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
                recon = reconstruct(P, alpha, cfg).value
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
