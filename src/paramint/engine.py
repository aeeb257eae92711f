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
the singular kernel, or removed by alpha = end + s*s, automatically.

All operations are pure: given the same arguments they return
bit-identical results, and nothing here mutates shared state.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .quadrature import (
    DomainSpec,
    EndpointKind,
    QuadConfig,
    QuadResult,
    QuadStatus,
    QuadratureError,
    EvaluationError,
    NonIntegrableSingularityError,
    _DEFAULT_CFG,
    _EPS,
    _STATUS_RANK,
    _Counted,
    _fit_endpoint,
    _scaled,
    _status,
    _tol_for,
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

class ParameterDomainError(ValueError):
    """A parameter value (or path of values) leaves the valid alpha range."""


class OneSidedDifferenceError(ValueError):
    """interchange_check's central difference in alpha has no room:
    alpha +/- the step rounds onto alpha."""


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
        ends = (e for e in (self.lo, self.hi) if math.isfinite(e))
        return min((abs(alpha - e) for e in ends), default=math.inf)

    def describe(self) -> str:
        """The interval as text, ends at 12 significant digits; an infinite end
        is never attained, so it closes with ( or )."""
        lb = "(" if self.lo_open or math.isinf(self.lo) else "["
        rb = ")" if self.hi_open or math.isinf(self.hi) else "]"
        return f"{lb}{self.lo:.12g}, {self.hi:.12g}{rb}"

    def require(
        self, *alphas: float, closure: bool = False, name: str = "parameter domain"
    ) -> None:
        """Raise ParameterDomainError at the first of ``alphas`` outside this
        domain, called ``name`` in the message, or with ``closure``, outside
        its closure."""
        inside = self.closure_contains if closure else self.contains
        for alpha in alphas:
            if not inside(alpha):
                where = "the closure of the" if closure else "the valid"
                raise ParameterDomainError(
                    f"alpha={alpha!r} outside {where} {name} {self.describe()}"
                )


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
    of ``d_alpha``, the engine's only source of d f/d alpha: an operation
    that needs it refuses a family without it (ValueError) before calling
    the integrand.  No field
    says where the rhs blows up: :func:`reconstruct` fits the ends of the
    parameter path, the anchor included, where it needs to know.
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
    """One derivative-integral interchange comparison, and the gate its verdict needed."""

    alpha: float
    lhs: float  # difference quotient of the integral across the step
    rhs: float  # integral of the alpha-derivative of the integrand
    discrepancy: float
    tolerance_used: float  # 1e-5, plus the curvature allowance only past 1e-5
    passed: bool  # discrepancy plus both sides' estimates within tolerance_used


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

def eval_direct(
    P: ParametricIntegral, alpha: float, cfg: QuadConfig | None = None
) -> QuadResult:
    """Quadrature of f(., alpha) over the x-domain, dispatched on endpoint kinds."""
    P.param_domain.require(alpha)
    f = P.integrand
    return integrate(lambda x: f(x, alpha), P.domain_for(alpha), cfg)


def _d_alpha(P: ParametricIntegral) -> Callable[[float, float], float]:
    """The family's d f/d alpha (x, alpha); a family without one raises
    ValueError: the engine takes no derivative of its own."""
    if P.d_alpha is None:
        raise ValueError("the family has no d_alpha, the d f/d alpha this operation integrates")
    return P.d_alpha


def deriv_under_integral(
    P: ParametricIntegral, alpha: float, cfg: QuadConfig | None = None
) -> QuadResult:
    """Quadrature of d f/d alpha (., alpha) over the same x-domain."""
    P.param_domain.require(alpha, closure=True)
    da = _d_alpha(P)
    return integrate(lambda x: da(x, alpha), P.domain_for(alpha), cfg)


# ---------------------------------------------------------------------------
# interchange check
# ---------------------------------------------------------------------------

# interchange_check's central-difference step in alpha, and its gate
# before the difference's own bias is allowed for
_INTERCHANGE_STEP = 1e-4
_INTERCHANGE_TOL = 1e-5


def _combined(terms: Sequence[tuple[float, QuadResult]], scale: float) -> QuadResult:
    """The sum of c * r over (c, r) in ``terms`` over ``scale``, estimates alike."""
    return QuadResult(sum(c * r.value for c, r in terms) / scale,
                      sum(abs(c) * r.abs_err_est for c, r in terms) / scale,
                      sum(r.n_evals for _, r in terms),
                      max((r.status for _, r in terms), key=_STATUS_RANK.get))


def interchange_check(
    P: ParametricIntegral, alpha: float, cfg: QuadConfig | None = None
) -> InterchangeReport:
    """Compare d/d alpha of the integral against the integral of d f/d alpha.

    rhs is deriv_under_integral; lhs is the integral's difference quotient
    across a step of 1e-4, divided by the step as represented, (alpha + h) -
    (alpha - h); an alpha where alpha +/- 1e-4 rounds onto alpha raises
    OneSidedDifferenceError first.  While the x-domain's bounds hold still,
    lhs is rhs plus one quadrature of the gap, f's central difference less
    d f/d alpha, over the domain at alpha, value and estimate alike, at a
    tenth of the tolerance in at most two thirds of the panels rhs
    evaluated: one needing more resolves, and charges, its own rounding,
    eps |f| / step a node.  Where a bound moves, lhs differences two direct
    quadratures, which keep the moving ends' terms that rhs lacks.  The
    check passes when the discrepancy plus both estimates is within the
    gate, 1e-5, converged or not.  Only past it does the check pay for the
    curvature, the integral's second difference over h^2 (in rhs's panels,
    or by a third direct quadrature), whose least value within its estimate
    sizes an allowance for the central difference's own O(h^2) bias.  Near a
    parameter-domain edge the solution's higher derivatives grow like
    inverse powers of the distance to the edge, so the curvature is divided
    by that distance before multiplying by h^2.
    """
    h = _INTERCHANGE_STEP
    P.param_domain.require(alpha - h, alpha + h)
    f, up, down, dom = P.integrand, alpha + h, alpha - h, P.domain_for(alpha)
    if not down < alpha < up:
        raise OneSidedDifferenceError(f"no room for a central difference in alpha at "
                                      f"alpha={alpha!r}; a step of {h!r} rounds away")
    step = up - down
    rhs = deriv_under_integral(P, alpha, cfg)
    if len({(d.lower, d.upper) for d in map(P.domain_for, (down, alpha, up))}) == 1:
        cfg, da = cfg or _DEFAULT_CFG, _d_alpha(P)
        mesh = replace(cfg, max_subdivisions=min(cfg.max_subdivisions, 2 + rhs.n_evals // 15))
        fine = replace(_scaled(cfg, 0.1), max_subdivisions=max(1, mesh.max_subdivisions * 2 // 3))
        gap = integrate(lambda x: (f(x, up) - f(x, down)) / step - da(x, alpha), dom, fine)
        lhs = _combined(((1.0, rhs), (1.0, gap)), 1.0)

        def curvature() -> QuadResult:
            return integrate(
                lambda x: (f(x, up) - 2.0 * f(x, alpha) + f(x, down)) / (h * h), dom, mesh)
    else:
        hi, lo = eval_direct(P, up, cfg), eval_direct(P, down, cfg)
        lhs = _combined(((1.0, hi), (-1.0, lo)), step)

        def curvature() -> QuadResult:
            at = eval_direct(P, alpha, cfg)
            return _combined(((1.0, hi), (-2.0, at), (1.0, lo)), h * h)
    discrepancy = abs(lhs.value - rhs.value)
    worst = discrepancy + lhs.abs_err_est + rhs.abs_err_est
    tolerance_used = _INTERCHANGE_TOL
    if worst > tolerance_used:
        c = curvature()
        dist = P.param_domain.boundary_distance(alpha)
        tolerance_used += h * h * max(abs(c.value) - c.abs_err_est, 0.0) / max(dist, 2.0 * h)
    return InterchangeReport(
        alpha=alpha,
        lhs=lhs.value,
        rhs=rhs.value,
        discrepancy=discrepancy,
        tolerance_used=tolerance_used,
        passed=worst <= tolerance_used,
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


def domination_scan(
    P: ParametricIntegral, alpha_window: tuple[float, float]
) -> DominationReport:
    """Build an empirical envelope max_alpha |d f/d alpha| and size it up.

    Each alpha's d f/d alpha is sampled through the kernels' checked call at
    the declared x.  A sample that fails or is not finite, or an envelope
    that grows non-integrably at a finite end, raises DegenerateWindowError.
    Finite domains: midpoint-rule estimate of the envelope integral,
    verdict `dominated`.  Infinite domains: finite part plus
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
    P.param_domain.require(lo_a, hi_a, closure=True)

    alphas = [
        lo_a + (hi_a - lo_a) * i / (_SCAN_N_ALPHA - 1) for i in range(_SCAN_N_ALPHA)
    ]
    da = _d_alpha(P)
    rules = [_Counted(lambda x, a=a: da(x, a)) for a in alphas]
    dom = P.domain_for(0.5 * (lo_a + hi_a))

    lo_inf = dom.lower_kind is EndpointKind.INFINITE
    hi_inf = dom.upper_kind is EndpointKind.INFINITE
    # the finite part runs from `start` to `far` in the direction sgn: on a
    # half-line from its finite end, on (-inf, inf) from -16 up
    sgn, start, kind = ((-1.0, dom.upper, dom.upper_kind) if lo_inf and not hi_inf
                        else (1.0, -0.5 * _SCAN_SPAN if lo_inf else dom.lower, dom.lower_kind))
    width, far = ((_SCAN_SPAN, start + sgn * _SCAN_SPAN) if lo_inf or hi_inf
                  else (dom.upper - start, dom.upper))
    step = width / _SCAN_N_POINTS
    xs = [start + sgn * ((i + 0.5) * step) for i in range(_SCAN_N_POINTS)]
    base = max(sgn * far, 1.0)

    def envelope(x: float) -> float:
        return max(abs(r(x)) for r in rules)

    def tail(side: float) -> tuple[float, float]:
        """The tail's fitted exponent in t (the refusal's, if any) and mass."""
        def g(t: float) -> float:
            x = side / t
            m = envelope(x)
            samples.append((x, m))
            return m / t / t  # t * t is 0.0 at the last rung once base > 6e149

        try:
            p, c = _fit_endpoint(g, 0.0, 1.0, 1.0 / base)
        except NonIntegrableSingularityError as exc:
            return exc.exponent, math.inf
        return p, c * base ** -(1.0 + p) / (1.0 + p)

    try:
        columns = [r.many(xs) for r in rules]
        samples = [(x, max(map(abs, vs))) for x, *vs in zip(xs, *columns)]
        finite_part = step * math.fsum(m for _, m in samples)
        if not (lo_inf or hi_inf) or kind is EndpointKind.INTEGRABLE_SINGULARITY:
            _fit_endpoint(envelope, start, far, width)
        if not (lo_inf or hi_inf):
            _fit_endpoint(envelope, far, start, width)
        sides = (1.0, -1.0) if lo_inf and hi_inf else (sgn,) if lo_inf or hi_inf else ()
        tails = [tail(side) for side in sides]
    except EvaluationError as exc:
        why = exc.__cause__ or f"non-finite value {exc.value!r}"
        raise DegenerateWindowError(
            f"derivative sample failed at x={exc.abscissa!r} ({why}): the window "
            "touches a singular parameter value"
        ) from exc
    except NonIntegrableSingularityError as exc:
        raise DegenerateWindowError(
            f"envelope grows non-integrably toward x={exc.endpoint!r} "
            f"(local exponent {exc.exponent:.3f}); the window touches a "
            "singular parameter value"
        ) from exc

    # the slowest tail decides; within 0.05 of p = -1 (1/x decay) is too close
    # to call
    p = min((p for p, _ in tails), default=0.0)
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
# An end of the parameter path goes to the singular kernel when the rhs
# fits a growth exponent at or below this.  The fit uses 3 rungs: deeper
# rungs of a numeric rhs read inner-quadrature noise as growth.
_ROUTE_EXPONENT = -0.05
# A numeric rhs's relative tolerance at a routing fit's rungs: rungs 16x apart move
# the slope by <= ~0.72 x that, far inside the margin above and _root_end's window.
_FIT_REL_TOL = 1e-4
# Chebyshev levels of the interpolant of a numeric rhs, nested: a doubling reuses every sample
_CHEB_LEVELS = (8, 16, 32, 64)


@functools.cache
def _sines(n: int) -> tuple[tuple[float, ...], tuple[tuple[float, ...], ...]]:
    """sin(m th_1), th_1 = pi/n, for m < 2n, and the rows sin(j k th_1) of the
    sine transform at level n (k, j = 1 .. n-1): built once per level, read-only."""
    sn = tuple(math.sin(math.pi * m / n) for m in range(2 * n))
    ext = sn * (n // 2 + 1)  # sin(m th_1) up to m = n*n: sn has period 2n
    return sn, tuple(ext[k:k * n:k] for k in range(1, n))  # symmetric in j, k


class _NestedRhs:
    """dI/d alpha = deriv_under_integral(P, alpha), and the account of its
    inner quadratures: ``n_evals`` of all (one that raises reports none),
    and the worst ``status`` of its calls, the nodes of an alpha-quadrature.
    Its node tolerance ``cfg`` and its alpha-quadrature's ``alpha_cfg`` are
    the caller's, floored at _DERIV_TOL_FLOOR and at _ALPHA_TOL_FLOOR;
    ``alpha_cfg`` allows at most _ALPHA_MAX_SUBDIV panels.  A routing fit
    samples it at ``fit_cfg``: ``cfg`` with rel_tol floored at _FIT_REL_TOL."""

    def __init__(self, P: ParametricIntegral, cfg: QuadConfig):
        _d_alpha(P)  # refuse a family without d f/d alpha before any fit samples it
        self.P = P
        self.cfg = _scaled(cfg, 1.0, _DERIV_TOL_FLOOR)
        self.fit_cfg = replace(self.cfg, rel_tol=max(self.cfg.rel_tol, _FIT_REL_TOL))
        sub = min(cfg.max_subdivisions, _ALPHA_MAX_SUBDIV)
        self.alpha_cfg = replace(_scaled(cfg, 1.0, _ALPHA_TOL_FLOOR), max_subdivisions=sub)
        self.n_evals = 0
        self.status = QuadStatus.CONVERGED

    def sample(self, a: float, cfg: QuadConfig | None = None) -> QuadResult:
        """dI/d alpha at a, at ``cfg`` or else the node tolerance."""
        res = deriv_under_integral(self.P, a, cfg or self.cfg)
        self.n_evals += res.n_evals
        return res

    def __call__(self, a: float) -> float:
        res = self.sample(a)
        self.status = max(self.status, res.status, key=_STATUS_RANK.get)
        return res.value

    def fit(self, a: float) -> tuple[float, QuadStatus]:
        res = self.sample(a, self.fit_cfg)
        return res.value, res.status


class _Fit(NamedTuple):
    """What a routing fit (_fit) reads at a path end; the default: taken as regular."""

    kind: EndpointKind = EndpointKind.REGULAR  # for the kernel
    root: bool = False  # a square-root end (_root_end)
    status: QuadStatus = QuadStatus.CONVERGED  # the worst of its samples'
    calls: int = 0  # of the rhs


def _fit(rhs: Union[_NestedRhs, Callable], end: float, lo: float, hi: float) -> _Fit:
    """The 3-rung growth fit of ``rhs`` (a numeric one at its fit tolerance:
    the fit only routes) at ``end`` of the path [lo, hi], into the path;
    singular at p <= _ROUTE_EXPONENT, a failing sample or a refused fit."""
    nested = isinstance(rhs, _NestedRhs)
    samples, failed = [], []  # (d, rhs at end +- d), and statuses other than converged

    def sampled(x: float) -> float:
        v, status = rhs.fit(x) if nested else (rhs(x), QuadStatus.CONVERGED)
        samples.append((abs(x - end), v))
        if status is not QuadStatus.CONVERGED:
            failed.append(status)
        return v

    probe = _Counted(sampled)
    try:
        p, _ = _fit_endpoint(probe, end, hi if end == lo else lo, hi - lo, rungs=3)
    except QuadratureError:
        p = math.nan
    status = max(failed, key=_STATUS_RANK.get) if failed else QuadStatus.CONVERGED
    if p > _ROUTE_EXPONENT:
        return _Fit(status=status, calls=probe.n)
    root = nested and _root_end((p, samples), rhs.fit_cfg)  # a closed rhs is not interpolated
    return _Fit(EndpointKind.INTEGRABLE_SINGULARITY, root, status, probe.n)


def _root_end(fit: tuple[float, list[tuple[float, float]]], cfg: QuadConfig) -> bool:
    """Whether a singular end's fit reads a square-root blow-up, which
    alpha = end +- s*s removes: p within 0.1 of -1/2, and h = 2 sqrt(d) g at
    its three samples flat to ``cfg`` (a numeric rhs's fit tolerance) or
    with successive differences that shrink at least 3-fold (about 4-fold
    when h is smooth in s = sqrt(d), 4**eps-fold for a leftover s**eps)."""
    p, samples = fit
    if not (abs(p + 0.5) <= 0.1 and len(samples) == 3):
        return False
    h0, h1, h2 = (2.0 * math.sqrt(d) * v for d, v in samples)
    step1, step2 = abs(h1 - h0), abs(h2 - h1)
    return max(step1, step2) <= _tol_for(cfg, h0) or step1 >= 3.0 * step2


class _Route(NamedTuple):
    """How _reconstruct_each rebuilt a point: a ``name`` of reconstruct's
    route table, and the ``path`` it ran on, with its ends' kinds."""

    name: str
    path: DomainSpec


def _interpolant(lo: float, hi: float, fits: dict[float, _Fit]) -> Optional[_Route]:
    """The interpolant of reconstruct's table on [lo, hi] that the ``fits``
    of its ends allow (an end not in them reads regular), if one."""
    ends = [fits.get(e, _Fit()) for e in (lo, hi)]
    singular = [f.root for f in ends if f.kind is not EndpointKind.REGULAR]
    if singular in ([], [True]) and all(f.status is QuadStatus.CONVERGED for f in ends):
        path = DomainSpec(lo, hi, *(f.kind for f in ends))
        return _Route("grid-s" if singular else "grid-α", path)
    return None


def _interpolants(
    g: _NestedRhs, dom: ParamDomain, lo: float, hi: float, fits: dict[float, _Fit]
) -> Iterator[Optional[_Route]]:
    """The interpolants of reconstruct's table for a numeric rhs on the hull
    [lo, hi], each decided once the one before declined; ``fits``, of the
    hull ends on ends of the domain, gets the others after the first."""
    yield (first := _interpolant(lo, hi, fits))
    fits.update({e: _fit(g, e, lo, hi) for e in (lo, hi) if e not in fits})
    past = [(gap, e) for gap, e in ((lo - dom.lo, dom.lo), (dom.hi - hi, dom.hi))
            if 0.0 < gap <= hi - lo]
    again = _interpolant(lo, hi, fits)
    # every hull end reads regular, with converged samples, yet grid-α declined:
    # a square-root end of the domain just past the hull may be why
    unexplained = again == _Route("grid-α", DomainSpec(lo, hi)) and past
    if again != first:  # a fit of an end inside the domain changed the interpolant
        yield again
    elif unexplained:
        end = min(past)[1]
        ext = (min(lo, end), max(hi, end))
        if (fit := _fit(g, end, *ext)).root:
            yield _interpolant(*ext, {end: fit})


def _chebyshev(
    g: _NestedRhs, route: _Route, alphas: Sequence[float]
) -> Optional[dict[float, QuadResult]]:
    """I at each of ``alphas`` from the interpolant ``route`` of dI/du on its
    path [lo, hi], which holds the anchor and the points, or None when it
    declines.  u is alpha, or s for alpha = end + sign s*s about the end the
    path marks singular, where dI/ds = 2 sign s g(alpha) is smooth; its s
    is read back from the rounded alpha, so node rounding errs in s alone.

    dI/du is sampled at c + h cos(j pi/n), j = 1 .. n-1 (not at an end, where
    the interchange may fail), g at the alpha-tolerance times 0.125/(hi - lo)
    in the node tolerance's budget, n doubling from 8 until the top quarter
    of the b_k in p(cos th) sin th = sum b_k sin k th is within the noise of
    the samples: their largest estimate, or the sum's rounding if larger.
    I = v0 + h sum b_k d_k, d_k = (T_k(t) - T_k(t0))/k, with estimate
    sum |W_j| est_j over its sample weights, plus h sum 2 |b_k|/k over that
    quarter, plus h sum |d_k| times the rounding of each b_k; converged
    only if that meets the alpha-tolerance at I.
    n_evals counts every evaluation of g so far.  It declines on a sample
    that raises or is not converged, and when the series cannot chop by
    n = 64 (it has not, and the decay of its b_k from the second to the top
    quarter, carried on geometrically, does not reach the noise by then).
    """
    a0, v0 = g.P.anchor.alpha0, g.P.anchor.value0
    lo, hi, root = route.path.lower, route.path.upper, route.name == "grid-s"
    end, sign = (hi, -1.0) if route.path.lower_kind is EndpointKind.REGULAR else (lo, 1.0)
    u_lo, h = (0.0, 0.5 * math.sqrt(hi - lo)) if root else (lo, 0.5 * (hi - lo))
    top = _CHEB_LEVELS[-1]
    us = [u_lo + h + h * math.cos(math.pi * j / top) for j in range(top + 1)]
    nodes = [end + sign * u * u if root else u for u in us]  # alpha at each u
    if not (h < math.inf and lo < min(nodes[1:-1]) and max(nodes[1:-1]) < hi):
        return None
    got: dict[int, tuple[float, float]] = {}  # (dI/du, its estimate) by index into us
    try:
        sub = g.cfg.max_subdivisions
        node_cfg = _scaled(replace(g.alpha_cfg, max_subdivisions=sub), 0.125 / (hi - lo))
        for n in _CHEB_LEVELS:
            step = top // n
            for j in range(step, top, step):
                if j not in got:
                    r = g.sample(nodes[j], node_cfg)
                    if r.status is not QuadStatus.CONVERGED:
                        return None
                    du = 2.0 * sign * math.sqrt(abs(nodes[j] - end)) if root else 1.0
                    got[j] = (du * r.value, abs(du) * r.abs_err_est)
            samples = [got[j * step] for j in range(1, n)]
            sn, rows = _sines(n)
            vs = [v * sn[j] for j, (v, _) in enumerate(samples, 1)]
            b = [2.0 / n * math.fsum(map(operator.mul, vs, row)) for row in rows]
            rounding = n * _EPS * max(abs(v) for v, _ in samples)  # of each b_k
            noise = max(max(e for _, e in samples), rounding)
            quarter = range(n - n // 4, n)
            top_b = max(abs(b[k - 1]) for k in quarter)
            if top_b <= noise:
                break
            second_b = max(abs(b[k - 1]) for k in range(n // 4, n // 2))
            # n/2 indices from the second quarter to the top one; 3 (top - n)/4
            # more to the top quarter at n = top
            if second_b <= top_b or top_b * (top_b / second_b) ** (1.5 * (top - n) / n) > noise:
                return None
    except (QuadratureError, ValueError):
        return None

    def theta(a: float) -> float:
        # t = cos th on [-1, 1], so that T_k(t) = cos k th
        u = math.sqrt(abs(a - end)) if root else a
        return math.acos(max(-1.0, min(1.0, (u - u_lo - h) / h)))

    th0 = theta(a0)
    chop = h * math.fsum(2.0 * abs(b[k - 1]) / k for k in quarter)
    out = {}
    for a in alphas:
        th = theta(a)
        d = [(math.cos(k * th) - math.cos(k * th0)) / k for k in range(1, n)]
        value = v0 + h * math.fsum(map(operator.mul, b, d))
        # the weight of sample j in this value, for its share of the estimate
        weighted = []
        for j, (_, e) in enumerate(samples, 1):
            terms = map(operator.mul, rows[j - 1], d)
            weighted.append(abs(2.0 * h / n * sn[j] * math.fsum(terms)) * e)
        est = math.fsum(weighted) + chop + h * rounding * math.fsum(map(abs, d))
        out[a] = QuadResult(value, est, g.n_evals, _status(g.alpha_cfg, value, est))
    return out


def _reconstruct_each(
    P: ParametricIntegral, alphas: Sequence[float], cfg: QuadConfig
) -> dict[float, tuple[Union[QuadResult, QuadratureError, ValueError], Optional[_Route]]]:
    """reconstruct at each of ``alphas``: its result, or the error it raises,
    and its route (None at the anchor, outside the domain's closure and for a
    numeric rhs refused for want of d_alpha).  Each
    path fits its own ends; a numeric rhs's fallback on the hull reuses the
    hull's fits and rhs, so that its n_evals counts declined interpolants' too."""
    a0, v0 = P.anchor.alpha0, P.anchor.value0
    out: dict = {}
    for a in alphas:
        try:
            # the anchor lies in the closure, so the path does iff its target does
            P.param_domain.require(a, closure=True)
        except ParameterDomainError as exc:
            out[a] = exc, None
        if a == a0:
            out[a] = QuadResult(v0, 0.0, 0, QuadStatus.CONVERGED), None
    off = [a for a in alphas if a not in out]
    if not off:
        return out
    lo, hi = min(a0, *off), max(a0, *off)
    dom, closed = P.param_domain, P.rhs_closed is not None
    if closed:  # a copy that carries the offset form as ``near``, the kernels' contract
        g = functools.partial(P.rhs_closed)
        g.near = P.rhs_near
    else:
        try:
            g = _NestedRhs(P, cfg)
        except ValueError as exc:
            out.update((a, (exc, None)) for a in off)
            return out
    fits = {e: _fit(g, e, lo, hi) for e in (lo, hi) if not (closed or dom.is_interior(e))}
    for route in () if closed else filter(None, _interpolants(g, dom, lo, hi, fits)):
        if got := _chebyshev(g, route, off):
            out.update((a, (res, route)) for a, res in got.items())
            break
    g_cfg = cfg if closed else g.alpha_cfg
    for a in off:
        if a in out:
            continue
        path = (a0, a) if a0 <= a else (a, a0)
        own = path == (lo, hi) and not closed
        pg = g if own or closed else _NestedRhs(P, cfg)
        f0, f1 = (fits[e] if own else _fit(pg, e, *path) for e in path)
        sides = [s for s, f in (("lower", f0), ("upper", f1))
                 if f.kind is not EndpointKind.REGULAR]
        route = _Route(" ".join(["tanh-sinh", *sides]) if sides else "gk",
                       DomainSpec(*path, f0.kind, f1.kind))
        try:
            q = integrate(pg, route.path, g_cfg)
        except (QuadratureError, ValueError) as exc:
            out[a] = exc, route
            continue
        value = v0 + (q.value if a0 <= a else -q.value)
        est, n, parts = q.abs_err_est, q.n_evals + f0.calls + f1.calls, [q.status]
        if not closed:  # the worst status of the samples its value rests on
            est += 2.0 * (path[1] - path[0]) * pg.cfg.abs_tol  # the inner noise
            n, parts = pg.n_evals, [q.status, f0.status, f1.status, pg.status]
        out[a] = QuadResult(value, est, n, _status(g_cfg, value, est, *parts)), route
    return out


def reconstruct(
    P: ParametricIntegral, alpha_target: float, cfg: QuadConfig | None = None
) -> QuadResult:
    """value0 + int_{alpha0}^{alpha_target} dI/d alpha, as plain quadrature.

    The rhs is rhs_closed, else numeric: deriv_under_integral at each alpha,
    so without d_alpha any target but the anchor raises ValueError unevaluated.
    _fit reads each path end regular, singular or a square-root end (when:
    see _interpolants).  The first route that serves the point is taken (L:
    the path's length; tol, atol: the node and alpha-tolerances; u: alpha,
    or s for alpha = end +- s*s):

    route      taken                              samples; estimate
    grid-α     numeric rhs, hull ends regular     dI/du at Chebyshev nodes,
    grid-s     numeric rhs, one hull end a root   at atol/(8 L); their share,
               end, the other regular; or, once   the chop and the rounding
               grid-α declined, the nearer root   (see _chebyshev)
               end of the domain within L past
               the hull, on the hull extended to it
    gk,        closed rhs, or numeric rhs that    the rhs on the path (numeric
    tanh-sinh  no interpolant serves; tanh-sinh   at tol); the kernel's, + 2 L
               at an end that reads singular      tol for a numeric rhs

    Status: the worst of the samples the value rests on (a fallback's nodes
    and fits; an interpolant needs converged fits and samples, or declines),
    else converged only if the estimate meets the alpha-tolerance at the
    value.  ``n_evals`` counts every evaluation the call causes, fits and
    declined interpolants included (an inner quadrature that raises inside
    a fit reports none)."""
    if P.anchor is None:
        raise MissingAnchorError(
            "entry has no anchor value; reconstruction needs a known I(alpha0)"
        )
    res, _ = _reconstruct_each(P, [alpha_target], cfg or _DEFAULT_CFG)[alpha_target]
    if isinstance(res, Exception):
        raise res
    return res


# ---------------------------------------------------------------------------
# grid verification
# ---------------------------------------------------------------------------

def verify(
    P: ParametricIntegral,
    alphas: Iterable[float],
    tol_direct: float = 1e-7,
    tol_reconstruct: float = 1e-6,
    cfg: QuadConfig | None = None,
) -> VerificationReport:
    """Compare direct quadrature, reconstruction, and closed form per alpha.

    Failures at a point (numeric errors included) are recorded on that
    point rather than raised, so one bad grid value cannot hide the rest;
    each failure note ends with the exception's class name in brackets.
    """
    alphas = tuple(alphas)  # read once: a one-shot iterator serves both passes below
    if not alphas:
        raise ValueError("verification grid must be nonempty")
    recons = {} if P.anchor is None else _reconstruct_each(P, alphas, cfg or _DEFAULT_CFG)
    points: list[VerificationPoint] = []
    for alpha in alphas:
        notes: list[str] = []
        direct = direct_err = math.nan
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

        rec, _ = recons.get(alpha, (None, None))
        recon = rec.value if isinstance(rec, QuadResult) else None
        if isinstance(rec, Exception):
            notes.append(f"reconstruction failed: {rec} [{type(rec).__name__}]")
            ok = False

        disc_dc = abs(direct - closed) if closed is not None and ok else None
        disc_rd = abs(recon - direct) if recon is not None and ok else None
        passed = ok and (disc_dc is None or disc_dc <= tol_direct) and (
            disc_rd is None or disc_rd <= tol_reconstruct)
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
