"""One-dimensional quadrature kernels with error estimates.

Four kernels cover the interval classes that parametric integrals
produce in practice:

* :func:`integrate_finite` -- adaptive bisection on a nested
  Gauss-Kronrod (7, 15) pair for finite intervals with a regular
  integrand.
* :func:`integrate_singular` -- a tanh-sinh (double-exponential)
  rule for finite intervals whose integrand blows up integrably at
  one or both endpoints.  The integrand is never evaluated exactly
  at a singular endpoint.
* :func:`integrate_improper` -- compactifies a semi-infinite domain
  with x = t/(1-t) and certifies the discarded tail with a sampled
  monotone-envelope bound.
* :func:`integrate_oscillatory_improper` -- sums the integral between
  consecutive phase zeros and accelerates the alternating partial
  sums with Wynn's epsilon extrapolation.

Every kernel returns a :class:`QuadResult` carrying the value, an
absolute error estimate, the evaluation count, and a status.  All
kernels are pure functions of their arguments: integrands must be
stateless, and identical inputs produce bit-identical results.
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass, replace
from statistics import median
from typing import Callable, Optional

__all__ = [
    "EndpointKind",
    "QuadStatus",
    "OscillatoryTail",
    "DomainSpec",
    "QuadConfig",
    "QuadResult",
    "QuadratureError",
    "EvaluationError",
    "NonIntegrableSingularityError",
    "integrate",
    "integrate_finite",
    "integrate_singular",
    "integrate_improper",
    "integrate_oscillatory_improper",
]

_EPS = 2.220446049250313e-16


class QuadratureError(Exception):
    """Base class for numeric failures inside the quadrature kernels."""


class EvaluationError(QuadratureError):
    """The integrand returned a non-finite value at an interior node."""

    def __init__(self, abscissa: float, value: float):
        self.abscissa = abscissa
        self.value = value
        super().__init__(
            f"integrand returned non-finite value {value!r} at x={abscissa!r}"
        )


class NonIntegrableSingularityError(QuadratureError):
    """Endpoint growth looks like x**p with p <= -1, so the integral diverges."""

    def __init__(self, endpoint: float, exponent: float):
        self.endpoint = endpoint
        self.exponent = exponent
        super().__init__(
            f"non-integrable growth near x={endpoint!r}: "
            f"empirical local exponent {exponent:.3f} <= -1"
        )


class EndpointKind(enum.Enum):
    REGULAR = "regular"
    INTEGRABLE_SINGULARITY = "integrable_singularity"
    INFINITE = "infinite"


class QuadStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_DEPTH = "max_depth"
    TAIL_TRUNCATED = "tail_truncated"


# Severity order used when two partial results are combined.
_STATUS_RANK = {
    QuadStatus.CONVERGED: 0,
    QuadStatus.TAIL_TRUNCATED: 1,
    QuadStatus.MAX_DEPTH: 2,
}


@dataclass(frozen=True)
class OscillatoryTail:
    """Describes the sign structure of an oscillatory tail.

    ``phase_zero_rule(k)`` must return the k-th zero (k = 1, 2, ...) of
    the oscillation on the tail, strictly increasing and unbounded.
    """

    phase_zero_rule: Callable[[int], float]

    def __post_init__(self):
        zs = [self.phase_zero_rule(k) for k in range(1, 7)]
        if any(not math.isfinite(z) for z in zs) or any(
            b <= a for a, b in zip(zs, zs[1:])
        ):
            raise ValueError("phase_zero_rule must be strictly increasing")


@dataclass(frozen=True)
class DomainSpec:
    """An oriented integration interval with endpoint classifications."""

    lower: float
    upper: float
    lower_kind: EndpointKind = EndpointKind.REGULAR
    upper_kind: EndpointKind = EndpointKind.REGULAR
    oscillatory_tail: Optional[OscillatoryTail] = None

    def __post_init__(self):
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise ValueError("domain endpoints must not be NaN")
        if not self.lower < self.upper:
            raise ValueError(f"domain requires lower < upper, got [{self.lower}, {self.upper}]")
        if math.isinf(self.lower) != (self.lower_kind is EndpointKind.INFINITE):
            raise ValueError("lower endpoint is infinite iff lower_kind is INFINITE")
        if math.isinf(self.upper) != (self.upper_kind is EndpointKind.INFINITE):
            raise ValueError("upper endpoint is infinite iff upper_kind is INFINITE")
        if self.lower_kind is EndpointKind.INFINITE and self.lower > 0:
            raise ValueError("an infinite lower endpoint must be -inf")
        if self.upper_kind is EndpointKind.INFINITE and self.upper < 0:
            raise ValueError("an infinite upper endpoint must be +inf")
        if self.oscillatory_tail is not None and self.upper_kind is not EndpointKind.INFINITE:
            raise ValueError("oscillatory_tail requires an infinite upper endpoint")

    # -- constructors ---------------------------------------------------

    @classmethod
    def finite(cls, lower: float, upper: float) -> "DomainSpec":
        return cls(lower, upper)

    @classmethod
    def singular(
        cls, lower: float, upper: float, *, at_lower: bool = False, at_upper: bool = False
    ) -> "DomainSpec":
        if not (at_lower or at_upper):
            raise ValueError("mark at least one endpoint singular")
        k = EndpointKind.INTEGRABLE_SINGULARITY
        return cls(
            lower,
            upper,
            lower_kind=k if at_lower else EndpointKind.REGULAR,
            upper_kind=k if at_upper else EndpointKind.REGULAR,
        )

    @classmethod
    def semi_infinite(cls, lower: float, *, singular_lower: bool = False) -> "DomainSpec":
        lk = (
            EndpointKind.INTEGRABLE_SINGULARITY
            if singular_lower
            else EndpointKind.REGULAR
        )
        return cls(lower, math.inf, lower_kind=lk, upper_kind=EndpointKind.INFINITE)

    @classmethod
    def oscillatory(
        cls, lower: float, phase_zero_rule: Callable[[int], float]
    ) -> "DomainSpec":
        return cls(
            lower,
            math.inf,
            upper_kind=EndpointKind.INFINITE,
            oscillatory_tail=OscillatoryTail(phase_zero_rule),
        )


@dataclass(frozen=True)
class QuadConfig:
    """Budgets and tolerances shared by all kernels."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000
    tail_decay_threshold: float = 1e-14

    def __post_init__(self):
        for name in ("abs_tol", "rel_tol", "tail_decay_threshold"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and v > 0 and math.isfinite(v)):
                raise ValueError(f"{name} must be a finite positive number, got {v!r}")
        if not (isinstance(self.max_subdivisions, int) and self.max_subdivisions > 0):
            raise ValueError("max_subdivisions must be a positive integer")


@dataclass(frozen=True)
class QuadResult:
    value: float
    abs_err_est: float
    n_evals: int
    status: QuadStatus


_DEFAULT_CFG = QuadConfig()


def _tol_for(cfg: QuadConfig, value: float) -> float:
    return max(cfg.abs_tol, cfg.rel_tol * abs(value))


class _Counted:
    """Wraps an integrand: counts calls and rejects non-finite values."""

    __slots__ = ("f", "n")

    def __init__(self, f: Callable[[float], float]):
        self.f = f
        self.n = 0

    def __call__(self, x: float) -> float:
        self.n += 1
        try:
            v = self.f(x)
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            raise EvaluationError(x, math.inf) from exc
        if not math.isfinite(v):
            raise EvaluationError(x, v)
        return v


# ---------------------------------------------------------------------------
# Gauss-Kronrod (7, 15) pair on [-1, 1].  Nodes are symmetric; only the
# non-negative abscissae are tabulated.  wg is zero on Kronrod-only nodes.
# ---------------------------------------------------------------------------

_GK_NODES = (
    # (abscissa, gauss weight, kronrod weight)
    (0.991455371120813, 0.0, 0.022935322010529),
    (0.949107912342759, 0.129484966168870, 0.063092092629979),
    (0.864864423359769, 0.0, 0.104790010322250),
    (0.741531185599394, 0.279705391489277, 0.140653259715525),
    (0.586087235467691, 0.0, 0.169004726639267),
    (0.405845151377397, 0.381830050505119, 0.190350578064785),
    (0.207784955007898, 0.0, 0.204432940075298),
)
_GK_CENTER = (0.417959183673469, 0.209482141084728)  # gauss, kronrod weight at 0


def _gk_panel(f: _Counted, a: float, b: float) -> tuple[float, float]:
    """Kronrod value and |kronrod - gauss| estimate on [a, b] (15 evals)."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    gauss = _GK_CENTER[0] * fc
    kron = _GK_CENTER[1] * fc
    for xi, wg, wk in _GK_NODES:
        x1 = c - h * xi
        x2 = c + h * xi
        s = f(x1) + f(x2)
        kron += wk * s
        if wg != 0.0:
            gauss += wg * s
    return h * kron, abs(h * (kron - gauss))


def _adaptive_gk(
    f: _Counted, a: float, b: float, cfg: QuadConfig
) -> tuple[float, float, QuadStatus]:
    """Worst-panel-first adaptive Gauss-Kronrod bisection on [a, b]."""
    mid = 0.5 * (a + b)
    if not (a < mid < b):
        v, e = _gk_panel(f, a, b)
        return v, e, QuadStatus.CONVERGED if e <= _tol_for(cfg, v) else QuadStatus.MAX_DEPTH

    seq = 0
    heap = []  # (-err, seq, a, b, value, err)
    frozen = []  # panels too narrow to split further
    total_v = 0.0
    total_e = 0.0
    n_panels = 0
    for lo, hi in ((a, mid), (mid, b)):
        v, e = _gk_panel(f, lo, hi)
        heapq.heappush(heap, (-e, seq, lo, hi, v, e))
        seq += 1
        total_v += v
        total_e += e
        n_panels += 1

    status = QuadStatus.CONVERGED
    while total_e > _tol_for(cfg, total_v):
        if n_panels >= cfg.max_subdivisions or not heap:
            status = QuadStatus.MAX_DEPTH
            break
        _, _, lo, hi, v, e = heapq.heappop(heap)
        m = 0.5 * (lo + hi)
        if not (lo < m < hi):
            frozen.append((lo, hi, v, e))
            continue
        v1, e1 = _gk_panel(f, lo, m)
        v2, e2 = _gk_panel(f, m, hi)
        heapq.heappush(heap, (-e1, seq, lo, m, v1, e1))
        seq += 1
        heapq.heappush(heap, (-e2, seq, m, hi, v2, e2))
        seq += 1
        total_v += v1 + v2 - v
        total_e += e1 + e2 - e
        n_panels += 1

    panels = [(lo, hi, v, e) for (_, _, lo, hi, v, e) in heap] + frozen
    panels.sort(key=lambda p: (p[0], p[1]))
    value = math.fsum(p[2] for p in panels)
    err = math.fsum(p[3] for p in panels)
    if status is QuadStatus.CONVERGED and err > _tol_for(cfg, value):
        status = QuadStatus.MAX_DEPTH
    return value, err, status


def integrate_finite(
    f: Callable[[float], float], domain: DomainSpec, cfg: QuadConfig | None = None
) -> QuadResult:
    """Integrate a regular integrand over a finite interval."""
    cfg = cfg or _DEFAULT_CFG
    if domain.lower_kind is not EndpointKind.REGULAR or domain.upper_kind is not EndpointKind.REGULAR:
        raise ValueError("integrate_finite requires regular endpoints on both sides")
    if domain.oscillatory_tail is not None:
        raise ValueError("integrate_finite does not accept an oscillatory tail")
    fc = _Counted(f)
    value, err, status = _adaptive_gk(fc, domain.lower, domain.upper, cfg)
    return QuadResult(value, err, fc.n, status)


# ---------------------------------------------------------------------------
# tanh-sinh rule for integrable endpoint singularities
# ---------------------------------------------------------------------------

_TS_MAX_LEVEL = 12
_PI_HALF = math.pi / 2.0


def _log_slope_ladder(
    g: Callable[[float], float], endpoint: float, into: float, width: float, rungs: int
) -> tuple[list[tuple[float, float]], Optional[float]]:
    """Sample g at distances d = width * 2**-8, 2**-12, ... from ``endpoint``.

    ``rungs`` distances are tried, stepping toward ``into``; the ladder
    stops early once x rounds onto the endpoint.  Returns the (d, g(x))
    pairs and the median log-log slope between neighbouring rungs whose
    values are both positive (None when there is no such pair).
    """
    direction = 1.0 if into > endpoint else -1.0
    vals = []
    for j in range(8, 8 + 4 * rungs, 4):
        d = width * 2.0 ** (-j)
        x = endpoint + direction * d
        if x == endpoint:
            break
        vals.append((d, g(x)))
    slopes = [
        (math.log(v2) - math.log(v1)) / (math.log(d2) - math.log(d1))
        for (d1, v1), (d2, v2) in zip(vals, vals[1:])
        if v1 > 0.0 and v2 > 0.0
    ]
    return vals, median(slopes) if slopes else None


def _endpoint_exponent(
    f: _Counted, endpoint: float, into: float, width: float
) -> tuple[float, float]:
    """Fit |f| ~ C * d**p at distance d from ``endpoint`` (d toward ``into``).

    Returns (p_hat, C_hat) where C_hat uses the capped exponent
    min(p_hat, 0) so the implied mass below a cutoff is conservative for
    bounded and logarithmic growth alike.  Raises when p_hat <= -1.
    """
    vals, slope = _log_slope_ladder(lambda x: abs(f(x)), endpoint, into, width, 9)
    p_hat = 0.0 if slope is None else slope
    if p_hat <= -0.999:
        raise NonIntegrableSingularityError(endpoint, p_hat)
    p_eff = min(p_hat, 0.0)
    tail = [dv for dv in vals[-3:] if dv[1] > 0.0]
    c_hat = max((v * d ** (-p_eff) for d, v in tail), default=0.0)
    return p_eff, c_hat


def _tanh_sinh(
    f: _Counted,
    a: float,
    b: float,
    sing_lower: bool,
    sing_upper: bool,
    cfg: QuadConfig,
) -> QuadResult:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    width = b - a

    # Probe singular endpoints: divergence detection plus data for the
    # truncated-mass allowance near the rounding cutoff.
    side_fit = {}
    if sing_lower:
        side_fit["lower"] = _endpoint_exponent(f, a, b, width)
    if sing_upper:
        side_fit["upper"] = _endpoint_exponent(f, b, a, width)

    cut_delta = {"lower": 0.0, "upper": 0.0}
    # Endpoints at zero never round onto the endpoint, so without a floor
    # the node ladder descends until squared-distance terms inside the
    # integrand underflow to 0.0 (e.g. log(s*s) at s ~ 1e-160).  Nodes
    # below the floor are dropped and charged to the truncation allowance;
    # at 2^-512 * half the charged mass is far below any tolerance.
    delta_floor = half * 2.0 ** -512

    def node_contribution(t: float) -> tuple[float, bool]:
        """(weight * f(x), pinned) for abscissa parameter t."""
        u = _PI_HALF * math.sinh(t)
        au = abs(u)
        try:
            e2 = math.exp(-2.0 * au)
        except OverflowError:
            e2 = 0.0
        delta = half * (2.0 * e2 / (1.0 + e2))
        if t > 0.0:
            x = b - delta
            side = "upper"
        elif t < 0.0:
            x = a + delta
            side = "lower"
        else:
            x = mid
            side = ""
        if side and (x == b or x == a or delta < delta_floor):
            cut_delta[side] = max(cut_delta[side], delta_floor, delta)
            return 0.0, True
        cosh_u = math.cosh(u) if au < 350.0 else math.inf
        w = half * _PI_HALF * math.cosh(t) / (cosh_u * cosh_u)
        if w == 0.0:
            return 0.0, True
        return w * f(x), False

    contributions: list[float] = []  # every accepted w*f term, any level
    prev_value = None
    value = 0.0
    level_diff = math.inf
    max_abs_level0 = 0.0

    for m in range(_TS_MAX_LEVEL + 1):
        h = 2.0 ** (-m)
        scale = 1.0 + (abs(prev_value) if prev_value is not None else max_abs_level0)
        tiny = 1e-18 * scale
        if m == 0:
            c0, pinned = node_contribution(0.0)
            if not pinned:
                contributions.append(c0)
                max_abs_level0 = max(max_abs_level0, abs(c0))
            k_values = None  # sweep every integer k
        else:
            k_values = "odd"  # only odd multiples of h are new
        for sign in (1.0, -1.0):
            small_run = 0
            k = 1
            while True:
                if k_values == "odd" and k % 2 == 0:
                    k += 1
                    continue
                c, pinned = node_contribution(sign * k * h)
                if pinned:
                    break
                contributions.append(c)
                if m == 0:
                    max_abs_level0 = max(max_abs_level0, abs(c))
                if abs(c) < tiny:
                    small_run += 1
                    if small_run >= 3:
                        break
                else:
                    small_run = 0
                k += 1
                if k > 200000:
                    break
        value = h * math.fsum(contributions)
        if prev_value is not None:
            level_diff = abs(value - prev_value)
            if level_diff <= 0.25 * _tol_for(cfg, value):
                prev_value = value
                break
            if level_diff < 4.0 * _EPS * abs(value):
                prev_value = value
                break
        prev_value = value

    # Mass potentially lost where abscissae round onto a singular endpoint.
    allowance = 0.0
    for side, (p_eff, c_hat) in side_fit.items():
        dc = cut_delta[side]
        if dc > 0.0 and c_hat > 0.0:
            allowance += 3.0 * c_hat * dc ** (1.0 + p_eff) / (1.0 + p_eff)

    est = level_diff if math.isfinite(level_diff) else abs(value)
    est = est + allowance + _EPS * abs(value)
    tol = _tol_for(cfg, value)
    if est <= tol:
        status = QuadStatus.CONVERGED
    elif level_diff > tol and allowance <= tol:
        status = QuadStatus.MAX_DEPTH
    else:
        status = QuadStatus.TAIL_TRUNCATED
    return QuadResult(value, est, f.n, status)


def integrate_singular(
    f: Callable[[float], float], domain: DomainSpec, cfg: QuadConfig | None = None
) -> QuadResult:
    """Integrate over a finite interval with integrable endpoint singularities."""
    cfg = cfg or _DEFAULT_CFG
    if domain.oscillatory_tail is not None:
        raise ValueError("integrate_singular does not accept an oscillatory tail")
    for kind in (domain.lower_kind, domain.upper_kind):
        if kind is EndpointKind.INFINITE:
            raise ValueError("integrate_singular requires finite endpoints")
    fc = _Counted(f)
    return _tanh_sinh(
        fc,
        domain.lower,
        domain.upper,
        domain.lower_kind is EndpointKind.INTEGRABLE_SINGULARITY,
        domain.upper_kind is EndpointKind.INTEGRABLE_SINGULARITY,
        cfg,
    )


# ---------------------------------------------------------------------------
# semi-infinite domains
# ---------------------------------------------------------------------------

_TAIL_PROBE_FACTORS = (1.0, 1.37, 1.73)
_MAX_CUT = 9.0e14  # keeps t/(1-t) representable near t = 1


def _certify_tail(
    f: _Counted, a: float, target: float
) -> tuple[float, float, bool]:
    """Pick a cut X >= a so that int_X^inf |f| is certifiably <= target.

    Uses octave samples of |f| and a geometric monotone-envelope bound:
    if |f| decays by rho < 1/2 per octave beyond X, the tail is below
    2 * X * |f(X)| / (1 - 2 rho).  Returns (X, bound, certified).
    """
    x0 = max(8.0, 2.0 * abs(a) + 8.0)
    bound = math.inf
    while x0 - a < _MAX_CUT:
        env = []
        for k in range(4):
            base = x0 * (2.0 ** k)
            env.append(max(abs(f(base * fac)) for fac in _TAIL_PROBE_FACTORS))
        if all(v == 0.0 for v in env):
            return x0, 0.0, True
        rho = 0.0
        ok = True
        for lo, hi in zip(env, env[1:]):
            if lo == 0.0:
                ok = hi == 0.0
                if not ok:
                    break
                continue
            rho = max(rho, hi / lo)
        if ok and rho < 0.5:
            bound = 2.0 * x0 * env[0] / (1.0 - 2.0 * rho)
            if bound <= target:
                return x0, bound, True
        x0 *= 2.0
    return x0, bound if math.isfinite(bound) else abs(target) * 1e6, False


def _improper_semi(
    fc: _Counted, a: float, lower_singular: bool, cfg: QuadConfig
) -> QuadResult:
    target = max(cfg.tail_decay_threshold, 0.1 * cfg.abs_tol)
    cut_x, tail_bound, certified = _certify_tail(fc, a, target)

    s_cut = (cut_x - a) / (1.0 + (cut_x - a))

    def g(s: float) -> float:
        om = 1.0 - s
        x = a + s / om
        return fc(x) / (om * om)

    inner_cfg = replace(cfg, abs_tol=0.9 * cfg.abs_tol, rel_tol=0.9 * cfg.rel_tol)
    if lower_singular:
        inner = _tanh_sinh(_Counted(g), 0.0, s_cut, True, False, inner_cfg)
    else:
        value, err, status = _adaptive_gk(_Counted(g), 0.0, s_cut, inner_cfg)
        inner = QuadResult(value, err, 0, status)

    est = inner.abs_err_est + tail_bound
    if not certified:
        status = QuadStatus.TAIL_TRUNCATED
    elif inner.status is not QuadStatus.CONVERGED:
        status = inner.status
    elif est <= _tol_for(cfg, inner.value):
        status = QuadStatus.CONVERGED
    else:
        status = QuadStatus.TAIL_TRUNCATED
    return QuadResult(inner.value, est, fc.n, status)


def integrate_improper(
    f: Callable[[float], float], domain: DomainSpec, cfg: QuadConfig | None = None
) -> QuadResult:
    """Integrate over a domain with at least one infinite endpoint.

    The finite part is mapped through x = t/(1-t); the discarded tail
    beyond the compactification cut is certified against
    ``tail_decay_threshold`` by a sampled monotone-envelope bound that
    is folded into ``abs_err_est``.
    """
    cfg = cfg or _DEFAULT_CFG
    if domain.oscillatory_tail is not None:
        raise ValueError("integrate_improper does not accept an oscillatory tail")
    lo_inf = domain.lower_kind is EndpointKind.INFINITE
    hi_inf = domain.upper_kind is EndpointKind.INFINITE
    if not (lo_inf or hi_inf):
        raise ValueError("integrate_improper requires an infinite endpoint")

    if lo_inf and hi_inf:
        right = integrate_improper(
            f, DomainSpec.semi_infinite(0.0), cfg
        )
        left = integrate_improper(
            lambda u: f(-u), DomainSpec.semi_infinite(0.0), cfg
        )
        status = max(left.status, right.status, key=_STATUS_RANK.get)
        return QuadResult(
            left.value + right.value,
            left.abs_err_est + right.abs_err_est,
            left.n_evals + right.n_evals,
            status,
        )
    if lo_inf:
        b = domain.upper
        mirrored = DomainSpec(
            -b,
            math.inf,
            lower_kind=domain.upper_kind,
            upper_kind=EndpointKind.INFINITE,
        )
        return integrate_improper(lambda u: f(-u), mirrored, cfg)

    fc = _Counted(f)
    return _improper_semi(
        fc,
        domain.lower,
        domain.lower_kind is EndpointKind.INTEGRABLE_SINGULARITY,
        cfg,
    )


# ---------------------------------------------------------------------------
# oscillatory tails
# ---------------------------------------------------------------------------

_OSC_MIN_TERMS = 6
_OSC_MAX_TERMS = 60
_OSC_WARMUP = 4


def _wynn_best(sums: list[float]) -> float:
    """Corner of Wynn's epsilon table for a partial-sum sequence."""
    cur = list(sums)
    prev = [0.0] * (len(sums) + 1)
    best = cur[-1]
    col = 0
    while len(cur) >= 2:
        nxt = []
        for j in range(len(cur) - 1):
            den = cur[j + 1] - cur[j]
            if den == 0.0 or not math.isfinite(den):
                return best
            cand = prev[j + 1] + 1.0 / den
            if not math.isfinite(cand):
                return best
            nxt.append(cand)
        prev = cur
        cur = nxt
        col += 1
        if col % 2 == 0:
            best = cur[-1]
    return best


def integrate_oscillatory_improper(
    f: Callable[[float], float], domain: DomainSpec, cfg: QuadConfig | None = None
) -> QuadResult:
    """Integrate a decaying oscillation over [a, inf).

    Partial integrals between consecutive phase zeros are accelerated
    with Wynn's epsilon algorithm; ``abs_err_est`` tracks the last
    extrapolation increment.  If the inter-zero terms stop alternating
    after warm-up the kernel falls back to :func:`integrate_improper`
    and flags the result ``tail_truncated``.
    """
    cfg = cfg or _DEFAULT_CFG
    if domain.oscillatory_tail is None:
        raise ValueError("integrate_oscillatory_improper requires an oscillatory_tail")
    if math.isinf(domain.lower):
        raise ValueError("oscillatory domains must have a finite lower endpoint")
    if domain.lower_kind is not EndpointKind.REGULAR:
        raise ValueError("oscillatory domains require a regular lower endpoint")

    zero = domain.oscillatory_tail.phase_zero_rule
    a = domain.lower
    k0 = 1
    while zero(k0) <= a:
        k0 += 1
        if k0 > 1_000_000:
            raise ValueError("phase_zero_rule produced no zeros beyond the lower endpoint")

    fc = _Counted(f)
    seg_cfg = replace(
        cfg,
        abs_tol=max(0.02 * cfg.abs_tol, 1e-15),
        rel_tol=max(0.02 * cfg.rel_tol, 1e-15),
    )

    def segment(lo: float, hi: float) -> tuple[float, float]:
        v, e, _ = _adaptive_gk(fc, lo, hi, seg_cfg)
        return v, e

    head, head_err = segment(a, zero(k0))
    sums: list[float] = []
    seg_errs: list[float] = [head_err]
    terms: list[float] = []
    running = head
    best_prev = None
    best = head
    increment = math.inf

    for j in range(_OSC_MAX_TERMS):
        lo = zero(k0 + j)
        hi = zero(k0 + j + 1)
        s, e = segment(lo, hi)
        terms.append(s)
        seg_errs.append(e)
        running += s
        sums.append(running)

        if j >= _OSC_WARMUP:
            prev_term = terms[j - 1]
            noise = 10.0 * (seg_errs[j] + seg_errs[j + 1])
            if (
                abs(s) > noise
                and abs(prev_term) > noise
                and math.copysign(1.0, s) == math.copysign(1.0, prev_term)
            ):
                fallback_domain = DomainSpec(
                    a,
                    math.inf,
                    lower_kind=EndpointKind.REGULAR,
                    upper_kind=EndpointKind.INFINITE,
                )
                res = integrate_improper(f, fallback_domain, cfg)
                return QuadResult(
                    res.value,
                    res.abs_err_est,
                    fc.n + res.n_evals,
                    QuadStatus.TAIL_TRUNCATED,
                )

        if len(sums) >= 2:
            best = _wynn_best(sums)
            if best_prev is not None:
                increment = abs(best - best_prev)
                if len(sums) >= _OSC_MIN_TERMS and increment <= 0.25 * _tol_for(cfg, best):
                    break
            best_prev = best

    err_sum = math.fsum(seg_errs)
    est = (4.0 * increment if math.isfinite(increment) else abs(best)) + err_sum
    status = (
        QuadStatus.CONVERGED if est <= _tol_for(cfg, best) else QuadStatus.MAX_DEPTH
    )
    return QuadResult(best, est, fc.n, status)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def integrate(
    f: Callable[[float], float], domain: DomainSpec, cfg: QuadConfig | None = None
) -> QuadResult:
    """Route to the kernel matching the domain's endpoint classification."""
    if domain.oscillatory_tail is not None:
        return integrate_oscillatory_improper(f, domain, cfg)
    if EndpointKind.INFINITE in (domain.lower_kind, domain.upper_kind):
        return integrate_improper(f, domain, cfg)
    if EndpointKind.INTEGRABLE_SINGULARITY in (domain.lower_kind, domain.upper_kind):
        return integrate_singular(f, domain, cfg)
    return integrate_finite(f, domain, cfg)
