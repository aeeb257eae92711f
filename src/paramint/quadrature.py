"""One-dimensional quadrature kernels with error estimates.

Four kernels cover the interval classes that parametric integrals
produce in practice:

* :func:`integrate_finite` -- adaptive bisection on a nested
  Gauss-Kronrod (7, 15) pair for finite intervals with a regular
  integrand.
* :func:`integrate_singular` -- a tanh-sinh (double-exponential)
  rule for finite intervals whose integrand blows up integrably at
  one or both endpoints.  The integrand is never evaluated exactly
  at a singular endpoint; one that can take its distance to the
  endpoint exactly opts in through ``near``.
* :func:`integrate_improper` -- compactifies a semi-infinite domain
  with x = s/(1-s); Gauss-Kronrod covers the head (tanh-sinh on x itself
  at a singular lower end), and tanh-sinh covers the tail all the way to
  the infinite end, which it samples through the exact complement 1 - s.
* :func:`integrate_oscillatory_improper` -- one Ooura-Mori
  double-exponential sum in the tail's phase index, whose nodes approach
  the oscillation's zeros double exponentially, after a Gauss-Kronrod
  head when the lower end is not itself a zero.

Every kernel returns a :class:`QuadResult`, a named tuple of the value,
an absolute error estimate, the evaluation count, and a status.  All
kernels are pure functions of their arguments: integrands must be
stateless, and identical inputs produce bit-identical results.  The one
state the module keeps is node plans, which depend on the interval and
never on the integrand, built the first time a key is reached, read-only
after, and kept in bounded least-recently-used caches: a Gauss-Kronrod
panel's abscissae for the last 256 panels (``_gk_nodes``, at most about
0.16 MB); a half-line head panel's x and Jacobian for the last 64
(``_head_nodes``, 0.08 MB); one side of a tanh-sinh level's arguments,
weights and cut for the last 64 (``_ts_side``: a level-12 side holds
11,105 rows, so at most about 12 MB); and the oscillatory levels mapped
through a tail for the last 32 (``_de_nodes``).  A plan holds exactly
what each node would compute for itself, by the same operations, so
results do not depend on which plans are already built.
"""

from __future__ import annotations

import enum
import functools
import heapq
import math
import operator
from array import array
from dataclasses import dataclass, replace
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

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

    ``phase_zero_rule(kappa)`` maps the phase index kappa to x: the zeros
    of the oscillation on the tail sit at the integers (k = 1, 2, ...; the
    lower end may be k = 0, and rule(0) is read only to see whether it is,
    a ValueError there meaning no), and the kernel reads the rule at real kappa
    too, so it must be strictly increasing and unbounded there.
    ``zero_rate(kappa)`` is its derivative dx/dkappa, finite and positive
    past k = 0.  Every zero and rate is checked as it is read (``_zero``,
    ``_rate``); here the rule at k = 1, ..., 6 and the rate halfway to the
    next zero, against a central difference of the rule there.
    """

    phase_zero_rule: Callable[[float], float]
    zero_rate: Callable[[float], float]

    def __post_init__(self):
        z, step = -math.inf, 2.0 ** -10
        for k in range(1, 7):
            below = self._zero(k + 0.5 - step, self._zero(k, z))
            z = self._zero(k + 0.5 + step, below)
            slope, rate = (z - below) / (2.0 * step), self._rate(k + 0.5)
            # the difference is known to eps |x| at each end
            if not abs(slope - rate) <= 1e-6 * rate + _EPS * abs(z) / step:
                raise ValueError("zero_rate must be dx/dk of phase_zero_rule")

    def _zero(self, k: float, past: Optional[float] = None) -> float:
        """rule(k), the rule's one reader: an arithmetic error reads as inf;
        given the zero before it, ``past``, one not finite and past it raises."""
        try:
            z = self.phase_zero_rule(k)
        except ArithmeticError:
            z = math.inf
        if past is not None and not past < z < math.inf:
            raise ValueError("phase_zero_rule must be strictly increasing")
        return z

    def _rate(self, k: float) -> float:
        """dx/dkappa at k, the rate's one reader: one that is not finite and
        positive, or raises an arithmetic error, raises ValueError."""
        try:
            r = self.zero_rate(k)
        except ArithmeticError:
            r = math.nan
        if not 0.0 < r < math.inf:
            raise ValueError("zero_rate must be finite and positive")
        return r


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
        cls, lower: float, phase_zero_rule: Callable[[float], float],
        zero_rate: Callable[[float], float],
    ) -> "DomainSpec":
        return cls(
            lower,
            math.inf,
            upper_kind=EndpointKind.INFINITE,
            oscillatory_tail=OscillatoryTail(phase_zero_rule, zero_rate),
        )


@dataclass(frozen=True)
class QuadConfig:
    """Budgets and tolerances shared by all kernels."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self):
        # a bool is an int to isinstance, and True would pass as 1
        for name in ("abs_tol", "rel_tol"):
            v = getattr(self, name)
            if isinstance(v, bool) or not (
                    isinstance(v, (int, float)) and v > 0 and math.isfinite(v)):
                raise ValueError(f"{name} must be a finite positive number, got {v!r}")
        n = self.max_subdivisions
        if isinstance(n, bool) or not (isinstance(n, int) and n > 0):
            raise ValueError("max_subdivisions must be a positive integer")


class QuadResult(NamedTuple):
    value: float
    abs_err_est: float
    n_evals: int
    status: QuadStatus


_DEFAULT_CFG = QuadConfig()


def _tol_for(cfg: QuadConfig, value: float) -> float:
    return max(cfg.abs_tol, cfg.rel_tol * abs(value))


def _status(cfg: QuadConfig, value: float, est: float, *parts: QuadStatus) -> QuadStatus:
    """The worst status of the ``parts`` when one is not converged; else
    converged if ``est`` meets the tolerance at ``value``, and max_depth if not."""
    if parts.count(QuadStatus.CONVERGED) < len(parts):
        return max(parts, key=_STATUS_RANK.get)
    return QuadStatus.CONVERGED if est <= _tol_for(cfg, value) else QuadStatus.MAX_DEPTH


@functools.lru_cache(maxsize=256)
def _scaled(cfg: QuadConfig, share: float, floor: float = 0.0) -> QuadConfig:
    """``cfg`` with both tolerances times ``share``, and each at least ``floor``; cached."""
    return replace(
        cfg, abs_tol=max(share * cfg.abs_tol, floor), rel_tol=max(share * cfg.rel_tol, floor)
    )


def _fsum(terms: Iterable[float]) -> float:
    """``math.fsum`` of ``terms``; a sum that is not finite is a QuadratureError."""
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):  # finite terms overflow, or inf + -inf
        total = math.nan
    if not math.isfinite(total):
        raise QuadratureError("the quadrature sum is not finite: the integral overflows")
    return total


class _Counted:
    """Wraps an integrand, or its offset form ``near(end, d)`` = f(end + d),
    or its mirror f(-u) with ``mirror``: counts calls on ``fc`` (itself by
    default; the wrapper of f for an offset form) and rejects non-finite
    values.  A failing call raises at its abscissa: x, end + d for a
    two-argument (offset) call, or x = -u for a mirror.  ``near``, if
    given, is the map's own offset form, read once where f is wrapped.

    A batch (``run``, ``many``) runs first on ``raw``, the map unchecked
    and uncounted; a non-finite value makes the plain sum non-finite, so
    one test covers it, and a batch that passes counts one call per value.
    One that raises or fails is rerun once on the checked call, which
    raises at its first failing node in batch order; a batch of finite
    values whose sum merely overflows costs that rerun and nothing else.
    """

    __slots__ = ("raw", "n", "fc", "mirror", "near")

    def __init__(
        self, f: Callable[..., float], fc: Optional[_Counted] = None,
        mirror: bool = False, near: Optional[Callable[[float, float], float]] = None,
    ):
        self.raw = f
        self.n = 0
        self.fc = fc or self
        self.mirror = mirror
        self.near = near

    def __call__(self, *args: float) -> float:
        self.fc.n += 1
        try:
            v = self.raw(*args)
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            raise EvaluationError(self._at(args), math.inf) from exc
        if not math.isfinite(v):
            raise EvaluationError(self._at(args), v)
        return v

    def _at(self, args: tuple[float, ...]) -> float:
        x = args[0] + args[1] if len(args) == 2 else args[0]
        return -x if self.mirror else x

    def run(
        self, sweep: Callable[..., tuple[list[float], object]], arg: object
    ) -> tuple[list[float], object]:
        """``sweep(fn, arg)``, whose first item lists one value per node (a
        tanh-sinh sweep), as one checked batch."""
        try:
            out = sweep(self.raw, arg)
            if math.isfinite(sum(out[0])):
                self.fc.n += len(out[0])
                return out
        except Exception:
            pass
        return sweep(self, arg)

    def many(self, xs: Sequence[float], values: Optional[Callable] = None) -> list[float]:
        """The map at every node of ``xs`` (a panel, an Ooura-Mori level) as one
        checked batch; ``values()``, if given, computes them unchecked from a plan."""
        try:
            vs = values() if values else list(map(self.raw, xs))
            if math.isfinite(sum(vs)):
                self.fc.n += len(vs)
                return vs
        except Exception:
            pass
        return [self(x) for x in xs]

    def panel(self, a: float, b: float) -> list[float]:
        """The map at the nodes of the Gauss-Kronrod panel [a, b] as one checked batch."""
        return self.many(_gk_nodes(a, b))


# ---------------------------------------------------------------------------
# Gauss-Kronrod (7, 15) pair on [-1, 1]: the centre, then the symmetric nodes'
# positive abscissae from the outside in.  wg is zero on Kronrod-only nodes.
# ---------------------------------------------------------------------------

_GK = (
    # abscissa xi (15 digits); gauss weight wg, kronrod weight wk: qk15's, each set sums to 2
    0.0, 0.417959183673469387755102040816327, 0.209482141084727828012999174891714,
    0.991455371120813, 0.0, 0.022935322010529224963732008058970,
    0.949107912342759, 0.129484966168869693270611432679082, 0.063092092629978553290700663189204,
    0.864864423359769, 0.0, 0.104790010322250183839876322541518,
    0.741531185599394, 0.279705391489276667901467771423780, 0.140653259715525918745189590510238,
    0.586087235467691, 0.0, 0.169004726639267902826583426598550,
    0.405845151377397, 0.381830050505118944950369775488975, 0.190350578064785409913256402421014,
    0.207784955007898, 0.0, 0.204432940075298892414161999234649,
)


@functools.lru_cache(maxsize=256)
def _gk_nodes(a: float, b: float) -> tuple[float, ...]:
    """The 15 abscissae of the panel [a, b]: the centre c, then each pair
    (c - h xi, c + h xi), h = (b - a)/2; kept for the last 256 panels."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    return (c, *(x for xi in _GK[3::3] for x in (c - h * xi, c + h * xi)))


def _gk_panel(f: _Counted, a: float, b: float) -> tuple[float, float, bool]:
    """Kronrod value, |kronrod - gauss| estimate and whether [a, b] may split
    (15 evals, one batch).  Abscissae lie 0.042 h apart or more, so they merge
    only if h < 64 ulps of max(|a|, |b|); merged ones may hide a jump, so the
    panel adds (b - a) times its samples' spread, and splits only if that is 0.
    Both sums add the centre's term, then each pair's."""
    (_, g0, k0, _, _, k1, _, g2, k2, _, _, k3,
     _, g4, k4, _, _, k5, _, g6, k6, _, _, k7) = _GK
    h = 0.5 * (b - a)
    vs = f.panel(a, b)
    v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13, v14 = vs
    kron = (k0 * v0 + k1 * (v1 + v2) + k2 * (v3 + v4) + k3 * (v5 + v6) + k4 * (v7 + v8)
            + k5 * (v9 + v10) + k6 * (v11 + v12) + k7 * (v13 + v14))
    gauss = g0 * v0 + g2 * (v3 + v4) + g4 * (v7 + v8) + g6 * (v11 + v12)
    err = abs(h * (kron - gauss))
    scale = b if b > -a else -a  # max(|a|, |b|), as a < b
    if h > 1.5e-14 * scale + 64 * 5e-324 or len(set(_gk_nodes(a, b))) == 15:
        return h * kron, err, True
    charge = (b - a) * (max(vs) - min(vs))
    return h * kron, err + charge, charge == 0.0


def _adaptive_gk(f: _Counted, a: float, b: float, cfg: QuadConfig) -> QuadResult:
    """Worst-panel-first adaptive Gauss-Kronrod bisection on [a, b] from its two
    halves (one panel if too narrow to halve), reporting at least 50 eps sum
    |value|, with ``f.fc``'s count so far as n_evals."""
    mid = 0.5 * (a + b)
    if not a < mid < b:
        v, e, _ = _gk_panel(f, a, b)
        e = max(e, 50.0 * _EPS * abs(v))
        return QuadResult(v, e, f.fc.n, _status(cfg, v, e))

    (v1, e1, split1), (v2, e2, split2) = _gk_panel(f, a, mid), _gk_panel(f, mid, b)
    # (-err, seq, a, b, value, err, may split)
    heap = [(-e1, 0, a, mid, v1, e1, split1), (-e2, 1, mid, b, v2, e2, split2)]
    heapq.heapify(heap)
    frozen = []  # panels that may not, or are too narrow to, split further
    seq = n_panels = 2
    total_v, total_e = v1 + v2, e1 + e2

    status = QuadStatus.CONVERGED
    while total_e > _tol_for(cfg, total_v):
        if n_panels >= cfg.max_subdivisions or not heap:
            status = QuadStatus.MAX_DEPTH
            break
        _, _, lo, hi, v, e, split = heapq.heappop(heap)
        m = 0.5 * (lo + hi)
        if not (split and lo < m < hi):
            frozen.append((v, e))
            continue
        v1, e1, split1 = _gk_panel(f, lo, m)
        v2, e2, split2 = _gk_panel(f, m, hi)
        heapq.heappush(heap, (-e1, seq, lo, m, v1, e1, split1))
        heapq.heappush(heap, (-e2, seq + 1, m, hi, v2, e2, split2))
        seq += 2
        total_v += v1 + v2 - v
        total_e += e1 + e2 - e
        n_panels += 1

    panels = [(v, e) for (_, _, _, _, v, e, _) in heap] + frozen
    value = _fsum(v for v, _ in panels)
    err = max(_fsum(e for _, e in panels), _fsum(50.0 * _EPS * abs(v) for v, _ in panels))
    return QuadResult(value, err, f.fc.n, _status(cfg, value, err, status))


def integrate_finite(
    f: Callable[[float], float], domain: DomainSpec, cfg: QuadConfig | None = None
) -> QuadResult:
    """Integrate a regular integrand over a finite interval."""
    cfg = cfg or _DEFAULT_CFG
    if domain.lower_kind is not EndpointKind.REGULAR or domain.upper_kind is not EndpointKind.REGULAR:
        raise ValueError("integrate_finite requires regular endpoints on both sides")
    return _adaptive_gk(_Counted(f), domain.lower, domain.upper, cfg)


# ---------------------------------------------------------------------------
# tanh-sinh rule for integrable endpoint singularities
# ---------------------------------------------------------------------------

_TS_MAX_LEVEL = 12
_PI_HALF = math.pi / 2.0
_TS_FLOOR = 2.0 ** -512  # a node at most this many half-widths from its end is cut


@functools.lru_cache(maxsize=64)
def _ts_side(m: int, a: float, b: float, upper: int, offset: bool) -> tuple[array, array, float]:
    """One side of tanh-sinh level m on [a, b]: each node's argument and
    weight, and the distance charged where the side is cut.

    Node i sits at t = k * 2**-m (k = i + 1 at level 0, the odd k = 2i + 1
    later), u = pi/2 * sinh t, delta = half * r inside the side's end, r =
    2 e**(-2u) / (1 + e**(-2u)), at the offset d = +-delta (+ from a), and
    weighs ``half * pi/2 * cosh t / cosh(u)**2``, which is at least delta.
    Its argument is d for an ``offset`` form, else x = end + d.  The side is
    cut at its first node with delta at or below the floor ``half *
    _TS_FLOOR`` (r < _TS_FLOOR by u near 178), so every node swept weighs
    more than 0, or, without ``offset``, whose x rounds onto the end; the
    cut charges max(floor, delta).  An end at zero never rounds onto itself:
    without the floor the nodes would descend until squared distances in
    the integrand underflow (log(s*s) at s ~ 1e-160).  At 2**-512 * half the
    charged mass is far below any tolerance, except at an infinite end whose
    tail decays barely faster than 1/x.  Kept for the last 64 keys.
    """
    half = 0.5 * (b - a)
    w_scale = half * _PI_HALF
    floor = half * _TS_FLOOR
    end, sign = (b, -1.0) if upper else (a, 1.0)
    h = 2.0 ** (-m)
    args, ws = array("d"), array("d")
    k = 1
    while True:
        t = k * h
        u = _PI_HALF * math.sinh(t)
        e2 = math.exp(-2.0 * u)
        delta = half * (2.0 * e2 / (1.0 + e2))
        x = end + sign * delta
        if delta <= floor or x == end and not offset:
            return args, ws, max(floor, delta)
        cosh_u = math.cosh(u)
        args.append(sign * delta if offset else x)
        ws.append(w_scale * math.cosh(t) / (cosh_u * cosh_u))
        k += 1 if m == 0 else 2


# An endpoint whose fitted exponent is at or below this is refused: |g| ~ d**p
# is not integrable for p <= -1, and the margin absorbs the fit's noise.
_REFUSE_EXPONENT = -0.999


def _fit_endpoint(
    g: Callable[[float], float],
    endpoint: float,
    into: float,
    width: float,
    rungs: int = 9,
) -> tuple[float, float]:
    """Fit |g| ~ C * d**p at distance d from ``endpoint`` (d toward ``into``).

    |g| is sampled on the ladder d = width * 2**-8, 2**-12, ... (``rungs``
    distances, stopping early once x rounds onto the endpoint); p is the
    median log-log slope between neighbouring samples that are both
    positive (0 when there is no such pair).  Returns (p, C) with p capped
    at 0, and C the largest |g| * d**-p over the last three positive
    samples, so the implied mass below a cutoff is conservative for bounded
    and logarithmic growth alike.  Raises NonIntegrableSingularityError when
    p <= ``_REFUSE_EXPONENT``.
    """
    direction = 1.0 if into > endpoint else -1.0
    vals = []
    for j in range(8, 8 + 4 * rungs, 4):
        d = width * 2.0 ** (-j)
        x = endpoint + direction * d
        if x == endpoint:
            break
        vals.append((d, abs(g(x))))
    slopes = sorted(
        (math.log(v2) - math.log(v1)) / (math.log(d2) - math.log(d1))
        for (d1, v1), (d2, v2) in zip(vals, vals[1:])
        if v1 > 0.0 and v2 > 0.0
    )
    i = len(slopes) // 2  # the middle slope, or the mean of the middle two
    p = (slopes[i] if len(slopes) % 2 else (slopes[i - 1] + slopes[i]) / 2) if slopes else 0.0
    if p <= _REFUSE_EXPONENT:
        raise NonIntegrableSingularityError(endpoint, p)
    p = min(p, 0.0)
    tail = [dv for dv in vals[-3:] if dv[1] > 0.0]
    return p, max((v * d ** (-p) for d, v in tail), default=0.0)


def _tanh_sinh(
    f: _Counted,
    a: float,
    b: float,
    lower_kind: EndpointKind,
    upper_kind: EndpointKind,
    cfg: QuadConfig,
) -> QuadResult:
    """Tanh-sinh on [a, b], with ``f.fc``'s count so far as n_evals.

    Each side of each level is one checked sweep (``f.run``) over that
    side's plan (``_ts_side``), which holds every node's argument and weight
    up to the side's cut, so the sweep only evaluates, weighs and stops on
    small terms.  Every node lies at a signed offset d from its end and is
    cut at or below the floor ``half * _TS_FLOOR``.  A wrapper that carries
    ``near`` (see :func:`integrate_singular`) is called with that exact
    offset; any other is called at x = end + d, and only its nodes are also
    cut where x rounds onto the end.  A side of kind ``INFINITE`` is the image of
    x = inf under a compactification: it is fitted where a sweep is first
    cut there, on a ladder that ends at the cut, and a fit that reads
    divergence or fails to evaluate charges an infinite allowance and ends
    the refinement instead of raising; so does a sweep there whose
    Jacobian-weighted value overflows where f itself is finite.  ``_status``
    judges the result, with the cut as the cause of a miss when its allowance
    alone passes the tolerance, or when the levels met it and the sum did not.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    width = b - a
    w_scale = half * _PI_HALF

    # Per side (0 = lower, 1 = upper): the endpoint, the other end and the
    # side's kind; the fit (p, C) of an integrable singularity, which also
    # rejects divergence, with C = 0 charging nothing on any other side; and
    # the largest distance from the endpoint at which a node was cut.
    sides = ((a, b, lower_kind), (b, a, upper_kind))
    fits = [
        _fit_endpoint(f, end, into, width)
        if kind is EndpointKind.INTEGRABLE_SINGULARITY else (0.0, 0.0)
        for end, into, kind in sides
    ]
    cut_delta = [0.0, 0.0]
    offset = f.near is not None
    swept = _Counted(f.near, f.fc, f.mirror) if offset else f

    def sweep(fn: Callable[..., float], upper: int) -> tuple[list[float], float]:
        """The w*f terms of one side of level m, outward from the middle,
        over its plan (``_ts_side``), and the distance charged for a cut
        node (0.0 when none was cut, or the terms stopped small first)."""
        end, _, kind = sides[upper]
        args, ws, cut = _ts_side(m, a, b, upper, offset)
        terms = []
        small_run = 0
        last = math.inf
        for arg, w in zip(args, ws):
            c = w * (fn(end, arg) if offset else fn(arg))
            terms.append(c)
            # A small term that is larger than the one before it is mid-sweep
            # (e.g. a slowly decaying tail still rising), not the end.
            size = abs(c)
            if size < tiny and size <= last:
                small_run += 1
                if small_run >= 3:
                    return terms, 0.0
            else:
                small_run = 0
            last = size
        if small_run and kind is EndpointKind.INFINITE:
            # A small-term stop at the cut: the terms had already vanished,
            # and a fit at the cut would sample x near 1e155, where many
            # integrands overflow.
            return terms, 0.0
        return terms, cut

    contributions: list[float] = []  # every accepted w*f term, any level
    if w_scale != 0.0:  # the weight of the middle node t = 0
        contributions.append(w_scale * f(mid))
    # the small-term cutoff's scale: the middle term's size, then level 0's
    # largest, which cancellation cannot shrink as it can the level's value
    top = max(map(abs, contributions), default=0.0)
    prev_value = 0.0
    level_diff = 0.0  # prev_diff at level 1, which always runs
    refused = False  # an infinite side's fit read divergence
    for m in range(_TS_MAX_LEVEL + 1):
        h = 2.0 ** (-m)
        tiny = 1e-18 * top
        for upper in (1, 0):
            end, into, kind = sides[upper]
            try:
                terms, cut = swept.run(sweep, upper)
            except EvaluationError:  # refused as a divergent fit is, if only f/om**2 failed
                if kind is not EndpointKind.INFINITE or not swept.overflowed:
                    raise
                terms, cut, refused = [], 0.0, True
            contributions += terms
            if cut > cut_delta[upper]:
                cut_delta[upper] = cut
                if kind is EndpointKind.INFINITE:
                    # The ladder ends at the cut: growth far from the cut
                    # says nothing about the mass below it.
                    try:
                        fits[upper] = _fit_endpoint(f, end, into, cut * 2.0 ** 40)
                    except (NonIntegrableSingularityError, EvaluationError):
                        refused = True
        value = h * _fsum(contributions)
        if m == 0:
            top = max(map(abs, contributions), default=0.0)
        if refused:
            break  # the estimate is infinite whatever the later levels add
        if m > 0:
            prev_diff, level_diff = level_diff, abs(value - prev_value)
            if level_diff <= 0.25 * _tol_for(cfg, value) or level_diff < 4.0 * _EPS * abs(value):
                break
        prev_value = value
    else:
        # Out of levels.  Next to an infinite end the compactified integrand
        # can oscillate without bound (sin x becomes sin((1 - om)/om)), so
        # the level differences jump and the last one alone can undershoot.
        if EndpointKind.INFINITE in (lower_kind, upper_kind):
            level_diff = max(level_diff, prev_diff)

    # mass potentially lost where abscissae round onto a singular end or pass the floor
    allowance = math.inf if refused else 0.0
    for (p_eff, c_hat), dc in zip(fits, cut_delta):
        if dc > 0.0 and c_hat > 0.0:
            allowance += 3.0 * c_hat * dc ** (1.0 + p_eff) / (1.0 + p_eff)

    est = level_diff if math.isfinite(level_diff) else abs(value)
    est = est + allowance + _EPS * abs(value)
    tol = _tol_for(cfg, value)
    cut = (QuadStatus.TAIL_TRUNCATED if allowance > tol or level_diff <= tol < est
           else QuadStatus.CONVERGED)
    return QuadResult(value, est, f.fc.n, _status(cfg, value, est, cut))


def integrate_singular(
    f: Callable[[float], float], domain: DomainSpec, cfg: QuadConfig | None = None
) -> QuadResult:
    """Integrate over a finite interval with integrable endpoint singularities.

    ``f`` may opt in to exact node offsets by carrying an attribute
    ``near``: ``f.near(end, d)`` must return f(end + d), computed from the
    signed offset d itself (d > 0 from the lower end, d < 0 from the upper
    one).  Its nodes then never round onto an endpoint, so a singularity
    that depends on the distance to the end, like 1/sqrt(1 - x) at x = 1,
    is sampled down to offsets far below ulp(end).
    """
    cfg = cfg or _DEFAULT_CFG
    for kind in (domain.lower_kind, domain.upper_kind):
        if kind is EndpointKind.INFINITE:
            raise ValueError("integrate_singular requires finite endpoints")
    fc = _Counted(f, near=getattr(f, "near", None))
    return _tanh_sinh(fc, domain.lower, domain.upper, domain.lower_kind, domain.upper_kind, cfg)


# ---------------------------------------------------------------------------
# semi-infinite domains
# ---------------------------------------------------------------------------

class _Compactified(_Counted):
    """g(s) = f(a + s/om) / (om*om), om = 1 - s, over a counted f on [a, inf).

    With ``complement`` the argument is om itself, the exact distance to
    the infinite end s = 1, so a node next to that end never rounds onto
    it: x = a + (1 - om)/om.  Evaluations are counted on ``fc``, and g has
    no offset form.  A failing node raises as two nested checks would: at
    x when f itself fails, at s when only the Jacobian-weighted value does,
    which also sets ``overflowed``.  A checked batch needs one finiteness
    test for both, because a non-finite f stays non-finite after the
    division.  The head (no ``complement``) is batched by Gauss-Kronrod
    panels through their plans (``panel``), and has no ``raw``; the tail by
    tanh-sinh sweeps through ``raw`` in om.
    """

    __slots__ = ("a", "complement", "overflowed")

    def __init__(self, fc: _Counted, a: float, complement: bool = False):
        f = fc.raw

        def raw(om: float) -> float:
            return f(a + (1.0 - om) / om) / (om * om)

        super().__init__(raw if complement else None, fc)
        self.a = a
        self.complement = complement
        self.overflowed = False

    def __call__(self, t: float) -> float:
        # om > 0 on every node: the division cannot raise
        s, om = (1.0 - t, t) if self.complement else (t, 1.0 - t)
        v = self.fc(self.a + s / om) / (om * om)
        if not math.isfinite(v):
            self.overflowed = True
            raise EvaluationError(s, v)
        return v

    def panel(self, a: float, b: float) -> list[float]:
        """g at the nodes of the head panel [a, b] in s: one map of f over the
        planned x, one of the division by the planned om**2 (``_head_nodes``)."""
        ss, xs, om2 = _head_nodes(self.a, a, b)
        f, div = self.fc.raw, operator.truediv
        return self.many(ss, lambda: list(map(div, map(f, xs), om2)))


@functools.lru_cache(maxsize=64)
def _head_nodes(a: float, lo: float, hi: float) -> tuple[tuple[float, ...], ...]:
    """The nodes s of the panel [lo, hi] of a half-line head from a, and at
    each x = a + s/om and om**2, om = 1 - s; kept for the last 64 keys."""
    ss = _gk_nodes(lo, hi)
    return ss, tuple(a + s / (1.0 - s) for s in ss), tuple((1.0 - s) * (1.0 - s) for s in ss)


def _improper_semi(
    fc: _Counted, a: float, lower_kind: EndpointKind, cfg: QuadConfig
) -> QuadResult:
    """[a, inf) split at x = a + x_m into a head at 0.9 of the tolerance and
    a tail at 0.1 of it.  A regular head runs Gauss-Kronrod on s in [0, s_m],
    x = a + s/(1 - s); a singular one runs tanh-sinh on x in [a, a + x_m]
    itself, as any finite singular end does.  The tail runs tanh-sinh over
    om = 1 - s in [0, 1 - s_m], out to the infinite end om = 0.
    """
    x_m = max(8.0, 2.0 * abs(a) + 8.0)
    s_m = x_m / (1.0 + x_m)
    head_cfg = _scaled(cfg, 0.9)
    if lower_kind is EndpointKind.REGULAR:
        head = _adaptive_gk(_Compactified(fc, a), 0.0, s_m, head_cfg)
    else:
        head = _tanh_sinh(fc, a, a + x_m, lower_kind, EndpointKind.REGULAR, head_cfg)
    tail = _tanh_sinh(
        _Compactified(fc, a, complement=True), 0.0, 1.0 - s_m,
        EndpointKind.INFINITE, EndpointKind.REGULAR, _scaled(cfg, 0.1),
    )
    value = head[0] + tail[0]
    est = head[1] + tail[1]
    return QuadResult(value, est, fc.n, _status(cfg, value, est, head.status, tail.status))


def integrate_improper(
    f: Callable[[float], float], domain: DomainSpec, cfg: QuadConfig | None = None
) -> QuadResult:
    """Integrate over a domain with at least one infinite endpoint.

    [a, inf) is mapped to s in [0, 1) through x = a + s/(1-s).  The head,
    x up to a + max(8, 2|a| + 8), runs Gauss-Kronrod in s; at a singular
    lower end it runs tanh-sinh on x itself, which takes ``near`` as
    :func:`integrate_singular` does.  The tail runs tanh-sinh all the way
    to the infinite end.  Where its nodes pass the floor next to that end,
    the mass beyond is bounded by a fitted decay exponent and folded into
    ``abs_err_est``; a tail that decays like 1/x or slower gets an infinite
    estimate and ``tail_truncated``, as does one that overflows f/(1 - s)**2.
    (-inf, b] is [-b, inf) for f(-u), with near(end, d) = f.near(-end, -d),
    and (-inf, inf) is the sum of the half-lines from 0 for f(x) and for
    f(-u); f failing names x = -u.
    """
    cfg = cfg or _DEFAULT_CFG
    if domain.oscillatory_tail is not None:
        raise ValueError("integrate_improper does not accept an oscillatory tail")
    lo_inf = domain.lower_kind is EndpointKind.INFINITE
    hi_inf = domain.upper_kind is EndpointKind.INFINITE
    if not (lo_inf or hi_inf):
        raise ValueError("integrate_improper requires an infinite endpoint")

    near = getattr(f, "near", None)
    if not lo_inf:
        return _improper_semi(_Counted(f, near=near), domain.lower, domain.lower_kind, cfg)
    if hi_inf:  # [0, inf) for f, then (-inf, 0] as any (-inf, b] runs
        right = _improper_semi(_Counted(f, near=near), 0.0, EndpointKind.REGULAR, cfg)
    b, kind = (0.0, EndpointKind.REGULAR) if hi_inf else (domain.upper, domain.upper_kind)
    mirrored = _Counted(lambda u: f(-u), mirror=True, near=near and (lambda end, d: near(-end, -d)))
    left = _improper_semi(mirrored, -b, kind, cfg)
    if not hi_inf:
        return left
    value = left.value + right.value
    est = left.abs_err_est + right.abs_err_est
    status = _status(cfg, value, est, left.status, right.status)
    return QuadResult(value, est, left.n_evals + right.n_evals, status)


# ---------------------------------------------------------------------------
# oscillatory tails
# ---------------------------------------------------------------------------

# The Ooura-Mori transformation's beta, and its finest level: h = 2**-9.
_DE_BETA = 0.25
_DE_MAX_LEVEL = 7


def _de_row(n: int, h: float, alpha: float) -> tuple[float, float]:
    """Phase offset phi(t)/h and weight phi'(t) at t = n h, where
    phi(t) = t / (1 - e**-u), u = 2t + alpha (1 - e**-t) + beta (e**t - 1)
    (Ooura & Mori, J. Comput. Appl. Math. 112, 1999); at t = 0, their limits."""
    if n == 0:
        du, d2u = 2.0 + alpha + _DE_BETA, _DE_BETA - alpha
        return 1.0 / (h * du), 0.5 - d2u / (2.0 * du * du)
    t = n * h
    et = math.exp(t)
    u = 2.0 * t + alpha * (1.0 - 1.0 / et) + _DE_BETA * (et - 1.0)
    du = 2.0 + alpha / et + _DE_BETA * et
    if u > 0.0:  # d = 1 - e**-u, with no cancellation at small u
        e, d = math.exp(-u), -math.expm1(-u)
        return n / d, (d - t * du * e) / (d * d)
    e, d = math.exp(u), math.expm1(u)  # divided through by e**-u, which overflows as t falls
    return n * e / d, e * (d - t * du) / (d * d)


@functools.lru_cache(maxsize=32)
def _de_nodes(tail: OscillatoryTail, k0: int, m: int) -> tuple[array, array, array]:
    """Level m's nodes over the tail from its zero k0: abscissae x =
    rule(k0 + kappa), weights w = phi' dx/dkappa, and phi' |x| + 2|w|/pi,
    which sizes the rounding of node and term; rows n = 0, 1, ..., then -1, ...

    Level m has step h = 2**-(m + 2), M = pi/h and alpha = beta / sqrt(1 +
    M log(1 + M) / (4 pi)), beta = 1/4; row n lies at kappa = phi(nh)/h
    (``_de_row``).  As n grows, kappa tends to n, a zero, double
    exponentially, and the rows end before the first that rounds onto n;
    each x there is checked against the one before.  As n falls, kappa
    tends to 0: the rows end before the first below the smallest normal
    float, or at the first whose x rounds onto rule(k0) or onto the x
    above; each x must lie strictly between the two.  Kept, read-only, for
    the last 32 (tail, k0, level) keys.
    """
    h = 2.0 ** -(m + 2)
    big_m = math.pi / h
    alpha = _DE_BETA / math.sqrt(1.0 + big_m * math.log1p(big_m) / (4.0 * math.pi))
    z0 = tail._zero(k0)
    xs, ws, spread = array("d"), array("d"), array("d")

    def add(x: float, k: float, w: float) -> None:
        xs.append(x)
        ws.append(w * tail._rate(k0 + k))
        spread.append(w * abs(x) + 2.0 / math.pi * abs(ws[-1]))

    n, past = 0, z0
    while (row := _de_row(n, h, alpha))[0] != n:
        past = tail._zero(k0 + row[0], past)
        add(past, *row)
        n += 1
    n, past = -1, xs[0]
    while (row := _de_row(n, h, alpha))[0] >= 2.0 ** -1022:
        x = tail._zero(k0 + row[0])
        if x == z0 or x == past:
            break
        if not z0 < x < past:
            raise ValueError("phase_zero_rule must be strictly increasing")
        add(x, *row)
        past, n = x, n - 1
    return xs, ws, spread


def integrate_oscillatory_improper(
    f: Callable[[float], float], domain: DomainSpec, cfg: QuadConfig | None = None
) -> QuadResult:
    """Integrate a decaying oscillation over [a, inf).

    The tail from the first zero k0 at or past a is one Ooura-Mori sum in
    the phase index kappa: I = int f(rule(kappa)) rate(kappa) dkappa over
    kappa >= k0, on the nodes of ``_de_nodes``, which approach the zeros
    at integer kappa double exponentially, so no extrapolation is needed.
    Levels h = 1/4, 1/8, ... each run their own M = pi/h until
    |I_h - I_{h/2}| + eps |I| meets the tolerance; the finer sum is the
    value, and the estimate adds to that difference the phase error of
    abscissae known to eps |x|.  A lower end that is not a zero adds a
    Gauss-Kronrod head [a, rule(k0)] at half the tolerance, and the sum
    then runs at the other half.

    The first zero past a is found by doubling k, then bisecting; each zero
    is checked as it is read (see OscillatoryTail).
    """
    cfg = cfg or _DEFAULT_CFG
    if domain.oscillatory_tail is None:
        raise ValueError("integrate_oscillatory_improper requires an oscillatory_tail")
    if domain.lower_kind is not EndpointKind.REGULAR:
        raise ValueError("oscillatory domains require a regular lower endpoint")

    tail, a = domain.oscillatory_tail, domain.lower
    lo, k0 = 0, 1  # the bisection keeps zero(lo) <= a < zero(k0); zero(0) stands for a
    while (z := tail._zero(k0)) <= a and k0 < 1 << 62:
        lo, k0 = k0, 2 * k0
    if not a < z < math.inf:
        raise ValueError("phase_zero_rule produced no zeros beyond the lower endpoint")
    while k0 - lo > 1:
        mid = (lo + k0) // 2
        lo, k0 = (lo, mid) if tail._zero(mid) > a else (mid, k0)

    fc = _Counted(f)
    try:  # at lo = 0 the one read of rule(0), which may lie outside the rule's domain
        at_zero = tail._zero(lo) == a
    except ValueError:
        at_zero = False
    if at_zero:  # the lower end is itself a zero: no head
        k0, head, sum_cfg = lo, (0.0, 0.0, QuadStatus.CONVERGED), cfg
    else:
        sum_cfg = _scaled(cfg, 0.5)
        head = _adaptive_gk(fc, a, tail._zero(k0, a), sum_cfg)
    prev = math.nan
    for m in range(_DE_MAX_LEVEL + 1):
        xs, ws, spread = _de_nodes(tail, k0, m)
        vs = fc.many(xs)
        total = _fsum(map(operator.mul, ws, vs))
        value = head[0] + total
        diff = abs(total - prev) + _EPS * abs(value)
        if diff <= _tol_for(sum_cfg, value):
            break
        prev = total
    # x is known to eps |x|, a phase pi eps |x| / rate; a term w v rounds twice
    rounding = math.pi * _EPS * sum(map(abs, map(operator.mul, spread, vs)))
    est = head[1] + diff + rounding
    return QuadResult(value, est, fc.n, _status(cfg, value, est, head[-1]))


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
