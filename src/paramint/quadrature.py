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
  endpoint exactly opts in through ``near``, and one that is itself a
  quadrature can learn each node's weight through ``weighted``.
* :func:`integrate_improper` -- compactifies a semi-infinite domain
  with x = s/(1-s); Gauss-Kronrod covers the head, and tanh-sinh covers
  the tail all the way to the infinite end, which it samples through the
  exact complement 1 - s.
* :func:`integrate_oscillatory_improper` -- sums the integral between
  consecutive phase zeros and accelerates the alternating partial
  sums with Wynn's epsilon extrapolation.

Every kernel returns a :class:`QuadResult` carrying the value, an
absolute error estimate, the evaluation count, and a status.  All
kernels are pure functions of their arguments: integrands must be
stateless, and identical inputs produce bit-identical results.  The one
state the module keeps is the tanh-sinh node tables, built lazily, one
per level, the first time a level is reached, then shared by the whole
process and never written again (about 0.6 MB once level 12 exists).  A
table holds exactly what each node would compute for itself, so results
do not depend on which tables are already built.
"""

from __future__ import annotations

import enum
import heapq
import math
from array import array
from dataclasses import dataclass, replace
from statistics import median
from typing import Callable, Iterable, Optional, Sequence

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

    def __post_init__(self):
        for name in ("abs_tol", "rel_tol"):
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


def _fsum(terms: Iterable[float]) -> float:
    """``math.fsum`` of ``terms``; a sum that is not finite is a QuadratureError."""
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):  # finite terms overflow, or inf + -inf
        total = math.nan
    if not math.isfinite(total):
        raise QuadratureError("the quadrature sum is not finite: the integral overflows")
    return total


class _Checked:
    """The checked-batch contract shared by the integrand wrappers.

    A wrapper has a checked per-node ``__call__``, which counts the node
    and raises ``EvaluationError`` when it fails; the same map unchecked
    and uncounted as ``raw``; and ``_count(n)``, which counts n nodes.
    """

    __slots__ = ()

    def run(
        self, sweep: Callable[..., tuple[list[float], object]], arg: object
    ) -> tuple[list[float], object]:
        """``sweep(fn, arg)``, whose first item lists one value per node.

        The sweep runs first on ``raw``.  A non-finite value makes the sum
        non-finite, so one test covers the sweep, which then counts as one
        call per value.  If the sweep raises or fails that test, it is
        rerun on the checked ``__call__``, which raises at the first
        failing node in sweep order; a sweep of finite values whose sum
        merely overflows costs that rerun and nothing else.
        """
        try:
            out = sweep(self.raw, arg)
            if math.isfinite(sum(out[0])):
                self._count(len(out[0]))
                return out
        except Exception:
            pass
        return sweep(self, arg)

    def many(self, xs: Sequence[float]) -> list[float]:
        """The map at every node of ``xs`` (a Gauss-Kronrod panel) as one
        checked batch."""
        return self.run(self._batch, xs)[0]

    def _batch(
        self, fn: Callable[[float], float], xs: Sequence[float]
    ) -> tuple[list[float], None]:
        return [fn(x) for x in xs], None


class _Counted(_Checked):
    """Wraps an integrand: counts calls and rejects non-finite values."""

    __slots__ = ("raw", "n")

    def __init__(self, f: Callable[[float], float]):
        self.raw = f
        self.n = 0

    def __call__(self, x: float) -> float:
        self.n += 1
        try:
            v = self.raw(x)
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            raise EvaluationError(x, math.inf) from exc
        if not math.isfinite(v):
            raise EvaluationError(x, v)
        return v

    def _count(self, n: int) -> None:
        self.n += n


class _Form(_Checked):
    """An integrand's two-argument form, counted on ``fc``: its offset form
    ``near(end, d)`` = f(end + d), or its weighted form ``weighted(x, w)``
    = f(x) at a node of weight w.  A failing node raises at its abscissa,
    end + d or x."""

    __slots__ = ("fc", "raw", "offset")

    def __init__(self, fc: _Counted, form: Callable[[float, float], float], offset: bool):
        self.fc = fc
        self.raw = form
        self.offset = offset

    def __call__(self, u: float, v: float) -> float:
        self.fc.n += 1
        x = u + v if self.offset else u
        try:
            y = self.raw(u, v)
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            raise EvaluationError(x, math.inf) from exc
        if not math.isfinite(y):
            raise EvaluationError(x, y)
        return y

    def _count(self, n: int) -> None:
        self.fc.n += n


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
# Panel abscissae as offsets from the centre in units of the half-width, in
# evaluation order: the centre, then -xi, +xi for each tabulated node.
_GK_OFFSETS = (0.0,) + tuple(t for xi, _, _ in _GK_NODES for t in (-xi, xi))


def _gk_panel(
    f: _Counted | _Compactified, a: float, b: float
) -> tuple[float, float]:
    """Kronrod value and |kronrod - gauss| estimate on [a, b] (15 evals, one batch)."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    vs = f.many([c + h * t for t in _GK_OFFSETS])
    gauss = _GK_CENTER[0] * vs[0]
    kron = _GK_CENTER[1] * vs[0]
    for v1, v2, (_, wg, wk) in zip(vs[1::2], vs[2::2], _GK_NODES):
        s = v1 + v2
        kron += wk * s
        if wg != 0.0:
            gauss += wg * s
    return h * kron, abs(h * (kron - gauss))


def _adaptive_gk(
    f: _Counted | _Compactified, a: float, b: float, cfg: QuadConfig
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
    value = _fsum(p[2] for p in panels)
    err = _fsum(p[3] for p in panels)
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
_ts_tables: dict[int, tuple[array, array, array]] = {}  # level -> columns (r, cosh t, cosh u)


def _ts_level(m: int) -> tuple[array, array, array]:
    """Node table of tanh-sinh level m: columns r, cosh t and cosh u.

    Row i is the node t = k * 2**-m with k = i + 1 at level 0 and the odd
    k = 2i + 1 at later levels, and u = pi/2 * sinh t.  On an interval of
    half-width ``half`` the nodes at +-t lie ``half * r`` inside the
    endpoints, r = 2 e**(-2u) / (1 + e**(-2u)), and weigh
    ``half * pi/2 * cosh t / cosh(u)**2``.  The values depend on t alone
    and are odd or even in t, so one table serves both sides.  The last
    row is the first with u >= 350, where cosh u is stored as inf: its
    weight is 0 on every interval, so no sweep runs past it.  Built on
    first use and kept, read-only, for the process (see the module
    docstring).
    """
    table = _ts_tables.get(m)
    if table is None:
        h = 2.0 ** (-m)
        r, cosh_t, cosh_u = array("d"), array("d"), array("d")
        k = 1
        while True:
            t = k * h
            u = _PI_HALF * math.sinh(t)
            e2 = math.exp(-2.0 * u)
            r.append(2.0 * e2 / (1.0 + e2))
            cosh_t.append(math.cosh(t))
            if u >= 350.0:
                cosh_u.append(math.inf)
                break
            cosh_u.append(math.cosh(u))
            k += 1 if m == 0 else 2
        table = _ts_tables[m] = (r, cosh_t, cosh_u)
    return table


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
    slopes = [
        (math.log(v2) - math.log(v1)) / (math.log(d2) - math.log(d1))
        for (d1, v1), (d2, v2) in zip(vals, vals[1:])
        if v1 > 0.0 and v2 > 0.0
    ]
    p = median(slopes) if slopes else 0.0
    if p <= _REFUSE_EXPONENT:
        raise NonIntegrableSingularityError(endpoint, p)
    p = min(p, 0.0)
    tail = [dv for dv in vals[-3:] if dv[1] > 0.0]
    return p, max((v * d ** (-p) for d, v in tail), default=0.0)


def _tanh_sinh(
    f: _Counted | _Compactified,
    a: float,
    b: float,
    lower_kind: EndpointKind,
    upper_kind: EndpointKind,
    cfg: QuadConfig,
) -> tuple[float, float, QuadStatus]:
    """Value, error estimate and status of tanh-sinh on [a, b].

    Each side of each level is one checked sweep (``f.run``) over the
    level's node table.  Every node is computed as its signed offset d from
    its end.  An integrand that carries ``near`` (see
    :func:`integrate_singular`) is called with that exact offset; any other
    is called at x = end + d, and only its nodes are also cut where x
    rounds onto the end.  One that carries ``weighted`` instead is called
    as ``weighted(x, h*w)``, told the weight of the node in the level's
    sum; the middle node and the endpoint fits call it plainly.  A side of
    kind ``INFINITE`` is the image of x = inf under a compactification: it
    is fitted where a sweep is first cut there, on a ladder that ends at
    the cut, and a fit that reads divergence charges an infinite allowance
    and ends the refinement instead of raising.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    width = b - a
    w_scale = half * _PI_HALF

    # Per side (0 = lower, 1 = upper): the endpoint, the other end, the
    # side's kind and the sign of an offset into the interval; the fit
    # (p, C) of an integrable singularity, which also rejects divergence,
    # with C = 0 charging nothing on any other side; and the largest
    # distance from the endpoint at which a node was cut.
    sides = ((a, b, lower_kind, 1.0), (b, a, upper_kind, -1.0))
    fits = [
        _fit_endpoint(f, end, into, width)
        if kind is EndpointKind.INTEGRABLE_SINGULARITY else (0.0, 0.0)
        for end, into, kind, _ in sides
    ]
    cut_delta = [0.0, 0.0]
    # Endpoints at zero never round onto the endpoint, so without a floor
    # the node ladder descends until squared-distance terms inside the
    # integrand underflow to 0.0 (e.g. log(s*s) at s ~ 1e-160).  Nodes
    # below the floor are dropped and charged to the truncation allowance;
    # at 2^-512 * half the charged mass is far below any tolerance, except
    # at an infinite end whose tail decays barely faster than 1/x.
    delta_floor = half * 2.0 ** -512

    # The integrand's two-argument form, read once: the offset form wins.
    near = getattr(f.raw, "near", None)
    offset = near is not None
    form = near if offset else getattr(f.raw, "weighted", None)
    two_arg = form is not None
    swept = _Form(f, form, offset) if two_arg else f

    def sweep(fn: Callable[..., float], upper: int) -> tuple[list[float], float]:
        """The w*f terms of one side of the current level (its ``table``,
        ``h`` and ``tiny``), outward from the middle, and the distance
        charged for a cut node (0.0 when none was cut).  Each node lies at
        the signed offset d = +-half*r from the side's end, x = end + d; it
        is cut below the floor, or where x rounds onto the end unless the
        sweep runs through the offset form fn(end, d).  A weighted form is
        called as fn(x, h*w)."""
        end, _, kind, sign = sides[upper]
        terms = []
        small_run = 0
        last = math.inf
        for r, cosh_t, cosh_u in zip(*table):
            delta = half * r
            d = sign * delta
            x = end + d
            if delta < delta_floor or x == end and not offset:
                if small_run and kind is EndpointKind.INFINITE:
                    # A small-term stop: the terms had already vanished, and
                    # a fit at the cut would sample x near 1e155, where many
                    # integrands overflow.
                    break
                return terms, max(delta_floor, delta)
            w = w_scale * cosh_t / (cosh_u * cosh_u)
            if w == 0.0:
                break
            c = w * ((fn(end, d) if offset else fn(x, h * w)) if two_arg else fn(x))
            terms.append(c)
            # A small term that is larger than the one before it is mid-sweep
            # (e.g. a slowly decaying tail still rising), not the end.
            size = abs(c)
            if size < tiny and size <= last:
                small_run += 1
                if small_run >= 3:
                    break
            else:
                small_run = 0
            last = size
        return terms, 0.0

    contributions: list[float] = []  # every accepted w*f term, any level
    if w_scale != 0.0:  # the weight of the middle node t = 0
        contributions.append(w_scale * f(mid))
    prev_value = 0.0
    level_diff = 0.0  # prev_diff at level 1, which always runs
    refused = False  # an infinite side's fit read divergence
    for m in range(_TS_MAX_LEVEL + 1):
        h = 2.0 ** (-m)
        tiny = 1e-18 * (1.0 + abs(prev_value))
        table = _ts_level(m)
        for upper in (1, 0):
            terms, cut = swept.run(sweep, upper)
            contributions += terms
            if cut > cut_delta[upper]:
                cut_delta[upper] = cut
                end, into, kind, _ = sides[upper]
                if kind is EndpointKind.INFINITE:
                    # The ladder ends at the cut: growth far from the cut
                    # says nothing about the mass below it.
                    try:
                        fits[upper] = _fit_endpoint(f, end, into, cut * 2.0 ** 40)
                    except NonIntegrableSingularityError:
                        refused = True
        value = h * _fsum(contributions)
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

    # Mass potentially lost where abscissae round onto a singular endpoint
    # or pass the floor.
    allowance = math.inf if refused else 0.0
    for (p_eff, c_hat), dc in zip(fits, cut_delta):
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
    return value, est, status


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

    ``f`` without ``near`` may instead carry ``weighted``:
    ``f.weighted(x, w)`` must return f(x), and is told the weight w of the
    node in the sum of the level that evaluates it (later levels halve
    it, so w bounds the node's weight in the value), so that an integrand
    that is itself a quadrature can spend less accuracy where its value
    counts for little.  Only the sweeps call it; the middle node
    and the endpoint fits call ``f(x)``.  The opt-in is read once per call
    and changes neither the nodes nor the sum: the estimate and status are
    this kernel's alone, and the caller owes the error of each weighted
    value times its weight.
    """
    cfg = cfg or _DEFAULT_CFG
    if domain.oscillatory_tail is not None:
        raise ValueError("integrate_singular does not accept an oscillatory tail")
    for kind in (domain.lower_kind, domain.upper_kind):
        if kind is EndpointKind.INFINITE:
            raise ValueError("integrate_singular requires finite endpoints")
    fc = _Counted(f)
    value, err, status = _tanh_sinh(
        fc, domain.lower, domain.upper, domain.lower_kind, domain.upper_kind, cfg
    )
    return QuadResult(value, err, fc.n, status)


# ---------------------------------------------------------------------------
# semi-infinite domains
# ---------------------------------------------------------------------------

class _Compactified(_Checked):
    """g(s) = f(a + s/om) / (om*om), om = 1 - s, over a counted f on [a, inf).

    With ``complement`` the argument is om itself, the exact distance to
    the infinite end s = 1, so a node next to that end never rounds onto
    it: x = a + (1 - om)/om.  Evaluations are counted on ``fc``.  A failing
    node raises as two nested checks would: at x when f itself fails, at s
    when only the Jacobian-weighted value does.  A checked batch needs one
    finiteness test for both, because a non-finite f stays non-finite after
    the division.
    """

    __slots__ = ("fc", "a", "complement", "raw")

    def __init__(self, fc: _Counted, a: float, complement: bool = False):
        self.fc = fc
        self.a = a
        self.complement = complement
        f = fc.raw

        if complement:
            def raw(om: float) -> float:
                return f(a + (1.0 - om) / om) / (om * om)
        else:
            def raw(s: float) -> float:
                om = 1.0 - s
                return f(a + s / om) / (om * om)

        self.raw = raw

    def __call__(self, t: float) -> float:
        # om > 0 on every node: the division cannot raise
        s, om = (1.0 - t, t) if self.complement else (t, 1.0 - t)
        v = self.fc(self.a + s / om) / (om * om)
        if not math.isfinite(v):
            raise EvaluationError(s, v)
        return v

    def _count(self, n: int) -> None:
        self.fc.n += n

    def _batch(
        self, fn: Callable[[float], float], ss: Sequence[float]
    ) -> tuple[list[float], None]:
        # The unchecked pass writes ``raw`` out inline: a Python call per
        # node would add a tenth to the improper kernel's cost per eval.
        if fn is not self.raw or self.complement:
            return super()._batch(fn, ss)
        f, a = self.fc.raw, self.a
        return [f(a + s / (om := 1.0 - s)) / (om * om) for s in ss], None


def _improper_semi(
    fc: _Counted, a: float, lower_kind: EndpointKind, cfg: QuadConfig
) -> QuadResult:
    """[a, inf) as s in [0, 1), x = a + s/(1 - s), split at x = a + x_m.

    The head s in [0, s_m] runs Gauss-Kronrod (tanh-sinh when the lower end
    is singular) at 0.9 of the tolerance; the tail runs tanh-sinh at 0.1 of
    it, over om = 1 - s in [0, 1 - s_m], out to the infinite end om = 0.
    """
    x_m = max(8.0, 2.0 * abs(a) + 8.0)
    s_m = x_m / (1.0 + x_m)
    head_cfg = replace(cfg, abs_tol=0.9 * cfg.abs_tol, rel_tol=0.9 * cfg.rel_tol)
    tail_cfg = replace(cfg, abs_tol=0.1 * cfg.abs_tol, rel_tol=0.1 * cfg.rel_tol)
    g = _Compactified(fc, a)
    if lower_kind is EndpointKind.REGULAR:
        head = _adaptive_gk(g, 0.0, s_m, head_cfg)
    else:
        head = _tanh_sinh(g, 0.0, s_m, lower_kind, EndpointKind.REGULAR, head_cfg)
    tail = _tanh_sinh(
        _Compactified(fc, a, complement=True), 0.0, 1.0 - s_m,
        EndpointKind.INFINITE, EndpointKind.REGULAR, tail_cfg,
    )
    value = head[0] + tail[0]
    est = head[1] + tail[1]
    status = max(head[2], tail[2], key=_STATUS_RANK.get)
    if status is QuadStatus.CONVERGED and est > _tol_for(cfg, value):
        status = QuadStatus.MAX_DEPTH
    return QuadResult(value, est, fc.n, status)


def integrate_improper(
    f: Callable[[float], float], domain: DomainSpec, cfg: QuadConfig | None = None
) -> QuadResult:
    """Integrate over a domain with at least one infinite endpoint.

    [a, inf) is mapped to s in [0, 1) through x = a + s/(1-s).  The head,
    x up to a + max(8, 2|a| + 8), runs Gauss-Kronrod (tanh-sinh when the
    lower end is singular); the tail runs tanh-sinh all the way to the
    infinite end.  Where its nodes pass the floor next to that end, the mass
    beyond is bounded by a fitted decay exponent and folded into
    ``abs_err_est``; a tail that decays like 1/x or slower gets an infinite
    estimate and ``tail_truncated``.
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

    return _improper_semi(_Counted(f), domain.lower, domain.lower_kind, cfg)


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
                res = integrate_improper(f, DomainSpec.semi_infinite(a), cfg)
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
