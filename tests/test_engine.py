"""Workflow-layer tests: parameter domains, derivative-under-the-integral,
interchange checks, domination scans, reconstruction, and verification.

Uses two self-contained families with known closed forms:

* ``gauss``-type: f(x, a) = e^{-a x^2} on (0, inf), I(a) = (1/2)sqrt(pi/a)
* ``cosine``-type: f(x, a) = cos(a x) on [0, 1],  I(a) = sin(a)/a

plus a scaled family s(a) * shape(x) whose inner quadrature the nested
reconstruction tests choose.
"""

import dataclasses
import importlib.util
import json
import math
import random
import sys
from pathlib import Path
from typing import Callable

import pytest

from paramint import (
    Anchor,
    DegenerateWindowError,
    DominationVerdict,
    DomainSpec,
    EndpointKind,
    EvaluationError,
    InterchangeReport,
    MissingAnchorError,
    NonIntegrableSingularityError,
    OneSidedDifferenceError,
    ParamDomain,
    ParameterDomainError,
    ParametricIntegral,
    QuadConfig,
    QuadResult,
    QuadStatus,
    QuadratureError,
    deriv_under_integral,
    domination_scan,
    eval_direct,
    integrate,
    interchange_check,
    reconstruct,
    verify,
)
from paramint import catalog, engine, quadrature

from _oracles import (
    CATALOG_TRUTHS, EX3_ALPHA_FLOOR_TRUTHS, EX3_ALPHA_SWEEP_TRUTHS, EX3_ALPHA_TRUTHS,
    INTERCHANGE_POINT_TRUTHS, INTERCHANGE_TRUTHS, ITEM3_TRUTHS, interchange_truths,
)

# --- gauss-type family -----------------------------------------------------

def _gauss_f(x: float, a: float) -> float:
    return math.exp(-a * x * x)


def _gauss_da(x: float, a: float) -> float:
    return -x * x * math.exp(-a * x * x)


def _gauss_sol(a: float) -> float:
    return 0.5 * math.sqrt(math.pi / a)


def _gauss_rhs(a: float) -> float:
    return -0.25 * math.sqrt(math.pi) * a ** -1.5


def make_gauss(anchored: bool = True, with_rhs: bool = True) -> ParametricIntegral:
    return ParametricIntegral(
        integrand=_gauss_f,
        param_domain=ParamDomain(0.0, math.inf, lo_open=True),
        domain=DomainSpec.semi_infinite(0.0),
        d_alpha=_gauss_da,
        anchor=Anchor(1.0, _gauss_sol(1.0)) if anchored else None,
        rhs_closed=_gauss_rhs if with_rhs else None,
        solution_closed=_gauss_sol,
    )


# --- cosine-type family ----------------------------------------------------

def _cos_f(x: float, a: float) -> float:
    return math.cos(a * x)


def _cos_da(x: float, a: float) -> float:
    return -x * math.sin(a * x)


def _cos_sol(a: float) -> float:
    return math.sin(a) / a if a != 0.0 else 1.0


def _cos_rhs(a: float) -> float:
    if a == 0.0:
        return 0.0
    return (a * math.cos(a) - math.sin(a)) / (a * a)


def make_cos(with_da: bool = True, anchored: bool = False) -> ParametricIntegral:
    return ParametricIntegral(
        integrand=_cos_f,
        param_domain=ParamDomain(0.0, 2.0),
        domain=DomainSpec.finite(0.0, 1.0),
        d_alpha=_cos_da if with_da else None,
        anchor=Anchor(1.0, _cos_sol(1.0)) if anchored else None,
        solution_closed=_cos_sol,
    )


def _left_singular() -> ParametricIntegral:
    """d/da of (2.5 - x)**(a - 1) e^(x - 2.5) on (-inf, 2.5], whose upper
    end is singular: integrable for a > 0, not as a window reaches a ~ 0."""
    return ParametricIntegral(
        integrand=lambda x, a: (2.5 - x) ** (a - 1.0) * math.exp(x - 2.5),
        param_domain=ParamDomain(0.0, math.inf, lo_open=True),
        domain=DomainSpec(-math.inf, 2.5, lower_kind=EndpointKind.INFINITE,
                          upper_kind=EndpointKind.INTEGRABLE_SINGULARITY),
        d_alpha=lambda x, a: math.log(2.5 - x) * (2.5 - x) ** (a - 1.0) * math.exp(x - 2.5),
    )


# --- scaled family ----------------------------------------------------------

def make_scaled(
    shape, domain: DomainSpec, singular_anchor: bool, power: float = 0.7
) -> ParametricIntegral:
    """f(x, a) = s(a) * shape(x), anchored at I(0) = 0, with no closed rhs:
    s(a) = a**power, whose dI/da blows up at the anchor (a tanh-sinh
    parameter path, except that power = 1/2, a square root, is interpolated
    in s = sqrt(a)), or s(a) = a*a/2 (interpolated in alpha)."""
    if singular_anchor:
        s, ds = (lambda a: a ** power), (lambda a: power * a ** (power - 1.0))
    else:
        s, ds = (lambda a: 0.5 * a * a), (lambda a: a)
    return ParametricIntegral(
        integrand=lambda x, a: s(a) * shape(x),
        param_domain=ParamDomain(0.0, 4.0),
        domain=domain,
        d_alpha=lambda x, a: ds(a) * shape(x),
        anchor=Anchor(0.0, 0.0),
    )


def make_cos_sqrt(scale: float = 1e5, value0: float = 1e5 * 2.0 / 3.0) -> ParametricIntegral:
    """f(x, a) = value0 + scale (cos a - 1) sqrt(x) on [0, 1], anchored at
    I(0) = value0, with no closed rhs: I(a) = value0 + scale (cos a - 1) 2/3,
    whose dI/da reaches 2/3 scale.  The defaults give I(a) = 1e5 cos(a) 2/3."""
    return ParametricIntegral(
        integrand=lambda x, a: value0 + scale * (math.cos(a) - 1.0) * math.sqrt(x),
        param_domain=ParamDomain(0.0, 4.0),
        domain=DomainSpec.finite(0.0, 1.0),
        d_alpha=lambda x, a: -scale * math.sin(a) * math.sqrt(x),
        anchor=Anchor(0.0, value0),
    )


def _cos_sqrt_sol(a: float) -> float:
    return 1e5 * math.cos(a) * 2.0 / 3.0


def make_interior_root() -> ParametricIntegral:
    """f(x, a) = 2 sgn(a - 1) sqrt|a - 1| x on [0, 1], anchored at I(1) = 0
    inside the parameter domain [0, 4], with no closed rhs: dI/da =
    1/(2 sqrt|a - 1|) blows up like a square root at the anchor."""
    return ParametricIntegral(
        integrand=lambda x, a: math.copysign(2.0 * math.sqrt(abs(a - 1.0)), a - 1.0) * x,
        param_domain=ParamDomain(0.0, 4.0),
        domain=DomainSpec.finite(0.0, 1.0),
        d_alpha=lambda x, a: x / math.sqrt(abs(a - 1.0)),
        anchor=Anchor(1.0, 0.0),
        solution_closed=lambda a: math.copysign(math.sqrt(abs(a - 1.0)), a - 1.0),
    )


def _routes(P: ParametricIntegral, alphas, cfg: QuadConfig | None = None) -> list:
    """The routes by which reconstruct and verify rebuild ``alphas``, each
    once, in order: one interpolant that serves every point off the anchor,
    or the fallback alpha-quadrature of each."""
    got = engine._reconstruct_each(P, list(alphas), cfg or QuadConfig())
    return list(dict.fromkeys(route for _, route in got.values() if route is not None))


def _declined(monkeypatch) -> None:
    """Make every Chebyshev interpolant decline, so that each point takes
    the fallback alpha-quadrature over its own path."""
    monkeypatch.setattr(engine, "_chebyshev", lambda *args: None)


# ---------------------------------------------------------------------------
# parameter domains and model validation
# ---------------------------------------------------------------------------

class TestParamDomain:
    def test_membership(self):
        d = ParamDomain(0.0, 2.0, lo_open=True)
        assert d.contains(1.0)
        assert d.contains(2.0)
        assert not d.contains(0.0)       # open bound
        assert d.closure_contains(0.0)
        assert not d.contains(-1.0)
        assert not d.contains(math.nan)

    def test_interior_and_distance(self):
        d = ParamDomain(0.0, 2.0)
        assert d.is_interior(1.0)
        assert not d.is_interior(0.0)
        assert not d.is_interior(2.0)
        assert d.boundary_distance(0.5) == 0.5
        assert d.boundary_distance(1.75) == 0.25

    def test_infinite_side(self):
        d = ParamDomain(1.0, math.inf)
        assert d.contains(1e12)
        assert d.boundary_distance(3.0) == 2.0

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            ParamDomain(2.0, 1.0)

    def test_nan_bound_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            ParamDomain(0.0, math.nan)

    @pytest.mark.parametrize("domain, text", [
        # an infinite end is never attained, so it closes open whatever
        # the flag says
        (ParamDomain(1.0, math.inf), "[1, inf)"),
        (ParamDomain(-math.inf, 0.0, hi_open=True), "(-inf, 0)"),
        (ParamDomain(0.0, math.inf, lo_open=True), "(0, inf)"),
        # 12 significant digits: :g rounded 0.9999999 to 1
        (ParamDomain(0.0, 0.9999999), "[0, 0.9999999]"),
        (ParamDomain(0.0, 1.0, hi_open=True), "[0, 1)"),
    ])
    def test_describe(self, domain, text):
        assert domain.describe() == text

    @pytest.mark.parametrize("closure, alpha, message", [
        (False, 0.0, "alpha=0.0 outside the valid parameter domain (0, 2]"),
        (True, 2.5, "alpha=2.5 outside the closure of the parameter domain (0, 2]"),
        (True, math.nan, "alpha=nan outside the closure of the parameter domain (0, 2]"),
    ])
    def test_require_names_the_first_alpha_outside(self, closure, alpha, message):
        d = ParamDomain(0.0, 2.0, lo_open=True)
        d.require(1.0, 0.0, closure=True)  # the closure holds the open end
        with pytest.raises(ParameterDomainError) as info:
            d.require(1.0, alpha, 2.0, closure=closure)
        assert str(info.value) == message


class TestParametricIntegralValidation:
    def test_anchor_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            ParametricIntegral(
                integrand=_cos_f,
                param_domain=ParamDomain(0.0, 2.0),
                domain=DomainSpec.finite(0.0, 1.0),
                anchor=Anchor(5.0, 0.0),
            )

    def test_anchor_inconsistent_with_solution_rejected(self):
        with pytest.raises(ValueError):
            ParametricIntegral(
                integrand=_cos_f,
                param_domain=ParamDomain(0.0, 2.0),
                domain=DomainSpec.finite(0.0, 1.0),
                anchor=Anchor(1.0, _cos_sol(1.0) + 1e-6),
                solution_closed=_cos_sol,
            )


# ---------------------------------------------------------------------------
# direct evaluation and the derivative path
# ---------------------------------------------------------------------------

class TestEvalAndDeriv:
    def test_direct_matches_closed_form(self):
        P = make_cos()
        res = eval_direct(P, 2.0)
        assert abs(res.value - _cos_sol(2.0)) < 1e-12
        assert res.status is QuadStatus.CONVERGED

    def test_direct_out_of_domain(self):
        with pytest.raises(ParameterDomainError):
            eval_direct(make_cos(), 2.5)
        with pytest.raises(ParameterDomainError):
            eval_direct(make_gauss(), 0.0)  # open lower bound

    def test_closed_boundary_value_allowed(self):
        res = eval_direct(make_cos(), 2.0)
        assert math.isfinite(res.value)

    def test_deriv_analytic_rule(self):
        res = deriv_under_integral(make_cos(), 1.0)
        assert abs(res.value - _cos_rhs(1.0)) < 1e-12

    @pytest.mark.parametrize("alpha", [1.0, 1e-6, 1e-30, 1e-102])
    def test_algebraic_tail_at_small_alpha(self, alpha):
        # d/da of ex1 is 1/(1 + a x^2): an x**-2 tail that sets in only
        # beyond x ~ a**-0.5, so the mass sits far out on the half-line
        res = deriv_under_integral(catalog.get("ex1").parametric, alpha)
        true = math.pi / (2.0 * math.sqrt(alpha))
        assert res.status is QuadStatus.CONVERGED
        assert abs(res.value - true) <= res.abs_err_est
        assert abs(res.value - true) <= 1e-14 * true

    @pytest.mark.xfail(
        raises=QuadratureError, strict=True,
        reason="ROADMAP item 3: the integrand is ~alpha next to x = 0, so a "
               "weighted term or partial sum of the kernel's fsum overflows")
    def test_direct_at_the_largest_alpha(self):
        res = eval_direct(catalog.get("ex1").parametric, 1e308)
        assert abs(res.value - ITEM3_TRUTHS["ex1@1e+308.direct"]) <= res.abs_err_est

    @pytest.mark.xfail(
        raises=AssertionError, strict=True,
        reason="ROADMAP item 13: the mass of 1/(1 + a x^2) lies in x < a**-0.5, "
               "which the half-line kernel's head panels on [0, 8] never resolve")
    def test_deriv_at_huge_alpha_is_honest(self):
        res = deriv_under_integral(catalog.get("ex1").parametric, 1e16)
        err = abs(res.value - ITEM3_TRUTHS["ex1@1e+16.deriv"])
        assert err <= res.abs_err_est or res.status is not QuadStatus.CONVERGED

    def test_direct_with_cancelling_mass_is_honest(self):
        # I ~ -pi a**2/4 from an integrand near log(1) = 0: log((1 - a) +
        # 2 a s**2) rounded each value to ~eps, an error of 1.1e-16 against
        # an estimate of 6.5e-17; log1p(a sin t) leaves 1.2e-18
        alpha = 0.01678878558050519
        res = eval_direct(catalog.get("ex4").parametric, alpha)
        err = abs(res.value - ITEM3_TRUTHS[f"ex4@{alpha!r}.direct"])
        assert err <= res.abs_err_est or res.status is not QuadStatus.CONVERGED

    def test_deriv_outside_the_closure(self):
        with pytest.raises(ParameterDomainError, match="closure"):
            deriv_under_integral(make_cos(), 2.5)

    @pytest.mark.parametrize("param_domain, alpha", [
        (ParamDomain(0.0, 2.0), 1.0),
        (ParamDomain(0.0, 2.0), 2.0 - 1e-7),  # next to a bound
        (ParamDomain(0.0, 2.0), 0.0),  # on one
        (ParamDomain(0.0, 2.0), 2.0),
        (ParamDomain(0.0, math.inf), math.inf),
        (ParamDomain(-math.inf, 2.0), -math.inf),
    ])
    def test_deriv_without_d_alpha_is_refused(self, param_domain, alpha):
        # d f/d alpha comes from d_alpha alone: no difference of f stands
        # in, inside the domain or where one had no room, and f is not called
        seen = []
        P = dataclasses.replace(make_cos(with_da=False), param_domain=param_domain)
        with pytest.raises(ValueError, match="no d_alpha") as info:
            deriv_under_integral(_recording(P, seen), alpha)
        assert type(info.value) is ValueError and seen == []

    def test_deriv_at_boundary_with_d_alpha(self):
        res = deriv_under_integral(make_cos(), 0.0)
        assert abs(res.value - 0.0) < 1e-12


# ---------------------------------------------------------------------------
# interchange check
# ---------------------------------------------------------------------------

def _interchange_points():
    """Every interior catalog grid point; 6 alphas per entry drawn inside its
    grid hull where alpha +/- 1e-4 is valid; ex4 where the allowance
    decides; and make_cos next to its upper bound."""
    rng = random.Random(0)
    points = []
    for e in catalog.entries():
        P, grid = e.parametric, e.verification_grid
        points += [(e.id, a) for a in grid if P.param_domain.is_interior(a)]
        drawn = []
        while len(drawn) < 6:
            a = rng.uniform(min(grid), max(grid))
            if P.param_domain.contains(a - 1e-4) and P.param_domain.contains(a + 1e-4):
                drawn.append(a)
        points += [(e.id, a) for a in drawn]
    points += [("ex4", a) for a in (0.97, 0.999)]  # and the grid point 0.99
    # alpha +- 1e-4 is represented 1.83e-4 apart at 2e11, 8.45% short of 2h
    return points + [("make_cos", 2.0 - 1e-3), ("ex1", 2e11)]


def _recording(P, seen):
    """P whose integrand and d_alpha append ("f" or "d", alpha) to seen."""
    f, d = P.integrand, P.d_alpha  # a family without d_alpha keeps none

    def fr(x, a):
        seen.append(("f", a))
        return f(x, a)

    def dr(x, a):
        seen.append(("d", a))
        return d(x, a)
    return dataclasses.replace(P, integrand=fr, d_alpha=dr if d else None)


def _interchange_runs(monkeypatch, P, alpha):
    """interchange_check(P, alpha), with the quadratures of rhs and of the
    gap between f's central difference and d f/d alpha that it ran."""
    runs = []

    def captured(f, domain, cfg=None):
        runs.append(integrate(f, domain, cfg))
        return runs[-1]
    monkeypatch.setattr(engine, "integrate", captured)
    rep = interchange_check(P, alpha)
    return rep, runs[0], runs[1]  # rhs runs first


# parity points where lhs lies outside its estimate by the rounding of f at
# the gap's nodes, which no estimate charges
_UNCHARGED_ROUNDING = {("ex2", 4.931141904150612), ("make_cos", 1.999)}


class TestInterchange:
    @pytest.mark.parametrize("entry, alpha", _interchange_points(),
                             ids=lambda v: v if isinstance(v, str) else repr(v))
    def test_agrees_with_the_closed_forms(self, entry, alpha):
        # lhs against the closed form's difference quotient to within its
        # rounding floor, eps |I| / step (1.7e-6 at ex1's 2e11, where lhs
        # reads 4.6e-9 off; 1.2e-12 at most elsewhere), and rhs against dI/d
        # alpha, both by mpmath; every point passes
        P = make_cos() if entry == "make_cos" else catalog.get(entry).parametric
        rep = interchange_check(P, alpha)
        lhs, rhs = INTERCHANGE_POINT_TRUTHS[entry, alpha]
        floor = 2.0 ** -52 * abs(P.solution_closed(alpha)) / ((alpha + 1e-4) - (alpha - 1e-4))
        assert abs(rep.lhs - lhs) <= 1e-11 + 4.0 * floor
        assert abs(rep.rhs - rhs) <= 1e-11
        assert rep.discrepancy == abs(rep.lhs - rep.rhs)
        assert rep.passed and rep.tolerance_used >= 1e-5

    def test_lhs_divides_by_the_represented_step(self):
        # I(alpha) = (alpha - 2e11)/2 exactly up to the kernel's rounding:
        # alpha - 1e-4 and alpha + 1e-4 lie 1.83e-4 apart at alpha = 2e11, so
        # hi - lo over 2h read lhs 8.45% below rhs = 1/2, past the gate
        a0 = 2e11
        P = ParametricIntegral(
            integrand=lambda x, a: (a - a0) * x,
            param_domain=ParamDomain(0.0, math.inf),
            domain=DomainSpec.finite(0.0, 1.0),
            d_alpha=lambda x, a: x,
        )
        rep = interchange_check(P, a0)
        assert abs(rep.lhs - 0.5) <= 1e-14 and abs(rep.rhs - 0.5) <= 1e-14
        assert rep.passed and rep.tolerance_used == 1e-5

    def test_f_at_alpha_only_past_the_gate(self):
        seen = []
        rep = interchange_check(_recording(catalog.get("gauss").parametric, seen), 1.0)
        assert rep.discrepancy <= 1e-5 and rep.tolerance_used == 1e-5
        f_alphas = {a for k, a in seen if k == "f"}
        assert f_alphas == {1.0 - 1e-4, 1.0 + 1e-4}
        seen = []
        rep = interchange_check(_recording(catalog.get("ex4").parametric, seen), 0.99)
        assert rep.discrepancy > 1e-5 and ("f", 0.99) in seen

    def test_calls_over_the_interior_grid(self):
        # each node of the gap's mesh calls f twice and d f/d alpha once:
        # 5,910 and 2,730 while lhs was one quadrature of f's central
        # difference, 5,466 integrand calls while it differenced two direct
        # quadratures, each on its own mesh, and 8,061 when every check also
        # ran a third
        seen = []
        for e in catalog.entries():
            P = _recording(e.parametric, seen)
            for a in e.verification_grid:
                if P.param_domain.is_interior(a):
                    interchange_check(P, a)
        assert [sum(k == kind for k, _ in seen) for kind in "fd"] == [3394, 4202]

    def test_two_quadratures_below_the_gate_and_three_past_it(self, monkeypatch):
        domains = []

        def counted(f, domain, cfg=None):
            domains.append(domain)
            return integrate(f, domain, cfg)
        monkeypatch.setattr(engine, "integrate", counted)
        for entry, alpha, passes in (("gauss", 1.0, 2), ("ex4", 0.99, 3)):
            domains.clear()
            P = catalog.get(entry).parametric
            rep = interchange_check(P, alpha)
            assert (rep.discrepancy > 1e-5) is (passes == 3) and rep.passed
            assert domains == [P.domain_for(alpha)] * passes

    def test_lhs_at_its_rounding_floor_is_honest(self, monkeypatch):
        # ex1 at 2e11: f(x, alpha +- h) agree to the last bit at most nodes, so
        # one quadrature of f's central difference saw no noise and read 3.5e-6
        # off, converged, with an estimate of 7.6e-11.  The gap to d f/d alpha
        # is that noise at every node, and its kernel charges it: lhs reads
        # 4.6e-9 off, within 5.1e-8, and the gap stops at max_depth
        rep, rhs, gap = _interchange_runs(monkeypatch, catalog.get("ex1").parametric, 2e11)
        assert rep.lhs == rhs.value + gap.value and gap.status is QuadStatus.MAX_DEPTH
        truth = INTERCHANGE_POINT_TRUTHS["ex1", 2e11][0]
        assert abs(rep.lhs - truth) <= rhs.abs_err_est + gap.abs_err_est

    @pytest.mark.parametrize("entry, alpha", [
        pytest.param(*point, marks=pytest.mark.xfail(
            raises=AssertionError, strict=True,
            reason="ROADMAP item 15: the node rounding of f's central difference, "
                   "eps (|f(x, alpha + h)| + |f(x, alpha - h)|) / step, is not charged"))
        if point in _UNCHARGED_ROUNDING else point
        for point in _interchange_points()], ids=lambda v: v if isinstance(v, str) else repr(v))
    def test_lhs_within_its_estimate(self, monkeypatch, entry, alpha):
        # lhs is rhs plus the gap, value and estimate alike; against the
        # closed form's difference quotient its error lies within that sum
        # (ex2 at 4.93...: 1.16e-12 against 5.7e-13; make_cos at 1.999:
        # 1.04e-13 against 2.4e-14)
        P = make_cos() if entry == "make_cos" else catalog.get(entry).parametric
        rep, rhs, gap = _interchange_runs(monkeypatch, P, alpha)
        assert rep.lhs == rhs.value + gap.value
        truth = INTERCHANGE_POINT_TRUTHS[entry, alpha][0]
        assert abs(rep.lhs - truth) <= rhs.abs_err_est + gap.abs_err_est

    @pytest.mark.xfail(
        raises=AssertionError, strict=True,
        reason="ROADMAP item 21: the 1e-5 gate is absolute, so a family scaled "
               "small enough passes with any rhs")
    def test_gate_scales_with_the_family(self):
        # gauss with d f/d alpha doubled, rhs 100% wrong: the check fails it
        # as it stands, but times 2^-40 lhs reads -4.03e-13 and rhs -8.06e-13,
        # both under the gate
        G = catalog.get("gauss").parametric

        def scaled(s):
            return dataclasses.replace(G, integrand=lambda x, a: s * G.integrand(x, a),
                                       d_alpha=lambda x, a: 2.0 * s * G.d_alpha(x, a))
        assert interchange_check(scaled(1.0), 1.0).passed is False
        assert interchange_check(scaled(2.0 ** -40), 1.0).passed is False

    def test_lhs_is_the_difference_quotient_to_the_tolerance(self):
        # the difference of two direct quadratures read 1.2e-9 off, their
        # estimates divided by the step
        rep = interchange_check(catalog.get("ex3_beta").parametric, 10.0)
        assert rep.passed
        assert abs(rep.lhs - INTERCHANGE_TRUTHS["ex3_beta", 10.0]) <= 1e-9

    @pytest.mark.parametrize("alpha, err", [(1e6, 1e-10), (1e9, 3e-9)])
    def test_central_difference_stops_at_its_budget(self, alpha, err):
        # f ~ 0.7 alpha near x = alpha^-1/2 rounds to eps |f| at each node,
        # so over the step the central difference carries noise the
        # tolerance cannot reach: with no budget its quadrature ran 60,003
        # evaluations to max_depth and the check failed.  The gap to d f/d
        # alpha stops at two thirds of the panels rhs evaluated, two calls
        # of f and one of d f/d alpha a node (1,782 calls at 1e6, 2,498 at
        # 1e9), and its estimate still decides the gate; the difference of
        # two direct quadratures read 5.9e-8 off at 1e9
        seen = []
        rep = interchange_check(_recording(catalog.get("ex1").parametric, seen), alpha)
        assert rep.passed and len(seen) <= 2500
        assert abs(rep.lhs - INTERCHANGE_TRUTHS["ex1", alpha]) <= err

    @pytest.mark.parametrize("entry, alpha", [
        ("ex2", 1.001 - 5e-5), ("ex2", 1.001 + 5e-5), ("ex4", 0.995 - 5e-5), ("ex4", 0.995 + 5e-5)])
    def test_band_edge_within_the_step(self, entry, alpha):
        # alpha - h and alpha + h lie on either side of the band where the
        # x-domain's end kind changes; lhs runs on the domain at alpha
        P = catalog.get(entry).parametric
        assert P.domain_for(alpha - 1e-4) != P.domain_for(alpha + 1e-4)
        rep = interchange_check(P, alpha)
        assert rep.passed
        assert abs(rep.lhs - INTERCHANGE_TRUTHS[entry, alpha]) <= 1e-10

    def test_estimates_past_the_gate_fail_the_check(self):
        # two subdivisions stop both quadratures at max_depth, rhs with an
        # estimate of 2.7e-4; the discrepancy alone would pass the gate
        cfg = QuadConfig(max_subdivisions=2)
        P = catalog.get("gauss").parametric
        assert deriv_under_integral(P, 1.0, cfg).status is QuadStatus.MAX_DEPTH
        rep = interchange_check(P, 1.0, cfg)
        assert rep.discrepancy <= rep.tolerance_used
        assert not rep.passed

    def test_the_gaps_estimate_counts_in_the_verdict(self, monkeypatch):
        # gauss at 1 passes; the same gap with an estimate of 1e-4 is lhs's
        # estimate too, and fails the check
        runs = []

        def gap_unbounded(f, domain, cfg=None):
            runs.append(integrate(f, domain, cfg))
            return runs[-1]._replace(abs_err_est=1e-4) if len(runs) == 2 else runs[-1]
        monkeypatch.setattr(engine, "integrate", gap_unbounded)
        rep = interchange_check(catalog.get("gauss").parametric, 1.0)
        assert rep.discrepancy <= 1e-5 and not rep.passed

    def test_curvature_allows_only_its_least_value(self, monkeypatch):
        # ex4 at 0.99 passes only by the allowance; the same curvature with
        # an estimate as large as itself allows nothing, and fails it
        runs = []

        def third_unbounded(f, domain, cfg=None):
            res = integrate(f, domain, cfg)
            runs.append(res)
            if len(runs) < 3:
                return res
            return res._replace(abs_err_est=abs(res.value), status=QuadStatus.MAX_DEPTH)
        monkeypatch.setattr(engine, "integrate", third_unbounded)
        rep = interchange_check(catalog.get("ex4").parametric, 0.99)
        assert len(runs) == 3 and rep.tolerance_used == 1e-5
        assert not rep.passed

    def test_a_moving_bound_is_differenced_directly(self):
        # f = 1 on [0, alpha]: dI/d alpha = 1 comes from the moving end,
        # which the integral of d f/d alpha = 0 lacks, so the check fails
        P = ParametricIntegral(
            integrand=lambda x, a: 1.0,
            param_domain=ParamDomain(0.0, math.inf),
            domain=lambda a: DomainSpec.finite(0.0, a),
            d_alpha=lambda x, a: 0.0,
        )
        rep = interchange_check(P, 1.0)
        assert abs(rep.lhs - 1.0) <= 1e-12 and rep.rhs == 0.0
        assert not rep.passed
        # f = alpha - x vanishes at the moving end: dI/d alpha = alpha holds
        Q = dataclasses.replace(P, integrand=lambda x, a: a - x, d_alpha=lambda x, a: 1.0)
        rep = interchange_check(Q, 2.0)
        assert abs(rep.lhs - 2.0) <= 1e-9 and abs(rep.rhs - 2.0) <= 1e-12
        assert rep.passed

    @pytest.mark.parametrize("entry, alpha", [
        ("ex1", 1e13), ("gauss", 1e13), ("ex2", 1e13), ("ex3_beta", 1e13),
        ("ex1", 2.0 ** 40),  # alpha + 1e-4 rounds onto alpha, alpha - 1e-4 does not
    ])
    def test_step_lost_to_rounding_is_refused(self, entry, alpha):
        seen = []
        P = _recording(catalog.get(entry).parametric, seen)
        with pytest.raises(OneSidedDifferenceError, match="rounds away"):
            interchange_check(P, alpha)
        assert seen == []

    def test_passes_on_smooth_family(self):
        rep = interchange_check(make_gauss(), 1.0)
        assert isinstance(rep, InterchangeReport)
        assert rep.passed
        assert rep.discrepancy == abs(rep.lhs - rep.rhs)
        assert rep.tolerance_used >= 1e-5
        assert abs(rep.rhs - _gauss_rhs(1.0)) < 1e-9

    def test_lhs_is_a_difference_quotient(self):
        P = make_cos()
        rep = interchange_check(P, 1.0)
        expected = (_cos_sol(1.0 + 1e-4) - _cos_sol(1.0 - 1e-4)) / 2e-4
        assert abs(rep.lhs - expected) < 1e-9

    def test_boundary_point_rejected(self):
        with pytest.raises(ParameterDomainError):
            interchange_check(make_cos(), 0.0)

    def test_inflated_tolerance_near_boundary(self):
        # close to ex4's edge at 1 the discrepancy passes only because the
        # curvature allowance widens the gate (1.1e-3 and 0.35)
        for alpha in (0.99, 0.999):
            rep = interchange_check(catalog.get("ex4").parametric, alpha)
            assert rep.discrepancy > 1e-5
            assert rep.tolerance_used > rep.discrepancy
            assert rep.passed


# ---------------------------------------------------------------------------
# domination scan
# ---------------------------------------------------------------------------

class TestDomination:
    def test_gaussian_family_dominated(self):
        rep = domination_scan(make_gauss(), (0.5, 2.0))
        assert rep.verdict is DominationVerdict.DOMINATED
        # envelope is x^2 e^{-x^2/2}; its integral is sqrt(pi/2)
        exact = math.sqrt(math.pi / 2.0)
        assert abs(rep.envelope_integral_estimate - exact) / exact < 0.05
        xs = [x for x, _ in rep.envelope_samples]
        assert xs == sorted(xs)
        assert all(env >= 0.0 for _, env in rep.envelope_samples)

    def test_envelope_bounds_the_derivative(self):
        P = make_gauss()
        rep = domination_scan(P, (0.5, 2.0))
        for x, env in rep.envelope_samples[::16]:
            for a in (0.5, 0.8, 1.3, 2.0):
                assert env >= abs(_gauss_da(x, a)) - 1e-12 or env >= 0.0
                # the envelope is a max over sampled alphas; at window
                # endpoints it must dominate exactly
            assert env >= abs(_gauss_da(x, 0.5)) - 1e-12

    def test_divergent_window_flagged(self):
        P = ParametricIntegral(
            integrand=lambda x, a: math.log1p(a * x * x) / (x * x) if x else a,
            param_domain=ParamDomain(0.0, math.inf),
            domain=DomainSpec.semi_infinite(0.0),
            d_alpha=lambda x, a: 1.0 / (1.0 + a * x * x),
        )
        rep = domination_scan(P, (0.0, 1.0))
        assert rep.verdict is DominationVerdict.SUSPECT_DIVERGENT
        assert math.isinf(rep.envelope_integral_estimate)

    @pytest.mark.parametrize("d_alpha, match", [
        (lambda x, a: 1.0 / (a - 1.0), "failed"),
        (lambda x, a: math.inf if a == 1.0 else x, "non-finite"),
    ], ids=["raises", "non_finite"])
    def test_derivative_failing_inside_the_window(self, d_alpha, match):
        # alpha = 1 is the middle of the window's nine samples
        P = dataclasses.replace(make_cos(), d_alpha=d_alpha)
        with pytest.raises(DegenerateWindowError, match=match):
            domination_scan(P, (0.5, 1.5))

    @pytest.mark.parametrize("d_alpha", [
        lambda x, a: math.log(x + 2.0) if a == 1.0 else x,
        lambda x, a: math.inf if a == 1.0 and x < -2.0 else x,
    ], ids=["raises", "non_finite"])
    def test_failing_sample_names_the_declared_x(self, d_alpha):
        # (-inf, 0] is scanned from 0 down; the first midpoint past x = -2
        # fails, and both the message and the cause name it in the declared frame
        P = dataclasses.replace(
            make_gauss(),
            domain=DomainSpec(-math.inf, 0.0, lower_kind=EndpointKind.INFINITE),
            d_alpha=d_alpha,
        )
        x = -(16.5 * (32.0 / 257))
        with pytest.raises(DegenerateWindowError, match="failed at x=") as info:
            domination_scan(P, (0.5, 1.5))
        assert f"x={x!r} " in str(info.value)
        assert info.value.__cause__.abscissa == x

    def test_window_validation(self):
        P = make_gauss()
        with pytest.raises(DegenerateWindowError):
            domination_scan(P, (2.0, 0.5))
        with pytest.raises(ParameterDomainError):
            domination_scan(P, (-1.0, 1.0))

    @pytest.mark.parametrize("upper_inf, sides", [(False, 1), (True, 2)])
    def test_infinite_lower_end_dominated(self, upper_inf, sides):
        # (-inf, 0] is scanned from 0 down, (-inf, inf) on both sides of 0
        domain = DomainSpec(
            -math.inf, math.inf if upper_inf else 0.0,
            lower_kind=EndpointKind.INFINITE,
            upper_kind=EndpointKind.INFINITE if upper_inf else EndpointKind.REGULAR,
        )
        rep = domination_scan(dataclasses.replace(make_gauss(), domain=domain), (0.5, 2.0))
        assert rep.verdict is DominationVerdict.DOMINATED
        exact = sides * math.sqrt(math.pi / 2.0)
        assert abs(rep.envelope_integral_estimate - exact) / exact < 0.05

    def test_tail_far_from_the_origin(self):
        # on [1e155, inf) the tail fit's t = 1/x reaches 1e-167, whose
        # square is 0.0
        P = ParametricIntegral(
            integrand=lambda x, a: a * x ** -1.5,
            param_domain=ParamDomain(0.0, 1.0),
            domain=DomainSpec.semi_infinite(1e155),
            d_alpha=lambda x, a: x ** -1.5,
        )
        rep = domination_scan(P, (0.0, 1.0))
        assert rep.verdict is DominationVerdict.DOMINATED
        exact = 2.0 / math.sqrt(1e155)
        assert abs(rep.envelope_integral_estimate - exact) < 0.05 * exact

    def test_lower_infinite_samples_lie_in_the_domain(self):
        left = DomainSpec(-math.inf, 0.0, lower_kind=EndpointKind.INFINITE)
        P = dataclasses.replace(make_gauss(), domain=left)
        rep = domination_scan(P, (0.5, 2.0))
        assert all(x <= 0.0 for x, _ in rep.envelope_samples)
        for x, env in rep.envelope_samples:
            assert env >= abs(_gauss_da(x, 0.5))

    def test_singular_lower_end_probed(self):
        # d/da x^(a-1) e^-x = log(x) x^(a-1) e^-x: integrable at x = 0 for
        # a > 0, non-integrable once the window reaches down to a ~ 0
        P = ParametricIntegral(
            integrand=lambda x, a: x ** (a - 1.0) * math.exp(-x),
            param_domain=ParamDomain(0.0, math.inf, lo_open=True),
            domain=DomainSpec.semi_infinite(0.0, singular_lower=True),
            d_alpha=lambda x, a: math.log(x) * x ** (a - 1.0) * math.exp(-x),
        )
        rep = domination_scan(P, (0.5, 2.0))
        assert rep.verdict is DominationVerdict.DOMINATED
        with pytest.raises(DegenerateWindowError):
            domination_scan(P, (1e-300, 2.0))

    def test_ambiguous_tail_inconclusive(self):
        # envelope ~ log(x^2) x^(-1.04): too close to 1/x to call
        P = ParametricIntegral(
            integrand=lambda x, a: (1.0 + x * x) ** (-a),
            param_domain=ParamDomain(0.0, math.inf, lo_open=True),
            domain=DomainSpec.semi_infinite(0.0),
            d_alpha=lambda x, a: -math.log1p(x * x) * (1.0 + x * x) ** (-a),
        )
        rep = domination_scan(P, (0.52, 0.55))
        assert rep.verdict is DominationVerdict.INCONCLUSIVE
        assert math.isnan(rep.envelope_integral_estimate)

    def test_finite_endpoint_blow_up_rejected(self):
        # ex4's derivative grows like 1/(t + pi/2)^2 at t = -pi/2 when a = 1
        with pytest.raises(DegenerateWindowError):
            domination_scan(catalog.get("ex4").parametric, (0.0, 1.0))

    @pytest.mark.parametrize("x_domain", ["finite", "right", "left"])
    def test_every_finite_end_is_fitted(self, x_domain):
        # d f/d a = -e**-|x| / (|x| + a)**2 on [0, 1], [0, inf) and (-inf, 0]:
        # at a = 0 the envelope grows like x**-2 at the finite end x = 0,
        # which is declared regular, and is refused on the half-lines as on
        # [0, 1]; a window away from a = 0 keeps its estimate to the bit
        domain = {"finite": DomainSpec.finite(0.0, 1.0),
                  "right": DomainSpec.semi_infinite(0.0),
                  "left": DomainSpec(-math.inf, 0.0, lower_kind=EndpointKind.INFINITE)}[x_domain]
        P = ParametricIntegral(
            integrand=lambda x, a: math.exp(-abs(x)) / (abs(x) + a),
            param_domain=ParamDomain(0.0, math.inf, lo_open=True),
            domain=domain,
            d_alpha=lambda x, a: -math.exp(-abs(x)) / (abs(x) + a) ** 2,
        )
        with pytest.raises(DegenerateWindowError) as info:
            domination_scan(P, (0.0, 1.0))
        assert str(info.value) == (
            "envelope grows non-integrably toward x=0.0 (local exponent -2.000); "
            "the window touches a singular parameter value")
        rep = domination_scan(P, (0.5, 1.0))
        assert rep.verdict is DominationVerdict.DOMINATED
        estimate = 0.9967284438180485 if x_domain == "finite" else 1.0644780248116363
        assert rep.envelope_integral_estimate == estimate

    def test_mirrored_scan_messages_use_the_declared_frame(self):
        # (-inf, 2.5] is scanned from its singular end 2.5 down; the errors
        # name abscissae of the declared domain
        with pytest.raises(DegenerateWindowError, match=r"toward x=2\.5 "):
            domination_scan(_left_singular(), (1e-300, 2.0))
        # log(x + 3) fails for x <= -3, which the scan down from 0 reaches
        Q = dataclasses.replace(
            make_gauss(),
            domain=DomainSpec(-math.inf, 0.0, lower_kind=EndpointKind.INFINITE),
            d_alpha=lambda x, a: math.log(x + 3.0) * math.exp(a * x),
        )
        with pytest.raises(DegenerateWindowError, match=r"failed at x=-3\.") as info:
            domination_scan(Q, (0.5, 2.0))
        assert "x=3." not in str(info.value)

    @pytest.mark.parametrize("case, window, pins", [
        ("left", (0.5, 2.0), ("0x1.40d931ff62705p+0", "-0x1.fe01fe01fe020p-5",
                              "0x1.fb0a2c98addcbp-9", "-0x1.0000000000000p+45")),
        ("line", (0.5, 2.0), ("0x1.40d931ff62705p+1", "-0x1.fe01fe01fe020p+3",
                              "0x1.b0f452b6efd02p-176", "-0x1.0000000000000p+44")),
        ("left_singular", (0.5, 2.0), ("0x1.576666282e9fap+1", "0x1.3807f807f8080p+1",
                                       "0x1.4e97562e7a1f9p+3", "-0x1.d800000000000p+44")),
        ("left_singular", (1e-300, 2.0),
         "envelope grows non-integrably toward x=2.5 (local exponent -1.077); "
         "the window touches a singular parameter value"),
        ("left_log", (0.5, 2.0),
         "derivative sample failed at x=-3.0505836575875485 (math domain error): "
         "the window touches a singular parameter value"),
    ], ids=["left", "line", "left_singular", "left_singular_refused", "left_log_refused"])
    def test_lower_infinite_scan_bits(self, case, window, pins):
        # the estimate, the first and last samples (the last tail rung reads
        # 0.0) and the messages on (-inf, 0] and (-inf, inf), and on
        # (-inf, 2.5] with a singular end, to the bit: sampling down from b
        # rounds as sampling [-b, inf) up and negating, since rounding is
        # symmetric under negation
        left = DomainSpec(-math.inf, 0.0, lower_kind=EndpointKind.INFINITE)
        line = dataclasses.replace(left, upper=math.inf, upper_kind=EndpointKind.INFINITE)
        P = {"left": dataclasses.replace(make_gauss(), domain=left),
             "line": dataclasses.replace(make_gauss(), domain=line),
             "left_singular": _left_singular(),
             "left_log": dataclasses.replace(
                 make_gauss(), domain=left,
                 d_alpha=lambda x, a: math.log(x + 3.0) * math.exp(a * x))}[case]
        if isinstance(pins, str):
            with pytest.raises(DegenerateWindowError) as info:
                domination_scan(P, window)
            assert str(info.value) == pins
            return
        rep = domination_scan(P, window)
        assert rep.verdict is DominationVerdict.DOMINATED
        first, last = rep.envelope_samples[0], rep.envelope_samples[-1]
        got = (rep.envelope_integral_estimate, *first, *last)
        assert tuple(map(float.hex, got)) == (*pins, "0x0.0p+0")

    @pytest.mark.parametrize("p, integrable", [
        (-0.5, True), (-0.99, True), (-1.01, False), (-2.0, False),
    ])
    def test_one_refusal_rule_across_layers(self, p, integrable):
        # |g| = x**p at x = 0: the singular kernel and the scan sample the
        # same ladder, so they agree, and a refusal names the same exponent
        domain = DomainSpec.singular(0.0, 1.0, at_lower=True)
        P = ParametricIntegral(
            integrand=lambda x, a: a * x ** p,
            param_domain=ParamDomain(0.0, 1.0),
            domain=domain,
            d_alpha=lambda x, a: x ** p,
        )
        if integrable:
            integrate(lambda x: x ** p, domain)
            assert domination_scan(P, (0.0, 1.0)).verdict is DominationVerdict.DOMINATED
            return
        with pytest.raises(NonIntegrableSingularityError) as kernel:
            integrate(lambda x: x ** p, domain)
        with pytest.raises(DegenerateWindowError) as scan:
            domination_scan(P, (0.0, 1.0))
        assert scan.value.__cause__.exponent == kernel.value.exponent
        assert f"local exponent {kernel.value.exponent:.3f}" in str(scan.value)

    @pytest.mark.parametrize("q, integrable", [(-0.5, False), (-2.0, True)])
    def test_one_refusal_rule_at_an_infinite_end(self, q, integrable):
        # |g| = (1 + x)**q on [0, inf): the scan's tail fit and the improper
        # kernel's tail agree on whether the tail is integrable
        domain = DomainSpec.semi_infinite(0.0)
        P = ParametricIntegral(
            integrand=lambda x, a: a * (1.0 + x) ** q,
            param_domain=ParamDomain(0.0, 1.0),
            domain=domain,
            d_alpha=lambda x, a: (1.0 + x) ** q,
        )
        res = integrate(lambda x: (1.0 + x) ** q, domain)
        rep = domination_scan(P, (0.0, 1.0))
        if integrable:
            assert res.status is QuadStatus.CONVERGED
            assert rep.verdict is DominationVerdict.DOMINATED
            assert abs(rep.envelope_integral_estimate - 1.0) < 1e-3
            return
        assert res.status is QuadStatus.TAIL_TRUNCATED and math.isinf(res.abs_err_est)
        assert rep.verdict is DominationVerdict.SUSPECT_DIVERGENT
        assert math.isinf(rep.envelope_integral_estimate)

    @pytest.mark.xfail(
        raises=AssertionError, strict=True,
        reason="ROADMAP item 4: the midpoints of [a, a + 32] round onto a, and "
               "x**-2 underflows on the tail fit's rungs from 256 a")
    def test_half_line_far_from_the_origin(self):
        # envelope x**-2 on [1e160, inf): its integral is 1e-160
        P = ParametricIntegral(
            integrand=lambda x, a: a * x ** -2.0,
            param_domain=ParamDomain(0.0, 1.0),
            domain=DomainSpec.semi_infinite(1e160),
            d_alpha=lambda x, a: x ** -2.0,
        )
        rep = domination_scan(P, (0.0, 1.0))
        assert rep.verdict is DominationVerdict.DOMINATED
        assert abs(rep.envelope_integral_estimate - 1e-160) <= 0.05e-160


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

class TestReconstruct:
    def test_forward_from_anchor(self):
        P = make_gauss()
        res = reconstruct(P, 2.0)
        assert abs(res.value - _gauss_sol(2.0)) < 1e-8

    def test_backward_from_anchor(self):
        res = reconstruct(make_gauss(), 0.5)
        assert abs(res.value - _gauss_sol(0.5)) < 1e-8

    def test_at_anchor_is_exact(self):
        res = reconstruct(make_gauss(), 1.0)
        assert res.value == _gauss_sol(1.0)
        assert res.abs_err_est == 0.0
        assert res.status is QuadStatus.CONVERGED

    def test_deriv_path_when_no_rhs_closed(self):
        P = make_cos(anchored=True)
        res = reconstruct(P, 2.0)
        assert abs(res.value - _cos_sol(2.0)) < 1e-7

    def test_numeric_rhs_without_d_alpha_is_refused(self):
        # off the anchor a numeric rhs needs d f/d alpha; refused before
        # any routing fit samples it (whose probe would report a non-finite
        # value), while the anchor itself needs no rhs
        seen = []
        P = _recording(make_cos(with_da=False, anchored=True), seen)
        with pytest.raises(ValueError, match="no d_alpha") as info:
            reconstruct(P, 2.0)
        assert type(info.value) is ValueError and seen == []
        assert reconstruct(P, 1.0).value == _cos_sol(1.0)

    @pytest.mark.parametrize("entry_id, alpha, stripped, counted_field", [
        ("ex2", 1.5, True, "d_alpha"),  # the interpolant in alpha
        ("ex1", 1.0, True, "d_alpha"),  # the interpolant in s
        ("ex4", 0.99, True, "d_alpha"),  # a declined interpolant in alpha, then one in s
        ("ex4", 0.5, False, "rhs_closed"),
    ])
    def test_n_evals_counts_every_evaluation(self, entry_id, alpha, stripped, counted_field):
        # numeric rhs: every d f/d alpha call of the inner quadratures, a
        # declined interpolant's samples included; closed rhs: every rhs
        # call, the growth probes' included
        P = catalog.get(entry_id).parametric
        if stripped:
            P = dataclasses.replace(P, rhs_closed=None)
        calls = 0
        inner = getattr(P, counted_field)

        def counted(*args):
            nonlocal calls
            calls += 1
            return inner(*args)

        res = reconstruct(dataclasses.replace(P, **{counted_field: counted}), alpha)
        assert res.n_evals == calls > 0

    def test_closed_rhs_fits_only_the_paths_it_integrates(self):
        # verify's grid [0.5, 2] about the anchor 1: each point's path fits
        # its own ends, so every rhs call is in some point's n_evals (the
        # hull [0.5, 2], which no point takes, was fitted too: 78 calls for
        # 72 reported)
        calls = []

        def rhs(a: float) -> float:
            calls.append(a)
            return _gauss_rhs(a)

        P = dataclasses.replace(make_gauss(), rhs_closed=rhs)
        got = engine._reconstruct_each(P, [0.5, 2.0], QuadConfig())
        assert sum(res.n_evals for res, _ in got.values()) == len(calls) == 72

    @pytest.mark.parametrize("entry_id, alpha, fitted", [
        ("ex3_alpha", 0.5, []), ("ex3_alpha", 2.0, []), ("ex2", 1.5, [1.0]),
    ])
    def test_numeric_rhs_fits_only_domain_ends_up_front(
        self, monkeypatch, entry_id, alpha, fitted
    ):
        # a path end inside the parameter domain is taken as regular, and
        # fitted only once an interpolant declines; these interpolants chop.
        # ex3_alpha's anchor 1 and its points 0.5 and 2 lie inside [0, inf),
        # and of ex2's path [1, 1.5] only the anchor is an end of [1, inf).
        ends = []
        fit = engine._fit_endpoint

        def spy(g, end, into, width, rungs=9):
            ends.append(end)
            return fit(g, end, into, width, rungs)

        monkeypatch.setattr(engine, "_fit_endpoint", spy)
        P = dataclasses.replace(catalog.get(entry_id).parametric, rhs_closed=None)
        assert reconstruct(P, alpha).status is QuadStatus.CONVERGED
        assert ends == fitted

    def test_alpha_route_census(self):
        # the alpha-route of each of the 34 catalog reconstructions off the
        # anchors, closed rhs and stripped.  A closed rhs runs Gauss-Kronrod
        # on the path unless an end is singular, where it keeps tanh-sinh
        # (ex4's reaches alpha = 1 through its offset form).  Stripped, a
        # path with regular ends is one interpolant in alpha, and one whose
        # end is a square-root end (ex1's anchor, ex4's alpha = 1) one in s;
        # ex4 at 0.99 reads regular, but its interpolant in alpha cannot
        # resolve the blow-up 0.01 past its end and declines, so the domain
        # end alpha = 1 is fitted and the path extended to it is one
        # interpolant in s.  Of verify's grids, only ex3_alpha's (no closed
        # rhs) is one interpolant.
        census = {}
        for entry in catalog.entries():
            P = entry.parametric
            if P.anchor is None:
                continue
            a0 = P.anchor.alpha0
            for stripped in (False, True):
                Q = dataclasses.replace(P, rhs_closed=None) if stripped else P
                for a in entry.verification_grid:
                    if a == a0:
                        continue
                    _, route = engine._reconstruct_each(Q, [a], QuadConfig())[a]
                    if not route.name.startswith("grid"):
                        assert (route.path.lower, route.path.upper) == (min(a, a0), max(a, a0))
                    census[entry.id, a, stripped] = route.name
        # ex3_alpha has no closed rhs, so it is nested either way
        expected = {(e, a, st): "grid-α" if st or e == "ex3_alpha" else "gk"
                    for e, a, st in census}
        for a in (0.25, 1.0, 4.0):
            expected["ex1", a, False] = "tanh-sinh lower"
            expected["ex1", a, True] = "grid-s"
        expected["ex4", 0.99, True] = "grid-s"
        expected["ex4", 1.0, False] = "tanh-sinh upper"
        expected["ex4", 1.0, True] = "grid-s"
        assert len(census) == 34
        assert census == expected

        taken = set()
        for entry in catalog.entries():
            if entry.parametric.anchor is None:
                continue
            routes = _routes(entry.parametric, entry.verification_grid)
            if [route.name for route in routes] == ["grid-α"]:
                taken.add(entry.id)
            else:
                assert not any(route.name.startswith("grid") for route in routes)
        assert taken == {"ex3_alpha"}

    def test_every_inner_quadrature_of_a_nested_half_line_converges(self, monkeypatch):
        # ex1 with rhs_closed stripped: the alpha-quadrature samples the
        # inner half-line integral down to alpha ~ 1e-150
        inner = []
        deriv = engine.deriv_under_integral

        def spy(P, a, cfg=None):
            res = deriv(P, a, cfg)
            inner.append(res.status)
            return res

        monkeypatch.setattr(engine, "deriv_under_integral", spy)
        P = dataclasses.replace(catalog.get("ex1").parametric, rhs_closed=None)
        res = reconstruct(P, 1.0)
        assert abs(res.value - math.pi) <= res.abs_err_est
        assert inner and set(inner) == {QuadStatus.CONVERGED}

    @pytest.mark.parametrize("wrapped", [False, True], ids=["as_is", "wrapped"])
    def test_closed_rhs_reaches_its_singular_edge(self, wrapped):
        # ex4's rhs blows up like 1/sqrt(1 - a) at a = 1; its offset form
        # lets the singular kernel sample it below ulp(1) instead of cutting.
        # A wrapper around rhs_closed (a call counter, say) keeps that form.
        P = catalog.get("ex4").parametric
        if wrapped:
            rhs = P.rhs_closed
            P = dataclasses.replace(P, rhs_closed=lambda a: rhs(a))
        res = reconstruct(P, 1.0)
        assert res.status is QuadStatus.CONVERGED
        assert abs(res.value - P.solution_closed(1.0)) <= res.abs_err_est <= 1e-10
        assert res.n_evals <= 200

    def test_closed_rhs_converged_only_within_the_tolerance_at_its_value(self):
        # rhs 1e3 (1 + |a - 0.3|**1.5) from I(0) = -1000 to a = 1 on the
        # Gauss-Kronrod route: the alpha-quadrature's estimate 7.5e-8 meets the
        # tolerance 1.2e-7 at its own value 1183.7, not 1.8e-8 at the returned
        # 183.7.  The estimate is honest: the true error is 2.2e-9.
        def sol(a: float) -> float:
            return -1000.0 + 1e3 * (a + (math.copysign(abs(a - 0.3) ** 2.5, a - 0.3)
                                         + 0.3 ** 2.5) / 2.5)

        P = ParametricIntegral(
            integrand=lambda x, a: sol(a),
            param_domain=ParamDomain(0.0, 2.0),
            domain=DomainSpec.finite(0.0, 1.0),
            anchor=Anchor(0.0, -1000.0),
            rhs_closed=lambda a: 1e3 * (1.0 + abs(a - 0.3) ** 1.5),
        )
        res = reconstruct(P, 1.0)
        assert res.value == 183.70337726863613
        # the default rel_tol 1e-10, at the returned value and at the integral
        assert 1e-10 * res.value < res.abs_err_est < 1e-10 * (res.value + 1000.0)
        assert res.status is QuadStatus.MAX_DEPTH
        assert abs(res.value - sol(1.0)) <= res.abs_err_est

    def test_end_whose_probe_sample_fails_goes_to_the_singular_kernel(self):
        # the rhs cannot be evaluated below a = 0.5, so the probe at the end
        # 0.25 fails; that end is routed singular, and the kernel's endpoint
        # fit raises at the same first rung (Gauss-Kronrod would first
        # sample the panel centre 0.4375)
        P = dataclasses.replace(make_cos(anchored=True), rhs_closed=lambda a: math.sqrt(a - 0.5))
        with pytest.raises(EvaluationError) as info:
            reconstruct(P, 0.25)
        assert info.value.abscissa == 0.25 + 0.75 * 2.0 ** -8

    def test_missing_anchor(self):
        with pytest.raises(MissingAnchorError):
            reconstruct(make_gauss(anchored=False), 2.0)

    def test_out_of_domain_target(self):
        with pytest.raises(ParameterDomainError):
            reconstruct(make_cos(anchored=True), 3.0)

    @pytest.mark.xfail(
        raises=NonIntegrableSingularityError, strict=True,
        reason="ROADMAP item 3: on a path of length L every rung of the 9-rung "
               "fit sits at d >= L 2**-40 >> 1, where 2 pi/(1 + d) reads as d**-1")
    def test_long_path_with_a_decaying_rhs_is_not_refused(self):
        # ex2's rhs 2 pi/alpha is integrable on [1, 1e11]: 2 pi log(1e11)
        alpha = 1e11
        res = reconstruct(catalog.get("ex2").parametric, alpha)
        assert abs(res.value - 2.0 * math.pi * math.log(alpha)) <= res.abs_err_est


_ANCHORED_GRID = [
    (e.id, a) for e in catalog.entries() if e.parametric.anchor is not None
    for a in e.verification_grid
]
# value bits of ex1's stripped reconstructions, from one interpolant in s
# (errors against pi sqrt(alpha) 0, 0 and 8.9e-16; 2.9e-15, 7.5e-15 and
# 1.6e-14 with the 15-digit Gauss-Kronrod weights; on the Gauss-Kronrod
# route in s that it replaced, 7.5e-15, 1.6e-14 and 3.5e-14)
_EX1_STRIPPED_BITS = {
    0.25: "0x1.921fb54442d18p+0",
    1.0: "0x1.921fb54442d18p+1",
    4.0: "0x1.921fb54442d19p+2",
}
# a numeric rhs a**(power - 1) near a square root keeps the tanh-sinh
# route: value and estimate bits, n_evals (the shrink ratios of h = 2 sqrt(d) g
# at the probes are 0.76, 0.95 and 1.06)
_NEAR_ROOT_BITS = {
    0.4: ("0x1.0000000000001p+0", "0x1.12e0c4826d695p-29", 2460),
    0.48: ("0x1.0000000000000p+0", "0x1.12e0cc826d695p-29", 2430),
    0.52: ("0x1.0000000000000p+0", "0x1.12e0d0826d695p-29", 2430),
}


class TestNestedReconstruction:
    """reconstruct with no closed rhs: every alpha-node is an inner quadrature."""

    @pytest.mark.parametrize("singular_anchor, power", [
        (False, 0.7), (True, 0.7), (True, 0.5),
    ], ids=["regular_anchor", "singular_anchor", "root_anchor"])
    def test_inner_failure_is_not_reported_converged(self, singular_anchor, power):
        # two panels cannot resolve the peak, so the inner quadratures end at
        # max_depth, the probes' included: no interpolant is tried, and the
        # fallback alpha-quadrature itself converges
        P = make_scaled(
            lambda x: 1.0 / (x * x + 1e-4), DomainSpec.finite(-1.0, 1.0), singular_anchor, power)
        cfg = QuadConfig(max_subdivisions=2)
        assert deriv_under_integral(P, 1.0, cfg).status is QuadStatus.MAX_DEPTH
        assert reconstruct(P, 1.0, cfg).status is QuadStatus.MAX_DEPTH

    def test_tanh_sinh_route_fits_at_the_fit_tolerance_and_runs_the_rest_at_the_node_tolerance(
        self, monkeypatch
    ):
        # only the routing fits' rungs, 3 at each end of the path [0, 1]
        # (the domain end 0 up front, the inner end 1 after the interpolant
        # declines), run at the fit tolerance, rel_tol 1e-4: their values
        # only route.  The tanh-sinh kernel's own 9-rung endpoint fit and the
        # alpha-nodes run at the node tolerance; the estimate is the
        # alpha-quadrature's plus the flat noise share 2 * (path length) *
        # node tolerance
        P = make_scaled(
            lambda x: x ** -0.5, DomainSpec.singular(0.0, 1.0, at_lower=True), True)
        path = DomainSpec.singular(0.0, 1.0, at_lower=True)
        g = engine._NestedRhs(P, QuadConfig())
        q = integrate(g, path, g.alpha_cfg)  # the alpha-quadrature alone
        calls = []  # (alpha, abs_tol, rel_tol) of every inner quadrature
        deriv = engine.deriv_under_integral

        def spy_deriv(P, a, cfg):
            calls.append((a, cfg.abs_tol, cfg.rel_tol))
            return deriv(P, a, cfg)

        monkeypatch.setattr(engine, "deriv_under_integral", spy_deriv)
        res, route = engine._reconstruct_each(P, [1.0], QuadConfig())[1.0]
        assert route == engine._Route("tanh-sinh lower", path)
        node, fit = engine._DERIV_TOL_FLOOR, engine._FIT_REL_TOL
        rungs = [2.0 ** -8, 2.0 ** -12, 2.0 ** -16]
        assert calls[:6] == (
            [(d, node, fit) for d in rungs] + [(1.0 - d, node, fit) for d in rungs])
        kernel_fit = [(2.0 ** -j, node, node) for j in range(8, 44, 4)]
        assert calls[6:15] == kernel_fit
        assert {(t, r) for _, t, r in calls[6:]} == {(node, node)}
        assert res.abs_err_est == q.abs_err_est + 2.0 * 1.0 * node
        assert res.status is QuadStatus.CONVERGED

    @pytest.mark.parametrize("blow_up, route", [
        (-0.45, "tanh-sinh lower"), (-0.48, "tanh-sinh lower"), (-0.5, "grid-s"),
        (-0.52, "tanh-sinh lower"), (-0.55, "tanh-sinh lower"), ("log", "tanh-sinh lower"),
    ])
    def test_routing_fits_keep_every_route(self, blow_up, route):
        # dI/da = a**blow_up (a scaled family) or log(a) + 1 from I(0) = 0:
        # only the square root takes the s-route; the others keep tanh-sinh
        # in alpha.  At -0.48 and -0.52 the steps of h = 2 sqrt(d) g at the
        # fit's rungs shrink 1.06- and 0.95-fold, far from the 3-fold rule,
        # and are 5% of h, far past the fit tolerance 1e-4
        if blow_up == "log":
            P = dataclasses.replace(
                make_scaled(lambda x: 1.0, DomainSpec.finite(0.0, 1.0), True),
                integrand=lambda x, a: a * math.log(a), d_alpha=lambda x, a: math.log(a) + 1.0)
        else:
            P = make_scaled(lambda x: 1.0, DomainSpec.finite(0.0, 1.0), True, 1.0 + blow_up)
        res, taken = engine._reconstruct_each(P, [1.0], QuadConfig())[1.0]
        assert taken.name == route
        assert res.status is QuadStatus.CONVERGED

    def test_converged_only_within_the_alpha_tolerance(self):
        # int_0^1 cos(alpha x) dx rebuilt from alpha = 1: the interpolant
        # declines on [1, 50], and on the fallback Gauss-Kronrod route every
        # inner quadrature and the alpha-quadrature converge, but the noise
        # share 2 * 49 * 1e-9 passes the alpha-tolerance 2e-8; the value is
        # right to 4e-15
        P = dataclasses.replace(make_cos(anchored=True), param_domain=ParamDomain(0.0, 64.0))
        res = reconstruct(P, 50.0)
        assert res.abs_err_est > 2e-8
        assert res.status is QuadStatus.MAX_DEPTH
        assert abs(res.value - _cos_sol(50.0)) <= res.abs_err_est

    def test_near_end_fitted_once(self, monkeypatch):
        # the domain end 0 lies 1 past the hull [1, 50], within 1/16 of its
        # length: it is fitted before the interpolant in alpha and reads
        # regular, and that fit serves again once the interpolant declines
        # (34,260 evaluations when the decline fitted it a second time)
        P = dataclasses.replace(make_cos(anchored=True), param_domain=ParamDomain(0.0, 64.0))
        ends = []
        fit = engine._fit

        def spy_fit(g, end, lo, hi):
            ends.append(end)
            return fit(g, end, lo, hi)

        monkeypatch.setattr(engine, "_fit", spy_fit)
        res, route = engine._reconstruct_each(P, [50.0], QuadConfig())[50.0]
        assert sorted(ends) == [0.0, 1.0, 50.0]
        assert route == engine._Route("gk", DomainSpec.finite(1.0, 50.0))
        assert res.n_evals == 34_170

    def test_past_hull_fit_status_is_not_the_fallbacks(self):
        # dI/d alpha = |alpha - 0.7|**1.5 + int w/(x^2 + w^2) dx, w = 2 - alpha,
        # from I(0) = 0: the kink keeps the interpolant on [0, 1.5] from
        # chopping, the hull ends read regular, and the fit at the domain end
        # 2 past the hull reads regular too, from inner quadratures that end
        # at max_depth within 12 panels.  The fallback's own samples all
        # converge, and its status is theirs, not the past-hull fit's
        def da(x: float, a: float) -> float:
            w = 2.0 - a
            return abs(a - 0.7) ** 1.5 + w / (x * x + w * w)

        P = ParametricIntegral(
            integrand=lambda x, a: 0.0,  # only d_alpha is read
            param_domain=ParamDomain(0.0, 2.0),
            domain=DomainSpec.finite(-1.0, 1.0),
            d_alpha=da,
            anchor=Anchor(0.0, 0.0),
        )
        res, route = engine._reconstruct_each(P, [1.5], QuadConfig(max_subdivisions=12))[1.5]
        assert route == engine._Route("gk", DomainSpec.finite(0.0, 1.5))
        assert (res.status, res.n_evals) == (QuadStatus.CONVERGED, 9_630)

    @pytest.mark.parametrize("entry_id, alpha", _ANCHORED_GRID)
    def test_stripped_rhs_is_honest(self, entry_id, alpha):
        # ex4 at alpha = 1 included: its rhs blows up like 1/sqrt(1 - alpha)
        # there, and the interpolant in s rebuilds it
        P = dataclasses.replace(catalog.get(entry_id).parametric, rhs_closed=None)
        res = reconstruct(P, alpha)
        err = abs(res.value - P.solution_closed(alpha))
        assert err <= res.abs_err_est or res.status is not QuadStatus.CONVERGED

    def test_stripped_catalog_cost(self):
        # every inner evaluation of the 17 stripped reconstructions off the
        # anchors (161,989 when the singular ends ran tanh-sinh in alpha,
        # with ex4 at 1 refused; 101,148 with Gauss-Kronrod in s at a
        # square-root end; 93,558 once each inter-zero segment of the
        # oscillatory kernel starts from one panel; 86,314 once each path is
        # one Chebyshev interpolant, in alpha or in s, where it can be;
        # 70,352 once a hull end inside the parameter domain is fitted only
        # after an interpolant declines, and ex4 at 0.99 is one in s about
        # the domain end 1 past its path; 64,027 once the routing fits run
        # at the fit tolerance and an oscillatory head starts from its halves;
        # 62,138 once the oscillatory tail is one double-exponential sum;
        # 52,789 once the samples run at an eighth of the alpha-tolerance over
        # the path length, with full-precision Gauss-Kronrod weights; 51,769
        # once a root end of the domain within 1/16 of the path length past
        # it is tried before the interpolant in alpha)
        total = 0
        for entry_id, alpha in _ANCHORED_GRID:
            P = dataclasses.replace(catalog.get(entry_id).parametric, rhs_closed=None)
            if alpha != P.anchor.alpha0:
                total += reconstruct(P, alpha).n_evals
        assert total <= 53_850

    @pytest.mark.parametrize("alpha", sorted(_EX1_STRIPPED_BITS))
    def test_stripped_ex1_cost_and_bits(self, alpha):
        # one interpolant in s = sqrt(alpha), where the rhs pi/(2 sqrt(alpha))
        # becomes the constant pi, so no sample comes near the anchor; only
        # the anchor, an end of the parameter domain, is fitted, at the fit
        # tolerance (2,086, 1,890 and 1,726 evaluations at the node
        # tolerance; 2,452, 2,166 and 2,092 when alpha was fitted too; 1,689,
        # 1,439 and 1,383 while the samples ran at a quarter of the node
        # tolerance)
        P = dataclasses.replace(catalog.get("ex1").parametric, rhs_closed=None)
        res = reconstruct(P, alpha)
        assert res.value.hex() == _EX1_STRIPPED_BITS[alpha]
        assert res.n_evals <= 1_450

    @pytest.mark.parametrize("alpha", sorted(_EX1_STRIPPED_BITS))
    def test_stripped_ex1_reads_pi_root_alpha(self, alpha):
        # the s-route's integrand is the constant pi, so the interpolant's
        # error is the weights' and the samples' rounding alone (2.9e-15,
        # 7.5e-15 and 1.6e-14 while the Kronrod weights summed to 2 - 6.0e-15)
        P = dataclasses.replace(catalog.get("ex1").parametric, rhs_closed=None)
        assert abs(reconstruct(P, alpha).value - math.pi * math.sqrt(alpha)) <= 1e-15

    def test_stripped_ex4_short_of_its_root_end(self):
        # ex4's rhs blows up like 1/sqrt(1 - alpha) 0.01 past the path
        # [0, 0.99], within 1/16 of its length: the domain end 1 is fitted
        # before any interpolant in alpha, and the interpolant in s about it
        # on [0, 1] serves the point (4,474 evaluations, same bits, while the
        # interpolant in alpha was tried first and declined; 5,788 while the
        # fits ran at the node tolerance; 5,008, error 4.7e-15 against an
        # estimate of 5.7e-11, while the samples ran at a quarter of the node
        # tolerance; on Gauss-Kronrod in alpha: 15,270 evaluations, error
        # 8.0e-15 against an estimate of 2.7e-8)
        P = dataclasses.replace(catalog.get("ex4").parametric, rhs_closed=None)
        res, route = engine._reconstruct_each(P, [0.99], QuadConfig())[0.99]
        assert route == engine._Route("grid-s", DomainSpec.singular(0.0, 1.0, at_upper=True))
        assert (res.value.hex(), res.abs_err_est.hex(), res.n_evals) == (
            "-0x1.c354888f1e947p+0", "0x1.5595aeb0c9f5dp-31", 3454)
        assert res.status is QuadStatus.CONVERGED
        assert abs(res.value - CATALOG_TRUTHS["ex4@0.99"]) <= res.abs_err_est <= 1e-9

    @pytest.mark.parametrize("alpha, route, n_evals", [
        (0.99, engine._Route("grid-s", DomainSpec.singular(0.0, 1.0, at_upper=True)), 3_454),
        (0.995, engine._Route("grid-s", DomainSpec.singular(0.0, 1.0, at_upper=True)), 3_454),
        (0.9, engine._Route("grid-α", DomainSpec.finite(0.0, 0.9)), 3_390),
    ])
    def test_root_end_within_a_sixteenth_is_tried_before_grid_alpha(
        self, monkeypatch, alpha, route, n_evals
    ):
        # a Chebyshev series in alpha converges like rho**-k, rho = t +
        # sqrt(t*t - 1), t = 1 + 2 delta/L, with the blow-up delta past a
        # path of length L: at 0.99 and 0.995 (delta/L = 0.010 and 0.005) the
        # domain end 1 is fitted first and the interpolant in alpha is never
        # sampled; at 0.9 (delta/L = 0.11) it serves, and the end 1 is not
        # fitted.  While the interpolant in alpha came first, it declined at
        # 0.995, the hull end 0.995 then read singular but not a square root,
        # so the end 1 was never fitted: tanh-sinh in alpha, 10,830 evaluations
        P = dataclasses.replace(catalog.get("ex4").parametric, rhs_closed=None)
        tried = []
        chebyshev = engine._chebyshev

        def spy_chebyshev(g, route, alphas):
            tried.append(route)
            return chebyshev(g, route, alphas)

        monkeypatch.setattr(engine, "_chebyshev", spy_chebyshev)
        res, taken = engine._reconstruct_each(P, [alpha], QuadConfig())[alpha]
        assert tried == [route] and taken == route
        assert (res.status, res.n_evals) == (QuadStatus.CONVERGED, n_evals)
        assert abs(res.value - P.solution_closed(alpha)) <= res.abs_err_est

    @pytest.mark.parametrize("alpha, fitted", [
        (0.0, [0.0, 1.0]), (0.5, [0.5, 1.0]), (2.0, [1.0, 2.0]), (4.0, [4.0, 1.0]),
    ])
    def test_blow_up_at_an_anchor_inside_the_domain(self, monkeypatch, alpha, fitted):
        # the anchor 1 lies inside [0, 4], so it is taken as regular: the
        # interpolant in alpha declines on the square-root blow-up there,
        # the anchor is fitted only then, and the interpolant in s about it
        # serves the point.  A path end on the domain's ends (0 or 4) is
        # fitted up front.
        P = make_interior_root()
        ends = []
        fit = engine._fit_endpoint

        def spy_fit(g, end, into, width, rungs=9):
            ends.append(end)
            return fit(g, end, into, width, rungs)

        monkeypatch.setattr(engine, "_fit_endpoint", spy_fit)
        res, route = engine._reconstruct_each(P, [alpha], QuadConfig())[alpha]
        assert ends == fitted
        lo, hi = min(alpha, 1.0), max(alpha, 1.0)
        about_anchor = {"at_upper": True} if alpha < 1.0 else {"at_lower": True}
        assert route == engine._Route("grid-s", DomainSpec.singular(lo, hi, **about_anchor))
        assert res.status is QuadStatus.CONVERGED
        assert abs(res.value - P.solution_closed(alpha)) <= res.abs_err_est <= 1e-12
        # the interpolant in alpha that the late fit of the anchor followed
        in_alpha = engine._Route("grid-α", DomainSpec.finite(lo, hi))
        assert engine._chebyshev(engine._NestedRhs(P, QuadConfig()), in_alpha, [alpha]) is None

    def test_interpolant_in_s_about_a_nonzero_end_counts_node_rounding(self):
        # I = sqrt(alpha - 1) from I(1) = 0: an alpha-node 1 + s*s rounds to
        # ulp(1), so the interpolant in s about the anchor takes dalpha/ds
        # from the rounded node; with the exact s it read converged with
        # error 1.05e-8 against an estimate of 6.8e-9, in 3,120 evaluations
        P = make_interior_root()
        alpha = 1.3775272522120479
        res = reconstruct(P, alpha)
        assert res.status is QuadStatus.CONVERGED
        assert abs(res.value - P.solution_closed(alpha)) <= res.abs_err_est

    def test_path_of_four_ulps_declines_the_interpolant(self):
        # the Chebyshev nodes of [1, 1 + 4 ulp] round onto its ends, where
        # the interchange may fail, so the interpolant declines and
        # Gauss-Kronrod in alpha integrates the numeric rhs over the path
        P = make_cos(anchored=True)
        alpha = 1.0 + 4.0 * math.ulp(1.0)
        route = engine._Route("grid-α", DomainSpec.finite(1.0, alpha))
        assert engine._chebyshev(engine._NestedRhs(P, QuadConfig()), route, [alpha]) is None
        res, route = engine._reconstruct_each(P, [alpha], QuadConfig())[alpha]
        assert route == engine._Route("gk", DomainSpec.finite(1.0, alpha))
        assert (res.status, res.n_evals) == (QuadStatus.CONVERGED, 900)
        assert abs(res.value - _cos_sol(alpha)) <= 2.0 * math.ulp(res.value)

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_numeric_rhs_with_a_large_derivative_is_honest(self, alpha):
        # I = 1e5 cos(a) 2/3: on the Gauss-Kronrod route, whose flat noise
        # share 2 L (node abs_tol) ignores rel_tol |dI/d alpha| (up to 6.7e4
        # here), it read converged with estimates 1.0e-9 and 4.3e-9 against
        # true errors 2.2e-7 and 2.6e-6; the interpolant weighs each
        # sample's own estimate
        res = reconstruct(make_cos_sqrt(), alpha)
        err = abs(res.value - _cos_sqrt_sol(alpha))
        assert err <= res.abs_err_est or res.status is not QuadStatus.CONVERGED

    @pytest.mark.parametrize("power", sorted(_NEAR_ROOT_BITS))
    def test_near_root_rhs_keeps_tanh_sinh(self, power):
        # the fit reads p within 0.1 of -1/2, but h = 2 sqrt(d) g is neither
        # flat nor smooth in s: Gauss-Kronrod in s would cost 5-9 times the
        # alpha-nodes and lose six digits
        P = make_scaled(lambda x: 1.0, DomainSpec.finite(0.0, 1.0), True, power)
        res, route = engine._reconstruct_each(P, [1.0], QuadConfig())[1.0]
        assert route == engine._Route("tanh-sinh lower", DomainSpec.singular(0.0, 1.0, at_lower=True))
        assert (res.value.hex(), res.abs_err_est.hex(), res.n_evals) == _NEAR_ROOT_BITS[power]
        assert res.status is QuadStatus.CONVERGED

    def test_two_square_root_ends_keep_tanh_sinh(self):
        # dI/da = a**-0.5 + (1 - a)**-0.5: s = sqrt(d) removes only one blow-up
        P = ParametricIntegral(
            integrand=lambda x, a: 2.0 * math.sqrt(a) - 2.0 * math.sqrt(1.0 - a),
            param_domain=ParamDomain(0.0, 1.0),
            domain=DomainSpec.finite(0.0, 1.0),
            d_alpha=lambda x, a: 1.0 / math.sqrt(a) + 1.0 / math.sqrt(1.0 - a),
            anchor=Anchor(0.0, -2.0),
        )
        res, route = engine._reconstruct_each(P, [1.0], QuadConfig())[1.0]
        assert route == engine._Route(
            "tanh-sinh lower upper", DomainSpec.singular(0.0, 1.0, at_lower=True, at_upper=True))
        assert abs(res.value - 2.0) <= res.abs_err_est

    @pytest.mark.parametrize("p, h, root", [
        (-0.5, (3.0, 3.0, 3.0), True),                        # flat
        (-0.5, (3.0, 3.0 + 1e-9, 3.0 - 1e-9), True),          # flat to the tolerance
        (-0.45, (1.0, 1.25, 1.3125), True),                   # smooth in s: 4-fold
        (-0.55, (1.0, 1.3, 1.4), True),                       # exactly 3-fold
        (-0.5, (1.0, 1.29, 1.39), False),                     # 2.9-fold
        (-0.5, (1.0, 1.1, 1.2), False),                       # a leftover power
        (-0.61, (3.0, 3.0, 3.0), False),                      # not a square root
        (-0.39, (3.0, 3.0, 3.0), False),
        (math.nan, (), False),                                # a failing sample
    ])
    def test_square_root_end_rule(self, p, h, root):
        # samples (d, g) at the routing rungs d = 2**-8, 2**-12, 2**-16 whose
        # h = 2 sqrt(d) g are these; the node tolerance is 1e-9
        ds = (2.0 ** -8, 2.0 ** -12, 2.0 ** -16)
        samples = [(d, v / (2.0 * math.sqrt(d))) for d, v in zip(ds, h)]
        cfg = QuadConfig(abs_tol=1e-9, rel_tol=1e-9)
        assert engine._root_end((p, samples), cfg) is root


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------

# value bits of ex3_alpha's grid reconstructions from one interpolant
# (errors against mpmath 0, 1.1e-16 and 1.1e-16; 3.1e-13, 6.9e-14 and
# 2.2e-16 while its samples ran on the segment kernel; 4.3e-14, 6.2e-15
# and 3.3e-16 when those samples ran at 0.25 abs_tol/L, for 1,620 more
# evaluations)
_EX3_ALPHA_GRID_BITS = {
    0.0: "0x1.40d931ff62706p+0",
    0.5: "0x1.f87889db7c62fp-1",
    2.0: "0x1.37c7b6d99807cp-1",
}


# eval_direct of ex3_alpha at its grid: value and estimate bits and n_evals,
# two levels of 53 and 109 nodes and no head (errors against mpmath 2.2e-16,
# 1.1e-16, 0 and 0; the segment kernel took 300, 180, 150 and 180
# evaluations, for errors up to 2.5e-12)
_EX3_ALPHA_DIRECT = {
    0.0: ("0x1.40d931ff62705p+0", "0x1.1c90278989ed1p-39", 162),
    0.5: ("0x1.f87889db7c62dp-1", "0x1.1255571a56b72p-46", 162),
    1.0: ("0x1.9cfe0dbedf46dp-1", "0x1.8609736ee9234p-45", 162),
    2.0: ("0x1.37c7b6d99807bp-1", "0x1.0a8cc26dd9c2dp-43", 162),
}


class TestOscillatoryRoute:
    """ex3_alpha runs through the oscillatory kernel: one Ooura-Mori sum in
    the phase index k from its lower end 0, itself the zero k = 0, so with
    no head."""

    @pytest.mark.parametrize("alpha", sorted(_EX3_ALPHA_DIRECT))
    def test_grid_point_is_two_levels_with_no_head(self, alpha):
        P = catalog.get("ex3_alpha").parametric
        res = eval_direct(P, alpha)
        assert (res.value.hex(), res.abs_err_est.hex(), res.n_evals) == _EX3_ALPHA_DIRECT[alpha]
        tail = P.domain_for(alpha).oscillatory_tail
        assert res.n_evals == sum(len(quadrature._de_nodes(tail, 0, m)[0]) for m in (0, 1))

    @pytest.mark.parametrize("kind, alpha", sorted(EX3_ALPHA_SWEEP_TRUTHS),
                             ids=lambda v: v if isinstance(v, str) else repr(v))
    def test_sweep_to_1e8_is_honest(self, kind, alpha):
        # every decade from 1e-8 to 1e8: within its estimate at every status,
        # or refused.  The segment kernel read I(1e7) = 5.6e-65 converged
        # against 2.80e-4, and dI/da(1e6) = -8.7e-14 against -4.4e-10
        P = catalog.get("ex3_alpha").parametric
        run = eval_direct if kind == "direct" else deriv_under_integral
        try:
            res = run(P, alpha)
        except QuadratureError:
            return
        assert abs(EX3_ALPHA_SWEEP_TRUTHS[kind, alpha] - res.value) <= res.abs_err_est

    @pytest.mark.parametrize("alpha", sorted(EX3_ALPHA_FLOOR_TRUTHS))
    def test_sum_at_its_rounding_floor_is_honest(self, alpha):
        # at rel_tol 1e-15 two levels agree and the estimate is mostly the
        # sum's rounding, which charged only eps |I| and the abscissae's
        # phase: 5.5e-25 against an error of 8.3e-25 at 10**5.5, 3.1e-33
        # against 6.2e-33 at 1e11
        cfg = QuadConfig(abs_tol=1e-300, rel_tol=1e-15)
        res = deriv_under_integral(catalog.get("ex3_alpha").parametric, alpha, cfg)
        assert res.status is QuadStatus.CONVERGED
        assert abs(EX3_ALPHA_FLOOR_TRUTHS[alpha] - res.value) <= res.abs_err_est

    @pytest.mark.xfail(
        raises=AssertionError, strict=True,
        reason="ROADMAP item 13: the mass lies at k < 1/(alpha pi), below the "
               "nodes of the first two levels, which agree within the tolerance")
    @pytest.mark.parametrize("kind, alpha, truth", [
        # mpmath: sqrt(pi/2/(a + sqrt(a*a + 1))) and its derivative
        ("deriv", 1e20, -4.43113462726379e-31),  # read -4.1e-32 +- 5.4e-32
        ("direct", 1e300, 8.86226925452758e-151),  # read 0 +- 0
    ])
    def test_huge_alpha_is_honest(self, kind, alpha, truth):
        P = catalog.get("ex3_alpha").parametric
        run = eval_direct if kind == "direct" else deriv_under_integral
        res = run(P, alpha)
        assert abs(truth - res.value) <= res.abs_err_est

    @pytest.mark.parametrize("tol", [1e-9, 1e-10, 1.25e-11], ids=["node", "default", "sample"])
    @pytest.mark.parametrize("alpha", [0.0, 2**-16, 2**-12, 2**-8, 0.01, 0.5, 1.0, 2.0])
    def test_direct_and_deriv_converge(self, alpha, tol):
        # the node tolerance of a numeric rhs, the default, and the grid's
        # sample tolerance on the hull [0, 2]; a one-panel segment at the
        # two-panel share (0.02) left dI/d alpha at 2**-8 and at 0.01 at
        # max_depth
        P = catalog.get("ex3_alpha").parametric
        cfg = QuadConfig(abs_tol=tol, rel_tol=tol)
        assert eval_direct(P, alpha, cfg).status is QuadStatus.CONVERGED
        assert deriv_under_integral(P, alpha, cfg).status is QuadStatus.CONVERGED

    def test_stripped_reconstruct_converges(self):
        P = dataclasses.replace(catalog.get("ex3_alpha").parametric, rhs_closed=None)
        assert reconstruct(P, 0.0).status is QuadStatus.CONVERGED

    def test_grid_cost(self):
        # every evaluation behind ex3_alpha's grid interpolant (12,660 when
        # each segment started from two panels; 10,470 while its samples ran
        # at 0.25 abs_tol/L, not at 0.25 (node tolerance)/L; 8,850 while the
        # hull end 2, inside the parameter domain, was fitted too; 8,265
        # while each head started from one panel over the whole head; 7,410
        # while the tail was summed segment by segment)
        entry = catalog.get("ex3_alpha")
        grid = list(entry.verification_grid)
        got = engine._reconstruct_each(entry.parametric, grid, QuadConfig())
        assert max(r.n_evals for r, _ in got.values()) <= 5_618


class TestVerify:
    def test_all_green(self):
        rep = verify(make_gauss(), [0.5, 1.0, 2.0])
        assert rep.passed
        assert len(rep.points) == 3
        for p in rep.points:
            assert p.passed
            assert p.disc_direct_closed is not None
            assert p.disc_direct_closed <= 1e-7
            assert p.disc_recon_direct is not None
            assert p.disc_recon_direct <= 1e-6

    def test_wrong_closed_form_fails_without_raising(self):
        P = ParametricIntegral(
            integrand=_cos_f,
            param_domain=ParamDomain(0.0, 2.0),
            domain=DomainSpec.finite(0.0, 1.0),
            solution_closed=lambda a: _cos_sol(a) + 1e-3 * (a - 1.0) ** 2,
        )
        rep = verify(P, [0.5])
        assert not rep.passed
        assert not rep.points[0].passed
        assert rep.points[0].disc_direct_closed > 1e-7

    def test_failing_point_recorded_not_raised(self):
        rep = verify(make_cos(), [1.0, 3.0])  # 3.0 is out of domain
        assert not rep.passed
        good, bad = rep.points
        assert good.passed
        assert not bad.passed
        assert math.isnan(bad.direct)
        assert "ParameterDomainError" in bad.note

    def test_failed_and_off_gate_reconstructions_recorded(self):
        # the rhs is off by 1e-3 * sqrt(a - 0.5), which cannot be evaluated
        # below a = 0.5: the path to 0.25 fails, the one to 2.0 misses the
        # reconstruction gate, and the anchor itself still passes
        P = dataclasses.replace(
            make_cos(anchored=True),
            rhs_closed=lambda a: _cos_rhs(a) + 1e-3 * math.sqrt(a - 0.5),
        )
        rep = verify(P, [0.25, 1.0, 2.0])
        failed, anchor, off = rep.points
        assert not rep.passed
        assert not failed.passed and failed.reconstructed is None
        assert failed.note.startswith("reconstruction failed: ")
        assert failed.note.endswith("[EvaluationError]")
        assert anchor.passed
        assert not off.passed and off.note == ""
        assert off.disc_direct_closed <= rep.tol_direct
        assert off.disc_recon_direct > rep.tol_reconstruct

    def test_undefined_closed_form_noted_not_raised(self):
        P = ParametricIntegral(
            integrand=_cos_f,
            param_domain=ParamDomain(0.0, 2.0),
            domain=DomainSpec.finite(0.0, 1.0),
            solution_closed=lambda a: math.sqrt(a - 1.0),  # undefined below 1
        )
        rep = verify(P, [0.5])
        assert rep.points[0].closed_form is None
        assert "closed form" in rep.points[0].note

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            verify(make_cos(), [])

    def test_numeric_rhs_grid_comes_from_one_interpolant(self, monkeypatch):
        # ex3_alpha has no closed rhs: one Chebyshev interpolant of dI/d alpha
        # on the hull [0, 2] serves the whole grid, where reconstructing each
        # point alone takes 18,690 evaluations (19,140 on Gauss-Kronrod paths)
        evals = []
        deriv = engine.deriv_under_integral

        def counted(P, a, cfg=None):
            res = deriv(P, a, cfg)
            evals.append(res.n_evals)
            return res

        monkeypatch.setattr(engine, "deriv_under_integral", counted)
        entry = catalog.get("ex3_alpha")
        P, grid = entry.parametric, list(entry.verification_grid)
        rep = verify(P, grid)
        assert rep.passed
        assert len(evals) <= 34 and sum(evals) <= 5_618
        monkeypatch.setattr(engine, "deriv_under_integral", deriv)
        got = engine._reconstruct_each(P, grid, QuadConfig())
        assert [p.reconstructed for p in rep.points] == [got[a][0].value for a in grid]
        assert got[P.anchor.alpha0][0].value == P.anchor.value0
        for a, bits in _EX3_ALPHA_GRID_BITS.items():
            res, _ = got[a]
            assert res.status is QuadStatus.CONVERGED
            assert abs(res.value - EX3_ALPHA_TRUTHS[a]) <= res.abs_err_est <= 1e-10
            assert res.value.hex() == bits

    @pytest.mark.parametrize("entry_id", ["ex1", "ex4"])
    def test_square_root_hull_end_grid_is_one_interpolant_in_s(self, entry_id):
        # stripped ex1's anchor and stripped ex4's alpha = 1 are square-root
        # hull ends: one interpolant in s = sqrt(|alpha - end|) serves the grid
        entry = catalog.get(entry_id)
        P = dataclasses.replace(entry.parametric, rhs_closed=None)
        for p in verify(P, entry.verification_grid).points:
            assert abs(p.reconstructed - P.solution_closed(p.alpha)) <= 1e-13
        assert [route.name for route in _routes(P, entry.verification_grid)] == ["grid-s"]

    @pytest.mark.parametrize("entry_id", ["ex1", "ex2", "ex3_beta", "ex4"])
    def test_closed_rhs_grids_reconstruct_point_by_point(self, entry_id):
        # a closed rhs: every point is reconstruct's alone, to the bit, on an
        # alpha-quadrature over its own path
        entry = catalog.get(entry_id)
        P, grid = entry.parametric, list(entry.verification_grid)
        rep = verify(P, grid)
        routes = _routes(P, grid)
        assert len(routes) == len(set(grid) - {P.anchor.alpha0})
        assert not any(route.name.startswith("grid") for route in routes)
        for p in rep.points:
            assert p.reconstructed.hex() == reconstruct(P, p.alpha).value.hex()

    def test_numeric_rhs_that_fails_is_reconstructed_point_by_point(self, monkeypatch):
        # d f/d alpha cannot be evaluated below a = 0.5: the interpolant on
        # the hull [0.25, 2] declines at its first sample below 0.5, and the
        # fit at the hull end 0.25, taken only then, fails.  The points and
        # notes are those of each point's own alpha-quadrature
        def da(x: float, a: float) -> float:
            return _cos_da(x, a) + 0.0 * math.sqrt(a - 0.5)

        P = dataclasses.replace(make_cos(anchored=True), d_alpha=da)
        grid = [0.25, 1.0, 2.0]
        rep = verify(P, grid)
        _declined(monkeypatch)
        assert rep == verify(P, grid)
        assert rep.points[0].note.endswith("[EvaluationError]")
        assert rep.points[2].reconstructed == reconstruct(P, 2.0).value

    def test_invalid_sample_tolerance_is_reconstructed_point_by_point(self, monkeypatch):
        # the samples run at the alpha-tolerance times 0.125/(hi - lo), which
        # cannot underflow (the alpha-tolerance is floored at 2e-8) but
        # overflows here: abs_tol 1e300 on a hull 2**-31 wide.  The
        # interpolant declines rather than build an invalid QuadConfig.
        P, grid = catalog.get("ex3_alpha").parametric, [1.0, 1.0 + 2.0 ** -31]
        cfg = QuadConfig(abs_tol=1e300)
        rep = verify(P, grid, cfg=cfg)
        assert _routes(P, grid, cfg) == [engine._Route("gk", DomainSpec.finite(*grid))]
        _declined(monkeypatch)
        assert rep == verify(P, grid, cfg=cfg)
        # a caller abs_tol of 5e-324 samples as the default does
        tiny = QuadConfig(abs_tol=5e-324)
        grid = list(catalog.get("ex3_alpha").verification_grid)
        assert engine._reconstruct_each(P, grid, tiny) == engine._reconstruct_each(
            P, grid, QuadConfig())

    @pytest.mark.parametrize("grid, served, most_calls, most_evals", [
        ([5.0], True, 31, 5_123), ([0.0, 20.0], False, 7, 2_305),
        ([0.0, 100.0], False, 7, 2_500),
        ([0.0, 1000.0], False, 0, 0),
    ])
    def test_one_point_is_served_and_a_wide_grid_declines_early(
        self, monkeypatch, grid, served, most_calls, most_evals
    ):
        # one point off the anchor is one interpolant on its path, whose ends
        # 1 and 5 lie inside the parameter domain and are not fitted.  On a
        # wide hull I(alpha)'s branch points at +-i slow the series, and the
        # decay read at n = 8 declines before the next level, or the fit at
        # the domain end 0 reads it singular and no sample is taken.  A
        # declined grid's points are each their own alpha-quadrature's, as
        # with no interpolant at all.
        evals = []
        deriv = engine.deriv_under_integral

        def counted(P, a, cfg=None):
            res = deriv(P, a, cfg)
            evals.append(res.n_evals)
            return res

        P = catalog.get("ex3_alpha").parametric
        assert ("grid-α" in [route.name for route in _routes(P, grid)]) is served
        monkeypatch.setattr(engine, "deriv_under_integral", counted)
        rep = verify(P, grid)
        calls, total = len(evals), sum(evals)
        if served:
            assert rep.passed
            assert calls <= most_calls and total <= most_evals
            return
        # the samples of the declined interpolant
        _declined(monkeypatch)
        evals.clear()
        assert rep == verify(P, grid)
        assert calls - len(evals) <= most_calls and total - sum(evals) <= most_evals
        for p in rep.points:
            assert p.reconstructed == reconstruct(P, p.alpha).value

    def test_point_outside_the_closure_is_noted_and_the_rest_interpolated(self):
        # alpha = 5 is outside [0, 4]: its note names the domain, and the
        # hull of the others, [0, 2], is one interpolant
        P = make_scaled(lambda x: 1.0, DomainSpec.finite(0.0, 1.0), singular_anchor=False)
        rep = verify(P, [1.0, 2.0, 5.0])
        assert [route.name for route in _routes(P, [1.0, 2.0, 5.0])] == ["grid-α"]
        one, two, out = rep.points
        assert abs(one.reconstructed - 0.5) <= 1e-13 and abs(two.reconstructed - 2.0) <= 1e-13
        assert out.reconstructed is None
        assert out.note.endswith(
            "; reconstruction failed: alpha=5.0 outside the closure of the parameter "
            "domain [0, 4] [ParameterDomainError]")

    @pytest.mark.parametrize("case", ["inner_failure", "no_decay"])
    def test_declined_grid_is_reconstructed_point_by_point(self, monkeypatch, case):
        # A numeric rhs anchored at I(0) = 0, whose interpolant declines: on
        # [0, 8] with the hull [0, 4], a Chebyshev sample that does not
        # converge within 11 panels at the samples' tolerance (6.25e-10),
        # although the probes do at theirs and the fallback's nodes at the
        # node tolerance (1e-9); or, on [0, 4] with the hull [0, 2],
        # cos(8 alpha), whose samples at n = 8 have a top quarter of
        # coefficients no smaller than the second
        cfg, grid = QuadConfig(), [1.0, 2.0]
        if case == "inner_failure":
            P = make_scaled(lambda x: 1.0 / (x * x + 3e-3), DomainSpec.finite(-1.0, 1.0),
                            singular_anchor=False)
            P = dataclasses.replace(P, param_domain=ParamDomain(0.0, 8.0))
            cfg, grid = QuadConfig(max_subdivisions=11), [2.0, 4.0]
        else:
            P = make_scaled(lambda x: 1.0, DomainSpec.finite(0.0, 1.0), singular_anchor=False)
            P = dataclasses.replace(P, integrand=lambda x, a: math.sin(8.0 * a) / 8.0,
                                    d_alpha=lambda x, a: math.cos(8.0 * a))
        rep = verify(P, grid, cfg=cfg)
        got = engine._reconstruct_each(P, grid, cfg)
        assert [route for _, route in got.values()] == [
            engine._Route("gk", DomainSpec.finite(0.0, a)) for a in grid]
        if case == "inner_failure":
            # a point's status is that of the samples its value rests on: the
            # declined interpolant's max_depth sample is not the fallback's on
            # alpha = 4, whose path is the hull, so the past-hull fit at the
            # domain end 8 is still taken
            assert {a: (res.status, res.n_evals) for a, (res, _) in got.items()} == {
                2.0: (QuadStatus.CONVERGED, 9_870), 4.0: (QuadStatus.CONVERGED, 10_620)}
        _declined(monkeypatch)
        assert rep == verify(P, grid, cfg=cfg)
        for p in rep.points:
            assert p.reconstructed == reconstruct(P, p.alpha, cfg).value

    def test_samples_without_error_chop_on_their_rounding(self, monkeypatch):
        # an inner quadrature that reports 0 error everywhere: the top
        # coefficients are rounding, not signal, and the series chops at n = 8
        calls = []

        def exact(P, a, cfg=None):
            calls.append(a)
            return QuadResult(a, 0.0, 1, QuadStatus.CONVERGED)

        monkeypatch.setattr(engine, "deriv_under_integral", exact)
        P = make_scaled(lambda x: 1.0, DomainSpec.finite(0.0, 1.0), singular_anchor=False)
        got = engine._reconstruct_each(P, [1.0, 2.0, 3.0], QuadConfig())
        assert len(calls) == 3 + 7  # the fit at the domain end 0, and the samples
        for a in (1.0, 2.0, 3.0):
            res, _ = got[a]
            assert abs(res.value - 0.5 * a * a) <= res.abs_err_est <= 1e-13

    def test_grid_point_past_the_alpha_tolerance_is_not_converged(self):
        # I = 1e5 cos(a) 2/3 from one interpolant on the hull [0, 3]: at pi/2,
        # where I passes 0, the estimate 4.0e-6 misses the alpha-tolerance
        # 2e-8 at the returned value; the other points meet theirs
        grid = [0.5, math.pi / 2.0, 2.0, 3.0]
        got = engine._reconstruct_each(make_cos_sqrt(), grid, QuadConfig())
        assert {route.name for _, route in got.values()} == {"grid-α"}
        for a in grid:
            res, _ = got[a]
            assert abs(res.value - _cos_sqrt_sol(a)) <= res.abs_err_est
            tol = max(2e-8, 2e-8 * abs(res.value))
            assert (res.abs_err_est <= tol) is (a != math.pi / 2.0)
            assert res.status is (
                QuadStatus.MAX_DEPTH if a == math.pi / 2.0 else QuadStatus.CONVERGED)

    def test_one_shot_grid_is_read_once(self):
        # the reconstructions used to consume a generator, leaving the point
        # loop nothing: zero points, passed
        P = catalog.get("ex2").parametric
        rep = verify(P, (a for a in [1.5, 2.0]))
        assert rep == verify(P, [1.5, 2.0])
        assert len(rep.points) == 2 and rep.passed

    def test_empty_iterator_is_refused(self):
        with pytest.raises(ValueError, match="nonempty"):
            verify(make_cos(), iter([]))


# ---------------------------------------------------------------------------
# a family without d_alpha
# ---------------------------------------------------------------------------

def _ex1_without(*fields: str) -> ParametricIntegral:
    return dataclasses.replace(catalog.get("ex1").parametric, **dict.fromkeys(fields))


class TestWithoutDAlpha:
    """d f/d alpha comes from d_alpha alone.  An operation that integrates
    it refuses a family without one before calling the integrand; what
    needs only f or a closed rhs runs as before, to the bit."""

    @pytest.mark.parametrize("op", [
        lambda P: deriv_under_integral(P, 1.0),
        lambda P: interchange_check(P, 1.0),
        lambda P: domination_scan(P, (0.25, 4.0)),
        lambda P: reconstruct(P, 1.0),
    ], ids=["deriv_under_integral", "interchange_check", "domination_scan", "reconstruct"])
    def test_refused_before_any_evaluation(self, op):
        seen = []
        P = _recording(_ex1_without("d_alpha", "rhs_closed"), seen)
        with pytest.raises(ValueError, match="no d_alpha") as info:
            op(P)
        assert type(info.value) is ValueError and seen == []

    def test_verify_notes_the_refusal_at_each_point(self):
        P = _ex1_without("d_alpha", "rhs_closed")
        rep = verify(P, catalog.get("ex1").verification_grid)
        assert len(rep.points) == 3 and not rep.passed
        for p in rep.points:
            assert p.note.startswith("reconstruction failed: the family has no d_alpha")
            assert p.note.endswith("[ValueError]") and p.reconstructed is None
            assert p.disc_direct_closed is None and p.direct == eval_direct(P, p.alpha).value

    def test_f_and_a_closed_rhs_keep_their_bits(self):
        P, Q = catalog.get("ex1").parametric, _ex1_without("d_alpha")
        grid = catalog.get("ex1").verification_grid
        for a in grid:
            assert eval_direct(Q, a) == eval_direct(P, a)
            assert reconstruct(Q, a) == reconstruct(P, a)
        assert verify(Q, grid) == verify(P, grid)


def census(emit: Callable[[str], None] = print) -> dict:
    """Emit what every nested reconstruction of the catalog costs: one line
    per stripped reconstruction off an anchor, and one per verify grid of an
    entry with no closed rhs, each with its alpha-routes ("grid-α" or
    "grid-s" for an interpolant, else each fallback's kernel), its inner
    evaluations, the share of them spent on routing fits, its largest
    estimate and its largest error against the closed form; then the total
    evaluations of each kind, the routing fits' share of them, and the
    largest ratio of an interpolated point's estimate to its error (at
    least 4 ulp of the closed form), ROADMAP item 5's target.  Last,
    one line for interchange_check over the interior grid points: its
    kernel passes, f and d f/d alpha calls, its largest lhs error against
    the closed forms' difference quotient (by mpmath), and the largest such
    error over lhs's estimate, with the number of points it exceeds.  Then,
    from caches cleared when the census starts, each node plan cache's
    hits, misses and size over the whole census.  Returns the totals and
    the interchange line's calls, the census half of the count ledger."""
    plans = [getattr(quadrature, name) for name in ("_gk_nodes", "_head_nodes", "_ts_side")]
    for plan in plans:
        plan.cache_clear()
    evals = []
    fitted = []  # the evaluations of each routing fit
    deriv, fit = engine.deriv_under_integral, engine._fit

    def counted(P, a, cfg=None):
        res = deriv(P, a, cfg)
        evals.append(res.n_evals)
        return res

    def counted_fit(rhs, end, lo, hi):
        before = len(evals)
        try:
            return fit(rhs, end, lo, hi)
        finally:
            fitted.append(sum(evals[before:]))

    totals = {"stripped": [0, 0], "grid": [0, 0]}  # evaluations, the fits' of them
    ratio = (0.0, None)  # the largest estimate / max(error, 4 ulp), and where
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "deriv_under_integral", counted)
        mp.setattr(engine, "_fit", counted_fit)
        for entry in catalog.entries():
            P = entry.parametric
            if P.anchor is None:
                continue
            runs = [("stripped", [a]) for a in entry.verification_grid if a != P.anchor.alpha0]
            if P.rhs_closed is None:
                runs.append(("grid", list(entry.verification_grid)))
            Q = dataclasses.replace(P, rhs_closed=None)
            for kind, alphas in runs:
                evals.clear()
                fitted.clear()
                got = engine._reconstruct_each(Q, alphas, QuadConfig())
                est = max(r.abs_err_est for r, _ in got.values())
                err = max(abs(r.value - P.solution_closed(a)) for a, (r, _) in got.items())
                for a, (r, route) in got.items():
                    if route and route.name.startswith("grid"):
                        true = P.solution_closed(a)
                        floor = max(abs(r.value - true), 4.0 * math.ulp(true))
                        ratio = max(ratio, (r.abs_err_est / floor, (entry.id, kind, a)))
                routes = dict.fromkeys(route for _, route in got.values() if route)
                totals[kind][0] += sum(evals)
                totals[kind][1] += sum(fitted)
                where = " ".join(map(repr, alphas))
                route = " + ".join(route.name for route in routes)
                share = sum(fitted) / sum(evals)
                emit(f"{entry.id:<10} {kind:<8} {where:<20} {route:<16} "
                     f"n_evals {sum(evals):>6}  fits {share:>4.0%}  "
                     f"est {est:.2e}  err {err:.2e}")
    for kind, (total, fits) in totals.items():
        emit(f"total {kind}: n_evals {total}, routing fits {fits} ({fits / total:.0%})")
    emit(f"largest estimate / max(error, 4 ulp) on an interpolated point: {ratio[0]:.2g} "
         f"({' '.join(map(str, ratio[1]))})")

    seen, passes, lhs, lhs_est = [], [], {}, {}

    def counted_pass(f, domain, cfg=None):
        passes.append(integrate(f, domain, cfg))
        return passes[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "integrate", counted_pass)
        for entry in catalog.entries():
            P = _recording(entry.parametric, seen)
            for a in entry.verification_grid:
                if P.param_domain.is_interior(a):
                    first = len(passes)
                    lhs[entry.id, a] = interchange_check(P, a).lhs
                    lhs_est[entry.id, a] = sum(r.abs_err_est for r in passes[first:first + 2])
    truths = interchange_truths(lhs)
    err, (entry_id, a) = max((abs(v - truths[k]), k) for k, v in lhs.items())
    ratios = [abs(v - truths[k]) / lhs_est[k] for k, v in lhs.items()]
    calls = [sum(k == kind for k, _ in seen) for kind in "fd"]
    emit(f"interchange_check at {len(lhs)} interior grid points: kernel passes "
         f"{len(passes)}, f calls {calls[0]}, d_alpha calls {calls[1]}, "
         f"largest lhs error {err:.2e} ({entry_id} at {a!r}), "
         f"largest error/estimate {max(ratios):.2g}, {sum(r > 1 for r in ratios)} outside")
    for plan in plans:
        info = plan.cache_info()
        emit(f"plan cache {plan.__name__}: hits {info.hits}, misses {info.misses}, "
             f"size {info.currsize} of {info.maxsize}")
    return {**{kind: {"n_evals": total, "routing_fits": fits}
               for kind, (total, fits) in totals.items()},
            "interchange": {"f": calls[0], "d_alpha": calls[1]}}


LEDGER = Path(__file__).resolve().parent.parent / "BENCH_counts.json"
_LEDGER_SEED = 7
_LEDGER_FIELDS = ("integrand", "d_alpha", "rhs_closed", "rhs_near")


def _counted(P: ParametricIntegral, counts: dict) -> ParametricIntegral:
    """P with each callable of ``_LEDGER_FIELDS`` it carries counting its calls."""
    def counter(field, fn):
        def call(*args):
            counts[field] += 1
            return fn(*args)
        return call
    return dataclasses.replace(
        P, **{k: counter(k, getattr(P, k)) for k in _LEDGER_FIELDS if getattr(P, k)})


def workload_counts() -> dict:
    """Catalog calls of one pass of each benchmark workload at the ledger's
    seed, by field of the family: each op of ``perfbench/workloads.py``
    called once on counted problems, with ``catalog.get`` serving counted
    entries, as the CLI reaches them."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", LEDGER.parent / "perfbench" / "workloads.py")
    # registered first: dataclasses reads the module's annotations through sys.modules
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    out = {}
    for name, build in workloads.WORKLOADS.items():
        counts = out[name] = dict.fromkeys(_LEDGER_FIELDS, 0)
        work = build(_LEDGER_SEED)
        problems = {k: _counted(P, counts) for k, P in work.problems.items()}
        entries = {e.id: dataclasses.replace(e, parametric=_counted(e.parametric, counts))
                   for e in catalog.entries()}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(catalog, "get", entries.__getitem__)
            for op in work.ops:
                work.call(op, problems)
    return out


def count_ledger(emit: Callable[[str], None] = print) -> dict:
    """The count ledger: the census's totals and one pass of each workload."""
    return {"census": census(emit), "workloads": {"seed": _LEDGER_SEED, **workload_counts()}}


def test_count_ledger_is_committed():
    # evaluation counts are deterministic: a change that moves one rewrites
    # the ledger with --census --write and says so
    assert count_ledger(emit=lambda line: None) == json.loads(LEDGER.read_text())


if __name__ == "__main__":
    if sys.argv[1:] == ["--census"]:
        census()
    elif sys.argv[1:] == ["--census", "--write"]:
        LEDGER.write_text(json.dumps(count_ledger(), indent=2) + "\n")
