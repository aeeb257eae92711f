"""Workflow-layer tests: parameter domains, derivative-under-the-integral,
interchange checks, domination scans, reconstruction, and verification.

Uses two self-contained families with known closed forms:

* ``gauss``-type: f(x, a) = e^{-a x^2} on (0, inf), I(a) = (1/2)sqrt(pi/a)
* ``cosine``-type: f(x, a) = cos(a x) on [0, 1],  I(a) = sin(a)/a

plus a scaled family s(a) * shape(x) whose inner quadrature the nested
reconstruction tests choose.
"""

import dataclasses
import math

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
    deriv_under_integral,
    domination_scan,
    eval_direct,
    integrate,
    interchange_check,
    reconstruct,
    verify,
)
from paramint import catalog, engine

from _oracles import EX3_ALPHA_TRUTHS

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


# --- scaled family ----------------------------------------------------------

def make_scaled(shape, domain: DomainSpec, singular_anchor: bool) -> ParametricIntegral:
    """f(x, a) = s(a) * shape(x), anchored at I(0) = 0, with no closed rhs:
    s(a) = sqrt(a), whose dI/da blows up at the anchor (a tanh-sinh
    parameter path), or s(a) = a*a/2 (a Gauss-Kronrod one)."""
    if singular_anchor:
        s, ds = math.sqrt, lambda a: 0.5 / math.sqrt(a)
    else:
        s, ds = (lambda a: 0.5 * a * a), (lambda a: a)
    return ParametricIntegral(
        integrand=lambda x, a: s(a) * shape(x),
        param_domain=ParamDomain(0.0, 4.0),
        domain=domain,
        d_alpha=lambda x, a: ds(a) * shape(x),
        anchor=Anchor(0.0, 0.0),
    )


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

    def test_deriv_finite_difference_fallback(self):
        res = deriv_under_integral(make_cos(with_da=False), 1.0)
        assert abs(res.value - _cos_rhs(1.0)) < 1e-7

    @pytest.mark.parametrize("alpha", [1.0, 1e-6, 1e-30, 1e-102])
    def test_algebraic_tail_at_small_alpha(self, alpha):
        # d/da of ex1 is 1/(1 + a x^2): an x**-2 tail that sets in only
        # beyond x ~ a**-0.5, so the mass sits far out on the half-line
        res = deriv_under_integral(catalog.get("ex1").parametric, alpha)
        true = math.pi / (2.0 * math.sqrt(alpha))
        assert res.status is QuadStatus.CONVERGED
        assert abs(res.value - true) <= res.abs_err_est
        assert abs(res.value - true) <= 1e-14 * true

    def test_deriv_at_boundary_needs_analytic_rule(self):
        with pytest.raises(OneSidedDifferenceError):
            deriv_under_integral(make_cos(with_da=False), 0.0)
        # with the rule supplied the same point is fine
        res = deriv_under_integral(make_cos(), 0.0)
        assert abs(res.value - 0.0) < 1e-12


# ---------------------------------------------------------------------------
# interchange check
# ---------------------------------------------------------------------------

class TestInterchange:
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
        # close to the edge the curvature allowance must widen the gate
        rep = interchange_check(make_cos(), 2.0 - 1e-3)
        assert rep.tolerance_used >= 1e-5
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

    def test_window_validation(self):
        P = make_gauss()
        with pytest.raises(DegenerateWindowError):
            domination_scan(P, (2.0, 0.5))
        with pytest.raises(ParameterDomainError):
            domination_scan(P, (-1.0, 1.0))

    @pytest.mark.parametrize("upper_inf, sides", [(False, 1), (True, 2)])
    def test_infinite_lower_end_dominated(self, upper_inf, sides):
        # (-inf, 0] is scanned mirrored, (-inf, inf) on both sides of 0
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

    def test_mirrored_scan_messages_use_the_declared_frame(self):
        # (-inf, 2.5] is scanned as [-2.5, inf); the errors must still name
        # abscissae of the declared domain
        left = DomainSpec(
            -math.inf, 2.5, lower_kind=EndpointKind.INFINITE,
            upper_kind=EndpointKind.INTEGRABLE_SINGULARITY,
        )
        P = ParametricIntegral(
            integrand=lambda x, a: (2.5 - x) ** (a - 1.0) * math.exp(x - 2.5),
            param_domain=ParamDomain(0.0, math.inf, lo_open=True),
            domain=left,
            d_alpha=lambda x, a: (
                math.log(2.5 - x) * (2.5 - x) ** (a - 1.0) * math.exp(x - 2.5)
            ),
        )
        with pytest.raises(DegenerateWindowError, match=r"toward x=2\.5 "):
            domination_scan(P, (1e-300, 2.0))
        # log(x + 3) fails for x <= -3, which the mirrored scan reaches
        Q = dataclasses.replace(
            make_gauss(),
            domain=DomainSpec(-math.inf, 0.0, lower_kind=EndpointKind.INFINITE),
            d_alpha=lambda x, a: math.log(x + 3.0) * math.exp(a * x),
        )
        with pytest.raises(DegenerateWindowError, match=r"failed at x=-3\.") as info:
            domination_scan(Q, (0.5, 2.0))
        assert "x=3." not in str(info.value)

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

    def test_fd_path_when_no_rules_at_all(self):
        P = make_cos(with_da=False, anchored=True)
        res = reconstruct(P, 2.0)
        assert abs(res.value - _cos_sol(2.0)) < 1e-6

    @pytest.mark.parametrize(
        "entry_id, alpha, stripped, counted_field",
        [("ex2", 1.5, True, "d_alpha"), ("ex4", 0.5, False, "rhs_closed")],
    )
    def test_n_evals_counts_every_evaluation(self, entry_id, alpha, stripped, counted_field):
        # numeric rhs: every d f/d alpha call of the inner quadratures;
        # closed rhs: every rhs call, the growth probes' included
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

    def test_routes_to_the_singular_kernel_only_at_singular_ends(self, monkeypatch):
        # record the x-domain of the alpha-quadrature (the integrate call
        # over the parameter path) and skip it; the growth probes run for real
        routes = []
        path = None

        def spy(f, dom, cfg=None):
            if (dom.lower, dom.upper) == path:
                routes.append((dom.lower_kind, dom.upper_kind))
                return QuadResult(0.0, 0.0, 0, QuadStatus.CONVERGED)
            return integrate(f, dom, cfg)

        monkeypatch.setattr(engine, "integrate", spy)
        singular = {}
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
                    path = (min(a, a0), max(a, a0))
                    routes.clear()
                    reconstruct(Q, a)
                    [kinds] = routes
                    if EndpointKind.INTEGRABLE_SINGULARITY in kinds:
                        singular[entry.id, a, stripped] = kinds
        sing, reg = EndpointKind.INTEGRABLE_SINGULARITY, EndpointKind.REGULAR
        anchor_end = {
            ("ex1", a, s): (sing, reg) for a in (0.25, 1.0, 4.0) for s in (False, True)
        }
        edge = {("ex4", 1.0, s): (reg, sing) for s in (False, True)}
        assert singular == anchor_end | edge

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
# value bits of ex1's stripped reconstructions, which loosening the inner
# quadratures by node weight must not move
_EX1_STRIPPED_BITS = {
    0.25: "0x1.921fb54442d0bp+0",
    1.0: "0x1.921fb54442d0cp+1",
    4.0: "0x1.921fb54442d07p+2",
}


class TestNestedReconstruction:
    """reconstruct with no closed rhs: every alpha-node is an inner quadrature."""

    @pytest.mark.parametrize("singular_anchor", [False, True], ids=["gk_path", "tanh_sinh_path"])
    def test_inner_failure_is_not_reported_converged(self, singular_anchor):
        # two panels cannot resolve the peak, so the inner quadratures end at
        # max_depth while the parameter quadrature itself converges
        P = make_scaled(
            lambda x: 1.0 / (x * x + 1e-4), DomainSpec.finite(-1.0, 1.0), singular_anchor)
        cfg = QuadConfig(max_subdivisions=2)
        assert deriv_under_integral(P, 1.0, cfg).status is QuadStatus.MAX_DEPTH
        assert reconstruct(P, 1.0, cfg).status is QuadStatus.MAX_DEPTH

    def test_relaxed_node_estimate_enters_the_outer_estimate(self, monkeypatch):
        # a tanh-sinh alpha-node of weight W whose inner tolerance theta/W is
        # looser than the node tolerance runs at theta/W; the estimate it
        # returns is charged to the outer estimate at weight W
        P = make_scaled(
            lambda x: x ** -0.5, DomainSpec.singular(0.0, 1.0, at_lower=True), True)
        plain = reconstruct(P, 1.0)
        theta = engine._NODE_ERR_SHARE * 1.0  # the path [0, 1]
        charged = []
        deriv = engine.deriv_under_integral

        def unsure(P, a, cfg):
            res = deriv(P, a, cfg)
            if cfg.abs_tol > engine._DERIV_TOL_FLOOR:  # a relaxed node
                charged.append(theta / cfg.abs_tol)  # W, times the estimate 1.0
                res = dataclasses.replace(res, abs_err_est=1.0)
            return res

        monkeypatch.setattr(engine, "deriv_under_integral", unsure)
        res = reconstruct(P, 1.0)
        assert charged
        assert res.value == plain.value
        assert res.abs_err_est == pytest.approx(plain.abs_err_est + math.fsum(charged), rel=1e-9)
        assert res.abs_err_est > 1.1 * plain.abs_err_est

    @pytest.mark.parametrize("entry_id, alpha", [
        pytest.param(
            i, a, marks=pytest.mark.xfail(
                raises=NonIntegrableSingularityError, strict=True,
                reason="ROADMAP item 3: the endpoint fit reads the steep but "
                       "integrable rhs near alpha = 1 as non-integrable"))
        if (i, a) == ("ex4", 1.0) else (i, a)
        for i, a in _ANCHORED_GRID
    ])
    def test_stripped_rhs_is_honest(self, entry_id, alpha):
        P = dataclasses.replace(catalog.get(entry_id).parametric, rhs_closed=None)
        res = reconstruct(P, alpha)
        err = abs(res.value - P.solution_closed(alpha))
        assert err <= res.abs_err_est or res.status is not QuadStatus.CONVERGED

    @pytest.mark.parametrize("alpha", sorted(_EX1_STRIPPED_BITS))
    def test_stripped_ex1_cost_and_bits(self, alpha):
        # the alpha-nodes next to the singular anchor weigh almost nothing,
        # so their inner quadratures run loose
        P = dataclasses.replace(catalog.get("ex1").parametric, rhs_closed=None)
        res = reconstruct(P, alpha)
        assert res.value.hex() == _EX1_STRIPPED_BITS[alpha]
        assert res.n_evals <= 25_000


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------

# value bits of ex3_alpha's grid reconstructions from one interpolant
_EX3_ALPHA_GRID_BITS = {
    0.0: "0x1.40d931ff627c6p+0",
    0.5: "0x1.f87889db7c666p-1",
    2.0: "0x1.37c7b6d998078p-1",
}


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
        # point alone took 108 inner quadratures and 26,730 evaluations
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
        assert len(evals) <= 40 and sum(evals) <= 14_000
        monkeypatch.setattr(engine, "deriv_under_integral", deriv)
        got = engine._grid_reconstruct(P, grid, QuadConfig())
        assert [p.reconstructed for p in rep.points] == [got[a].value for a in grid]
        assert got[P.anchor.alpha0].value == P.anchor.value0
        for a, bits in _EX3_ALPHA_GRID_BITS.items():
            res = got[a]
            assert res.status is QuadStatus.CONVERGED
            assert abs(res.value - EX3_ALPHA_TRUTHS[a]) <= res.abs_err_est <= 1e-10
            assert res.value.hex() == bits

    @pytest.mark.parametrize("entry_id, stripped", [
        ("ex1", True), ("ex4", True),
        ("ex1", False), ("ex2", False), ("ex3_beta", False), ("ex4", False),
    ])
    def test_other_grids_reconstruct_point_by_point(self, entry_id, stripped):
        # a singular hull end (stripped ex1's anchor, stripped ex4's alpha =
        # 1) or a closed rhs: every point is reconstruct's alone, to the bit
        entry = catalog.get(entry_id)
        P, grid = entry.parametric, list(entry.verification_grid)
        if stripped:
            P = dataclasses.replace(P, rhs_closed=None)
        assert engine._grid_reconstruct(P, grid, QuadConfig()) is None
        for p in verify(P, grid).points:
            try:
                want = reconstruct(P, p.alpha).value.hex()
            except NonIntegrableSingularityError:  # stripped ex4 at 1, ROADMAP item 3
                want = None
            assert (None if p.reconstructed is None else p.reconstructed.hex()) == want

    def test_numeric_rhs_that_fails_is_reconstructed_point_by_point(self, monkeypatch):
        # d f/d alpha cannot be evaluated below a = 0.5, so the probe at the
        # hull end 0.25 fails: the points and notes are those of
        # reconstructing each point alone
        def da(x: float, a: float) -> float:
            return _cos_da(x, a) + 0.0 * math.sqrt(a - 0.5)

        P = dataclasses.replace(make_cos(anchored=True), d_alpha=da)
        grid = [0.25, 1.0, 2.0]
        rep = verify(P, grid)
        monkeypatch.setattr(engine, "_grid_reconstruct", lambda *args: None)
        assert rep == verify(P, grid)
        assert rep.points[0].note.endswith("[EvaluationError]")
        assert rep.points[2].reconstructed is not None

    def test_underflowing_node_tolerance_is_reconstructed_point_by_point(self, monkeypatch):
        # abs_tol / (4 (hi - lo)) is 0.0 on ex3_alpha's hull [0, 2]: the grid
        # declines rather than build an invalid QuadConfig
        P, grid = catalog.get("ex3_alpha").parametric, [0.0, 0.5, 1.0, 2.0]
        cfg = QuadConfig(abs_tol=5e-324)
        assert engine._grid_reconstruct(P, grid, cfg) is None
        rep = verify(P, grid, cfg=cfg)
        monkeypatch.setattr(engine, "_grid_reconstruct", lambda *args: None)
        assert rep == verify(P, grid, cfg=cfg)

    @pytest.mark.parametrize("grid, most_calls, most_evals", [
        ([5.0], 0, 0), ([0.0, 20.0], 13, 5_000), ([0.0, 100.0], 13, 5_000),
        ([0.0, 1000.0], 3, 1_000),
    ])
    def test_grid_that_shares_nothing_or_cannot_chop_declines_early(
        self, monkeypatch, grid, most_calls, most_evals
    ):
        # one point off the anchor shares no sample; on a wide hull I(alpha)'s
        # branch points at +-i slow the series, and the decay read at n = 8
        # (or a hull end read as singular, by probes at reconstruct's own
        # node tolerance: at the grid's, each probe near 0 takes ~60,000
        # evaluations) declines before the next level
        evals = []
        deriv = engine.deriv_under_integral

        def counted(P, a, cfg=None):
            res = deriv(P, a, cfg)
            evals.append(res.n_evals)
            return res

        monkeypatch.setattr(engine, "deriv_under_integral", counted)
        P = catalog.get("ex3_alpha").parametric
        assert engine._grid_reconstruct(P, grid, QuadConfig()) is None
        assert len(evals) <= most_calls and sum(evals) <= most_evals
        monkeypatch.setattr(engine, "deriv_under_integral", deriv)
        for p in verify(P, grid).points:
            assert p.reconstructed == reconstruct(P, p.alpha).value

    def test_samples_without_error_chop_on_their_rounding(self, monkeypatch):
        # an inner quadrature that reports 0 error everywhere: the top
        # coefficients are rounding, not signal, and the series chops at n = 8
        calls = []

        def exact(P, a, cfg=None):
            calls.append(a)
            return QuadResult(a, 0.0, 1, QuadStatus.CONVERGED)

        monkeypatch.setattr(engine, "deriv_under_integral", exact)
        P = make_scaled(lambda x: 1.0, DomainSpec.finite(0.0, 1.0), singular_anchor=False)
        got = engine._grid_reconstruct(P, [1.0, 2.0, 3.0], QuadConfig())
        assert len(calls) == 6 + 7
        for a in (1.0, 2.0, 3.0):
            assert abs(got[a].value - 0.5 * a * a) <= got[a].abs_err_est <= 1e-13
