"""Workflow-layer tests: parameter domains, derivative-under-the-integral,
interchange checks, domination scans, reconstruction, and verification.

Uses two self-contained families with known closed forms:

* ``gauss``-type: f(x, a) = e^{-a x^2} on (0, inf), I(a) = (1/2)sqrt(pi/a)
* ``cosine``-type: f(x, a) = cos(a x) on [0, 1],  I(a) = sin(a)/a
"""

import math

import pytest

from paramint import (
    Anchor,
    DegenerateWindowError,
    DominationVerdict,
    DomainSpec,
    InterchangeReport,
    MissingAnchorError,
    OneSidedDifferenceError,
    ParamDomain,
    ParameterDomainError,
    ParametricIntegral,
    QuadStatus,
    XGridSpec,
    deriv_under_integral,
    domination_scan,
    eval_direct,
    interchange_check,
    reconstruct,
    verify,
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

    def test_rhs_singularity_flag_requires_anchor(self):
        with pytest.raises(ValueError):
            ParametricIntegral(
                integrand=_cos_f,
                param_domain=ParamDomain(0.0, 2.0),
                domain=DomainSpec.finite(0.0, 1.0),
                rhs_singular_at_anchor=True,
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
        rep = interchange_check(P, 1.0, fd_step=1e-4)
        expected = (_cos_sol(1.0 + 1e-4) - _cos_sol(1.0 - 1e-4)) / 2e-4
        assert abs(rep.lhs - expected) < 1e-9

    def test_boundary_point_rejected(self):
        with pytest.raises(ParameterDomainError):
            interchange_check(make_cos(), 0.0)

    def test_inflated_tolerance_near_boundary(self):
        # close to the edge the curvature allowance must widen the gate
        rep = interchange_check(make_cos(), 2.0 - 1e-3, fd_step=1e-4)
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
        with pytest.raises(ValueError):
            domination_scan(P, (0.5, 2.0), n_alpha=2)

    def test_grid_spec_validation(self):
        with pytest.raises(ValueError):
            XGridSpec(n_points=8)
        with pytest.raises(ValueError):
            XGridSpec(span=0.0)
        with pytest.raises(ValueError):
            XGridSpec(tail_octaves=1)


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

    def test_missing_anchor(self):
        with pytest.raises(MissingAnchorError):
            reconstruct(make_gauss(anchored=False), 2.0)

    def test_out_of_domain_target(self):
        with pytest.raises(ParameterDomainError):
            reconstruct(make_cos(anchored=True), 3.0)


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------

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
