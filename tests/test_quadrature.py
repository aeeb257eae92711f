"""Kernel-level tests for the four quadrature routines.

Expected values fall into three classes: directly assertable facts
(polynomials, classic integrals), formula evaluations, and frozen
literals produced by the independent oracles in ``_oracles.py``
(composite Simpson / mpmath at 30 digits).  The frozen literals are
marked with their oracle in a comment.
"""

import math
import os
import subprocess
import sys

import pytest

import paramint
from paramint import (
    DomainSpec,
    EndpointKind,
    EvaluationError,
    NonIntegrableSingularityError,
    OscillatoryTail,
    QuadConfig,
    QuadResult,
    QuadStatus,
    QuadratureError,
    integrate,
    integrate_finite,
    integrate_improper,
    integrate_oscillatory_improper,
    integrate_singular,
)

# frozen by tests/_oracles.py (mpmath, 30 digits; Simpson agrees to 1e-15)
EXP_COS5_0_1 = -0.510079168817682          # int_0^1 e^x cos(5x) dx
LOG_OVER_CIRCLE = -1.0887930451518011      # int_0^1 ln(x)/sqrt(1-x^2) dx
EXP_LORENTZ = 0.6214496242358134           # int_0^inf e^{-x}/(1+x^2) dx
SIN_LORENTZ = 0.64676112277913012          # int_0^inf sin(x)/(1+x^2) dx

HALF_LINE = DomainSpec.semi_infinite(0.0)
FULL_LINE = DomainSpec(
    -math.inf, math.inf, EndpointKind.INFINITE, EndpointKind.INFINITE
)


def tol_of(cfg: QuadConfig, value: float) -> float:
    return max(cfg.abs_tol, cfg.rel_tol * abs(value))


HALF_PI = 0.5 * math.pi


def _inv_sqrt_to_one(x: float) -> float:
    return 1.0 / math.sqrt(1.0 - x)


def _inv_sqrt_from_minus_half_pi(x: float) -> float:
    return 1.0 / math.sqrt(x + HALF_PI)


# the offset forms f(end + d), from the exact offset d
_inv_sqrt_to_one.near = lambda end, d: 1.0 / math.sqrt((1.0 - end) - d)
_inv_sqrt_from_minus_half_pi.near = lambda end, d: 1.0 / math.sqrt((end + HALF_PI) + d)


# ---------------------------------------------------------------------------
# finite regular kernel
# ---------------------------------------------------------------------------

class TestFinite:
    def test_polynomial_near_exact(self):
        res = integrate_finite(lambda x: x * x, DomainSpec.finite(0.0, 1.0))
        assert abs(res.value - 1.0 / 3.0) < 1e-14
        assert res.status is QuadStatus.CONVERGED
        assert res.n_evals > 0

    def test_sine_arch(self):
        res = integrate_finite(math.sin, DomainSpec.finite(0.0, math.pi))
        assert abs(res.value - 2.0) < 1e-12

    def test_oscillatory_smooth_vs_oracle(self):
        res = integrate_finite(
            lambda x: math.exp(x) * math.cos(5.0 * x), DomainSpec.finite(0.0, 1.0)
        )
        assert abs(res.value - EXP_COS5_0_1) < 1e-12
        assert res.status is QuadStatus.CONVERGED

    def test_converged_estimate_meets_request(self):
        cfg = QuadConfig(abs_tol=1e-8, rel_tol=1e-8)
        res = integrate_finite(
            lambda x: math.exp(-x * x), DomainSpec.finite(-3.0, 3.0), cfg
        )
        assert res.status is QuadStatus.CONVERGED
        assert res.abs_err_est <= tol_of(cfg, res.value)

    def test_estimate_honest_on_peaked_integrand(self):
        # narrow Lorentzian forces real subdivision work
        res = integrate_finite(
            lambda x: 1e-4 / (x * x + 1e-8), DomainSpec.finite(-1.0, 1.0)
        )
        exact = 2.0 * math.atan(1e4)
        assert abs(res.value - exact) <= 10.0 * max(res.abs_err_est, 1e-15)

    def test_budget_exhaustion_is_a_status_not_an_error(self):
        cfg = QuadConfig(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=4)
        res = integrate_finite(
            lambda x: 1.0 / (x * x + 1e-10), DomainSpec.finite(-1.0, 1.0), cfg
        )
        assert res.status is QuadStatus.MAX_DEPTH
        assert math.isfinite(res.value)

    def test_nonfinite_evaluation_names_the_abscissa(self):
        def bad(x: float) -> float:
            if abs(x - 0.3) < 0.05:
                raise ValueError("synthetic blow-up")
            return 1.0

        with pytest.raises(EvaluationError) as info:
            integrate_finite(bad, DomainSpec.finite(0.0, 1.0))
        assert abs(info.value.abscissa - 0.3) < 0.05

    def test_nan_return_is_rejected(self):
        with pytest.raises(EvaluationError):
            integrate_finite(
                lambda x: math.nan if x > 0.5 else 1.0, DomainSpec.finite(0.0, 1.0)
            )

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            DomainSpec.finite(1.0, 0.0)


# ---------------------------------------------------------------------------
# singular-endpoint kernel
# ---------------------------------------------------------------------------

class TestSingular:
    def test_inverse_sqrt(self):
        res = integrate_singular(
            lambda x: 1.0 / math.sqrt(x), DomainSpec.singular(0.0, 1.0, at_lower=True)
        )
        assert abs(res.value - 2.0) < 1e-10

    def test_log_endpoint(self):
        res = integrate_singular(
            math.log, DomainSpec.singular(0.0, 1.0, at_lower=True)
        )
        assert abs(res.value + 1.0) < 1e-10

    def test_upper_endpoint_cube_root(self):
        res = integrate_singular(
            lambda x: (1.0 - x) ** (-1.0 / 3.0),
            DomainSpec.singular(0.0, 1.0, at_upper=True),
        )
        assert abs(res.value - 1.5) < 1e-10

    def test_two_sided_vs_oracle(self):
        res = integrate_singular(
            lambda x: math.log(x) / math.sqrt((1.0 - x) * (1.0 + x)),
            DomainSpec.singular(0.0, 1.0, at_lower=True, at_upper=True),
        )
        assert abs(res.value - LOG_OVER_CIRCLE) < 1e-8
        assert abs(res.value - LOG_OVER_CIRCLE) <= 10.0 * max(res.abs_err_est, 1e-15)

    def test_beta_function_half_half(self):
        res = integrate_singular(
            lambda x: 1.0 / math.sqrt(x * (1.0 - x)),
            DomainSpec.singular(0.0, 1.0, at_lower=True, at_upper=True),
        )
        assert abs(res.value - math.pi) <= 10.0 * max(res.abs_err_est, 1e-12)

    def test_nonintegrable_pole_refused(self):
        with pytest.raises(NonIntegrableSingularityError) as info:
            integrate_singular(
                lambda x: 1.0 / x, DomainSpec.singular(0.0, 1.0, at_lower=True)
            )
        assert info.value.exponent <= -0.999

    def test_smooth_integrand_still_correct(self):
        # declaring a singularity that is not there must not break anything
        res = integrate_singular(
            math.cos, DomainSpec.singular(0.0, 1.0, at_lower=True)
        )
        assert abs(res.value - math.sin(1.0)) < 1e-12

    def test_singular_constructor_needs_a_side(self):
        with pytest.raises(ValueError):
            DomainSpec.singular(0.0, 1.0)

    def test_offset_form_at_the_upper_end(self):
        # Given its exact offset, 1/sqrt(1 - x) is sampled below ulp(1);
        # through x alone every node within ulp(1) of 1 would be cut.
        res = integrate_singular(
            _inv_sqrt_to_one, DomainSpec.singular(0.0, 1.0, at_upper=True)
        )
        assert res.status is QuadStatus.CONVERGED
        assert abs(res.value - 2.0) <= 1e-14

    def test_offset_form_at_a_nonzero_lower_end(self):
        # 1/sqrt(x + pi/2) on [-pi/2, pi/2]: int = 2 sqrt(pi)
        res = integrate_singular(
            _inv_sqrt_from_minus_half_pi,
            DomainSpec.singular(-HALF_PI, HALF_PI, at_lower=True),
        )
        assert res.status is QuadStatus.CONVERGED
        assert abs(res.value - 2.0 * math.sqrt(math.pi)) <= 1e-14

    def test_offset_form_evaluations_are_counted(self):
        counted = _CountingIntegrand(_inv_sqrt_to_one)
        counted.near = _CountingIntegrand(_inv_sqrt_to_one.near)
        res = integrate_singular(counted, DomainSpec.singular(0.0, 1.0, at_upper=True))
        assert counted.near.calls > 0
        assert res.n_evals == counted.calls + counted.near.calls

    def test_weighted_form_is_told_each_swept_node_weight(self):
        # the weighted form moves no bit; it is called at every swept node,
        # not at the middle node or the 9 fit rungs, with w = h * weight
        dom = DomainSpec.singular(0.0, 1.0, at_lower=True)
        plain = integrate_singular(lambda x: 1.0 / math.sqrt(x), dom)
        seen = []

        def f(x: float) -> float:
            return 1.0 / math.sqrt(x)

        def weighted(x: float, w: float) -> float:
            seen.append((x, w))
            return f(x)

        f.weighted = weighted
        res = integrate_singular(f, dom)
        assert res == plain
        assert len(seen) == res.n_evals - 1 - 9
        # level 0 (h = 1) sweeps the upper side first, from t = 1
        u = math.pi / 2.0 * math.sinh(1.0)
        w = 0.5 * (math.pi / 2.0) * math.cosh(1.0) / (math.cosh(u) * math.cosh(u))
        assert seen[0] == (_ts_upper_node(1.0, 0.0, 1.0), w)


# ---------------------------------------------------------------------------
# improper (infinite-endpoint) kernel
# ---------------------------------------------------------------------------

class TestImproper:
    def test_exponential(self):
        res = integrate_improper(lambda x: math.exp(-x), HALF_LINE)
        assert abs(res.value - 1.0) < 1e-11

    def test_gaussian_half_line(self):
        res = integrate_improper(lambda x: math.exp(-x * x), HALF_LINE)
        assert abs(res.value - 0.5 * math.sqrt(math.pi)) < 1e-11

    def test_full_line_gaussian(self):
        res = integrate_improper(lambda x: math.exp(-x * x), FULL_LINE)
        assert abs(res.value - math.sqrt(math.pi)) < 1e-10

    def test_lower_infinite_by_reflection(self):
        spec = DomainSpec(-math.inf, 0.0, lower_kind=EndpointKind.INFINITE)
        res = integrate_improper(lambda x: math.exp(x), spec)
        assert abs(res.value - 1.0) < 1e-11

    def test_slow_algebraic_tail_vs_oracle(self):
        res = integrate_improper(lambda x: math.exp(-x) / (1.0 + x * x), HALF_LINE)
        assert abs(res.value - EXP_LORENTZ) < 1e-10

    def test_lorentzian_quarter_circle(self):
        res = integrate_improper(lambda x: 1.0 / (1.0 + x * x), HALF_LINE)
        assert abs(res.value - math.pi / 2.0) < 1e-9

    def test_singular_lower_plus_infinite_upper(self):
        # Gamma(1/2): x^{-1/2} e^{-x} on (0, inf)
        spec = DomainSpec.semi_infinite(0.0, singular_lower=True)
        res = integrate_improper(lambda x: math.exp(-x) / math.sqrt(x), spec)
        assert abs(res.value - math.sqrt(math.pi)) < 1e-9

    def test_nonintegrable_tail_has_no_certificate(self):
        # 1/(1+x) diverges; the scan must not claim convergence
        res = integrate_improper(lambda x: 1.0 / (1.0 + x), HALF_LINE)
        assert res.status is not QuadStatus.CONVERGED

    @pytest.mark.parametrize("q", [1.5, 1.1, 1.01, 1.001, 1.0])
    def test_algebraic_tail_estimate_bounds_the_error(self, q):
        # (1+x)**-q integrates to 1/(q-1), and diverges at q = 1.  Near
        # q = 1 the tail sweep is cut next to the infinite end, and the mass
        # beyond the cut must be charged to the estimate at every status.
        res = integrate_improper(lambda x: (1.0 + x) ** -q, HALF_LINE)
        true = 1.0 / (q - 1.0) if q > 1.0 else math.inf
        assert abs(true - res.value) <= res.abs_err_est
        if res.status is QuadStatus.CONVERGED:
            assert res.abs_err_est <= tol_of(QuadConfig(), res.value)

    @pytest.mark.parametrize("q", [1.001, 1.0])
    def test_refused_tail_stops_refining(self, q):
        # The tail's fit at the first cut reads divergence: the estimate is
        # infinite from there on, so no further level is run.
        res = integrate_improper(lambda x: (1.0 + x) ** -q, HALF_LINE)
        assert res.status is QuadStatus.TAIL_TRUNCATED
        assert res.abs_err_est == math.inf
        assert res.n_evals == 108

    @pytest.mark.parametrize(
        "f, true",
        [
            (lambda x: math.sin(x) / (1.0 + x * x), SIN_LORENTZ),
            (lambda x: (math.sin(x) / x) ** 2 if x != 0.0 else 1.0, math.pi / 2.0),
        ],
        ids=["sin_lorentz", "sinc_squared"],
    )
    def test_oscillating_tail_estimate_bounds_the_error(self, f, true):
        # Declared as a plain half-line, the tail oscillates without bound
        # next to the infinite end of the compactified variable, and the
        # kernel runs out of levels: the estimate must still cover the error.
        res = integrate_improper(f, HALF_LINE)
        assert res.status is not QuadStatus.CONVERGED
        assert abs(true - res.value) <= res.abs_err_est


# ---------------------------------------------------------------------------
# oscillatory kernel
# ---------------------------------------------------------------------------

def _pi_zeros(k: int) -> float:
    return k * math.pi


class TestOscillatory:
    def test_sinc(self):
        res = integrate_oscillatory_improper(
            lambda x: math.sin(x) / x if x != 0.0 else 1.0,
            DomainSpec.oscillatory(0.0, _pi_zeros),
        )
        assert abs(res.value - math.pi / 2.0) < 1e-9

    def test_sin_lorentz_vs_oracle(self):
        res = integrate_oscillatory_improper(
            lambda x: math.sin(x) / (1.0 + x * x),
            DomainSpec.oscillatory(0.0, _pi_zeros),
        )
        assert abs(res.value - SIN_LORENTZ) < 1e-9

    def test_fresnel_like_square_phase(self):
        res = integrate_oscillatory_improper(
            lambda x: math.sin(x * x) / (x * x) if x != 0.0 else 1.0,
            DomainSpec.oscillatory(0.0, lambda k: math.sqrt(k * math.pi)),
        )
        assert abs(res.value - math.sqrt(2.0 * math.pi) / 2.0) < 1e-8

    def test_slow_sqrt_decay(self):
        res = integrate_oscillatory_improper(
            lambda x: math.sin(x) / math.sqrt(x) if x > 0.0 else 0.0,
            DomainSpec.oscillatory(0.0, _pi_zeros),
        )
        assert abs(res.value - math.sqrt(math.pi / 2.0)) < 1e-8

    def test_non_alternating_tail_falls_back(self):
        # positive integrand: partial sums never alternate, so the
        # accelerator must hand off to the plain improper kernel
        res = integrate_oscillatory_improper(
            lambda x: math.exp(-x) * (2.0 + math.sin(x)),
            DomainSpec.oscillatory(0.0, _pi_zeros),
        )
        assert abs(res.value - 2.5) < 1e-8

    def test_zero_rule_must_increase(self):
        with pytest.raises(ValueError):
            OscillatoryTail(phase_zero_rule=lambda k: 1.0)


# ---------------------------------------------------------------------------
# dispatch and config plumbing
# ---------------------------------------------------------------------------

class TestDispatch:
    def test_finite_route(self):
        spec = DomainSpec.finite(0.0, math.pi)
        assert integrate(math.sin, spec) == integrate_finite(math.sin, spec)

    def test_singular_route(self):
        spec = DomainSpec.singular(0.0, 1.0, at_lower=True)
        res = integrate(lambda x: 1.0 / math.sqrt(x), spec)
        assert abs(res.value - 2.0) < 1e-10

    def test_improper_route(self):
        res = integrate(lambda x: math.exp(-x), HALF_LINE)
        assert abs(res.value - 1.0) < 1e-11

    def test_oscillatory_route(self):
        spec = DomainSpec.oscillatory(0.0, _pi_zeros)
        res = integrate(lambda x: math.sin(x) / x if x else 1.0, spec)
        assert abs(res.value - math.pi / 2.0) < 1e-9

    def test_result_is_a_frozen_record(self):
        res = integrate_finite(math.sin, DomainSpec.finite(0.0, 1.0))
        assert isinstance(res, QuadResult)
        with pytest.raises(AttributeError):
            res.value = 0.0

    def test_config_rejects_nonpositive_tolerances(self):
        with pytest.raises(ValueError):
            QuadConfig(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadConfig(rel_tol=-1e-10)
        with pytest.raises(ValueError):
            QuadConfig(max_subdivisions=0)

    def test_domain_spec_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            DomainSpec.finite(1.0, 1.0)
        with pytest.raises(ValueError):
            DomainSpec.finite(2.0, 1.0)
        with pytest.raises(ValueError):
            DomainSpec(0.0, math.inf)  # missing INFINITE classification


# ---------------------------------------------------------------------------
# batched panels: failure location and evaluation counts
# ---------------------------------------------------------------------------

class _CountingIntegrand:
    """Counts its calls from outside the kernels."""

    def __init__(self, f):
        self.f = f
        self.calls = 0

    def __call__(self, *args: float) -> float:
        self.calls += 1
        return self.f(*args)


def _ts_offset(t: float, a: float, b: float) -> float:
    """Distance from its end of the tanh-sinh node at t > 0 on [a, b]."""
    u = math.pi / 2.0 * math.sinh(t)
    e2 = math.exp(-2.0 * u)
    return 0.5 * (b - a) * (2.0 * e2 / (1.0 + e2))


def _ts_upper_node(t: float, a: float, b: float) -> float:
    """Abscissa of the tanh-sinh node at t > 0 on [a, b] (the side near b)."""
    return b - _ts_offset(t, a, b)


class TestBatchPath:
    def test_first_failing_node_in_panel_order_is_named(self):
        # The first panel of [0, 1] is [0, 0.5]: its centre 0.25 is fine, the
        # next node (x ~ 0.002) returns NaN and the one after (x ~ 0.498)
        # raises TypeError.  The NaN node comes first, so it is reported.
        def f(x: float) -> float:
            if x < 0.1:
                return math.nan
            if x > 0.4:
                raise TypeError("synthetic type error")
            return 1.0

        with pytest.raises(EvaluationError) as info:
            integrate_finite(f, DomainSpec.finite(0.0, 1.0))
        assert info.value.abscissa == 0.25 - 0.25 * 0.991455371120813
        assert math.isnan(info.value.value)

    def test_foreign_exception_surfaces_unchanged(self):
        def f(x: float) -> float:
            if x > 0.4:
                raise TypeError("synthetic type error")
            return 1.0

        with pytest.raises(TypeError, match="synthetic type error"):
            integrate_finite(f, DomainSpec.finite(0.0, 1.0))

    def test_overflowing_sum_of_finite_values_is_not_an_error(self):
        # 15 values of 2e307 overflow a plain sum, so every panel is checked
        # a second time node by node; the result and the count stand.
        f = _CountingIntegrand(lambda x: 2e307)
        res = integrate_finite(f, DomainSpec.finite(0.0, 1.0))
        assert res.status is QuadStatus.CONVERGED
        assert abs(res.value - 2e307) <= 1e-12 * 2e307
        assert f.calls == 2 * res.n_evals

    def test_overflowing_integral_is_an_error_not_converged(self):
        # every node is finite, but the panels' values overflow to inf and
        # their estimates to nan
        with pytest.raises(QuadratureError, match="not finite"):
            integrate_finite(lambda x: 1e308, DomainSpec.finite(0.0, 8.0))

    def test_overflow_of_the_compactified_value_names_s(self):
        # f is finite everywhere, f / (1 - s)**2 is not near s = 1
        with pytest.raises(EvaluationError) as info:
            integrate_improper(lambda x: 1e305, HALF_LINE)
        assert 0.5 < info.value.abscissa < 1.0
        assert info.value.value == math.inf

    def test_nonfinite_integrand_under_compactification_names_x(self):
        # the tail (x >= 8) is finite; the head meets 1 < x < 2
        def f(x: float) -> float:
            return math.nan if 1.0 < x < 2.0 else math.exp(-x)

        with pytest.raises(EvaluationError) as info:
            integrate_improper(f, HALF_LINE)
        assert 1.0 < info.value.abscissa < 2.0
        assert math.isnan(info.value.value)

    def test_first_failing_node_in_sweep_order_is_named(self):
        # Level 0's upper sweep on [0, 1] meets t = 1 (x ~ 0.9755), which
        # returns NaN, and then t = 2 (x ~ 0.99999), which raises TypeError.
        x1 = _ts_upper_node(1.0, 0.0, 1.0)

        def f(x: float) -> float:
            if x == x1:
                return math.nan
            if x > 0.999:
                raise TypeError("synthetic type error")
            return 1.0 / math.sqrt(x)

        with pytest.raises(EvaluationError) as info:
            integrate_singular(f, DomainSpec.singular(0.0, 1.0, at_lower=True))
        assert info.value.abscissa == x1
        assert math.isnan(info.value.value)

    def test_failing_offset_form_node_is_named_at_end_plus_d(self):
        # Level 0's upper sweep on [0, 1] meets t = 1 at d = -r/2; the
        # offset form returns NaN there, and the error names x = 1 + d.
        d1 = -_ts_offset(1.0, 0.0, 1.0)

        def f(x: float) -> float:
            return 1.0 / math.sqrt(1.0 - x)

        def near(end: float, d: float) -> float:
            return math.nan if (end, d) == (1.0, d1) else 1.0 / math.sqrt((1.0 - end) - d)

        f.near = near
        with pytest.raises(EvaluationError) as info:
            integrate_singular(f, DomainSpec.singular(0.0, 1.0, at_upper=True))
        assert info.value.abscissa == 1.0 + d1
        assert math.isnan(info.value.value)

    def test_failing_weighted_form_node_is_named_at_x(self):
        x1 = _ts_upper_node(1.0, 0.0, 1.0)

        def f(x: float) -> float:
            return 1.0 / math.sqrt(x)

        f.weighted = lambda x, w: math.nan if x == x1 else f(x)
        with pytest.raises(EvaluationError) as info:
            integrate_singular(f, DomainSpec.singular(0.0, 1.0, at_lower=True))
        assert info.value.abscissa == x1
        assert math.isnan(info.value.value)

    def test_foreign_exception_surfaces_unchanged_from_a_sweep(self):
        def f(x: float) -> float:
            if x > 0.9:
                raise TypeError("synthetic type error")
            return 1.0 / math.sqrt(x)

        with pytest.raises(TypeError, match="synthetic type error"):
            integrate_singular(f, DomainSpec.singular(0.0, 1.0, at_lower=True))

    def test_overflowing_sweep_of_finite_values_is_not_an_error(self):
        # On [0, 8] the middle term is about -1.76e308, and level 1's upper
        # sweep adds about 1.74e308 (t = 0.5) and 1.2e307 (t = 1.5): a plain
        # sum of that sweep overflows, the compensated running total does
        # not.  The sweep is rerun node by node and counted once.
        big = {
            4.0: -2.8e307,
            _ts_upper_node(0.5, 0.0, 8.0): 4.5e307,
            _ts_upper_node(1.5, 0.0, 8.0): 1.7e308,
        }
        seen = []

        def f(x: float) -> float:
            seen.append(x)
            return big.get(x, 0.0)

        res = integrate_singular(f, DomainSpec.singular(0.0, 8.0, at_lower=True))
        assert math.isfinite(res.value) and res.value > 0.0
        assert res.status is QuadStatus.MAX_DEPTH
        assert len(seen) > res.n_evals == len(set(seen))

    def test_overflowing_sweep_total_is_a_quadrature_error(self):
        # finite values whose compensated running total overflows
        with pytest.raises(QuadratureError, match="not finite"):
            integrate_singular(
                lambda x: 1e308, DomainSpec.singular(0.0, 8.0, at_lower=True)
            )

    def test_singular_lower_improper_failure_names_x(self):
        def f(x: float) -> float:
            return math.nan if 1.0 < x < 2.0 else math.exp(-x) / math.sqrt(x)

        with pytest.raises(EvaluationError) as info:
            integrate_improper(f, DomainSpec.semi_infinite(0.0, singular_lower=True))
        assert 1.0 < info.value.abscissa < 2.0
        assert math.isnan(info.value.value)

    def test_singular_lower_improper_overflow_names_s(self):
        # f is finite everywhere, f / (1 - s)**2 is not near s = 1
        with pytest.raises(EvaluationError) as info:
            integrate_improper(
                lambda x: 1e305, DomainSpec.semi_infinite(0.0, singular_lower=True)
            )
        assert 0.5 < info.value.abscissa < 1.0
        assert info.value.value == math.inf

    @pytest.mark.parametrize(
        "f, domain",
        [
            (lambda x: math.exp(x) * math.cos(5.0 * x), DomainSpec.finite(0.0, 1.0)),
            (math.log, DomainSpec.singular(0.0, 1.0, at_lower=True)),
            (lambda x: math.exp(-x) / (1.0 + x * x), HALF_LINE),
            (lambda x: math.exp(-x * x), FULL_LINE),
            (
                lambda x: math.exp(-x) / math.sqrt(x),
                DomainSpec.semi_infinite(0.0, singular_lower=True),
            ),
            (lambda x: math.sin(x) / (1.0 + x * x), DomainSpec.oscillatory(0.0, _pi_zeros)),
            (
                lambda x: math.exp(-x) * (2.0 + math.sin(x)),
                DomainSpec.oscillatory(0.0, _pi_zeros),
            ),
        ],
        ids=["finite", "singular", "improper", "improper_full_line",
             "improper_singular_lower", "oscillatory", "oscillatory_fallback"],
    )
    def test_n_evals_equals_calls_counted_outside(self, f, domain):
        counted = _CountingIntegrand(f)
        res = integrate(counted, domain)
        assert res.n_evals == counted.calls > 0


class TestNodeTables:
    def test_cold_tables_give_the_bits_of_warm_ones(self):
        # A fresh interpreter builds no table at import; its first call
        # builds levels 0-12 and must give the bits of a repeat, and of
        # this process, whose tables other tests have already built.
        code = (
            "from paramint import DomainSpec, QuadConfig, integrate, quadrature\n"
            "built = len(quadrature._ts_tables)\n"
            "recs = [integrate(lambda x: (1.0 - x) ** (-1.0 / 3.0),\n"
            "                  DomainSpec.singular(0.0, 1.0, at_upper=True),\n"
            "                  QuadConfig(1e-13, 1e-13)) for _ in range(2)]\n"
            "print(built, len(quadrature._ts_tables))\n"
            "for r in recs:\n"
            "    print(r.value.hex(), r.abs_err_est.hex(), r.n_evals)\n"
        )
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(paramint.__file__))
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env,
            timeout=120, check=True,
        )
        tables, cold, warm = proc.stdout.splitlines()
        assert tables == "0 13"
        here = integrate(
            lambda x: (1.0 - x) ** (-1.0 / 3.0),
            DomainSpec.singular(0.0, 1.0, at_upper=True),
            QuadConfig(1e-13, 1e-13),
        )
        assert cold == warm == f"{here.value.hex()} {here.abs_err_est.hex()} {here.n_evals}"
