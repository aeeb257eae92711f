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
    quadrature,
)

from _oracles import FAR_SQUARE_PHASE  # int_2000^inf sin(x^2)/x^2 dx, mpmath

# frozen by tests/_oracles.py (mpmath, 30 digits; Simpson agrees to 1e-15)
EXP_COS5_0_1 = -0.510079168817682          # int_0^1 e^x cos(5x) dx
LOG_OVER_CIRCLE = -1.0887930451518011      # int_0^1 ln(x)/sqrt(1-x^2) dx
EXP_LORENTZ = 0.6214496242358134           # int_0^inf e^{-x}/(1+x^2) dx
SIN_LORENTZ = 0.64676112277913012          # int_0^inf sin(x)/(1+x^2) dx
SHIFTED_GAMMA_HALF = 0.6520493321732922    # int_1^inf e^{-x}/sqrt(x-1) dx = sqrt(pi)/e

HALF_LINE = DomainSpec.semi_infinite(0.0)
LOWER_HALF_LINE = DomainSpec(-math.inf, 0.0, lower_kind=EndpointKind.INFINITE)
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


# phase-zero rules and their rates dx/dk: x = k pi and x = sqrt(k pi)
def _pi_zeros(k: float) -> float:
    return k * math.pi


def _pi_rate(k: float) -> float:
    return math.pi


def _square_zeros(k: float) -> float:
    return math.sqrt(k * math.pi)


def _square_rate(k: float) -> float:
    return HALF_PI / math.sqrt(k * math.pi)


# ---------------------------------------------------------------------------
# finite regular kernel
# ---------------------------------------------------------------------------

class TestFinite:
    def test_polynomial_near_exact(self):
        res = integrate_finite(lambda x: x * x, DomainSpec.finite(0.0, 1.0))
        assert abs(res.value - 1.0 / 3.0) < 1e-14
        assert res.status is QuadStatus.CONVERGED
        assert res.n_evals > 0

    def test_gauss_kronrod_weights_sum_to_two(self):
        # QUADPACK's qk15 weights: each set, the centre's weight plus twice
        # each pair's, is 2 within 1 ulp (the 15-digit Kronrod weights summed
        # to 2 - 6.0e-15, the Gauss weights to 2 + 1.0e-15)
        gauss, kronrod = quadrature._GK[1::3], quadrature._GK[2::3]
        for w in (gauss, kronrod):
            assert abs(math.fsum([w[0], *(2.0 * v for v in w[1:])]) - 2.0) <= math.ulp(2.0)

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-3.0, 5.0), (0.0, 3.0)])
    def test_constant_is_exact(self, lo, hi):
        # a constant is integrated to the last bit (the 15-digit weights read
        # 1 - 2.9e-15 on [0, 1])
        res = integrate_finite(lambda x: 1.0, DomainSpec.finite(lo, hi))
        assert res.value == hi - lo
        assert res.status is QuadStatus.CONVERGED

    def test_estimate_floor_stays_finite_where_the_sum_does(self):
        # halves of -1e308 and 1e308 cancel to 0: the floor's terms are scaled
        # before they are summed, so sum |value| never overflows on its own
        res = integrate_finite(lambda x: math.copysign(5e307, x), DomainSpec.finite(-2.0, 2.0))
        assert res.value == 0.0
        assert math.isfinite(res.abs_err_est)

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

    def test_interval_too_narrow_to_split_is_one_panel(self):
        b = math.nextafter(1.0, 2.0)
        res = integrate_finite(lambda x: 3.0, DomainSpec.finite(1.0, b))
        assert res.n_evals == 15
        assert res.status is QuadStatus.CONVERGED
        assert abs(res.value - 3.0 * (b - 1.0)) <= res.abs_err_est

    def test_panels_too_narrow_to_split_are_frozen(self):
        # on [2**53, 2**53 + 256] floats lie 2 apart: bisection ends in 128
        # panels that cannot split, each kept with its share, and the loop
        # stops once none is left to split, short of the budget.  The
        # constant 1/3 keeps a rounding-level |K - G| in every panel, so
        # bisection goes on to the floats' spacing (the weights sum to 2 in
        # floating point, so a constant 1 is exact on the first two panels)
        a = 2.0 ** 53
        cfg = QuadConfig(abs_tol=1e-300, rel_tol=1e-300)
        res = integrate_finite(lambda x: 1.0 / 3.0, DomainSpec.finite(a, a + 256.0), cfg)
        assert res.status is QuadStatus.MAX_DEPTH
        assert res.n_evals == 15 * (2 + 2 * 126)
        assert abs(res.value - 256.0 / 3.0) <= res.abs_err_est <= 1e-12

    @pytest.mark.parametrize("shape", ["step", "parabola"])
    def test_abscissae_rounded_together_are_charged(self, shape):
        # floats lie 2 apart on [2**53, 2**53 + 256]: every node of the two
        # panels next to the step at c rounds onto c - 2 or c, so each looked
        # flat, and the result read 158 +- 5e-13, converged; the parabola
        # read 5593088 +- 0.09 against 256**3/3
        a = 2.0 ** 53
        if shape == "step":
            f, exact = (lambda x: 1.0 if x >= a + 100.0 else 0.0), 156.0
        else:
            f, exact = (lambda x: (x - a) ** 2), 256.0 ** 3 / 3.0
        res = integrate_finite(f, DomainSpec.finite(a, a + 256.0))
        assert res.status is not QuadStatus.CONVERGED
        assert abs(res.value - exact) <= res.abs_err_est

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

    def test_fit_stops_where_the_ladder_rounds_onto_the_endpoint(self):
        # rungs d = 2**-28, 2**-32, ...: 1 - d is exact down to 2**-52, and
        # 1 - 2**-56 rounds onto 1, so the ladder stops after 7 samples
        xs = []

        def g(x: float) -> float:
            xs.append(x)
            return (1.0 - x) ** -0.5

        assert quadrature._fit_endpoint(g, 1.0, 0.0, 2.0 ** -20) == (-0.5, 1.0)
        assert xs == [1.0 - 2.0 ** -j for j in range(28, 56, 4)]


# ---------------------------------------------------------------------------
# improper (infinite-endpoint) kernel
# ---------------------------------------------------------------------------

class TestScale:
    """A kernel run on 2**k f, at 2**k times the absolute tolerance, returns
    2**k times the value and the estimate, with the same evaluations and
    status: every cutoff is relative to the integrand's own scale."""

    def test_small_term_cutoff_is_relative_to_the_level(self):
        # an absolute cutoff of 1e-18 ended every sweep after three terms:
        # 3.9e-21 +- 1.6e-22, max_depth, in 1,349 evaluations
        res = integrate_singular(
            lambda x: 1e-20 / math.sqrt(x), DomainSpec.singular(0.0, 1.0, at_lower=True),
            QuadConfig(abs_tol=1e-40, rel_tol=1e-10))
        assert res.status is QuadStatus.CONVERGED
        assert abs(res.value - 2e-20) <= res.abs_err_est

    def test_small_term_cutoff_survives_cancellation(self):
        # int_0^3 (x - 1)/sqrt(x) dx = 0: a cutoff scaled by the level's
        # value, roundoff-sized here, fell to ~1e-34 and let sweeps run on
        # (77 evaluations); one scaled by level 0's largest term stops them where
        # the cutoff of (x + 1)/sqrt(x) does
        domain = DomainSpec.singular(0.0, 3.0, at_lower=True)
        zero = integrate_singular(lambda x: (x - 1.0) / math.sqrt(x), domain)
        twin = integrate_singular(lambda x: (x + 1.0) / math.sqrt(x), domain)
        assert zero.status is QuadStatus.CONVERGED and abs(zero.value) <= zero.abs_err_est
        assert zero.n_evals == twin.n_evals

    @pytest.mark.parametrize("k", [-600, -60, 60, 600])
    @pytest.mark.parametrize("f, domain", [
        (lambda x: math.exp(x) * math.cos(5.0 * x), DomainSpec.finite(0.0, 1.0)),
        (lambda x: 1.0 / math.sqrt(x), DomainSpec.singular(0.0, 1.0, at_lower=True)),
        (lambda x: (x - 1.0) / math.sqrt(x), DomainSpec.singular(0.0, 3.0, at_lower=True)),
        (math.log, DomainSpec.singular(0.0, 1.0, at_lower=True)),
        (lambda x: math.exp(-x) / (1.0 + x * x), HALF_LINE),
        (lambda x: math.exp(-x) / math.sqrt(x), DomainSpec.semi_infinite(0.0, singular_lower=True)),
        (lambda x: 1.0 / (1.0 + x * x), FULL_LINE),
        (lambda x: math.sin(x) / (1.0 + x * x), DomainSpec.oscillatory(0.0, _pi_zeros, _pi_rate)),
    ], ids=["finite", "singular", "singular_zero_valued", "singular_log", "half_line",
            "singular_half_line", "full_line", "oscillatory"])
    def test_scaling_the_integrand_scales_the_result(self, f, domain, k):
        scale = 2.0 ** k
        base = integrate(f, domain)
        res = integrate(lambda x: scale * f(x), domain, QuadConfig(abs_tol=scale * 1e-10))
        assert (res.value, res.abs_err_est) == (scale * base.value, scale * base.abs_err_est)
        assert (res.n_evals, res.status) == (base.n_evals, base.status)


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

    @pytest.mark.parametrize("f, bits", [
        (lambda x: x * math.exp(-x * x), ("0x0.0p+0", "0x1.f8aebc4b9c71ep-34", 326)),
        (
            lambda x: 1e6 * x * math.exp(-x * x) + 1e-3 * math.exp(-x * x),
            ("0x1.d0a35d0000000p-10", "0x1.2b79d78008400p-15", 386),
        ),
    ], ids=["odd", "odd_plus_small_even"])
    def test_full_line_sum_past_its_tolerance_is_not_converged(self, f, bits):
        # each half-line converges on its own, but their estimates add up
        # past the tolerance of the sum, whose value cancels: 1.15e-10 and
        # 3.6e-5 against 1e-10
        res = integrate_improper(f, FULL_LINE)
        assert (res.value.hex(), res.abs_err_est.hex(), res.n_evals) == bits
        assert res.abs_err_est > max(1e-10, 1e-10 * abs(res.value))
        assert res.status is QuadStatus.MAX_DEPTH

    def test_half_line_head_and_tail_that_cancel_past_the_tolerance(self):
        # (x - 4) e^(-x/4) on [0, inf): head -4.33 and tail 4.33 each meet
        # their share of 1e-9, but their estimates add to 1.04e-9 on a sum
        # that is 0
        res = integrate_improper(
            lambda x: (x - 4.0) * math.exp(-0.25 * x), HALF_LINE, QuadConfig(1e-9, 1e-9))
        assert (res.value.hex(), res.abs_err_est.hex(), res.n_evals) == (
            "0x0.0p+0", "0x1.1dfbcdc471c05p-30", 237)
        assert res.status is QuadStatus.MAX_DEPTH

    def test_lower_infinite_by_reflection(self):
        spec = DomainSpec(-math.inf, 0.0, lower_kind=EndpointKind.INFINITE)
        res = integrate_improper(lambda x: math.exp(x), spec)
        assert abs(res.value - 1.0) < 1e-11

    def test_lower_infinite_with_a_singular_upper_end_is_the_mirrored_half_line(self):
        # (-inf, b] with a singular upper end is [-b, inf) for f(-u) with a
        # singular lower end, to the bit and to the evaluation (b = 0)
        def f(x: float) -> float:
            return math.exp(x) / math.sqrt(-x)

        left = integrate_improper(f, DomainSpec(
            -math.inf, 0.0, EndpointKind.INFINITE, EndpointKind.INTEGRABLE_SINGULARITY))
        right = integrate_improper(
            lambda u: f(-u), DomainSpec.semi_infinite(-0.0, singular_lower=True))
        assert (left.value.hex(), left.abs_err_est.hex(), left.n_evals, left.status) == (
            right.value.hex(), right.abs_err_est.hex(), right.n_evals, right.status)
        assert left.status is QuadStatus.CONVERGED
        assert abs(left.value - math.sqrt(math.pi)) <= left.abs_err_est

    def test_singular_lower_end_off_the_origin(self):
        # [1, inf): the head runs tanh-sinh on x itself, so a node where x
        # rounds onto 1 is cut and its mass charged, never evaluated
        res = integrate_improper(
            lambda x: math.exp(-x) / math.sqrt(x - 1.0),
            DomainSpec.semi_infinite(1.0, singular_lower=True))
        assert abs(res.value - SHIFTED_GAMMA_HALF) <= res.abs_err_est < 1e-7

    def test_singular_lower_end_off_the_origin_takes_the_offset_form(self):
        # with near, the head samples offsets below ulp(1) and converges
        def f(x: float) -> float:
            return math.exp(-x) / math.sqrt(x - 1.0)

        f.near = lambda end, d: math.exp(-(end + d)) / math.sqrt((end - 1.0) + d)
        res = integrate_improper(f, DomainSpec.semi_infinite(1.0, singular_lower=True))
        assert res.status is QuadStatus.CONVERGED
        assert abs(res.value - SHIFTED_GAMMA_HALF) <= res.abs_err_est <= 1e-15

    def test_singular_upper_end_off_the_origin_is_the_mirrored_half_line(self):
        # (-inf, -1] for e^x/sqrt(-1 - x) is [1, inf) for e^-u/sqrt(u - 1),
        # to the bit
        left = integrate_improper(
            lambda x: math.exp(x) / math.sqrt(-1.0 - x),
            DomainSpec(-math.inf, -1.0, EndpointKind.INFINITE,
                       EndpointKind.INTEGRABLE_SINGULARITY))
        right = integrate_improper(
            lambda u: math.exp(-u) / math.sqrt(u - 1.0),
            DomainSpec.semi_infinite(1.0, singular_lower=True))
        assert left == right
        assert abs(left.value - SHIFTED_GAMMA_HALF) <= left.abs_err_est

    def test_mirrored_half_line_takes_the_offset_form(self):
        # (-inf, -1] runs [1, inf) for f(-u), whose offset form is
        # f.near(-end, -d): its head samples offsets below ulp(1) and
        # converges, as the integral on [1, inf) does (without it:
        # tail_truncated, 8.0e-9 within 2.3e-8, in 13,022 evaluations)
        def f(x: float) -> float:
            return math.exp(x) / math.sqrt(-1.0 - x)

        f.near = lambda end, d: math.exp(end + d) / math.sqrt((-1.0 - end) - d)
        dom = DomainSpec(-math.inf, -1.0, EndpointKind.INFINITE,
                         EndpointKind.INTEGRABLE_SINGULARITY)
        res = integrate_improper(f, dom)
        assert res.status is QuadStatus.CONVERGED
        assert abs(res.value - SHIFTED_GAMMA_HALF) <= res.abs_err_est <= 1e-15
        # an offset sample next to -1 that fails names its declared x
        f.near = lambda end, d: 1.0 / (end != -1.0 or abs(d) > 1e-3)
        with pytest.raises(EvaluationError) as info:
            integrate_improper(f, dom)
        assert -1.001 < info.value.abscissa < -1.0

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

    @pytest.mark.parametrize("f, domain, n_evals", [
        (lambda x: 1.0, HALF_LINE, 137),
        (lambda x: x, HALF_LINE, 130),
        (lambda x: math.log(2.0 + x), HALF_LINE, 136),
        (lambda x: 1.0, LOWER_HALF_LINE, 137),
        (lambda x: x, LOWER_HALF_LINE, 130),
        (lambda x: 1.0, FULL_LINE, 274),
        (lambda x: x, FULL_LINE, 260),
    ], ids=["one", "x", "log", "lower_one", "lower_x", "full_one", "full_x"])
    def test_tail_that_does_not_decay_is_truncated(self, f, domain, n_evals):
        # The rungs of the tail's fit at its first cut overflow f(x)/om**2
        # next to the infinite end; that refuses the fit, as divergence does.
        res = integrate_improper(f, domain)
        assert res.status is QuadStatus.TAIL_TRUNCATED
        assert res.abs_err_est == math.inf
        assert res.n_evals == n_evals

    @pytest.mark.parametrize("f, domain", [
        (lambda x: x * x, HALF_LINE),
        (lambda x: 1e305, HALF_LINE),
        (lambda x: 1e305, DomainSpec.semi_infinite(0.0, singular_lower=True)),
    ], ids=["x_squared", "big_constant", "big_constant_singular_lower"])
    def test_growing_tail_is_truncated(self, f, domain):
        # f is finite, and f(x)/(1 - s)**2 overflows on the tail's infinite
        # side before any node there is cut
        res = integrate_improper(f, domain)
        assert res.status is QuadStatus.TAIL_TRUNCATED
        assert res.abs_err_est == math.inf

    def test_lower_half_line_failure_names_the_declared_x(self):
        # log(2 + x) is undefined below x = -2; the node x = -7.8488 fails
        with pytest.raises(EvaluationError) as info:
            integrate_improper(lambda x: math.log(2.0 + x), LOWER_HALF_LINE)
        assert info.value.abscissa == -7.848780902312993

    def test_tail_failure_of_f_itself_still_raises(self):
        # on the tail's infinite side, only an overflow of f(x)/(1 - s)**2
        # is a truncation
        with pytest.raises(EvaluationError) as info:
            integrate_improper(lambda x: math.nan if x > 1e3 else 1.0, HALF_LINE)
        assert info.value.abscissa > 1e3
        assert math.isnan(info.value.value)

    def test_full_line_left_half_failure_names_the_declared_x(self):
        # the right half of log(2 + x) does not decay and is truncated; the
        # left half runs f(-u) and fails below x = -2
        with pytest.raises(EvaluationError) as info:
            integrate_improper(lambda x: math.log(2.0 + x), FULL_LINE)
        assert info.value.abscissa < -2.0

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

class TestOscillatory:
    def test_sinc(self):
        res = integrate_oscillatory_improper(
            lambda x: math.sin(x) / x if x != 0.0 else 1.0,
            DomainSpec.oscillatory(0.0, _pi_zeros, _pi_rate),
        )
        assert abs(res.value - math.pi / 2.0) < 1e-9

    def test_sin_lorentz_vs_oracle(self):
        res = integrate_oscillatory_improper(
            lambda x: math.sin(x) / (1.0 + x * x),
            DomainSpec.oscillatory(0.0, _pi_zeros, _pi_rate),
        )
        assert abs(res.value - SIN_LORENTZ) < 1e-9

    def test_fresnel_like_square_phase(self):
        res = integrate_oscillatory_improper(
            lambda x: math.sin(x * x) / (x * x) if x != 0.0 else 1.0,
            DomainSpec.oscillatory(0.0, _square_zeros, _square_rate),
        )
        assert abs(res.value - math.sqrt(2.0 * math.pi) / 2.0) < 1e-8

    def test_slow_sqrt_decay(self):
        res = integrate_oscillatory_improper(
            lambda x: math.sin(x) / math.sqrt(x) if x > 0.0 else 0.0,
            DomainSpec.oscillatory(0.0, _pi_zeros, _pi_rate),
        )
        assert abs(res.value - math.sqrt(math.pi / 2.0)) < 1e-8

    def test_non_alternating_tail_is_summed_like_any_other(self):
        # a positive integrand: its terms never alternate, and the one sum
        # over the phase index treats it as any decaying integrand
        res = integrate_oscillatory_improper(
            lambda x: math.exp(-x) * (2.0 + math.sin(x)),
            DomainSpec.oscillatory(0.0, _pi_zeros, _pi_rate),
        )
        assert res.status is QuadStatus.CONVERGED
        assert abs(res.value - 2.5) <= res.abs_err_est

    def test_zeros_at_or_below_the_lower_end_are_skipped(self):
        # pi < 2 pi = a = zero(2): the sum starts at the zero 2 pi, with no
        # head, exactly as under a rule that starts there
        def sinc(x: float) -> float:
            return math.sin(x) / x

        a = 2.0 * math.pi
        res = integrate_oscillatory_improper(
            sinc, DomainSpec.oscillatory(a, _pi_zeros, _pi_rate))
        shifted = integrate_oscillatory_improper(
            sinc, DomainSpec.oscillatory(a, lambda k: (k + 2) * math.pi, _pi_rate))
        assert res == shifted
        # mpmath: pi/2 - Si(2 pi)
        assert abs(res.value - 0.15264475066226817) <= res.abs_err_est

    def test_lower_end_between_zeros_runs_a_head(self):
        # a = 1 lies before the first zero pi: the head [1, pi] runs
        # Gauss-Kronrod at half the tolerance, the sum from k = 1 the rest
        calls = []

        def sinc(x: float) -> float:
            calls.append(x)
            return math.sin(x) / x

        res = integrate_oscillatory_improper(
            sinc, DomainSpec.oscillatory(1.0, _pi_zeros, _pi_rate))
        head = [x for x in calls if x < math.pi]
        assert head and all(1.0 < x < math.pi for x in head)
        assert len(head) % 15 == 0  # whole Gauss-Kronrod panels
        assert res.status is QuadStatus.CONVERGED
        # mpmath: pi/2 - Si(1)
        assert abs(res.value - 0.6247132564277136) <= res.abs_err_est

    @pytest.mark.xfail(
        raises=AssertionError, strict=True,
        reason="ROADMAP item 19: each node of the double-exponential sum weighs a "
               "whole half-period, and x is known to eps |x|, a phase of 2 eps x**2 "
               "~ 1.8e-9 here: the error is 6.2e-19 (4.5e-21 with Gauss-Kronrod "
               "segments) and the estimate, which charges that rounding, 3.6e-18")
    def test_far_lower_end_finds_its_first_zero(self):
        # the first zero sqrt(k pi) past 2000 has k = 1,273,240, past the
        # million zeros a scan from k = 1 tried before refusing the domain
        res = integrate_oscillatory_improper(
            lambda x: math.sin(x * x) / (x * x),
            DomainSpec.oscillatory(2000.0, _square_zeros, _square_rate))
        assert res.status is QuadStatus.CONVERGED
        assert abs(res.value - FAR_SQUARE_PHASE) <= res.abs_err_est <= 1e-18

    def test_first_zero_is_found_by_doubling_and_bisection(self):
        # at a = 500 the first zero past a is sqrt(k pi) at k = 79,578: the
        # search reaches it in 34 rule calls (79,578 on a scan from k = 1),
        # and the result is the one of a rule that starts there.  That rule is
        # read at 1 + kappa, so it shifts by 79,578 + (k - 1), exact in k,
        # where k + 79,577 would round kappa twice
        calls = []

        def zero(k: float) -> float:
            calls.append(k)
            return math.sqrt(k * math.pi)

        def f(x: float) -> float:
            calls.append(None)
            return math.sin(x * x) / (x * x)

        dom = DomainSpec.oscillatory(500.0, zero, _square_rate)
        calls.clear()
        res = integrate_oscillatory_improper(f, dom)
        searched = calls[:calls.index(None)]
        assert len(searched) <= 40 and searched[-1] == 79_578
        shifted = DomainSpec.oscillatory(
            500.0, lambda k: zero(79_578 + (k - 1.0)), lambda k: _square_rate(79_578 + (k - 1.0)))
        assert res == integrate_oscillatory_improper(f, shifted)

    @pytest.mark.parametrize("rule, rate, a", [
        (lambda k: 1.0 - 1.0 / k, lambda k: k ** -2.0, 50.0),  # bounded below a
        (lambda k: float(k) if k < 10 else math.inf, lambda k: 1.0, 50.0),  # stops being finite
        (lambda k: float(k) if k < 10 else math.nan, lambda k: 1.0, 50.0),
        # raises OverflowError from k = 710, where the doubling first asks at 1024
        (math.exp, math.exp, 1e300),
        (math.exp, math.exp, 1e308),
    ], ids=["bounded", "inf", "nan", "overflow_1e300", "overflow_1e308"])
    def test_rule_with_no_finite_zero_past_the_lower_end_is_refused(self, rule, rate, a):
        with pytest.raises(ValueError, match="no zeros beyond the lower endpoint"):
            integrate_oscillatory_improper(math.sin, DomainSpec.oscillatory(a, rule, rate))

    def test_rule_that_raises_past_the_head_is_refused(self):
        # past the first zero, a rule that raises an arithmetic error reads as
        # inf too, as for a rule that returns it: the kernel refuses the rule
        # rather than let the OverflowError out or blame the integrand
        def rule(k: float) -> float:
            return k * math.pi if k < 9 else math.exp(1e4)

        with pytest.raises(ValueError, match="phase_zero_rule must be strictly increasing"):
            integrate_oscillatory_improper(
                lambda x: math.sin(x) / x, DomainSpec.oscillatory(0.5, rule, _pi_rate))

    @pytest.mark.parametrize("rule, a", [
        (lambda k: k * math.pi if k < 9 else 8.0 * math.pi, 0.0),
        (lambda k: k * math.pi if k < 9 else 5.0, 0.0),
        (lambda k: k * math.pi if k < 9 else math.inf, 0.0),
        # the search for the first zero past 100 reads inf at k = 24 and 20,
        # below the finite zero 32 pi that the doubling found
        (lambda k: math.inf if 20 <= k <= 30 else k * math.pi, 100.0),
        # between the zeros: the sum reads the rule at real k
        (lambda k: k * math.pi if k == int(k) else 0.0, 0.0),
        (lambda k: math.pi * k + 2.0 * math.sin(2.0 * math.pi * k), 0.0),
    ], ids=["repeats", "drops", "inf", "inf_in_the_search", "drops_between_zeros",
            "turns_back_between_zeros"])
    def test_rule_that_fails_its_contract_past_the_head_is_refused(self, rule, a):
        # an x that is not finite and past the one before: each is checked
        # as it is read, so the kernel refuses the rule (a repeat of 8 pi
        # from k = 9 once read converged 1.5311312849906613 against pi/2, a
        # drop to 5.0 max_depth, and inf an EvaluationError at x=inf)
        with pytest.raises(ValueError, match="phase_zero_rule must be strictly increasing"):
            integrate_oscillatory_improper(
                lambda x: math.sin(x) / x, DomainSpec.oscillatory(a, rule, _pi_rate))

    @pytest.mark.parametrize("rate", [
        lambda k: 0.0, lambda k: -math.pi, lambda k: math.inf, lambda k: math.nan,
        lambda k: 1.0 / (k - k),  # ZeroDivisionError, an ArithmeticError
    ], ids=["zero", "negative", "inf", "nan", "raises"])
    def test_rate_that_is_not_finite_and_positive_is_refused_at_construction(self, rate):
        with pytest.raises(ValueError, match="zero_rate must be finite and positive"):
            DomainSpec.oscillatory(0.0, _pi_zeros, rate)

    @pytest.mark.parametrize("rule, rate", [
        (_pi_zeros, lambda k: 2.0 * math.pi),
        (_square_zeros, lambda k: math.pi / math.sqrt(k * math.pi)),  # no factor 1/2
    ], ids=["pi_twice", "square_twice"])
    def test_rate_that_is_not_the_rule_s_derivative_is_refused_at_construction(
        self, rule, rate
    ):
        # the sum integrates f(rule(k)) rate(k) over k: a rate off by a factor
        # would return that factor times the integral, converged
        with pytest.raises(ValueError, match="zero_rate must be dx/dk of phase_zero_rule"):
            DomainSpec.oscillatory(0.0, rule, rate)

    def test_rule_undefined_at_zero_runs_a_head(self):
        # rule(0) = log 0 raises ValueError: the lower end -1 is then not the
        # zero k = 0, and the head [-1, log 1] runs before the sum from k = 1
        res = integrate_oscillatory_improper(
            lambda x: math.sin(math.pi * math.exp(x)) * math.exp(-x),
            DomainSpec.oscillatory(-1.0, math.log, lambda k: 1.0 / k))
        assert res.status is QuadStatus.CONVERGED
        # mpmath: sin(pi c)/c - pi Ci(pi c) at c = 1/e
        assert abs(res.value - 1.2117879405211772) <= res.abs_err_est

    def test_rate_that_fails_past_the_first_zeros_is_refused(self):
        # the rates the construction check reads, up to k = 6.5, pass; the
        # sum reads the rate at every node
        def rate(k: float) -> float:
            return math.pi if k < 7.0 else -math.pi

        with pytest.raises(ValueError, match="zero_rate must be finite and positive"):
            integrate_oscillatory_improper(
                lambda x: math.sin(x) / x if x else 1.0,
                DomainSpec.oscillatory(0.0, _pi_zeros, rate))

    def test_zero_rule_must_increase(self):
        with pytest.raises(ValueError):
            OscillatoryTail(phase_zero_rule=lambda k: 1.0, zero_rate=_pi_rate)

    def test_rule_that_overflows_is_refused_at_construction(self):
        # exp(1400) overflows at k = 2: the construction check reads the rule
        # as the kernel does, an arithmetic error as inf
        with pytest.raises(ValueError, match="phase_zero_rule must be strictly increasing"):
            DomainSpec.oscillatory(0.0, lambda k: math.exp(700 * k), lambda k: 700.0)

    def test_large_alpha_mass_next_to_the_lower_end(self):
        # e**(-c x**2) sin(x**2)/x**2 at c = 1e7: the mass lies within
        # x < 1e-3 of the zero at 0, where the nodes cluster double
        # exponentially (the segment kernel read 5.6e-65 converged)
        c = 1e7
        res = integrate_oscillatory_improper(
            lambda x: math.exp(-c * x * x) * math.sin(x * x) / (x * x) if x else 1.0,
            DomainSpec.oscillatory(0.0, _square_zeros, _square_rate))
        true = math.sqrt(HALF_PI / (c + math.sqrt(c * c + 1.0)))
        assert res.status is QuadStatus.CONVERGED
        assert abs(res.value - true) <= res.abs_err_est


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
        spec = DomainSpec.oscillatory(0.0, _pi_zeros, _pi_rate)
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

    @pytest.mark.parametrize("field", ["abs_tol", "rel_tol", "max_subdivisions"])
    def test_config_rejects_booleans(self, field):
        # bool is a subclass of int, so True used to pass as 1
        with pytest.raises(ValueError, match=field):
            QuadConfig(**{field: True})

    def test_domain_spec_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            DomainSpec.finite(1.0, 1.0)
        with pytest.raises(ValueError):
            DomainSpec.finite(2.0, 1.0)
        with pytest.raises(ValueError):
            DomainSpec(0.0, math.inf)  # missing INFINITE classification


class TestInputChecks:
    @pytest.mark.parametrize("lower, upper, kinds, match", [
        (math.nan, 1.0, {}, "NaN"),
        (-math.inf, 0.0, {}, "lower endpoint is infinite iff"),
        (0.0, 1.0, {"upper_kind": EndpointKind.INFINITE}, "upper endpoint is infinite iff"),
        (math.inf, math.inf, {"lower_kind": EndpointKind.INFINITE,
                              "upper_kind": EndpointKind.INFINITE}, "lower < upper"),
        (0.0, -math.inf, {"upper_kind": EndpointKind.INFINITE}, "lower < upper"),
        (0.0, 1.0, {"oscillatory_tail": OscillatoryTail(_pi_zeros, _pi_rate)}, "infinite upper"),
    ], ids=["nan_end", "infinite_end_not_infinite_kind", "finite_end_infinite_kind",
            "plus_inf_lower_end", "minus_inf_upper_end", "tail_on_finite_upper_end"])
    def test_domain_spec_refuses(self, lower, upper, kinds, match):
        with pytest.raises(ValueError, match=match):
            DomainSpec(lower, upper, **kinds)

    _TAIL = OscillatoryTail(_pi_zeros, _pi_rate)
    _INF = EndpointKind.INFINITE

    @pytest.mark.parametrize("kernel, domain, match", [
        (integrate_finite, DomainSpec.singular(0.0, 1.0, at_upper=True), "regular endpoints"),
        (integrate_finite, DomainSpec.oscillatory(0.0, _pi_zeros, _pi_rate), "regular endpoints"),
        (integrate_singular, HALF_LINE, "finite endpoints"),
        (integrate_singular, DomainSpec.oscillatory(0.0, _pi_zeros, _pi_rate), "finite endpoints"),
        (integrate_improper, DomainSpec.finite(0.0, 1.0), "an infinite endpoint"),
        (integrate_improper, DomainSpec.oscillatory(0.0, _pi_zeros, _pi_rate), "oscillatory tail"),
        (integrate_oscillatory_improper, HALF_LINE, "requires an oscillatory_tail"),
        (integrate_oscillatory_improper,
         DomainSpec(-math.inf, math.inf, _INF, _INF, _TAIL), "regular lower endpoint"),
        (integrate_oscillatory_improper,
         DomainSpec(0.0, math.inf, EndpointKind.INTEGRABLE_SINGULARITY, _INF, _TAIL),
         "regular lower endpoint"),
    ], ids=["finite.singular_end", "finite.tail", "singular.infinite_end", "singular.tail",
            "improper.no_infinite_end", "improper.tail", "oscillatory.no_tail",
            "oscillatory.infinite_lower_end", "oscillatory.singular_lower_end"])
    def test_kernel_refuses_a_domain_of_another_class(self, kernel, domain, match):
        calls = []
        with pytest.raises(ValueError, match=match):
            kernel(lambda x: calls.append(x) or 1.0, domain)
        assert calls == []


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
        # f is finite everywhere, f / (1 - s)**2 is not in the head, next to
        # s = 8/9 (an overflow on the tail's infinite side is a truncation)
        with pytest.raises(EvaluationError) as info:
            integrate_improper(lambda x: 1e307, HALF_LINE)
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

    def test_singular_lower_improper_overflow_is_refused(self):
        # a singular head runs on x, with no Jacobian to overflow: 1e307 is
        # finite at every node, and the sum of the head's terms is not
        with pytest.raises(QuadratureError, match="not finite") as info:
            integrate_improper(
                lambda x: 1e307, DomainSpec.semi_infinite(0.0, singular_lower=True)
            )
        assert not isinstance(info.value, EvaluationError)

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
            (lambda x: math.sin(x) / (1.0 + x * x), DomainSpec.oscillatory(0.0, _pi_zeros, _pi_rate)),
            (
                lambda x: math.exp(-x) * (2.0 + math.sin(x)),
                DomainSpec.oscillatory(0.0, _pi_zeros, _pi_rate),
            ),
        ],
        ids=["finite", "singular", "improper", "improper_full_line",
             "improper_singular_lower", "oscillatory", "oscillatory_non_alternating"],
    )
    def test_n_evals_equals_calls_counted_outside(self, f, domain):
        counted = _CountingIntegrand(f)
        res = integrate(counted, domain)
        assert res.n_evals == counted.calls > 0


class TestNodeTables:
    @pytest.mark.parametrize("m", range(quadrature._TS_MAX_LEVEL + 1))
    def test_each_table_is_its_formula_and_ends_at_its_first_row_below_the_floor(self, m):
        # Row for row what each node would compute for itself.  Only the last
        # row lies below the floor, so every sweep is cut there; and a row's
        # weight per half-width, pi/2 cosh t / cosh(u)**2, is at least its r,
        # so a node the floor lets through never weighs 0.
        table = quadrature._ts_level(m)
        for i, (r, cosh_t, cosh_u) in enumerate(zip(*table)):
            t = (i + 1 if m == 0 else 2 * i + 1) * 2.0 ** -m
            u = math.pi / 2.0 * math.sinh(t)
            e2 = math.exp(-2.0 * u)
            assert (r, cosh_t, cosh_u) == (2.0 * e2 / (1.0 + e2), math.cosh(t), math.cosh(u))
            assert math.pi / 2.0 * cosh_t / (cosh_u * cosh_u) >= r
        below = [r < quadrature._TS_FLOOR for r in table[0]]
        assert below == [False] * (len(below) - 1) + [True]

    @pytest.mark.parametrize("m", range(quadrature._DE_MAX_LEVEL + 1))
    def test_each_oscillatory_level_is_its_formula_and_ends_at_its_cuts(self, m):
        # Over the tail x = kappa (rate 1) the nodes are the level's own
        # phase offsets and weights, against Ooura and Mori's phi(t) =
        # t / (1 - e**-u) and its derivative at 60 digits, to 2e-14 (1 + |u|)
        # relative (a row far out rounds u to eps |u| before exp, and phi'
        # cancels near t = 0).  The rows n >= 0 end before the first whose
        # offset rounds onto n, the rows n < 0 before the first below the
        # smallest normal float; phi' |x| + 2|w|/pi sizes each row's rounding.
        import mpmath as mp

        xs, ws, spread = quadrature._de_nodes(OscillatoryTail(float, lambda k: 1.0), 0, m)
        n_up = next(i for i in range(1, len(xs)) if xs[i] < xs[i - 1])
        h = 2.0 ** -(m + 2)
        big_m = math.pi / h
        alpha = 0.25 / math.sqrt(1.0 + big_m * math.log1p(big_m) / (4.0 * math.pi))

        def exact(n):
            t = mp.mpf(n) * h if n else mp.mpf(2) ** -100  # phi, phi' are analytic at 0
            u = 2 * t + alpha * (1 - mp.exp(-t)) + mp.mpf(0.25) * (mp.exp(t) - 1)
            du = 2 + alpha * mp.exp(-t) + mp.mpf(0.25) * mp.exp(t)
            d = -mp.expm1(-u)
            return t / d / h, 1 / d - t * du * mp.exp(-u) / (d * d), 2e-14 * (1 + abs(u))

        ns = list(range(n_up)) + list(range(-1, n_up - len(xs) - 1, -1))
        step = 1 if m < 4 else 17  # every row, or every 17th of a long table
        with mp.workdps(60):
            for i in range(0, len(xs), step):
                ek, ew, rel = exact(ns[i])
                assert abs(xs[i] - ek) <= rel * abs(ek), ns[i]
                assert abs(ws[i] - ew) <= rel * abs(ew), ns[i]
        assert list(spread) == [w * x + 2.0 / math.pi * abs(w) for x, w in zip(xs, ws)]
        assert all(x != n for n, x in zip(ns, xs))
        assert quadrature._de_row(n_up, h, alpha)[0] == n_up
        assert xs[-1] >= 2.0 ** -1022
        assert quadrature._de_row(ns[-1] - 1, h, alpha)[0] < 2.0 ** -1022

    def test_each_oscillatory_level_is_mapped_once_per_tail_and_first_zero(self):
        # the second call reads the rule only at the integers of its search
        read = []

        def zero(k: float) -> float:
            read.append(k)
            return k * math.pi

        def f(x: float) -> float:
            return math.sin(x) / (1.0 + x * x)

        spec = DomainSpec.oscillatory(0.0, zero, lambda k: math.pi)
        first = integrate(f, spec)
        mapped = [k for k in read if k != int(k)]
        read.clear()
        assert integrate(f, spec) == first
        assert mapped and all(k == int(k) for k in read)
        info = quadrature._de_nodes.cache_info()
        assert info.maxsize == 32 and info.currsize <= 32

    def test_cold_tables_give_the_bits_of_warm_ones(self):
        # A fresh interpreter builds no table at import; its first call
        # builds levels 0-12 and must give the bits of a repeat, and of
        # this process, whose tables other tests have already built.
        code = (
            "from paramint import DomainSpec, QuadConfig, integrate, quadrature\n"
            "built = quadrature._ts_level.cache_info().currsize\n"
            "recs = [integrate(lambda x: (1.0 - x) ** (-1.0 / 3.0),\n"
            "                  DomainSpec.singular(0.0, 1.0, at_upper=True),\n"
            "                  QuadConfig(1e-13, 1e-13)) for _ in range(2)]\n"
            "print(built, quadrature._ts_level.cache_info().currsize)\n"
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
