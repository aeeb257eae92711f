"""Property-based tests of the kernel and engine invariants.

Hypothesis drives interval geometry and tolerance choices; each
invariant is stated against the error estimates the kernels themselves
report, not against fixed magic numbers.
"""

import math

import pytest
from hypothesis import example, given, strategies as st

from paramint import (
    Anchor,
    DomainSpec,
    EndpointKind,
    ParamDomain,
    ParametricIntegral,
    QuadConfig,
    QuadStatus,
    QuadratureError,
    domination_scan,
    integrate,
    integrate_finite,
    integrate_improper,
    integrate_oscillatory_improper,
    reconstruct,
)
from paramint import engine

_EPS = 2.0 ** -52


def _bump(x: float) -> float:
    return math.exp(-0.25 * x * x) * math.cos(x)


breakpoints = st.floats(-8.0, 8.0).filter(lambda v: abs(v) > 1e-6)


class TestKernelInvariants:
    @given(a=breakpoints, b=breakpoints, c=breakpoints)
    def test_interval_additivity(self, a, b, c):
        a, b, c = sorted((a, b, c))
        if b - a < 1e-3 or c - b < 1e-3:
            return
        whole = integrate_finite(_bump, DomainSpec.finite(a, c))
        left = integrate_finite(_bump, DomainSpec.finite(a, b))
        right = integrate_finite(_bump, DomainSpec.finite(b, c))
        defect = abs(whole.value - (left.value + right.value))
        budget = whole.abs_err_est + left.abs_err_est + right.abs_err_est
        assert defect <= budget + 4.0 * _EPS * (1.0 + abs(whole.value))

    @given(L=st.floats(0.1, 10.0))
    def test_even_symmetry(self, L):
        full = integrate_finite(_bump, DomainSpec.finite(-L, L))
        half = integrate_finite(_bump, DomainSpec.finite(0.0, L))
        defect = abs(full.value - 2.0 * half.value)
        budget = full.abs_err_est + 2.0 * half.abs_err_est
        assert defect <= budget + 4.0 * _EPS * (1.0 + abs(full.value))

    @given(
        L=st.floats(0.5, 20.0),
        tol_exp=st.integers(min_value=4, max_value=12),
    )
    def test_converged_estimate_meets_requested_tolerance(self, L, tol_exp):
        cfg = QuadConfig(abs_tol=10.0 ** -tol_exp, rel_tol=10.0 ** -tol_exp)
        res = integrate_finite(_bump, DomainSpec.finite(-L, L), cfg)
        if res.status is QuadStatus.CONVERGED:
            assert res.abs_err_est <= max(cfg.abs_tol, cfg.rel_tol * abs(res.value))

    @given(L=st.floats(0.1, 30.0))
    def test_determinism_bit_identical(self, L):
        spec = DomainSpec.finite(-L, L)
        assert integrate_finite(_bump, spec) == integrate_finite(_bump, spec)

    @given(bad=st.floats(max_value=0.0, allow_nan=False))
    def test_config_rejects_nonpositive_tolerances(self, bad):
        with pytest.raises(ValueError):
            QuadConfig(abs_tol=bad)
        with pytest.raises(ValueError):
            QuadConfig(rel_tol=bad)


# One family per public kernel route, (x - c) times a weight: c moves mass
# between the parts a kernel adds up, and cancels them at c = 4 on the half-
# lines, where (x - 4) e^(-x/4) on [0, inf) sets its head against its tail.
_CONTRACT_FAMILIES = {
    "finite": (
        lambda c: lambda x: (x - c) * math.exp(-0.25 * x * x),
        DomainSpec.finite(-3.0, 5.0),
    ),
    "singular": (
        lambda c: lambda x: (x - c) / math.sqrt(x),
        DomainSpec.singular(0.0, 2.0, at_lower=True),
    ),
    "half_line": (
        lambda c: lambda x: (x - c) * math.exp(-0.25 * x),
        DomainSpec.semi_infinite(0.0),
    ),
    "lower_half_line": (
        lambda c: lambda x: (x + c) * math.exp(0.25 * x),
        DomainSpec(-math.inf, 0.0, lower_kind=EndpointKind.INFINITE),
    ),
    "full_line": (
        lambda c: lambda x: (1e6 * x + c) * math.exp(-x * x),
        DomainSpec(-math.inf, math.inf, EndpointKind.INFINITE, EndpointKind.INFINITE),
    ),
    "oscillatory": (
        lambda c: lambda x: (x - c) * math.sin(x) / (1.0 + x * x * x),
        DomainSpec.oscillatory(0.0, lambda k: k * math.pi, lambda k: math.pi),
    ),
    # ex3_alpha's integrand at alpha = c: the mass moves onto the lower end
    "oscillatory_square": (
        lambda c: lambda x: math.exp(-c * x * x) * math.sin(x * x) / (x * x) if x else 1.0,
        DomainSpec.oscillatory(
            0.0, lambda k: math.sqrt(k * math.pi), lambda k: 0.5 * math.pi / math.sqrt(k * math.pi)),
    ),
}

# One family per kind of path end of reconstruct with no closed rhs, on
# alpha in [0, 64]: cos(alpha x) on [0, 1] from alpha = 1 (regular ends:
# one interpolant in alpha, or Gauss-Kronrod in alpha where it declines),
# and from I(0) = 0, x sqrt(alpha) (a square-root end: one interpolant in
# s = sqrt(alpha)) and x alpha**0.3 (tanh-sinh in alpha, whose rhs blows up
# like alpha**-0.7 at the anchor).  Two more are x times a root shape r:
# from I(16) = 0, sgn(alpha - 16) sqrt|alpha - 16|, whose blow-up sits at an
# anchor inside the domain (fitted only once the interpolant in alpha
# declines, then one in s about it), and from I(0) = 0, 8 - sqrt(64 - alpha)
# = alpha/(8 + sqrt(64 - alpha)), whose blow-up sits at the domain end 64
# (past a path that ends within one path length of it, the path extended to
# it is one interpolant in s).
def _scaled_family(power: float) -> ParametricIntegral:
    return ParametricIntegral(
        integrand=lambda x, a: x * a ** power,
        param_domain=ParamDomain(0.0, 64.0),
        domain=DomainSpec.finite(0.0, 1.0),
        d_alpha=lambda x, a: x * power * a ** (power - 1.0),
        anchor=Anchor(0.0, 0.0),
        solution_closed=lambda a: 0.5 * a ** power,
    )


def _root_family(a0: float, r, dr) -> ParametricIntegral:
    return ParametricIntegral(
        integrand=lambda x, a: x * 2.0 * r(a),
        param_domain=ParamDomain(0.0, 64.0),
        domain=DomainSpec.finite(0.0, 1.0),
        d_alpha=lambda x, a: x * 2.0 * dr(a),
        anchor=Anchor(a0, 0.0),
        solution_closed=r,
    )


_NESTED_ROUTES = {
    "regular_ends": ParametricIntegral(
        integrand=lambda x, a: math.cos(a * x),
        param_domain=ParamDomain(0.0, 64.0),
        domain=DomainSpec.finite(0.0, 1.0),
        d_alpha=lambda x, a: -x * math.sin(a * x),
        anchor=Anchor(1.0, math.sin(1.0)),
        solution_closed=lambda a: math.sin(a) / a if a else 1.0,
    ),
    "root_end": _scaled_family(0.5),
    "tanh_sinh": _scaled_family(0.3),
    "interior_root": _root_family(
        16.0, lambda a: math.copysign(math.sqrt(abs(a - 16.0)), a - 16.0),
        lambda a: 0.5 / math.sqrt(abs(a - 16.0))),
    "root_past_path": _root_family(
        0.0, lambda a: a / (8.0 + math.sqrt(64.0 - a)), lambda a: 0.5 / math.sqrt(64.0 - a)),
}


# The verify grid on one Chebyshev interpolant: I(alpha) = v0 + scale
# shape(alpha) 2/3, the integral of v0 + scale shape(alpha) sqrt(x) on
# [0, 1] from the anchor I(0) = v0, with no closed rhs.  The shape
# cos(alpha) - 1 has regular hull ends (an interpolant in alpha); -sqrt(alpha)
# has a square-root end at the anchor (an interpolant in s = sqrt(alpha)).
_GRID = (0.5, math.pi / 2.0, 2.0, 3.0)
_GRID_SHAPES = {
    "alpha": (lambda a: math.cos(a) - 1.0, lambda a: -math.sin(a)),
    "s": (lambda a: -math.sqrt(a), lambda a: -0.5 / math.sqrt(a)),
}


def _grid_family(variable: str, scale: float, v0: float) -> ParametricIntegral:
    shape, d_shape = _GRID_SHAPES[variable]
    return ParametricIntegral(
        integrand=lambda x, a: v0 + scale * shape(a) * math.sqrt(x),
        param_domain=ParamDomain(0.0, 4.0),
        domain=DomainSpec.finite(0.0, 1.0),
        d_alpha=lambda x, a: scale * d_shape(a) * math.sqrt(x),
        anchor=Anchor(0.0, v0),
    )


# One family per closed-rhs alpha-route of reconstruct, from I(0) = v0 to
# alpha = 1: the rhs scale * g and I = v0 + scale * G.  A kink at 0.3 makes
# Gauss-Kronrod subdivide; alpha**-0.5 at the anchor runs tanh-sinh there.
_CLOSED_ROUTES = {
    "gauss_kronrod": (
        lambda a: 1.0 + abs(a - 0.3) ** 1.5,
        lambda a: a + (math.copysign(abs(a - 0.3) ** 2.5, a - 0.3) + 0.3 ** 2.5) / 2.5,
    ),
    "tanh_sinh_root_end": (lambda a: a ** -0.5, lambda a: 2.0 * math.sqrt(a)),
}


class TestConvergedContract:
    @pytest.mark.parametrize("route", list(_CONTRACT_FAMILIES))
    @given(c=st.floats(0.0, 8.0), tol_exp=st.integers(min_value=4, max_value=12))
    @example(c=0.0, tol_exp=10)  # full line: the half-lines' estimates add past 1e-10
    @example(c=4.0, tol_exp=9)  # half-lines: head and tail cancel past 1e-9
    def test_converged_estimate_meets_the_tolerance(self, route, c, tol_exp):
        family, domain = _CONTRACT_FAMILIES[route]
        cfg = QuadConfig(abs_tol=10.0 ** -tol_exp, rel_tol=10.0 ** -tol_exp)
        res = integrate(family(c), domain, cfg)
        if res.status is QuadStatus.CONVERGED:
            assert res.abs_err_est <= max(cfg.abs_tol, cfg.rel_tol * abs(res.value))

    @given(c=st.floats(0.0, 8.0), tol_exp=st.integers(min_value=4, max_value=12))
    def test_oscillatory_square_family_lies_within_its_estimate(self, c, tol_exp):
        # the double-exponential estimate is a difference of two levels, not
        # a bound: hold it to mpmath's sqrt(pi/2) / sqrt(c + sqrt(c^2 + 1))
        import mpmath as mp

        family, domain = _CONTRACT_FAMILIES["oscillatory_square"]
        cfg = QuadConfig(abs_tol=10.0 ** -tol_exp, rel_tol=10.0 ** -tol_exp)
        res = integrate(family(c), domain, cfg)
        with mp.workdps(30):
            true = mp.sqrt(mp.pi / 2) / mp.sqrt(c + mp.sqrt(mp.mpf(c) ** 2 + 1))
            assert abs(true - res.value) <= res.abs_err_est

    @pytest.mark.parametrize("route", list(_NESTED_ROUTES))
    @given(alpha=st.floats(0.0, 64.0), tol_exp=st.integers(min_value=4, max_value=12))
    @example(alpha=50.0, tol_exp=10)  # the inner noise share 2 * 50 * 1e-9 passes 2e-8
    @example(alpha=40.0, tol_exp=10)  # 24 short of the domain end 64, on a path of 40
    @example(alpha=63.36, tol_exp=10)
    def test_converged_nested_estimate_meets_the_alpha_tolerance(self, route, alpha, tol_exp):
        # reconstruct with a numeric rhs: its alpha-quadrature runs at the
        # caller's tolerances floored at 2e-8, and a converged value lies
        # within its estimate of the closed form, give or take 4 ulp of
        # either's rounding.  A refusal claims nothing: at alpha = 5e-324 an
        # alpha-node rounds onto the blow-up at 0.
        P = _NESTED_ROUTES[route]
        cfg = QuadConfig(abs_tol=10.0 ** -tol_exp, rel_tol=10.0 ** -tol_exp)
        try:
            res = reconstruct(P, alpha, cfg)
        except QuadratureError:
            return
        if res.status is QuadStatus.CONVERGED:
            floor = engine._ALPHA_TOL_FLOOR
            tol = max(cfg.abs_tol, floor, max(cfg.rel_tol, floor) * abs(res.value))
            assert res.abs_err_est <= tol
            err = abs(res.value - P.solution_closed(alpha))
            assert err <= res.abs_err_est + 4.0 * _EPS * abs(res.value)


    @pytest.mark.parametrize("variable", list(_GRID_SHAPES))
    @given(scale_exp=st.floats(-2.0, 8.0), shift=st.floats(0.0, 1.0))
    @example(scale_exp=5.0, shift=2.0 / 3.0)  # alpha: I = 1e5 cos(alpha) 2/3 passes 0 at pi/2
    @example(scale_exp=5.0, shift=math.sqrt(math.pi / 2.0) * 2.0 / 3.0)  # s: I passes 0 at pi/2
    def test_converged_grid_estimate_meets_the_alpha_tolerance(self, variable, scale_exp, shift):
        # every point of verify's grid, at the alpha-tolerance of
        # reconstruct with a numeric rhs: from one interpolant, or from its
        # own alpha-quadrature where the interpolant declines
        scale = 10.0 ** scale_exp
        P = _grid_family(variable, scale, shift * scale)
        floor = engine._ALPHA_TOL_FLOOR
        for res, _ in engine._reconstruct_each(P, _GRID, QuadConfig()).values():
            if res.status is QuadStatus.CONVERGED:
                assert res.abs_err_est <= max(floor, floor * abs(res.value))

    @pytest.mark.parametrize("route", list(_CLOSED_ROUTES))
    @given(scale_exp=st.floats(-2.0, 8.0), shift=st.floats(0.0, 2.5))
    @example(scale_exp=3.0, shift=1.0)  # Gauss-Kronrod: 1183.7 - 1000
    @example(scale_exp=6.0, shift=2.0)  # tanh-sinh: 2e6 - 2e6
    def test_converged_closed_rhs_estimate_meets_the_tolerance(self, route, scale_exp, shift):
        # at the value reconstruct returns, not at the alpha-integral's
        rhs, primitive = _CLOSED_ROUTES[route]
        scale = 10.0 ** scale_exp
        v0 = -shift * scale
        P = ParametricIntegral(
            integrand=lambda x, a: v0 + scale * primitive(a),
            param_domain=ParamDomain(0.0, 2.0),
            domain=DomainSpec.finite(0.0, 1.0),
            anchor=Anchor(0.0, v0),
            rhs_closed=lambda a: scale * rhs(a),
        )
        cfg = QuadConfig()
        res = reconstruct(P, 1.0, cfg)
        if res.status is QuadStatus.CONVERGED:
            assert res.abs_err_est <= max(cfg.abs_tol, cfg.rel_tol * abs(res.value))


class TestScalingIdentity:
    # I(alpha) = int_0^inf dx/(1 + alpha x^2) = (pi/2)/sqrt(alpha)
    @pytest.mark.parametrize("alpha", [0.25, 1.0, 4.0])
    def test_lorentzian_scaling(self, alpha):
        res = integrate_improper(
            lambda x: 1.0 / (1.0 + alpha * x * x), DomainSpec.semi_infinite(0.0)
        )
        assert abs(res.value - 0.5 * math.pi / math.sqrt(alpha)) <= 1e-9


class TestImproperAndOscillatoryDeterminism:
    def test_improper(self):
        spec = DomainSpec.semi_infinite(0.0)
        f = lambda x: math.exp(-x) / (1.0 + x)
        assert integrate_improper(f, spec) == integrate_improper(f, spec)

    def test_oscillatory(self):
        spec = DomainSpec.oscillatory(0.0, lambda k: k * math.pi, lambda k: math.pi)
        f = lambda x: math.sin(x) / (1.0 + x * x)
        assert integrate_oscillatory_improper(
            f, spec
        ) == integrate_oscillatory_improper(f, spec)


def _gauss_da(x: float, a: float) -> float:
    return -x * x * math.exp(-a * x * x)


class TestEnvelopeDominatesSampledPairs:
    def test_envelope_at_every_sampled_pair(self):
        P = ParametricIntegral(
            integrand=lambda x, a: math.exp(-a * x * x),
            param_domain=ParamDomain(0.0, math.inf, lo_open=True),
            domain=DomainSpec.semi_infinite(0.0),
            d_alpha=_gauss_da,
            anchor=Anchor(1.0, 0.5 * math.sqrt(math.pi)),
            solution_closed=lambda a: 0.5 * math.sqrt(math.pi / a),
        )
        lo, hi = 0.5, 2.0
        rep = domination_scan(P, (lo, hi))
        # the scan's nine evenly spaced alphas
        alphas = [lo + (hi - lo) * i / 8 for i in range(9)]
        for x, env in rep.envelope_samples:
            for a in alphas:
                assert env >= abs(_gauss_da(x, a))
