"""Catalog consistency tests.

Everything here cross-checks the registry against itself and against
the kernels: closed forms vs quadrature, closed-form derivatives vs a
central difference of the closed-form solution, removable-singularity
values, anchor bookkeeping, and the validity windows of the helpers.
Every integrand and d_alpha is also audited against mpmath at seeded
nodes (``INTEGRAND_TRUTHS`` in ``_oracles.py``).
"""

import dataclasses
import math

import pytest

from paramint import (
    EndpointKind,
    ParameterDomainError,
    QuadStatus,
    deriv_under_integral,
    eval_direct,
    integrate_improper,
)
from paramint import catalog

from _identities import inner_sine_integral, realpart_cancellation_integral
from _oracles import (
    AUDIT_DOMAINS, AUDIT_GRIDS, CATALOG_TRUTHS, INTEGRAND_TRUTHS, ITEM3_TRUTHS, audit_nodes,
)

ALL_IDS = ["gauss", "ex1", "ex2", "ex3_beta", "ex3_alpha", "ex4"]
_EPS = 2.220446049250313e-16


def interior_grid(entry) -> list[float]:
    pd = entry.parametric.param_domain
    return [a for a in entry.verification_grid if pd.is_interior(a)]


class TestRegistry:
    def test_ids_and_order(self):
        assert [e.id for e in catalog.entries()] == ALL_IDS

    def test_get_roundtrip(self):
        for entry_id in ALL_IDS:
            assert catalog.get(entry_id).id == entry_id

    def test_unknown_id(self):
        with pytest.raises(catalog.UnknownEntryError) as info:
            catalog.get("nope")
        assert isinstance(info.value, KeyError)
        assert info.value.entry_id == "nope"
        for entry_id in ALL_IDS:
            assert entry_id in str(info.value)

    def test_entries_returns_a_copy(self):
        listing = catalog.entries()
        listing.clear()
        assert [e.id for e in catalog.entries()] == ALL_IDS

    def test_grids_inside_parameter_domains(self):
        for entry in catalog.entries():
            pd = entry.parametric.param_domain
            for a in entry.verification_grid:
                assert pd.closure_contains(a)

    def test_grid_point_outside_the_domain_is_rejected(self):
        with pytest.raises(ValueError, match="grid point 1.5 of entry 'ex4'"):
            dataclasses.replace(catalog.get("ex4"), verification_grid=(0.5, 1.5))

    def test_anchors_consistent_with_closed_forms(self):
        for entry in catalog.entries():
            P = entry.parametric
            if P.anchor is None or P.solution_closed is None:
                continue
            assert abs(P.solution_closed(P.anchor.alpha0) - P.anchor.value0) <= 1e-12

    def test_metadata_shape(self):
        meta = catalog.entry_metadata(catalog.get("ex1"))
        assert meta["id"] == "ex1"
        assert set(meta["param_domain"]) == {"lo", "hi", "lo_open", "hi_open"}
        assert meta["anchor"] == {"alpha0": 0.0, "value0": 0.0}
        assert meta["has_rhs_closed"] is True
        assert meta["has_solution_closed"] is True
        assert meta["verification_grid"] == [0.25, 1.0, 4.0]


class TestRemovableSingularities:
    def test_ex1_at_origin(self):
        f = catalog.get("ex1").parametric.integrand
        for a in (0.25, 1.0, 4.0):
            assert f(0.0, a) == a

    def test_ex3_beta_at_origin(self):
        f = catalog.get("ex3_beta").parametric.integrand
        for b in (0.0, 0.5, 2.0):
            assert f(0.0, b) == b

    def test_ex3_alpha_at_origin(self):
        f = catalog.get("ex3_alpha").parametric.integrand
        for a in (0.0, 1.0, 2.0):
            assert f(0.0, a) == 1.0


class TestOverflowingSquares:
    # x*x overflows for x > 1.34e154; each callable below returns its limit
    # there instead of NaN or a ValueError from sin(inf)
    LIMIT_ZERO = (
        ("gauss", "d_alpha"),
        ("ex1", "integrand"),
        ("ex3_beta", "integrand"),
        ("ex3_beta", "d_alpha"),
        ("ex3_alpha", "integrand"),
        ("ex3_alpha", "d_alpha"),
    )

    @pytest.mark.parametrize("entry_id, field", LIMIT_ZERO)
    def test_limit_at_huge_x(self, entry_id, field):
        entry = catalog.get(entry_id)
        fn = getattr(entry.parametric, field)
        for a in entry.verification_grid:
            if (entry_id, field, a) == ("ex3_alpha", "d_alpha", 0.0):
                continue  # -sin(x^2) has no limit
            assert fn(1e200, a) == 0.0, a

    def test_no_limit_keeps_raising(self):
        with pytest.raises(ValueError):
            catalog.get("ex3_alpha").parametric.d_alpha(1e200, 0.0)

    # a x^2 (ex1) and (a - 1)^2 (ex2) overflow inside the integrand at these
    # alphas, well before I(alpha) itself does
    @pytest.mark.parametrize("alpha", [1e154, 1e200, 1e300])
    @pytest.mark.parametrize("entry_id", ["ex1", "ex2"])
    def test_direct_at_huge_alpha(self, entry_id, alpha):
        res = eval_direct(catalog.get(entry_id).parametric, alpha)
        exact = catalog.closed_form(entry_id, alpha)
        assert res.status is QuadStatus.CONVERGED
        assert abs(res.value - exact) <= min(res.abs_err_est, 1e-14 * exact)

    @pytest.mark.parametrize("alpha", [1e154, 1e160, 1e200, 1e300])
    def test_ex2_derivative_at_huge_alpha(self, alpha):
        res = deriv_under_integral(catalog.get("ex2").parametric, alpha)
        exact = catalog.rhs_closed_form("ex2", alpha)
        assert res.status is QuadStatus.CONVERGED
        assert abs(res.value - exact) <= min(res.abs_err_est, 1e-14 * exact)


class TestClosedFormConsistency:
    def test_solution_derivative_matches_rhs(self):
        # central difference of the closed-form solution vs the
        # closed-form derivative, on interior grid points
        h = 1e-6
        for entry_id in ("ex1", "ex2", "ex3_beta", "ex4"):
            entry = catalog.get(entry_id)
            sol = entry.parametric.solution_closed
            for a in interior_grid(entry):
                try:
                    rhs = catalog.rhs_closed_form(entry_id, a)
                except ParameterDomainError:
                    continue  # grid point outside the derivative's window
                fd = (sol(a + h) - sol(a - h)) / (2.0 * h)
                assert abs(fd - rhs) < 1e-6, (entry_id, a)

    def test_ex4_closed_form_matches_mpmath(self):
        # log1p(-a^2/(2(1 + root))), not log((1 + root)/2), which cancels near
        # a = 0; and +0.0 at a = 0, where a JSON "-0" would not round-trip
        sol = catalog.get("ex4").parametric.solution_closed
        truths = {float(k[4:]): v for k, v in CATALOG_TRUTHS.items() if k.startswith("ex4@")}
        truths[0.01678878558050519] = ITEM3_TRUTHS["ex4@0.01678878558050519.direct"]
        for a, true in truths.items():
            assert abs(sol(a) - true) <= 2.0 * _EPS * abs(true), a
        assert math.copysign(1.0, sol(0.0)) == 1.0

    def test_two_parameterizations_agree_at_one(self):
        assert catalog.closed_form("ex3_alpha", 1.0) == catalog.closed_form(
            "ex3_beta", 1.0
        )

    def test_gauss_closed_form_vs_quadrature(self):
        from paramint import DomainSpec

        res = integrate_improper(
            lambda x: math.exp(-x * x), DomainSpec.semi_infinite(0.0)
        )
        assert abs(res.value - catalog.closed_form("gauss", 1.0)) <= 1e-10

    def test_direct_quadrature_on_every_grid_point(self):
        for entry in catalog.entries():
            P = entry.parametric
            for a in entry.verification_grid:
                res = eval_direct(P, a)
                closed = P.solution_closed(a)
                assert abs(res.value - closed) < 1e-5, (entry.id, a)

    def test_closed_form_of_an_entry_without_one_is_refused(self, monkeypatch):
        entry = catalog.get("ex2")
        bare = dataclasses.replace(
            entry, id="bare", parametric=dataclasses.replace(entry.parametric, solution_closed=None)
        )
        monkeypatch.setitem(catalog._BY_ID, "bare", bare)
        with pytest.raises(ValueError, match="'bare' has no closed-form solution"):
            catalog.closed_form("bare", 2.0)

    def test_closed_form_domain_checked(self):
        with pytest.raises(ParameterDomainError):
            catalog.closed_form("ex2", 0.5)
        with pytest.raises(ParameterDomainError):
            catalog.closed_form("gauss", 0.0)
        with pytest.raises(ParameterDomainError):
            catalog.closed_form("ex4", 1.2)


class TestRhsValidityWindows:
    def test_values(self):
        assert abs(catalog.rhs_closed_form("ex1", 1.0) - math.pi / 2.0) < 1e-15
        assert abs(catalog.rhs_closed_form("ex2", 2.0) - math.pi) < 1e-15
        assert (
            abs(catalog.rhs_closed_form("ex3_beta", 0.0) - 0.5 * math.sqrt(math.pi))
            < 1e-15
        )
        assert catalog.rhs_closed_form("ex4", 0.0) == 0.0

    def test_windows_enforced(self):
        with pytest.raises(ParameterDomainError):
            catalog.rhs_closed_form("ex1", 0.0)  # singular at the anchor
        with pytest.raises(ParameterDomainError):
            catalog.rhs_closed_form("ex2", 1.0)
        with pytest.raises(ParameterDomainError):
            catalog.rhs_closed_form("ex4", 1.0)

    def test_entries_without_rhs(self):
        with pytest.raises(ValueError):
            catalog.rhs_closed_form("gauss", 1.0)
        with pytest.raises(ValueError):
            catalog.rhs_closed_form("ex3_alpha", 1.0)


class TestSingularityDispatch:
    def test_ex2_lower_endpoint_classification(self):
        P = catalog.get("ex2").parametric
        near = P.domain_for(1.0)
        away = P.domain_for(1.5)
        assert near.lower_kind is EndpointKind.INTEGRABLE_SINGULARITY
        assert away.lower_kind is EndpointKind.REGULAR

    def test_ex4_band_classification(self):
        # at a near 1, log(1 + a sin t) blows up where sin t = -1
        P = catalog.get("ex4").parametric
        assert P.domain_for(1.0).lower_kind is EndpointKind.INTEGRABLE_SINGULARITY
        assert P.domain_for(0.996).lower_kind is EndpointKind.INTEGRABLE_SINGULARITY
        assert P.domain_for(0.99).lower_kind is EndpointKind.REGULAR
        assert P.domain_for(0.5).lower_kind is EndpointKind.REGULAR

    def test_ex2_at_band_edge_still_converges(self):
        res = eval_direct(catalog.get("ex2").parametric, 1.0)
        assert abs(res.value) < 1e-10
        assert res.status is QuadStatus.CONVERGED


class TestStandaloneIdentities:
    def test_inner_sine_integral(self):
        for a in (0.0, 0.6, 0.99):
            exact = math.pi / math.sqrt(1.0 - a * a)
            assert abs(inner_sine_integral(a) - exact) <= 1e-9

    def test_inner_sine_integral_window(self):
        with pytest.raises(ValueError):
            inner_sine_integral(1.0)
        with pytest.raises(ValueError):
            inner_sine_integral(-0.1)

    def test_realpart_cancellation(self):
        for a in (1.1, 2.0, 5.0, 10.0):
            assert abs(realpart_cancellation_integral(a)) <= 1e-10

    def test_realpart_cancellation_window(self):
        with pytest.raises(ValueError):
            realpart_cancellation_integral(1.0)



def audit_ratios(entry_id: str) -> list[float]:
    """|float - mpmath| over its bound at each audited value of the entry's
    integrand and d_alpha, the bound being 4 eps times the largest |truth|
    of that function at that alpha (its scale) plus 2 eps |x d/dx| for the
    rounding of an argument such as x*x or b*x*x."""
    seed = list(AUDIT_DOMAINS).index(entry_id)
    entry = catalog.get(entry_id)
    P = entry.parametric
    assert entry.verification_grid == AUDIT_GRIDS[entry_id]
    ratios = []
    for a in entry.verification_grid:
        dom = P.domain_for(a)
        hi = dom.lower + 32.0 if math.isinf(dom.upper) else dom.upper
        assert (dom.lower, hi) == AUDIT_DOMAINS[entry_id]
        rows = [(x, INTEGRAND_TRUTHS[(entry_id, a, x)])
                for x in audit_nodes(dom.lower, hi, seed)]
        for k, fn in ((0, P.integrand), (2, P.d_alpha)):
            scale = max(abs(truth[k]) for _, truth in rows)
            for x, truth in rows:
                bound = 4.0 * _EPS * scale + 2.0 * _EPS * abs(truth[k + 1])
                err = abs(fn(x, a) - truth[k])
                ratios.append(err / bound if bound else 0.0 if err == 0.0 else math.inf)
    return ratios


class TestIntegrandAudit:
    @pytest.mark.parametrize("entry_id", ALL_IDS)
    def test_integrand_and_derivative_match_mpmath(self, entry_id):
        # seeded nodes across the x-domain (a half-line's first 32 units) at
        # every grid alpha, each error within rounding of the function's scale
        assert max(audit_ratios(entry_id)) <= 1.0
