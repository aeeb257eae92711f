"""Bit-for-bit regression gate for the kernels and the engine.

Every record pins ``float.hex`` of ``value`` and ``abs_err_est``, plus
``n_evals`` and ``status``, of one call; a call that raises records its
exception class and message instead.  The battery covers:

* about thirty kernel calls, several per kernel class (finite GK,
  tanh-sinh, improper with a regular and a singular lower end, and
  oscillatory including its improper fallback), some at tight and loose
  tolerances: tanh-sinh at 1e-13 runs every level, 0 to 12, unless the
  integrand takes its exact offset from the end (``near``);
* ``eval_direct``, ``deriv_under_integral`` and ``reconstruct`` (with the
  entry's own rhs, closed form where it has one) at every catalog grid
  point;
* the reconstructions of ex2 at alpha = 1.5 and of ex1 at alpha = 1 (whose
  rhs blows up at the anchor) with ``rhs_closed`` stripped, so that the
  nested path is pinned too, through a singular anchor as well.

The records were taken from the kernels as they were before Gauss-Kronrod
panels became batches, so a speed-up that reorders arithmetic fails here.
The records at tight and loose tolerances and ``singular.pow_m0_9`` were
taken before tanh-sinh levels were swept over precomputed node tables.
One field was re-recorded on purpose: ``reconstruct``'s ``n_evals`` counts
every evaluation it causes (the inner kernels' ``n_evals`` summed, growth
probes included) instead of the alpha-nodes of the parameter quadrature.
Three of those counts moved again when the growth probes moved onto the
shared endpoint ladder (same number of rhs calls, other abscissae):
ex2@1.5 stripped, ex3_alpha@0.0 and ex4@1.0.  The 30 records that run
through the half-line kernel (``GOLDEN_TRUTHS`` in ``_oracles.py``) were
re-recorded when its tail moved from a certified cut to tanh-sinh run out
to the infinite end.  Two records moved later on purpose:
``ex4@1.0.reconstruct``, when ex4's closed rhs gained the offset form
that lets tanh-sinh sample it below ulp(1), and ``improper.divergent_tail``,
when a tail whose fit reads divergence stopped refining.  The
``singular.*_offset*`` records pin that offset path.  The ``n_evals`` of
the four ``ex1@*.reconstruct*`` records moved when ex1 stopped declaring
its anchor singular: the routing fit now probes that end too (three more
rhs samples; values, estimates and statuses unchanged).
``ex1@1.0.reconstruct_stripped`` moved again when a numeric rhs began
running the inner quadrature at each tanh-sinh alpha-node at a tolerance
scaled by the node's weight: ``n_evals`` 47,734 -> 21,579, and
``abs_err_est`` gained the weighted estimates of the loosened nodes; the
value bits, and so the error against pi, are unchanged.

Regenerate the table only for a change that is meant to move numbers:
``PYTHONPATH=src python tests/test_golden_bits.py`` prints it.
"""

from __future__ import annotations

import dataclasses
import math

from _oracles import GOLDEN_TRUTHS
from paramint import (
    DomainSpec,
    EndpointKind,
    QuadConfig,
    catalog,
    deriv_under_integral,
    eval_direct,
    integrate,
    reconstruct,
)

_HALF_LINE = DomainSpec.semi_infinite(0.0)
_SINGULAR_HALF_LINE = DomainSpec.semi_infinite(0.0, singular_lower=True)
_TIGHT = QuadConfig(abs_tol=1e-13, rel_tol=1e-13)
_LOOSE = QuadConfig(abs_tol=1e-6, rel_tol=1e-6)


def _pi_zeros(k: int) -> float:
    return k * math.pi


def _sinc(x: float) -> float:
    return math.sin(x) / x if x != 0.0 else 1.0


def _sin_sq_over_sq(x: float) -> float:
    return math.sin(x * x) / (x * x) if x != 0.0 else 1.0


def _offset_form(near):
    """An integrand x -> near(0, x) that carries ``near``, its offset form."""
    def f(x: float) -> float:
        return near(0.0, x)

    f.near = near
    return f


_HALF_PI = 0.5 * math.pi
# 1/sqrt(1 - x), (1 - x)**(-1/3) and 1/sqrt(x + pi/2) at x = end + d
_INV_SQRT_TO_ONE = _offset_form(lambda end, d: 1.0 / math.sqrt((1.0 - end) - d))
_CUBE_ROOT_TO_ONE = _offset_form(lambda end, d: ((1.0 - end) - d) ** (-1.0 / 3.0))
_INV_SQRT_FROM_HALF_PI = _offset_form(lambda end, d: 1.0 / math.sqrt((end + _HALF_PI) + d))


# name -> (integrand, domain, config or None)
KERNEL_CASES = {
    "finite.square": (lambda x: x * x, DomainSpec.finite(0.0, 1.0), None),
    "finite.exp_cos5": (
        lambda x: math.exp(x) * math.cos(5.0 * x), DomainSpec.finite(0.0, 1.0), None),
    "finite.gauss_loose": (
        lambda x: math.exp(-x * x), DomainSpec.finite(-3.0, 3.0),
        QuadConfig(abs_tol=1e-8, rel_tol=1e-8)),
    "finite.lorentz_peak": (
        lambda x: 1e-4 / (x * x + 1e-8), DomainSpec.finite(-1.0, 1.0), None),
    "finite.budget_4": (
        lambda x: 1.0 / (x * x + 1e-10), DomainSpec.finite(-1.0, 1.0),
        QuadConfig(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=4)),
    "singular.inv_sqrt": (
        lambda x: 1.0 / math.sqrt(x), DomainSpec.singular(0.0, 1.0, at_lower=True), None),
    "singular.log": (math.log, DomainSpec.singular(0.0, 1.0, at_lower=True), None),
    "singular.cube_root_upper": (
        lambda x: (1.0 - x) ** (-1.0 / 3.0), DomainSpec.singular(0.0, 1.0, at_upper=True),
        None),
    "singular.log_over_circle": (
        lambda x: math.log(x) / math.sqrt((1.0 - x) * (1.0 + x)),
        DomainSpec.singular(0.0, 1.0, at_lower=True, at_upper=True), None),
    "singular.pole": (
        lambda x: 1.0 / x, DomainSpec.singular(0.0, 1.0, at_lower=True), None),
    "singular.cube_root_upper_tight": (  # runs every level, 0 to 12
        lambda x: (1.0 - x) ** (-1.0 / 3.0), DomainSpec.singular(0.0, 1.0, at_upper=True),
        _TIGHT),
    "singular.log_over_circle_tight": (
        lambda x: math.log(x) / math.sqrt((1.0 - x) * (1.0 + x)),
        DomainSpec.singular(0.0, 1.0, at_lower=True, at_upper=True), _TIGHT),
    "singular.pow_m0_9": (
        lambda x: x ** -0.9, DomainSpec.singular(0.0, 2.0, at_lower=True), None),
    "singular.inv_sqrt_upper_offset": (
        _INV_SQRT_TO_ONE, DomainSpec.singular(0.0, 1.0, at_upper=True), None),
    "singular.cube_root_upper_offset_tight": (
        _CUBE_ROOT_TO_ONE, DomainSpec.singular(0.0, 1.0, at_upper=True), _TIGHT),
    "singular.inv_sqrt_lower_offset": (
        _INV_SQRT_FROM_HALF_PI, DomainSpec.singular(-_HALF_PI, _HALF_PI, at_lower=True),
        None),
    "improper.exp": (lambda x: math.exp(-x), _HALF_LINE, None),
    "improper.gauss_full_line": (
        lambda x: math.exp(-x * x),
        DomainSpec(-math.inf, math.inf, EndpointKind.INFINITE, EndpointKind.INFINITE), None),
    "improper.exp_lower_infinite": (
        math.exp, DomainSpec(-math.inf, 0.0, lower_kind=EndpointKind.INFINITE), None),
    "improper.exp_lorentz": (lambda x: math.exp(-x) / (1.0 + x * x), _HALF_LINE, None),
    "improper.lorentz_tight": (
        lambda x: 1.0 / (1.0 + x * x), _HALF_LINE, QuadConfig(abs_tol=1e-13, rel_tol=1e-13)),
    "improper.divergent_tail": (lambda x: 1.0 / (1.0 + x), _HALF_LINE, None),
    "improper.gamma_half_singular": (
        lambda x: math.exp(-x) / math.sqrt(x), _SINGULAR_HALF_LINE, None),
    "improper.gamma_half_singular_tight": (
        lambda x: math.exp(-x) / math.sqrt(x), _SINGULAR_HALF_LINE, _TIGHT),
    "improper.gamma_half_singular_loose": (
        lambda x: math.exp(-x) / math.sqrt(x), _SINGULAR_HALF_LINE, _LOOSE),
    "oscillatory.sinc": (_sinc, DomainSpec.oscillatory(0.0, _pi_zeros), None),
    "oscillatory.sin_lorentz": (
        lambda x: math.sin(x) / (1.0 + x * x), DomainSpec.oscillatory(0.0, _pi_zeros), None),
    "oscillatory.square_phase": (
        _sin_sq_over_sq, DomainSpec.oscillatory(0.0, lambda k: math.sqrt(k * math.pi)), None),
    "oscillatory.fallback": (
        lambda x: math.exp(-x) * (2.0 + math.sin(x)),
        DomainSpec.oscillatory(0.0, _pi_zeros), None),
}


def _record(call):
    try:
        r = call()
    except Exception as exc:  # the failure itself is pinned
        return ("raises", type(exc).__name__, str(exc))
    return (r.value.hex(), r.abs_err_est.hex(), r.n_evals, r.status.value)


def records() -> dict:
    out = {}
    for name, (f, dom, cfg) in KERNEL_CASES.items():
        out[name] = _record(lambda: integrate(f, dom, cfg))
    for entry in catalog.entries():
        P = entry.parametric
        for a in entry.verification_grid:
            out[f"{entry.id}@{a!r}.direct"] = _record(lambda: eval_direct(P, a))
            out[f"{entry.id}@{a!r}.deriv"] = _record(lambda: deriv_under_integral(P, a))
            if P.anchor is not None:
                out[f"{entry.id}@{a!r}.reconstruct"] = _record(lambda: reconstruct(P, a))
    for entry_id, a in (("ex2", 1.5), ("ex1", 1.0)):
        stripped = dataclasses.replace(catalog.get(entry_id).parametric, rhs_closed=None)
        out[f"{entry_id}@{a!r}.reconstruct_stripped"] = _record(
            lambda: reconstruct(stripped, a))
    return out


GOLDEN = {
    'finite.square': ('0x1.5555555555544p-2', '0x1.4a00000000000p-50', 30, 'converged'),
    'finite.exp_cos5': ('-0x1.052918c8e2b6cp-1', '0x1.3ac0000000000p-46', 30, 'converged'),
    'finite.gauss_loose': ('0x1.c5bcf8347fc08p+0', '0x1.de816c8000000p-32', 90, 'converged'),
    'finite.lorentz_peak': ('0x1.9219278b8866fp+1', '0x1.18f29fe000000p-33', 870, 'converged'),
    'finite.budget_4': ('0x1.b459ecfb2b95ap+11', '0x1.6df9f53b6603ap+11', 90, 'max_depth'),
    'singular.inv_sqrt': ('0x1.0000000000000p+1', '0x1.0000000000000p-48', 75, 'converged'),
    'singular.log': ('-0x1.0000000000000p+0', '0x1.5540000000000p-43', 72, 'converged'),
    'singular.cube_root_upper': ('0x1.7ffffffff3177p+0', '0x1.c1ca9838eeacep-37', 71, 'converged'),
    'singular.log_over_circle': ('-0x1.16bb24190a0b7p+0', '0x1.8ca8b5d955c24p-39', 81, 'converged'),
    'singular.pole': ('raises', 'NonIntegrableSingularityError', 'non-integrable growth near x=0.0: empirical local exponent -1.000 <= -1'),
    'singular.cube_root_upper_tight': ('0x1.7fffffffe778ap+0', '0x1.1f1ea12191fa0p-34', 26727, 'tail_truncated'),
    'singular.log_over_circle_tight': ('-0x1.16bb24190a0b7p+0', '0x1.16bb717b983d6p-52', 136, 'converged'),
    'singular.pow_m0_9': ('0x1.56f7ae9ae47fep+3', '0x1.1bcd963ccdaa4p-46', 78, 'converged'),
    'singular.inv_sqrt_upper_offset': ('0x1.0000000000000p+1', '0x1.0000000000000p-48', 86, 'converged'),
    'singular.cube_root_upper_offset_tight': ('0x1.8000000000000p+0', '0x1.1400000000000p-47', 85, 'converged'),
    'singular.inv_sqrt_lower_offset': ('0x1.c5bf891b4ef6bp+1', '0x1.d8b7f12369dedp-48', 86, 'converged'),
    'improper.exp': ('0x1.fffffffffffe4p-1', '0x1.512ae32d45d97p-38', 163, 'converged'),
    'improper.gauss_full_line': ('0x1.c5bf891b4ef54p+0', '0x1.1777653d00000p-35', 326, 'converged'),
    'improper.exp_lower_infinite': ('0x1.fffffffffffe4p-1', '0x1.512ae32d45d97p-38', 163, 'converged'),
    'improper.exp_lorentz': ('0x1.3e2ea5286899ep-1', '0x1.2f3b4dd2e31bfp-36', 162, 'converged'),
    'improper.lorentz_tight': ('0x1.921fb54442d04p+0', '0x1.4919cd70c734bp-48', 206, 'converged'),
    'improper.divergent_tail': ('0x1.72fe079ea9662p+8', 'inf', 108, 'tail_truncated'),
    'improper.gamma_half_singular': ('0x1.c5bf891b4ef6cp+0', '0x1.541c4e246d3bep-46', 207, 'converged'),
    'improper.gamma_half_singular_tight': ('0x1.c5bf891b4ef6cp+0', '0x1.862e7c48da77bp-47', 268, 'converged'),
    'improper.gamma_half_singular_loose': ('0x1.c5bf891b4ef90p+0', '0x1.2764254367123p-29', 176, 'converged'),
    'oscillatory.sinc': ('0x1.921fb544417b2p+0', '0x1.8bd805d3aac4cp-35', 480, 'converged'),
    'oscillatory.sin_lorentz': ('0x1.4b24461d56446p-1', '0x1.5aae5925926b9p-35', 540, 'converged'),
    'oscillatory.square_phase': ('0x1.40d931ff6524dp+0', '0x1.d18f24fb84c41p-35', 450, 'converged'),
    'oscillatory.fallback': ('0x1.3ffffffffffefp+1', '0x1.77b9ad13889f1p-34', 434, 'tail_truncated'),
    'gauss@0.5.direct': ('0x1.40d931ff626f4p+0', '0x1.59a24701252cep-38', 193, 'converged'),
    'gauss@0.5.deriv': ('-0x1.40d931ff62708p+0', '0x1.1f36c0518360fp-34', 193, 'converged'),
    'gauss@1.0.direct': ('0x1.c5bf891b4ef54p-1', '0x1.1777653d00000p-36', 163, 'converged'),
    'gauss@1.0.deriv': ('-0x1.c5bf891b4ef53p-2', '0x1.bc03b57e20245p-36', 193, 'converged'),
    'gauss@2.0.direct': ('0x1.40d931ff626f4p-1', '0x1.8ee4b3be1160ep-40', 163, 'converged'),
    'gauss@2.0.deriv': ('-0x1.40d931ff626f4p-3', '0x1.a71c08770b1a4p-37', 163, 'converged'),
    'ex1@0.25.direct': ('0x1.921fb54442d0bp+0', '0x1.b8deeb5f04f99p-40', 153, 'converged'),
    'ex1@0.25.deriv': ('0x1.921fb54442d06p+1', '0x1.bee6f34f45679p-40', 122, 'converged'),
    'ex1@0.25.reconstruct': ('0x1.921fb54442d18p+0', '0x1.9243f6a8885a3p-49', 81, 'converged'),
    'ex1@1.0.direct': ('0x1.921fb54442d08p+1', '0x1.ad15bfaad1f28p-38', 153, 'converged'),
    'ex1@1.0.deriv': ('0x1.921fb54442d05p+0', '0x1.119fbd17291a7p-33', 92, 'converged'),
    'ex1@1.0.reconstruct': ('0x1.921fb54442d18p+1', '0x1.9243f6a8885a3p-48', 81, 'converged'),
    'ex1@4.0.direct': ('0x1.921fb54442d06p+2', '0x1.d8becffb5a2ffp-32', 153, 'converged'),
    'ex1@4.0.deriv': ('0x1.921fb54442d04p-1', '0x1.96388319c8b4fp-36', 122, 'converged'),
    'ex1@4.0.reconstruct': ('0x1.921fb54442d18p+2', '0x1.9243f6a8885a3p-47', 81, 'converged'),
    'ex2@1.0.direct': ('-0x1.096a5c3685626p-51', '0x1.80d3b8296ae76p-36', 72, 'converged'),
    'ex2@1.0.deriv': ('0x1.921fb54442d18p+1', '0x1.04921fb54442dp-43', 71, 'converged'),
    'ex2@1.0.reconstruct': ('0x0.0p+0', '0x0.0p+0', 0, 'converged'),
    'ex2@1.5.direct': ('0x1.461829d792509p+1', '0x1.22203549c3140p-35', 90, 'converged'),
    'ex2@1.5.deriv': ('0x1.0c152382d7358p+2', '0x1.373341621c5cdp-36', 120, 'converged'),
    'ex2@1.5.reconstruct': ('0x1.461829d79250ap+1', '0x1.4000000000000p-47', 36, 'converged'),
    'ex2@2.0.direct': ('0x1.16bb24190a0a8p+2', '0x1.632476d67bc5ep-32', 60, 'converged'),
    'ex2@2.0.deriv': ('0x1.921fb54442d02p+1', '0x1.8b4c327907ad2p-37', 90, 'converged'),
    'ex2@2.0.reconstruct': ('0x1.16bb24190a0a8p+2', '0x1.7600000000000p-45', 36, 'converged'),
    'ex2@5.0.direct': ('0x1.4398c0d8e3de9p+3', '0x1.17535c769975fp-33', 30, 'converged'),
    'ex2@5.0.deriv': ('0x1.41b2f769cf0cfp+0', '0x1.521d2929a52ebp-44', 60, 'converged'),
    'ex2@5.0.reconstruct': ('0x1.4398c0d8e3de8p+3', '0x1.1672800000000p-33', 66, 'converged'),
    'ex3_beta@0.0.direct': ('0x0.0p+0', '0x0.0p+0', 43, 'converged'),
    'ex3_beta@0.0.deriv': ('0x1.c5bf891b4ef54p-1', '0x1.1777653d00000p-36', 163, 'converged'),
    'ex3_beta@0.0.reconstruct': ('0x0.0p+0', '0x0.0p+0', 0, 'converged'),
    'ex3_beta@0.5.direct': ('0x1.b8ec7731271a4p-2', '0x1.ce3d4a8ae18dfp-37', 163, 'converged'),
    'ex3_beta@0.5.deriv': ('0x1.a1a61f7149d57p-1', '0x1.1f99686876eafp-37', 193, 'converged'),
    'ex3_beta@0.5.reconstruct': ('0x1.b8ec7731271a4p-2', '0x1.b000000000000p-50', 36, 'converged'),
    'ex3_beta@1.0.direct': ('0x1.9cfe0dbedf456p-1', '0x1.4f5656d2581c3p-37', 223, 'converged'),
    'ex3_beta@1.0.deriv': ('0x1.6082d4e405700p-1', '0x1.342d4f13c77d9p-34', 223, 'converged'),
    'ex3_beta@1.0.reconstruct': ('0x1.9cfe0dbedf458p-1', '0x1.7e00000000000p-47', 36, 'converged'),
    'ex3_beta@2.0.direct': ('0x1.64b6fa9b2da0fp+0', '0x1.0294e1bb96e32p-35', 313, 'converged'),
    'ex3_beta@2.0.deriv': ('0x1.021f08aed27ccp-1', '0x1.fdfb7e16325cap-35', 343, 'converged'),
    'ex3_beta@2.0.reconstruct': ('0x1.64b6fa9b2da0ep+0', '0x1.a8b2a00000000p-34', 36, 'converged'),
    'ex3_alpha@0.0.direct': ('0x1.40d931ff6524dp+0', '0x1.d18f24fb84c41p-35', 450, 'converged'),
    'ex3_alpha@0.0.deriv': ('-0x1.40d931ff60b9fp-1', '0x1.09082414f1d96p-35', 510, 'converged'),
    'ex3_alpha@0.0.reconstruct': ('0x1.40d931ff642d7p+0', '0x1.13032e426d695p-29', 10560, 'converged'),
    'ex3_alpha@0.5.direct': ('0x1.f87889db7d703p-1', '0x1.0efed68a3c17cp-35', 270, 'converged'),
    'ex3_alpha@0.5.deriv': ('-0x1.c3366305de557p-2', '0x1.2a9934b131844p-37', 330, 'converged'),
    'ex3_alpha@0.5.reconstruct': ('0x1.f87889db7d302p-1', '0x1.12e3d3026d695p-30', 8220, 'converged'),
    'ex3_alpha@1.0.direct': ('0x1.9cfe0dbedf477p-1', '0x1.447d47b1a8450p-39', 210, 'converged'),
    'ex3_alpha@1.0.deriv': ('-0x1.24079c092bae4p-2', '0x1.4bd4cfffbb55cp-38', 240, 'converged'),
    'ex3_alpha@1.0.reconstruct': ('0x1.9cfe0dbedf46dp-1', '0x0.0p+0', 0, 'converged'),
    'ex3_alpha@2.0.direct': ('0x1.37c7b6d99806ap-1', '0x1.5de5b7720136bp-49', 270, 'converged'),
    'ex3_alpha@2.0.deriv': ('-0x1.16dd58588d17fp-3', '0x1.827ba2ecf053ap-49', 270, 'converged'),
    'ex3_alpha@2.0.reconstruct': ('0x1.37c7b6d99807ep-1', '0x1.12e0c4e26d695p-29', 7950, 'converged'),
    'ex4@0.0.direct': ('0x0.0p+0', '0x0.0p+0', 30, 'converged'),
    'ex4@0.0.deriv': ('0x0.0p+0', '0x1.019c501fbace4p-47', 30, 'converged'),
    'ex4@0.0.reconstruct': ('0x0.0p+0', '0x0.0p+0', 0, 'converged'),
    'ex4@0.2.direct': ('-0x1.054ec9a6b5910p-5', '0x1.69b029080fa18p-41', 30, 'converged'),
    'ex4@0.2.deriv': ('-0x1.4baef5e7566fap-2', '0x1.8bfce968302c8p-40', 30, 'converged'),
    'ex4@0.2.reconstruct': ('-0x1.054ec9a6b5932p-5', '0x1.0000000000000p-53', 36, 'converged'),
    'ex4@0.5.direct': ('-0x1.be1c0b2d757eap-3', '0x1.145986642f235p-41', 60, 'converged'),
    'ex4@0.5.deriv': ('-0x1.f1ab93950b5b4p-1', '0x1.91e7f1de9fda4p-37', 60, 'converged'),
    'ex4@0.5.reconstruct': ('-0x1.be1c0b2d757eap-3', '0x1.8800000000000p-50', 36, 'converged'),
    'ex4@0.9.direct': ('-0x1.0a7f588cb084ap+0', '0x1.2943fa1913d01p-37', 90, 'converged'),
    'ex4@0.9.deriv': ('-0x1.211e16156d6b9p+2', '0x1.7ab03f733d872p-32', 90, 'converged'),
    'ex4@0.9.reconstruct': ('-0x1.0a7f588cb0849p+0', '0x1.472b933333330p-37', 96, 'converged'),
    'ex4@0.99.direct': ('-0x1.c354888f1e930p+0', '0x1.88b552343926fp-38', 150, 'converged'),
    'ex4@0.99.deriv': ('-0x1.352608164b07dp+4', '0x1.48f2f4a12df54p-31', 150, 'converged'),
    'ex4@0.99.reconstruct': ('-0x1.c354888f1e92dp+0', '0x1.47dbf3d70a3e1p-34', 186, 'converged'),
    'ex4@1.0.direct': ('-0x1.16bb24190a0acp+1', '0x1.7f8d048e7d983p-36', 60, 'converged'),
    'ex4@1.0.deriv': ('raises', 'NonIntegrableSingularityError', 'non-integrable growth near x=-1.5707963267948966: empirical local exponent -2.000 <= -1'),
    'ex4@1.0.reconstruct': ('-0x1.16bb24190a0b7p+1', '0x1.1348b5d920c85p-38', 88, 'converged'),
    'ex2@1.5.reconstruct_stripped': ('0x1.461829d7924f8p+1', '0x1.12e15a826d695p-30', 5656, 'converged'),
    'ex1@1.0.reconstruct_stripped': ('0x1.921fb54442d0cp+1', '0x1.12e0fdee8ffddp-29', 21579, 'converged'),
}


def test_half_line_records_lie_within_their_estimates():
    # every record that runs through the half-line kernel, against mpmath
    for key, true in GOLDEN_TRUTHS.items():
        value, est, _, _ = GOLDEN[key]
        assert abs(true - float.fromhex(value)) <= float.fromhex(est), key


def test_every_record_is_bit_identical():
    got = records()
    assert got.keys() == GOLDEN.keys()
    diff = {k: (got[k], GOLDEN[k]) for k in GOLDEN if got[k] != GOLDEN[k]}
    assert not diff


if __name__ == "__main__":
    print("GOLDEN = {")
    for key, rec in records().items():
        print(f"    {key!r}: {rec!r},")
    print("}")
