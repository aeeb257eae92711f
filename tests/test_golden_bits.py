"""Bit-for-bit regression gate for the kernels and the engine.

Every record pins ``float.hex`` of ``value`` and ``abs_err_est``, plus
``n_evals`` and ``status``, of one call; a call that raises records its
exception class and message instead.  The battery covers:

* about thirty kernel calls, several per kernel class (finite GK,
  tanh-sinh, improper with a regular and a singular lower end, and
  oscillatory), some at tight and loose
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
value bits, and so the error against pi, are unchanged.  It moved a
third time when a numeric rhs with a square-root blow-up at one end of
the path began to run Gauss-Kronrod in s = sqrt(alpha - alpha0) (the
s-route): ``n_evals`` 21,579 -> 5,312, ``abs_err_est`` 2.0e-9 (the flat
node share alone), and the error against pi 5.3e-15 -> 1.6e-14 (12 -> 37
ulp), because the 15-digit Gauss-Kronrod constants make the Kronrod
weights sum to 2 - 6.0e-15 and the s-route's integrand is the constant pi.
That node-weight tolerance was later deleted, since no record reached it
any more; no record moved.
The unrolled Gauss-Kronrod panel (the same operands in the same order)
and the former oscillatory kernel's epsilon table, grown one anti-diagonal
per term instead of rebuilt, were checked against these records without
re-recording any.

Fifteen records moved when the oscillatory kernel began its head and each
inter-zero segment with one Gauss-Kronrod panel over the whole segment,
bisecting only when that panel misses, at a segment share of 0.25/61 of
the tolerance instead of 0.02: the four ``oscillatory.*`` records and the
eleven ``ex3_alpha@*`` records that run the kernel (``direct`` and
``deriv`` at 0, 0.5, 1 and 2, ``reconstruct`` at 0, 0.5 and 2).  Each
takes fewer evaluations and keeps its status, and each estimate changed
with the segments' |K - G|.  Seven values moved, by 1 or 2 ulp, except
``ex3_alpha@0.0.deriv`` by 20 ulp (7.788e-13 -> 7.810e-13 against
mpmath); no error against the truths in ``_oracles.py`` rose by more than
2.2e-15.  ``oscillatory.fallback`` moved only in ``n_evals``, spent on the
segments before it falls back.

Six records moved when every numeric-rhs reconstruction whose path ends
are regular, or one a square-root end, became one Chebyshev interpolant
of dI/d alpha (or of dI/ds, alpha = end +- s*s) sampled at the node
tolerance times 0.25/(path length), instead of Gauss-Kronrod in alpha or
in s: ``ex3_alpha@*.reconstruct`` at 0, 0.5 and 2 and the two
``*_stripped`` records.  Their estimates no longer carry the flat node
share 2 (path length) 1e-9, and each error against mpmath fell (the
largest, ex3_alpha at 0, from 1.6e-12 to 7.5e-13).  ``ex4@0.2.direct``
moved with it, when ex4's integrand became log1p(a sin t) below a = 0.25:
its error fell from 3.3e-16 to 7.6e-17.  ``CATALOG_TRUTHS`` holds the
truths of ex2's and ex4's records.

The three ``improper.gamma_half_singular*`` records moved when a
half-line's singular lower end began to run tanh-sinh on x in
[a, a + x_m] instead of on the compactified s in [0, s_m]: the two at
the default and the tight tolerance fell from 1 ulp off mpmath to
exact, and the loose one kept its value bits, with 116 evaluations
instead of 176 and an estimate of 5.9e-9 instead of 2.1e-9 (loose
tolerance: 1e-6).

Five records moved only in ``n_evals`` when a numeric rhs began to fit a
path end inside the parameter domain only after an interpolant declines:
``ex3_alpha@*.reconstruct`` at 0, 0.5 and 2 (8,325 -> 7,920, 3,420 ->
2,520 and 6,945 -> 5,955), ``ex2@1.5.reconstruct_stripped`` (3,676 ->
3,406) and ``ex1@1.0.reconstruct_stripped`` (2,166 -> 1,890).

Seventeen records moved when the routing fits of a numeric rhs began to
sample at a relative tolerance of 1e-4 instead of the node tolerance,
and the oscillatory kernel began its head [a, first zero] from the two
halves instead of one panel over it.  Sixteen moved only in ``n_evals``:
``oscillatory.sin_lorentz``, ``.square_phase`` and ``.fallback`` and the
ten ``ex3_alpha@*`` ``direct`` and ``deriv`` records (15 fewer each),
``ex3_alpha@*.reconstruct`` at 0, 0.5 and 2 (7,920 -> 7,065, 2,520 ->
2,295 and 5,955 -> 5,490), ``ex2@1.5.reconstruct_stripped`` (3,406 ->
2,910) and ``ex1@1.0.reconstruct_stripped`` (1,890 -> 1,438).
``oscillatory.sinc``, whose head converged on its one panel, takes 255
evaluations instead of 240; its value is unchanged, and its estimate
moved from 4.573e-11 to 4.572e-11 (error 1.2e-12).

Twenty-five records moved when the oscillatory kernel became one
Ooura-Mori double-exponential sum in the phase index, and tanh-sinh's
small-term cutoff became relative to the integrand's own scale, the
largest term of level 0.  The four
``oscillatory.*`` records and the eleven ``ex3_alpha@*`` records that run
the kernel moved in value, estimate and ``n_evals``; every error against
the truths in ``_oracles.py`` fell (the largest, ``ex3_alpha@0.0.direct``
and ``oscillatory.square_phase``, from 2.46e-12 to 2.2e-16).  The old
``oscillatory.fallback`` record, renamed ``oscillatory.non_alternating``,
no longer falls back to the half-line kernel: 2.5 - 4.4e-16 ``converged``
in 162 evaluations instead of 2.5 - 7.6e-15 ``tail_truncated`` in 359.
Ten records moved only in ``n_evals`` with the relative cutoff, each to
more evaluations: ``singular.cube_root_upper_tight`` (87),
``.log_over_circle_tight`` (1), six ``improper.*`` records (1 or 2),
``ex3_beta@0.0.direct`` (13) and ``ex1@1.0.reconstruct_stripped`` (1).

The same fifteen oscillatory records moved in their estimate only when
the oscillatory sum began to charge each term w v the rounding of its
weight and of the product, 2 eps |w v|: each estimate rose, by 6e-17 to
1.9e-15 (at most 38%, ``oscillatory.sin_lorentz``); no value, status or
``n_evals`` moved, so no error against the truths changed.

Fifty-six records moved when the Gauss-Kronrod weights became QUADPACK's
qk15 weights to full precision (the abscissae keep 15 digits), so that
each set sums to 2 in floating point; when ``integrate_finite``'s
estimate was floored at 50 eps times the sum of its panels' |value|; and
when a numeric rhs's Chebyshev samples began to run at an eighth of the
alpha-tolerance over the path length instead of a quarter of the node
tolerance.  54 moved in value and estimate, and the two ``*_stripped``
records in ``n_evals`` too (2,910 -> 2,730 and 1,439 -> 1,264).  Against
mpmath every error fell or held, except two: ``gauss@0.5.deriv`` rose
from 4.4e-16 to 4.2e-15, and ``ex4@0.0.deriv`` from 0 to 3.3e-16.  The
largest, ``ex2@5.0.reconstruct``, fell from 3.2e-14 to 1.8e-15, and
``ex1@1.0.reconstruct_stripped`` reads pi to the last bit.

Regenerate the table only for a change that is meant to move numbers:
``PYTHONPATH=src python tests/test_golden_bits.py`` prints it, and with
``--diff`` prints only the records that differ from it, old -> new, each
marked "n_evals only" when its value, estimate and status are unchanged,
with its error against the truth where ``_oracles.py`` holds one, and
then the count of each kind.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from collections import Counter

from _oracles import CATALOG_TRUTHS, EX3_ALPHA_TRUTHS, GOLDEN_TRUTHS, OSCILLATORY_TRUTHS
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


def _pi_zeros(k: float) -> float:
    return k * math.pi


# the tails x = k pi and x = sqrt(k pi), with their rates dx/dk, from 0
_PI_TAIL = DomainSpec.oscillatory(0.0, _pi_zeros, lambda k: math.pi)
_SQUARE_TAIL = DomainSpec.oscillatory(
    0.0, lambda k: math.sqrt(k * math.pi), lambda k: 0.5 * math.pi / math.sqrt(k * math.pi))


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
    "oscillatory.sinc": (_sinc, _PI_TAIL, None),
    "oscillatory.sin_lorentz": (lambda x: math.sin(x) / (1.0 + x * x), _PI_TAIL, None),
    "oscillatory.square_phase": (_sin_sq_over_sq, _SQUARE_TAIL, None),
    "oscillatory.non_alternating": (
        lambda x: math.exp(-x) * (2.0 + math.sin(x)), _PI_TAIL, None),
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
    'finite.square': ('0x1.5555555555556p-2', '0x1.0aaaaaaaaaaabp-48', 30, 'converged'),
    'finite.exp_cos5': ('-0x1.052918c8e2b7ap-1', '0x1.5780000000000p-46', 30, 'converged'),
    'finite.gauss_loose': ('0x1.c5bcf8347fc1ep+0', '0x1.de82f28000000p-32', 90, 'converged'),
    'finite.lorentz_peak': ('0x1.9219278b88685p+1', '0x1.18f7862200000p-33', 870, 'converged'),
    'finite.budget_4': ('0x1.b459ecfb2b99ap+11', '0x1.6df9f53b6607dp+11', 90, 'max_depth'),
    'singular.inv_sqrt': ('0x1.0000000000000p+1', '0x1.0000000000000p-48', 75, 'converged'),
    'singular.log': ('-0x1.0000000000000p+0', '0x1.5540000000000p-43', 72, 'converged'),
    'singular.cube_root_upper': ('0x1.7ffffffff3177p+0', '0x1.c1ca9838eeacep-37', 71, 'converged'),
    'singular.log_over_circle': ('-0x1.16bb24190a0b7p+0', '0x1.8ca8b5d955c24p-39', 81, 'converged'),
    'singular.pole': ('raises', 'NonIntegrableSingularityError', 'non-integrable growth near x=0.0: empirical local exponent -1.000 <= -1'),
    'singular.cube_root_upper_tight': ('0x1.7fffffffe778ap+0', '0x1.1f1ea12191fa0p-34', 26814, 'tail_truncated'),
    'singular.log_over_circle_tight': ('-0x1.16bb24190a0b7p+0', '0x1.16bb717b983d6p-52', 137, 'converged'),
    'singular.pow_m0_9': ('0x1.56f7ae9ae47fep+3', '0x1.1bcd963ccdaa4p-46', 78, 'converged'),
    'singular.inv_sqrt_upper_offset': ('0x1.0000000000000p+1', '0x1.0000000000000p-48', 86, 'converged'),
    'singular.cube_root_upper_offset_tight': ('0x1.8000000000000p+0', '0x1.1400000000000p-47', 85, 'converged'),
    'singular.inv_sqrt_lower_offset': ('0x1.c5bf891b4ef6bp+1', '0x1.d8b7f12369dedp-48', 86, 'converged'),
    'improper.exp': ('0x1.0000000000000p+0', '0x1.513e54f4624b3p-38', 164, 'converged'),
    'improper.gauss_full_line': ('0x1.c5bf891b4ef6bp+0', '0x1.176cf7e838e39p-35', 326, 'converged'),
    'improper.exp_lower_infinite': ('0x1.0000000000000p+0', '0x1.513e54f4624b3p-38', 164, 'converged'),
    'improper.exp_lorentz': ('0x1.3e2ea528689afp-1', '0x1.2f43232838714p-36', 163, 'converged'),
    'improper.lorentz_tight': ('0x1.921fb54442d19p+0', '0x1.21c922bee85f6p-46', 207, 'converged'),
    'improper.divergent_tail': ('0x1.72fe079ea9662p+8', 'inf', 108, 'tail_truncated'),
    'improper.gamma_half_singular': ('0x1.c5bf891b4ef6bp+0', '0x1.38389c48da77bp-47', 209, 'converged'),
    'improper.gamma_half_singular_tight': ('0x1.c5bf891b4ef6bp+0', '0x1.62e7c48da77b6p-51', 271, 'converged'),
    'improper.gamma_half_singular_loose': ('0x1.c5bf891b4ef90p+0', '0x1.982603a1b3892p-28', 116, 'converged'),
    'oscillatory.sinc': ('0x1.921fb54442d19p+0', '0x1.5ddae5b105b14p-36', 162, 'converged'),
    'oscillatory.sin_lorentz': ('0x1.4b24461d523acp-1', '0x1.a0d7408232b14p-50', 387, 'converged'),
    'oscillatory.square_phase': ('0x1.40d931ff62705p+0', '0x1.1c90278989ed1p-39', 162, 'converged'),
    'oscillatory.non_alternating': ('0x1.3ffffffffffffp+1', '0x1.8d6c000000000p-37', 162, 'converged'),
    'gauss@0.5.direct': ('0x1.40d931ff62706p+0', '0x1.5977921a96f40p-38', 193, 'converged'),
    'gauss@0.5.deriv': ('-0x1.40d931ff62719p+0', '0x1.1f3972f6d8b64p-34', 193, 'converged'),
    'gauss@1.0.direct': ('0x1.c5bf891b4ef6bp-1', '0x1.176cf7e838e39p-36', 163, 'converged'),
    'gauss@1.0.deriv': ('-0x1.c5bf891b4ef6bp-2', '0x1.bc02e01f03b46p-36', 193, 'converged'),
    'gauss@2.0.direct': ('0x1.40d931ff62706p-1', '0x1.8ef160f6f4f08p-40', 163, 'converged'),
    'gauss@2.0.deriv': ('-0x1.40d931ff62705p-3', '0x1.a71c513e278e4p-37', 163, 'converged'),
    'ex1@0.25.direct': ('0x1.921fb54442d18p+0', '0x1.b997ceed3ddd2p-40', 153, 'converged'),
    'ex1@0.25.deriv': ('0x1.921fb54442d18p+1', '0x1.bdca818828f5cp-40', 122, 'converged'),
    'ex1@0.25.reconstruct': ('0x1.921fb54442d18p+0', '0x1.9243f6a8885a3p-49', 81, 'converged'),
    'ex1@1.0.direct': ('0x1.921fb54442d19p+1', '0x1.ad814de3b580cp-38', 153, 'converged'),
    'ex1@1.0.deriv': ('0x1.921fb54442d18p+0', '0x1.119fcb500ca8ap-33', 92, 'converged'),
    'ex1@1.0.reconstruct': ('0x1.921fb54442d18p+1', '0x1.9243f6a8885a3p-48', 81, 'converged'),
    'ex1@4.0.direct': ('0x1.921fb54442d18p+2', '0x1.d8c3faa604da9p-32', 153, 'converged'),
    'ex1@4.0.deriv': ('0x1.921fb54442d18p-1', '0x1.963cbbfd56eddp-36', 122, 'converged'),
    'ex1@4.0.reconstruct': ('0x1.921fb54442d18p+2', '0x1.9243f6a8885a3p-47', 81, 'converged'),
    'ex2@1.0.direct': ('-0x1.096a5c3685626p-51', '0x1.80d3b8296ae76p-36', 72, 'converged'),
    'ex2@1.0.deriv': ('0x1.921fb54442d18p+1', '0x1.04921fb54442dp-43', 71, 'converged'),
    'ex2@1.0.reconstruct': ('0x0.0p+0', '0x0.0p+0', 0, 'converged'),
    'ex2@1.5.direct': ('0x1.461829d79251ap+1', '0x1.222d43f155db6p-35', 90, 'converged'),
    'ex2@1.5.deriv': ('0x1.0c152382d7365p+2', '0x1.375b4f8aaaa97p-36', 120, 'converged'),
    'ex2@1.5.reconstruct': ('0x1.461829d79251ap+1', '0x1.fd85c160d49f9p-46', 36, 'converged'),
    'ex2@2.0.direct': ('0x1.16bb24190a0b7p+2', '0x1.6326ee4c466b1p-32', 60, 'converged'),
    'ex2@2.0.deriv': ('0x1.921fb54442d18p+1', '0x1.8b67afa3ebd7bp-37', 90, 'converged'),
    'ex2@2.0.reconstruct': ('0x1.16bb24190a0b6p+2', '0x1.b38468671fb1ep-45', 36, 'converged'),
    'ex2@5.0.direct': ('0x1.4398c0d8e3dfap+3', '0x1.1766ff02f34b3p-33', 30, 'converged'),
    'ex2@5.0.deriv': ('0x1.41b2f769cf0e0p+0', '0x1.65bfb5837a71ep-44', 60, 'converged'),
    'ex2@5.0.reconstruct': ('0x1.4398c0d8e3df9p+3', '0x1.1685c00000000p-33', 66, 'converged'),
    'ex3_beta@0.0.direct': ('0x0.0p+0', '0x0.0p+0', 56, 'converged'),
    'ex3_beta@0.0.deriv': ('0x1.c5bf891b4ef6bp-1', '0x1.176cf7e838e39p-36', 163, 'converged'),
    'ex3_beta@0.0.reconstruct': ('0x0.0p+0', '0x0.0p+0', 0, 'converged'),
    'ex3_beta@0.5.direct': ('0x1.b8ec7731271bcp-2', '0x1.ce3d01e02f8e0p-37', 163, 'converged'),
    'ex3_beta@0.5.deriv': ('0x1.a1a61f7149d6ep-1', '0x1.1f9a631468b1fp-37', 193, 'converged'),
    'ex3_beta@0.5.reconstruct': ('0x1.b8ec7731271bbp-2', '0x1.5878bd1e668dap-48', 36, 'converged'),
    'ex3_beta@1.0.direct': ('0x1.9cfe0dbedf46dp-1', '0x1.4f59833b49e35p-37', 223, 'converged'),
    'ex3_beta@1.0.deriv': ('0x1.6082d4e405712p-1', '0x1.342d44436e9a0p-34', 223, 'converged'),
    'ex3_beta@1.0.reconstruct': ('0x1.9cfe0dbedf46dp-1', '0x1.c400000000000p-47', 36, 'converged'),
    'ex3_beta@2.0.direct': ('0x1.64b6fa9b2da22p+0', '0x1.0292059163d9bp-35', 313, 'converged'),
    'ex3_beta@2.0.deriv': ('0x1.021f08aed27d9p-1', '0x1.fdfd8960e263cp-35', 343, 'converged'),
    'ex3_beta@2.0.reconstruct': ('0x1.64b6fa9b2da22p+0', '0x1.a8ad000000000p-34', 36, 'converged'),
    'ex3_alpha@0.0.direct': ('0x1.40d931ff62705p+0', '0x1.1c90278989ed1p-39', 162, 'converged'),
    'ex3_alpha@0.0.deriv': ('-0x1.40d931ff62705p-1', '0x1.19c4c9b6415d8p-35', 162, 'converged'),
    'ex3_alpha@0.0.reconstruct': ('0x1.40d931ff62706p+0', '0x1.4d40b64113400p-38', 5508, 'converged'),
    'ex3_alpha@0.5.direct': ('0x1.f87889db7c62dp-1', '0x1.1255571a56b72p-46', 162, 'converged'),
    'ex3_alpha@0.5.deriv': ('-0x1.c3366305de940p-2', '0x1.601d831443778p-39', 162, 'converged'),
    'ex3_alpha@0.5.reconstruct': ('0x1.f87889db7c62ep-1', '0x1.68c15e6b52df7p-41', 2430, 'converged'),
    'ex3_alpha@1.0.direct': ('0x1.9cfe0dbedf46dp-1', '0x1.8609736ee9234p-45', 162, 'converged'),
    'ex3_alpha@1.0.deriv': ('-0x1.24079c092b9b5p-2', '0x1.849f5e1f711eap-40', 162, 'converged'),
    'ex3_alpha@1.0.reconstruct': ('0x1.9cfe0dbedf46dp-1', '0x0.0p+0', 0, 'converged'),
    'ex3_alpha@2.0.direct': ('0x1.37c7b6d99807bp-1', '0x1.0a8cc26dd9c2dp-43', 162, 'converged'),
    'ex3_alpha@2.0.deriv': ('-0x1.16dd58588d18dp-3', '0x1.3a21a47813885p-39', 162, 'converged'),
    'ex3_alpha@2.0.reconstruct': ('0x1.37c7b6d99807bp-1', '0x1.4298a8ea7e9dfp-40', 5022, 'converged'),
    'ex4@0.0.direct': ('0x0.0p+0', '0x0.0p+0', 30, 'converged'),
    'ex4@0.0.deriv': ('-0x1.8000000000000p-52', '0x1.9000000000000p-46', 30, 'converged'),
    'ex4@0.0.reconstruct': ('0x0.0p+0', '0x0.0p+0', 0, 'converged'),
    'ex4@0.2.direct': ('-0x1.054ec9a6b5944p-5', '0x1.69df48bf4da14p-41', 30, 'converged'),
    'ex4@0.2.deriv': ('-0x1.4baef5e756708p-2', '0x1.8bbe1473dd821p-40', 30, 'converged'),
    'ex4@0.2.reconstruct': ('-0x1.054ec9a6b593fp-5', '0x1.984b1b147bb72p-52', 36, 'converged'),
    'ex4@0.5.direct': ('-0x1.be1c0b2d75803p-3', '0x1.14d7304cd4783p-41', 60, 'converged'),
    'ex4@0.5.deriv': ('-0x1.f1ab93950b5cep-1', '0x1.9205ca3913eb3p-37', 60, 'converged'),
    'ex4@0.5.reconstruct': ('-0x1.be1c0b2d75801p-3', '0x1.5c85e8bb83cc1p-49', 36, 'converged'),
    'ex4@0.9.direct': ('-0x1.0a7f588cb0858p+0', '0x1.2937cda356ff0p-37', 90, 'converged'),
    'ex4@0.9.deriv': ('-0x1.211e16156d6c8p+2', '0x1.7aaaad2ac6990p-32', 90, 'converged'),
    'ex4@0.9.reconstruct': ('-0x1.0a7f588cb0857p+0', '0x1.474ca66666663p-37', 96, 'converged'),
    'ex4@0.99.direct': ('-0x1.c354888f1e947p+0', '0x1.8869233261b85p-38', 150, 'converged'),
    'ex4@0.99.deriv': ('-0x1.352608164b08ep+4', '0x1.48ed4f7f3a87fp-31', 150, 'converged'),
    'ex4@0.99.reconstruct': ('-0x1.c354888f1e945p+0', '0x1.47e2f1c28f5cdp-34', 186, 'converged'),
    'ex4@1.0.direct': ('-0x1.16bb24190a0acp+1', '0x1.7f8d048e7d983p-36', 60, 'converged'),
    'ex4@1.0.deriv': ('raises', 'NonIntegrableSingularityError', 'non-integrable growth near x=-1.5707963267948966: empirical local exponent -2.000 <= -1'),
    'ex4@1.0.reconstruct': ('-0x1.16bb24190a0b7p+1', '0x1.1348b5d920c85p-38', 88, 'converged'),
    'ex2@1.5.reconstruct_stripped': ('0x1.461829d79251bp+1', '0x1.660395e6c27a2p-30', 2730, 'converged'),
    'ex1@1.0.reconstruct_stripped': ('0x1.921fb54442d18p+1', '0x1.c1ca9b1465d92p-30', 1264, 'converged'),
}


def test_half_line_records_lie_within_their_estimates():
    # every record that runs through the half-line kernel, against mpmath
    for key, true in GOLDEN_TRUTHS.items():
        value, est, _, _ = GOLDEN[key]
        assert abs(true - float.fromhex(value)) <= float.fromhex(est), key


def test_oscillatory_records_lie_within_their_estimates():
    # every record that runs through the oscillatory kernel, against mpmath
    truths = _truths()
    keys = [k for k in GOLDEN if k.startswith("oscillatory.")
            or k.startswith("ex3_alpha@") and not k.endswith(".reconstruct")]
    assert len(keys) == 12
    for key in keys:
        value, est, _, _ = GOLDEN[key]
        assert abs(truths[key] - float.fromhex(value)) <= float.fromhex(est), key


def test_ex2_and_ex4_values_lie_within_their_estimates():
    # the direct and reconstructed values at their grid points, against mpmath
    for key, true in _truths().items():
        if key.startswith(("ex2@", "ex4@")):
            value, est, _, _ = GOLDEN[key]
            assert abs(true - float.fromhex(value)) <= float.fromhex(est), key


def test_every_record_is_bit_identical():
    got = records()
    assert got.keys() == GOLDEN.keys()
    diff = {k: (got[k], GOLDEN[k]) for k in GOLDEN if got[k] != GOLDEN[k]}
    assert not diff


def _truths() -> dict:
    """The truth of every record that ``_oracles`` holds one for; a
    reconstruction's is its point's direct value."""
    out = {**GOLDEN_TRUTHS, **OSCILLATORY_TRUTHS}
    out.update((f"ex3_alpha@{a!r}.direct", true) for a, true in EX3_ALPHA_TRUTHS.items())
    out.update((f"{point}.direct", true) for point, true in CATALOG_TRUTHS.items())
    for key in GOLDEN:
        point, _, kind = key.rpartition(".")
        if kind.startswith("reconstruct") and f"{point}.direct" in out:
            out[key] = out[f"{point}.direct"]
    return out


def _error(rec, true):
    """|true - value| of a record, or None without a truth or a value."""
    if rec is None or rec[0] == "raises" or true is None:
        return None
    return abs(true - float.fromhex(rec[0]))


def _kind(old, new) -> str:
    """How a record moved: "n_evals only" when its value, estimate and
    status are unchanged, else "moved" (or "new", "gone")."""
    if old is None or new is None:
        return "new" if old is None else "gone"
    if old[0] != "raises" and new[0] != "raises" and old[:2] + old[3:] == new[:2] + new[3:]:
        return "n_evals only"
    return "moved"


def print_diff() -> None:
    """Print each record that differs from GOLDEN, old -> new, marked with
    its kind (_kind), with its error against the truth where ``_oracles``
    holds one and whether that error rose or fell; then the count of each
    kind."""
    got, truths = records(), _truths()
    kinds = Counter()
    for key in {**GOLDEN, **got}:
        old, new = GOLDEN.get(key), got.get(key)
        if old == new:
            continue
        kinds[_kind(old, new)] += 1
        print(f"{key} ({_kind(old, new)})")
        print(f"  old {old!r}")
        print(f"  new {new!r}")
        e_old, e_new = _error(old, truths.get(key)), _error(new, truths.get(key))
        if e_old is not None and e_new is not None:
            trend = "rise" if e_new > e_old else "fall" if e_new < e_old else "same"
            print(f"  err {e_old:.4g} -> {e_new:.4g} ({trend} {e_new - e_old:+.2g})")
    counts = ", ".join(f"{n} {kind}" for kind, n in sorted(kinds.items()))
    print(f"records that differ: {counts or 'none'}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        print_diff()
    else:
        print("GOLDEN = {")
        for key, rec in records().items():
            print(f"    {key!r}: {rec!r},")
        print("}")
