"""Independent oracles used to freeze expected values into the tests.

Nothing in here imports the package under test.  Finite-interval checks
use a composite Simpson rule; everything else goes through mpmath at 30
significant digits (plain ``quad`` for smooth/singular cases, ``quadosc``
for oscillatory tails).  The frozen literals in the test files were
produced by the functions below; rerunning them must reproduce those
literals to all printed digits.  ``GOLDEN_TRUTHS`` is such a table kept
here: the functions import mpmath when called, so a test can import the
table without it.
"""

from __future__ import annotations

import math


def composite_simpson(f, a: float, b: float, n: int = 4096) -> float:
    """Plain composite Simpson's rule with n (even) panels."""
    if n % 2:
        n += 1
    h = (b - a) / n
    acc = f(a) + f(b)
    for i in range(1, n):
        acc += f(a + i * h) * (4.0 if i % 2 else 2.0)
    return acc * h / 3.0


def mp_quad(f, points, dps: int = 30) -> float:
    """High-precision quadrature; `points` as for mpmath.quad."""
    import mpmath as mp

    with mp.workdps(dps):
        return float(mp.quad(f, points, maxdegree=10))


def mp_quadosc(f, a, zeros, dps: int = 30) -> float:
    """High-precision oscillatory quadrature on [a, inf)."""
    import mpmath as mp

    with mp.workdps(dps):
        return float(mp.quadosc(f, [a, mp.inf], zeros=zeros))


def mp_formula(expr, dps: int = 30) -> float:
    """Evaluate a zero-argument mpmath expression at high precision."""
    import mpmath as mp

    with mp.workdps(dps):
        return float(expr())


def golden_truths() -> dict:
    """True values of the golden records routed through the half-line kernel.

    Closed forms evaluated by mpmath; ``improper.exp_lorentz`` is
    Ci(1) sin(1) + (pi/2 - Si(1)) cos(1).
    """
    import mpmath as mp

    out = {
        "improper.exp": mp_formula(lambda: mp.mpf(1)),
        "improper.gauss_full_line": mp_formula(lambda: mp.sqrt(mp.pi)),
        "improper.exp_lower_infinite": mp_formula(lambda: mp.mpf(1)),
        "improper.exp_lorentz": mp_formula(
            lambda: mp.ci(1) * mp.sin(1) + (mp.pi / 2 - mp.si(1)) * mp.cos(1)),
        "improper.lorentz_tight": mp_formula(lambda: mp.pi / 2),
        "improper.divergent_tail": math.inf,  # int_0^inf dx/(1+x)
        "improper.gamma_half_singular": mp_formula(lambda: mp.sqrt(mp.pi)),
        "improper.gamma_half_singular_tight": mp_formula(lambda: mp.sqrt(mp.pi)),
        "improper.gamma_half_singular_loose": mp_formula(lambda: mp.sqrt(mp.pi)),
        "oscillatory.fallback": mp_formula(lambda: mp.mpf(5) / 2),
    }
    for a in (0.5, 1.0, 2.0):  # exp(-a x^2) and its a-derivative
        out[f"gauss@{a!r}.direct"] = mp_formula(lambda: mp.sqrt(mp.pi / a) / 2)
        out[f"gauss@{a!r}.deriv"] = mp_formula(lambda: -mp.sqrt(mp.pi) / (4 * mp.mpf(a) ** 1.5))
    for a in (0.25, 1.0, 4.0):  # log(1 + a x^2)/x^2 and 1/(1 + a x^2)
        out[f"ex1@{a!r}.direct"] = mp_formula(lambda: mp.pi * mp.sqrt(a))
        out[f"ex1@{a!r}.deriv"] = mp_formula(lambda: mp.pi / (2 * mp.sqrt(a)))
    for b in (0.0, 0.5, 1.0, 2.0):  # exp(-x^2) sin(b x^2)/x^2 and its b-derivative
        out[f"ex3_beta@{b!r}.direct"] = mp_formula(
            lambda: mp.sqrt(mp.pi / 2) * mp.sqrt(mp.sqrt(1 + mp.mpf(b) ** 2) - 1))
        out[f"ex3_beta@{b!r}.deriv"] = mp_formula(
            lambda: mp.sqrt(mp.pi) / 2 * mp.cos(mp.atan(b) / 2) / (1 + mp.mpf(b) ** 2) ** 0.25)
    return out


def ex3_alpha_truths() -> dict:
    """ex3_alpha's I(a) = sqrt(pi/2) sqrt(sqrt(a^2+1) - a) at its grid points
    off the anchor, by mpmath."""
    import mpmath as mp

    return {
        a: mp_formula(lambda: mp.sqrt(mp.pi / 2) * mp.sqrt(mp.sqrt(mp.mpf(a) ** 2 + 1) - a))
        for a in (0.0, 0.5, 2.0)
    }


def oscillatory_truths() -> dict:
    """True values of the golden records routed through the oscillatory
    kernel that no other table holds, by mpmath: the three converging
    ``oscillatory.*`` records (``sin_lorentz`` is
    (Ei(1)/e - e Ei(-1))/2), ex3_alpha's I at its anchor a = 1 and its
    dI/da = sqrt(pi/2) (a/r - 1) / (2 sqrt(r - a)), r = sqrt(a^2 + 1), at
    every grid point."""
    import mpmath as mp

    out = {
        "oscillatory.sinc": mp_formula(lambda: mp.pi / 2),
        "oscillatory.sin_lorentz": mp_formula(
            lambda: (mp.ei(1) / mp.e - mp.e * mp.ei(-1)) / 2),
        "oscillatory.square_phase": mp_formula(lambda: mp.sqrt(mp.pi / 2)),
        "ex3_alpha@1.0.direct": mp_formula(lambda: mp.sqrt(mp.pi / 2) * mp.sqrt(mp.sqrt(2) - 1)),
    }
    for a in (0.0, 0.5, 1.0, 2.0):
        def deriv(a=mp.mpf(a)):
            r = mp.sqrt(a * a + 1)
            return mp.sqrt(mp.pi / 2) * (a / r - 1) / (2 * mp.sqrt(r - a))

        out[f"ex3_alpha@{a!r}.deriv"] = mp_formula(deriv)
    return out


def item3_truths() -> dict:
    """True values at the three catalog calls that ROADMAP item 3 lists as
    dishonest or refused, by mpmath: ex1's I = pi sqrt(a) at a = 1e308 and
    its dI/da = pi/(2 sqrt(a)) at a = 1e16, and ex4's
    I = pi log((1 + sqrt(1 - a^2))/2) at a = 0.01678878558050519."""
    import mpmath as mp

    a4 = mp.mpf(0.01678878558050519)
    return {
        "ex1@1e+308.direct": mp_formula(lambda: mp.pi * mp.sqrt(mp.mpf(1e308))),
        "ex1@1e+16.deriv": mp_formula(lambda: mp.pi / (2 * mp.sqrt(mp.mpf(1e16)))),
        "ex4@0.01678878558050519.direct": mp_formula(
            lambda: mp.pi * mp.log((1 + mp.sqrt(1 - a4**2)) / 2)),
    }


def catalog_truths() -> dict:
    """ex2's I = 2 pi log(a) and ex4's I = pi log((1 + sqrt(1 - a^2))/2) at
    their grid points off the anchors, by mpmath, keyed as the golden
    records' points."""
    import mpmath as mp

    out = {f"ex2@{a!r}": mp_formula(lambda: 2 * mp.pi * mp.log(mp.mpf(a)))
           for a in (1.5, 2.0, 5.0)}
    for a in (0.2, 0.5, 0.9, 0.99, 1.0):
        out[f"ex4@{a!r}"] = mp_formula(
            lambda: mp.pi * mp.log((1 + mp.sqrt(1 - mp.mpf(a) ** 2)) / 2))
    return out


# item3_truths(), frozen
ITEM3_TRUTHS = {
    "ex1@1e+308.direct": 3.141592653589793e+154,
    "ex1@1e+16.deriv": 1.5707963267948965e-08,
    "ex4@0.01678878558050519.direct": -0.00022139833757077917,
}


# ex3_alpha_truths(), frozen
EX3_ALPHA_TRUTHS = {
    0.0: 1.2533141373155003,
    0.5: 0.9852946358134369,
    2.0: 0.6089455738656534,
}


# oscillatory_truths(), frozen
OSCILLATORY_TRUTHS = {
    'oscillatory.sinc': 1.5707963267948966,
    'oscillatory.sin_lorentz': 0.6467611227791301,
    'oscillatory.square_phase': 1.2533141373155003,
    'ex3_alpha@1.0.direct': 0.8066257758615741,
    'ex3_alpha@0.0.deriv': -0.6266570686577502,
    'ex3_alpha@0.5.deriv': -0.44063715670894876,
    'ex3_alpha@1.0.deriv': -0.28518527799578963,
    'ex3_alpha@2.0.deriv': -0.13616436977612204,
}


# catalog_truths(), frozen
CATALOG_TRUTHS = {
    'ex2@1.5': 2.5476124098392012,
    'ex2@2.0': 4.355172180607204,
    'ex2@5.0': 10.112396644223725,
    'ex4@0.2': -0.03189792046548456,
    'ex4@0.5': -0.21782692654113595,
    'ex4@0.9': -1.0410056441765132,
    'ex4@0.99': -1.7630086278355335,
    'ex4@1.0': -2.177586090303602,
}


# golden_truths(), frozen: the true values of the golden records in
# tests/test_golden_bits.py that run through the half-line kernel.
GOLDEN_TRUTHS = {
    'improper.exp': 1.0,
    'improper.gauss_full_line': 1.772453850905516,
    'improper.exp_lower_infinite': 1.0,
    'improper.exp_lorentz': 0.6214496242358134,
    'improper.lorentz_tight': 1.5707963267948966,
    'improper.divergent_tail': math.inf,
    'improper.gamma_half_singular': 1.772453850905516,
    'improper.gamma_half_singular_tight': 1.772453850905516,
    'improper.gamma_half_singular_loose': 1.772453850905516,
    'oscillatory.fallback': 2.5,
    'gauss@0.5.direct': 1.2533141373155003,
    'gauss@0.5.deriv': -1.2533141373155003,
    'gauss@1.0.direct': 0.886226925452758,
    'gauss@1.0.deriv': -0.443113462726379,
    'gauss@2.0.direct': 0.6266570686577502,
    'gauss@2.0.deriv': -0.15666426716443754,
    'ex1@0.25.direct': 1.5707963267948966,
    'ex1@0.25.deriv': 3.141592653589793,
    'ex1@1.0.direct': 3.141592653589793,
    'ex1@1.0.deriv': 1.5707963267948966,
    'ex1@4.0.direct': 6.283185307179586,
    'ex1@4.0.deriv': 0.7853981633974483,
    'ex3_beta@0.0.direct': 0.0,
    'ex3_beta@0.0.deriv': 0.886226925452758,
    'ex3_beta@0.5.direct': 0.43058954465393723,
    'ex3_beta@0.5.deriv': 0.8157205415526911,
    'ex3_beta@1.0.direct': 0.8066257758615741,
    'ex3_beta@1.0.deriv': 0.6884981659265768,
    'ex3_beta@2.0.direct': 1.3934170369008219,
    'ex3_beta@2.0.deriv': 0.5041430200010341,
}
