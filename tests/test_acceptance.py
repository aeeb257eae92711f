"""Acceptance gate: eleven criteria, each printing one PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as
they execute.  Every tolerance here is a stated contract, not a guess;
tightening any of them is a library change, not a test change.
"""

import json
import math
import time

import pytest

from paramint import (
    DominationVerdict,
    DomainSpec,
    QuadStatus,
    deriv_under_integral,
    domination_scan,
    eval_direct,
    integrate_improper,
    integrate_oscillatory_improper,
    interchange_check,
    reconstruct,
)
from paramint import catalog
from paramint.cli import run as cli_run

from _identities import inner_sine_integral, realpart_cancellation_integral

# independent-oracle literal (mpmath formula evaluation, tests/_oracles.py)
EX3_AT_ONE = 0.80662577586157413  # sqrt(pi/2) * sqrt(sqrt(2) - 1)


def report(n: int, label: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else f"  <- {failures}"
    print(f"{status} criterion {n}: {label}{detail}")
    assert not failures, f"criterion {n}: {failures}"


def test_criterion_01_gauss_reference():
    failures = []
    for alpha in (0.5, 1.0, 2.0):
        res = integrate_improper(
            lambda x: math.exp(-alpha * x * x), DomainSpec.semi_infinite(0.0)
        )
        exact = 0.5 * math.sqrt(math.pi / alpha)
        if not abs(res.value - exact) <= 1e-9:
            failures.append((alpha, abs(res.value - exact)))
    report(1, "half-line Gaussian = (1/2)sqrt(pi/alpha), tol 1e-9", failures)


def test_criterion_02_ex1_direct_and_reconstruction():
    failures = []
    P = catalog.get("ex1").parametric
    direct = eval_direct(P, 1.0)
    if not abs(direct.value - math.pi) <= 1e-7:
        failures.append(("direct", abs(direct.value - math.pi)))
    recon = reconstruct(P, 1.0)
    if not abs(recon.value - math.pi) <= 1e-6:
        failures.append(("reconstruct", abs(recon.value - math.pi)))
    report(2, "ex1 at alpha=1: direct = pi (1e-7), rebuilt from anchor (1e-6)",
           failures)


def test_criterion_03_ex2_values_derivative_cancellation():
    failures = []
    P = catalog.get("ex2").parametric
    for alpha in (1.5, 2.0, 5.0):
        res = eval_direct(P, alpha)
        exact = 2.0 * math.pi * math.log(alpha)
        if not abs(res.value - exact) <= 1e-7:
            failures.append(("direct", alpha, abs(res.value - exact)))
    at_one = eval_direct(P, 1.0)
    if not abs(at_one.value) <= 1e-5:
        failures.append(("direct", 1.0, abs(at_one.value)))
    for alpha in (1.1, 1.5, 2.0, 5.0):
        res = deriv_under_integral(P, alpha)
        if not abs(res.value - 2.0 * math.pi / alpha) <= 1e-8:
            failures.append(("deriv", alpha, abs(res.value - 2.0 * math.pi / alpha)))
    for alpha in (1.1, 2.0, 10.0):
        v = realpart_cancellation_integral(alpha)
        if not abs(v) <= 1e-10:
            failures.append(("cancellation", alpha, abs(v)))
    report(3, "ex2: 2 pi ln(alpha) (1e-7), zero at alpha=1 (1e-5), "
              "derivative 2 pi/alpha (1e-8), cancellation (1e-10)", failures)


def test_criterion_04_ex3_both_parameterizations():
    failures = []
    Pb = catalog.get("ex3_beta").parametric
    for beta in (0.5, 1.0, 2.0):
        res = eval_direct(Pb, beta)
        exact = math.sqrt(math.pi / 2.0) * math.sqrt(math.sqrt(1.0 + beta * beta) - 1.0)
        if not abs(res.value - exact) <= 1e-7:
            failures.append(("beta", beta, abs(res.value - exact)))
    at_one = eval_direct(Pb, 1.0)
    if not abs(at_one.value - EX3_AT_ONE) <= 1e-7:
        failures.append(("beta-frozen", abs(at_one.value - EX3_AT_ONE)))
    Pa = catalog.get("ex3_alpha").parametric
    for alpha in (0.5, 1.0, 2.0):
        res = eval_direct(Pa, alpha)
        exact = Pa.solution_closed(alpha)
        if not abs(res.value - exact) <= 1e-7:
            failures.append(("alpha", alpha, abs(res.value - exact)))
    report(4, "ex3: both parameterizations meet closed forms (1e-7), "
              "frozen oracle value at 1", failures)


def test_criterion_05_oscillatory_limit():
    t0 = time.perf_counter()
    res = integrate_oscillatory_improper(
        lambda x: math.sin(x * x) / (x * x) if x != 0.0 else 1.0,
        DomainSpec.oscillatory(
            0.0, lambda k: math.sqrt(k * math.pi), lambda k: 0.5 * math.pi / math.sqrt(k * math.pi)),
    )
    elapsed = time.perf_counter() - t0
    failures = []
    err = abs(res.value - math.sqrt(2.0 * math.pi) / 2.0)
    if not err <= 1e-6:
        failures.append(("error", err))
    if not elapsed <= 5.0:
        failures.append(("runtime_s", elapsed))
    report(5, "sin(x^2)/x^2 over (0,inf) = sqrt(2 pi)/2 (1e-6, <= 5 s)", failures)


def test_criterion_06_ex4_values_and_inner_identity():
    failures = []
    P = catalog.get("ex4").parametric
    checks = [(0.2, 1e-7), (0.5, 1e-7), (0.9, 1e-7), (0.99, 1e-6), (1.0, 1e-5)]
    for alpha, tol in checks:
        res = eval_direct(P, alpha)
        exact = P.solution_closed(alpha)
        if not abs(res.value - exact) <= tol:
            failures.append(("direct", alpha, abs(res.value - exact)))
    for alpha in (0.0, 0.6, 0.99):
        v = inner_sine_integral(alpha)
        exact = math.pi / math.sqrt(1.0 - alpha * alpha)
        if not abs(v - exact) <= 1e-9:
            failures.append(("inner", alpha, abs(v - exact)))
    report(6, "ex4 closed forms (1e-7/1e-6/1e-5 by alpha), inner identity "
              "pi/sqrt(1-a^2) (1e-9)", failures)


def test_criterion_07_interchange_everywhere():
    failures = []
    for entry in catalog.entries():
        P = entry.parametric
        for alpha in entry.verification_grid:
            if not P.param_domain.is_interior(alpha):
                continue
            rep = interchange_check(P, alpha)
            if not rep.passed:
                failures.append((entry.id, alpha, rep.discrepancy))
    report(7, "interchange check passes at every interior grid point "
              "(h=1e-4, tol=1e-5)", failures)


def test_criterion_08_reconstruction_everywhere():
    failures = []
    for entry in catalog.entries():
        P = entry.parametric
        if P.anchor is None:
            continue  # no anchor registered -> nothing to rebuild from
        for alpha in entry.verification_grid:
            direct = eval_direct(P, alpha)
            recon = reconstruct(P, alpha)
            if not abs(recon.value - direct.value) <= 1e-6:
                failures.append((entry.id, alpha, abs(recon.value - direct.value)))
    # the additive constant fixed by the anchor: rebuilt value minus the
    # raw antiderivative pi*ln(1+sqrt(1-a^2)) must equal -pi*ln(2)
    P4 = catalog.get("ex4").parametric
    for alpha in (0.2, 0.5):
        recon = reconstruct(P4, alpha)
        anti = math.pi * math.log(1.0 + math.sqrt(1.0 - alpha * alpha))
        const = recon.value - anti
        if not abs(const - (-math.pi * math.log(2.0))) <= 1e-6:
            failures.append(("constant", alpha, const))
    report(8, "rebuilt = direct at every grid point of every anchored entry "
              "(1e-6); integration constant = -pi ln 2", failures)


def test_criterion_09_domination_verdicts():
    failures = []
    cases = [
        ("ex1", (0.5, 2.0), DominationVerdict.DOMINATED),
        ("ex3_beta", (0.0, 2.0), DominationVerdict.DOMINATED),
        ("ex4", (0.0, 0.9), DominationVerdict.DOMINATED),
        ("ex1", (0.0, 1.0), DominationVerdict.SUSPECT_DIVERGENT),
    ]
    for entry_id, window, expect in cases:
        rep = domination_scan(catalog.get(entry_id).parametric, window)
        if rep.verdict is not expect:
            failures.append((entry_id, window, rep.verdict.value))
        if expect is DominationVerdict.DOMINATED and not math.isfinite(
            rep.envelope_integral_estimate
        ):
            failures.append((entry_id, window, "estimate not finite"))
    report(9, "domination scans: three dominated windows, one flagged "
              "divergent", failures)


def test_criterion_10_error_estimate_honesty():
    failures = []
    comparisons = 0
    for entry in catalog.entries():
        P = entry.parametric
        for alpha in entry.verification_grid:
            res = eval_direct(P, alpha)
            if res.status is not QuadStatus.CONVERGED:
                continue
            true_err = abs(res.value - P.solution_closed(alpha))
            comparisons += 1
            if not true_err <= 10.0 * res.abs_err_est:
                failures.append((entry.id, alpha, true_err, res.abs_err_est))
    if comparisons < 20:
        failures.append(("too few converged comparisons", comparisons))
    report(10, "true error <= 10 x reported estimate on every converged "
               "closed-form comparison", failures)


def test_criterion_11_cli_contract(capsys, tmp_path):
    failures = []

    code = cli_run(["verify", "all", "--format", "json"])
    first = capsys.readouterr().out
    if code != 0:
        failures.append(("verify all exit", code))

    code = cli_run(["verify", "all", "--format", "json"])
    second = capsys.readouterr().out
    if first != second:
        failures.append("verify all JSON not byte-stable")
    try:
        doc = json.loads(first)
        if doc["overall_pass"] is not True:
            failures.append("verify all overall_pass false")
    except json.JSONDecodeError:
        failures.append("verify all output not JSON")

    code = cli_run(["eval", "ex2", "--alpha", "0.5"])
    capsys.readouterr()
    if code != 3:
        failures.append(("out-of-domain exit", code))

    sweep_args = ["sweep", "ex1", "--from", "0.25", "--to", "4", "--steps", "7",
                  "--format", "csv"]
    cli_run(sweep_args)
    csv_first = capsys.readouterr().out
    cli_run(sweep_args)
    csv_second = capsys.readouterr().out
    if csv_first != csv_second:
        failures.append("sweep CSV not byte-stable")
    if csv_first.splitlines()[0] != "alpha,direct,closed_form,abs_diff":
        failures.append("CSV header mismatch")

    with capsys.disabled():
        report(11, "CLI: verify all exits 0; domain violation exits 3; "
                   "JSON/CSV byte-stable across runs", failures)
