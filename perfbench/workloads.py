"""The benchmark's workloads: the ops each one runs, built from a seed, and
the checks every op's output must pass.

An op is one top-level call into paramint.  Ops call module attributes
(``engine.eval_direct``, ``cli.run``) at call time, so the wrappers that
``spans.traced`` installs for a traced pass are the functions that run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
from typing import Any, Callable, Optional

from paramint import catalog, cli, engine
from paramint.quadrature import QuadResult, QuadStatus

# The CLI's published default gates: |direct - closed form| and
# |reconstructed - closed form| must stay inside them.
TOL_DIRECT = 1e-7
TOL_RECON = 1e-6

# Ops the program refuses today.  The refusal is counted as a failed op in
# ok_frac, so that a fix shows as a gain; any other exception, or this one
# elsewhere, is unexpected and counted in `failed`.
KNOWN_REFUSALS = {
    # ROADMAP item 3: the endpoint-growth probe misreads the steep but
    # integrable rhs near alpha = 1 as a non-integrable singularity.
    ("reconstruct", "ex4", 1.0): "NonIntegrableSingularityError",
}

# sweep_scan draws alpha from the hull of each entry's verification grid.
# ex4 stops at 0.99 because d f/d alpha is not integrable at alpha = 1.
SWEEP_RANGES = {
    "gauss": (0.5, 2.0),
    "ex1": (0.25, 4.0),
    "ex2": (1.0, 5.0),
    "ex3_beta": (0.0, 2.0),
    "ex3_alpha": (0.0, 2.0),
    "ex4": (0.0, 0.99),
}
SWEEP_STRATA = 14  # seeded alpha values per entry, one per equal-width stratum
FD_STEP = 1e-4  # interchange_check's default step; alpha +/- FD_STEP must be valid

# The four windows of scripts/error_honesty_audit.py (verdicts as in the
# acceptance suite), then one window for each remaining entry.
DOMINATION_WINDOWS = (
    ("ex1", (0.5, 2.0), "dominated"),
    ("ex3_beta", (0.0, 2.0), "dominated"),
    ("ex4", (0.0, 0.9), "dominated"),
    ("ex1", (0.0, 1.0), "suspect_divergent"),
    ("gauss", (0.5, 2.0), "dominated"),
    ("ex2", (1.5, 5.0), "dominated"),
    ("ex3_alpha", (0.5, 2.0), "dominated"),
    ("ex3_alpha", (0.0, 2.0), "suspect_divergent"),
)


@dataclasses.dataclass(frozen=True)
class Op:
    kind: str  # verify | reconstruct | eval_direct | deriv | interchange | domination
    entry_id: str
    arg: Any = None  # alpha, or a domination window

    def label(self) -> str:
        return f"{self.kind}({self.entry_id}, {self.arg!r})"


@dataclasses.dataclass
class Outcome:
    """What the checks made of one op's output."""

    ok: bool = True  # returned, exit code 0, interchange passed
    unexpected: bool = False  # raised something not in KNOWN_REFUSALS
    bad: Optional[str] = None  # an output that failed its check
    err: Optional[float] = None  # |value - closed form|, where one exists
    honest: Optional[bool] = None  # converged and err <= abs_err_est


@dataclasses.dataclass
class Workload:
    name: str
    ops: list[Op]
    problems: dict  # entry id -> ParametricIntegral the ops run on
    call: Callable[[Op, dict], Any]
    check: Callable[[Op, Any], Outcome]
    output_bytes: Callable[[Any], int] = lambda res: 0

    def outcome_of_exception(self, op: Op, exc: Exception) -> Outcome:
        expected = KNOWN_REFUSALS.get((op.kind, op.entry_id, op.arg))
        unexpected = type(exc).__name__ != expected
        return Outcome(ok=False, unexpected=unexpected,
                       bad=f"{op.label()} raised {type(exc).__name__}: {exc}"
                       if unexpected else None)


def _closed(entry_id: str, alpha: float) -> float:
    return catalog.get(entry_id).parametric.solution_closed(alpha)


def _quad_outcome(res: QuadResult, ref: Optional[float], gate: float,
                  op: Op) -> Outcome:
    if ref is None:
        return Outcome()
    err = abs(res.value - ref)
    honest = err <= res.abs_err_est if res.status is QuadStatus.CONVERGED else None
    bad = None if err <= gate else f"{op.label()}: |value - closed| = {err:.3e} > {gate:g}"
    return Outcome(err=err, honest=honest, bad=bad)


# ---------------------------------------------------------------------------
# verify_grid: the user-facing gate, through the CLI and its serializer
# ---------------------------------------------------------------------------

def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


class _VerifyChecker:
    """The first output of each entry is the reference the rest must match
    byte for byte; its rows are checked against the catalog closed forms."""

    def __init__(self):
        self.reference: dict[str, str] = {}
        self.verdict: dict[str, Outcome] = {}

    def __call__(self, op: Op, result: tuple[int, str]) -> Outcome:
        code, text = result
        if code != 0:
            return Outcome(ok=False, unexpected=True,
                           bad=f"{op.label()} exited {code}")
        ref = self.reference.setdefault(op.entry_id, text)
        if text != ref:
            return Outcome(bad=f"{op.label()}: output differs from the first pass")
        if op.entry_id not in self.verdict:
            self.verdict[op.entry_id] = self._check_report(op, text)
        return self.verdict[op.entry_id]

    @staticmethod
    def _check_report(op: Op, text: str) -> Outcome:
        doc = json.loads(text)
        if doc["overall_pass"] is not True:
            return Outcome(bad=f"{op.label()}: overall_pass is not true")
        errs, honest = [], True
        for row in doc["results"]:
            closed = _closed(op.entry_id, row["alpha"])
            d = abs(row["direct"] - closed)
            errs.append(d)
            # the report carries no status, so every estimate counts as a claim
            honest = honest and d <= row["direct_err_est"]
            if not d <= TOL_DIRECT:
                return Outcome(bad=f"{op.label()} alpha={row['alpha']}: direct off by {d:.3e}")
            if row["reconstructed"] is not None:
                r = abs(row["reconstructed"] - closed)
                errs.append(r)
                if not r <= TOL_RECON:
                    return Outcome(bad=f"{op.label()} alpha={row['alpha']}: "
                                       f"reconstruction off by {r:.3e}")
        return Outcome(err=max(errs), honest=honest)


def verify_grid(seed: int) -> Workload:
    ops = [Op("verify", e.id) for e in catalog.entries()]
    return Workload(
        "verify_grid", ops, {},
        call=lambda op, problems: run_cli(["verify", op.entry_id, "--format", "json"]),
        check=_VerifyChecker(),
        output_bytes=lambda res: len(res[1].encode()),
    )


# ---------------------------------------------------------------------------
# nested_recon: reconstruction through the numeric rhs (nested quadrature)
# ---------------------------------------------------------------------------

def nested_recon(seed: int) -> Workload:
    ops, problems = [], {}
    for e in catalog.entries():
        P = e.parametric
        if P.anchor is None:
            continue
        problems[e.id] = dataclasses.replace(P, rhs_closed=None)
        ops += [Op("reconstruct", e.id, a) for a in e.verification_grid
                if a != P.anchor.alpha0]

    def call(op, problems):
        return engine.reconstruct(problems[op.entry_id], op.arg)

    def check(op, res):
        return _quad_outcome(res, _closed(op.entry_id, op.arg), TOL_RECON, op)

    return Workload("nested_recon", ops, problems, call, check)


# ---------------------------------------------------------------------------
# sweep_scan: flat single-level work across the parameter ranges
# ---------------------------------------------------------------------------

def sweep_alphas(entry_id: str, rng: random.Random) -> list[float]:
    """Both range ends plus one seeded alpha in each stratum between them."""
    lo, hi = SWEEP_RANGES[entry_id]
    w = (hi - lo) / SWEEP_STRATA
    return [lo, hi] + [lo + w * (i + rng.random()) for i in range(SWEEP_STRATA)]


def _rhs_reference(entry_id: str, alpha: float) -> Optional[float]:
    try:
        return catalog.rhs_closed_form(entry_id, alpha)
    except ValueError:  # no closed-form rhs, or outside its validity window
        return None


def sweep_scan(seed: int) -> Workload:
    rng = random.Random(seed)
    ops, problems = [], {}
    for e in catalog.entries():
        P = problems[e.id] = e.parametric
        for a in sweep_alphas(e.id, rng):
            ops += [Op("eval_direct", e.id, a), Op("deriv", e.id, a)]
            if P.param_domain.contains(a - FD_STEP) and P.param_domain.contains(a + FD_STEP):
                ops.append(Op("interchange", e.id, a))
    ops += [Op("domination", entry_id, window) for entry_id, window, _ in DOMINATION_WINDOWS]
    expected = {(entry_id, window): verdict for entry_id, window, verdict in DOMINATION_WINDOWS}

    def call(op, problems):
        P = problems[op.entry_id]
        if op.kind == "eval_direct":
            return engine.eval_direct(P, op.arg)
        if op.kind == "deriv":
            return engine.deriv_under_integral(P, op.arg)
        if op.kind == "interchange":
            return engine.interchange_check(P, op.arg)
        return engine.domination_scan(P, op.arg)

    def check(op, res):
        if op.kind == "eval_direct":
            return _quad_outcome(res, _closed(op.entry_id, op.arg), TOL_DIRECT, op)
        if op.kind == "deriv":
            return _quad_outcome(res, _rhs_reference(op.entry_id, op.arg), TOL_DIRECT, op)
        if op.kind == "interchange":
            return Outcome(ok=res.passed)
        want = expected[(op.entry_id, op.arg)]
        if res.verdict.value != want:
            return Outcome(bad=f"{op.label()}: verdict {res.verdict.value}, expected {want}")
        return Outcome()

    return Workload("sweep_scan", ops, problems, call, check)


WORKLOADS = {
    "verify_grid": verify_grid,
    "nested_recon": nested_recon,
    "sweep_scan": sweep_scan,
}
