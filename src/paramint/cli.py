"""Command-line front end (installed as ``pil``).

Commands
--------
list         show catalog entries, parameter domains, anchors, grids
eval         direct quadrature of one entry at one parameter value
sweep        direct + closed-form comparison over a uniform parameter grid
reconstruct  rebuild the integral from its anchor at one parameter value
verify       full direct/reconstructed/closed-form comparison on the
             entry's verification grid (or `all` entries)

Exit codes: 0 = success / all checks passed, 1 = a verification check
failed, 2 = usage error (a missing required option, an unwritable --out
path, an --alpha, --from or --to that is not a finite number, and a
--tol-direct or --tol-recon that is not a finite positive number,
included), 3 = numeric error (domain violation, non-integrable
singularity, failed evaluation).

Reports are emitted as JSON, CSV, or a human text table.  JSON and CSV
are contractual: floats carry 17 significant digits and identical
invocations produce byte-identical output.  Text is for eyes only.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields, replace
from typing import Optional, Sequence

from . import __version__, catalog
# eval_direct and reconstruct are not called here; they stay importable from
# this module because perfbench/spans.py traces them under these names
from .engine import eval_direct, reconstruct, verify  # noqa: F401

__all__ = ["run", "main"]


class _UsageError(Exception):
    pass


class _NumericFailure(Exception):
    pass


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

def _emit_json(obj) -> str:
    """Compact JSON with floats at 17 significant digits.

    Non-finite floats become null; parsing the output and re-emitting it
    reproduces the same bytes.
    """
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return "null"
        return format(obj, ".17g")
    if isinstance(obj, dict):
        body = ",".join(f"{json.dumps(k)}:{_emit_json(v)}" for k, v in obj.items())
        return "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_emit_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _csv_cell(v) -> str:
    if v is None or (isinstance(v, float) and not math.isfinite(v)):
        return ""
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _emit_csv(results: list[dict]) -> str:
    lines = ["alpha,direct,closed_form,abs_diff"]
    for r in results:
        lines.append(
            ",".join(
                _csv_cell(r[k])
                for k in ("alpha", "direct", "closed_form", "disc_direct_closed")
            )
        )
    return "\n".join(lines)


def _fmt_text_num(v) -> str:
    if v is None or (isinstance(v, float) and not math.isfinite(v)):
        return "-"
    return format(v, ".12g")


def _emit_text_results(envelope: dict) -> str:
    header = (
        f"{'alpha':>10s} {'direct':>22s} {'reconstructed':>22s} "
        f"{'closed_form':>22s} {'d_closed':>10s} {'d_recon':>10s} pass"
    )
    lines = [f"entry: {envelope['entry_id']}", header]
    for r in envelope["results"]:
        lines.append(
            f"{_fmt_text_num(r['alpha']):>10s} {_fmt_text_num(r['direct']):>22s} "
            f"{_fmt_text_num(r['reconstructed']):>22s} {_fmt_text_num(r['closed_form']):>22s} "
            f"{_fmt_text_num(r['disc_direct_closed']):>10s} "
            f"{_fmt_text_num(r['disc_recon_direct']):>10s} "
            f"{'yes' if r['pass'] else 'NO'}"
        )
    lines.append(f"overall: {'pass' if envelope['overall_pass'] else 'FAIL'}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# result rows, all built by engine.verify
# ---------------------------------------------------------------------------

def _echo(ns) -> dict:
    """The row command's options as its report echoes them under "inputs"."""
    return {key: getattr(ns, dest) for _, dest, key, _ in _OPTIONS[ns.command]}


def _entry_report(ns, entry_id: str) -> dict:
    """One entry's envelope for the row command ``ns.command``.

    Tolerances the user left unset are not passed, so engine.verify's
    defaults apply.  A point whose direct value or (on an anchored problem)
    reconstruction failed aborts the command as a numeric failure.
    """
    alphas = [getattr(ns, "alpha", None)]
    if ns.command == "sweep":
        if ns.steps < 2:
            raise _UsageError("sweep requires --steps >= 2")
        if not ns.from_ < ns.to:
            raise _UsageError("sweep requires --from < --to")
        span = ns.to - ns.from_
        alphas = [ns.from_ + span * i / (ns.steps - 1) for i in range(ns.steps)]
    entry = catalog.get(entry_id)
    P = entry.parametric
    if ns.command == "verify":
        alphas = sorted(entry.verification_grid)
    elif ns.command != "reconstruct":
        P = replace(P, anchor=None)  # eval, sweep: so that verify() does not reconstruct
    elif P.anchor is None:
        raise _UsageError(
            f"entry {entry.id!r} has no anchor; reconstruction is undefined for it"
        )
    tols = {}
    if ns.tol_direct is not None:
        tols["tol_direct"] = ns.tol_direct
    if getattr(ns, "tol_recon", None) is not None:
        tols["tol_reconstruct"] = ns.tol_recon
    rows = []
    for p in verify(P, alphas, **tols).points:
        if math.isnan(p.direct) or (P.anchor is not None and p.reconstructed is None):
            raise _NumericFailure(f"entry {entry.id!r} at alpha={p.alpha!r}: {p.note}")
        # the row's keys are VerificationPoint's fields in order (a JSON
        # contract), "passed" printed as "pass" and the note left out
        rows.append({
            "pass" if f.name == "passed" else f.name: getattr(p, f.name)
            for f in fields(p)
            if f.name != "note"
        })
    return {
        "tool_version": __version__,
        "entry_id": entry.id,
        "inputs": {"command": ns.command, "id": entry.id, **_echo(ns)},
        "results": rows,
        "overall_pass": all(r["pass"] for r in rows),
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_list(ns) -> tuple[str, int]:
    metas = [catalog.entry_metadata(e) for e in catalog.entries()]
    if ns.format == "json":
        return _emit_json({"tool_version": __version__, "entries": metas}), 0
    if ns.format == "csv":
        raise _UsageError("csv format is not defined for `list`; use json or text")
    def bound(v: float) -> str:
        return format(v, ".12g") if math.isfinite(v) else ("inf" if v > 0 else "-inf")

    lines = []
    for m in metas:
        pd = m["param_domain"]
        lb = "(" if pd["lo_open"] else "["
        rb = ")" if pd["hi_open"] or math.isinf(pd["hi"]) else "]"
        anchor = (
            "none"
            if m["anchor"] is None
            else f"({_fmt_text_num(m['anchor']['alpha0'])}, {_fmt_text_num(m['anchor']['value0'])})"
        )
        lines.append(
            f"{m['id']:<10s} {m['title']:<42s} alpha in {lb}{bound(pd['lo'])}, "
            f"{bound(pd['hi'])}{rb}  anchor {anchor}  grid {m['verification_grid']}"
        )
    return "\n".join(lines), 0


def _cmd_rows(ns) -> tuple[str, int]:
    """eval, sweep, reconstruct and verify: one entry's report, or, for
    ``verify all``, every entry's; exit code 1 if any row failed."""
    if ns.command == "verify" and ns.id == "all":
        if ns.format == "csv":
            raise _UsageError("csv format covers a single entry; run verify per id or use json")
        envs = [_entry_report(ns, e.id) for e in catalog.entries()]
        overall = all(e["overall_pass"] for e in envs)
        doc = {
            "tool_version": __version__,
            "command": "verify",
            "inputs": {"id": "all", **_echo(ns)},
            "reports": envs,
            "overall_pass": overall,
        }
        tail = f"\n\noverall: {'pass' if overall else 'FAIL'}"
    else:
        doc = _entry_report(ns, ns.id)
        envs, tail = [doc], ""
    if ns.format == "json":
        text = _emit_json(doc)
    elif ns.format == "csv":
        text = _emit_csv(doc["results"])
    else:
        text = "\n\n".join(_emit_text_results(e) for e in envs) + tail
    return text, 0 if doc["overall_pass"] else 1


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------

def _finite(text: str, positive: bool = False) -> float:
    """A parameter value (--alpha, --from, --to): a finite number; with
    ``positive``, a finite positive one.  JSON prints a non-finite float as
    null, so an infinite value would read exactly like an unset option."""
    try:
        v = float(text)
    except ValueError:
        v = math.nan
    if not (math.isfinite(v) and (v > 0 or not positive)):
        kind = "finite positive" if positive else "finite"
        raise argparse.ArgumentTypeError(f"must be a {kind} number, got {text!r}")
    return v


def _tolerance(text: str) -> float:
    """A gate tolerance: a finite positive number, the rule QuadConfig
    applies to its own tolerances."""
    return _finite(text, positive=True)


# Each row command's options, in the order its report echoes them under
# "inputs": (flag, dest, JSON key, type).  All take a number; every one but a
# tolerance is required.
_ALPHA = ("--alpha", "alpha", "alpha", _finite)
_TOL_DIRECT = ("--tol-direct", "tol_direct", "tol_direct", _tolerance)
_TOL_RECON = ("--tol-recon", "tol_recon", "tol_recon", _tolerance)
_OPTIONS = {
    "eval": (_ALPHA, _TOL_DIRECT),
    "sweep": (
        ("--from", "from_", "from", _finite),
        ("--to", "to", "to", _finite),
        ("--steps", "steps", "steps", int),
        _TOL_DIRECT,
    ),
    "reconstruct": (_ALPHA, _TOL_DIRECT, _TOL_RECON),
    "verify": (_TOL_DIRECT, _TOL_RECON),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pil",
        description="evaluate, differentiate, and reconstruct parametric integrals",
    )
    parser.add_argument("--version", action="version", version=f"pil {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, hlp in (
        ("list", "show catalog entries"),
        ("eval", "direct quadrature at one parameter value"),
        ("sweep", "direct + closed-form comparison over a uniform grid"),
        ("reconstruct", "rebuild the integral from its anchor"),
        ("verify", "run the entry's verification grid"),
    ):
        p = sub.add_parser(name, help=hlp)
        if name == "verify":
            p.add_argument("id", nargs="?", default="all", help="entry id or 'all'")
        elif name != "list":
            p.add_argument("id", help="catalog entry id")
        for flag, dest, _, typ in _OPTIONS.get(name, ()):
            p.add_argument(flag, dest=dest, type=typ, required=typ is not _tolerance)
        p.add_argument(
            "--format", choices=("json", "csv", "text"), default="text",
            help="report format (json and csv are stable contracts)",
        )
        p.add_argument("--out", default=None, help="write the report to this path")

    return parser


def _join_numbers(argv: Sequence[str]) -> list[str]:
    """``argv`` with each table option of its command joined to a following
    token that parses as a float, as ``--from=-1e-3``: argparse reads -1e-3 or
    -inf as an option, and the option as missing its value.  As in argparse, a
    ``--`` prefix of one long option only (--format, --out, --help too) means it."""
    command = next((tok for tok in argv if not tok.startswith("-")), "")
    flags = {flag for flag, *_ in _OPTIONS.get(command, ())}
    long_options = (*flags, "--format", "--out", "--help")
    joined: list[str] = []
    for prev, tok in zip(["", *argv], argv):
        joined.append(tok)
        if prev not in flags:
            if not prev.startswith("--"):
                continue
            meant = [flag for flag in long_options if flag.startswith(prev)]
            if len(meant) != 1 or meant[0] not in flags:
                continue
        try:
            float(tok)
        except ValueError:
            continue
        joined[-2:] = [f"{prev}={tok}"]
    return joined


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments, execute, print the report; returns the exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(_join_numbers(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse prints its own message
        return int(exc.code) if exc.code else 0

    try:
        text, code = (_cmd_list if ns.command == "list" else _cmd_rows)(ns)
    except (catalog.UnknownEntryError, _UsageError) as exc:
        print(f"pil: {exc}", file=sys.stderr)
        return 2
    except _NumericFailure as exc:
        print(f"pil: numeric failure: {exc}", file=sys.stderr)
        return 3

    out = getattr(ns, "out", None)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"pil: cannot write report to {out!r}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        print(text)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
