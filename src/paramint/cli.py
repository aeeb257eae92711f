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
failed, 2 = usage error (an unwritable --out path, or a --tol-direct or
--tol-recon that is not a finite positive number, included), 3 = numeric
error (domain violation, non-integrable singularity, failed evaluation).

Reports are emitted as JSON, CSV, or a human text table.  JSON and CSV
are contractual: floats carry 17 significant digits and identical
invocations produce byte-identical output.  Text is for eyes only.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from typing import Optional, Sequence

from . import __version__, catalog
# eval_direct and reconstruct are not called here; they stay importable from
# this module because perfbench/spans.py traces them under these names
from .engine import ParametricIntegral, eval_direct, reconstruct, verify  # noqa: F401

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

def _rows(
    entry_id: str, P: ParametricIntegral, alphas: list[float], ns
) -> list[dict]:
    """Verify ``P`` at ``alphas`` and map each point onto a report row.

    Tolerances the user left unset are not passed, so engine.verify's
    defaults apply.  A point whose direct value or (on an anchored problem)
    reconstruction failed aborts the command as a numeric failure.
    """
    tols = {}
    if ns.tol_direct is not None:
        tols["tol_direct"] = ns.tol_direct
    if getattr(ns, "tol_recon", None) is not None:
        tols["tol_reconstruct"] = ns.tol_recon
    rows = []
    for p in verify(P, alphas, **tols).points:
        if math.isnan(p.direct) or (P.anchor is not None and p.reconstructed is None):
            raise _NumericFailure(f"entry {entry_id!r} at alpha={p.alpha!r}: {p.note}")
        rows.append({
            "alpha": p.alpha,
            "direct": p.direct,
            "direct_err_est": p.direct_err_est,
            "reconstructed": p.reconstructed,
            "closed_form": p.closed_form,
            "disc_direct_closed": p.disc_direct_closed,
            "disc_recon_direct": p.disc_recon_direct,
            "pass": p.passed,
        })
    return rows


def _direct_only(entry: catalog.CatalogEntry) -> ParametricIntegral:
    """The entry's problem without its anchor, so verify() does not reconstruct."""
    return replace(entry.parametric, anchor=None)


def _envelope(entry_id: str, inputs: dict, results: list[dict]) -> dict:
    return {
        "tool_version": __version__,
        "entry_id": entry_id,
        "inputs": inputs,
        "results": results,
        "overall_pass": all(r["pass"] for r in results),
    }


def _report(envelope: dict, fmt: str) -> tuple[str, int]:
    """Render one entry's envelope; exit code 1 if any row failed."""
    if fmt == "json":
        text = _emit_json(envelope)
    elif fmt == "csv":
        text = _emit_csv(envelope["results"])
    else:
        text = _emit_text_results(envelope)
    return text, 0 if envelope["overall_pass"] else 1


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


def _cmd_eval(ns) -> tuple[str, int]:
    if ns.alpha is None:
        raise _UsageError("eval requires --alpha")
    entry = catalog.get(ns.id)
    rows = _rows(entry.id, _direct_only(entry), [ns.alpha], ns)
    inputs = {
        "command": "eval",
        "id": entry.id,
        "alpha": ns.alpha,
        "tol_direct": ns.tol_direct,
    }
    return _report(_envelope(entry.id, inputs, rows), ns.format)


def _cmd_sweep(ns) -> tuple[str, int]:
    if ns.from_ is None or ns.to is None or ns.steps is None:
        raise _UsageError("sweep requires --from, --to and --steps")
    if ns.steps < 2:
        raise _UsageError("sweep requires --steps >= 2")
    if not ns.from_ < ns.to:
        raise _UsageError("sweep requires --from < --to")
    entry = catalog.get(ns.id)
    span = ns.to - ns.from_
    alphas = [ns.from_ + span * i / (ns.steps - 1) for i in range(ns.steps)]
    rows = _rows(entry.id, _direct_only(entry), alphas, ns)
    inputs = {
        "command": "sweep",
        "id": entry.id,
        "from": ns.from_,
        "to": ns.to,
        "steps": ns.steps,
        "tol_direct": ns.tol_direct,
    }
    return _report(_envelope(entry.id, inputs, rows), ns.format)


def _cmd_reconstruct(ns) -> tuple[str, int]:
    if ns.alpha is None:
        raise _UsageError("reconstruct requires --alpha")
    entry = catalog.get(ns.id)
    if entry.parametric.anchor is None:
        raise _UsageError(
            f"entry {entry.id!r} has no anchor; reconstruction is undefined for it"
        )
    rows = _rows(entry.id, entry.parametric, [ns.alpha], ns)
    inputs = {
        "command": "reconstruct",
        "id": entry.id,
        "alpha": ns.alpha,
        "tol_direct": ns.tol_direct,
        "tol_recon": ns.tol_recon,
    }
    return _report(_envelope(entry.id, inputs, rows), ns.format)


def _verify_entry(entry: catalog.CatalogEntry, ns) -> dict:
    rows = _rows(entry.id, entry.parametric, sorted(entry.verification_grid), ns)
    inputs = {
        "command": "verify",
        "id": entry.id,
        "tol_direct": ns.tol_direct,
        "tol_recon": ns.tol_recon,
    }
    return _envelope(entry.id, inputs, rows)


def _cmd_verify(ns) -> tuple[str, int]:
    if ns.id != "all":
        return _report(_verify_entry(catalog.get(ns.id), ns), ns.format)
    if ns.format == "csv":
        raise _UsageError("csv format covers a single entry; run verify per id or use json")
    envs = [_verify_entry(e, ns) for e in catalog.entries()]
    overall = all(e["overall_pass"] for e in envs)
    if ns.format == "json":
        doc = {
            "tool_version": __version__,
            "command": "verify",
            "inputs": {
                "id": "all",
                "tol_direct": ns.tol_direct,
                "tol_recon": ns.tol_recon,
            },
            "reports": envs,
            "overall_pass": overall,
        }
        text = _emit_json(doc)
    else:
        text = "\n\n".join(_emit_text_results(e) for e in envs)
        text += f"\n\noverall: {'pass' if overall else 'FAIL'}"
    return text, 0 if overall else 1


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------

def _tolerance(text: str) -> float:
    """A gate tolerance: a finite positive number, the rule QuadConfig
    applies to its own tolerances."""
    try:
        v = float(text)
    except ValueError:
        v = math.nan
    if not (v > 0 and math.isfinite(v)):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}")
    return v


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pil",
        description="evaluate, differentiate, and reconstruct parametric integrals",
    )
    parser.add_argument("--version", action="version", version=f"pil {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format", choices=("json", "csv", "text"), default="text",
            help="report format (json and csv are stable contracts)",
        )
        p.add_argument("--out", default=None, help="write the report to this path")

    p_list = sub.add_parser("list", help="show catalog entries")
    add_common(p_list)

    for name, hlp in (
        ("eval", "direct quadrature at one parameter value"),
        ("sweep", "direct + closed-form comparison over a uniform grid"),
        ("reconstruct", "rebuild the integral from its anchor"),
    ):
        p = sub.add_parser(name, help=hlp)
        p.add_argument("id", help="catalog entry id")
        if name == "sweep":
            p.add_argument("--from", dest="from_", type=float, default=None)
            p.add_argument("--to", type=float, default=None)
            p.add_argument("--steps", type=int, default=None)
        else:
            p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--tol-direct", dest="tol_direct", type=_tolerance, default=None)
        if name == "reconstruct":
            p.add_argument("--tol-recon", dest="tol_recon", type=_tolerance, default=None)
        add_common(p)

    p_verify = sub.add_parser("verify", help="run the entry's verification grid")
    p_verify.add_argument("id", nargs="?", default="all", help="entry id or 'all'")
    p_verify.add_argument("--tol-direct", dest="tol_direct", type=_tolerance, default=None)
    p_verify.add_argument("--tol-recon", dest="tol_recon", type=_tolerance, default=None)
    add_common(p_verify)

    return parser


_HANDLERS = {
    "list": _cmd_list,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "reconstruct": _cmd_reconstruct,
    "verify": _cmd_verify,
}


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments, execute, print the report; returns the exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        return int(exc.code) if exc.code else 0

    try:
        text, code = _HANDLERS[ns.command](ns)
    except catalog.UnknownEntryError as exc:
        print(f"pil: {exc}", file=sys.stderr)
        return 2
    except _UsageError as exc:
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
