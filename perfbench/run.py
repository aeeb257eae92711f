#!/usr/bin/env python3
"""Run one paramint benchmark workload and print its metrics.

    python3 perfbench/run.py --workload nested_recon --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5

Run from the repository root; paramint is imported from ./src.  One
caller runs ops in a closed loop on one thread, whole passes over the
workload's ops in a seeded order, until --seconds have been spent.  Every
op's output is checked (see workloads.py).  With --trace 0 the end-to-end
metrics are printed; with --trace 1 untraced and traced passes alternate
and the per-layer metrics are printed.  The last line of output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Results, and
in a traced run every span, are also written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("verify_grid", "nested_recon", "sweep_scan")
SETUP_SAMPLES = 15  # at most, one per seconds/15 of the run
SETUP_MIN_SAMPLES = 5
MAX_REPORTED_PROBLEMS = 5

# A fresh interpreter imports the CLI and reports how long the import took.
_SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import paramint.cli
print(time.perf_counter() - t)
"""


def import_program() -> None:
    """Put ./src first on the path, or stop if paramint's sources are absent."""
    if not (SRC / "paramint" / "__init__.py").is_file():
        sys.exit(f"perfbench: no paramint sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import paramint

    if Path(paramint.__file__).resolve().parent != SRC / "paramint":
        sys.exit(f"perfbench: imported paramint from {paramint.__file__}, not {SRC}")


def import_seconds() -> float:
    """Time a fresh interpreter takes to import paramint.cli."""
    proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout)


@dataclasses.dataclass
class Tally:
    """Latencies and check outcomes of the ops run so far."""

    latencies_ns: dict = dataclasses.field(default_factory=dict)  # op -> every repeat
    attempted: int = 0
    failed: int = 0  # unexpected exceptions and non-zero exits
    not_ok: int = 0  # every op that raised, exited non-zero or failed its interchange
    err_max: float = 0.0
    claims: int = 0  # converged results with a closed form to compare against
    dishonest: int = 0
    problems: list = dataclasses.field(default_factory=list)

    def add(self, op, latency_ns: int, outcome) -> None:
        self.latencies_ns.setdefault(op, []).append(latency_ns)
        self.attempted += 1
        self.failed += outcome.unexpected
        self.not_ok += not outcome.ok
        if outcome.err is not None:
            self.err_max = max(self.err_max, outcome.err)
        if outcome.honest is not None:
            self.claims += 1
            self.dishonest += not outcome.honest
        if outcome.bad is not None and len(self.problems) < MAX_REPORTED_PROBLEMS:
            self.problems.append(outcome.bad)


def run_pass(wl, ops, problems, tally: Tally, tracer=None) -> int:
    """Run ops once; returns the summed op latency in ns."""
    clock = time.perf_counter_ns
    total = 0
    for op in ops:
        t0 = clock()
        try:
            res = wl.call(op, problems)
        except Exception as exc:  # recorded against the op; the run goes on
            lat = clock() - t0
            outcome = wl.outcome_of_exception(op, exc)
        else:
            lat = clock() - t0
            outcome = wl.check(op, res)
            if tracer is not None:
                tracer.bytes_out += wl.output_bytes(res)
        total += lat
        tally.add(op, lat, outcome)
    return total


def timed_loop(seconds: float, body) -> None:
    """Call body() until the next call would end past ``seconds``; at least once."""
    start = time.monotonic()
    n = 0
    while True:
        body()
        n += 1
        elapsed = time.monotonic() - start
        if elapsed + elapsed / n > seconds:
            return


def end_to_end(args, wl, order, tally: Tally) -> dict:
    ops = list(wl.ops)
    import_seconds()  # leaves the bytecode cache written
    # The host's speed changes within seconds, so set-up samples are spread
    # over the whole run rather than taken in one burst.
    setup: list[float] = []
    next_sample = time.monotonic()

    def one_pass():
        nonlocal next_sample
        if time.monotonic() >= next_sample:
            setup.append(import_seconds())
            next_sample += args.seconds / SETUP_SAMPLES
        order.shuffle(ops)
        run_pass(wl, ops, wl.problems, tally)

    timed_loop(args.seconds, one_pass)
    while len(setup) < SETUP_MIN_SAMPLES:  # runs too short to spread them
        setup.append(import_seconds())
    # Each op's time is its fastest repeat: on a shared host, interference
    # only ever adds time, and it drifts over tens of seconds.
    best_ms = [min(v) * 1e-6 for v in tally.latencies_ns.values()]
    n = tally.attempted
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(best_ms) / (sum(best_ms) * 1e-3), "1/s"),
        "op_ms_p50": (statistics.median(best_ms), "ms"),
        "op_ms_p90": (statistics.quantiles(best_ms, n=10, method="inclusive")[8], "ms"),
        "err_max": (tally.err_max, "abs_err"),
        "ok_frac": ((n - tally.not_ok) / n, "frac"),
        "honest_frac": ((tally.claims - tally.dishonest) / tally.claims if tally.claims else 1.0,
                        "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(args, wl, order, tally: Tally) -> tuple[dict, bool]:
    import spans

    plain_s, traced_s, summaries = [], [], []
    ops = list(wl.ops)
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"{args.workload}-seed{args.seed}-spans.tsv"
    with open(span_file, "w", encoding="utf-8") as fh:
        fh.write("pass\tid\tname\tstart_ns\tend_ns\tparent\n")

        def pair():
            order.shuffle(ops)
            plain_s.append(run_pass(wl, ops, wl.problems, tally) * 1e-9)
            tracer = spans.Tracer()
            with tracer.traced(wl.problems) as counted:
                traced_s.append(run_pass(wl, ops, counted, tally, tracer) * 1e-9)
            summaries.append(tracer.summary())
            for row in tracer.span_rows():
                fh.write("\t".join(map(str, (len(summaries), *row))) + "\n")

        timed_loop(args.seconds, pair)
    overhead = min(traced_s) / min(plain_s) - 1.0
    costs = spans.callable_costs(summaries[0]["calls_by_key"])
    return spans.per_layer_metrics(summaries, costs, overhead)


def run_all(args) -> int:
    """Each workload in its own interpreter, so peak RSS is its own."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, timeout=900).returncode)
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    import_program()
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    order = random.Random(f"order:{args.seed}")  # a stream apart from the workload's own
    warm = Tally()
    seen: set = set()
    run_pass(wl, [op for op in wl.ops if not (op.entry_id in seen or seen.add(op.entry_id))],
             wl.problems, warm)

    tally = Tally()
    if args.trace:
        metrics, counts_repeat = per_layer(args, wl, order, tally)
        if not counts_repeat:
            tally.problems.append("per-layer counts differ between traced passes")
    else:
        metrics = end_to_end(args, wl, order, tally)

    problems = warm.problems + tally.problems
    result = {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "distinct_ops": len(tally.latencies_ns),
              "problems": problems, **result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={tally.attempted} distinct={len(tally.latencies_ns)} failed={tally.failed} "
          f"correct={not problems}")
    for p in problems:
        print(f"  check failed: {p}")
    for k, (v, u) in metrics.items():
        note = (f"  (best of each op's repeats, over {len(tally.latencies_ns)} distinct ops)"
                if k.startswith("op") else "")
        print(f"  {k:<44} {v:>16.6g} {u}{note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
