#!/usr/bin/env python3
"""Benchmark of gravcat-coding's closed-form, optimizer, numeric-oracle and CLI layers.

Run from the repository root (the program is imported from ``./src``):

    python3 perfbench/run.py --workload figures-closed --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds.
``--trace 1`` runs a fixed number of ops twice, plain and then with every
traced function wrapped, and reports the per-layer metrics.  Every op's
output is checked outside the timed region.  The last line printed is the
result object; the line before it holds the run facts.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
MIN_OPS = 30        # so the tail percentile is at least the 66th
TAIL_BEYOND = 10
SETUP_PROBES = 5
YARDSTICK_WINDOW = 11  # yardstick times averaged around each op
MAX_REPORTED_FAILURES = 20


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND values beyond it."""
    ordered = sorted(values)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


class Tally:
    """Times and failures of a sequence of checked ops."""

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self.stages: list[tuple[float, ...]] = []
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.yardstick: list[float] = []

    def fail(self, message: str) -> None:
        if len(self.messages) < MAX_REPORTED_FAILURES:
            self.messages.append(message)
            print(f"perfbench: FAILED {message}", file=sys.stderr)

    def run(self, wl, i: int, runner) -> None:
        """Time the yardstick task and then one op; then, untimed, check the op's output."""
        inp = wl.inputs(i)
        self.attempted += 1
        try:
            t0 = perf_counter()
            wl.yardstick()
            t1 = perf_counter()
            out = runner(inp, i)
            t2 = perf_counter()
            fails = wl.check(inp, out, i)
        except Exception as exc:  # an op that raises counts as failed; the run goes on
            self.failed += 1
            self.fail(f"op {i}: {type(exc).__name__}: {exc}")
            return
        self.seconds.append(t2 - t1)
        self.yardstick.append(t1 - t0)
        self.stages.append(wl.stage_seconds(out))
        if fails:
            self.failed += 1
            for message in fails:
                self.fail(f"op {i}: {message}")


def relative(op_s: list[float], yardstick_s: list[float]) -> list[float]:
    """Each op's time over the mean yardstick time of the ops around it.

    The yardstick task is short and the machine's speed can flip within a
    second, so one sample catches one speed; the mean of YARDSTICK_WINDOW
    samples tracks the speed the op actually ran at.
    """
    h = YARDSTICK_WINDOW // 2
    return [op / statistics.fmean(yardstick_s[max(0, i - h): i + h + 1])
            for i, op in enumerate(op_s)]


def probe_setup(workload: str, seed: int) -> float:
    """Set-up seconds of one fresh interpreter (import, inputs, one warm-up op)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
        capture_output=True, text=True, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def untraced(wl, seconds: float) -> tuple[Tally, dict, dict]:
    from workloads import output_dir

    setup = [probe_setup(wl.name, wl.seed) for _ in range(SETUP_PROBES)]
    tally = Tally()
    tally.run(wl, 0, lambda inp, i: wl.op(inp))  # warm-up, checked but not reported
    tally.seconds.clear()
    tally.yardstick.clear()
    tally.stages.clear()
    start = perf_counter()
    i = 1
    while perf_counter() - start < seconds or len(tally.seconds) < MIN_OPS:
        tally.run(wl, i, lambda inp, i: wl.op(inp))
        i += 1
        if tally.attempted > 10 * MIN_OPS and not tally.seconds:
            break  # every op fails: stop early, the result reports it
    if not tally.seconds:
        raise SystemExit("perfbench: no op completed")
    op_ms = [1000.0 * s for s in tally.seconds]
    rel = relative(tally.seconds, tally.yardstick)
    tail_ms, tail_pct = tail(op_ms)
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "op_rel_p50": {"value": statistics.median(rel), "unit": "ratio"},
        "op_rel_tail": {"value": tail(rel)[0], "unit": "ratio"},
        "peak_rss_mb": {"value": wl.peak_rss_mb(), "unit": "MB"},
    }
    facts = {
        "setup_samples_s": setup,
        "ops": len(op_ms),
        "tail_percentile": tail_pct,
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_tail": tail_ms,
        "yardstick_ms_p50": 1000.0 * statistics.median(tally.yardstick),
        "named": wl.named_rates(tally.seconds, tally.stages),
    }
    record = output_dir(wl.root, "runs") / f"{wl.name}-seed{wl.seed}.json"
    record.write_text(json.dumps({"op_s": tally.seconds, "yardstick_s": tally.yardstick,
                                  "stages_s": tally.stages, "setup_s": setup}))
    return tally, metrics, facts


def traced(wl) -> tuple[Tally, dict, dict]:
    from tracing import Recorder, per_layer_metrics

    tally = Tally()
    tally.run(wl, 0, lambda inp, i: wl.op(inp))  # warm-up
    ops = range(1, 1 + wl.trace_ops)
    plain = Tally()
    for i in ops:
        plain.run(wl, i, lambda inp, i: wl.op(inp))
    rec = Recorder()
    rec.install()
    try:
        spans = Tally()
        runner = wl.traced_runner(rec)
        for i in ops:
            spans.run(wl, i, runner)
    finally:
        rec.uninstall()
    totals, counters, cli = wl.trace_summary(rec)
    metrics = {
        name: {"value": value, "unit": _layer_unit(name)}
        for name, value in per_layer_metrics(totals, counters, cli).items()
    }
    overhead = sum(spans.seconds) / sum(plain.seconds) if plain.seconds else 0.0
    metrics["trace_overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    for part in (plain, spans):
        tally.attempted += part.attempted
        tally.failed += part.failed
        tally.messages += part.messages
    facts = {"trace_ops": wl.trace_ops, "plain_s": sum(plain.seconds),
             "traced_s": sum(spans.seconds)}
    return tally, metrics, facts


def _layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_per_point"):
        return "evals/point"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gravcat_coding" / "__init__.py").is_file():
        print("perfbench: ./src/gravcat_coding not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import numpy
    import gravcat_coding
    from workloads import WORKLOADS, affinity_count, make

    if Path(gravcat_coding.__file__).resolve().parent != (root / "src" / "gravcat_coding").resolve():
        print(f"perfbench: imported gravcat_coding from {gravcat_coding.__file__}, not ./src",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    wl = make(args.workload, args.seed, root)
    if args.trace:
        tally, metrics, facts = traced(wl)
    else:
        tally, metrics, facts = untraced(wl, args.seconds)
    facts.update({
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "cpu_affinity": affinity_count(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "item": wl.item,
        "items_per_op": wl.items_per_op,
        "attempted": tally.attempted,
        "error_rate": tally.failed / tally.attempted,
        "failures": tally.messages,
    })
    print(json.dumps({"facts": facts}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
