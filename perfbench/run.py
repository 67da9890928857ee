"""The thhcalc benchmark.

Usage, from the root of a checkout (no install needed; children get
``PYTHONPATH=src``)::

    python3 perfbench/run.py --workload verb-sweep --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one after another

Workloads (see harness.py; why each was chosen is in BENCHMARK.json):

* ``verify-all``: ``thhcalc verify-all --seed SEED``, one battery per child;
* ``tor-deep``: two capped ``tor-check`` runs, each in its own child;
* ``verb-sweep``: one child making about a thousand seeded calls of the
  eleven other verbs, a few of them invalid.

With ``--trace 0`` the run repeats the workload in a closed loop for about
``--seconds`` seconds and reports the end-to-end metrics: median wall, CPU
and peak RSS of one operation (from ``os.wait4``), setup time, and per-call
latency percentiles.  With ``--trace 1`` it runs the workload untraced, then
once more with timing wrappers around every public function of thhcalc, and
reports the per-layer metrics and the tracing overhead.

Every call passes the correctness gate (harness.Gate) in both modes.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are for
people: each metric with its quartiles and sample count, the error ratio,
the machine, and the gate's misses.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import Dict, List

import harness
import tracer


def measure(name: str, seed: int, budget_s: float, refs: harness.References, gate: harness.Gate) -> List[harness.OpResult]:
    """Closed loop, one client: run operations until the next would overrun the budget (at least one)."""
    ops: List[harness.OpResult] = []
    start = time.monotonic()
    while True:
        ops.append(harness.run_op(harness.workload_op(name, seed, refs), gate))
        elapsed = time.monotonic() - start
        if elapsed + statistics.median(o.wall_s for o in ops) > budget_s:
            return ops


def end_to_end(name: str, seed: int, seconds: float, refs, gate) -> Dict[str, tuple]:
    harness.run_child([])  # warm-up: byte-compiles the package in a fresh checkout
    setup = [harness.run_child([]).setup_s for _ in range(harness.SETUP_PROBES)]
    ops = measure(name, seed, seconds, refs, gate)
    setup += [s for o in ops for s in o.setup_s]
    latencies = [lat for o in ops for lat in o.latencies_ms]
    samples = {
        "wall_s": ([o.wall_s for o in ops], "s"),
        "cpu_s": ([o.cpu_s for o in ops], "s"),
        "peak_rss_mb": ([o.peak_rss_mb for o in ops], "MB"),
        "setup_s": (setup, "s"),
    }
    if name == "verb-sweep":
        print(f"{name:10s} mix {json.dumps(harness.sweep_mix(harness.sweep_argvs(seed)))}")
    metrics = {}
    for metric, (values, unit) in samples.items():
        st = harness.spread(values)
        metrics[metric] = (st["median"], unit)
        print(f"{name:10s} {metric:12s} {st['median']:12.4f} {unit:3s} median of {st['n']}; q1 {st['q1']:.4f}, q3 {st['q3']:.4f}")
    for metric, q in (("call_p50_ms", 0.50), ("call_p95_ms", 0.95)):
        metrics[metric] = (harness.percentile(latencies, q), "ms")
        beyond = sum(lat > metrics[metric][0] for lat in latencies)
        print(f"{name:10s} {metric:12s} {metrics[metric][0]:12.4f} ms  of {len(latencies)} calls, {beyond} beyond it")
    return metrics


def per_layer(name: str, seed: int, seconds: float, refs, gate) -> Dict[str, tuple]:
    harness.run_child([])
    untraced = measure(name, seed, seconds / 2, refs, gate)
    traced = harness.run_op(harness.workload_op(name, seed, refs), gate, trace=True)
    raw = tracer.merge(traced.traces)
    metrics = tracer.layer_metrics(raw)
    metrics["trace.wall_s"] = (traced.wall_s, "s")
    metrics["trace_overhead_s"] = (traced.wall_s - statistics.median(o.wall_s for o in untraced), "s")
    for metric, (value, unit) in metrics.items():
        print(f"{name:10s} {metric:48s} {value:14.6g} {unit}")
    for fn, calls, self_s in tracer.top_self(raw):
        print(f"{name:10s} top self time: {fn:44s} {self_s:9.3f} s in {calls} calls")
    within = metrics["trace.self_s_sum"][0] <= traced.wall_s
    print(f"{name:10s} self times sum to {metrics['trace.self_s_sum'][0]:.3f} s of {traced.wall_s:.3f} s traced wall: {'ok' if within else 'EXCEEDS WALL'}")
    return metrics


def declared(kind: str) -> List[str]:
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=harness.WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(harness.ROOT, "src", "thhcalc", "cli.py")):
        print("perfbench: no thhcalc sources under src/ next to perfbench/", file=sys.stderr)
        return 2

    refs = harness.References.load()
    names = harness.WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    wanted = declared("per_layer" if args.trace else "end_to_end")
    print(f"# thhcalc benchmark: seed {args.seed}, {args.seconds:g} s per workload, trace {args.trace}")
    print("# machine " + json.dumps(harness.machine_facts()))
    attempted = failed = 0
    correct = True
    out: Dict[str, dict] = {}
    for name in names:
        gate = harness.Gate()
        run = per_layer if args.trace else end_to_end
        metrics = run(name, args.seed, args.seconds, refs, gate)
        print(f"{name:10s} {'error_ratio':12s} {gate.failed / gate.attempted:12.4f} ratio {gate.failed} failed of {gate.attempted} calls")
        for miss in gate.misses:
            print(f"{name:10s} gate miss: {miss}")
        missing = [m for m in wanted if m not in metrics]
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        prefix = f"{name}." if len(names) > 1 else ""
        out.update({prefix + m: {"value": metrics[m][0], "unit": metrics[m][1]} for m in wanted})
        attempted += gate.attempted
        failed += gate.failed
        correct = correct and gate.correct
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
