"""Self-test of the benchmark harness.

Usage: ``python3 perfbench/selftest.py`` from the root of the repository
(about three minutes; it runs every workload once in each mode).

* Runs each workload in its short mode (``--seconds 1``: one operation)
  with ``--trace 0`` and ``--trace 1``, and asserts that the last line
  carries every metric that BENCHMARK.json declares for that mode, each
  with its declared unit, and that the gate passed.
* Feeds the harness a wrong reference digest, and calls whose exit code is
  not the expected one, and asserts that each is counted as a failure and,
  where a report was expected, makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import harness
import run


def last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def check_short_runs() -> None:
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        units = {m["name"]: m["unit"] for m in bench[kind]}
        for name in harness.WORKLOAD_NAMES:
            argv = [sys.executable, os.path.join(harness.HERE, "run.py"), "--workload", name]
            argv += ["--seed", "3", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=harness.ROOT, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            result = last_json_line(proc.stdout)
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
            assert result["correct"] is True, proc.stdout
            assert result["attempted"] >= 1
            if name != "verb-sweep":
                assert result["failed"] == 0, proc.stdout
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == units, (name, trace, set(got) ^ set(units))
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            print(f"ok  {name} --trace {trace}: {len(got)} metrics, {result['failed']}/{result['attempted']} failed")


def check_gate_counts_failures() -> None:
    refs = harness.References.load()
    valid = ("relations", "--n", "9", "--p", "3")
    good = refs.report(valid)
    cases = [
        (harness.Call(valid, good), 0, 0),
        (harness.Call(valid, "0" * 64), 1, 1),  # wrong reference digest
        (harness.Call(("relations", "--n", "2"), good), 1, 1),  # exit 2 where a report was expected
        (harness.Call(valid, None), 1, 0),  # exit 0 where a refusal was expected
        (harness.Call(("pterm", "--max-degree", "-3"), None), 1, 0),  # a crash where a refusal was expected
    ]
    for call, failed, wrong in cases:
        gate = harness.Gate()
        harness.run_op([[call]], gate)
        assert (gate.failed, gate.wrong) == (failed, wrong), (call, gate)
        print(f"ok  gate on {' '.join(call.argv)!r}: failed {gate.failed}, correct {gate.correct}")

    # The same through the whole harness: a tampered reference fails the run.
    tampered = harness.References({**refs.digests, " ".join(harness.TOR_DEEP[1]): "0" * 64}, refs.verify_all_seed0)
    original = harness.References.load
    harness.References.load = classmethod(lambda cls: tampered)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            run.main(["--workload", "tor-deep", "--seed", "0", "--seconds", "1"])
    finally:
        harness.References.load = original
    result = last_json_line(out.getvalue())
    assert result["correct"] is False and result["failed"] == 1, result
    print("ok  tampered tor-deep reference: run reports correct=false, 1 failed")


if __name__ == "__main__":
    check_gate_counts_failures()
    check_short_runs()
    print("selftest passed")
