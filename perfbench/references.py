"""Record the reference reports that the benchmark's correctness gate compares against.

Usage: ``python3 perfbench/references.py`` from the root of the repository.

Runs every valid verb-sweep configuration, the two tor-deep calls and
``verify-all --seed 0`` through the benchmark child, requires each to exit 0
with a passing report, and writes ``perfbench/reference/digests.json``
(argv -> sha256 of the report) and ``perfbench/reference/verify-all-seed0.json``
(the report itself).  Reports are meant to stay byte-identical, so this is
rerun only when a change to the reports is intended.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import harness


def main() -> None:
    argvs = sorted({a for grid in harness.SWEEP_GRID.values() for a in grid}) + list(harness.TOR_DEEP)
    child = harness.run_child(argvs)
    digests = {}
    for argv, got in zip(argvs, child.calls):
        if got.code != 0 or got.passed is False:
            raise SystemExit(f"reference call did not pass: {' '.join(argv)} (exit {got.code})")
        digests[" ".join(argv)] = got.digest

    # The child returns digests only; verify-all's text is kept whole, so
    # run the battery through the CLI module directly.
    text = subprocess.run(
        [sys.executable, "-m", "thhcalc.cli", "verify-all", "--seed", "0"],
        env=harness.child_env(),
        cwd=harness.ROOT,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    if '"passed": true' not in text:
        raise SystemExit("verify-all reference report did not pass")
    os.makedirs(harness.REFERENCE_DIR, exist_ok=True)
    with open(harness.VERIFY_ALL_REFERENCE, "w", encoding="utf-8") as fh:
        fh.write(text)
    with open(harness.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(digests)} report digests; verify-all report {len(text)} bytes")


if __name__ == "__main__":
    main()
