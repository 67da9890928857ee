"""Workloads, child processes and the correctness gate of the thhcalc benchmark.

A run repeats one *operation* of its workload.  An operation is a list of
children, each a fresh Python process (``PYTHONPATH=src``) that imports
``thhcalc.cli`` and makes a list of ``cli.main(argv)`` calls.  Children run
one after another, so the load is a single closed-loop client and never
needs more than one core.

Every call is checked against the contract of the CLI:

* a valid call must exit 0, report ``"passed": true`` when the report is
  JSON, and print exactly the reference bytes stored under ``reference/``;
* an invalid call must print no report and exit 2.

A call that misses its rule counts as failed.  A valid call that misses it
also makes the run incorrect: the program printed a wrong report or none.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_DIR = os.path.join(HERE, "reference")
VERIFY_ALL_REFERENCE = os.path.join(REFERENCE_DIR, "verify-all-seed0.json")
DIGESTS = os.path.join(REFERENCE_DIR, "digests.json")

WORKLOAD_NAMES = ("verify-all", "tor-deep", "verb-sweep")

TOR_DEEP = (
    ("tor-check", "--p", "3", "--from", "b1", "--to", "b2", "--max-degree", "36"),
    ("tor-check", "--p", "5", "--from", "b3", "--to", "b4", "--max-degree", "60"),
)

# Setup probes per run: children that only import the CLI and build its
# parser.  Their median, together with the workload's own children, is setup_s.
SETUP_PROBES = 15


# ---------------------------------------------------------------------------
# the verb-sweep: the interactive user
# ---------------------------------------------------------------------------


def _grid(verb: str, *axes: Sequence[Sequence[str]]) -> List[tuple]:
    """Every argv for `verb` built from one choice per axis (a choice is a flag list)."""
    return [(verb,) + tuple(itertools.chain.from_iterable(pick)) for pick in itertools.product(*axes)]


def _opt(flag: str, values) -> List[List[str]]:
    return [[flag, str(v)] for v in values]


_P35 = _opt("--p", (3, 5))
_FORMAT = [[], ["--format", "csv"]]

# Fixed small parameter ranges per verb.  The caps keep every call under
# about 0.1 s; one sweep takes 14-16 s on a 2-vCPU Xeon.
SWEEP_GRID: Dict[str, List[tuple]] = {
    "words": _grid("words", _opt("--n", range(1, 7)), _P35, _opt("--max-degree", (30, 40, 60)), [[], ["--monic"]], _FORMAT),
    "poincare": _grid("poincare", _opt("--n", range(1, 5)), _P35, _opt("--max-degree", (30, 40, 60)), _FORMAT),
    "tor": _grid(
        "tor",
        [["--n", "1", "--max-degree", str(d)] for d in (10, 12, 14, 16)]
        + [["--n", "2", "--max-degree", str(d)] for d in (16, 20)]
        + [["--n", "3", "--max-degree", "20"]],
        _P35,
        _FORMAT,
    ),
    "tor-check": _grid(
        "tor-check",
        [["--from", "b1", "--to", "b2", "--max-degree", str(d)] for d in (14, 16, 18)]
        + [["--from", "b2", "--to", "b3", "--max-degree", str(d)] for d in (16, 20, 24)]
        + [["--from", "b3", "--to", "b4", "--max-degree", str(d)] for d in (20, 30)],
        _P35,
    ),
    "primitives": _grid("primitives", _opt("--n", (1, 2, 3)), _P35, _opt("--max-degree", (16, 20, 24, 30))),
    "relations": _grid("relations", _opt("--n", range(3, 61, 3)), _P35),
    "decompose": _grid("decompose", _opt("--n", range(2, 31, 2)), _P35)
    + [("decompose", "--n", "9", "--table", "3:1,6:1"), ("decompose", "--n", "10", "--table", "1:1,9:1")],
    "cubes": _grid("cubes", _opt("--n", (1, 2, 3)), _P35, _opt("--max-degree", (8, 10, 12))),
    "pterm": _grid("pterm", _opt("--towers", (1, 2, 3)), _P35, _opt("--max-degree", (8, 12, 16))),
    "changebasis": [
        ("changebasis", "--p", str(p)) + k + r
        for p in (3, 5, 7)
        for k in ((), ("--k", "1"), ("--k", "2"))
        for r in ((), ("--r", "1,2"), ("--r", "2,1"))
        if not (p == 7 and k == ("--k", "2"))  # about 0.3 s a call
    ],
    "rognes": _grid("rognes", _P35, _opt("--n", (2, 3)), [[], ["--control"]]),
}

# How many times one sweep makes each configuration of a verb's grid:
# 1,000 valid calls, weighted towards the verbs with small grids.
SWEEP_REPEATS = {
    "words": 1,
    "poincare": 2,
    "tor": 3,
    "tor-check": 5,
    "primitives": 4,
    "relations": 2,
    "decompose": 3,
    "cubes": 5,
    "pterm": 5,
    "changebasis": 4,
    "rognes": 6,
}

# Invalid configurations; each must be refused with exit 2.  The last two
# crash with a ValueError (exit 1) at this tree and are counted as failures.
SWEEP_INVALID = (
    ("words", "--p", "4"),
    ("poincare", "--n", "0"),
    ("relations", "--n", "2"),
    ("tor-check", "--from", "x", "--to", "b2"),
    ("cubes", "--n", "4"),
    ("words", "--format", "xml"),
    ("pterm", "--max-degree", "-3"),
    ("changebasis", "--r", "a"),
)
SWEEP_INVALID_REPEATS = 5


def sweep_argvs(seed: int) -> List[tuple]:
    """The seeded call list of one verb-sweep.

    Every seed makes the same multiset of calls, in its own shuffled order,
    so seeds differ in which calls find an algebra already built, not in how
    much work the sweep holds.
    """
    calls = [argv for verb, grid in SWEEP_GRID.items() for argv in grid * SWEEP_REPEATS[verb]]
    calls += list(SWEEP_INVALID) * SWEEP_INVALID_REPEATS
    random.Random(seed).shuffle(calls)
    return calls


def _word_algebras(argv: Sequence[str]) -> List[tuple]:
    """The word algebras (length, p, cap) that a sweep call builds."""
    args = dict(zip(argv[1::2], argv[2::2]))
    p, cap = args.get("--p", "3"), args.get("--max-degree", "20")
    if argv[0] in ("poincare", "tor", "primitives"):
        return [(args.get("--n", "2"), p, cap)]
    if argv[0] == "tor-check":
        return [(args[flag].lstrip("b"), p, cap) for flag in ("--from", "--to")]
    return []


def sweep_mix(argvs: Sequence[tuple]) -> Dict[str, object]:
    """Calls per verb, and the shares of invalid calls and of calls that repeat an algebra."""
    invalid = set(SWEEP_INVALID)
    built = set()
    repeats = 0
    per_verb: Dict[str, int] = {}
    for argv in argvs:
        kind = "invalid" if argv in invalid else argv[0]
        per_verb[kind] = per_verb.get(kind, 0) + 1
        algebras = [] if argv in invalid else _word_algebras(argv)
        if algebras and all(a in built for a in algebras):
            repeats += 1
        built.update(algebras)
    n = len(argvs)
    return {
        "calls": n,
        "calls_per_verb": dict(sorted(per_verb.items())),
        "invalid_share": round(per_verb.get("invalid", 0) / n, 4),
        "repeat_algebra_share": round(repeats / n, 4),
        "distinct_argv": len(set(argvs)),
    }


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Call:
    argv: tuple
    digest: Optional[str]  # reference sha256 of the report; None: must be refused


class References:
    """Reference report digests recorded at the commit that defined the benchmark."""

    def __init__(self, digests: Dict[str, str], verify_all_seed0: str):
        self.digests = digests
        self.verify_all_seed0 = verify_all_seed0

    @classmethod
    def load(cls) -> "References":
        with open(DIGESTS, encoding="utf-8") as fh:
            digests = json.load(fh)
        with open(VERIFY_ALL_REFERENCE, encoding="utf-8") as fh:
            text = fh.read()
        return cls(digests, text)

    def report(self, argv: Sequence[str]) -> str:
        return self.digests[" ".join(argv)]

    def verify_all(self, seed: int) -> str:
        # The battery's checks do not depend on the seed; the seed appears
        # only in the params of the envelope and of the four seeded checks.
        text, count = re.subn(r'"seed": 0(?=[,\n])', f'"seed": {seed}', self.verify_all_seed0)
        if count != 5:
            raise ValueError("verify-all reference does not hold the five seed fields")
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def workload_op(name: str, seed: int, refs: References) -> List[List[Call]]:
    """One operation of a workload: its children, each a list of calls."""
    if name == "verify-all":
        return [[Call(("verify-all", "--seed", str(seed)), refs.verify_all(seed))]]
    if name == "tor-deep":
        return [[Call(argv, refs.report(argv))] for argv in TOR_DEEP]
    if name == "verb-sweep":
        invalid = set(SWEEP_INVALID)
        return [[Call(a, None if a in invalid else refs.report(a)) for a in sweep_argvs(seed)]]
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------


@dataclass
class CallResult:
    latency_ms: float
    code: object  # exit code, or "exception:<type>"
    digest: str
    size: int
    passed: Optional[bool]


@dataclass
class ChildRun:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float
    calls: List[CallResult]
    trace: Optional[dict]


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argvs: Sequence[Sequence[str]], trace: bool = False) -> ChildRun:
    """Spawn one child, make the calls, and account for it with os.wait4."""
    read_fd, write_fd = os.pipe()
    job = json.dumps({"calls": [list(a) for a in argvs], "trace": trace}).encode()
    start = time.monotonic_ns()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), str(write_fd)],
        stdin=subprocess.PIPE,
        stdout=subprocess.DEVNULL,
        pass_fds=(write_fd,),
        env=child_env(),
        cwd=ROOT,
    )
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as fh:
            proc.stdin.write(job)
            proc.stdin.close()
            payload = fh.read()
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not payload:
        raise RuntimeError(f"benchmark child exited with {proc.returncode}")
    result = json.loads(payload)
    return ChildRun(
        wall_s=(end - start) / 1e9,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        setup_s=(result["ready_ns"] - start) / 1e9,
        calls=[CallResult(*c) for c in result["calls"]],
        trace=result["trace"],
    )


# ---------------------------------------------------------------------------
# the gate
# ---------------------------------------------------------------------------


@dataclass
class Gate:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # valid calls whose report was wrong or missing
    misses: List[str] = field(default_factory=list)

    def check(self, call: Call, got: CallResult) -> None:
        self.attempted += 1
        if call.digest is None:
            ok = got.code == 2 and got.size == 0
        else:
            ok = got.code == 0 and got.passed is not False and got.digest == call.digest
            self.wrong += not ok
        if not ok:
            self.failed += 1
            if len(self.misses) < 20:
                self.misses.append(f"{' '.join(call.argv)}: exit {got.code}, {got.size} bytes")

    @property
    def correct(self) -> bool:
        return self.wrong == 0


@dataclass
class OpResult:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: List[float]
    latencies_ms: List[float]
    traces: List[dict]


def run_op(op: List[List[Call]], gate: Gate, trace: bool = False) -> OpResult:
    children = []
    for calls in op:
        child = run_child([c.argv for c in calls], trace)
        if len(child.calls) != len(calls):
            raise RuntimeError("benchmark child returned a short result")
        for call, got in zip(calls, child.calls):
            gate.check(call, got)
        children.append(child)
    return OpResult(
        wall_s=sum(c.wall_s for c in children),
        cpu_s=sum(c.cpu_s for c in children),
        peak_rss_mb=max(c.peak_rss_mb for c in children),
        setup_s=[c.setup_s for c in children],
        latencies_ms=[r.latency_ms for c in children for r in c.calls],
        traces=[c.trace for c in children if c.trace is not None],
    )


# ---------------------------------------------------------------------------
# statistics and machine facts
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (q in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count."""
    return {
        "median": statistics.median(values),
        "q1": percentile(values, 0.25),
        "q3": percentile(values, 0.75),
        "n": len(values),
    }


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def machine_facts() -> Dict[str, object]:
    cpu = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines() if line.startswith("model name")),
        "unknown",
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "cpu_model": cpu,
        "loadavg": _read("/proc/loadavg").split()[:3],
    }
