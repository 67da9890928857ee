"""One benchmark child: a fresh interpreter that makes a list of CLI calls.

Usage (from the harness): ``python3 perfbench/child.py RESULT_FD < job.json``
with ``PYTHONPATH=src``.  The job is ``{"calls": [argv, ...], "trace": bool}``.

The child imports ``thhcalc.cli`` and builds its parser, notes the time
(setup ends here), optionally installs the tracer, then calls
``cli.main(argv)`` once per argv with stdout and stderr captured.  At the
end it writes one JSON object to RESULT_FD: the setup timestamp, and per
call the latency, exit code, report digest, report size and the report's
``passed`` field.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import time


def run_call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusals
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a result to report, not to stop on
            code = "exception:" + type(exc).__name__
        latency_ms = (time.perf_counter_ns() - start) / 1e6
    text = out.getvalue()
    passed = None
    if text.startswith("{"):
        try:
            passed = json.loads(text).get("passed")
        except ValueError:
            passed = False
    return [latency_ms, code, hashlib.sha256(text.encode("utf-8")).hexdigest(), len(text), passed]


def main() -> None:
    result_fd = int(sys.argv[1])
    from thhcalc import cli

    cli.build_parser()
    ready_ns = time.monotonic_ns()
    job = json.load(sys.stdin)
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    calls = [run_call(cli.main, argv) for argv in job["calls"]]
    payload = {"ready_ns": ready_ns, "calls": calls, "trace": tracer.raw() if tracer else None}
    with os.fdopen(result_fd, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    main()
