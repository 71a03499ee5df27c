"""Request executor: runs CLI requests in this process through click's
CliRunner, one at a time, as the client sends them.

Protocol: each stdin line is a JSON request ``{"id": ..., "args": [...]}``.
For each, one JSON header line goes to stdout, followed by exactly
``nbytes`` bytes of the command's standard output.  The header carries the
service time of the call, measured here around ``CliRunner.invoke``.  The
worker ends at end of input; with ``--trace PATH`` it installs the span
hooks first and writes the spans to PATH when it ends.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trace", default=None, help="write spans to this file")
    opts = ap.parse_args()

    from click.testing import CliRunner
    from oscigen.cli import main as cli

    invoke = CliRunner().invoke
    tracer = None
    if opts.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        invoke = tracer.wrap("cli", invoke, lambda a, k, r: {"command": a[1][0]})
    bytes_out = {}
    out = sys.stdout.buffer
    for line in sys.stdin:
        req = json.loads(line)
        if tracer:
            tracer.request = req["id"]
        start = time.perf_counter_ns()
        result = invoke(cli, req["args"])
        took = time.perf_counter_ns() - start
        exc = result.exception
        body = result.stdout_bytes
        if req["args"][0] == "table" and result.exit_code == 0:
            bytes_out[req["id"]] = len(body)
        header = {
            "id": req["id"],
            "service_ns": took,
            "exit_code": result.exit_code,
            "exception": None if exc is None or isinstance(exc, SystemExit)
            else f"{type(exc).__name__}: {exc}",
            "stderr": result.stderr[-400:],
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "nbytes": len(body),
        }
        out.write(json.dumps(header).encode() + b"\n")
        out.write(body)
        out.flush()
    if tracer:
        tracer.dump(opts.trace, {"bytes_out": bytes_out})


if __name__ == "__main__":
    main()
