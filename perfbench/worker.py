"""Benchmark worker: runs ``planarcert.cli.main`` in-process, one request
at a time.

Usage: python3 worker.py SRC_DIR [SPAN_FILE]

Requests arrive as JSON lines on stdin, replies leave as JSON lines on the
original stdout; the command's own stdout and stderr are captured and
returned in the reply.  A request is ``{"argv": [...], "trace": bool}``;
an escaped exception is reported as a crash, after which the caller
restarts the worker.  ``{"calibrate": true}`` instead times a fixed
integer loop, which says how fast the host runs this process at the
moment.  End of input ends the worker, which then writes its spans to SPAN_FILE
when one was given.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def calibration_loop() -> float:
    """Seconds taken by a fixed integer loop (about 5 ms).  It allocates
    nothing the garbage collector tracks, so the worker's heap does not
    change its time; only the host's speed does."""
    start = time.perf_counter()
    acc = 0
    for i in range(50_000):
        acc = (acc + i * 7) % 1_000_003
    return time.perf_counter() - start


def serve(src: str, span_file: str | None) -> None:
    sys.path.insert(0, src)
    import planarcert.cli as cli  # loads every planarcert module
    from layertrace import Tracer

    tracer = Tracer()
    channel = sys.stdout
    channel.write(json.dumps({"ready": True}) + "\n")
    channel.flush()
    for line in sys.stdin:
        req = json.loads(line)
        if req.get("calibrate"):
            channel.write(json.dumps({"calibration": calibration_loop()}) + "\n")
            channel.flush()
            continue
        if req.get("trace"):
            tracer.install()
        else:
            tracer.uninstall()
        out, err = io.StringIO(), io.StringIO()
        crash = None
        code = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(req["argv"])
        except Exception as exc:  # an escaped exception is a measured failure
            crash = f"{type(exc).__name__}: {exc}"[:300]
        elapsed = time.perf_counter() - start
        reply = {
            "code": code,
            "out": out.getvalue(),
            "err": err.getvalue()[-2000:],
            "crash": crash,
            "elapsed": elapsed,
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        if req.get("trace"):
            reply["layers"] = tracer.take_totals()
        channel.write(json.dumps(reply) + "\n")
        channel.flush()
    if span_file:
        tracer.write_spans(span_file)


if __name__ == "__main__":
    serve(sys.argv[1], sys.argv[2] if len(sys.argv) > 2 else None)
