"""One measured CLI run in a fresh interpreter.

Usage: python3 bench/child.py --src SRC --argv JSON [--trace] [--trace-out PATH]

Imports ``spanflats.cli`` from SRC, runs ``cli.main(argv)`` with its stdout
captured, and prints one JSON record: exit code, time of ``cli.main``, peak
RSS, the captured output, per-row times (at --jobs 1, by wrapping the items
``cli.pmap`` maps) and, with --trace, the per-layer metrics.

Untraced, times are reference seconds from bench/speedclock.py (the host's
changing speed taken out), and ``raw_wall_s`` is the plain wall time. Traced,
the speed clock is off, so it adds nothing to the layers' times, and
``raw_wall_s`` is the only time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from speedclock import SpeedClock


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--argv", required=True, help="CLI argument list as JSON")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--trace-out", default=None, help="write the span log here")
    opts = ap.parse_args()
    argv = json.loads(opts.argv)
    src = Path(opts.src).resolve()

    sys.path.insert(0, str(src))
    from spanflats import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"spanflats imported from {cli.__file__}, not from {src}")

    clock = None if opts.trace else SpeedClock()
    now = clock.mark if clock is not None else perf_counter
    row_times: list[float] = []
    jobs = int(argv[argv.index("--jobs") + 1]) if "--jobs" in argv else 1
    if jobs == 1:
        pmap = cli.pmap

        def timed_pmap(fn, items, jobs):
            marks = [now()]

            def timed(item):
                out = fn(item)
                marks.append(now())
                return out

            out = pmap(timed, items, jobs)
            row_times.extend(b - a for a, b in zip(marks, marks[1:]))
            return out

        cli.pmap = timed_pmap

    tracer = None
    if opts.trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if clock is not None:
            clock.start()
        t0 = perf_counter()
        try:
            code = cli.main(argv)
        finally:
            wall = perf_counter() - t0
            if clock is not None:
                clock.stop()

    record = {
        "exit": code,
        "raw_wall_s": clock.raw_s if clock is not None else wall,
        "wall_s": clock.ref_s if clock is not None else None,
        "ticks": clock.ticks if clock is not None else 0,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "output": buf.getvalue(),
        "row_times": row_times,
    }
    if tracer is not None:
        tracer.uninstall()
        record["layers"] = tracer.metrics()
        if opts.trace_out:
            with open(opts.trace_out, "w") as fh:
                json.dump(tracer.dump(), fh)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
