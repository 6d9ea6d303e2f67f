"""spanflats benchmark: four exact-geometry workloads through the public CLI.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs ``spanflats.cli.main(argv)`` once, at --jobs 1, in a
fresh interpreter (bench/child.py), so nothing cached in one repetition can
reach the next. Repetitions run back to back (closed loop: one caller waits
for each table) until S seconds have passed. Every output is checked: CLI
exit 0, every row ``status == ok`` with its check columns true, identical
bytes in every repetition, and at the default seed the pinned sha256.

--trace 0 prints the end-to-end metrics: wall_s, setup_s, peak_rss_mb,
row_p50_s and row_p90_s (medians over repetitions). Their times are reference
seconds (bench/speedclock.py): wall time with the host's changing processor
speed taken out, measured while the program runs. The plain wall times are
printed beside them as raw_wall_s and raw_setup_s. --trace 1 alternates
untraced and traced repetitions and prints the per-layer metrics of
bench/layertrace.py plus trace.overhead_frac.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; attempted and failed count table rows, so error_frac is
failed / attempted. The exit code is 0 only when every check passed.
Details of the run (environment, hashes, every sample) go to
.bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from layertrace import COUNT_METRICS
from workloads import CHECK_COLUMNS, DEFAULT_SEED, JOBS_CHECK_WORKLOAD, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_LAUNCHES = 15
CHILD_TIMEOUT_S = 170
# Set-up ends when the parser is built; the launch then reports that moment
# (perf_counter is the system-wide monotonic clock) and the processor's speed
# right after it, measured with the calibration chunk of bench/speedclock.py.
SETUP_CODE = (
    "import spanflats.cli as cli; cli.build_parser(); import time; "
    "done = time.perf_counter(); import sys; sys.path.insert(0, sys.argv[1]); "
    "import speedclock; print(done, speedclock.reference_scale())"
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "row_p50_s": "s",
    "row_p90_s": "s",
}


class BenchError(RuntimeError):
    """The program could not be run or its output could not be read."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], trace: bool = False, trace_out: Path | None = None) -> dict:
    """One fresh-interpreter run of cli.main(argv); returns child.py's record."""
    cmd = [sys.executable, str(BENCH / "child.py"), "--src", str(SRC),
           "--argv", json.dumps(argv)]
    if trace:
        cmd.append("--trace")
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                          cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout:
        raise BenchError(f"child failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure_setup(launches: int) -> tuple[list[float], list[float]]:
    """Set-up times of fresh launches that import spanflats.cli and build the
    parser: (reference seconds, raw wall seconds), one of each per launch.

    A timer kills a launch that hangs.
    """
    ref, raw = [], []
    for _ in range(launches):
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(BENCH)],
                                env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out, _ = proc.communicate()
        finally:
            watchdog.cancel()
        if proc.returncode != 0:
            raise BenchError(f"setup launch exited {proc.returncode}")
        done, scale = map(float, out.split())
        raw.append(done - t0)
        ref.append((done - t0) * scale)
    return ref, raw


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def table_rows(output: str) -> list[dict]:
    """Rows of the JSON table the CLI prints first on stdout."""
    doc, _ = json.JSONDecoder().raw_decode(output)
    return doc["rows"]


def failed_rows(rows: list[dict]) -> int:
    """Rows whose status (where the table has one) is not ok, or whose check
    columns are not all true."""
    return sum(
        1 for r in rows
        if r.get("status", "ok") != "ok"
        or any(c in r and r[c] is not True for c in CHECK_COLUMNS)
    )


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def environment() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "spanflats").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
    }


class Checker:
    """Checks each run's output and tallies attempted and failed rows."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.first_output: str | None = None
        self.hashes: list[str] = []
        self.problems: list[str] = []

    def check(self, rec: dict, label: str) -> None:
        output = rec["output"]
        digest = sha256(output)
        self.hashes.append(digest)
        try:
            rows = table_rows(output)
        except (ValueError, KeyError) as exc:
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"{label}: unreadable table: {exc}")
            return
        if not rows:
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"{label}: empty table")
            return
        self.attempted += len(rows)
        if self.first_output is None:
            self.first_output = output
        why = []
        if rec["exit"] != 0:
            why.append(f"exit code {rec['exit']}")
        if output != self.first_output:
            why.append("output differs from the first repetition")
        pinned = self.workload.pinned_sha256
        if self.seed == DEFAULT_SEED and digest != pinned:
            why.append(f"sha256 {digest} != pinned {pinned}")
        if why:
            self.failed += len(rows)
            self.problems.append(f"{label}: " + "; ".join(why))
        else:
            bad = failed_rows(rows)
            self.failed += bad
            if bad:
                self.problems.append(f"{label}: {bad} rows failed their checks")


def summarize(name: str, values: list[float], unit: str, lines: list[str]) -> float:
    # median_low keeps a count an integer; counts are checked to repeat anyway
    value = statistics.median_low(values) if unit == "count" else statistics.median(values)
    lines.append(f"{name:<44} {value:>14.6g} {unit:<6} n={len(values)}")
    return value


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()

    if not (SRC / "spanflats" / "cli.py").is_file():
        print(f"error: no spanflats sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[opts.workload]
    env = environment()
    checker = Checker(workload, opts.seed)
    argv = workload.argv(opts.seed)
    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{opts.seed}-trace{opts.trace}"

    samples: dict[str, list[float]] = {}
    layer_runs: list[dict] = []
    traced_walls: list[float] = []
    try:
        if opts.trace == 0:
            samples["setup_s"], samples["raw_setup_s"] = measure_setup(SETUP_LAUNCHES)
        # Start a repetition only if one more of median length still ends
        # within --seconds, so a run lasts at most max(seconds, one repetition).
        start = perf_counter()
        lengths: list[float] = []
        rep = 0
        while not lengths or (perf_counter() - start + statistics.median(lengths)
                              <= opts.seconds):
            began = perf_counter()
            rec = run_child(argv)
            checker.check(rec, f"rep {rep}")
            samples.setdefault("wall_s", []).append(rec["wall_s"])
            samples.setdefault("raw_wall_s", []).append(rec["raw_wall_s"])
            samples.setdefault("peak_rss_mb", []).append(rec["rss_mb"])
            samples.setdefault("row_p50_s", []).append(nearest_rank(rec["row_times"], 0.5))
            samples.setdefault("row_p90_s", []).append(nearest_rank(rec["row_times"], 0.9))
            if opts.trace == 1:
                rec = run_child(argv, trace=True, trace_out=OUT / f"spans-{tag}.json")
                checker.check(rec, f"traced rep {rep}")
                layer_runs.append(rec["layers"])
                traced_walls.append(rec["raw_wall_s"])
            lengths.append(perf_counter() - began)
            rep += 1
        if workload.name == JOBS_CHECK_WORKLOAD and (os.cpu_count() or 1) >= 2:
            checker.check(run_child(workload.argv(opts.seed, jobs=2)), "--jobs 2")
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    lines = [
        f"workload {workload.name}: spanflats {' '.join(argv)}",
        "env " + json.dumps(env),
    ]
    metrics: dict[str, dict] = {}
    if opts.trace == 0:
        for name, unit in END_TO_END_UNITS.items():
            metrics[name] = {"value": summarize(name, samples[name], unit, lines), "unit": unit}
        for name in ("raw_wall_s", "raw_setup_s"):
            summarize(name, samples[name], "s", lines)
    else:
        for name in layer_runs[0]:
            values = [run[name] for run in layer_runs]
            if name in COUNT_METRICS and len(set(values)) != 1:
                checker.problems.append(f"count {name} did not repeat: {values}")
            unit = ("count" if name in COUNT_METRICS
                    else "s" if name.endswith("_s") else "ratio")
            metrics[name] = {"value": summarize(name, values, unit, lines), "unit": unit}
        overhead = (statistics.median(traced_walls)
                    / statistics.median(samples["raw_wall_s"]) - 1)
        lines.append(f"{'trace.overhead_frac':<44} {overhead:>14.6g} ratio  "
                     f"n={len(traced_walls)}+{len(samples['wall_s'])}")
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    lines.append(f"error_frac {checker.failed / checker.attempted:.6g} "
                 f"({checker.failed} of {checker.attempted} rows)")
    lines.append(f"sha256 {checker.hashes[0]} (seed {opts.seed})")
    lines.extend(f"FAIL {p}" for p in checker.problems)
    correct = not checker.problems

    record = {"workload": workload.name, "argv": argv, "seed": opts.seed,
              "seconds": opts.seconds, "trace": opts.trace, "env": env,
              "hashes": checker.hashes, "samples": samples, "layer_runs": layer_runs,
              "traced_walls": traced_walls, "problems": checker.problems,
              "metrics": metrics}
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
