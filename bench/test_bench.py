"""Tests of the benchmark itself: python3 -m pytest bench -q

The tracer tests use a fake clock, so the self-time arithmetic is checked
exactly. The end-to-end tests run small cells of the four workload shapes
through the same fresh-interpreter path the benchmark uses.
"""

from __future__ import annotations

import shutil
import signal
import subprocess
import sys

import pytest

import layertrace
import run
import speedclock
from layertrace import COUNT_METRICS, MissingTarget, Tracer

sys.path.insert(0, str(run.SRC))

SMALL_CELLS = {
    "beck3-plane": ["beck3", "--n-list", "12", "--k-list", "3", "--seeds", "1"],
    "envelope-bichromatic": ["envelope-sweep", "--construction", "bichromatic",
                             "--d", "3", "--n0", "8", "--doublings", "1"],
    "purdy-d6": ["verify-purdy", "--d-range", "4", "--k-range", "2"],
    "conjecture-d3": ["conjecture-search", "--d", "3", "--n", "6", "--samples", "4"],
}


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_excludes_wrapped_children(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(layertrace, "perf_counter_ns", clock)
    tracer = Tracer()

    def leaf():
        clock.now += 3

    def failing_leaf():
        clock.now += 4
        raise ValueError("boom")

    leaf_w = tracer.wrap("leaf", leaf)
    failing_w = tracer.wrap("failing", failing_leaf)

    def outer():
        clock.now += 10
        leaf_w()
        clock.now += 5
        leaf_w()
        try:
            failing_w()
        except ValueError:
            pass
        clock.now += 1

    tracer.wrap("outer", outer)()
    calls, incl, self_ns = tracer.stats["outer"]
    assert (calls, incl, self_ns) == (1, 10 + 3 + 5 + 3 + 4 + 1, 10 + 5 + 1)
    assert tracer.stats["leaf"] == [2, 6, 6]
    assert tracer.stats["failing"] == [1, 4, 4]
    assert tracer.edges[("outer", "leaf")] == 2
    assert tracer.edges[("outer", "failing")] == 1
    parents = {span[0]: span for span in tracer.spans}
    outer_span = next(s for s in tracer.spans if s[2] == "outer")
    assert outer_span[1] == 0
    assert all(parents[s[1]][2] == "outer" for s in tracer.spans if s[2] != "outer")


def test_speed_clock_converts_each_interval_at_its_measured_speed(monkeypatch):
    now = [100.0]
    ref = speedclock.REF_CHUNK_S
    chunks = iter([ref] * 5 + [ref / 2, ref, ref])  # start; tick: twice as fast; mark; stop
    monkeypatch.setattr(speedclock, "perf_counter", lambda: now[0])
    monkeypatch.setattr(speedclock, "chunk_seconds", lambda: next(chunks))
    previous = signal.getsignal(signal.SIGALRM)
    clock = speedclock.SpeedClock(interval=1000)
    clock.start()
    now[0] += 1.0
    clock._tick(signal.SIGALRM, None)  # the interval ran at scales 1 then 2
    assert (clock.ref_s, clock.raw_s) == (1.5, 1.0)
    now[0] += 0.5
    assert clock.mark() == 1.5 + 0.5 * 1.5  # scales 2 then 1
    now[0] += 0.25
    clock.stop()  # scale 1 throughout
    assert (clock.ref_s, clock.raw_s) == (1.5 + 0.5 * 1.5 + 0.25, 1.75)
    assert signal.getsignal(signal.SIGALRM) == previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_setup_launches_report_reference_and_raw_times():
    ref, raw = run.measure_setup(2)
    assert len(ref) == len(raw) == 2
    assert all(0 < t < 30 for t in ref + raw)


def test_install_replaces_imported_copies_and_restores():
    from spanflats import cli, constructions, kernel, spans

    originals = (spans.spanned_flats, cli.spanned_flats, kernel.Flat.contains,
                 constructions.affine_rank)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.spanned_flats is spans.spanned_flats
        assert spans.spanned_flats.__wrapped__ is originals[0]
        assert constructions.affine_rank is kernel.affine_rank
        assert kernel.Flat.contains is not originals[2]
    finally:
        tracer.uninstall()
    assert (spans.spanned_flats, cli.spanned_flats, kernel.Flat.contains,
            constructions.affine_rank) == originals


def test_missing_target_fails_loudly(monkeypatch):
    targets = dict(layertrace.TARGETS, cli=("main", "no_such_function"))
    monkeypatch.setattr(layertrace, "TARGETS", targets)
    tracer = Tracer()
    with pytest.raises(MissingTarget, match="no_such_function"):
        tracer.install()
    tracer.uninstall()


@pytest.mark.parametrize("name", sorted(SMALL_CELLS))
def test_traced_runs_repeat_counts_and_output(name):
    argv = SMALL_CELLS[name] + ["--seed", "0", "--jobs", "1"]
    plain = run.run_child(argv)
    first = run.run_child(argv, trace=True)
    second = run.run_child(argv, trace=True)
    assert plain["exit"] == first["exit"] == second["exit"] == 0
    assert run.sha256(first["output"]) == run.sha256(plain["output"])
    assert run.sha256(second["output"]) == run.sha256(plain["output"])
    for metric in COUNT_METRICS:
        assert first["layers"][metric] == second["layers"][metric], metric
    layers = first["layers"]
    if name == "envelope-bichromatic":
        assert layers["spans.spanned_flats.calls"] == 0
        assert layers["spans.subsets_scanned"] == 0
        assert layers["incidence.pairs_tested"] > 0
    else:
        assert layers["spans.spanned_flats.calls"] > 0
    if name == "conjecture-d3":
        assert layers["spans.spanned_flats.repeat_frac"] == pytest.approx(2 / 3)


def test_failed_rows_reads_check_columns():
    rows = [
        {"status": "ok", "h_match": True, "g_match": True},
        {"status": "ok", "h_match": True, "g_match": False},
        {"status": "error: x", "hypothesis_ok": True},
        {"status": "ok"},
        {"sample": 0, "degenerate": False},
    ]
    assert run.failed_rows(rows) == 2


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "purdy-d6",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
