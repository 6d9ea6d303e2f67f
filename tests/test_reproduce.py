"""scripts/reproduce.py rewrites the committed results/ byte for byte, and
writes nothing on --help or bad arguments."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "reproduce.py"
RESULTS = ROOT / "results"


def load_driver():
    spec = importlib.util.spec_from_file_location("reproduce", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot(directory: Path) -> dict:
    return {p.name: (p.stat().st_mtime_ns, p.read_bytes()) for p in directory.iterdir()}


def test_reproduce_matches_the_committed_results(tmp_path):
    driver = load_driver()
    assert driver.reproduce(list(driver.EXPERIMENTS), tmp_path, 1) == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in RESULTS.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (RESULTS / name).read_bytes(), name


@pytest.mark.parametrize(
    "args, code",
    [(["--help"], 0), (["nosuch"], 2), (["beck3", "--seeds", "2"], 2), (["--jobs", "0"], 2)],
)
def test_help_and_bad_arguments_write_nothing(args, code):
    before = snapshot(RESULTS)
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(SCRIPT), *args], env=env, capture_output=True, timeout=60)
    assert proc.returncode == code, proc.stderr
    assert snapshot(RESULTS) == before
