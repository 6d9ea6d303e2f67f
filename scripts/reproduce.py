#!/usr/bin/env python3
"""Reproduce the standing experiments into results/.

    python3 scripts/reproduce.py [NAME ...] [--jobs N]

Runs the named experiments (default: all, in table order) through the
spanflats CLI, passing ``--jobs N`` to every command; the bytes written do
not depend on it. Exits with the first nonzero CLI exit code, so a
verify-purdy mismatch fails the run.
"""

import argparse
import sys
from pathlib import Path

from spanflats import purdy_counts
from spanflats.cli import main

RESULTS = Path(__file__).resolve().parent.parent / "results"

# Experiment -> its tables, each (output file, CLI argv). Tables that share a
# file are joined under the first one's header; a table without a file is
# printed. The frontier holds the largest verify-purdy cells enumerated so far.
EXPERIMENTS = {
    "beck3": [("beck3.csv", "beck3 --n-list 20,30,40 --k-list 3,5,7 --seeds 5 --plant plane")],
    "conjecture": [("conjecture_d3.csv", "conjecture-search --d 3 --n 8 --samples 100")],
    "envelope": [
        ("envelope_bichromatic.csv", "envelope-sweep --construction bichromatic --d 3 --n0 8 --doublings 7"),
        ("envelope_thetamk.csv", "envelope-sweep --construction thetamk --d 3 --n0 8 --doublings 7"),
        ("envelope_bichromatic_d4.csv", "envelope-sweep --construction bichromatic --d 4 --n0 8 --doublings 5"),
    ],
    "purdy": [
        ("purdy_table.csv", "verify-purdy --d-range 4:5 --k-range 2:3"),
        (None, "fit --series {results}/h_series.txt"),
        (None, "fit --series {results}/g_series.txt"),
    ],
    "frontier": [
        ("purdy_frontier.csv", "verify-purdy --d-range 7 --k-range 2:3"),
        ("purdy_frontier.csv", "verify-purdy --d-range 8 --k-range 2:3"),
        ("purdy_frontier.csv", "verify-purdy --d-range 9 --k-range 2"),
        ("purdy_frontier.csv", "verify-purdy --d-range 10 --k-range 2"),
    ],
}


def write_series(results_dir: Path) -> None:
    """Write the closed-form h and g totals for d = 4 on the doublings
    k = 8..256 (n = 3k), the window acceptance criterion 3 fits: there the
    lower-order terms are small enough for the log-log slope to read the
    leading exponent."""
    for name, pick in (("h_series", "h_total"), ("g_series", "g_total")):
        rows = "".join(f"{3 * k},{getattr(purdy_counts(4, k), pick)}\n" for k in (8, 16, 32, 64, 128, 256))
        (results_dir / f"{name}.txt").write_text(f"# n, {pick} for d=4, k=8..256 doublings\n{rows}")


def reproduce(names, results_dir: Path, jobs: int) -> int:
    """Write the tables of the named experiments into ``results_dir``; return
    0, or the first nonzero CLI exit code."""
    results_dir.mkdir(exist_ok=True)
    for name in names:
        if name == "purdy":
            write_series(results_dir)
        joined: dict[Path, str] = {}
        for out, command in EXPERIMENTS[name]:
            argv = [word.format(results=results_dir) for word in command.split()]
            argv += ["--format", "csv", "--jobs", str(jobs)]
            path = results_dir / out if out else None
            code = main(argv + ["--out", str(path)] if path else argv)
            if code:
                return code
            if path in joined:
                path.write_text(joined[path] + path.read_text().split("\n", 1)[1])
            if path:
                joined[path] = path.read_text()
                print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME", help=f"one of {', '.join(EXPERIMENTS)}")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes for each CLI command (default 1)")
    args = parser.parse_args()
    for name in args.names:
        if name not in EXPERIMENTS:
            parser.error(f"unknown experiment {name!r} (choose from {', '.join(EXPERIMENTS)})")
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    sys.exit(reproduce(args.names or list(EXPERIMENTS), RESULTS, args.jobs))
