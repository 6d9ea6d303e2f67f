#!/usr/bin/env python3
"""Full desk-scale formula-vs-enumeration table plus growth-exponent fits.

Writes results/purdy_table.csv, results/h_series.txt, results/g_series.txt
and prints the fitted slopes. The series are the closed-form h and g totals
for d=4 on the doublings k = 8..256 (n = 3k), the same window that acceptance
criterion 3 fits: there the lower-order terms are small enough that the
log-log slope reads the leading exponent (see that test for the arithmetic).
Also writes results/purdy_frontier.csv, the verify-purdy rows at the largest
cells enumerated so far: d=7 and d=8 with k=2:3, and d=9 with k=2.
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

from spanflats import purdy_counts
from spanflats.cli import main

RESULTS = Path(__file__).resolve().parent.parent / "results"
SERIES_K = (8, 16, 32, 64, 128, 256)
FRONTIER = (("7", "2:3"), ("8", "2:3"), ("9", "2"))  # (--d-range, --k-range)


def write_frontier() -> int:
    """One CSV of the FRONTIER verify-purdy tables, the header written once."""
    lines: list[str] = []
    for d_range, k_range in FRONTIER:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(
                ["verify-purdy", "--d-range", d_range, "--k-range", k_range, "--format", "csv"]
            )
        if code != 0:
            return code
        header, *rows = buf.getvalue().splitlines(keepends=True)
        lines += rows if lines else [header, *rows]
    frontier = RESULTS / "purdy_frontier.csv"
    frontier.write_text("".join(lines))
    print(f"wrote {frontier}")
    return 0


def run() -> int:
    RESULTS.mkdir(exist_ok=True)
    table = RESULTS / "purdy_table.csv"
    code = main(
        ["verify-purdy", "--d-range", "4:5", "--k-range", "2:3",
         "--format", "csv", "--out", str(table)]
    )
    print(f"wrote {table}")
    if code != 0:
        return code

    for name, pick in (("h_series", "h_total"), ("g_series", "g_total")):
        series = RESULTS / f"{name}.txt"
        with open(series, "w") as fh:
            fh.write(f"# n, {pick} for d=4, k=8..256 doublings\n")
            for k in SERIES_K:
                counts = purdy_counts(4, k)
                fh.write(f"{3 * k},{getattr(counts, pick)}\n")
        code = main(["fit", "--series", str(series), "--format", "csv"])
        if code != 0:
            return code
    return write_frontier()


if __name__ == "__main__":
    sys.exit(run())
