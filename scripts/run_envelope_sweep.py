#!/usr/bin/env python3
"""Doubling sweeps of both incidence-rich constructions against the bound
envelope; writes one table per construction and dimension into results/:
d = 3 from n = 8 to n = 1024 for both, and d = 4 from n = 8 to n = 256 for
the bichromatic construction."""

import sys
from pathlib import Path

from spanflats.cli import main

RESULTS = Path(__file__).resolve().parent.parent / "results"

# (construction, d, doublings, output file name)
SWEEPS = (
    ("bichromatic", 3, 7, "envelope_bichromatic.csv"),
    ("thetamk", 3, 7, "envelope_thetamk.csv"),
    ("bichromatic", 4, 5, "envelope_bichromatic_d4.csv"),
)


def run() -> int:
    RESULTS.mkdir(exist_ok=True)
    for construction, d, doublings, name in SWEEPS:
        out = RESULTS / name
        code = main(
            ["envelope-sweep", "--construction", construction, "--d", str(d),
             "--n0", "8", "--doublings", str(doublings), "--format", "csv",
             "--out", str(out)]
        )
        print(f"wrote {out}")
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(run())
