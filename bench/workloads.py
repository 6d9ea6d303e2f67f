"""The benchmark's workloads: CLI argument lists and their pinned outputs.

Each workload is one exact cell the repository already runs. The workload
seed is passed to the CLI as ``--seed``; everything else is fixed. The
sha256 of each workload's CLI stdout at the default seed (0) is pinned so a
change in any output byte is caught, and the row check columns are checked
at every seed.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 0

# Table columns that must be true on every row that has them.
CHECK_COLUMNS = ("h_match", "g_match", "hypothesis_ok")


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]
    pinned_sha256: str

    def argv(self, seed: int, jobs: int = 1) -> list[str]:
        return [*self.args, "--seed", str(seed), "--jobs", str(jobs)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "beck3-plane",
            ("beck3", "--n-list", "40", "--k-list", "7", "--seeds", "1", "--plant", "plane"),
            "650a0b6f90bfd4d7065103bd8008ee17c463a976b51b69703d2fedf7f45ac399",
        ),
        Workload(
            "envelope-bichromatic",
            ("envelope-sweep", "--construction", "bichromatic", "--d", "3",
             "--n0", "8", "--doublings", "5"),
            "686c7a3c2d1bea21a8de7bf10d1f261d2c1b78c94d3acc63be226978e893348f",
        ),
        Workload(
            "purdy-d6",
            ("verify-purdy", "--d-range", "6", "--k-range", "2:3"),
            "ecf7e49959d36be7b0078dbdb7a7e45d953367bdc63c14fc00f1ac585b3ce9cb",
        ),
        Workload(
            "conjecture-d3",
            ("conjecture-search", "--d", "3", "--n", "8", "--samples", "100"),
            "d1fe93c3bb59fd6202ddedd43b881494e8809a3fb85df17bcb3d2049ff03ad58",
        ),
    )
}

# The workload that is also run at --jobs 2 to check that its bytes match.
JOBS_CHECK_WORKLOAD = "conjecture-d3"
