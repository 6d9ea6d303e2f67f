"""Batch experiment driver: a thin shell over the library.

Subcommands: enumerate, incidences, construct {erdos2d|bichromatic|thetamk|
purdy}, verify-purdy, fit, envelope-sweep, beck3, conjecture-search.
Exit codes: 0 success / all-match, 1 verification mismatch, 2 input error.

Each command only parses its options, checks them, maps the row builder
over the parameter tuples with ``pmap``, writes the table with
``emit_table``, which echoes the options it names, and prints a summary.
The rows are built next to what they check: ``constructions.purdy_row``,
``envelope_row`` and ``beck3_row``, and ``spans.conjecture_row``, each
from its column table, which gives every column's value for a row that
measured nothing. Every row carries the full parameter tuple and seed,
and identical config + seed produces byte-identical output whatever --jobs
is set to: rows are computed independently and merged in parameter order.
A command that prints a count and writes ``--out`` writes the file first,
so a path it cannot write leaves stdout empty.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence

from .constructions import (
    BECK3_COLUMNS,
    ENVELOPE_COLUMNS,
    PURDY_COLUMNS,
    ConstructionError,
    beck3_instance,  # noqa: F401  (traced by name: bench/layertrace.py TARGETS)
    beck3_row,
    bichromatic_lower_construction,
    check_beck3_plant,
    check_envelope_sweep,
    check_purdy_cell,
    envelope_row,
    erdos_grid_2d,
    purdy_counterexample,
    purdy_row,
    theta_mk_construction,
)
from .formulas import FormulaDomainError, fit_loglog
from .incidence import BiArrangement, bound_envelope, count_bichromatic
from .kernel import GeometryError, common_dim, parse_rational
from .spans import (
    CONJECTURE_COLUMNS,
    check_walk_size,
    conjecture_row,
    read_point_file,
    spanned_flats,
    write_point_file,
)

SCHEMA_TABLE = "spanflats-table/1"


def _format_cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def emit_table(
    args, command: str, echo: Sequence[str], columns: Sequence[str], rows: Sequence[dict]
) -> None:
    """Write the rows as CSV or as the JSON table, whose params are the
    options named in ``echo``, read from ``args``."""
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row[c]) for c in columns])
        text = buf.getvalue()
    else:
        doc = {
            "schema": SCHEMA_TABLE,
            "command": command,
            "params": {name: getattr(args, name) for name in echo},
            "columns": list(columns),
            "rows": [{c: row[c] for c in columns} for row in rows],
        }
        text = json.dumps(doc, indent=2) + "\n"
    _write_output(args, text)


def _write_output(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def pmap(fn: Callable, items: Sequence, jobs: int) -> list:
    """Order-preserving map, fanned out over processes when jobs > 1; never
    more processes than items or cores.

    Falls back to a serial map when the pool cannot start or take the items
    (OSError or BrokenProcessPool) or a worker dies while results are
    collected (BrokenProcessPool). An item's own error, OSError included,
    is raised at once and the item is not run again."""
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(item) for item in items]
    try:
        pool = ProcessPoolExecutor(max_workers=workers)
    except OSError:
        return [fn(item) for item in items]
    with pool:
        try:
            results = pool.map(fn, items)  # starts the workers, submits every item
        except (OSError, BrokenProcessPool):
            return [fn(item) for item in items]
        try:
            return list(results)
        except BrokenProcessPool:
            return [fn(item) for item in items]


def _check_size(name: str, value: int) -> int:
    """Reject an integer no list, range or dimension can reach."""
    if abs(value) > sys.maxsize:
        raise GeometryError(f"{name} is out of range (magnitude above {sys.maxsize})")
    return value


def _parse_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise GeometryError(f"bad integer {text!r}") from None
    return _check_size("integer", value)


def _parse_range(text: str) -> range:
    """"4" -> range(4, 5); "2:5" -> range(2, 6), ascending and never listed."""
    lo, sep, hi = text.partition(":")
    values = range(_parse_int(lo), _parse_int(hi if sep else lo) + 1)
    if not values:
        raise GeometryError(f"empty range {text!r}")
    return values


def _parse_int_list(text: str) -> list[int]:
    values = [_parse_int(v) for v in text.split(",") if v.strip()]
    if not values:
        raise GeometryError(f"empty list {text!r}")
    return values


# ---------------------------------------------------------------- enumerate


def cmd_enumerate(args) -> int:
    with open(args.points) as fh:
        points = read_point_file(fh)
    check_walk_size(len(set(points)), args.f)
    result = spanned_flats(points, args.f)
    text = f"{result.count}\n"
    if args.out or args.emit_json:  # the export goes to --out, else after the count
        export = json.dumps(result.to_json_dict(), indent=2) + "\n"
        if args.out:
            _write_output(args, export)
        else:
            text += export
    sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------- incidences


def cmd_incidences(args) -> int:
    with open(args.arrangement) as fh:
        arrangement = BiArrangement.from_json_dict(json.load(fh))
    report = count_bichromatic(arrangement)
    doc = report.to_json_dict()
    if args.envelope:
        doc["envelope"] = bound_envelope(
            arrangement.m, arrangement.k, arrangement.n, arrangement.d
        ).to_json_dict()
    if args.out:
        _write_output(args, json.dumps(doc, indent=2) + "\n")
    print(report.red_incidences)
    return 0


# ---------------------------------------------------------------- construct


def cmd_construct(args) -> int:
    kind = args.kind
    if kind == "purdy":
        points = purdy_counterexample(args.d, args.k, args.seed)
        header = [
            "spanflats construct purdy",
            f"d={args.d} k={args.k} seed={args.seed} n={len(points)}",
        ]
        _write_output(args, write_point_file(points, header))
        return 0
    if kind == "erdos2d":
        grid = erdos_grid_2d(args.r, args.s)
        doc = {
            "schema": "spanflats-erdos2d/1",
            "provenance": {"command": "construct erdos2d", "r": args.r, "s": args.s},
            "lines": [line.serialize_rows() for line in grid.lines],
            "vertices": [p.serialize() for p in grid.vertices],
            "incidences": grid.incidences,
        }
        _write_output(args, json.dumps(doc, indent=2) + "\n")
        return 0
    provenance = {  # bichromatic or thetamk
        "command": f"construct {kind}",
        "d": args.d,
        "n": args.n,
        "k": args.k,
        "m": args.m,
    }
    if kind == "bichromatic":
        built = bichromatic_lower_construction(
            args.d, args.n, args.k, args.m, c0=parse_rational(args.c0)
        )
        provenance["c0"] = str(args.c0)
    else:
        built = theta_mk_construction(args.d, args.n, args.k, args.m)
    doc = {
        "schema": "spanflats-biarrangement/1",
        "provenance": provenance,
        **built.arrangement.to_json_dict(),
        "predicted_red_incidences": built.red_incidences,
    }
    _write_output(args, json.dumps(doc, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------- verify-purdy


def cmd_verify_purdy(args) -> int:
    d_values = _parse_range(args.d_range)
    k_values = _parse_range(args.k_range)
    check_purdy_cell(d_values[0], k_values[0])
    check_purdy_cell(d_values[-1], k_values[-1])  # the cell with the most subsets
    cells = [(d, k, args.seed) for d in d_values for k in k_values]
    rows = pmap(purdy_row, cells, args.jobs)
    emit_table(args, "verify-purdy", ("d_range", "k_range", "seed"), PURDY_COLUMNS, rows)
    ok = all(r["status"] == "ok" and r["h_match"] and r["g_match"] for r in rows)
    return 0 if ok else 1


# ---------------------------------------------------------------- fit


def _read_series(path: str) -> list[tuple[float, float]]:
    pairs = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 2:
                raise GeometryError(f"line {lineno}: expected two values, got {line!r}")
            try:
                pairs.append((float(parts[0]), float(parts[1])))
            except ValueError as exc:
                raise GeometryError(f"line {lineno}: {exc}") from exc
    return pairs


def cmd_fit(args) -> int:
    pairs = _read_series(args.series)
    result = fit_loglog(pairs)
    row = {
        "slope": result.slope,
        "intercept": result.intercept,
        "r_squared": result.r_squared,
        "points_used": result.points_used,
    }
    emit_table(args, "fit", ("series",), tuple(row), [row])
    return 0


# ---------------------------------------------------------------- envelope-sweep


def cmd_envelope_sweep(args) -> int:
    if not 0 < args.k_frac <= 1:
        raise GeometryError(f"--k-frac must be in (0, 1], got {args.k_frac}")
    min_d = 3 if args.construction == "bichromatic" else 2
    if args.d < min_d:
        raise GeometryError(f"d >= {min_d} required for {args.construction}")
    if args.n0 < 1 or args.p < 1:
        raise GeometryError("--n0 and --p must be >= 1")
    if args.doublings < 0:
        raise GeometryError(f"--doublings must be >= 0, got {args.doublings}")
    check_envelope_sweep(args.construction, args.d, args.n0, args.doublings, args.k_frac, args.p)
    steps = [
        (args.construction, args.d, i, args.n0 * 2**i, args.k_frac, args.p, args.seed)
        for i in range(args.doublings + 1)
    ]
    rows = pmap(envelope_row, steps, args.jobs)
    echo = ("construction", "d", "n0", "doublings", "k_frac", "p", "seed")
    emit_table(args, "envelope-sweep", echo, ENVELOPE_COLUMNS, rows)
    ratios = [r["ratio"] for r in rows if r["status"] == "ok"]
    if ratios:
        print(f"max ratio {max(ratios):.6g} over {len(ratios)} steps")
    return 0


# ---------------------------------------------------------------- beck3


def cmd_beck3(args) -> int:
    n_values = _parse_int_list(args.n_list)
    k_values = _parse_int_list(args.k_list)
    if args.seeds < 1:
        raise GeometryError(f"--seeds must be >= 1, got {args.seeds}")
    cells = [
        (n, k, seed, args.plant if args.plant != "mix" else ("plane" if seed % 2 == 0 else "skew"))
        for n in n_values
        for k in k_values
        for seed in range(args.seed, args.seed + args.seeds)
    ]
    for n, k, _, plant in cells:
        check_beck3_plant(n, k, plant)
    check_walk_size(max(n_values), 2)
    rows = pmap(beck3_row, cells, args.jobs)
    echo = ("n_list", "k_list", "seeds", "seed", "plant")
    emit_table(args, "beck3", echo, BECK3_COLUMNS, rows)
    good = [r for r in rows if r["status"] == "ok"]
    ratios = [r["ratio"] for r in good]
    if ratios:
        print(
            f"min ratio {min(ratios):.6g}, median {statistics.median(ratios):.6g}"
            f" over {len(ratios)} instances"
        )
    all_ok = bool(good) and len(good) == len(rows) and all(r["hypothesis_ok"] for r in good)
    return 0 if all_ok else 1


# ---------------------------------------------------------------- conjecture-search


def cmd_conjecture_search(args) -> int:
    if args.d < 3:
        raise GeometryError("d >= 3 required")
    if args.n < 1:
        raise GeometryError(f"--n must be >= 1, got {args.n}")
    if args.r is None:  # the threshold defaults to d, and the table echoes it resolved
        args.r = args.d
    if args.r < 1:
        raise GeometryError(f"--r must be >= 1, got {args.r}")
    if not math.isfinite(args.floor):
        raise GeometryError(f"--floor must be finite, got {args.floor}")
    if args.points:
        with open(args.points) as fh:
            points = read_point_file(fh)
        if common_dim(points) != args.d:
            raise GeometryError(f"point file is E^{points[0].dim}, --d is {args.d}")
    elif args.samples < 1:
        raise GeometryError(f"--samples must be >= 1, got {args.samples}")
    n = len(set(points)) if args.points else args.n
    for f in range(1, min(args.d, n)):  # the cover searches walk every level
        check_walk_size(n, f)
    if args.points:
        rows = [conjecture_row((0, args.d, len(points), args.r, args.seed, args.floor), points)]
    else:
        cells = [
            (sample, args.d, args.n, args.r, args.seed, args.floor)
            for sample in range(args.samples)
        ]
        rows = pmap(conjecture_row, cells, args.jobs)
    echo = ("d", "n", "r", "samples", "seed", "floor")
    emit_table(args, "conjecture-search", echo, CONJECTURE_COLUMNS, rows)
    kept = [row for row in rows if not row["degenerate"]]
    if kept:
        for name in ("incidence_ratio", "span_ratio"):
            values = [row[name] for row in kept]
            print(
                f"{name}: min {min(values):.6g}, median {statistics.median(values):.6g}"
                f" over {len(values)} samples"
            )
        flagged = sum(1 for row in kept if row["flagged"])
        print(f"flagged {flagged} of {len(kept)} samples (floor {args.floor})")
    else:
        print("all samples degenerate; nothing to report")
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spanflats",
        description="Exact enumeration of spanned flats, bichromatic incidence "
        "counting, extremal constructions, and growth checks.",
    )
    # A command takes only the flags it reads; the table commands and fit take all four.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output path (default: stdout)")
    seeded = argparse.ArgumentParser(add_help=False, parents=[out])
    seeded.add_argument("--seed", type=int, default=0)
    formats = argparse.ArgumentParser(add_help=False)
    formats.add_argument("--format", choices=("json", "csv"), default="json")
    table = argparse.ArgumentParser(add_help=False, parents=[formats, seeded])
    table.add_argument("--jobs", type=int, default=1)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", parents=[out], help="spanned f-flats of a point file")
    p.add_argument("--points", required=True, help="point-set file, one point per line")
    p.add_argument("--f", type=int, required=True, help="flat dimension to enumerate")
    p.add_argument("--emit-json", action="store_true", help="print the JSON export to stdout")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("incidences", parents=[out], help="count red incidences of an arrangement file")
    p.add_argument("--arrangement", required=True, help="BiArrangement JSON file")
    p.add_argument("--envelope", action="store_true", help="include the bound envelope terms")
    p.set_defaults(func=cmd_incidences)

    p = sub.add_parser("construct", help="generate a construction")
    kinds = p.add_subparsers(dest="kind", required=True)
    g = kinds.add_parser("erdos2d", parents=[out])
    g.add_argument("--r", type=int, required=True)
    g.add_argument("--s", type=int, required=True)
    g.set_defaults(func=cmd_construct)
    g = kinds.add_parser("bichromatic", parents=[out])
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--c0", default="1", help="scale knob linking p to m (rational)")
    g.set_defaults(func=cmd_construct)
    g = kinds.add_parser("thetamk", parents=[out])
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.set_defaults(func=cmd_construct)
    g = kinds.add_parser("purdy", parents=[seeded])
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify-purdy", parents=[table], help="formula vs enumeration table")
    p.add_argument("--d-range", required=True, help='e.g. "4" or "4:5"')
    p.add_argument("--k-range", required=True, help='e.g. "2:4"')
    p.set_defaults(func=cmd_verify_purdy)

    p = sub.add_parser("fit", parents=[table], help="log-log least-squares slope of a series file")
    p.add_argument("--series", required=True, help="file of x,count pairs")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("envelope-sweep", parents=[table], help="measured red incidences vs envelope")
    p.add_argument("--construction", choices=("bichromatic", "thetamk"), required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n0", type=int, required=True, help="first rung of the doubling ladder")
    p.add_argument("--doublings", type=int, default=3)
    p.add_argument("--k-frac", type=float, default=0.5, help="k as a fraction of n")
    p.add_argument("--p", type=int, default=4, help="grid scale: p vertices per 2-D copy / pencil side")
    p.set_defaults(func=cmd_envelope_sweep)

    p = sub.add_parser("beck3", parents=[table], help="planted spanned-plane growth experiment")
    p.add_argument("--n-list", required=True, help='e.g. "20,30,40"')
    p.add_argument("--k-list", required=True, help='e.g. "3,5,7"')
    p.add_argument("--seeds", type=int, default=5, help="seeds per (n, k) cell")
    p.add_argument("--plant", choices=("plane", "skew", "mix"), default="plane")
    p.set_defaults(func=cmd_beck3)

    p = sub.add_parser(
        "conjecture-search",
        parents=[table],
        help="ratio statistics over random non-degenerate sets "
        "(uniform integer coordinates; one sampler among many)",
    )
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--r", type=int, default=None, help="degeneracy threshold (default d)")
    p.add_argument("--floor", type=float, default=0.0, help="flag samples whose ratio falls below")
    p.add_argument("--points", default=None, help="evaluate one point-set file instead of sampling")
    p.set_defaults(func=cmd_conjecture_search)

    return parser


def _check_common(args) -> None:
    """Checks every subcommand shares: --jobs (where taken) is at least 1, and
    no integer option but the --seed label is beyond any size a run could hold."""
    if getattr(args, "jobs", 1) < 1:
        raise GeometryError(f"--jobs must be >= 1, got {args.jobs}")
    for name, value in vars(args).items():
        if type(value) is int and name != "seed":
            _check_size(f"--{name.replace('_', '-')}", value)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_common(args)
        return args.func(args)
    except (
        GeometryError, ConstructionError, FormulaDomainError, OSError, UnicodeDecodeError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # reported below: inside the handler the failed frames are alive
        pass
    print("error: out of memory", file=sys.stderr)
    return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
