"""Batch experiment driver: a thin shell over the library.

Subcommands: enumerate, incidences, construct {erdos2d|bichromatic|thetamk|
purdy}, verify-purdy, fit, envelope-sweep, beck3, conjecture-search.
Exit codes: 0 success / all-match, 1 verification mismatch, 2 input error.

Each command only parses its options (refusing one it would not read),
calls the one ``check_*`` beside its row builder, which makes every other
refusal (a parameter out of range, or a largest row over the caps), maps
the row builder over the parameter tuples with ``pmap``, writes the table
with ``emit_table``, which echoes the options it names, and prints a
summary. Every refusal is a ``GeometryError``, which ``main`` reports as
one line and exit 2. Every row carries the full parameter tuple and seed,
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
import os
import statistics
import sys
from dataclasses import asdict
from functools import partial
from typing import Callable, Sequence

from .constructions import (
    BECK3_COLUMNS,
    ENVELOPE_COLUMNS,
    PURDY_COLUMNS,
    beck3_instance,  # noqa: F401  (traced by name: bench/layertrace.py TARGETS)
    beck3_row,
    bichromatic_lower_construction,
    check_beck3,
    check_construction,
    check_envelope_sweep,
    check_purdy_cell,
    envelope_row,
    erdos_grid_2d,
    purdy_counterexample,
    purdy_row,
    theta_mk_construction,
)
from .formulas import fit_loglog
from .incidence import BiArrangement, bound_envelope, check_incidences, count_bichromatic
from .kernel import GeometryError, parse_rational
from .spans import (
    CONJECTURE_COLUMNS,
    check_conjecture_search,
    check_enumerate,
    conjecture_row,
    data_lines,
    read_point_file,
    spanned_flats,
    write_point_file,
)

SCHEMA_TABLE = "spanflats-table/1"


def _format_cell(value) -> str:
    return format(value, ".12g") if isinstance(value, float) else str(value)


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
        _write_output(args, buf.getvalue())
    else:
        _write_json(args, {
            "schema": SCHEMA_TABLE,
            "command": command,
            "params": {name: getattr(args, name) for name in echo},
            "columns": list(columns),
            "rows": [{c: row[c] for c in columns} for row in rows],
        })


def _read_json(path: str):
    """The document in a JSON file; a file that does not decode is a GeometryError."""
    with open(path) as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise GeometryError(f"invalid JSON: {exc}") from None
    except ValueError:  # the only other one json raises: an int past Python's int <-> str limit
        raise GeometryError(
            f"invalid JSON: an integer of more than {sys.get_int_max_str_digits()} digits"
        ) from None
    except RecursionError:
        raise GeometryError("invalid JSON: nested deeper than the recursion limit") from None


def _write_json(args, doc: dict) -> None:
    _write_output(args, json.dumps(doc, indent=2) + "\n")


def _write_output(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def pmap(fn: Callable, items: Sequence, jobs: int) -> list:
    """Order-preserving map, fanned out over processes when jobs > 1; never
    more processes than items or cores. A serial map never loads the process
    pool: ``concurrent.futures`` is imported only when one is opened.

    Falls back to a serial map, with one line on stderr saying why, when the
    pool cannot start or take the items (OSError or BrokenProcessPool) or a
    worker dies while results are collected (BrokenProcessPool). An item's
    own error, OSError included, is raised at once and the item is not run
    again."""
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    def serial(why: str, exc: Exception) -> list:
        print(f"warning: the process pool {why} ({type(exc).__name__}: {exc}); "
              f"mapping {len(items)} items serially", file=sys.stderr)
        return [fn(item) for item in items]

    try:
        pool = ProcessPoolExecutor(max_workers=workers)
    except OSError as exc:
        return serial("could not start", exc)
    with pool:
        try:
            results = pool.map(fn, items)  # starts the workers, submits every item
        except (OSError, BrokenProcessPool) as exc:
            return serial("could not take the items", exc)
        try:
            return list(results)
        except BrokenProcessPool as exc:
            return serial("lost a worker", exc)


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
    if args.out and args.emit_json:
        raise GeometryError("--emit-json is not read with --out")
    with open(args.points) as fh:
        points = read_point_file(fh)
    export = bool(args.out or args.emit_json)
    check_enumerate(points, args.f, export)
    result = spanned_flats(points, args.f)
    export = result.to_json_dict() if export else None  # formatted before any write
    if args.out:  # the export goes to --out, or with --emit-json after the count
        _write_json(args, export)
    sys.stdout.write(f"{result.count}\n")
    if args.emit_json:
        _write_json(args, export)
    return 0


# ---------------------------------------------------------------- incidences


def cmd_incidences(args) -> int:
    if args.envelope and not args.out:
        raise GeometryError("--envelope is not read without --out")
    a = BiArrangement.from_json_dict(_read_json(args.arrangement))
    check_incidences(a)
    report = count_bichromatic(a)
    doc = report.to_json_dict()
    if args.envelope:
        doc["envelope"] = bound_envelope(a.m, a.k, a.n, a.d).to_json_dict()
    if args.out:
        _write_json(args, doc)
    print(report.red_incidences)
    return 0


# ---------------------------------------------------------------- construct


def cmd_construct(args) -> int:
    kind = args.kind
    if kind == "purdy":
        points = purdy_counterexample(args.d, args.k, args.seed)
        header = f"d={args.d} k={args.k} seed={args.seed} n={len(points)}"
        _write_output(args, write_point_file(points, ["spanflats construct purdy", header]))
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
        _write_json(args, doc)
        return 0
    provenance = {  # bichromatic or thetamk
        "command": f"construct {kind}", "d": args.d, "n": args.n, "k": args.k, "m": args.m
    }
    build, c0 = theta_mk_construction, 1
    if kind == "bichromatic":
        try:
            c0 = parse_rational(args.c0)
        except GeometryError as exc:
            raise GeometryError(f"--c0: {exc}") from None
        build, provenance["c0"] = partial(bichromatic_lower_construction, c0=c0), str(args.c0)
    check_construction(kind, args.d, args.n, args.k, args.m, c0)
    built = build(args.d, args.n, args.k, args.m)
    doc = {
        "schema": "spanflats-biarrangement/1",
        "provenance": provenance,
        **built.arrangement.to_json_dict(),
        "predicted_red_incidences": built.red_incidences,
    }
    _write_json(args, doc)
    return 0


# ---------------------------------------------------------------- verify-purdy


def cmd_verify_purdy(args) -> int:
    d_values = _parse_range(args.d_range)
    k_values = _parse_range(args.k_range)
    check_purdy_cell(d_values[0], k_values[0])
    check_purdy_cell(d_values[-1], k_values[-1])  # the costliest cell
    cells = [(d, k, args.seed) for d in d_values for k in k_values]
    rows = pmap(purdy_row, cells, args.jobs)
    emit_table(args, "verify-purdy", ("d_range", "k_range", "seed"), PURDY_COLUMNS, rows)
    ok = all(r["status"] == "ok" and r["h_match"] and r["g_match"] for r in rows)
    return 0 if ok else 1


# ---------------------------------------------------------------- fit


def cmd_fit(args) -> int:
    pairs = []
    with open(args.series) as fh:
        for lineno, line in data_lines(fh):
            parts = line.replace(",", " ").split()
            if len(parts) != 2:
                raise GeometryError(f"line {lineno}: expected two values, got {line!r}")
            try:
                pairs.append((float(parts[0]), float(parts[1])))
            except ValueError as exc:
                raise GeometryError(f"line {lineno}: {exc}") from exc
    row = asdict(fit_loglog(pairs))
    emit_table(args, "fit", ("series",), tuple(row), [row])
    return 0


# ---------------------------------------------------------------- envelope-sweep


def cmd_envelope_sweep(args) -> int:
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
    cells = check_beck3(n_values, k_values, args.seeds, args.seed, args.plant, args.format)
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
    if args.points:  # the file gives n, and its one row stands for the samples
        for name in ("n", "samples"):
            if getattr(args, name) is not None:
                raise GeometryError(f"--{name} is not read with --points")
    # the table echoes each default resolved: n 8, samples 100, the threshold d
    for name, default in (("n", 8), ("samples", 100), ("r", args.d)):
        if getattr(args, name) is None:
            setattr(args, name, default)
    points = check_conjecture_search(
        args.d, args.n, args.r, args.floor, args.samples, args.format, args.points
    )
    if points is not None:
        rows = [conjecture_row((0, args.d, len(points), args.r, args.seed, args.floor), points)]
    else:
        cells = [(s, args.d, args.n, args.r, args.seed, args.floor) for s in range(args.samples)]
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
    # A command takes only the flags it reads; the table commands take all four, fit
    # --format and --out.
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
    p.add_argument(
        "--emit-json", action="store_true", help="print the JSON export to stdout (not with --out)"
    )
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("incidences", parents=[out], help="count red incidences of an arrangement file")
    p.add_argument("--arrangement", required=True, help="BiArrangement JSON file")
    p.add_argument(
        "--envelope", action="store_true", help="include the bound envelope terms in --out"
    )
    p.set_defaults(func=cmd_incidences)

    p = sub.add_parser("construct", help="generate a construction")
    p.set_defaults(func=cmd_construct)
    kinds = p.add_subparsers(dest="kind", required=True)
    g = kinds.add_parser("erdos2d", parents=[out])
    g.add_argument("--r", type=int, required=True)
    g.add_argument("--s", type=int, required=True)
    for kind in ("bichromatic", "thetamk"):
        g = kinds.add_parser(kind, parents=[out])
        for name in ("--d", "--n", "--k", "--m"):
            g.add_argument(name, type=int, required=True)
        if kind == "bichromatic":
            g.add_argument("--c0", default="1", help="scale knob linking p to m (rational)")
    g = kinds.add_parser("purdy", parents=[seeded])
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--k", type=int, required=True)

    p = sub.add_parser("verify-purdy", parents=[table], help="formula vs enumeration table")
    p.add_argument("--d-range", required=True, help='e.g. "4" or "4:5"')
    p.add_argument("--k-range", required=True, help='e.g. "2:4"')
    p.set_defaults(func=cmd_verify_purdy)

    p = sub.add_parser("fit", parents=[formats, out], help="log-log least-squares slope of a series file")
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

    p = sub.add_parser("conjecture-search", parents=[table], help="ratio statistics over random "
                       "non-degenerate sets (uniform integer coordinates; one sampler among many)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, default=None, help="points per sample (default 8)")
    p.add_argument("--samples", type=int, default=None, help="sample count (default 100)")
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
    except (GeometryError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # reported below: inside the handler the failed frames are alive
        pass
    print("error: out of memory", file=sys.stderr)
    return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
