import csv
import hashlib
import importlib
import io
import json
import os
import pkgutil
import random
import string
import subprocess
import sys
import time
import tracemalloc
import types
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spanflats
from spanflats import cli, constructions, incidence, spans
from spanflats.cli import main
from spanflats.constructions import (
    BECK3_COLUMNS,
    PURDY_COLUMNS,
    beck3_instance,
    beck3_row,
    check_envelope_sweep,
    envelope_row,
    purdy_row,
)
from spanflats.formulas import fit_loglog
from spanflats.incidence import BiArrangement, count_bichromatic
from spanflats.kernel import GeometryError
from spanflats.spans import conjecture_row, read_point_file


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


# --- enumerate ---------------------------------------------------------------


@pytest.mark.parametrize("d, n, f", [(4, 1, 2), (6, 2, 5), (6, 3, 3)])
def test_enumerate_with_fewer_points_than_a_flat_needs_is_zero(tmp_path, capsys, d, n, f):
    # no prefix of f + 1 points exists, so the walk keeps no level; pricing
    # the levels below it must not ask for the subsets of a negative count
    pts = tmp_path / "pts.txt"
    pts.write_text("".join(",".join(str(i * (j + 1)) for j in range(d)) + "\n" for i in range(n)))
    assert run_cli(capsys, "enumerate", "--points", str(pts), "--f", str(f)) == (0, "0\n", "")


def test_enumerate_counts_planes(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("0,0,0\n1,0,0\n0,1,0\n0,0,1\n")
    code, out, _ = run_cli(capsys, "enumerate", "--points", str(pts), "--f", "2")
    assert code == 0
    assert out.strip() == "4"


def test_enumerate_purdy_file(tmp_path, capsys):
    purdy = tmp_path / "purdy.txt"
    code, _, _ = run_cli(
        capsys, "construct", "purdy", "--d", "4", "--k", "2", "--out", str(purdy)
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "enumerate", "--points", str(purdy), "--f", "3")
    assert code == 0 and out.strip() == "15"


def test_enumerate_writes_export(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("0,0\n1,0\n0,1\n")
    out_path = tmp_path / "spanned.json"
    code, out, _ = run_cli(
        capsys, "enumerate", "--points", str(pts), "--f", "1", "--out", str(out_path)
    )
    assert code == 0 and out.strip() == "3"
    doc = json.loads(out_path.read_text())
    assert doc["count"] == 3 and len(doc["flats"]) == 3


@pytest.mark.parametrize("command", ["enumerate", "incidences"])
def test_unwritable_out_leaves_stdout_empty(tmp_path, capsys, command):
    # both print a count; the --out file is written first, so a path that
    # cannot be written fails before the count is printed
    pts = tmp_path / "pts.txt"
    pts.write_text("0,0,0\n1,0,0\n0,1,0\n0,0,1\n")
    arr = tmp_path / "arr.json"
    assert main(["construct", "thetamk", "--d", "3", "--n", "8", "--k", "3", "--m", "4",
                 "--out", str(arr)]) == 0
    inputs = {"enumerate": ["--points", str(pts), "--f", "0"],
              "incidences": ["--arrangement", str(arr)]}
    missing = str(tmp_path / "no-such-dir" / "x.json")
    code, out, err = run_cli(capsys, command, *inputs[command], "--out", missing)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_enumerate_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n")
    code, _, err = run_cli(capsys, "enumerate", "--points", str(empty), "--f", "1")
    assert code == 2
    assert "empty hull" in err


def test_enumerate_parse_error_has_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1,2,3\nnot-a-point\n")
    code, _, err = run_cli(capsys, "enumerate", "--points", str(bad), "--f", "1")
    assert code == 2
    assert "line 2" in err


# --- construct / incidences ---------------------------------------------------


def test_construct_purdy_round_trips(tmp_path, capsys):
    path = tmp_path / "p.txt"
    code, _, _ = run_cli(
        capsys, "construct", "purdy", "--d", "4", "--k", "3", "--seed", "2",
        "--out", str(path),
    )
    assert code == 0
    text = path.read_text()
    assert text.startswith("#")
    assert "d=4 k=3 seed=2" in text
    with open(path) as fh:
        assert len(read_point_file(fh)) == 9


@pytest.mark.parametrize("option", [["--out", "F"], ["--seed", "5"], ["--jobs", "0"]])
def test_construct_options_go_after_the_kind(tmp_path, capsys, monkeypatch, option):
    # options before the kind were once parsed and then silently dropped
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["construct", *option, "purdy", "--d", "4", "--k", "2"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "F").exists()


def test_construct_bichromatic_and_count(tmp_path, capsys):
    arr_path = tmp_path / "bi.json"
    code, _, _ = run_cli(
        capsys, "construct", "bichromatic", "--d", "3", "--n", "8", "--k", "4",
        "--m", "32", "--out", str(arr_path),
    )
    assert code == 0
    doc = json.loads(arr_path.read_text())
    assert doc["predicted_red_incidences"] == 32
    assert doc["provenance"]["k"] == 4

    rep_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "incidences", "--arrangement", str(arr_path), "--envelope",
        "--out", str(rep_path),
    )
    assert code == 0 and out.strip() == "32"
    report = json.loads(rep_path.read_text())
    assert report["red_incidences"] == 32
    assert "envelope" in report and report["envelope"]["term_m"] == 16


def test_construct_thetamk(tmp_path, capsys):
    path = tmp_path / "theta.json"
    code, _, _ = run_cli(
        capsys, "construct", "thetamk", "--d", "3", "--n", "6", "--k", "2",
        "--m", "2", "--out", str(path),
    )
    assert code == 0
    arrangement = BiArrangement.from_json_dict(json.loads(path.read_text()))
    assert count_bichromatic(arrangement).red_incidences == 4


def test_construct_erdos2d(tmp_path, capsys):
    path = tmp_path / "grid.json"
    code, _, _ = run_cli(
        capsys, "construct", "erdos2d", "--r", "2", "--s", "2", "--out", str(path)
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["incidences"] == 8 and len(doc["lines"]) == 4


def test_construct_infeasible_is_input_error(capsys):
    code, _, err = run_cli(
        capsys, "construct", "bichromatic", "--d", "3", "--n", "8", "--k", "4", "--m", "1"
    )
    assert code == 2 and "error" in err


# --- verify-purdy --------------------------------------------------------------


def test_verify_purdy_table(tmp_path, capsys):
    path = tmp_path / "table.csv"
    code, _, _ = run_cli(
        capsys, "verify-purdy", "--d-range", "4", "--k-range", "2:3",
        "--format", "csv", "--out", str(path),
    )
    assert code == 0
    rows = read_csv(path)
    assert [r["k"] for r in rows] == ["2", "3"]
    assert all(r["h_match"] == "True" and r["g_match"] == "True" for r in rows)
    assert all(r["g_gt_h"] == "True" for r in rows)


def test_verify_purdy_rejects_small_k(capsys):
    code, _, err = run_cli(capsys, "verify-purdy", "--d-range", "4", "--k-range", "1:2")
    assert code == 2
    assert "k >= 2" in err


# --- fit -----------------------------------------------------------------------


def test_fit_exact_power_law(tmp_path, capsys):
    series = tmp_path / "series.txt"
    series.write_text("1,1\n2,4\n4,16\n")
    out = tmp_path / "fit.json"
    code, _, _ = run_cli(capsys, "fit", "--series", str(series), "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    row = doc["rows"][0]
    assert abs(row["slope"] - 2.0) < 1e-9
    assert row["points_used"] == 3


def test_fit_rejects_nonpositive(tmp_path, capsys):
    series = tmp_path / "series.txt"
    series.write_text("1,1\n2,-4\n")
    code, _, err = run_cli(capsys, "fit", "--series", str(series))
    assert code == 2 and "positive" in err


def test_fit_rejects_single_pair(tmp_path, capsys):
    series = tmp_path / "series.txt"
    series.write_text("2,4\n")
    code, _, _ = run_cli(capsys, "fit", "--series", str(series))
    assert code == 2


def test_fit_loglog_r_squared():
    fit = fit_loglog([(1, 1), (2, 4), (4, 16)])
    assert abs(fit.r_squared - 1.0) < 1e-12


# --- envelope sweep -------------------------------------------------------------


def test_envelope_sweep_bichromatic(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys, "envelope-sweep", "--construction", "bichromatic", "--d", "3",
        "--n0", "8", "--doublings", "2", "--format", "csv", "--out", str(path),
    )
    assert code == 0
    rows = read_csv(path)
    assert len(rows) == 3
    assert all(r["status"] == "ok" for r in rows)
    assert "max ratio" in out
    ratios = [float(r["ratio"]) for r in rows]
    assert all(r > 0 for r in ratios)


def test_envelope_sweep_thetamk_realizes_mk(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "envelope-sweep", "--construction", "thetamk", "--d", "3",
        "--n0", "8", "--doublings", "1", "--p", "3", "--format", "csv",
        "--out", str(path),
    )
    assert code == 0
    for row in read_csv(path):
        assert int(row["red_measured"]) == int(row["m"]) * int(row["k"])


def test_envelope_sweep_skips_infeasible(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "envelope-sweep", "--construction", "thetamk", "--d", "3",
        "--n0", "4", "--doublings", "1", "--p", "9", "--format", "csv",
        "--out", str(path),
    )
    assert code == 0
    rows = read_csv(path)
    assert rows[0]["status"].startswith("skipped")


def test_envelope_cap_admits_the_committed_sweeps():
    # (construction, d, n0, doublings, k_frac, p) as scripts/reproduce.py runs them
    for construction, d, doublings in (
        ("bichromatic", 3, 7), ("thetamk", 3, 7), ("bichromatic", 4, 5)
    ):
        check_envelope_sweep(construction, d, 8, doublings, 0.5, 4)
    # the last admitted rungs: n = 2,048, 1,024, 524,288 and 32,768
    check_envelope_sweep("bichromatic", 3, 8, 8, 0.5, 4)
    check_envelope_sweep("bichromatic", 4, 8, 7, 0.5, 4)
    check_envelope_sweep("thetamk", 3, 8, 16, 0.5, 4)
    check_envelope_sweep("thetamk", 4, 8, 12, 0.5, 30)


@pytest.mark.parametrize("params, message", [
    (("bichromatic", 3, 8, 9, 0.5, 4), "bytes, over the cap of 1,073,741,824"),
    (("thetamk", 3, 8, 17, 0.5, 4), "bytes, over the cap of 1,073,741,824"),
    (("thetamk", 3, 2**62, 1, 0.5, 4), "bytes, over the cap of 1,073,741,824"),
    (("bichromatic", 4, 8, 8, 0.5, 4), "bytes, over the cap of 1,073,741,824"),
    (("thetamk", 4, 8, 13, 0.5, 30), "entry operations, over the cap of 200,000,000"),
    (("thetamk", 2**62, 8, 0, 0.5, 2), "bytes, over the cap of 1,073,741,824"),
    (("bichromatic", 10**12, 8, 0, 0.5, 4), "d = 1000000000000 > n = 8"),
    (("bichromatic", 17, 8, 1, 0.5, 4), "d = 17 > n = 16"),
    (("thetamk", 65000, 8, 13, 0.5, 1), "bytes, over the cap of 1,073,741,824"),
])
def test_envelope_cap_refuses_a_last_rung_over_it(params, message):
    with pytest.raises(GeometryError, match=message):
        check_envelope_sweep(*params)


# --- generator failures -----------------------------------------------------------


def _fail(*args):
    raise GeometryError("no admissible instance (forced)")


def test_purdy_row_reports_a_failed_generator(monkeypatch, capsys):
    monkeypatch.setattr(constructions, "purdy_counterexample", _fail)
    row = purdy_row((4, 2, 0))
    assert set(row) == set(PURDY_COLUMNS)
    assert row["h_enumerated"] == row["g_enumerated"] == -1
    assert row["status"].startswith("error: ")
    assert not row["h_match"] and not row["g_match"]
    code, _, _ = run_cli(
        capsys, "verify-purdy", "--d-range", "4", "--k-range", "2", "--format", "csv"
    )
    assert code == 1


def test_purdy_row_reports_a_cell_over_the_walk_cap():
    # the formula columns are filled before the generator runs
    assert purdy_row((8, 4, 0)) == {
        "d": 8, "k": 4, "n": 28, "seed": 0, "h_formula": 58947, "h_enumerated": -1,
        "g_formula": 73392, "g_enumerated": -1, "h_match": False, "g_match": False,
        "g_gt_h": True, "status": "error: Purdy cell (8, 4) needs about 298,378,080 entry"
        " operations, over the cap of 200,000,000",
    }


def test_beck3_row_reports_a_plant_it_cannot_meet():
    assert beck3_row((7, 4, 0, "plane")) == {
        "n": 7, "k": 4, "seed": 0, "plant": "plane", "hypothesis_ok": False,
        "max_cover": -1, "planes": -1, "ratio": 0.0,
        "status": "error: k >= 1 and n-k >= 4 required, got n=7, k=4",
    }


def test_a_failed_generator_is_exit_2(monkeypatch, capsys):
    monkeypatch.setattr(constructions, "PURDY_ATTEMPTS", 0)
    code, out, err = run_cli(capsys, "construct", "purdy", "--d", "4", "--k", "2")
    assert (code, out) == (2, "")
    assert err == "error: general position not reached after 0 attempts: no attempts made\n"


def test_geometry_error_is_the_packages_only_exception():
    # cli.main catches GeometryError alone of the package's own classes
    defined = set()
    for info in pkgutil.iter_modules(spanflats.__path__):
        module = importlib.import_module(f"spanflats.{info.name}")
        defined |= {
            f"{obj.__module__}.{obj.__qualname__}" for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, BaseException)
            and obj.__module__ == module.__name__
        }
    assert defined == {"spanflats.kernel.GeometryError"}


def test_beck3_row_reports_a_failed_generator(monkeypatch, capsys):
    monkeypatch.setattr(constructions, "beck3_instance", _fail)
    row = beck3_row((12, 3, 0, "plane"))
    assert set(row) == set(BECK3_COLUMNS)
    assert row["max_cover"] == row["planes"] == -1
    assert row["status"].startswith("error: ")
    assert row["hypothesis_ok"] is False
    code, _, _ = run_cli(
        capsys, "beck3", "--n-list", "12", "--k-list", "3", "--seeds", "1", "--format", "csv"
    )
    assert code == 1


# --- beck3 ----------------------------------------------------------------------


def test_beck3_instance_hypothesis():
    pts, covered = beck3_instance(12, 3, seed=0, plant="plane")
    assert (len(pts), covered) == (12, 9)
    pts_skew, covered_skew = beck3_instance(12, 4, seed=0, plant="skew")
    assert (len(pts_skew), covered_skew) == (12, 8)


@pytest.mark.parametrize("n, plant", [(247, "skew"), (14646, "plane")])
def test_beck3_instance_refuses_a_plant_it_cannot_hold(n, plant):
    # 121 distinct t per skew line, 121^2 (alpha, beta) pairs on the plane
    with pytest.raises(GeometryError, match="can hold"):
        beck3_instance(n, 4, seed=0, plant=plant)


def test_beck3_command(tmp_path, capsys):
    path = tmp_path / "beck3.csv"
    code, out, _ = run_cli(
        capsys, "beck3", "--n-list", "12", "--k-list", "3", "--seeds", "2",
        "--format", "csv", "--out", str(path),
    )
    assert code == 0
    rows = read_csv(path)
    assert len(rows) == 2
    assert all(r["hypothesis_ok"] == "True" for r in rows)
    assert all(float(r["ratio"]) > 0 for r in rows)
    assert "min ratio" in out


def test_beck3_skew_plant(tmp_path, capsys):
    path = tmp_path / "beck3.csv"
    code, _, _ = run_cli(
        capsys, "beck3", "--n-list", "12", "--k-list", "4", "--seeds", "1",
        "--plant", "skew", "--format", "csv", "--out", str(path),
    )
    assert code == 0
    assert read_csv(path)[0]["max_cover"] == "8"


def test_beck3_rejects_zero_k(capsys):
    code, _, _ = run_cli(capsys, "beck3", "--n-list", "12", "--k-list", "0")
    assert code == 2


def test_beck3_mix_alternates_plants(tmp_path, capsys):
    path = tmp_path / "mix.csv"
    code, _, _ = run_cli(
        capsys, "beck3", "--n-list", "12", "--k-list", "4", "--seeds", "2",
        "--plant", "mix", "--format", "csv", "--out", str(path),
    )
    assert code == 0
    assert [r["plant"] for r in read_csv(path)] == ["plane", "skew"]


def test_all_generic_set_spans_all_triples():
    # no plant at all: every triple of a generic set spans its own plane
    import random
    from math import comb

    from spanflats.kernel import Point
    from spanflats.spans import spanned_flats

    rng = random.Random("generic-planes")
    pts = []
    while len(pts) < 8:
        candidate = Point(rng.randint(-999, 999) for _ in range(3))
        if candidate not in pts:
            pts.append(candidate)
    planes = spanned_flats(pts, 2)
    assert planes.count == comb(8, 3)
    assert all(len(idxs) == 3 for idxs in planes.per_flat_points)


# --- conjecture search -----------------------------------------------------------


def test_conjecture_search_report(tmp_path, capsys):
    path = tmp_path / "conj.csv"
    code, out, _ = run_cli(
        capsys, "conjecture-search", "--d", "3", "--n", "7", "--samples", "3",
        "--format", "csv", "--out", str(path),
    )
    assert code == 0
    rows = read_csv(path)
    assert len(rows) == 3
    kept = [r for r in rows if r["degenerate"] == "False"]
    assert all(float(r["span_ratio"]) > 0 for r in kept)
    assert "span_ratio" in out


def test_conjecture_search_rejects_small_d(capsys):
    code, _, _ = run_cli(capsys, "conjecture-search", "--d", "2", "--n", "5")
    assert code == 2


def test_conjecture_search_flags_coplanar_file(tmp_path, capsys):
    flat_file = tmp_path / "coplanar.txt"
    flat_file.write_text("0,0,0\n1,0,0\n0,1,0\n1,1,0\n2,3,0\n")
    out = tmp_path / "row.csv"
    code, _, _ = run_cli(
        capsys, "conjecture-search", "--d", "3", "--points", str(flat_file),
        "--format", "csv", "--out", str(out),
    )
    assert code == 0
    assert read_csv(out)[0]["degenerate"] == "True"


def test_enumerate_rejects_out_of_range_f(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("0,0\n1,0\n")
    code, _, err = run_cli(capsys, "enumerate", "--points", str(pts), "--f", "2")
    assert code == 2 and "out of range" in err


def test_incidences_rejects_color_duplicate(tmp_path, capsys):
    doc = {
        "d": 2,
        "red": [[["1", "0", "0"]]],
        "blue": [[["1", "0", "0"]]],
        "vertices": [],
    }
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "incidences", "--arrangement", str(path))
    assert code == 2 and "same hyperplane" in err


def test_incidences_envelope_without_vertices_is_input_error(tmp_path, capsys):
    doc = {"d": 2, "red": [[["1", "0", "0"]]], "blue": [[["0", "1", "0"]]], "vertices": []}
    path = tmp_path / "novertex.json"
    path.write_text(json.dumps(doc))
    report = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys, "incidences", "--arrangement", str(path), "--envelope", "--out", str(report)
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not report.exists()


def test_conjecture_search_on_point_file(tmp_path, capsys):
    purdy = tmp_path / "purdy.txt"
    assert run_cli(
        capsys, "construct", "purdy", "--d", "4", "--k", "2", "--out", str(purdy)
    )[0] == 0
    out = tmp_path / "row.csv"
    code, _, _ = run_cli(
        capsys, "conjecture-search", "--d", "4", "--points", str(purdy),
        "--format", "csv", "--out", str(out),
    )
    assert code == 0
    row = read_csv(out)[0]
    # the covering-lines family is d-degenerate (d-1 lines, dims sum to d-1),
    # which is exactly why the degeneracy-based conjectures exclude it; the
    # harness still records its finite ratios
    assert row["degenerate"] == "True"
    assert float(row["incidence_ratio"]) > 0
    assert int(row["hyperplanes"]) == 15 and int(row["codim2_flats"]) == 20


# --- determinism ------------------------------------------------------------------


def test_outputs_identical_across_job_widths(tmp_path, capsys):
    args = [
        "verify-purdy", "--d-range", "4", "--k-range", "2:3", "--format", "csv",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(capsys, *args, "--jobs", "1", "--out", str(a))[0] == 0
    assert run_cli(capsys, *args, "--jobs", "3", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_identical_across_job_widths(tmp_path, capsys):
    args = [
        "envelope-sweep", "--construction", "bichromatic", "--d", "3",
        "--n0", "8", "--doublings", "2",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(capsys, *args, "--jobs", "1", "--out", str(a))[0] == 0
    assert run_cli(capsys, *args, "--jobs", "2", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_rows_carry_provenance(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    code, _, _ = run_cli(
        capsys, "envelope-sweep", "--construction", "bichromatic", "--d", "3",
        "--n0", "8", "--doublings", "1", "--seed", "9", "--out", str(path),
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["schema"] == "spanflats-table/1"
    assert doc["params"]["seed"] == 9
    assert all(row["seed"] == 9 for row in doc["rows"])


@pytest.mark.parametrize("points, code, out", [("pts.txt", 0, "3\n"), ("no-such.txt", 2, "")])
def test_console_entry_point_exits_with_mains_code(tmp_path, points, code, out):
    # the installed ``spanflats`` script is cli.run, which hands main's code to sys.exit
    (tmp_path / "pts.txt").write_text("0,0\n1,0\n0,1\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "spanflats.cli", "enumerate", "--points", points, "--f", "1"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (code, out), proc.stderr
    assert proc.stderr.startswith("error: ") if code else proc.stderr == ""


def test_usage_error_is_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


# The start of the message for the bad inputs whose error names where it is.
BAD_INPUT_WHERE = {
    "construct bichromatic --d 3 --n 10 --k 5 --m 4 --c0 abc": "--c0: bad rational 'abc'",
    "construct bichromatic --d 3 --n 10 --k 5 --m 4 --c0 1/0": "--c0: bad rational '1/0'",
    "incidences --arrangement deep.json": "invalid JSON: nested deeper than the recursion limit",
    "incidences --arrangement long-int.json": "invalid JSON: an integer of more than",
    "incidences --arrangement bad-red.json": "red[1]: bad rational '1/0'",
    "incidences --arrangement bad-vertex.json": "vertices[1]: bad rational 'x'",
    "incidences --arrangement dup-red.json": "red[1]: repeats red[0]",
    "incidences --arrangement dup-blue.json": "blue[1]: repeats blue[0]",
    "incidences --arrangement dup-vertex.json": "vertices[2]: repeats vertices[1]",
    "incidences --arrangement line-red.json": "red[1]: not a hyperplane of E^3 (dim 1)",
    # the checks beside each command's row builder
    "envelope-sweep --construction bichromatic --d 3 --n0 8 --k-frac nan":
        "--k-frac must be in (0, 1], got nan",
    "envelope-sweep --construction bichromatic --d 3 --n0 8 --doublings -1":
        "--doublings must be >= 0, got -1",
    "envelope-sweep --construction bichromatic --d 2 --n0 8": "d >= 3 required for bichromatic",
    "envelope-sweep --construction thetamk --d 3 --n0 8 --p 0": "--n0 and --p must be >= 1",
    "envelope-sweep --construction bichromatic --d 3 --n0 8 --doublings 40":
        "last rung n = 8 * 2^40 needs about",
    "envelope-sweep --construction bichromatic --d 1000000000000 --n0 8 --doublings 0":
        "d = 1000000000000 > n = 8: no rung has room for a blue hyperplane",
    "conjecture-search --d 3 --r 0": "--r must be >= 1, got 0",
    "conjecture-search --d 3 --floor inf": "--floor must be finite, got inf",
    "conjecture-search --d 2": "d >= 3 required",
    "conjecture-search --d 3 --n 0": "--n must be >= 1, got 0",
    "conjecture-search --d 3 --samples 0": "--samples must be >= 1, got 0",
    "conjecture-search --d 4 --points e3.txt": "point file is E^3, --d is 4",
    "conjecture-search --d 3 --n 0 --points e3.txt": "--n is not read with --points",
    "conjecture-search --d 3 --n 99 --points e3.txt": "--n is not read with --points",
    "conjecture-search --d 3 --samples 0 --points e3.txt": "--samples is not read with --points",
    "enumerate --points wide.txt --f 2 --out F --emit-json": "--emit-json is not read with --out",
    "incidences --arrangement deep.json --envelope": "--envelope is not read without --out",
    "conjecture-search --d 3 --n 8 --samples 500000": "a table of 500,000 rows needs about",
    "conjecture-search --d 3 --n 229 --samples 1": "walk of 229 points needs about",
    "beck3 --n-list 10 --k-list 3 --seeds 0": "--seeds must be >= 1, got 0",
    "beck3 --n-list 10 --k-list 3 --seeds 1000000000000":
        "a table of 1,000,000,000,000 rows needs about",
    "beck3 --n-list 5 --k-list 2 --plant skew": "k >= 1 and n-k >= 4 required, got n=5, k=2",
    "beck3 --n-list 247 --k-list 4 --seeds 2 --plant mix":
        "n - k = 243 exceeds the 242 points the skew plant can hold",
    "beck3 --n-list 3000 --k-list 3 --seeds 1": "beck3's largest walk needs about",
    "enumerate --points wide.txt --f 2": "walk of 300 points needs about",
    "incidences --arrangement busy.json": "incidences needs about",
    "construct thetamk --d 3 --n 10000000 --k 1 --m 1": "thetamk needs about",
    "construct bichromatic --d 3 --n 10000000 --k 1 --m 1": "bichromatic needs about",
}


@pytest.mark.parametrize(
    "argv",
    [
        "construct bichromatic --d 3 --n 10 --k 5 --m 4 --c0 abc",
        "construct bichromatic --d 3 --n 10 --k 5 --m 4 --c0 1/0",
        "envelope-sweep --construction bichromatic --d 3 --n0 8 --k-frac nan",
        "envelope-sweep --construction bichromatic --d 3 --n0 8 --k-frac inf",
        "envelope-sweep --construction bichromatic --d 3 --n0 8 --doublings -1",
        "envelope-sweep --construction bichromatic --d 2 --n0 8",
        "envelope-sweep --construction thetamk --d 3 --n0 8 --p 0",
        "beck3 --n-list 10,x --k-list 3",
        "beck3 --n-list , --k-list 3",
        "beck3 --n-list 10 --k-list 3 --seeds 0",
        "beck3 --n-list 5 --k-list 2 --plant skew",
        "beck3 --n-list 6 --k-list 3 --plant plane",
        "beck3 --n-list 247 --k-list 4 --seeds 1 --plant skew",
        "beck3 --n-list 14646 --k-list 4 --seeds 1 --plant plane",
        "beck3 --n-list 247 --k-list 4 --seeds 2 --plant mix",
        "verify-purdy --d-range 4:x --k-range 2",
        "conjecture-search --d 3 --n 0",
        "conjecture-search --d 2",
        "conjecture-search --d 3 --r 0",
        "conjecture-search --d 3 --floor inf",
        "conjecture-search --d 3 --samples 0",
        # runs over spans.MAX_BYTES or spans.MAX_OPS, refused before any work
        "construct purdy --d 30 --k 2",
        "construct purdy --d 100000 --k 2",
        "construct purdy --d 12 --k 2",
        "verify-purdy --d-range 12 --k-range 2",
        "beck3 --n-list 3000 --k-list 3 --seeds 1",
        "conjecture-search --d 3 --n 100000 --samples 1",
        "conjecture-search --d 3 --n 229 --samples 1",
        "verify-purdy --d-range 4:100000 --k-range 2",
        "verify-purdy --d-range 4 --k-range 2:9223372036854775807",
        "verify-purdy --d-range 11 --k-range 3",
        "verify-purdy --d-range 9 --k-range 4",
        "enumerate --points wide.txt --f 2",
        "enumerate --points tall.txt --f 13",
        "enumerate --points e26.txt --f 25",
        "incidences --arrangement busy.json",
        # the cover searches walk every level, all held at once
        "conjecture-search --d 20 --n 24 --samples 1",
        "envelope-sweep --construction bichromatic --d 3 --n0 8 --doublings 40",
        "envelope-sweep --construction thetamk --d 3 --n0 8 --doublings 40",
        # one vertex, but 65,536 hyperplanes of 65,001 entries
        "envelope-sweep --construction thetamk --d 65000 --n0 8 --doublings 13 --p 1",
        "construct thetamk --d 3 --n 10000000 --k 1 --m 1",
        "construct bichromatic --d 3 --n 10000000 --k 1 --m 1",
        "construct erdos2d --r 100 --s 100",
        # out-of-range flat dimensions reach spanned_flats' own message
        "enumerate --points e3.txt --f -5",
        "enumerate --points e3.txt --f 3",
        # d above the last rung's n: no rung has a blue hyperplane, and each
        # would form p * n^(d-2) before its generator found that out
        "envelope-sweep --construction bichromatic --d 1000000000000 --n0 8 --doublings 0",
        # an empty range, and a point file of another dimension than --d
        "verify-purdy --d-range 5:4 --k-range 2",
        "conjecture-search --d 4 --points e3.txt",
        # with --points the file gives n and one row: --n and --samples are not read
        "conjecture-search --d 3 --n 0 --points e3.txt",
        "conjecture-search --d 3 --n 99 --points e3.txt",
        "conjecture-search --d 3 --samples 0 --points e3.txt",
        # an export flag that the other flags leave unread, refused before
        # the input (which would be refused on its own) is read
        "enumerate --points wide.txt --f 2 --out F --emit-json",
        "incidences --arrangement deep.json --envelope",
        # a table's rows are priced before its cells are listed
        "conjecture-search --d 3 --n 8 --samples 1000000000000",
        # 500,000 JSON rows hold about 1.8 GB; the same rows in CSV are admitted
        "conjecture-search --d 3 --n 8 --samples 500000",
        "beck3 --n-list 10 --k-list 3 --seeds 1000000000000",
        # JSON nested past the recursion limit, and an int past the digit limit
        "incidences --arrangement deep.json",
        "incidences --arrangement long-int.json",
        # a bad rational in an arrangement's entry
        "incidences --arrangement bad-red.json",
        "incidences --arrangement bad-vertex.json",
        # an entry that repeats one of its list, and a red line in E^3
        "incidences --arrangement dup-red.json",
        "incidences --arrangement dup-blue.json",
        "incidences --arrangement dup-vertex.json",
        "incidences --arrangement line-red.json",
    ],
)
def test_bad_input_is_exit_2(capsys, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # 300 points on the moment curve: C(300, 3) planes to walk
    (tmp_path / "wide.txt").write_text("".join(f"{t},{t * t},{t**3}\n" for t in range(300)))
    # 24 points on the moment curve in E^14: C(24, 14) hyperplanes are under
    # the cap, but the walk passes C(24, 13) codim-2 keys on its way there
    (tmp_path / "tall.txt").write_text(
        "".join(",".join(str(t**e) for e in range(1, 15)) + "\n" for t in range(24))
    )
    (tmp_path / "e3.txt").write_text("0,0,0\n1,0,0\n0,1,0\n0,0,1\n")
    # 30 points on the moment curve in E^26: entries of 126 bits, keys of rank 26
    (tmp_path / "e26.txt").write_text(
        "".join(",".join(str(t**e) for e in range(1, 27)) + "\n" for t in range(30))
    )
    # 9,000 lines and 9,000 vertices: a class per line is 2.4e8 lookups
    (tmp_path / "busy.json").write_text(json.dumps({
        "d": 2, "red": [[[str(i), "1", "0"]] for i in range(9000)], "blue": [],
        "vertices": [f"{i},0" for i in range(9000)],
    }))
    (tmp_path / "deep.json").write_text("[" * 100000 + "]" * 100000)
    (tmp_path / "long-int.json").write_text('{"d": ' + "7" * 5000 + "}")
    (tmp_path / "bad-red.json").write_text(json.dumps({
        "d": 2, "red": [[["1", "1", "0"]], [["1", "1/0", "0"]]], "blue": [], "vertices": [],
    }))
    (tmp_path / "bad-vertex.json").write_text(json.dumps({
        "d": 2, "red": [], "blue": [], "vertices": ["0,0", "1,x"],
    }))
    # x = 0 twice with the vertex 0,0 twice counted 4 incidences, not 1;
    # entries repeat as written differently too
    (tmp_path / "dup-red.json").write_text(json.dumps({
        "d": 2, "red": [[["1", "0", "0"]], [["1", "0", "0"]]], "blue": [],
        "vertices": ["0,0", "0,0"],
    }))
    (tmp_path / "dup-blue.json").write_text(json.dumps({
        "d": 2, "red": [], "blue": [[["0", "1", "0"]], [["0", "2", "0"]]], "vertices": ["0,0"],
    }))
    (tmp_path / "dup-vertex.json").write_text(json.dumps({
        "d": 2, "red": [[["1", "0", "0"]]], "blue": [], "vertices": ["0,0", "1,1", "2/2,1"],
    }))
    (tmp_path / "line-red.json").write_text(json.dumps({
        "d": 3, "red": [[["1", "0", "0", "0"]], [["1", "0", "0", "0"], ["0", "1", "0", "0"]]],
        "blue": [], "vertices": [],
    }))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err and "set_int_max_str_digits" not in err
    assert err.startswith(f"error: {BAD_INPUT_WHERE.get(argv, '')}")
    assert time.perf_counter() - start < 5
    assert not (tmp_path / "F").exists()


@pytest.mark.parametrize(
    "argv, where",
    [
        (["enumerate", "--points", "long.txt", "--f", "1"], "line 1: "),
        (["conjecture-search", "--d", "3", "--points", "long.txt"], "line 1: "),
        (
            ["construct", "bichromatic", "--d", "3", "--n", "4", "--k", "2", "--m", "4",
             "--c0", "1" * 4400],
            "--c0: ",
        ),
        # 3,000-digit coordinates parse, but the export's rows pass the limit
        (["enumerate", "--f", "2", "--points", "wide-e3.txt", "--out", "F"], ""),
        (["enumerate", "--f", "2", "--points", "wide-e3.txt", "--emit-json"], ""),
        # an arrangement entry, and an int in the JSON itself
        (["incidences", "--arrangement", "long-entry.json"], "blue[1]: "),
        (["incidences", "--arrangement", "long-int.json"], "invalid JSON: "),
    ],
    ids=[
        "enumerate", "conjecture-search", "c0", "export-out", "export-emit-json",
        "arrangement-entry", "json-int",
    ],
)
def test_rationals_past_the_digit_limit_are_exit_2(capsys, argv, where, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "long.txt").write_text("1,2," + "3" * 5000 + "\n0,0,0\n1,0,0\n0,1,0\n")
    rng = random.Random(3000)
    (tmp_path / "wide-e3.txt").write_text("".join(
        ",".join(str(rng.randrange(10**2999, 10**3000)) for _ in range(3)) + "\n" for _ in range(4)
    ))
    (tmp_path / "long-entry.json").write_text(json.dumps({
        "d": 2, "red": [], "blue": [[["1", "0", "0"]], [["1", "1", "3" * 5000]]], "vertices": [],
    }))
    (tmp_path / "long-int.json").write_text('{"d": ' + "7" * 5000 + "}")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {where}") and len(err.splitlines()) == 1
    assert f"more than {sys.get_int_max_str_digits()} digits" in err
    assert "set_int_max_str_digits" not in err
    assert not (tmp_path / "F").exists()


def test_construct_purdy_and_verify_purdy_refuse_the_same_cell(capsys):
    # (8, 4): 264 MB of flats, under the byte cap, but 3.0e8 entry operations
    refusals = [
        run_cli(capsys, *argv.split())
        for argv in ("construct purdy --d 8 --k 4", "verify-purdy --d-range 8 --k-range 4")
    ]
    assert refusals[0] == refusals[1]
    assert refusals[0][:2] == (2, "") and "Purdy cell (8, 4)" in refusals[0][2]


def test_walk_cap_admits_the_frontier_cells():
    # the frontier, (9, 3) and (11, 2) are admitted; (12, 2) is over the byte
    # cap, and (10, 3), under it at 1.05 GB, and (8, 4) over the work cap
    for d, k in ((7, 3), (8, 3), (9, 3), (10, 2), (11, 2)):
        constructions.check_purdy_cell(d, k)
    for d, k, cap in ((12, 2, "1,073,741,824"), (10, 3, "200,000,000"), (8, 4, "200,000,000")):
        with pytest.raises(GeometryError, match=f"Purdy cell \\({d}, {k}\\) .* over the cap of {cap}"):
            constructions.check_purdy_cell(d, k)


ROOT = Path(__file__).resolve().parents[1]


def _load(path: Path, monkeypatch) -> types.ModuleType:
    # compiled from its text, so no bytecode cache is written beside it; listed
    # in sys.modules while it runs, as its dataclasses look their module up
    module = types.ModuleType(f"committed_{path.stem}")
    module.__file__ = str(path)
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_every_committed_argv_is_admitted(capsys, tmp_path, monkeypatch):
    # every experiment reproduce.py runs (the frontier included), every bench
    # workload and every golden table, with no row computed: a cap set too
    # tight fails here, not in a frontier run
    import test_golden

    monkeypatch.chdir(tmp_path)
    for name, text in (("series.txt", test_golden.SERIES), ("deg.txt", test_golden.DEGENERATE_POINTS)):
        (tmp_path / name).write_text(text)
    monkeypatch.setattr(cli, "pmap", lambda fn, items, jobs: [])
    experiments = _load(ROOT / "scripts" / "reproduce.py", monkeypatch).EXPERIMENTS
    argvs = [
        [word.format(results=ROOT / "results") for word in command.split()]
        for tables in experiments.values() for _, command in tables
    ]
    argvs += [w.argv(0) for w in _load(ROOT / "bench" / "workloads.py", monkeypatch).WORKLOADS.values()]
    argvs += [list(argv) for argv in test_golden.TABLES.values()]
    refused = [(argv, err) for argv in argvs for code, _, err in [run_cli(capsys, *argv)] if code == 2]
    assert refused == []


def test_bench_workloads_print_their_pinned_bytes(capsys, monkeypatch):
    # bench/run.py checks these hashes only when the benchmark runs: each
    # workload at seed 0 prints the same bytes at --jobs 1 and 2
    for w in _load(ROOT / "bench" / "workloads.py", monkeypatch).WORKLOADS.values():
        for jobs in (1, 2):
            code, out, err = run_cli(capsys, *w.argv(0, jobs=jobs))
            assert (code, err) == (0, "")
            assert hashlib.sha256(out.encode()).hexdigest() == w.pinned_sha256, (w.name, jobs)


# argv -> the row it prices at its largest (None: the command is its one row)
ESTIMATED_ROWS = {
    "verify-purdy --d-range 6 --k-range 2": partial(purdy_row, (6, 2, 0)),
    "verify-purdy --d-range 7 --k-range 2": partial(purdy_row, (7, 2, 0)),
    "beck3 --n-list 40 --k-list 7 --seeds 1": partial(beck3_row, (40, 7, 0, "plane")),
    "conjecture-search --d 3 --n 8 --samples 1": partial(conjecture_row, (0, 3, 8, 3, 0, 0.0)),
    "conjecture-search --d 3 --n 30 --samples 1": partial(conjecture_row, (0, 3, 30, 3, 0, 0.0)),
    "envelope-sweep --construction thetamk --d 3 --n0 1024 --doublings 0":
        partial(envelope_row, ("thetamk", 3, 0, 1024, 0.5, 4, 0)),
    "construct thetamk --d 3 --n 2000 --k 1 --m 1": None,
    "enumerate --points e3.txt --f 2": None,  # with the JSON export of its planes
}


@pytest.mark.parametrize("argv", ESTIMATED_ROWS)
def test_estimate_bounds_the_peak(argv, capsys, tmp_path, monkeypatch):
    # a command is admitted at 1-3x the bytes its largest row holds at peak
    estimates = []
    for module in (constructions, incidence, spans):  # every module that calls admit
        monkeypatch.setattr(module, "admit", lambda what, nbytes, ops: estimates.append(nbytes))
    monkeypatch.setattr(cli, "pmap", lambda fn, items, jobs: [])
    monkeypatch.chdir(tmp_path)
    rng = random.Random(0)
    (tmp_path / "e3.txt").write_text(
        "".join(",".join(str(rng.randint(-99, 99)) for _ in range(3)) + "\n" for _ in range(30))
    )
    command = partial(run_cli, capsys, *argv.split(), "--out", str(tmp_path / "out"))
    assert command()[0] != 2  # priced, and with no row built
    spans._LEVELS.clear()
    tracemalloc.start()
    try:
        (ESTIMATED_ROWS[argv] or command)()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        spans._LEVELS.clear()
    assert 1 <= max(estimates) / peak <= 3


def test_the_cli_prices_nothing_itself():
    # every refusal comes from the check_* beside the command's row builder
    for name in ("admit", "walk_cost", "arrangement_cost"):
        assert not hasattr(cli, name), name


def test_walk_cap_admits_a_narrow_walk_past_the_middle_level(capsys, tmp_path):
    # 24 points on the moment curve in E^23 at f = 22: level j of the walk
    # holds C(2 + j, j) prefixes, 2,299 in all; that C(24, 12), the middle
    # level of all subsets, is over the cap does not matter
    (tmp_path / "pts.txt").write_text(
        "".join(",".join(str(t**e) for e in range(1, 24)) + "\n" for t in range(24))
    )
    code, out, _ = run_cli(capsys, "enumerate", "--points", str(tmp_path / "pts.txt"), "--f", "22")
    assert (code, out) == (0, "24\n")


@pytest.mark.parametrize("text", ["0,0,0\n1,,0,0\n0,1,0\n0,0,1\n", "0,0\n1,2,\n0,1\n"])
def test_point_file_with_empty_field_is_exit_2(tmp_path, capsys, text):
    pts = tmp_path / "pts.txt"
    pts.write_text(text)
    code, out, err = run_cli(capsys, "enumerate", "--points", str(pts), "--f", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "bad point" in err and "Traceback" not in err


@pytest.mark.parametrize("d", [3.7, "3", True, 0, -1])
def test_arrangement_d_that_is_not_an_integer_is_exit_2(tmp_path, capsys, d):
    # d must be a positive integer, in a real arrangement and in an empty one
    path = tmp_path / "arr.json"
    assert run_cli(
        capsys, "construct", "thetamk", "--d", "3", "--n", "8", "--k", "3", "--m", "4",
        "--out", str(path),
    )[0] == 0
    doc = json.loads(path.read_text())
    for arrangement in (doc, {"red": [], "blue": [], "vertices": []}):
        arrangement["d"] = d
        path.write_text(json.dumps(arrangement))
        code, _, err = run_cli(capsys, "incidences", "--arrangement", str(path))
        assert code == 2
        assert err.startswith("error: malformed arrangement") and len(err.splitlines()) == 1
        assert "Traceback" not in err


@pytest.mark.parametrize("failure", ["construct", "map", "collect"])
def test_broken_pool_falls_back_to_serial(tmp_path, capsys, monkeypatch, failure):
    # the pool cannot be built, cannot take the items, or loses a worker
    # while results are collected; the fake pools start no processes
    from concurrent.futures.process import BrokenProcessPool

    import spanflats.cli as cli

    class BrokenPool:
        def __init__(self, max_workers):
            if failure == "construct":
                raise OSError("no semaphores")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            if failure == "map":
                raise BrokenProcessPool("a worker died")

            def results():
                yield fn(items[0])
                raise BrokenProcessPool("a worker died")

            return results()

    args = ["verify-purdy", "--d-range", "4", "--k-range", "2:3", "--format", "csv"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    serial = run_cli(capsys, *args, "--jobs", "1", "--out", str(a))
    assert serial[0] == 0 and serial[2] == ""  # a serial map says nothing
    # pmap imports the pool class from concurrent.futures when it opens one
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", BrokenPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    code, out, err = run_cli(capsys, *args, "--jobs", "2", "--out", str(b))
    assert (code, out) == (0, serial[1])
    assert a.read_bytes() == b.read_bytes()
    why = {
        "construct": "could not start (OSError: no semaphores)",
        "map": "could not take the items (BrokenProcessPool: a worker died)",
        "collect": "lost a worker (BrokenProcessPool: a worker died)",
    }[failure]
    assert err == f"warning: the process pool {why}; mapping 2 items serially\n"


def test_pmap_raises_an_items_own_oserror_without_rerunning(monkeypatch):
    import spanflats.cli as cli

    calls = []

    def fn(item):
        calls.append(item)
        return item

    class ItemFailsPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            def results():
                yield items[0]
                raise OSError(f"item {items[1]} could not write its file")

            return results()

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", ItemFailsPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    with pytest.raises(OSError, match="item 1 could not"):
        cli.pmap(fn, [0, 1, 2], 2)
    assert calls == []


def test_a_serial_run_never_loads_the_process_pool(tmp_path):
    # importing the CLI, building its parser and a --jobs 1 table run load
    # neither concurrent.futures nor multiprocessing; modules the bare
    # interpreter has loaded before (site hooks) do not count
    out = tmp_path / "t.csv"
    code = (
        "import sys; bare = set(sys.modules); import spanflats.cli as cli; "
        "cli.build_parser(); parsed = set(sys.modules); "
        "cli.main(['verify-purdy', '--d-range', '4', '--k-range', '2:3', '--format', 'csv', "
        f"'--jobs', '1', '--out', {str(out)!r}]); "
        "print(' '.join(sorted(parsed - bare)), ' '.join(sorted(set(sys.modules) - bare)), "
        "sep='\\n')"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    parsed, ran = (line.split() for line in proc.stdout.splitlines())
    assert "spanflats.cli" in parsed and out.read_text().startswith("d,k,")
    for loaded in (parsed, ran):
        assert not [m for m in loaded if m.split(".")[0] in ("concurrent", "multiprocessing")]


def _worker_pid(item):
    return item, os.getpid()


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a process pool needs two cores")
def test_pmap_over_two_jobs_runs_in_worker_processes(capsys):
    results = cli.pmap(_worker_pid, [0, 1, 2, 3], 2)
    assert [item for item, _ in results] == [0, 1, 2, 3]
    assert os.getpid() not in {pid for _, pid in results}
    assert capsys.readouterr().err == ""

# --- extreme and empty inputs ------------------------------------------------

ZERO = st.just("0")
EMPTY = st.just("")
NEGATIVE = st.integers(max_value=-1).map(str)
HUGE = (
    st.integers(min_value=sys.maxsize + 1, max_value=10**400)
    | st.integers(min_value=-(10**400), max_value=-sys.maxsize - 2)
).map(str)
# letters only: never an integer or a rational; as a float only nan/inf
# words that are no choice of --format, --construction or --plant
WORDS = st.sampled_from(["x", "nan", "inf", "-inf", "Infinity", "abc"]) | st.text(
    alphabet=string.ascii_letters, min_size=1, max_size=8
).filter(lambda w: w not in {"json", "csv", "bichromatic", "thetamk", "plane", "skew", "mix"})
BAD_INT = EMPTY | NEGATIVE | HUGE | WORDS
BAD_COUNT = BAD_INT | ZERO
BAD_FLOAT = EMPTY | WORDS | st.sampled_from(["1e999", "-1e999", "1" + "0" * 400])

BAD_FILES = {
    "points": ["", "# only a comment\n", "1,x\n", "1,2\n1,2,3\n", "1/0,1\n", b"\xff\xfe1,2\n"],
    "arrangement": [
        "", "null", "[]", "{}", '{"d": 2}', '{"d": "x", "red": [], "blue": [], "vertices": []}',
        '{"d": 2, "red": 5, "blue": [], "vertices": []}',
        '{"d": 2, "red": [[["1", "0"]]], "blue": [], "vertices": []}',
        '{"d": 2, "red": [[[1, 0, 0]]], "blue": [], "vertices": []}',
        '{"d": 2, "red": [[["0", "0", "1"]]], "blue": [], "vertices": []}',
        '{"d": 2, "red": [], "blue": [], "vertices": [5]}', b"\xff{}",
    ],
    "series": [
        "", "1 2\n", "a b\nc d\n", "1 2 3\n4 5 6\n", "0 1\n2 3\n", "1 2\n1 3\n",
        "1e999 1\n2 3\n", "nan 1\n2 3\n", "1 2\n1" + "0" * 400 + " 3\n", b"\xff 1\n",
    ],
}

# subcommand -> (valid base argv, {option: bad values}); "{dir}" in an argv is
# the scratch directory, and a string in place of a strategy names a file
# option's kind: "missing" (an --out path), or a key of BAD_FILES
SUBCOMMANDS = {
    "enumerate": (
        ["enumerate", "--points", "{dir}/good-points", "--f", "1"],
        {"--points": "points", "--f": BAD_INT},
    ),
    "incidences": (
        ["incidences", "--arrangement", "{dir}/good-arrangement"],
        {"--arrangement": "arrangement"},
    ),
    "erdos2d": (
        ["construct", "erdos2d", "--r", "2", "--s", "2"],
        {"--r": BAD_COUNT, "--s": BAD_COUNT},
    ),
    "bichromatic": (
        ["construct", "bichromatic", "--d", "3", "--n", "10", "--k", "5", "--m", "20"],
        {"--d": BAD_COUNT, "--n": BAD_COUNT, "--k": BAD_COUNT, "--m": BAD_COUNT,
         "--c0": BAD_COUNT},
    ),
    "thetamk": (
        ["construct", "thetamk", "--d", "3", "--n", "6", "--k", "2", "--m", "4"],
        {"--d": BAD_COUNT, "--n": BAD_COUNT, "--k": BAD_COUNT, "--m": BAD_COUNT},
    ),
    "purdy": (
        ["construct", "purdy", "--d", "4", "--k", "2"],
        {"--d": BAD_COUNT, "--k": BAD_COUNT},
    ),
    "verify-purdy": (
        ["verify-purdy", "--d-range", "4", "--k-range", "2"],
        {
            "--d-range": BAD_COUNT | st.sampled_from([":", "3", "5:4", "4:x", "x:5", ","])
            | HUGE.map(lambda h: f"4:{h}"),
            "--k-range": BAD_COUNT | st.sampled_from([":", "1", "3:2", "2:x"])
            | HUGE.map(lambda h: f"2:{h}"),
        },
    ),
    "fit": (["fit", "--series", "{dir}/good-series"], {"--series": "series"}),
    "envelope-sweep": (
        ["envelope-sweep", "--construction", "thetamk", "--d", "3", "--n0", "8",
         "--doublings", "0"],
        {"--construction": WORDS, "--d": BAD_COUNT, "--n0": BAD_COUNT,
         "--doublings": BAD_INT, "--k-frac": BAD_FLOAT | ZERO | st.just("-0.5"),
         "--p": BAD_COUNT},
    ),
    "beck3": (
        ["beck3", "--n-list", "10", "--k-list", "3", "--seeds", "1"],
        {
            "--n-list": BAD_COUNT | st.just(",") | HUGE.map(lambda h: f"10,{h}"),
            "--k-list": BAD_COUNT | st.just(",") | st.just("3,10"),
            "--seeds": BAD_COUNT,
            "--plant": WORDS,
        },
    ),
    "conjecture-search": (  # no --n or --samples, which a --points draw would meet first
        ["conjecture-search", "--d", "3"],
        {"--d": BAD_COUNT, "--n": BAD_COUNT, "--samples": BAD_COUNT, "--r": BAD_COUNT,
         "--floor": BAD_FLOAT, "--points": "points"},
    ),
}
# the shared flags each subcommand takes: --out everywhere, --seed also for
# construct purdy, --format for fit, and all four for the table commands
OUT = {"--out": "missing"}
SEEDED = {**OUT, "--seed": EMPTY | WORDS}
FORMATTED = {**OUT, "--format": EMPTY | WORDS}
TABLE = {**SEEDED, **FORMATTED, "--jobs": BAD_COUNT}
TAKES = {
    "enumerate": OUT, "incidences": OUT, "erdos2d": OUT, "bichromatic": OUT, "thetamk": OUT,
    "purdy": SEEDED, "verify-purdy": TABLE, "fit": FORMATTED, "envelope-sweep": TABLE,
    "beck3": TABLE, "conjecture-search": TABLE,
}


@pytest.fixture(scope="module")
def io_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("extreme")
    (root / "good-points").write_text("0,0\n1,0\n0,1\n")
    (root / "good-series").write_text("1 2\n2 4\n")
    (root / "good-arrangement").write_text(
        '{"d": 2, "red": [[["1", "0", "0"]]], "blue": [[["0", "1", "0"]]], "vertices": ["0,0"]}'
    )
    for kind, contents in BAD_FILES.items():
        for i, content in enumerate(contents):
            path = root / f"bad-{kind}-{i}"
            if isinstance(content, bytes):
                path.write_bytes(content)
            else:
                path.write_text(content)
    return root


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own rejections
            code = exc.code
    return code, err.getvalue()


def _fill(argv, root):
    return [a.format(dir=root) for a in argv]


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_extreme_input_bases_run(io_dir, name):
    code, err = _run_main(_fill(SUBCOMMANDS[name][0], io_dir))
    assert code == 0, err


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_extreme_and_empty_inputs_exit_2(io_dir, data):
    name = data.draw(st.sampled_from(sorted(SUBCOMMANDS)))
    base, options = SUBCOMMANDS[name]
    option, bad = data.draw(st.sampled_from(sorted({**options, **TAKES[name]}.items(),
                                                   key=lambda kv: kv[0])))
    if bad == "missing":
        value = str(io_dir / "no-such-dir" / "file")
    elif isinstance(bad, str):  # a file option: missing, or a bad file
        value = data.draw(st.sampled_from(
            [str(io_dir / "no-such-file")]
            + [str(io_dir / f"bad-{bad}-{i}") for i in range(len(BAD_FILES[bad]))]
        ))
    else:
        value = data.draw(bad)
    argv = _fill(base, io_dir)
    if option in argv:
        i = argv.index(option)
        del argv[i : i + 2]
    argv.append(f"{option}={value}")
    code, err = _run_main(argv)
    assert code == 2, (argv, err)
    assert "Traceback" not in err
    error_lines = [line for line in err.splitlines() if "error:" in line]
    assert len(error_lines) == 1 and err.splitlines()[-1] == error_lines[0], err


@pytest.mark.parametrize("name, flag", [
    (name, flag) for name in sorted(TAKES) for flag in ("--format=csv", "--seed=3", "--jobs=2")
    if flag.partition("=")[0] not in TAKES[name]
])
def test_a_flag_the_command_does_not_read_is_exit_2(io_dir, capsys, name, flag):
    with pytest.raises(SystemExit) as exc:
        main(_fill(SUBCOMMANDS[name][0], io_dir) + [flag])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "unrecognized arguments" in captured.err


def test_out_of_memory_is_exit_2(capsys, monkeypatch):
    def exhausted(params):
        raise MemoryError

    monkeypatch.setattr(cli, "conjecture_row", exhausted)
    code, out, err = run_cli(capsys, "conjecture-search", "--d", "3", "--n", "4", "--samples", "1")
    assert (code, out, err) == (2, "", "error: out of memory\n")
