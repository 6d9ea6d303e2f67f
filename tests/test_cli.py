import csv
import io
import json
import os
import string
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanflats import (
    BiArrangement,
    ConstructionError,
    GeometryError,
    cli,
    constructions,
    count_bichromatic,
    spans,
)
from spanflats.cli import main
from spanflats.constructions import (
    BECK3_COLUMNS,
    PURDY_COLUMNS,
    beck3_instance,
    beck3_row,
    check_envelope_sweep,
    purdy_row,
)
from spanflats.formulas import fit_loglog
from spanflats.spans import read_point_file


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


# --- enumerate ---------------------------------------------------------------


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
    check_envelope_sweep("bichromatic", 3, 8, 8, 0.5, 4)  # n = 2048: 8,388,608 pairs
    check_envelope_sweep("thetamk", 3, 8, 13, 0.5, 4)  # n = 65,536


@pytest.mark.parametrize("params, message", [
    (("bichromatic", 3, 8, 9, 0.5, 4), "cap of 2,048 hyperplanes"),
    (("thetamk", 3, 8, 14, 0.5, 4), "cap of 65,536 hyperplanes"),
    (("thetamk", 3, 2**62, 1, 0.5, 4), "cap of 65,536 hyperplanes"),
    (("bichromatic", 4, 8, 6, 0.5, 4), "cap of 10,000,000 vertex-hyperplane pairs"),
    (("thetamk", 4, 8, 10, 0.5, 30), "cap of 1,000,000 vertex-hyperplane pairs"),
    (("thetamk", 2**62, 8, 0, 0.5, 2), "cap of 1,000,000 vertex-hyperplane pairs"),
    (("bichromatic", 10**12, 8, 0, 0.5, 4), "d = 1000000000000 > n = 8"),
    (("bichromatic", 17, 8, 1, 0.5, 4), "d = 17 > n = 16"),
])
def test_envelope_cap_refuses_a_last_rung_over_it(params, message):
    with pytest.raises(ConstructionError, match=message):
        check_envelope_sweep(*params)


# --- generator failures -----------------------------------------------------------


def _fail(*args):
    raise ConstructionError("no admissible instance (forced)")


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
        "g_gt_h": True, "status": "error: walk of C(28, 8) subsets exceeds the cap 2,000,000",
    }


def test_beck3_row_reports_a_plant_it_cannot_meet():
    assert beck3_row((7, 4, 0, "plane")) == {
        "n": 7, "k": 4, "seed": 0, "plant": "plane", "hypothesis_ok": False,
        "max_cover": -1, "planes": -1, "ratio": 0.0,
        "status": "error: k >= 1 and n-k >= 4 required, got n=7, k=4",
    }


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
    pts, cover = beck3_instance(12, 3, seed=0, plant="plane")
    assert len(pts) == 12 and cover.covered_count == 9
    pts_skew, cover_skew = beck3_instance(12, 4, seed=0, plant="skew")
    assert len(pts_skew) == 12 and cover_skew.covered_count == 8


@pytest.mark.parametrize("n, plant", [(247, "skew"), (14646, "plane")])
def test_beck3_instance_refuses_a_plant_it_cannot_hold(n, plant):
    # 121 distinct t per skew line, 121^2 (alpha, beta) pairs on the plane
    with pytest.raises(ConstructionError, match="can hold"):
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

    from spanflats import Point, spanned_flats

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
    code, out, err = run_cli(capsys, "incidences", "--arrangement", str(path), "--envelope")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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


@pytest.mark.parametrize(
    "argv",
    [
        "construct bichromatic --d 3 --n 10 --k 5 --m 4 --c0 abc",
        "construct bichromatic --d 3 --n 10 --k 5 --m 4 --c0 1/0",
        "envelope-sweep --construction bichromatic --d 3 --n0 8 --k-frac nan",
        "envelope-sweep --construction bichromatic --d 3 --n0 8 --k-frac inf",
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
        # walks above spans.MAX_WALK_SUBSETS, rejected before any work
        "construct purdy --d 30 --k 2",
        "construct purdy --d 100000 --k 2",
        "beck3 --n-list 3000 --k-list 3 --seeds 1",
        "conjecture-search --d 3 --n 100000 --samples 1",
        "verify-purdy --d-range 4:100000 --k-range 2",
        "verify-purdy --d-range 4 --k-range 2:9223372036854775807",
        "verify-purdy --d-range 11 --k-range 3",
        "verify-purdy --d-range 9 --k-range 4",
        "enumerate --points wide.txt --f 2",
        "enumerate --points tall.txt --f 13",
        # the cover searches walk every level: C(24, 11) at f = 10 is over
        "conjecture-search --d 20 --n 24 --samples 1",
        # last rungs of 8 * 2^40 hyperplanes, over constructions.ENVELOPE_CAPS
        "envelope-sweep --construction bichromatic --d 3 --n0 8 --doublings 40",
        "envelope-sweep --construction thetamk --d 3 --n0 8 --doublings 40",
        # d above the last rung's n: no rung has a blue hyperplane, and each
        # would form p * n^(d-2) before its generator found that out
        "envelope-sweep --construction bichromatic --d 1000000000000 --n0 8 --doublings 0",
        # an empty range, and a point file of another dimension than --d
        "verify-purdy --d-range 5:4 --k-range 2",
        "conjecture-search --d 4 --points e3.txt",
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
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert time.perf_counter() - start < 5


def test_construct_purdy_and_verify_purdy_refuse_the_same_cell(capsys):
    # (8, 4): the hyperplane walk, C(28, 8) = 3,108,105, is over the cap
    refusals = [
        run_cli(capsys, *argv.split())
        for argv in ("construct purdy --d 8 --k 4", "verify-purdy --d-range 8 --k-range 4")
    ]
    assert refusals[0] == refusals[1]
    assert refusals[0][:2] == (2, "") and "C(28, 8)" in refusals[0][2]


def test_walk_cap_admits_the_frontier_cells():
    # (9, 3): n = 24 and (10, 2): n = 18, both levels; one more point is over
    for k, d in ((3, 9), (2, 10)):
        constructions.check_purdy_cell(d, k)
    with pytest.raises(GeometryError, match="exceeds the cap"):
        spans.check_walk_size(25, 8)
    assert comb(25, 9) > spans.MAX_WALK_SUBSETS >= comb(24, 9)


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
    assert run_cli(capsys, *args, "--jobs", "1", "--out", str(a))[0] == 0
    monkeypatch.setattr(cli, "ProcessPoolExecutor", BrokenPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    assert run_cli(capsys, *args, "--jobs", "2", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


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

    monkeypatch.setattr(cli, "ProcessPoolExecutor", ItemFailsPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    with pytest.raises(OSError, match="item 1 could not"):
        cli.pmap(fn, [0, 1, 2], 2)
    assert calls == []

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
    "conjecture-search": (
        ["conjecture-search", "--d", "3", "--n", "4", "--samples", "1"],
        {"--d": BAD_COUNT, "--n": BAD_COUNT, "--samples": BAD_COUNT, "--r": BAD_COUNT,
         "--floor": BAD_FLOAT, "--points": "points"},
    ),
}
# the shared flags each subcommand takes: --out everywhere, --seed also for
# construct purdy, and --format and --jobs too for the table commands and fit
OUT = {"--out": "missing"}
SEEDED = {**OUT, "--seed": EMPTY | WORDS}
TABLE = {**SEEDED, "--format": EMPTY | WORDS, "--jobs": BAD_COUNT}
TAKES = {
    "enumerate": OUT, "incidences": OUT, "erdos2d": OUT, "bichromatic": OUT, "thetamk": OUT,
    "purdy": SEEDED, "verify-purdy": TABLE, "fit": TABLE, "envelope-sweep": TABLE,
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
