"""The benchmark's layer tracer wraps package functions by name; each name
it lists must still resolve, so a refactor that moves one fails here and not
only in a traced benchmark run."""

import csv
import importlib
import inspect
import types
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"


def _load_layertrace():
    # compiled from its text, so no bytecode cache is written beside it
    module = types.ModuleType("layertrace")
    exec(compile(LAYERTRACE.read_text(), str(LAYERTRACE), "exec"), module.__dict__)
    return module


def test_trace_targets_resolve_to_callables():
    targets = _load_layertrace().TARGETS
    assert targets
    for modname, names in targets.items():
        module = importlib.import_module(f"spanflats.{modname}")
        for dotted in names:
            owner = module
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part)
            assert callable(getattr(owner, attr, None)), f"spanflats.{modname}.{dotted}"


def test_spanned_flats_keeps_the_signature_the_tracer_binds():
    from spanflats import spans

    assert list(inspect.signature(spans.spanned_flats).parameters) == ["points", "f"]


def test_spanned_set_has_the_attributes_the_tracer_reads():
    # _after_spanned_flats reads count and per_flat_points of each result
    from spanflats import spans
    from spanflats.kernel import Point

    pts = [Point(xy) for xy in ((0, 0), (1, 0), (2, 0), (0, 1), (0, 1))]
    result = spans.spanned_flats(pts, 1)
    assert result.count == len(result.per_flat_points) == 4
    assert sum(map(len, result.per_flat_points)) == sum(m.bit_count() for m in result.masks)


def test_imported_copy_the_tracer_tests_wrap_is_still_there():
    from spanflats import constructions, kernel

    assert constructions.affine_rank is kernel.affine_rank


def test_cli_beck3_instance_is_the_generator_the_tracer_wraps():
    # one function object, so wrapping cli.beck3_instance also wraps the
    # generator's own calls, and its edge to kernel.affine_rank still counts
    from spanflats import cli, constructions

    assert cli.beck3_instance is constructions.beck3_instance


def test_cli_spanned_flats_is_the_copy_the_tracer_replaces():
    # bench/test_bench.py checks that installing the tracer rewrites cli's copy
    from spanflats import cli, spans

    assert cli.spanned_flats is spans.spanned_flats


ROW_COMMANDS = {
    "verify-purdy": ["verify-purdy", "--d-range", "4", "--k-range", "2:3"],
    "envelope-sweep": [
        "envelope-sweep", "--construction", "bichromatic", "--d", "3", "--n0", "8",
        "--doublings", "1",
    ],
    "beck3": ["beck3", "--n-list", "12", "--k-list", "3", "--seeds", "2"],
    "conjecture-search": ["conjecture-search", "--d", "3", "--n", "6", "--samples", "3"],
}


@pytest.mark.parametrize("name", sorted(ROW_COMMANDS))
def test_row_commands_map_their_rows_through_cli_pmap(name, tmp_path, monkeypatch, capsys):
    # bench/child.py times rows by swapping cli.pmap for a wrapper, so each
    # table command must look pmap up by its module-global name, once, with
    # one item per output row
    from spanflats import cli

    calls = []
    pmap = cli.pmap

    def recording_pmap(fn, items, jobs):
        calls.append(len(items))
        return pmap(fn, items, jobs)

    monkeypatch.setattr(cli, "pmap", recording_pmap)
    out = tmp_path / "rows.csv"
    assert cli.main(ROW_COMMANDS[name] + ["--format", "csv", "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert calls == [len(rows)] and rows
