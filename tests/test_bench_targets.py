"""The benchmark's layer tracer wraps package functions by name; each name
it lists must still resolve, so a refactor that moves one fails here and not
only in a traced benchmark run."""

import importlib
import inspect
import types
from pathlib import Path

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
    from spanflats import Point, spans

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
