"""The benchmark's span tracer (perfbench/tracer.py) finds what it wraps.

The tracer looks functions up by name and swaps the module attributes
that refer to them, so a renamed function, or a caller that stops
reaching a traced function through a module attribute, breaks only a
traced benchmark run. These tests catch that in the suite. The tracer is
read from its file and executed in a fresh module; nothing under
perfbench/ is written.
"""

import importlib
import inspect
import pathlib
import types

import pytest

from nashcone import make_family, serialize_graph
from nashcone.cli import main

TRACER_PATH = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER_PATH)
    source = TRACER_PATH.read_text(encoding="utf-8")
    exec(compile(source, str(TRACER_PATH), "exec"), module.__dict__)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("module,name", tracer.FUNCTIONS)
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"nashcone.{module}"), name))


def test_traced_generator_and_method_exist():
    module, name = tracer.GENERATOR
    assert inspect.isgeneratorfunction(getattr(importlib.import_module(f"nashcone.{module}"), name))
    module, cls, method = tracer.METHOD
    assert callable(vars(getattr(importlib.import_module(f"nashcone.{module}"), cls))[method])


def test_tracer_counts_one_validation_per_verb(tmp_path, capsys):
    path = tmp_path / "a3.graph"
    path.write_text(serialize_graph(make_family("an", 3)))
    t = tracer.Tracer()
    t.install()
    try:
        assert main(["analyze", str(path)]) == 0
        assert main(["witness", str(path), "--pair", "1", "2"]) == 0
        assert main(["check", str(path), "--criterion", "laufer", "--divisor", "1,1,1"]) == 0
    finally:
        t.uninstall()
    capsys.readouterr()
    assert t.calls["graph.load_graph"] == 3
    assert t.calls["graph.validate"] == 3
    assert t.calls["classify.nash_verdict"] == 1
    assert t.calls["conditions.star_witness"] == 1
    assert t.calls["vanishing.laufer_criterion"] == 1


def test_tracer_counts_of_one_json_report(tmp_path, capsys):
    # one strictness check per distinct witness (108 on an 30), one (*)
    # decision and one report dict per analyze --json call
    path = tmp_path / "a30.graph"
    path.write_text(serialize_graph(make_family("an", 30)))
    t = tracer.Tracer()
    t.install()
    try:
        assert main(["analyze", "--json", str(path)]) == 0
    finally:
        t.uninstall()
    capsys.readouterr()
    assert t.calls["cone.lipman_status"] == 108
    assert t.calls["conditions.check_star"] == 1
    assert t.calls["cli.report_to_dict"] == 1
