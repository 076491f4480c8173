"""perfbench's span tracer against the engine functions it wraps.

The tracer finds each function by name and reads ``sweep_range``'s
positional ``(n, start, stop, ...)`` arguments, so a rename or a new
argument order in the engine fails here rather than only in a traced
benchmark run.
"""

import importlib
from pathlib import Path

import pytest

from spectool import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


def test_every_traced_function_resolves(tracer):
    for module_name, names in tracer.TRACED.values():
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name, None)), (module_name, name)


def test_tracer_counts_a_sweep(tracer, capsys):
    # n <= 3 holds 1 + 2 + 8 labeled graphs, all swept by sweep_range.
    spans = tracer.Tracer()
    spans.install()
    try:
        code = cli.main(["verify", "--max-n", "3", "--jobs", "1", "--json"])
    finally:
        spans.uninstall()
    assert code == 0 and capsys.readouterr().out
    assert spans.calls["exhaustive.sweep_range"] > 0
    assert spans.graphs_swept == 11
