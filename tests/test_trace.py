"""The benchmark's tracer still finds every public name it wraps.

perfbench/tracer.py wraps package functions from outside, and a name it no
longer finds is reported as a null metric, which a traced benchmark run
cannot use.  The tracer is loaded from its file and never written to.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from pathlib import Path

from conftest import group_of

import wondermono
from wondermono import monomials, orbits
from wondermono.monomials import basis_indices
from wondermono.orbits import OrbitLabel

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave no cache file beside the tracer
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_and_every_metric_is_a_number(monkeypatch):
    tracing = load_tracer(monkeypatch)
    tracer = tracing.Tracer()
    tracer.install(wondermono)
    try:
        assert sorted(tracer.stats) == sorted(name for name, *_ in tracing.TARGETS)
        # through the module attributes, which the tracer rebinds
        g = group_of("A2")
        top = OrbitLabel(frozenset({1, 2}), g.identity, g.longest)
        assert monomials.graded_counts(top, (1, 1)).total() == len(monomials.basis_indices(top, (1, 1)))
        orbits.build_poset(g)
    finally:
        tracer.uninstall()
    assert monomials.basis_indices is basis_indices  # every binding is restored
    metrics = tracer.metrics()
    assert [name for name, value in metrics.items() if value is None] == []
    assert all(math.isfinite(value) for value in metrics.values())
    assert metrics["monomials.basis_indices.calls"] == 1 and metrics["orbits.labels"] == 78
