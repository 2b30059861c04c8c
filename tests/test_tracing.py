"""The benchmark's per-layer trace hooks must find every function they name.

``perfbench/tracing.py`` wraps the functions listed in ``COVERED`` by module
and name; a rename or removal in towerdecomp would otherwise only show when
the benchmark runs with ``--trace 1``.
"""

import importlib
from pathlib import Path

from sympy.polys.rings import PolyElement

import towerdecomp

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _lookup(name):
    layer, path = name.split(".", 1)
    obj = importlib.import_module(f"towerdecomp.{layer}")
    for attr in path.split("."):
        obj = getattr(obj, attr)
    return obj


def test_trace_hooks_install_and_uninstall(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    originals = {name: _lookup(name) for name in tracing.NAMES}
    cancel = PolyElement.cancel
    b = towerdecomp.TowerBuilder(["t1"])
    T = b.log(b.x).build()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for name, fn in originals.items():
            assert _lookup(name).__wrapped__ is fn, name
        assert PolyElement.cancel is not cancel
        tracer.request = 0
        towerdecomp.add_decomp_in_field(T.element(1 / T.gens[1]))
        traced = {span[tracing.NAME] for span in tracer.spans}
        assert "decomp.add_decomp_in_field" in traced
        # the tracer counts sympy's PolyElement.cancel, which the tower
        # field's own polynomials never call
        assert sum(span[tracing.CANCELS] for span in tracer.spans) == 0
    finally:
        tracer.uninstall()
    assert PolyElement.cancel is cancel
    for name, fn in originals.items():
        assert _lookup(name) is fn, name
