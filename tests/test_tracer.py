"""The benchmark's tracer still finds every function it wraps.

perfbench/tracer.py rebinds the functions named in its SPANS table.  The
default benchmark run does not trace, so a renamed or deleted function
would break only a traced run; this test breaks instead.
"""

import importlib
import importlib.util
import os

from oracles import cycle_graph
from cmgraph.cohen_macaulay import cm_characteristic_profile
from cmgraph.homology import FieldSpec

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(modules):
    return {(name, attr): value for name, m in modules.items() for attr, value in vars(m).items()}


def test_tracer_wraps_every_span_and_uninstall_restores_every_binding():
    tracer_module = _load_tracer()
    modules = {m: importlib.import_module(f"cmgraph.{m}") for m in tracer_module.MODULES}
    before = _bindings(modules)
    missing = [
        (mod, attr)
        for targets in tracer_module.SPANS.values()
        for mod, attr in targets
        if (mod, attr) not in before
    ]
    assert not missing
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        for name, targets in tracer_module.SPANS.items():
            for mod, attr in targets:
                assert getattr(modules[mod], attr) is not before[(mod, attr)], name
        # the scan calls link through the module binding the tracer replaces;
        # C4 has no shedding vertex, so its profile comes from the scan
        cm_characteristic_profile(cycle_graph(4), [FieldSpec(2)])
        assert tracer.counts()["complexes.link.calls"] > 0
    finally:
        tracer.uninstall()
    after = _bindings(modules)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
