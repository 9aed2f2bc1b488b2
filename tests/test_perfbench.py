"""The benchmark's tracer still finds every name it wraps."""

import importlib.util
from pathlib import Path

from negcurve import groupoid, homspaces, ring

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    originals = (groupoid.act, homspaces.build_linear_system, ring.plus_part,
                 ring.RingElem.__mul__)
    tracer = module.Tracer()
    try:
        tracer.install()
        assert groupoid.act is not originals[0]
        assert homspaces.build_linear_system is not originals[1]
    finally:
        tracer.uninstall()
    assert (groupoid.act, homspaces.build_linear_system, ring.plus_part,
            ring.RingElem.__mul__) == originals
    assert homspaces.act is groupoid.act
