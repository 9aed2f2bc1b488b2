"""The benchmark's tracer still finds every name it wraps, and its
self-test still passes against the package."""

import importlib.util
import subprocess
import sys
from pathlib import Path

from negcurve import groupoid, homspaces, ring

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


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


def test_self_test_passes():
    # Short runs of every workload, traced call-count checks and
    # corrupted results; about 6 s on a 2-core machine.
    proc = subprocess.run([sys.executable, str(PERFBENCH / "run.py"), "--self-test"],
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert lines and lines[-1].startswith("SELF-TEST PASS:"), proc.stdout
