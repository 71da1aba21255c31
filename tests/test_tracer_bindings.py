"""The benchmark's tracer still finds every library function it wraps.

``perfbench/tracer.py`` wraps library functions by name; a rename in the
library makes ``perfbench/run.py --smoke`` and ``--trace 1`` fail at
``Tracer.install``. This runs the install in a fraction of a second.
"""

import importlib
import importlib.util
from pathlib import Path

import zoned_ledger

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(targets):
    out = {}
    for name, (module, path) in targets.items():
        owner = importlib.import_module(f"zoned_ledger.{module}")
        for part in path.split("."):
            owner = getattr(owner, part)
        out[name] = owner
    return out


def test_tracer_installs_and_uninstalls():
    tracer_module = _load_tracer_module()
    before = _bindings(tracer_module.TARGETS)
    tracer = tracer_module.Tracer(zoned_ledger)
    tracer.install()
    try:
        wrapped = _bindings(tracer_module.TARGETS)
        assert all(wrapped[name] is not before[name] for name in before)
    finally:
        tracer.uninstall()
    assert _bindings(tracer_module.TARGETS) == before
    assert zoned_ledger.split_bytes is zoned_ledger.shamir.split_bytes
