"""The benchmark's tracer (perfbench/tracer.py) patches docalc by name; a
renamed or removed function must fail here, not in a benchmark run."""

import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def lookup(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_install_wraps_and_uninstall_restores_every_traced_name():
    tracer_mod = load_tracer()
    originals = [(owner, attr, lookup(owner, attr)) for _m, owner, attr in tracer_mod.TRACED]
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for owner, attr, original in originals:
            assert lookup(owner, attr).__wrapped__ is original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in originals:
        assert lookup(owner, attr) is original, attr
