"""Every name the benchmark's traced run wraps still exists in the package.

``perfbench/layers.py`` looks each wrapped function up by name (``getattr``,
or ``cls.__dict__[attr]`` for methods), so a rename in ``src`` would only
fail in a traced benchmark run. This loads the module by path, without
importing the rest of the benchmark, and builds its patch list with a
tracer stub whose ``wrap`` hands the function back unchanged.
"""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


class StubTracer:
    def wrap(self, name, fn, note=None):
        return fn


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers_under_test", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    layers = load_layers()
    for full in (False, True):
        patches = layers.patches(StubTracer(), full, layers.TreeAudit(), layers.GpUpdates())
        assert patches
        for owner, attr, wrapper in patches:
            assert callable(wrapper)
            assert hasattr(owner, attr), f"{owner.__name__}.{attr}"
            if isinstance(owner, type):  # methods are wrapped where they are defined
                assert attr in owner.__dict__, f"{owner.__name__}.{attr}"
    assert len(patches) > 2  # the full list adds the per-layer spans
