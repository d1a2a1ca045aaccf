"""The names the benchmark's tracer binds to still exist in the package.

``perfbench/tracer.py`` wraps functions and methods by name.  A renamed or
moved target makes a traced run fail (a cross-module import it must rebind)
or read 0 (a work counter).  The tracer module is loaded from its file and
only read; nothing is installed.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import weylkit.cli  # noqa: F401  (imports every layer module)

TRACER_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def _layer(layer: str):
    return sys.modules[f"{tracer.PACKAGE}.{layer}"]


@pytest.mark.parametrize(
    "layer, name",
    [(layer, name) for layer, names in tracer.REQUIRED_REBINDINGS for name in names],
    ids=lambda v: v,
)
def test_rebound_imports_are_wrapped_functions(layer, name):
    # the tracer wraps public functions defined in a layer module and rebinds
    # every other name bound to the same object
    fn = getattr(_layer(layer), name)
    assert inspect.isfunction(fn)
    home = fn.__module__.removeprefix(tracer.PACKAGE + ".")
    assert home in tracer.LAYERS and not fn.__name__.startswith("_")
    assert vars(_layer(home))[fn.__name__] is fn


@pytest.mark.parametrize(
    "layer, target",
    sorted(set(tracer._CALL_COUNTERS) | set(tracer._RESULT_HOOKS)),
    ids=lambda v: v,
)
def test_counted_targets_resolve(layer, target):
    # looked up the way the tracer does: in the module's or the class's own vars()
    module = _layer(layer)
    owner_name, _, attr = target.rpartition(".")
    owner = module
    if owner_name:
        owner = vars(module).get(owner_name)
        assert inspect.isclass(owner) and owner.__module__ == module.__name__, target
    fn = vars(owner).get(attr)
    assert inspect.isfunction(fn), target
    if not owner_name:
        assert fn.__module__ == module.__name__, target
