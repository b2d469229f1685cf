"""Every name that the benchmark's tracer wraps resolves in the package, and
installing the tracer and restoring it leaves every attribute as it was.

The tracer lives in ``bench/tracing.py`` and is loaded here by path; it
imports nothing from the package, so a renamed or deleted traced name would
otherwise fail only in a traced benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


def package_module(name: str):
    return importlib.import_module(f"deodhar.{name}")


@pytest.mark.parametrize(
    "name,module,attr",
    [
        (name, module, attr)
        for table in (tracing.SPANS, tracing.FUNCTIONS, tracing.GENERATORS)
        for name, (module, attr) in table.items()
    ],
)
def test_function_names_resolve(name, module, attr):
    assert module in tracing.LAYERS and name.startswith(f"{module}.")
    assert inspect.isfunction(getattr(package_module(module), attr)), name


@pytest.mark.parametrize("name,module,cls_name,attrs", [
    (name, module, cls_name, attrs)
    for name, (module, cls_name, attrs) in tracing.METHODS.items()
])
def test_method_names_resolve(name, module, cls_name, attrs):
    assert module in tracing.LAYERS and name.startswith(f"{module}.")
    cls = getattr(package_module(module), cls_name)
    assert inspect.isclass(cls)
    for attr in attrs:
        assert callable(cls.__dict__[attr]), f"{name}: {cls_name}.{attr}"


def test_install_and_restore_rebind_every_name():
    modules = {name: package_module(name) for name in tracing.LAYERS}
    classes = [getattr(modules[m], c) for m, c, _ in tracing.METHODS.values()]
    owners = [*modules.values(), *classes]
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        rebound = {
            (k, attr)
            for k, owner in enumerate(owners)
            for attr, value in vars(owner).items()
            if value is not before[k].get(attr)
        }
    finally:
        tracer.restore()
    # every traced name was rebound where it is defined
    for module, attr in [*tracing.SPANS.values(), *tracing.FUNCTIONS.values(),
                         *tracing.GENERATORS.values()]:
        assert (owners.index(modules[module]), attr) in rebound, f"{module}.{attr}"
    for module, cls_name, attrs in tracing.METHODS.values():
        k = owners.index(getattr(modules[module], cls_name))
        assert {(k, attr) for attr in attrs} <= rebound, f"{module}.{cls_name}"
    # and each rebound attribute is the original object again
    for k, attr in rebound:
        assert vars(owners[k])[attr] is before[k][attr], attr
    assert [dict(vars(owner)) for owner in owners] == before
