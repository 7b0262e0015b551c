"""The public API: where its names are declared, and its defaulted
parameters, listed by name.

Each defaulted parameter is an option a caller may set and every test and
benchmark may have to cover, so adding or removing one is a deliberate
change to this list, not a side effect.
"""

import ast
import importlib
import inspect
import pkgutil
from collections import Counter
from pathlib import Path

import deltanabla

# name in ``deltanabla.__all__`` (a class's public methods and constructor
# as ``Class.method``) -> its parameters that have a default
DEFAULTED = {
    "Lagrangian.__init__": ("d2", "d3"),
    "delta_integral": ("lo", "hi"),
    "directional_derivative": ("method", "h"),
    "directional_el_residual": ("strict",),
    "identity_suite": ("trials", "seed"),
    "local_min_probe": ("n_trials", "seed"),
    "nabla_integral": ("lo", "hi"),
    "random_grid_function": ("lo", "hi"),
    "random_scale": ("min_points", "max_points", "min_gap", "max_gap"),
    "solve": ("tol", "max_iter", "init"),
    "solve_directional": ("tol", "max_iter", "init"),
}


def _functions():
    """(name, function) for every public function, and for every class's
    constructor and public methods, that ``deltanabla.__all__`` exports."""
    for name in deltanabla.__all__:
        obj = getattr(deltanabla, name)
        if not inspect.isclass(obj):
            yield name, obj
            continue
        for attr, member in vars(obj).items():
            if attr == "__init__" or not attr.startswith("_"):
                yield f"{name}.{attr}", getattr(member, "__func__", member)


def _defaulted() -> dict[str, tuple[str, ...]]:
    found = {}
    for name, f in _functions():
        if not inspect.isroutine(f):
            continue
        params = inspect.signature(f).parameters.values()
        defaulted = tuple(p.name for p in params if p.default is not inspect.Parameter.empty)
        if defaulted:
            found[name] = defaulted
    return found


def test_defaulted_public_parameters_are_the_listed_ones():
    assert _defaulted() == DEFAULTED


def test_each_exported_name_is_declared_once_in_its_own_module():
    modules = [importlib.import_module(f"deltanabla.{m.name}") for m in pkgutil.iter_modules(deltanabla.__path__)]
    declared = Counter()
    for module in modules:
        for name in getattr(module, "__all__", ()):
            declared[name] += 1
            assert getattr(deltanabla, name) is getattr(module, name), (module.__name__, name)
    assert sorted(deltanabla.__all__) == sorted(declared)  # each name in one module's list, once
    assert set(declared.values()) == {1}


def test_the_package_init_spells_no_exported_name():
    spelled = set()  # every identifier and string constant (the docstring is one string)
    for node in ast.walk(ast.parse(Path(deltanabla.__file__).read_text())):
        if isinstance(node, ast.Name):
            spelled.add(node.id)
        elif isinstance(node, ast.alias):
            spelled.update((node.name, node.asname))
        elif isinstance(node, ast.Attribute):
            spelled.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            spelled.add(node.value)
    assert not spelled & set(deltanabla.__all__)
