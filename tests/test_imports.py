"""Import hygiene and the public surface.

Modules import at the top, except across the one cycle, every
function and class of the package, and every method of its classes, has
a caller outside the tests, and every function that the benchmark's
tracer wraps by name is where it looks. A record is a dataclass only
when it needs to be, since a dataclass costs import time.
"""

import ast
import dataclasses
import importlib
import inspect
from collections import Counter
from pathlib import Path

import pytest
from corpus import perfbench_module

import semifree
from semifree.delzant import DelzantReport, SemifreeReport
from semifree.fixed_points import ValidationReport

# localization needs the chain engine of classifier, which imports
# localization at module level; these two imports break that cycle.
ALLOWED_LOCAL_IMPORTS = [
    ("localization.py", "_selection_rule_values", "classifier"),
    ("localization.py", "dh_path", "classifier"),
]


def _function_local_imports() -> list[tuple[str, str, str]]:
    found = []
    for path in sorted(Path(semifree.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.ImportFrom):
                    found.append((path.name, function.name, node.module or ""))
                elif isinstance(node, ast.Import):
                    found += [(path.name, function.name, a.name) for a in node.names]
    return sorted(found)


def test_only_the_cycle_imports_are_function_local():
    assert _function_local_imports() == ALLOWED_LOCAL_IMPORTS


def _module_level_imports(tree: ast.Module) -> list[tuple[str, int]]:
    """``(bound name, line)`` of each module-level import, also under an ``if``."""
    found = []
    for statement in tree.body:
        for node in statement.body if isinstance(statement, ast.If) else [statement]:
            if isinstance(node, ast.Import):
                found += [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                found += [(a.asname or a.name, node.lineno) for a in node.names]
    return found


def test_every_module_level_import_is_used():
    unused = []
    for path in sorted(Path(semifree.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            (path.name, name, line)
            for name, line in _module_level_imports(tree)
            if name not in used
        ]
    assert unused == []


def _global_loads(node: ast.AST, local: frozenset = frozenset()) -> set[str]:
    """Names loaded under ``node`` that are not local variables.

    A load of a name bound inside the enclosing function (a parameter or
    an assignment) is a local variable and does not count.
    """
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
        local = local | {a.arg for a in params if a} | {
            n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        }
    found = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
        found.add(node.id)
    for child in ast.iter_child_nodes(node):
        found |= _global_loads(child, local)
    return found


def _definitions_without_a_user() -> list[str]:
    """``module.name`` of each module-level function or class of the
    package, public or private, that nothing in src, scripts or
    perfbench reads.

    A definition is read where it is imported from its module, directly
    or through the package; where it is read as an attribute of its
    module; or where its own module loads it outside its own definition
    (a recursive call is no user). ``__init__.py`` only re-exports.
    """
    package = Path(semifree.__file__).parent
    root = package.parent.parent
    modules = {path.stem for path in package.glob("*.py")} - {"__init__"}
    origin = {  # package-level name -> module it is re-exported from
        alias.name: node.module
        for node in ast.parse((package / "__init__.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    defined: list[tuple[str, str]] = []
    users: set[tuple[str, str]] = set()
    for directory in (package, root / "scripts", root / "perfbench"):
        for path in sorted(directory.glob("*.py")):
            if path == package / "__init__.py":
                continue
            for statement in ast.parse(path.read_text(encoding="utf-8")).body:
                name = getattr(statement, "name", None)  # set on def and class
                if directory == package:
                    if name:
                        defined.append((path.stem, name))
                    users |= {(path.stem, n) for n in _global_loads(statement) if n != name}
                for node in ast.walk(statement):
                    # node.module is None only in a relative "from . import"
                    if isinstance(node, ast.ImportFrom) and (
                        node.level or node.module.startswith("semifree")
                    ):
                        module = (node.module or "").removeprefix("semifree").lstrip(".")
                        users |= {(module or origin.get(a.name), a.name) for a in node.names}
                    elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                        owner = node.value.id
                        if owner in modules:
                            users.add((owner, node.attr))
                        elif owner == "semifree":
                            users.add((origin.get(node.attr), node.attr))
    return [f"{module}.{name}" for module, name in defined if (module, name) not in users]


def test_every_export_has_a_caller_outside_the_tests():
    # The public API is what src, scripts and perfbench use; a helper
    # only the tests call belongs in the tests. This holds for every
    # function and class, public or private, exported from the package
    # or not.
    assert _definitions_without_a_user() == []


# Methods that only the tests read. RestrictionTable.restriction reads one
# solved entry by class name and label: the acceptance tests state the
# paper's tables entry by entry, while the package prints whole tables.
ALLOWED_TEST_ONLY_METHODS = [
    ("localization", "RestrictionTable.restriction"),
]


def _methods_without_a_user() -> list[tuple[str, str]]:
    """``(module, class.method)`` of each non-dunder method or property of
    a class of the package that nothing in src, scripts or perfbench reads.

    A method is read where an attribute of its name is loaded outside its
    own body; the receiver's type is not resolved, so any attribute of
    that name counts. A string ``"Class.method"``, as the tracer's
    targets name a method, counts too.
    """
    package = Path(semifree.__file__).parent
    root = package.parent.parent
    methods: list[tuple[str, str, ast.FunctionDef]] = []
    reads: Counter = Counter()
    strings: set[str] = set()
    for directory in (package, root / "scripts", root / "perfbench"):
        for path in sorted(directory.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            if directory == package:
                methods += [
                    (path.stem, cls.name, function)
                    for cls in tree.body
                    if isinstance(cls, ast.ClassDef)
                    for function in cls.body
                    if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (function.name.startswith("__") and function.name.endswith("__"))
                ]
            reads.update(_attribute_loads(tree))
            strings |= {
                node.value
                for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
            }
    return [
        (module, f"{cls}.{function.name}")
        for module, cls, function in methods
        if reads[function.name] == _attribute_loads(function)[function.name]
        and f"{cls}.{function.name}" not in strings
    ]


def _attribute_loads(node: ast.AST) -> Counter:
    """How often each attribute name is loaded under ``node``."""
    return Counter(
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    )


def test_every_method_has_a_caller_outside_the_tests():
    # As for the module-level definitions: a method or property that only
    # the tests read belongs in the tests, unless it is listed above.
    assert _methods_without_a_user() == ALLOWED_TEST_ONLY_METHODS


def test_every_traced_function_resolves():
    # ``perfbench/tracing.py`` finds each traced function by module and
    # name, so a refactor that moves one fails here, and not only in a
    # traced benchmark run.
    tracing = perfbench_module("tracing")
    for owner, attr, _span in tracing.TARGETS:
        module = importlib.import_module(f"semifree.{owner}")
        holder, _, name = attr.rpartition(".")
        if holder:
            assert name in vars(getattr(module, holder)), (owner, attr)
        else:
            assert callable(getattr(module, name, None)), (owner, attr)
    for attr, callers in tracing.CALLER_NAMED.items():
        owner = next(owner for owner, name, _span in tracing.TARGETS if name == attr)
        function = getattr(importlib.import_module(f"semifree.{owner}"), attr)
        for caller in callers:
            bound = vars(importlib.import_module(f"semifree.{caller}")).values()
            assert any(value is function for value in bound), (caller, attr)


# ---------------------------------------------------------------------------
# record kinds

# ``@dataclass`` generates and compiles six methods per class when the
# module is imported, and no bytecode cache keeps them: with 27
# dataclasses, that was 25 of the 35 ms of the benchmark's
# ``enumerate-default`` set-up with the package's bytecode cached
# (CPython 3.11, ``BENCH_37.json``). A ``typing.NamedTuple`` compiles
# one small ``__new__``. So a record is a NamedTuple unless it needs what only a
# dataclass gives: a ``__post_init__`` check or normalisation (which may
# also keep a memo in the instance ``__dict__``), or a rebuild with
# ``dataclasses.replace`` by the tests' oracles.
REPLACED_BY_THE_ORACLES = {"classifier._Chart", "localization._SkeletonClass"}


def _package_classes() -> dict[str, type]:
    """``module.name`` -> class, for each class a package module defines."""
    found = {}
    for path in sorted(Path(semifree.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"semifree.{path.stem}")
        for name, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == module.__name__:
                found[f"{path.stem}.{name}"] = value
    return found


def test_a_record_is_a_dataclass_only_when_it_needs_to_be():
    needless, not_named_tuples = [], []
    for name, cls in _package_classes().items():
        if dataclasses.is_dataclass(cls):
            if "__post_init__" not in vars(cls) and name not in REPLACED_BY_THE_ORACLES:
                needless.append(name)
        elif vars(cls).get("__annotations__"):
            if not (issubclass(cls, tuple) and hasattr(cls, "_fields")):
                not_named_tuples.append(name)
    assert needless == []
    assert not_named_tuples == []


# Records that were frozen dataclasses and became NamedTuples; what their
# callers rely on must hold of either kind.
CONVERTED_RECORDS = [
    "_solve.Solution",
    "_solve.AffineConstraint",
    "classifier._CrossingLog",
    "classifier._Branch",
    "classifier.Crossing",
    "classifier.ChainResult",
    "classifier._ChainSolution",
    "classifier.EnumerationResult",
    "delzant.Vertex",
    "delzant.Edge",
    "delzant.LatticePolytope",
    "delzant.DelzantReport",
    "delzant.SemifreeReport",
    "delzant.SliceEdge",
    "delzant.SlicePolygon",
    "fixed_points.ValidationReport",
    "localization.TableClass",
    "localization.RestrictionTable",
    "localization.DHPath",
]


@pytest.mark.parametrize("name", CONVERTED_RECORDS)
def test_a_record_refuses_attribute_assignment(name):
    cls = _package_classes()[name]
    fields = list(inspect.signature(cls).parameters)
    record = cls(*[None] * len(fields))
    with pytest.raises(AttributeError):
        setattr(record, fields[0], 1)


def test_a_report_is_true_exactly_when_it_is_ok():
    for cls in (DelzantReport, SemifreeReport):
        assert cls(True, ())
        assert not cls(False, ())


def test_a_validation_report_defaults_to_no_violation():
    assert ValidationReport(True).violations == ()
