"""Import hygiene and the public surface.

Modules import at the top, except across the one cycle, and every
exported name has a caller outside the tests.
"""

import ast
from pathlib import Path

import semifree

# localization needs the chain engine of classifier, which imports
# localization at module level; these three imports break that cycle.
ALLOWED_LOCAL_IMPORTS = [
    ("localization.py", "_selection_rule_values", "classifier"),
    ("localization.py", "b_plus_minus", "classifier"),
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


def _reads(node: ast.AST, local: frozenset = frozenset()) -> set[str]:
    """Names read under ``node``: global loads, attribute reads and imports.

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
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        found.add(node.attr)
    elif isinstance(node, ast.ImportFrom):
        found |= {a.name for a in node.names}
    for child in ast.iter_child_nodes(node):
        found |= _reads(child, local)
    return found


def _exported_names_without_a_user() -> list[str]:
    """Names of ``__all__`` read nowhere in src, scripts or perfbench.

    ``__init__.py`` only re-exports, and a definition reading its own
    name (a recursive call) is no user of it.
    """
    package = Path(semifree.__file__).parent
    root = package.parent.parent
    reads: list[tuple[str | None, set[str]]] = []  # (top-level definition, names it reads)
    for directory in (package, root / "scripts", root / "perfbench"):
        for path in sorted(directory.glob("*.py")):
            if path == package / "__init__.py":
                continue
            for statement in ast.parse(path.read_text(encoding="utf-8")).body:
                definition = isinstance(
                    statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                )
                reads.append((statement.name if definition else None, _reads(statement)))
    return [
        name
        for name in semifree.__all__
        if not any(name in names for owner, names in reads if owner != name)
    ]


def test_every_export_has_a_caller_outside_the_tests():
    # The public API is what src, scripts and perfbench use; a helper
    # only the tests call belongs in the tests.
    assert _exported_names_without_a_user() == []
