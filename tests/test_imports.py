"""Import hygiene: modules import at the top, except across the one cycle."""

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
