"""The package's import graph: every fednam import at module level, and
`dnn` below `nam`, so no module needs a deferred import to break a cycle."""

import ast
from pathlib import Path

import fednam

SRC = Path(fednam.__file__).parent


def imported_fednam_modules(node: ast.AST, package: str) -> list[str]:
    """Dotted names of the fednam modules an import statement reads from."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names if alias.name.split(".")[0] == "fednam"]
    if isinstance(node, ast.ImportFrom):
        if node.level == 0:
            return [node.module] if node.module.split(".")[0] == "fednam" else []
        base = package.split(".")[: len(package.split(".")) - node.level + 1]
        if node.module is None:  # from . import x: x may be a module
            return [".".join(base + [alias.name]) for alias in node.names]
        return [".".join(base + [node.module])]
    return []


def parsed_modules():
    for path in sorted(SRC.rglob("*.py")):
        package = ".".join(path.relative_to(SRC.parent).parts[:-1])
        yield path, package, ast.parse(path.read_text(encoding="utf-8"))


def test_no_function_imports_a_fednam_module():
    deferred = []
    for path, package, tree in parsed_modules():
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(function):
                    for module in imported_fednam_modules(node, package):
                        deferred.append(f"{path.name}:{node.lineno} {function.name}: {module}")
    assert deferred == []


def test_dnn_imports_nothing_from_nam():
    tree = ast.parse((SRC / "dnn.py").read_text(encoding="utf-8"))
    modules = [m for node in ast.walk(tree) for m in imported_fednam_modules(node, "fednam")]
    assert modules and not [m for m in modules if m == "fednam.nam" or m.startswith("fednam.nam.")]
