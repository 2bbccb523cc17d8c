"""The package's import graph: every fednam import at module level, and
`dnn` below `nam`, so no module needs a deferred import to break a cycle.
And the import footprint: the CLI loads nothing beyond NumPy, and the test
fixtures that perfbench loads import nothing beyond NumPy and pytest."""

import ast
import subprocess
import sys
from pathlib import Path

import fednam

SRC = Path(fednam.__file__).parent
CONFTEST = Path(__file__).with_name("conftest.py")


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


def module_level_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, top-level package) of each import run when the module loads,
    outside any function body; a relative import reads as "."."""
    found, pending = [], list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append((node.lineno, "." if node.level else node.module.split(".")[0]))
        pending.extend(ast.iter_child_nodes(node))
    return found


def test_conftest_imports_only_the_standard_library_numpy_and_pytest():
    """perfbench runs tests/conftest.py in its own process for the row
    generators, so each package imported here adds to every child's
    `peak_rss_mb` (hypothesis: about 9 MB)."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "pytest"}
    imports = module_level_imports(ast.parse(CONFTEST.read_text(encoding="utf-8")))
    assert imports and [f"{line}: {name}" for line, name in imports if name not in allowed] == []


def test_the_cli_loads_nothing_beyond_numpy():
    """What `import fednam.cli` adds to a fresh interpreter's modules."""
    probe = (
        "import sys; before = set(sys.modules); import fednam.cli; "
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", probe], cwd=SRC.parent, capture_output=True, text=True, check=True
    ).stdout.split()
    assert {"fednam", "numpy"} <= set(loaded)
    assert sorted(set(loaded) - set(sys.stdlib_module_names) - {"fednam", "numpy"}) == []
