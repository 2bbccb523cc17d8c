"""Every derived rng stream names its tag: `np.random.default_rng([seed, TAG, ...])`
takes a module-level `_TAG_*` constant, and no two constants share a value,
so no two streams of a run can coincide. Every other `default_rng` call hands
on its function's own `rng` parameter, so every stream of a run is one of them."""

import ast
from pathlib import Path

import fednam

SRC = Path(fednam.__file__).parent


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def _tags(tree) -> dict[str, object]:
    """Module-level `_TAG_* = <constant>` assignments."""
    return {
        target.id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.startswith("_TAG_")
    }


def _derived_streams(tree):
    """The argument lists of `default_rng([...])` calls."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "default_rng" and node.args
                and isinstance(node.args[0], (ast.List, ast.Tuple))):
            yield node.lineno, node.args[0].elts


def test_every_derived_stream_names_a_tag_of_its_module():
    unnamed, streams = [], 0
    for path, tree in _trees():
        tags = _tags(tree)
        for lineno, elts in _derived_streams(tree):
            streams += 1
            if len(elts) < 2 or not (isinstance(elts[1], ast.Name) and elts[1].id in tags):
                unnamed.append(f"{path.name}:{lineno}")
    assert streams >= 5 and unnamed == []


def _stream_calls(tree):
    """(line, first positional argument or None, enclosing function's parameter
    names) of every `default_rng(...)` call, and `np.random` names besides it."""
    def visit(node, params):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name == "default_rng":
                yield node.lineno, (node.args[0] if node.args else None), params
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                and node.value.attr == "random" and node.attr not in ("default_rng", "Generator")):
            yield node.lineno, None, set()  # a stream made some other way
        for child in ast.iter_child_nodes(node):
            yield from visit(child, params)
    yield from visit(tree, set())


def test_every_stream_is_derived_or_continues_the_rng_parameter():
    """A `default_rng` call takes a `[seed, TAG, ...]` list (checked above) or
    the enclosing function's own `rng`: no literal, bare seed or converted one."""
    stray, calls = [], 0
    for path, tree in _trees():
        for lineno, arg, params in _stream_calls(tree):
            calls += 1
            derived = isinstance(arg, (ast.List, ast.Tuple))
            handed_on = isinstance(arg, ast.Name) and arg.id == "rng" and "rng" in params
            if not (derived or handed_on):
                stray.append(f"{path.name}:{lineno}")
    assert stray == []
    assert calls >= 11


def test_no_two_tags_share_a_value():
    by_value: dict[object, list[str]] = {}
    for path, tree in _trees():
        for name, value in _tags(tree).items():
            by_value.setdefault(value, []).append(f"{path.name}:{name}")
    assert len(by_value) >= 5
    assert {v: names for v, names in by_value.items() if len(names) > 1} == {}
