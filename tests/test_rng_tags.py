"""Every derived rng stream names its tag: `np.random.default_rng([seed, TAG, ...])`
takes a module-level `_TAG_*` constant, and no two constants share a value,
so no two streams of a run can coincide."""

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


def test_no_two_tags_share_a_value():
    by_value: dict[object, list[str]] = {}
    for path, tree in _trees():
        for name, value in _tags(tree).items():
            by_value.setdefault(value, []).append(f"{path.name}:{name}")
    assert len(by_value) >= 5
    assert {v: names for v, names in by_value.items() if len(names) > 1} == {}
