"""Source lint: certificate checks must survive `python -O`, auction values stay exact,
every file keeps to the oldest grammar that pyproject.toml allows, annotations resolve and
no module imports a name it does not use."""

import ast
import importlib
import inspect
import typing
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "auctionlab").glob("*.py"))


def test_sources_are_found():
    assert any(path.name == "model.py" for path in SOURCES)


# every file parses as Python 3.10, the oldest that pyproject.toml allows,
# even on a newer interpreter.  This checks grammar only (3.11's `except*`
# fails), not whether the library calls it makes exist in 3.10.
OLDEST = (3, 10)


def test_every_file_parses_with_the_oldest_supported_grammar():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    files = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])
    assert Path(__file__).resolve() in files
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=OLDEST)
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST)


def test_no_bare_assert_in_package_sources():
    # `assert` statements vanish under -O; checks must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, "bare assert in " + ", ".join(found)


# auction values stay exact: no float may touch them in these modules
# (harness.py and generators.py use floats for statistics and probabilities)
EXACT_SOURCES = ("model.py", "oracles.py", "offline.py", "online.py", "reductions.py")


def _float_hazards(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node, "true division"
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node, "float literal"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "round")
        ):
            yield node, f"{node.func.id}() call"


def test_exact_sources_are_found():
    assert {path.name for path in SOURCES} >= set(EXACT_SOURCES)


def test_no_float_arithmetic_in_exact_modules():
    found = [
        f"{path.name}:{node.lineno} {what}"
        for path in SOURCES
        if path.name in EXACT_SOURCES
        for node, what in _float_hazards(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert not found, "float arithmetic in " + ", ".join(found)


def test_float_lint_catches_each_hazard():
    sample = "a = b / c\nd /= 2\ne = 0.5\nf = float(g)\nh = round(i)\nj = b // c\n"
    kinds = sorted(what for _, what in _float_hazards(ast.parse(sample)))
    assert kinds == ["float literal", "float() call", "round() call", "true division", "true division"]


# the export list names exactly what the package binds publicly
def test_export_list_has_no_duplicates():
    import auctionlab

    assert len(auctionlab.__all__) == len(set(auctionlab.__all__))


def test_export_list_matches_the_public_names():
    import types

    import auctionlab

    bound = {
        name
        for name, value in vars(auctionlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(auctionlab.__all__) == bound | {"__version__"}


# every annotation names something the module can resolve: with postponed
# evaluation a missing import only fails when the hints are read
def _defined(module):
    for name, value in vars(module).items():
        if (inspect.isclass(value) or inspect.isfunction(value)) and value.__module__ == module.__name__:
            yield name, value
            if inspect.isclass(value):
                yield from ((f"{name}.{k}", v) for k, v in vars(value).items() if inspect.isfunction(v))


def test_every_annotation_resolves():
    found = []
    for path in SOURCES:
        module = importlib.import_module(f"auctionlab.{path.stem}")
        for name, value in _defined(module):
            try:
                typing.get_type_hints(value)
            except NameError as exc:
                found.append(f"{path.name} {name}: {exc}")
    assert not found, "unresolvable annotation in " + ", ".join(found)


# a module imports only what it uses (the package's __init__ re-exports)
def _unused_imports(tree):
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_no_module_imports_a_name_it_does_not_use():
    found = [
        f"{path.name}:{line} {name}"
        for path in SOURCES
        if path.name != "__init__.py"
        for line, name in _unused_imports(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert not found, "unused import in " + ", ".join(found)


def test_unused_import_lint_reads_names_not_text():
    sample = "import os.path\nfrom a import b, c as d\nfrom __future__ import annotations\nx = d\n'b'\n"
    assert _unused_imports(ast.parse(sample)) == [(1, "os"), (2, "b")]


# "x must be >= low, got v" is written once, by errors._at_least; a module
# that checks a lower bound calls it instead of raising the message itself
def _hand_written_bounds(tree):
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Raise)
            and isinstance(node.exc, ast.Call)
            and isinstance(node.exc.func, ast.Name)
            and node.exc.func.id == "InvalidParams"
            and node.exc.args
        ):
            continue
        message = node.exc.args[0]
        parts = message.values if isinstance(message, ast.JoinedStr) else [message]
        text = "".join(p.value for p in parts if isinstance(p, ast.Constant) and isinstance(p.value, str))
        if "must be >=" in text:
            yield node.lineno


def test_lower_bounds_are_refused_by_the_one_rule():
    found = [
        (path.name, line)
        for path in SOURCES
        for line in _hand_written_bounds(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert [name for name, _ in found] == ["errors.py"], found


def test_bound_lint_reads_raises_not_text():
    sample = (
        'raise InvalidParams(f"m must be >= 1, got {m}")\n'
        'raise InvalidParams("k must be >= 1")\n'
        'raise InvalidParams(f"need c >= 1, got {c}")\n'
        'raise ValueError(f"m must be >= 1, got {m}")\n'
        'x = "must be >= 1"\n'
    )
    assert list(_hand_written_bounds(ast.parse(sample))) == [1, 2]
