"""Source lint: certificate checks must survive `python -O`, auction values stay exact, and
every file keeps to the oldest grammar that pyproject.toml allows."""

import ast
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
