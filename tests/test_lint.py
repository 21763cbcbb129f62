"""Source lint: certificate checks must survive `python -O`, and auction values stay exact."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "auctionlab").glob("*.py"))


def test_sources_are_found():
    assert any(path.name == "model.py" for path in SOURCES)


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
