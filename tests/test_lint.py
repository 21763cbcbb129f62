"""Source lint: certificate checks must survive `python -O`."""

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
