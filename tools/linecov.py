"""Print each line of `src/auctionlab` that no test executes.

Usage, from the repository root:

    python tools/linecov.py                 # runs `pytest -q tests`
    python tools/linecov.py tests/test_model.py -k validate

Any arguments are handed to pytest in place of the default `-q tests`.  The
script runs pytest in this process under a `sys.settrace` tracer that records
line events only in files under `src/auctionlab`, then prints `file:line: text`
for every line that the compiled modules can execute and no test reached,
followed by a count.  It needs nothing outside the standard library and
pytest, and exits with pytest's status.

Python switches a tracer off for good when the tracer itself raises, which a
test that recurses to the recursion limit makes it do.  So the tracer is armed
again at the start of each test phase (setup, call and teardown); without that,
every test after the first deep one runs untraced, and most of `cli.py` reads as
unexecuted.

Two kinds of line can read as missed although they run:
- lines reached only past the recursion limit: there the tracer's own call
  raises the `RecursionError` and is switched off until the next phase, so the
  handler in `oracles._search_root` that turns it into `TooLarge` reads as
  missed;
- lines that run only in pool worker processes, such as the body of
  `harness._run_trials`: workers are separate processes, and their line events
  are not collected.

Under the tracer, the three `test_searches_leave_no_cyclic_garbage` cases fail
(tracing leaves objects for the cycle collector that a plain run does not);
take pass and fail from a plain pytest run, and lines from this one.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "auctionlab"


def executable_lines(path: Path) -> set[int]:
    """The lines that carry bytecode in the module or any code object it nests."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


class LineTracer:
    """A `sys.settrace` function that records the lines run in files under `prefix`."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.hits: dict[str, set[int]] = {}

    def __call__(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(self.prefix):
            return None  # no line events for frames outside the package
        lines = self.hits.setdefault(filename, set())
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        return local


class Rearm:
    """pytest plugin that installs the tracer again before each test phase."""

    def __init__(self, tracer: LineTracer):
        self.tracer = tracer

    def pytest_runtest_setup(self, item):
        sys.settrace(self.tracer)

    pytest_runtest_call = pytest_runtest_teardown = pytest_runtest_setup


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))  # trace this checkout's package
    tracer = LineTracer(str(SRC) + "/")
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or ["-q", "tests"], plugins=[Rearm(tracer)])
    finally:
        sys.settrace(None)

    missed = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        hit = tracer.hits.get(str(path), set())
        for line in sorted(executable_lines(path) - hit):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
            missed += 1
    print(f"{missed} line(s) of {SRC.relative_to(ROOT)} executed by no test")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
