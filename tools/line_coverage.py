"""List the lines of src/meqlab that a pytest run never executes.

    python3 tools/line_coverage.py [PYTEST_ARGS ...]

Runs pytest in this process (with PYTEST_ARGS, default: the whole
suite) under a stdlib line tracer, ``sys.settrace`` and, for the scan's
worker threads, ``threading.settrace``, that records only frames of
src/meqlab. It then prints, per module, the executable lines that never
ran, as line numbers and ranges. The executable lines are those of the
line tables (``co_lines``) of every function, lambda and class body in a
module; the module's top level, which runs on import, is left out. The
exit status is pytest's when pytest fails, else 1 when a line never ran
and 0 when none did. Tracing roughly doubles the suite's wall time.
"""

from __future__ import annotations

import sys
import threading
from collections import defaultdict
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "meqlab"


def executable_lines(path: Path) -> set[int]:
    """Line numbers of the code objects nested in the module at ``path``."""
    lines: set[int] = set()
    todo = [c for c in compile(path.read_text(), str(path), "exec").co_consts
            if isinstance(c, CodeType)]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as '3, 7-9'."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status and the lines run per src/meqlab file."""
    import pytest

    prefix = str(PACKAGE) + "/"
    seen: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), seen


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    status, seen = traced_run(argv or [str(ROOT / "tests")])
    missing_total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missing = sorted(executable_lines(path) - seen.get(str(path), set()))
        missing_total += len(missing)
        if missing:
            print(f"{path.relative_to(ROOT)}: {len(missing)} never ran: {ranges(missing)}")
    print(f"{missing_total} line(s) of src/meqlab never ran")
    if status:
        return status
    return 1 if missing_total else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
