"""Line coverage of ``src/rssinfo`` under the test suite, with the stdlib only.

    python tests/linecov.py [pytest arguments]

runs the suite in this process under ``sys.settrace``, tracing only frames
whose code lives in ``src/rssinfo``, then prints each executable line that
never ran as ``file:line: source`` and a count.  A line is executable if the
compiler maps an instruction to it.  Code run in a subprocess is not seen, and
a line counts as run if any part of it ran.  Each line listed is dead code or
untested.  Tracing makes the suite two to three times as slow.
"""

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rssinfo"


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that some instruction of its code maps to."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    import pytest

    prefix, run = str(PACKAGE) + os.sep, set()

    def local(frame, event, arg):
        if event == "line":
            run.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            run.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines - {n for f, n in run if f == str(path)}):
            missed += 1
            print(f"{path.relative_to(ROOT / 'src')}:{line}: {source[line - 1].strip()}")
    print(f"{missed} of {total} executable lines never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
