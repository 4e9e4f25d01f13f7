"""Print the lines of src/ that never ran under a pytest run.

    python scripts/linecov.py [PYTEST_ARG ...]

Runs pytest in this process, with the given arguments or, without any, the
tier-1 suite (`-q --continue-on-collection-errors`), from the working
directory, with its src/ first on sys.path. A sys.settrace tracer records
each line that runs in a file under src/. Then it prints, one per line as
`path:line`, every line that holds bytecode and never ran, and exits with
pytest's code. Lines that run only in a child process count as not run.
"""

import sys
from pathlib import Path


def code_lines(code) -> set[int]:
    """The lines of code and of every code object nested in it that hold bytecode."""
    lines = {line for _, _, line in code.co_lines() if line}  # a module starts at line 0
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def main(args: list[str]) -> int:
    import pytest

    src = Path("src").resolve()
    files = {str(path): path for path in sorted(src.rglob("*.py"))}
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        # only frames of src/ files are traced line by line
        return local if frame.f_code.co_filename in files else None

    sys.path.insert(0, str(src))
    sys.settrace(trace)
    try:
        code = pytest.main(args or ["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
    for name, path in files.items():
        source = compile(path.read_text(encoding="utf-8"), name, "exec")
        for line in sorted(code_lines(source)):
            if (name, line) not in ran:
                print(f"{path.relative_to(src.parent)}:{line}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
