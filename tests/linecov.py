"""List the package lines that the test suite never runs.

    python tests/linecov.py
    python tests/linecov.py tests/test_cli.py -k lp

Runs pytest in this process, on `tests` or on the given arguments, under
`sys.settrace` and `threading.settrace`.  It records the line events of the
frames whose code lives in `src/npcsubdiv`, and prints `path:line` for each line
that a code object of a package module marks executable (`co_lines()`) and that
nothing ran.  It needs only the standard library and pytest, and it runs the
package from `src` whether or not PYTHONPATH names it.

`__main__.py` is skipped: it runs only in the child processes that
`test_cli.py::test_the_module_entry_point_runs_main` starts, and no trace in
this process sees them.

Exits 1 when it prints a line; otherwise with pytest's exit code.  Tracing
makes the suite about twice as slow, so this is a tool, not a test.
"""

import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "npcsubdiv"


def executable_lines(path: Path) -> set:
    """The line numbers that the code objects compiled from path mark executable."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def traced_run(args) -> tuple:
    """pytest's exit code on args, and the (file name, line) pairs that package frames ran."""
    ran, inside = set(), {}

    def lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = Path(name).resolve().parent == PACKAGE
        return lines if inside[name] else None

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        code = pytest.main(list(args))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), {(str(Path(name).resolve()), line) for name, line in ran}


def main(argv) -> int:
    sys.path.insert(0, str(PACKAGE.parent))  # ahead of any installed copy
    code, ran = traced_run(argv or [str(ROOT / "tests")])
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__main__.py":
            print(f"skipped {path.relative_to(ROOT)}: only child processes run it")
            continue
        missed += [f"{path.relative_to(ROOT)}:{line}" for line in sorted(executable_lines(path))
                   if (str(path), line) not in ran]
    print("\n".join(missed + [f"{len(missed)} package lines never ran"]))
    return 1 if missed else code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
