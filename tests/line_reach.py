"""Line-reach gate: run Tier-1 in process under ``sys.settrace`` and fail on
any executable line of ``src/blockbounds`` that no test reaches, unless it is
on ``EXPECTED`` below.

    PYTHONPATH=src python tests/line_reach.py [pytest arguments]

Standard library only.  A line is executable when some code object compiled
from its file maps bytecode to it (``co_lines``); line tables differ between
Python versions, so the list is kept for the version CI runs this on.  An
entry is (file, function, stripped source text), not a line number, and it
excuses one line; an entry that matches no unreached line fails too, so the
list cannot go stale.  Lines that only child processes run (the console
entry point) cannot be seen from here and are listed.

Exit status: pytest's own if the tests fail, 1 if the reach check fails,
0 otherwise.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "blockbounds"

EXPECTED = [
    # run only as the console script or ``python -m blockbounds.cli``, both
    # child processes
    ("cli.py", "main", "sys.exit(run(sys.argv[1:]))"),
    ("cli.py", "<module>", "main()"),
]


def executable_lines(path: Path) -> dict[int, str]:
    """{line: dotted name of the innermost function holding it} for ``path``."""
    owner: dict[int, str] = {}

    def walk(code, name):
        for _, _, line in code.co_lines():
            if line:  # None for no line; 0 for a module's RESUME, never a line event
                owner[line] = name
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                inner = const.co_name
                walk(const, inner if name == "<module>" else f"{name}.{inner}")

    walk(compile(path.read_text(), str(path), "exec"), "<module>")
    return owner


def traced_pytest(args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """Run pytest with ``args`` in this process; (its status, lines hit)."""
    prefix = str(PACKAGE) + "/"
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    import pytest

    sys.settrace(calls)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(status), hits


def unreached(hits) -> tuple[list[tuple[str, str, str, int]], int]:
    """(file, function, source text, line) of every executable line not hit,
    and the number of executable lines."""
    out, total = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line, name in sorted(lines.items()):
            if (str(path), line) not in hits:
                out.append((path.name, name, text[line - 1].strip(), line))
    return out, total


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    status, hits = traced_pytest(["-q", "-p", "no:cacheprovider", *argv])
    if status:
        print(f"line reach: pytest exited {status}; reach not judged")
        return status
    missed, total = unreached(hits)
    excused = Counter(EXPECTED)
    new = []
    for file, name, text, line in missed:
        key = (file, name, text)
        if excused[key]:
            excused[key] -= 1
        else:
            new.append(f"  {file}:{line} in {name}: {text}")
    stale = [f"  {key}" for key, left in excused.items() for _ in range(left)]
    print(f"line reach: {total - len(missed)} of {total} executable lines reached, "
          f"{len(missed)} unreached, {len(EXPECTED)} expected")
    if new:
        print("unreached lines not on the expected list:", *new, sep="\n")
    if stale:
        print("expected entries that match no unreached line:", *stale, sep="\n")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
