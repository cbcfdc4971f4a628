"""Line coverage of ``src/repro`` under a pytest run, stdlib only.

    PYTHONPATH=src python scripts/linecov.py OUT.json [pytest args...]
    python scripts/linecov.py --compare A.json B.json

The first runs pytest in-process under a ``sys.settrace`` collector
and writes the executed ``[file, line]`` pairs of ``src/repro`` as
JSON (about five times slower than plain pytest).  The second lists
the lines ``A`` executed and ``B`` did not; it exits 1 if there are.
"""

import json
import os
import sys

SRC = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "src"))
PACKAGE = os.path.join(SRC, "repro") + os.sep


def collect(out, pytest_args):
    import pytest

    executed = {}  # file -> lines
    complete = set()  # code objects every line of which has run

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        if code in complete or not code.co_filename.startswith(PACKAGE):
            return None
        seen = executed.setdefault(code.co_filename, set())
        if {line for _, _, line in code.co_lines() if line} <= seen:
            complete.add(code)  # stop paying for hot, covered code
            return None
        seen.add(frame.f_lineno)
        return local

    sys.path.insert(0, SRC)
    sys.settrace(tracer)
    status = pytest.main(list(pytest_args))
    sys.settrace(None)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(sorted([os.path.relpath(name, SRC), line]
                         for name, lines in executed.items()
                         for line in lines), handle)
    return int(status)


def compare(before, after):
    lost = sorted(set(map(tuple, json.load(open(before))))
                  - set(map(tuple, json.load(open(after)))))
    for name, line in lost:
        print(f"{name}:{line}")
    print(f"{len(lost)} lines executed by {before} and not by {after}")
    return 1 if lost else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compare"] and len(sys.argv) == 4:
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    if len(sys.argv) < 2 or sys.argv[1].startswith("-"):
        sys.exit(__doc__)
    sys.exit(collect(sys.argv[1], sys.argv[2:]))
