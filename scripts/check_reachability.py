#!/usr/bin/env python3
"""Fail if a src/ file lies outside the #include closure of what ships.

The roots are every C++ file under bench/, examples/, src/tools/ and
perfbench/, plus every src/ .cc without a header of its own (the ISA
kernel translation units, which register themselves with the router).
A .cc counts as reached when its header is. A src/ file outside the
closure is reached only by tests, and tests alone do not keep library
code alive: delete it (git keeps it) or give it a caller.

    python3 scripts/check_reachability.py [checkout]

Exits 1 and lists the unreached files, or prints a one-line summary.
"""

import re
import sys
from pathlib import Path

ROOT_DIRS = ("bench", "examples", "src/tools", "perfbench")
CXX_SUFFIXES = {".cc", ".cpp", ".hh", ".h"}
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def cxx_files(directory):
    return {p.resolve() for p in directory.rglob("*")
            if p.suffix in CXX_SUFFIXES and p.is_file()}


def main():
    repo = Path(sys.argv[1] if len(sys.argv) > 1
                else Path(__file__).resolve().parent.parent).resolve()
    src = repo / "src"
    library = cxx_files(src)

    todo = set()
    for d in ROOT_DIRS:
        todo |= cxx_files(repo / d)
    todo |= {p for p in library
             if p.suffix == ".cc" and p.with_suffix(".hh") not in library}

    reached = set()
    while todo:
        f = todo.pop()
        if f in reached:
            continue
        reached.add(f)
        own_tu = f.with_suffix(".cc")
        if f.suffix == ".hh" and own_tu in library:
            todo.add(own_tu)
        for name in INCLUDE.findall(f.read_text(errors="replace")):
            for base in (f.parent, src):
                p = (base / name).resolve()
                if p.is_file():
                    todo.add(p)
                    break

    unreached = sorted(str(p.relative_to(repo)) for p in library - reached)
    if unreached:
        print("reachability: %d src/ file(s) reached only by tests or "
              "by nothing:" % len(unreached))
        for path in unreached:
            print("  " + path)
        return 1
    print("reachability: all %d src/ C++ files are reached from %s"
          % (len(library), ", ".join(ROOT_DIRS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
