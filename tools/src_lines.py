#!/usr/bin/env python3
"""Count the code lines in src/, per subdirectory and in total.

A code line is a line of a .cc or .hh file that is neither blank nor a
comment line: once stripped, it does not start with ``//``, ``/*`` or
``*``. Trailing comments on code lines still count as code. This is
the rule the "net lines in src/ go down" goal is measured by, so two
commits compare by running this script on each.

Usage: src_lines.py [--repo-root DIR]
"""

import argparse
import pathlib

SOURCE_SUFFIXES = {".cc", ".hh"}
COMMENT_PREFIXES = ("//", "/*", "*")


def code_lines(path):
    count = 0
    for line in path.read_text(encoding="utf-8").splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith(COMMENT_PREFIXES):
            count += 1
    return count


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo-root", default=".",
                        help="repository root (default: .)")
    args = parser.parse_args()

    src = pathlib.Path(args.repo_root) / "src"
    per_dir = {}
    for path in sorted(src.rglob("*")):
        if path.is_file() and path.suffix in SOURCE_SUFFIXES:
            # Files directly under src/ are listed as "src/".
            parents = path.relative_to(src).parent.parts
            key = parents[0] if parents else ""
            per_dir[key] = per_dir.get(key, 0) + code_lines(path)

    for key in sorted(per_dir):
        print(f"{per_dir[key]:7d}  src/{key}")
    print(f"{sum(per_dir.values()):7d}  total")


if __name__ == "__main__":
    main()
