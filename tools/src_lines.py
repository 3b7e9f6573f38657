#!/usr/bin/env python3
"""Count the code lines and option fields in src/, per subdirectory and in total.

A code line is a line of a .cc or .hh file that is neither blank nor a
comment line: once stripped, it does not start with ``//``, ``/*`` or
``*``. Trailing comments on code lines still count as code. This is
the rule the "net lines in src/ go down" goal is measured by, so two
commits compare by running this script on each.

An option field is a data member of a ``struct <Name>Options`` defined
in a .hh file: one per declaration statement in the struct body, not
counting member functions, nested types, ``using`` and ``static``
declarations. Every field is one more configuration that tests and
benchmarks must cover, so the count is printed next to the lines.

With --check BASELINE the script also fails (exit 1) when the option
field total exceeds the ceiling committed in BASELINE, a file holding
one ``options <n>`` line (``#`` starts a comment). A change that
deletes fields lowers the ceiling; one that adds a field raises it in
the same commit, next to the bench row that shows the knob pays. Code
lines stay print-only.

Usage: src_lines.py [--repo-root DIR] [--check BASELINE]
"""

import argparse
import pathlib
import re
import sys

SOURCE_SUFFIXES = {".cc", ".hh"}
COMMENT_PREFIXES = ("//", "/*", "*")
OPTIONS_STRUCT = re.compile(r"\bstruct\s+\w*Options\b[^;{]*\{")
COMMENTS = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)
NOT_FIELDS = ("using ", "static ", "struct ", "class ", "enum ",
              "union ", "friend ", "typedef ", "template")


def code_lines(path):
    count = 0
    for line in path.read_text(encoding="utf-8").splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith(COMMENT_PREFIXES):
            count += 1
    return count


def option_fields(path):
    """Data members of every ``struct *Options`` body in @p path."""
    text = COMMENTS.sub("", path.read_text(encoding="utf-8"))
    count = 0
    for match in OPTIONS_STRUCT.finditer(text):
        # Walk the body at brace depth 1, one statement at a time. A
        # brace block that follows a parameter list is a function body
        # and ends the statement; any other block (a brace initializer
        # or a nested type) stays part of it.
        statement = ""
        depth = 1
        pos = match.end()
        while depth > 0:
            ch = text[pos]
            pos += 1
            if ch == "{":
                if depth == 1 and "(" in statement.split("=")[0]:
                    statement = ""
                    skip = 1
                    while skip > 0:
                        skip += {"{": 1, "}": -1}.get(text[pos], 0)
                        pos += 1
                    continue
                depth += 1
            elif ch == "}":
                depth -= 1
            if depth == 1 and ch == ";":
                decl = " ".join(statement.split())
                decl = re.sub(r"^(public|private|protected):\s*", "", decl)
                if decl and "(" not in decl.split("=")[0] and \
                        not decl.startswith(NOT_FIELDS):
                    count += 1
                statement = ""
            elif depth >= 1 and ch != "}":
                statement += ch
    return count


def read_ceiling(path):
    """The ``options <n>`` ceiling of a baseline file."""
    ceiling = None
    for number, line in enumerate(path.read_text(encoding="utf-8")
                                  .splitlines(), start=1):
        words = line.split("#", 1)[0].split()
        if not words:
            continue
        if len(words) != 2 or words[0] != "options" or \
                not words[1].isdigit() or ceiling is not None:
            sys.exit(f"{path}:{number}: expected one 'options <n>' line")
        ceiling = int(words[1])
    if ceiling is None:
        sys.exit(f"{path}: no 'options <n>' line")
    return ceiling


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo-root", default=".",
                        help="repository root (default: .)")
    parser.add_argument("--check", metavar="BASELINE", type=pathlib.Path,
                        help="fail when the option fields exceed the "
                             "ceiling committed in BASELINE")
    args = parser.parse_args()

    src = pathlib.Path(args.repo_root) / "src"
    lines = {}
    options = {}
    for path in sorted(src.rglob("*")):
        if path.is_file() and path.suffix in SOURCE_SUFFIXES:
            # Files directly under src/ are listed as "src/".
            parents = path.relative_to(src).parent.parts
            key = parents[0] if parents else ""
            lines[key] = lines.get(key, 0) + code_lines(path)
            fields = option_fields(path) if path.suffix == ".hh" else 0
            options[key] = options.get(key, 0) + fields

    print("  lines  options")
    for key in sorted(lines):
        print(f"{lines[key]:7d}  {options[key]:7d}  src/{key}")
    total = sum(options.values())
    print(f"{sum(lines.values()):7d}  {total:7d}  total")

    if args.check:
        ceiling = read_ceiling(args.check)
        if total > ceiling:
            print(f"FAIL: {total} option fields, above the ceiling of "
                  f"{ceiling} in {args.check}")
            return 1
        print(f"ok: {total} option fields, ceiling {ceiling}")
        if total < ceiling:
            print(f"note: lower the ceiling in {args.check} to {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
