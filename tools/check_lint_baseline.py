#!/usr/bin/env python3
"""Gate the amdahl_lint baseline ledger: no entry without receipts.

The baseline grandfathers lint findings, so the one way to defeat the
linter silently would be appending entries to it. This check makes
that impossible to do quietly:

  * every entry line must parse as ``rule|file|squashed-line-text``;
  * every entry must sit in a comment block containing a ``# why:``
    justification (a blank line ends a block);
  * every rule id must come from the linter's own catalog, taken from
    ``amdahl_lint --list-rules`` when a binary is given (so this
    script can never drift from the C++ rule table), with a static
    fallback list otherwise;
  * every referenced file must exist — an entry for a deleted file is
    stale, and stale entries are debt this gate refuses to carry.

Usage: check_lint_baseline.py [baseline] [--repo-root DIR]
                              [--lint-binary PATH]
"""

import argparse
import pathlib
import subprocess
import sys

FALLBACK_RULES = {
    "DET-rand", "DET-clock", "DET-exec", "DET-unordered", "DET-simd",
    "TRUST-throw", "TRUST-catch", "OBS-io", "TRUST-fio", "CONC-global",
    "PERF-eager-msg", "META-alint",
}


def rule_ids(lint_binary):
    if lint_binary is None:
        return FALLBACK_RULES
    out = subprocess.run([lint_binary, "--list-rules"],
                         capture_output=True, text=True, check=True)
    ids = {line.split()[0] for line in out.stdout.splitlines()
           if line and not line.startswith(" ")}
    if not ids:
        raise SystemExit(f"{lint_binary} --list-rules printed no rules")
    return ids


def check(baseline_path, repo_root, known_rules):
    errors = []
    block_justified = False
    entries = 0
    for line_no, raw in enumerate(
            baseline_path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            block_justified = False
            continue
        if line.startswith("#"):
            if line.startswith("# why:") and line[6:].strip():
                block_justified = True
            continue
        entries += 1
        parts = raw.split("|", 2)
        if len(parts) != 3 or not all(p.strip() for p in parts):
            errors.append(f"line {line_no}: entry must be "
                          f"'rule|file|line-text', got: {raw!r}")
            continue
        rule, rel_file, _text = (p.strip() for p in parts)
        if not block_justified:
            errors.append(
                f"line {line_no}: entry '{rule}|{rel_file}' has no "
                f"'# why:' justification in its comment block — the "
                f"baseline must not grow without receipts")
        if rule not in known_rules:
            errors.append(f"line {line_no}: unknown rule id '{rule}' "
                          f"(known: {', '.join(sorted(known_rules))})")
        if not (repo_root / rel_file).is_file():
            errors.append(f"line {line_no}: baselined file "
                          f"'{rel_file}' does not exist — delete the "
                          f"stale entry")
    return entries, errors


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", nargs="?",
                        default="tools/lint/amdahl_lint.baseline",
                        type=pathlib.Path)
    parser.add_argument("--repo-root", default=".", type=pathlib.Path)
    parser.add_argument("--lint-binary", default=None,
                        help="amdahl_lint binary for --list-rules "
                             "(fallback: built-in rule list)")
    args = parser.parse_args()

    if not args.baseline.is_file():
        print(f"check_lint_baseline: no baseline at {args.baseline}; "
              f"nothing to check")
        return 0

    entries, errors = check(args.baseline, args.repo_root,
                            rule_ids(args.lint_binary))
    for error in errors:
        print(f"check_lint_baseline: {args.baseline}: {error}",
              file=sys.stderr)
    if errors:
        return 1
    print(f"check_lint_baseline: {entries} entr"
          f"{'y' if entries == 1 else 'ies'}, all justified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
