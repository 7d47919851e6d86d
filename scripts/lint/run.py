#!/usr/bin/env python3
"""itpseq-lint — in-repo invariant linter for the itpseq tree.

Stdlib-only static analysis over the C++ sources, enforcing the contracts
the type system cannot see (and a reviewer forgets under load):

  L1  Cls/arena view read after a possibly-allocating call   (src/sat/)
  L2  raw arena_ access outside src/sat/
  L3  un-gated obs::emit / allocation in always-on obs args  (src/)
  L4  range-for over a container its body may mutate         (src/)
  L5  banned patterns, include hygiene, header guards        (everywhere)
  L6  inline std::thread lambda without a try boundary       (src/ tools/)
  L7  file write bypassing the atomic temp+rename helper     (src/mc/ src/util/)

Usage:
    scripts/lint/run.py                 # lint src/ tools/ bench/ tests/ examples/
    scripts/lint/run.py src/sat         # lint a subtree
    scripts/lint/run.py --json          # machine-readable findings
    scripts/lint/run.py --list-rules

Exit status: 0 when clean, 1 when there are findings, 2 on usage errors.

Suppression (same line, or a standalone comment covering the next line):
    risky();  // itpseq-lint: allow(L4) snapshot taken above, see ...
A reason is required by convention; `allow(*)` is reserved for generated
code.  Fixture files may carry `lint-fixture-path:` to pretend a path and
`lint-expect:` annotations checked by selftest.py.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import cxx
import model
from rules import ALL_RULES

DEFAULT_ROOTS = ("src", "tools", "bench", "tests", "examples")
CXX_EXTS = (".cpp", ".hpp", ".h", ".cc", ".hh", ".cxx")


def repo_root() -> str:
    return os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))


def collect_files(root: str, paths):
    """Expand files/directories (relative to root or absolute) into a sorted
    list of C++ source paths."""
    out = []
    targets = paths if paths else [os.path.join(root, r) for r in DEFAULT_ROOTS]
    for p in targets:
        ap = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isfile(ap):
            out.append(ap)
        elif os.path.isdir(ap):
            for dirpath, dirnames, filenames in os.walk(ap):
                dirnames.sort()
                for fname in sorted(filenames):
                    if fname.endswith(CXX_EXTS):
                        out.append(os.path.join(dirpath, fname))
        else:
            print(f"itpseq-lint: no such file or directory: {p}",
                  file=sys.stderr)
            return None
    return sorted(set(out))


def lint_files(root: str, files):
    """Parse `files`, run every applicable rule, apply suppressions.
    Returns the sorted finding list."""
    sources = []
    for path in files:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            text = fh.read()
        eff = cxx.fixture_path(text) or os.path.relpath(path, root)
        sources.append(model.parse_source(eff.replace(os.sep, "/"), text))
    project = model.Project(sources)
    findings = []
    for sf in project.files:
        for rule in ALL_RULES:
            if not rule.applies(sf.path):
                continue
            for fd in rule.check(project, sf):
                sup = sf.sup.get(fd.line, set())
                if fd.rule in sup or "*" in sup:
                    continue
                findings.append(fd)
    findings.sort(key=lambda f: f.key())
    return findings


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="itpseq-lint",
        description="in-repo invariant linter (see module docstring)")
    ap.add_argument("paths", nargs="*",
                    help="files/dirs to lint (default: src tools bench tests)")
    ap.add_argument("--root", default=repo_root(),
                    help="repository root (default: auto-detected)")
    ap.add_argument("--json", action="store_true", dest="as_json",
                    help="emit findings as a JSON array")
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule catalog and exit")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.RULE}  {rule.DESCRIPTION}")
        return 0

    files = collect_files(args.root, args.paths)
    if files is None:
        return 2
    findings = lint_files(args.root, files)

    if args.as_json:
        print(json.dumps(
            [{"rule": f.rule, "path": f.path, "line": f.line, "msg": f.msg}
             for f in findings], indent=2))
    else:
        for f in findings:
            print(f.render())
        if findings:
            print(f"itpseq-lint: {len(findings)} finding(s) "
                  f"in {len(files)} file(s)", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
