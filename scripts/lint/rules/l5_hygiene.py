"""L5 — hygiene: banned patterns, include hygiene, header guards.

  * `rand()` / `srand()` / `time(nullptr|NULL|0)`: nondeterminism that
    breaks the fixed-seed reproducibility contract (portfolio determinism
    tests).  Engines take seeds; use the solver-owned SplitMix PRNG.
  * `<iostream>` / `std::cout` / `std::cerr` in src/sat/: the SAT core is
    the hot path and must not drag in iostream statics or print — use obs
    tracing or return data to the caller.
  * `getenv()` / `std::getenv()` in src/ outside the two documented
    environment entry points, src/util/fault.cpp (ITPSEQ_FAULTS) and
    src/obs/trace.cpp (ITPSEQ_TRACE*): an undocumented environment switch
    changes what the library does without any option or flag showing it.
  * `atof()` / `atoi()` / `atol()` / `atoll()`: they cannot report a parse
    failure, so a mistyped number silently becomes 0; parse with
    `std::from_chars` (bench/args.hpp for command-line numbers).
  * `#include "../..."`: parent-relative includes defeat the single
    `-I src` include root; spell the path from src/.
  * Every header must open with `#pragma once` (or a classic guard).
"""

from __future__ import annotations

import re

from findings import Finding
from model import Project, SourceFile

RULE = "L5"
DESCRIPTION = "banned patterns, include hygiene, header guards"

_TIME_ARGS = {"nullptr", "NULL", "0"}
_UNCHECKED_PARSERS = ("atof", "atoi", "atol", "atoll")
_HOT_PATHS = ("src/sat/",)
_ENV_ENTRY_POINTS = ("src/util/fault.cpp", "src/obs/trace.cpp")

_INCLUDE_RE = re.compile(r'#\s*include\s+["<]([^">]+)[">]')


def applies(path: str) -> bool:
    return True


def check(project: Project, sf: SourceFile):
    out = []
    toks = sf.toks
    n = len(toks)
    hot = sf.path.startswith(_HOT_PATHS)
    env_banned = (sf.path.startswith("src/")
                  and sf.path not in _ENV_ENTRY_POINTS)

    for i, t in enumerate(toks):
        if t.kind == "pp":
            m = _INCLUDE_RE.search(t.text)
            if m:
                inc = m.group(1)
                if inc.startswith("../") or "/../" in inc:
                    out.append(Finding(
                        RULE, sf.path, t.line,
                        f'parent-relative include "{inc}"; spell the path '
                        f"from the src/ include root"))
                if hot and inc == "iostream":
                    out.append(Finding(
                        RULE, sf.path, t.line,
                        "<iostream> in the SAT hot path; use obs tracing or "
                        "return data to the caller"))
            continue
        if t.kind != "id":
            continue

        prev = toks[i - 1] if i > 0 else None
        nxt = toks[i + 1] if i + 1 < n else None

        # member calls `x.rand()` are some other rand; `std::rand` is not.
        def _free_call(tok_prev):
            if tok_prev is None:
                return True
            if tok_prev.kind == "punct" and tok_prev.text == ".":
                return False
            if tok_prev.kind == "punct" and tok_prev.text == "::":
                qual = toks[tok_prev.i - 1] if tok_prev.i > 0 else None
                return qual is not None and qual.text == "std"
            return True

        if (t.text in ("rand", "srand") and nxt is not None
                and nxt.text == "(" and _free_call(prev)):
            out.append(Finding(
                RULE, sf.path, t.line,
                f"'{t.text}()' breaks fixed-seed determinism; use the "
                f"engine's seeded SplitMix PRNG"))
        elif (env_banned and t.text == "getenv" and nxt is not None
                and nxt.text == "(" and _free_call(prev)):
            out.append(Finding(
                RULE, sf.path, t.line,
                "'getenv()' outside the documented environment entry points "
                "(util/fault.cpp, obs/trace.cpp); take the setting through "
                "an options struct or a flag"))
        elif (t.text in _UNCHECKED_PARSERS and nxt is not None
                and nxt.text == "(" and _free_call(prev)):
            out.append(Finding(
                RULE, sf.path, t.line,
                f"'{t.text}()' cannot report a parse failure; use "
                f"std::from_chars (bench/args.hpp for arguments)"))
        elif (t.text == "time" and nxt is not None and nxt.text == "("
                and _free_call(prev)
                and i + 2 < n and toks[i + 2].text in _TIME_ARGS
                and i + 3 < n and toks[i + 3].text == ")"):
            out.append(Finding(
                RULE, sf.path, t.line,
                "'time(...)' as an entropy source breaks fixed-seed "
                "determinism; thread a seed through the options struct"))
        elif hot and t.text in ("cout", "cerr"):
            if prev is not None and prev.text == "::":
                qual = toks[prev.i - 1] if prev.i > 0 else None
                if qual is not None and qual.text == "std":
                    out.append(Finding(
                        RULE, sf.path, t.line,
                        f"std::{t.text} in the SAT hot path; use obs tracing "
                        f"instead of printing"))

    if sf.path.endswith((".hpp", ".h", ".hh")) and toks:
        if not _has_guard(toks):
            out.append(Finding(
                RULE, sf.path, toks[0].line,
                "header without `#pragma once` (or include guard) at the "
                "top"))
    return out


def _has_guard(toks):
    """First two pp tokens form a guard: `#pragma once`, or #ifndef+#define
    of the same macro."""
    pps = [t for t in toks[:8] if t.kind == "pp"]
    for idx, t in enumerate(pps):
        txt = " ".join(t.text.split())
        if txt.startswith("#pragma") and "once" in txt:
            return True
        m = re.match(r"#\s*ifndef\s+(\w+)", t.text)
        if m and idx + 1 < len(pps):
            m2 = re.match(r"#\s*define\s+(\w+)", pps[idx + 1].text)
            if m2 and m2.group(1) == m.group(1):
                return True
    return False
