"""L7 — file writes in src/mc/ and src/util/ must go through the atomic
temp+rename helper.

Stats reports and anything else the library publishes to a user-supplied
path are read by other processes — a CI grader, a script, a dashboard
tailer.  A plain `fopen(path, "w")` or `std::ofstream`
truncates the final path first and fills it in place: a crash (or SIGKILL,
or a fault-injection hit) mid-write leaves a torn file at the name the
consumer trusts, and a reader racing the writer observes a prefix.  The
repo's contract (src/util/atomic_write.hpp) is: build the body in memory,
then publish it with util::atomic_write_file — which writes a sibling temp
file and renames it over the target, so the final path only ever holds a
complete document.

Flagged:

    std::fopen(path, "w");                 // truncates the final path
    std::fopen(path, "ab");                // append still tears mid-record
    std::fopen(path, "r+b");               // update mode writes in place
    std::ofstream out(path);               // ofstream is write-by-default
    std::fstream io(path, ...);            // read/write stream

Accepted:

    std::fopen(path, "rb");                // reads are not publications
    util::atomic_write_file(path, body);   // the sanctioned path
    std::ifstream in(path);

`src/util/atomic_write.cpp` is exempt by path: it is the helper itself —
its fopen of the temp sibling is the mechanism the rule exists to funnel
everyone else through.  Streaming sinks outside src/mc/ and src/util/
(e.g. the obs trace writer, which appends events for the lifetime of the
run and cannot buffer them) are out of scope by design.
"""

from __future__ import annotations

from findings import Finding
from model import Project, SourceFile

RULE = "L7"
DESCRIPTION = ("file write to a final path without the atomic temp+rename "
               "helper")

# The helper's own implementation: the one fopen-for-write that is the
# sanctioned mechanism rather than a bypass of it.
_EXEMPT_PATHS = {"src/util/atomic_write.cpp"}

# Stream types whose construction/open targets a path for writing.
_WRITE_STREAMS = {"ofstream", "fstream"}

_MSG = ("%s writes the final path in place — a crash mid-write leaves a "
        "torn file where a consumer (script, CI, dashboard) expects a "
        "complete one; build the body in memory and publish it with "
        "util::atomic_write_file (src/util/atomic_write.hpp)")


def applies(path: str) -> bool:
    if path in _EXEMPT_PATHS:
        return False
    return path.startswith("src/mc/") or path.startswith("src/util/")


def _literal_text(tok) -> str:
    """Payload of a string-literal token, quotes and encoding prefix shed."""
    s = tok.text
    q = s.find('"')
    return s[q + 1:-1] if q >= 0 and s.endswith('"') and len(s) > q + 1 else s


def _mode_writes(mode: str) -> bool:
    # "w"/"a" truncate/extend the target; '+' upgrades "r" to update mode.
    return any(c in mode for c in "wa+")


def _fopen_findings(sf: SourceFile, toks, i, n):
    """`fopen(path, mode)` with a write-capable mode (or one the linter
    cannot read): yield a finding anchored at the call."""
    t = toks[i]
    j = i + 1
    if not (j < n and toks[j].kind == "punct" and toks[j].text == "("):
        return
    close = sf.match.get(toks[j].i)
    if close is None:
        return
    # Find the mode argument: the token after the first top-level comma.
    k = j + 1
    mode_tok = None
    while k < close:
        tk = toks[k]
        if tk.kind == "punct" and tk.text in ("(", "[", "{"):
            m = sf.match.get(tk.i)
            if m is None:
                break
            k = m + 1
            continue
        if tk.kind == "punct" and tk.text == ",":
            if k + 1 < close:
                mode_tok = toks[k + 1]
            break
        k += 1
    if mode_tok is not None and mode_tok.kind == "str":
        if not _mode_writes(_literal_text(mode_tok)):
            return  # read-only mode: out of scope
        what = 'fopen(..., "%s")' % _literal_text(mode_tok)
    else:
        # Computed mode: the linter cannot prove it reads, so it must
        # assume it writes.
        what = "fopen with a non-literal mode"
    yield Finding(RULE, sf.path, t.line, _MSG % what)


def check(project: Project, sf: SourceFile):
    out = []
    toks = sf.toks
    n = len(toks)
    for i in range(n):
        t = toks[i]
        if t.kind != "id":
            continue
        if t.text == "fopen":
            out.extend(_fopen_findings(sf, toks, i, n))
        elif t.text in _WRITE_STREAMS:
            # `std::ofstream out(...)`, `ofstream{...}`, member declarations,
            # and `.open(...)` all start from this type name; any appearance
            # in the write-path layers is a bypass.  A further `::` qualifier
            # (e.g. std::ofstream::traits_type) is still the same type.
            out.append(Finding(
                RULE, sf.path, t.line,
                _MSG % ("std::%s" % t.text)))
    return out
