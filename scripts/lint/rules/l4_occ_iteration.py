"""L4 — container mutated inside a range-for over itself.

The PR 7 bug class: a range-for over an occurrence list (`occ_[l]`, a
record's `clauses`, a watcher list) while the loop body — directly or via
a callee — push_back/erases that same container.  The reference captured
by the range-for is invalidated mid-iteration.  The established in-tree
idiom is snapshot-first (`const auto pos = occ_[...]` / copy the literal
vector), which this rule deliberately does not flag: the snapshot's root
name differs from the mutated member's.

Transitive mutation uses model.Project.mutators(): a call `f(...)` inside
the loop is a finding if f's (fixpoint) mutation set contains the
container's root name.  Roots are matched by name, which over-approximates
across classes — that is the safe direction for a linter, and a deliberate
suppression with a reason documents the sound exceptions.
"""

from __future__ import annotations

from findings import Finding
from model import MUTATING_METHODS, Project, SourceFile

RULE = "L4"
DESCRIPTION = "range-for over a container its body may mutate"


def applies(path: str) -> bool:
    return path.startswith("src/")


def check(project: Project, sf: SourceFile):
    mut = project.mutators()
    out = []
    seen = set()
    for fn in sf.funcs:
        for root, recv, blo, bhi in _range_fors(sf, fn):
            _scan_body(sf, fn, root, recv, blo, bhi, mut, out, seen)
    return out


def _receiver(sf, i):
    """Object name the id at token index i is selected from: `out.roots` ->
    'out' for the `roots` token, None for an unqualified name, '<expr>' for
    a computed receiver (`f().roots`)."""
    toks = sf.toks
    if i >= 1 and toks[i - 1].kind == "punct" and toks[i - 1].text in (".", "->"):
        j = i - 2
        if j >= 0 and toks[j].kind == "punct" and toks[j].text == "]":
            j = sf.match.get(toks[j].i)
            j = j - 1 if j is not None else -1
        if j >= 0 and toks[j].kind == "id":
            return toks[j].text
        return "<expr>"
    return None


def _range_fors(sf, fn):
    """Yield (container_root, body_lo, body_hi) for each range-for in fn."""
    toks = sf.toks
    i = fn.body_open + 1
    while i < fn.body_close:
        t = toks[i]
        if (t.kind == "id" and t.text == "for" and i + 1 < fn.body_close
                and toks[i + 1].kind == "punct" and toks[i + 1].text == "("):
            copen = i + 1
            cclose = sf.match.get(toks[copen].i)
            if cclose is None:
                i += 1
                continue
            colon = None
            j = copen + 1
            while j < cclose:
                tj = toks[j]
                if tj.kind == "punct":
                    if tj.text == ":":
                        colon = j
                        break
                    if tj.text == ";":
                        break  # classic for, not range-for
                    if tj.text in ("(", "{", "["):
                        j = sf.match.get(tj.i, j)
                j += 1
            if colon is not None:
                root, recv = _expr_root(sf, colon + 1, cclose)
                blo, bhi = _body_range(sf, cclose + 1, fn.body_close)
                if root is not None:
                    yield (root, recv, blo, bhi)
                i = cclose + 1
                continue
        i += 1


def _expr_root(sf, lo, hi):
    """(root, receiver) of the iterated expression: the name whose container
    is actually traversed.  `occ_[l]` -> (occ_, None), `rec.clauses` ->
    (clauses, rec), `snapshot` -> (snapshot, None).  A trailing call
    (`solver.db()`) has no trackable root."""
    toks = sf.toks
    root = None
    j = lo
    while j < hi:
        t = toks[j]
        if t.kind == "id":
            nxt = toks[j + 1] if j + 1 < len(toks) else None
            if nxt is not None and nxt.kind == "punct" and nxt.text == "(":
                root = None  # function-call result: not trackable
                j = sf.match.get(nxt.i, j) + 1
                continue
            root = t.i
        elif t.kind == "punct" and t.text in ("(", "{", "["):
            j = sf.match.get(t.i, j)
        j += 1
    if root is None:
        return (None, None)
    return (toks[root].text, _receiver(sf, root))


def _body_range(sf, start, hi):
    toks = sf.toks
    i = start
    if i < hi and toks[i].kind == "punct" and toks[i].text == "{":
        close = sf.match.get(toks[i].i, hi)
        return (i + 1, close)
    j = i
    while j < hi:
        tj = toks[j]
        if tj.kind == "punct":
            if tj.text == ";":
                return (i, j + 1)
            if tj.text in ("(", "{", "["):
                j = sf.match.get(tj.i, j)
        j += 1
    return (i, hi)


def _scan_body(sf, fn, root, recv, blo, bhi, mut, out, seen):
    toks = sf.toks
    n = len(toks)
    for i in range(blo, bhi):
        t = toks[i]
        if t.kind != "id":
            continue
        # direct mutation:  ROOT.mut(...)  or  ROOT[...].mut(...) — only if
        # the mutated name is selected from the *same* receiver as the
        # iterated one (`out.roots.push_back` does not invalidate a range-for
        # over this->roots).
        if t.text == root and _receiver(sf, i) == recv:
            j = i + 1
            if j < n and toks[j].kind == "punct" and toks[j].text == "[":
                j = sf.match.get(toks[j].i)
                if j is None:
                    continue
                j += 1
            if (j + 2 < n and toks[j].kind == "punct" and toks[j].text == "."
                    and toks[j + 1].kind == "id"
                    and toks[j + 1].text in MUTATING_METHODS
                    and toks[j + 2].text == "("):
                key = (sf.path, toks[j + 1].line, root)
                if key not in seen:
                    seen.add(key)
                    out.append(Finding(
                        RULE, sf.path, toks[j + 1].line,
                        f"'{root}.{toks[j + 1].text}(...)' inside a range-for "
                        f"over '{root}': the loop reference is invalidated "
                        f"mid-iteration; snapshot the list first "
                        f"(src/sat/inprocess.cpp idiom)"))
            continue
        # transitive mutation through a call: an unqualified (or this->)
        # call can reach the members of the enclosing object; a call through
        # a *different* named object cannot touch the iterated container.
        nxt = toks[i + 1] if i + 1 < n else None
        if (nxt is not None and nxt.kind == "punct" and nxt.text == "("
                and t.text in mut and root in mut[t.text]
                and t.text not in MUTATING_METHODS):
            callee_recv = _receiver(sf, i)
            if callee_recv not in (None, "this") and callee_recv != recv:
                continue
            key = (sf.path, t.line, root)
            if key not in seen:
                seen.add(key)
                out.append(Finding(
                    RULE, sf.path, t.line,
                    f"'{t.text}(...)' may mutate '{root}' (call-graph "
                    f"fixpoint) inside a range-for over '{root}'; snapshot "
                    f"the list before iterating or explain with a "
                    f"suppression"))
