#!/usr/bin/env python3
"""Compare the work of two engine_bench reports, call by call.

Usage:

    python3 scripts/work_diff.py A.json B.json

A and B are reports of enginebench's engine_bench program (the JSON object
it prints), normally of the same workload before and after a change.  For
every (instance, engine) call the two must agree on verdict, k, sat_calls,
conflicts, propagations, inprocess_rounds, proof_clauses, max_itp_nodes,
state_aig_nodes and every cba_* and pdr_* field.  Times are not compared.
Every difference, and every call found in only one report, is printed;
the exit code is 1 if there is any, else 0.  Only stdlib Python is used.
"""
import json
import sys

FIELDS = ("verdict", "k", "sat_calls", "conflicts", "propagations",
          "inprocess_rounds", "proof_clauses", "max_itp_nodes",
          "state_aig_nodes")
PREFIXES = ("cba_", "pdr_")


def load(path):
    """The report's calls, keyed by (instance, engine)."""
    with open(path) as f:
        text = f.read()
    # engine_bench prints one JSON object; a report captured with other
    # output before it is read from its last '{"workload"' on.
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        report = json.loads(text[text.rindex('{"workload"'):])
    calls = {}
    for c in report["calls"]:
        calls[(c["instance"], c["engine"])] = c
    return report, calls


def compared(call):
    keys = [k for k in FIELDS if k in call]
    keys += sorted(k for k in call if k.startswith(PREFIXES))
    return keys


def main(argv):
    if len(argv) != 3:
        print("usage: work_diff.py A.json B.json", file=sys.stderr)
        return 2
    (ra, a), (rb, b) = load(argv[1]), load(argv[2])
    diffs = 0
    if ra.get("workload") != rb.get("workload"):
        print(f"workload: {ra.get('workload')} vs {rb.get('workload')}")
        diffs += 1
    for key in sorted(a.keys() | b.keys()):
        name = "/".join(key)
        if key not in b or key not in a:
            print(f"{name}: only in {argv[1] if key in a else argv[2]}")
            diffs += 1
            continue
        ca, cb = a[key], b[key]
        for field in sorted(set(compared(ca)) | set(compared(cb)),
                            key=lambda f: (f not in FIELDS, f)):
            if ca.get(field) != cb.get(field):
                print(f"{name}: {field} {ca.get(field)} vs {cb.get(field)}")
                diffs += 1
    print(f"{len(a)} calls compared, {diffs} difference(s)")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
