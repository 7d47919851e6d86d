#!/usr/bin/env python3
"""Work-determinism test of the engine benchmark.

Usage (from the repository root):  python3 enginebench/selftest.py

Builds the benchmark, then runs the traced driver twice on every workload,
with different seeds (so in different call orders).  Both runs must do the
same work: per call the same verdict, bound, SAT conflicts, proof-core
clauses and PDR queries, and in total the same number of fixpoint checks
and `decided` share.  A difference means host speed leaked into the work
done, for example because the wall-clock safety net fired.  The test also
requires that no call failed its verdict check and that the span counts
agree with the engine counters.  Exits 0 when every check holds, else 1.
"""
import sys

import run

SEEDS = (1, 2)
PER_CALL = ("verdict", "k", "conflicts", "proof_clauses", "pdr_queries")


def summary(report, spans):
    calls = {(c["instance"], c["engine"]): tuple(c[k] for k in PER_CALL)
             for c in report["calls"]}
    layers = run.layer_split(spans)
    decided = run.end_to_end(report)["decided"][0]
    return calls, {"decided": decided,
                   "fixpoint.calls": layers["fixpoint.calls"][0]}


def main():
    run.build()
    problems = []
    for workload in sorted(run.WORKLOADS):
        seen = []
        for seed in SEEDS:
            report, spans = run.run_driver(True, workload, seed, 1, 1)
            problems += ["%s seed %d: %s/%s failed: %s" % (
                workload, seed, c["instance"], c["engine"], c["failure"])
                for c in run.failures(report)]
            problems += ["%s seed %d: %s" % (workload, seed, m)
                         for m in run.count_mismatches(report, spans)]
            seen.append(summary(report, spans))
        (calls_a, totals_a), (calls_b, totals_b) = seen
        for key, a in sorted(calls_a.items()):
            if calls_b.get(key) != a:
                problems.append("%s: %s/%s did different work: %s vs %s" % (
                    workload, key[0], key[1], a, calls_b.get(key)))
        if totals_a != totals_b:
            problems.append("%s: totals differ: %s vs %s" % (
                workload, totals_a, totals_b))
        run.log("%s: %d calls, %s" % (workload, len(calls_a), totals_a))
    for p in problems:
        run.log("selftest:", p)
    run.log("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
