#!/usr/bin/env python3
"""Engine benchmark for itpseq: build, run one workload, print metrics.

Usage (from the repository root):

    python3 enginebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds enginebench/ (CMake, Release) into .bench_build/, then runs the
in-process driver on one workload (README.md lists them and their
rationale).  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics from the untraced driver.  Their
times are in reference-host seconds: each timed sample is scaled by the
driver's host probe taken around it (see PROBE_REF_S).
--trace 1 reports the per-layer metrics: one untraced pass (engine times,
the tracing-overhead baseline) and one pass of the --wrap-traced driver,
whose spans give the layer split.  Every verdict is checked by the driver;
any failing call is listed on stderr, reported in "failed", and makes the
exit code 1.  Only stdlib Python is used.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

# Nominal length of one pass over a workload's call list, in seconds, on a
# 4-core Intel Xeon VM.  --seconds / nominal gives the number of passes, so
# the work a run does depends on --seconds only, never on host speed.
WORKLOADS = {
    "seq_academic": 32.0,
    "paper_industrial": 13.0,
    "pdr_suite": 3.5,
}
# Host probe time (driver.cpp, probe()), about its median on the 4-core VM
# the bounds were measured on.  Every timed sample t is reported as
# t * PROBE_REF_S / p, where p is the mean of the probe readings right before
# and after it: the time the sample would have taken on the reference host.
# This removes the host's contention phases, which last longer than a run,
# while any change to the library still moves the sample, since the probe
# runs no library code.
PROBE_REF_S = 0.4e-3
SETUPS = 21            # set-up repetitions per end-to-end run
TAIL_BEYOND = 10       # samples beyond the reported tail order statistic
RUN_BUDGET_S = 170     # all driver processes of one run, after the build

ENGINES = ["itp", "itpseq", "sitpseq", "cba", "pba", "pdr"]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "mc", "engine.hpp")):
        raise RuntimeError("no itpseq sources next to enginebench/ (run from a "
                           "repository checkout)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target",
                    "engine_bench", "engine_bench_traced"],
                   check=True, stdout=sys.stderr)


def run_driver(traced, workload, seed, passes, setups, timeout=RUN_BUDGET_S):
    """Runs one driver process; returns (report, spans or None)."""
    exe = os.path.join(BUILD, "engine_bench_traced" if traced else "engine_bench")
    env = dict(os.environ)
    spans_path = os.path.join(BUILD, "spans-%s-%d.txt" % (workload, os.getpid()))
    if traced:
        env["ENGINEBENCH_SPANS"] = spans_path
    proc = subprocess.run(
        [exe, "--workload", workload, "--seed", str(seed), "--passes",
         str(passes), "--setups", str(setups)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        timeout=timeout)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode not in (0, 1) or not proc.stdout.strip():
        raise RuntimeError("%s exited with %d" % (exe, proc.returncode))
    spans = None
    if traced:
        spans = read_spans(spans_path)
        os.remove(spans_path)
    return json.loads(proc.stdout), spans


def read_spans(path):
    with open(path) as f:
        names = f.readline().split()[1:]
        spans = []
        for line in f:
            n, parent, start, end, arg = line.split()
            spans.append((names[int(n)], int(parent), int(start), int(end),
                          int(arg)))
    return spans


def scaled(seconds, host):
    """Median over samples of each sample in reference-host seconds."""
    return statistics.median(t * PROBE_REF_S / p for t, p in zip(seconds, host))


def call_times(report):
    """Per-call time in reference-host seconds: the median over passes, so
    one pass that meets a burst of host contention does not set it."""
    return [scaled(c["seconds"], c["host"]) for c in report["calls"]]


def wall_times(report):
    """Per-call wall time as measured, the median over passes."""
    return [statistics.median(c["seconds"]) for c in report["calls"]]


def end_to_end(report):
    times = sorted(call_times(report))
    calls = report["calls"]
    decided = sum(c["verdict"] in ("PASS", "FAIL") for c in calls)
    tail_rank = max(0, len(times) - 1 - TAIL_BEYOND)
    return {
        "setup_s": (scaled(report["setup_s"], report["setup_host"]), "s"),
        "solve_s": (sum(times), "s"),
        "decided": (decided / len(calls), "share"),
        "verdict_p50_s": (statistics.median(times), "s"),
        "verdict_tail_s": (times[tail_rank], "s"),
        "peak_rss_mb": (report["peak_rss_kb"] / 1024.0, "MB"),
    }


def span_context(spans):
    """Returns each span's child time and its context.

    A span's context is the nearest enclosing fixpoint check or
    certification span, or None: SAT calls inside StateSpace::implies are
    the fixpoint's nested SAT time, and everything under a certificate check
    or a top-level trace replay belongs to checking, not to solving.
    """
    child_ns = [0] * len(spans)
    ctx = [None] * len(spans)
    for i, (name, parent, start, end, _) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += end - start
        if name in ("fixpoint.implies", "certify.check"):
            ctx[i] = name
        elif name == "certify.replay" and parent < 0:
            ctx[i] = "certify.replay"
        elif parent >= 0:
            ctx[i] = ctx[parent]
    return child_ns, ctx


def layer_split(spans):
    """Aggregates spans into per-layer times and call counts."""
    child_ns, ctx = span_context(spans)
    agg = {}

    def add(key, ns):
        s, c = agg.get(key, (0, 0))
        agg[key] = (s + ns, c + 1)

    holds = 0
    for i, (name, parent, start, end, arg) in enumerate(spans):
        dur = end - start
        if name == "fixpoint.implies":
            add("fixpoint.self", dur - child_ns[i])
            holds += arg
        elif name in ("sat.solve", "sat.assume"):
            if ctx[i] == "fixpoint.implies":
                add("fixpoint.sat", dur)
            elif ctx[i] is None:
                add(name, dur)
        elif name.startswith("cnf.") and ctx[i] is None:
            add("cnf.unroll", dur)
        elif name.startswith("itp.") and ctx[i] is None:
            add("itp.extract", dur)
        elif name == "certify.check" or (name == "certify.replay" and parent < 0):
            add(name, dur)
    get = lambda key: agg.get(key, (0, 0))
    calls = get("fixpoint.self")[1]
    return {
        "fixpoint.self_s": (get("fixpoint.self")[0] / 1e9, "s"),
        "fixpoint.sat_s": (get("fixpoint.sat")[0] / 1e9, "s"),
        "fixpoint.calls": (calls, "count"),
        "fixpoint.holds_ratio": (holds / calls if calls else 0.0, "share"),
        "sat.solve_s": (get("sat.solve")[0] / 1e9, "s"),
        "sat.solve_calls": (get("sat.solve")[1], "count"),
        "sat.assume_s": (get("sat.assume")[0] / 1e9, "s"),
        "sat.assume_calls": (get("sat.assume")[1], "count"),
        "cnf.unroll_s": (get("cnf.unroll")[0] / 1e9, "s"),
        "cnf.unroll_calls": (get("cnf.unroll")[1], "count"),
        "itp.extract_s": (get("itp.extract")[0] / 1e9, "s"),
        "certify.check_s": (get("certify.check")[0] / 1e9, "s"),
        "certify.replay_s": (get("certify.replay")[0] / 1e9, "s"),
    }


def counters(report):
    """EngineStats/PdrStats totals, aggregated like EngineStats::operator+=."""
    calls = report["calls"]
    total = lambda key: sum(c[key] for c in calls)
    peak = lambda key: max(c[key] for c in calls)
    return {
        "sat.conflicts": (total("conflicts"), "count"),
        "sat.propagations": (total("propagations"), "count"),
        "sat.inprocess_rounds": (total("inprocess_rounds"), "count"),
        "itp.proof_clauses": (total("proof_clauses"), "count"),
        "itp.max_nodes": (peak("max_itp_nodes"), "count"),
        "abstraction.refinements": (total("cba_refinements"), "count"),
        "abstraction.visible_latches": (peak("cba_visible_latches"), "count"),
        "pdr.queries": (total("pdr_queries"), "count"),
        "pdr.lemmas": (total("pdr_lemmas"), "count"),
        "pdr.lift_dropped": (total("pdr_lift_dropped"), "count"),
        "state.aig_nodes": (peak("state_aig_nodes"), "count"),
    }


def engine_times(report):
    out = {}
    times = call_times(report)
    for eng in ENGINES:
        out["mc.%s_s" % eng] = (sum(t for t, c in zip(times, report["calls"])
                                    if c["engine"] == eng), "s")
    return out


def count_mismatches(report, spans):
    """Span call counts against the matching engine counters.

    - one Engine::run span per engine call;
    - every SAT call an engine makes itself (not inside the fixpoint check)
      is one EngineStats::sat_calls, except the depth-0 check of each run;
    - every PDR query is one solve_assuming call.
    """
    _, ctx = span_context(spans)
    calls = report["calls"]
    runs = sum(1 for s in spans if s[0] == "mc.run")
    engine_sat = sum(1 for s in spans if s[0] in ("sat.solve", "sat.assume")
                     and s[1] >= 0 and spans[s[1]][0] == "mc.run")
    assume = sum(1 for s, c in zip(spans, ctx) if s[0] == "sat.assume" and c is None)
    checks = [
        ("Engine::run spans", runs, "engine calls", len(calls)),
        ("engine SAT call spans", engine_sat, "sat_calls + runs",
         sum(c["sat_calls"] for c in calls) + len(calls)),
        ("solve_assuming spans", assume, "PDR queries",
         sum(c["pdr_queries"] for c in calls)),
    ]
    return ["%s %d != %s %d" % chk for chk in checks if chk[1] != chk[3]]


def failures(report):
    return [c for c in report["calls"] if c["failure"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
        deadline = time.monotonic() + RUN_BUDGET_S
        left = lambda: max(1.0, deadline - time.monotonic())
        if args.trace == 0:
            passes = max(1, round(args.seconds / WORKLOADS[args.workload]))
            report, _ = run_driver(False, args.workload, args.seed, passes,
                                   SETUPS, left())
            metrics = end_to_end(report)
            log("%s: %d calls x %d passes; verdict_tail_s is the per-call time "
                "with %d of %d calls beyond it" % (
                    args.workload, len(report["calls"]), passes, TAIL_BEYOND,
                    len(report["calls"])))
            reports = [report]
        else:
            plain, _ = run_driver(False, args.workload, args.seed, 1, 1, left())
            traced, spans = run_driver(True, args.workload, args.seed, 1, 1, left())
            metrics = layer_split(spans)
            metrics.update(counters(traced))
            metrics.update(engine_times(plain))
            metrics["wall.solve_s"] = (sum(wall_times(plain)), "s")
            probes = [p for c in plain["calls"] for p in c["host"]]
            metrics["host.probe_ms"] = (statistics.median(probes) * 1e3, "ms")
            overhead = sum(call_times(traced)) - sum(call_times(plain))
            metrics["trace.overhead_s"] = (overhead, "s")
            mismatches = count_mismatches(traced, spans)
            for m in mismatches:
                log("trace count mismatch:", m)
            metrics["trace.count_mismatches"] = (len(mismatches), "count")
            reports = [plain, traced]
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as e:
        log("enginebench:", e)
        return 2

    failed = [c for r in reports for c in failures(r)]
    attempted = sum(len(r["calls"]) * r["passes"] for r in reports)
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
