// bench_sat.cpp — CDCL solver throughput over a built-in workload suite,
// with a machine-readable trajectory file (BENCH_sat.json).
//
// Workloads cover the shapes the engines generate: BMC unrollings (Tseitin
// CNF, heavy on binary clauses), combinatorial UNSAT cores (pigeonhole),
// random 3-SAT at and below the threshold, a pure binary implication
// network (the inline-binary-watcher showcase), and a PDR-shaped
// incremental session (one long-lived solver, activation-literal clause
// retirement, arena GC).  Per workload: propagations/s, conflicts/s,
// binary-propagation share, arena footprint and GC activity.
//
// The JSON file is the perf-trajectory baseline: stable keys, one entry
// per workload plus a totals block — diff it across commits.
//
// Usage: bench_sat [reps_scale|quick] [json_path]
//
// `quick` runs a seconds-scale slice of the suite (the ctest `perf-smoke`
// label) — a sanity check that the drivers, counters and JSON writer work,
// not a measurement.  Every answer is checked: a workload whose
// construction fixes SAT or UNSAT must return it, and each `*_noinpr` twin
// must answer like its inprocessing row, rep by rep.  A wrong answer exits
// 1 without writing the JSON file; a bad argument exits 2.
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "bench_circuits/generators.hpp"
#include "cnf/unroller.hpp"
#include "json_writer.hpp"
#include "obs/trace.hpp"
#include "sat/solver.hpp"

using namespace itpseq;

namespace {

using Clock = std::chrono::steady_clock;
using Answer = std::optional<sat::Status>;  // nullopt: no single answer

/// One rep of a workload: the timed span and the answer of its one solve()
/// call (the incremental session makes thousands and reports none).
struct Rep {
  double sec = 0.0;
  Answer answer;
};

struct WorkloadResult {
  std::string name;
  double solve_sec = 0.0;
  sat::SolverStats stats;        // summed over reps
  std::size_t arena_bytes = 0;   // summed final arenas
  unsigned reps = 0;
  bool inprocess = true;         // solver-side inprocessing enabled?
  std::vector<Answer> answers;   // one per rep
};

double props_per_sec(const WorkloadResult& r) {
  return r.solve_sec > 0 ? static_cast<double>(r.stats.propagations) / r.solve_sec
                         : 0.0;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

using Body = Rep (*)(sat::Solver&, unsigned);

/// Run `body(solver, rep)` (which must build AND solve) `reps` times,
/// timing only the span the body reports.  `inprocess` toggles the
/// solver's built-in simplification — paired on/off entries are the
/// ablation rows in BENCH_sat.json.
WorkloadResult run_workload(const std::string& name, unsigned reps, Body body,
                            bool inprocess) {
  WorkloadResult r;
  r.name = name;
  r.reps = reps;
  r.inprocess = inprocess;
  for (unsigned i = 0; i < reps; ++i) {
    sat::Solver s;
    s.set_inprocess(inprocess);
    Rep rep = body(s, i);
    r.solve_sec += rep.sec;
    r.answers.push_back(rep.answer);
    r.stats += s.stats();
    r.arena_bytes += s.arena_bytes();
  }
  return r;
}

Rep timed_solve(sat::Solver& s) {
  auto t0 = Clock::now();
  sat::Status st = s.solve();
  return {seconds_since(t0), st};
}

// --- workload builders ------------------------------------------------------

/// Pigeonhole PHP(n+1, n): classic combinatorial UNSAT, dense binary
/// clauses, heavy conflict analysis.  Labels partition the at-least-one
/// (1) and at-most-one (2) halves.
void build_pigeonhole(sat::Solver& s, int n) {
  std::vector<std::vector<sat::Var>> p(n + 1, std::vector<sat::Var>(n));
  for (auto& row : p)
    for (auto& v : row) v = s.new_var();
  for (int i = 0; i <= n; ++i) {
    std::vector<sat::Lit> cl;
    for (int h = 0; h < n; ++h) cl.push_back(sat::mk_lit(p[i][h]));
    s.add_clause(cl, 1);
  }
  for (int h = 0; h < n; ++h)
    for (int i = 0; i <= n; ++i)
      for (int j = i + 1; j <= n; ++j)
        s.add_clause({sat::mk_lit(p[i][h], true), sat::mk_lit(p[j][h], true)}, 2);
}

/// Random 3-SAT at the given clause/var ratio (4.26 ~ threshold).
void build_random3sat(sat::Solver& s, unsigned nvars, double ratio,
                      unsigned seed) {
  for (unsigned i = 0; i < nvars; ++i) s.new_var();
  std::mt19937 rng(seed);
  const unsigned ncl = static_cast<unsigned>(nvars * ratio);
  for (unsigned cl = 0; cl < ncl; ++cl) {
    std::vector<sat::Lit> lits;
    while (lits.size() < 3) {
      sat::Lit l = sat::mk_lit(rng() % nvars, rng() % 2);
      bool dup = false;
      for (sat::Lit x : lits)
        if (sat::var(x) == sat::var(l)) dup = true;
      if (!dup) lits.push_back(l);
    }
    s.add_clause(lits);
  }
}

/// Pure binary implication network (ring + random chords): propagation is
/// served entirely by the inline binary watchers.
void build_binary_net(sat::Solver& s, unsigned nv, unsigned seed) {
  std::mt19937 rng(seed);
  for (unsigned i = 0; i < nv; ++i) s.new_var();
  for (unsigned i = 0; i < nv; ++i)
    s.add_clause({sat::mk_lit(i, true), sat::mk_lit((i + 1) % nv)});
  for (unsigned i = 0; i < nv; ++i)
    s.add_clause({sat::mk_lit(rng() % nv, true), sat::mk_lit(rng() % nv)});
}

/// Bounded-queue BMC unrolling to depth k (Tseitin CNF, ~2/3 binary
/// clauses), bound-k target: bad at some frame 1..k.
void build_bmc_queue(cnf::Unroller& unr, unsigned k) {
  unr.assert_init(0);
  for (unsigned t = 0; t < k; ++t) unr.add_transition(t, t + 1);
  std::vector<sat::Lit> target;
  for (unsigned t = 1; t <= k; ++t) target.push_back(unr.bad_lit(t, 0));
  unr.solver().add_clause(target, 0);
}

/// PDR-shaped incremental session: one long-lived solver, `rounds`
/// assumption queries over a sliding window of activation-guarded clauses,
/// guards retired by unit clauses — exercises the level-0 satisfied-clause
/// sweep and the arena GC.  Runs the queries itself (build and solve are
/// interleaved by construction).
void run_incremental_gc_session(sat::Solver& s, int rounds, unsigned seed) {
  std::mt19937 rng(seed);
  const unsigned nv = 60;
  std::vector<sat::Var> vars;
  for (unsigned i = 0; i < nv; ++i) vars.push_back(s.new_var());
  std::vector<sat::Lit> acts;
  for (int round = 0; round < rounds; ++round) {
    sat::Lit act = sat::mk_lit(s.new_var());
    std::vector<sat::Lit> cl{sat::neg(act)};
    unsigned len = 2 + rng() % 4;
    for (unsigned k = 0; k < len; ++k)
      cl.push_back(sat::mk_lit(vars[rng() % nv], rng() % 2));
    s.add_clause(cl);
    acts.push_back(act);
    if (acts.size() > 64 && rng() % 4 == 0) {
      std::size_t idx = rng() % (acts.size() - 32);
      if (acts[idx] != sat::kNoLit) {
        s.add_clause({sat::neg(acts[idx])});
        acts[idx] = sat::kNoLit;
      }
    }
    std::vector<sat::Lit> as;
    for (std::size_t i = acts.size() >= 24 ? acts.size() - 24 : 0;
         i < acts.size(); ++i)
      if (acts[i] != sat::kNoLit && rng() % 2) as.push_back(acts[i]);
    s.solve_assuming(as);
  }
}


// --- workload bodies --------------------------------------------------------

Rep bmc_unroll(sat::Solver& s, unsigned) {
  aig::Aig g = bench::queue(16, true);
  cnf::Unroller unr(g, s);
  build_bmc_queue(unr, 24);
  return timed_solve(s);
}

Rep bmc_deep(sat::Solver& s, unsigned) {
  aig::Aig g = bench::queue(16, true);
  cnf::Unroller unr(g, s);
  build_bmc_queue(unr, 64);
  return timed_solve(s);
}

Rep pigeonhole(sat::Solver& s, unsigned) {
  build_pigeonhole(s, 8);
  return timed_solve(s);
}

Rep random3sat(sat::Solver& s, unsigned rep) {
  build_random3sat(s, 120, 4.26, 9000 + rep);
  return timed_solve(s);
}

Rep big3sat(sat::Solver& s, unsigned rep) {
  // Under-constrained: SAT, propagation-heavy, real cache pressure.
  build_random3sat(s, 100000, 3.0, 11 + rep);
  return timed_solve(s);
}

Rep binary_net(sat::Solver& s, unsigned rep) {
  build_binary_net(s, 400000, 5 + rep);
  return timed_solve(s);
}

Rep incremental_gc(sat::Solver& s, unsigned rep) {
  auto t0 = Clock::now();
  run_incremental_gc_session(s, 4000, 77 + rep);
  return {seconds_since(t0), std::nullopt};
}

// Seconds-scale variants for the `quick` (perf-smoke) mode.
Rep pigeonhole_quick(sat::Solver& s, unsigned) {
  build_pigeonhole(s, 7);
  return timed_solve(s);
}

Rep binary_net_quick(sat::Solver& s, unsigned rep) {
  build_binary_net(s, 50000, 5 + rep);
  return timed_solve(s);
}

Rep incremental_gc_quick(sat::Solver& s, unsigned rep) {
  auto t0 = Clock::now();
  run_incremental_gc_session(s, 500, 77 + rep);
  return {seconds_since(t0), std::nullopt};
}

/// One suite row.  `expect` is the answer the construction fixes: PHP(n+1,
/// n) is UNSAT, the all-false assignment satisfies a binary implication
/// net, and the guarded queue never overflows, so no BMC bound reaches its
/// bad state.  `ablate` adds a `*_noinpr` twin with inprocessing off.
struct Workload {
  const char* name;
  unsigned reps;  // multiplied by reps_scale
  Body body;
  Answer expect;
  bool ablate;
};

const char* answer_name(Answer a) {
  if (!a) return "none";
  switch (*a) {
    case sat::Status::kSat:
      return "SAT";
    case sat::Status::kUnsat:
      return "UNSAT";
    case sat::Status::kUnknown:
      break;
  }
  return "UNKNOWN";
}

/// Report every rep of `r` whose answer differs from `expect` (when the
/// construction fixes one) or from the same rep of `twin` (the
/// inprocessing row of a `*_noinpr` twin).  Returns the number reported.
int wrong_answers(const WorkloadResult& r, Answer expect,
                  const WorkloadResult* twin) {
  int wrong = 0;
  for (std::size_t i = 0; i < r.answers.size(); ++i) {
    const Answer want = twin ? twin->answers[i] : expect;
    if (!want || r.answers[i] == want) continue;
    std::fprintf(stderr, "bench_sat: %s rep %zu answered %s, expected %s\n",
                 r.name.c_str(), i, answer_name(r.answers[i]),
                 answer_name(want));
    ++wrong;
  }
  return wrong;
}

void usage() {
  std::fprintf(stderr, "usage: bench_sat [reps_scale|quick] [json_path]\n");
}

}  // namespace

int main(int argc, char** argv) {
  // ITPSEQ_TRACE=file [ITPSEQ_TRACE_FORMAT=chrome] [ITPSEQ_PROGRESS=1]
  // trace a bench run without flag plumbing; null when the env is unset.
  auto sink = obs::TraceSink::from_env();
  if (argc > 3) {
    usage();
    return 2;
  }
  const bool quick = argc > 1 && std::string(argv[1]) == "quick";
  unsigned scale = 1;
  if (argc > 1 && !quick) {
    // Strict positive decimal; 16 * scale reps must not overflow.
    const char* end = argv[1] + std::strlen(argv[1]);
    auto [ptr, ec] = std::from_chars(argv[1], end, scale);
    if (ec != std::errc{} || ptr != end || scale == 0 ||
        scale > std::numeric_limits<unsigned>::max() / 16) {
      std::fprintf(stderr, "bench_sat: bad reps_scale '%s'\n", argv[1]);
      usage();
      return 2;
    }
  }
  std::string json_path = argc > 2 ? argv[2] : "BENCH_sat.json";

  constexpr Answer kSat = sat::Status::kSat, kUnsat = sat::Status::kUnsat;
  const std::vector<Workload> suite =
      quick ? std::vector<Workload>{
                  {"bmc_unroll", 1, bmc_unroll, kUnsat, false},
                  {"pigeonhole7", 1, pigeonhole_quick, kUnsat, true},
                  {"random3sat", 2, random3sat, std::nullopt, false},
                  {"binary_net", 1, binary_net_quick, kSat, false},
                  {"incremental_gc", 1, incremental_gc_quick, std::nullopt,
                   false},
              }
            : std::vector<Workload>{
                  {"bmc_unroll", 8, bmc_unroll, kUnsat, true},
                  {"bmc_deep", 2, bmc_deep, kUnsat, false},
                  {"pigeonhole8", 2, pigeonhole, kUnsat, true},
                  {"random3sat", 16, random3sat, std::nullopt, true},
                  {"big3sat", 1, big3sat, std::nullopt, true},
                  {"binary_net", 1, binary_net, kSat, true},
                  {"incremental_gc", 1, incremental_gc, std::nullopt, false},
              };

  std::vector<WorkloadResult> results;
  int wrong = 0;
  for (const Workload& w : suite) {
    results.push_back(run_workload(w.name, w.reps * scale, w.body, true));
    wrong += wrong_answers(results.back(), w.expect, nullptr);
    // The `*_noinpr` rows rerun a workload with the solver's inprocessing
    // switched off — the in-tree ablation for the simplification pipeline.
    if (w.ablate) {
      results.push_back(run_workload(std::string(w.name) + "_noinpr",
                                     w.reps * scale, w.body, false));
      wrong += wrong_answers(results.back(), w.expect,
                             &results[results.size() - 2]);
    }
  }

  std::printf("%-16s %12s %10s %6s %10s %8s %8s %6s %10s\n", "workload",
              "props/s", "confl/s", "bin%", "props", "arenaKB", "peakKB",
              "gc", "reclaimKB");
  WorkloadResult total;
  total.name = "TOTAL";
  for (const auto& r : results) {
    double binpct = r.stats.propagations
                        ? 100.0 * static_cast<double>(r.stats.bin_propagations) /
                              static_cast<double>(r.stats.propagations)
                        : 0.0;
    std::printf("%-16s %12.0f %10.0f %5.1f%% %10llu %8zu %8llu %6llu %10llu\n",
                r.name.c_str(), props_per_sec(r),
                r.solve_sec > 0
                    ? static_cast<double>(r.stats.conflicts) / r.solve_sec
                    : 0.0,
                binpct,
                static_cast<unsigned long long>(r.stats.propagations),
                r.arena_bytes / 1024,
                static_cast<unsigned long long>(r.stats.peak_arena_bytes / 1024),
                static_cast<unsigned long long>(r.stats.gc_runs),
                static_cast<unsigned long long>(r.stats.wasted_bytes_reclaimed /
                                                1024));
    total.solve_sec += r.solve_sec;
    total.stats += r.stats;
    total.arena_bytes += r.arena_bytes;
  }
  std::printf("%-16s %12.0f %10.0f %5.1f%% %10llu %8zu %8llu %6llu %10llu\n",
              "TOTAL", props_per_sec(total),
              total.solve_sec > 0
                  ? static_cast<double>(total.stats.conflicts) / total.solve_sec
                  : 0.0,
              total.stats.propagations
                  ? 100.0 * static_cast<double>(total.stats.bin_propagations) /
                        static_cast<double>(total.stats.propagations)
                  : 0.0,
              static_cast<unsigned long long>(total.stats.propagations),
              total.arena_bytes / 1024,
              static_cast<unsigned long long>(total.stats.peak_arena_bytes / 1024),
              static_cast<unsigned long long>(total.stats.gc_runs),
              static_cast<unsigned long long>(total.stats.wasted_bytes_reclaimed /
                                              1024));

  if (wrong > 0) {
    std::fprintf(stderr, "bench_sat: %d wrong answers; %s not written\n",
                 wrong, json_path.c_str());
    return 1;
  }

  bench::JsonWriter json(json_path);
  json.begin_object();
  json.field("bench", "sat");
  json.field("scale", scale);
  json.field("quick", quick);
  json.begin_array("workloads");
  auto emit = [&](const WorkloadResult& r) {
    json.begin_object();
    json.field("name", r.name);
    json.field("reps", r.reps);
    json.field("solve_sec", r.solve_sec);
    json.field("propagations", r.stats.propagations);
    json.field("bin_propagations", r.stats.bin_propagations);
    json.field("props_per_sec", props_per_sec(r));
    json.field("conflicts", r.stats.conflicts);
    json.field("conflicts_per_sec",
               r.solve_sec > 0
                   ? static_cast<double>(r.stats.conflicts) / r.solve_sec
                   : 0.0);
    json.field("decisions", r.stats.decisions);
    json.field("restarts", r.stats.restarts);
    json.field("db_reductions", r.stats.db_reductions);
    json.field("gc_runs", r.stats.gc_runs);
    json.field("arena_bytes", r.arena_bytes);
    json.field("arena_peak_bytes", r.stats.peak_arena_bytes);
    json.field("wasted_bytes_reclaimed", r.stats.wasted_bytes_reclaimed);
    json.field("removed_satisfied", r.stats.removed_satisfied);
    json.field("inprocess", r.inprocess);
    json.field("inprocess_rounds", r.stats.inprocess_rounds);
    json.field("subsumed", r.stats.subsumed);
    json.field("strengthened", r.stats.strengthened);
    json.field("vars_eliminated", r.stats.vars_eliminated);
    json.field("vivified", r.stats.vivified);
    json.field("probed", r.stats.probed);
    json.field("failed_literals", r.stats.failed_literals);
    json.field("hyper_binaries", r.stats.hyper_binaries);
    json.field("learned_core", r.stats.learned_core);
    json.field("learned_mid", r.stats.learned_mid);
    json.field("learned_local", r.stats.learned_local);
    json.begin_array("glue_hist");
    for (auto g : r.stats.glue_hist) json.value(g);
    json.end_array();
    json.end_object();
  };
  for (const auto& r : results) emit(r);
  emit(total);
  json.end_array();
  json.end_object();
  if (!json.write()) {
    std::fprintf(stderr, "bench_sat: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\ntrajectory written to %s\n", json_path.c_str());
  return 0;
}
