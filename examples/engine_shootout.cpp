// engine_shootout.cpp — run the engines across the benchmark suite and
// print a per-instance comparison (a miniature of the paper's Table I),
// with BMC and PDR columns flanking the interpolation family and the
// threaded portfolio (all engines racing) as the closer.
// A SAT-core footer totals the solver-side work per engine: propagations
// (the share served by the inline binary watchers, and those made at the
// assumption levels of solve_assuming with the levels opened), conflicts, arena
// GC runs and bytes reclaimed, inprocessing, and the lazy model extensions
// run over eliminated vars (mext).  Propagations count only implications
// found by the solver's propagate() (sat::SolverStats), not the units
// add_clause enqueues at level 0: BMC on an input-free design (the ring
// family) adds every frame already fixed by the reset, so its row can read
// 0 props over thousands of calls.  Every run's verdict is checked
// (bench/verdict_check.hpp): a wrong one stops the shootout.
//
// Usage: engine_shootout [per_instance_seconds] [family_filter]
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "args.hpp"
#include "bench_circuits/suite.hpp"
#include "mc/engine.hpp"
#include "mc/portfolio.hpp"
#include "obs/trace.hpp"
#include "verdict_check.hpp"

using namespace itpseq;

int main(int argc, char** argv) {
  auto sink = obs::TraceSink::from_env();  // ITPSEQ_TRACE=... opt-in
  const double limit = bench::positive_arg(
      argc, argv, 1, 5.0, "[per_instance_seconds] [family_filter]");
  std::string filter = argc > 2 ? argv[2] : "";

  mc::EngineOptions opts;
  opts.time_limit_sec = limit;
  mc::PortfolioOptions popts;
  popts.time_limit_sec = limit;

  std::printf(
      "%-16s %4s %4s | %-22s %-22s %-22s %-22s %-22s %-22s %-26s\n",
      "instance", "#PI", "#FF", "BMC", "ITP", "ITPSEQ", "SITPSEQ",
      "ITPSEQCBA", "PDR", "PORTFOLIO");
  auto cell = [](const mc::EngineResult& r) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s k=%u j=%u %.2fs",
                  mc::to_string(r.verdict), r.k_fp, r.j_fp, r.seconds);
    return std::string(buf);
  };

  const char* names[6] = {"BMC", "ITP", "ITPSEQ", "SITPSEQ", "ITPSEQCBA",
                          "PDR"};
  mc::EngineStats totals[6];

  // Portfolio self-healing ledger: per member, runs / relaunches and the
  // error kind behind the most recent relaunch (see the footer).
  struct MemberHealth {
    std::uint64_t runs = 0;
    std::uint64_t restarts = 0;
    std::string last_error = "-";
  };
  std::map<std::string, MemberHealth> health;

  for (auto& inst : bench::make_academic_suite()) {
    if (!filter.empty() && inst.family.find(filter) == std::string::npos)
      continue;
    mc::EngineResult bm = mc::check_bmc(inst.model, 0, opts);
    mc::EngineResult a = mc::check_itp(inst.model, 0, opts);
    mc::EngineResult b = mc::check_itpseq(inst.model, 0, opts);
    mc::EngineResult c = mc::check_sitpseq(inst.model, 0, opts);
    mc::EngineResult d = mc::check_itpseq_cba(inst.model, 0, opts);
    mc::EngineResult p = mc::check_pdr(inst.model, 0, opts);
    mc::EngineResult pf = mc::check_portfolio(inst.model, 0, popts);
    for (const mc::EngineResult* r : {&bm, &a, &b, &c, &d, &p, &pf})
      bench::check_verdict(inst, *r);
    totals[0] += bm.stats;
    totals[1] += a.stats;
    totals[2] += b.stats;
    totals[3] += c.stats;
    totals[4] += d.stats;
    totals[5] += p.stats;
    for (const mc::MemberOutcome& m : pf.members) {
      MemberHealth& h = health[m.member];
      ++h.runs;
      h.restarts += m.restarts;
      if (m.last_error.kind != mc::ErrorKind::kNone)
        h.last_error = mc::to_string(m.last_error.kind);
    }
    const char* pf_winner = std::strchr(pf.engine.c_str(), '/');
    pf_winner = pf_winner != nullptr ? pf_winner + 1 : "-";
    char pf_cell[80];
    std::snprintf(pf_cell, sizeof pf_cell, "%s %.2fs %s",
                  mc::to_string(pf.verdict), pf.seconds, pf_winner);
    std::printf(
        "%-16s %4zu %4zu | %-22s %-22s %-22s %-22s %-22s %-22s %-26s\n",
        inst.name.c_str(), inst.model.num_inputs(), inst.model.num_latches(),
        cell(bm).c_str(), cell(a).c_str(), cell(b).c_str(), cell(c).c_str(),
        cell(d).c_str(), cell(p).c_str(), pf_cell);
  }

  std::printf("\nSAT core totals (per engine, over the suite):\n");
  std::printf(
      "%-10s %10s %14s %6s %14s %10s %12s %6s %12s %10s %20s %6s %8s %6s %6s "
      "%6s %8s\n",
      "engine", "calls", "props", "bin%", "asm props", "asm levels",
      "conflicts", "gc", "reclaimKB",
      "peakKB", "learned c/m/l", "inpr", "subsume", "elim", "vivif", "probe",
      "mext");
  for (int i = 0; i < 6; ++i) {
    const mc::EngineStats& t = totals[i];
    // Glue-tier shares of all learned clauses (histogram bucket = LBD - 1,
    // last bucket >= 8): core <= 2, mid 3..6, local > 6.
    const auto& h = t.sat_glue_hist;
    std::uint64_t core = h[0] + h[1];
    std::uint64_t mid = h[2] + h[3] + h[4] + h[5];
    std::uint64_t local = h[6] + h[7];
    std::printf(
        "%-10s %10llu %14llu %5.1f%% %14llu %10llu %12llu %6llu %12llu %10zu "
        "%7llu/%5llu/%5llu %6llu %8llu %6llu %6llu %6llu %8llu\n",
        names[i], static_cast<unsigned long long>(t.sat_calls),
        static_cast<unsigned long long>(t.sat_propagations),
        t.sat_propagations
            ? 100.0 * static_cast<double>(t.sat_bin_propagations) /
                  static_cast<double>(t.sat_propagations)
            : 0.0,
        static_cast<unsigned long long>(t.sat_assumption_propagations),
        static_cast<unsigned long long>(t.sat_assumption_levels),
        static_cast<unsigned long long>(t.sat_conflicts),
        static_cast<unsigned long long>(t.sat_gc_runs),
        static_cast<unsigned long long>(t.sat_arena_reclaimed / 1024),
        t.sat_arena_peak / 1024, static_cast<unsigned long long>(core),
        static_cast<unsigned long long>(mid),
        static_cast<unsigned long long>(local),
        static_cast<unsigned long long>(t.sat_inprocess_rounds),
        static_cast<unsigned long long>(t.sat_subsumed),
        static_cast<unsigned long long>(t.sat_vars_eliminated),
        static_cast<unsigned long long>(t.sat_vivified),
        static_cast<unsigned long long>(t.sat_failed_literals +
                                        t.sat_hyper_binaries),
        static_cast<unsigned long long>(t.sat_model_extensions));
  }

  // Self-healing footer: a healthy suite shows 0 restarts everywhere; a
  // nonzero row names the member the retry/backoff ladder had to relaunch
  // (rerun with --stats-json / ITPSEQ_TRACE for the per-run detail).
  std::printf("\nportfolio self-healing (per member, over the suite):\n");
  std::printf("%-12s %6s %9s %12s\n", "member", "runs", "restarts",
              "last_error");
  for (const auto& [member, h] : health)
    std::printf("%-12s %6llu %9llu %12s\n", member.c_str(),
                static_cast<unsigned long long>(h.runs),
                static_cast<unsigned long long>(h.restarts),
                h.last_error.c_str());
  return 0;
}
