// bench_portfolio.cpp — threaded portfolio vs. its single members.
//
// For each instance of a mixed PASS/FAIL circuit set: wall-clock of each
// single member engine, of the threaded portfolio and of the jobs=1
// portfolio (one worker, members in list order).  The number to watch is the
// "vs best" column — the threaded portfolio should track the best single
// member per instance (small scheduling overhead aside) instead of paying
// for running members one after another.  Every run's verdict is checked
// (bench/verdict_check.hpp).
//
// Usage: bench_portfolio [per_instance_seconds] [family_filter]
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "args.hpp"
#include "bench_circuits/suite.hpp"
#include "mc/portfolio.hpp"
#include "obs/trace.hpp"
#include "verdict_check.hpp"

using namespace itpseq;

int main(int argc, char** argv) {
  auto sink = obs::TraceSink::from_env();  // ITPSEQ_TRACE=... opt-in
  const double limit = bench::positive_arg(
      argc, argv, 1, 5.0, "[per_instance_seconds] [family_filter]");
  std::string filter = argc > 2 ? argv[2] : "";

  const std::vector<mc::PortfolioMember> members = {
      mc::PortfolioMember::kRandomSim, mc::PortfolioMember::kBmc,
      mc::PortfolioMember::kSItpSeq, mc::PortfolioMember::kPdr};

  std::printf("%-18s %-4s | %9s %9s %9s %9s | %9s %8s %9s | %-10s\n",
              "instance", "exp", "sim", "bmc", "sitpseq", "pdr", "threaded",
              "vs best", "jobs=1", "winner");

  double total_threaded = 0.0, total_best = 0.0, total_one = 0.0;
  unsigned instances = 0, threaded_decided = 0, regressions = 0;

  for (const auto& inst : bench::make_academic_suite(32)) {
    if (!filter.empty() && inst.family.find(filter) == std::string::npos)
      continue;
    if (inst.expected == bench::Expected::kOpen) continue;

    // Single members, each with the full budget.
    double best = -1.0;
    double singles[4] = {0, 0, 0, 0};
    for (std::size_t i = 0; i < members.size(); ++i) {
      mc::PortfolioOptions po;
      po.members = {members[i]};
      po.jobs = 1;
      po.time_limit_sec = limit;
      mc::EngineResult r = mc::check_portfolio(inst.model, 0, po);
      bench::check_verdict(inst, r);
      singles[i] = r.seconds;
      if (r.verdict != mc::Verdict::kUnknown &&
          (best < 0 || r.seconds < best))
        best = r.seconds;
    }
    if (best < 0) best = limit;  // nobody decided: the bar is the budget

    mc::PortfolioOptions po;
    po.members = members;
    po.time_limit_sec = limit;
    mc::EngineResult threaded = mc::check_portfolio(inst.model, 0, po);
    bench::check_verdict(inst, threaded);

    mc::PortfolioOptions one = po;
    one.jobs = 1;
    mc::EngineResult single = mc::check_portfolio(inst.model, 0, one);
    bench::check_verdict(inst, single);

    // Allowance: 25% scheduling overhead on top of the best single member,
    // scaled by core contention — with fewer cores than members the racing
    // members share cores until the winner cancels them, costing up to
    // members/cores of the winner's solo time (gone on a wide machine).
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0) hw = 1;
    double contention = static_cast<double>(members.size()) /
                        std::min<double>(hw, members.size());
    bool regress = threaded.seconds > best * 1.25 * contention + 0.1;
    // Winner = the member name after the "portfolio/" prefix, if any.
    const char* winner = std::strchr(threaded.engine.c_str(), '/');
    winner = winner != nullptr ? winner + 1 : "-";
    std::printf(
        "%-18s %-4s | %8.2fs %8.2fs %8.2fs %8.2fs | %8.2fs %7.2fx %8.2fs | "
        "%-10s%s\n",
        inst.name.c_str(),
        inst.expected == bench::Expected::kPass ? "PASS" : "FAIL", singles[0],
        singles[1], singles[2], singles[3], threaded.seconds,
        threaded.seconds / (best > 1e-9 ? best : 1e-9), single.seconds,
        winner, regress ? "  <-- slower than best member" : "");

    ++instances;
    total_threaded += threaded.seconds;
    total_best += best;
    total_one += single.seconds;
    if (threaded.verdict != mc::Verdict::kUnknown) ++threaded_decided;
    if (regress) ++regressions;
  }

  std::printf(
      "\n%u instances | threaded %.2fs vs best-member %.2fs vs jobs=1 "
      "%.2fs | decided %u | regressions %u\n",
      instances, total_threaded, total_best, total_one, threaded_decided,
      regressions);
  return 0;
}
