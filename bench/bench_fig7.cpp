// bench_fig7.cpp — regenerates Figure 7 of the paper.
//
// Scatter comparison of the ITPSEQ engine using exact-k versus
// exact-assume-k BMC checks (Section III).  One line per instance with both
// run times; points below the diagonal favour assume-k.  A win/loss/tie
// summary and the geometric-mean speedup are printed at the end.  Every
// verdict is checked (verdict_check.hpp); a bad one exits 1.
//
// Usage: bench_fig7 [per_engine_seconds]
#include <cmath>
#include <cstdio>

#include "args.hpp"
#include "bench_circuits/suite.hpp"
#include "mc/engine.hpp"
#include "verdict_check.hpp"

using namespace itpseq;

int main(int argc, char** argv) {
  const double limit =
      bench::positive_arg(argc, argv, 1, 5.0, "[per_engine_seconds]");

  mc::EngineOptions exact;
  exact.time_limit_sec = limit;
  exact.scheme = mc::TargetScheme::kExact;
  mc::EngineOptions assume;
  assume.time_limit_sec = limit;
  assume.scheme = mc::TargetScheme::kExactAssume;

  std::printf("# Figure 7 reproduction: ITPSEQ run time, exact-k vs assume-k\n");
  std::printf("%-18s %12s %12s %8s\n", "# instance", "exact[s]", "assume[s]",
              "verdicts");

  unsigned wins = 0, losses = 0, ties = 0;
  double log_ratio_sum = 0.0;
  unsigned ratio_count = 0;

  for (auto& inst : bench::make_suite()) {
    mc::EngineResult re = mc::check_itpseq(inst.model, 0, exact);
    mc::EngineResult ra = mc::check_itpseq(inst.model, 0, assume);
    bench::check_verdict(inst, re);
    bench::check_verdict(inst, ra);
    double te = re.verdict == mc::Verdict::kUnknown ? limit : re.seconds;
    double ta = ra.verdict == mc::Verdict::kUnknown ? limit : ra.seconds;
    std::printf("%-18s %12.4f %12.4f %4s/%-4s\n", inst.name.c_str(), te, ta,
                mc::to_string(re.verdict), mc::to_string(ra.verdict));
    // Classify as win/loss only above measurement noise: sub-10ms instances
    // and <20% deltas count as ties.
    double margin = 0.2 * std::max(te, ta) + 0.01;
    if (ta + margin < te)
      ++wins;
    else if (te + margin < ta)
      ++losses;
    else
      ++ties;
    if (te > 1e-6 && ta > 1e-6) {
      log_ratio_sum += std::log(te / ta);
      ++ratio_count;
    }
  }
  std::printf("# assume-k faster: %u   exact-k faster: %u   ties: %u\n", wins,
              losses, ties);
  if (ratio_count)
    std::printf("# geometric-mean speedup of assume-k over exact-k: %.3fx\n",
                std::exp(log_ratio_sum / ratio_count));
  return 0;
}
