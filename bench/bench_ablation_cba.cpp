// bench_ablation_cba.cpp — ablation of the CBA integration (Fig. 5): plain
// SITPSEQ versus SITPSEQ+CBA on the large "industrial" instances, reporting
// the final abstraction size (visible latches), refinement count and time.
// This is the paper's headline CBA claim: on large designs with local
// properties the abstraction solves instances the concrete engines cannot,
// because BMC checks and proofs stay small.  Every verdict is checked
// (verdict_check.hpp); a bad one exits 1.
//
// Usage: bench_ablation_cba [per_engine_seconds]
#include <cstdio>

#include "args.hpp"
#include "bench_circuits/suite.hpp"
#include "mc/engine.hpp"
#include "verdict_check.hpp"

using namespace itpseq;

int main(int argc, char** argv) {
  const double limit =
      bench::positive_arg(argc, argv, 1, 10.0, "[per_engine_seconds]");
  mc::EngineOptions opts;
  opts.time_limit_sec = limit;

  std::printf("# CBA ablation on the industrial suite (budget %.1fs)\n", limit);
  std::printf("%-18s %5s | %-22s | %-22s %9s %7s\n", "# instance", "#FF",
              "SITPSEQ", "SITPSEQ+CBA", "visible", "refines");

  auto cell = [](const mc::EngineResult& r) {
    char buf[32];
    if (r.verdict == mc::Verdict::kUnknown)
      std::snprintf(buf, sizeof buf, "ovf (%u)", r.k_fp);
    else
      std::snprintf(buf, sizeof buf, "%s %.2fs k=%u", mc::to_string(r.verdict),
                    r.seconds, r.k_fp);
    return std::string(buf);
  };

  for (auto& inst : bench::make_industrial_suite()) {
    mc::EngineResult plain = mc::check_sitpseq(inst.model, 0, opts);
    mc::EngineResult cba = mc::check_itpseq_cba(inst.model, 0, opts);
    bench::check_verdict(inst, plain);
    bench::check_verdict(inst, cba);
    std::printf("%-18s %5zu | %-22s | %-22s %5u/%-3zu %7u\n", inst.name.c_str(),
                inst.model.num_latches(), cell(plain).c_str(),
                cell(cba).c_str(), cba.stats.cba_visible_latches,
                inst.model.num_latches(), cba.stats.cba_refinements);
  }
  return 0;
}
