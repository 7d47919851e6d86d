// bench_bmc_incremental.cpp — engineering ablation: monolithic BMC
// (re-encode the unrolling at every bound) versus the single-instance
// incremental formulation (one solver, assumptions per bound; in the spirit
// of the paper's reference [13]).  Reported on the falsifiable suite
// instances; both must find identical counterexample depths.  Every
// verdict is checked (verdict_check.hpp); a bad one exits 1.
//
// Usage: bench_bmc_incremental [per_engine_seconds]
#include <cstdio>
#include <cstdlib>

#include "bench_circuits/suite.hpp"
#include "mc/engine.hpp"
#include "verdict_check.hpp"

using namespace itpseq;

int main(int argc, char** argv) {
  double limit = argc > 1 ? std::atof(argv[1]) : 5.0;

  std::printf("# BMC: monolithic vs incremental (exact-assume scheme)\n");
  std::printf("%-18s %6s | %12s %12s %9s\n", "# instance", "depth", "mono[s]",
              "incr[s]", "speedup");

  double mono_total = 0, incr_total = 0;
  unsigned count = 0, agree = 0;
  for (auto& inst : bench::make_suite()) {
    if (inst.expected != bench::Expected::kFail) continue;
    mc::EngineOptions mono;
    mono.time_limit_sec = limit;
    mono.max_bound = 100;
    mono.bmc_incremental = false;  // monolithic baseline (incremental is default)
    mc::EngineOptions incr = mono;
    incr.bmc_incremental = true;

    mc::EngineResult a = mc::check_bmc(inst.model, 0, mono);
    mc::EngineResult b = mc::check_bmc(inst.model, 0, incr);
    bench::check_verdict(inst, a);
    bench::check_verdict(inst, b);
    double ta = a.verdict == mc::Verdict::kUnknown ? limit : a.seconds;
    double tb = b.verdict == mc::Verdict::kUnknown ? limit : b.seconds;
    mono_total += ta;
    incr_total += tb;
    ++count;
    bool same = a.verdict == b.verdict &&
                (a.verdict != mc::Verdict::kFail ||
                 a.cex.depth() == b.cex.depth());
    if (same) ++agree;
    std::printf("%-18s %6d | %12.4f %12.4f %8.2fx%s\n", inst.name.c_str(),
                a.verdict == mc::Verdict::kFail ? static_cast<int>(a.cex.depth())
                                                : -1,
                ta, tb, tb > 1e-9 ? ta / tb : 0.0, same ? "" : "  MISMATCH");
  }
  std::printf("# totals over %u instances: mono %.2fs, incremental %.2fs "
              "(%.2fx), verdict agreement %u/%u\n",
              count, mono_total, incr_total,
              incr_total > 1e-9 ? mono_total / incr_total : 0.0, agree, count);
  return 0;
}
