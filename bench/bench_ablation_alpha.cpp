// bench_ablation_alpha.cpp — ablation over the serial fraction alpha_s of
// Fig. 4 (0 = parallel ITPSEQ ... 1 = fully serial).  The paper fixes
// alpha_s = 0.5 for SITPSEQ; this sweep shows the trade-off between extra
// SAT calls (serial) and weaker per-term abstraction (parallel).  Every
// verdict is checked (verdict_check.hpp); a bad one exits 1.
//
// Usage: bench_ablation_alpha [per_engine_seconds] [family_filter]
#include <cstdio>
#include <string>

#include "args.hpp"
#include "bench_circuits/suite.hpp"
#include "mc/engine.hpp"
#include "mc/itpseq_verif.hpp"
#include "verdict_check.hpp"

using namespace itpseq;

int main(int argc, char** argv) {
  const double limit = bench::positive_arg(
      argc, argv, 1, 5.0, "[per_engine_seconds] [family_filter]");
  std::string filter = argc > 2 ? argv[2] : "";
  const double alphas[] = {0.0, 0.25, 0.5, 0.75, 1.0};

  std::printf("# alpha_s ablation (SITPSEQ, Fig. 4); cell = time[s] (k_fp,j_fp) or ovf\n");
  std::printf("%-18s", "# instance");
  for (double a : alphas) std::printf("  a=%-4.2f            ", a);
  std::printf("\n");

  struct Tally {
    unsigned solved = 0;
    double total = 0;
  } tally[5];

  for (auto& inst : bench::make_suite()) {
    if (!filter.empty() && inst.family.find(filter) == std::string::npos)
      continue;
    std::printf("%-18s", inst.name.c_str());
    for (int i = 0; i < 5; ++i) {
      mc::EngineOptions opts;
      opts.time_limit_sec = limit;
      opts.serial_alpha = alphas[i];
      mc::EngineResult r = mc::ItpSeqEngine(inst.model, 0, opts).run();
      bench::check_verdict(inst, r);
      if (r.verdict == mc::Verdict::kUnknown) {
        std::printf("  %-18s", "ovf");
        tally[i].total += limit;
      } else {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%7.3f (%u,%u)", r.seconds, r.k_fp,
                      r.j_fp);
        std::printf("  %-18s", buf);
        ++tally[i].solved;
        tally[i].total += r.seconds;
      }
    }
    std::printf("\n");
  }
  std::printf("# summary:");
  for (int i = 0; i < 5; ++i)
    std::printf("  a=%.2f solved=%u total=%.1fs", alphas[i], tally[i].solved,
                tally[i].total);
  std::printf("\n");
  return 0;
}
