// bench_fig6.cpp — regenerates Figure 6 of the paper.
//
// Runs the four engines over the full suite, records the per-instance CPU
// time (timeouts clamp to the budget), sorts each engine's times
// independently (as the paper does, yielding monotone curves) and prints
// the four series side by side, plus solved-instance counts.  Every
// verdict is checked (verdict_check.hpp); a bad one exits 1.
//
// Usage: bench_fig6 [per_engine_seconds]
#include <algorithm>
#include <cstdio>
#include <vector>

#include "args.hpp"
#include "bench_circuits/suite.hpp"
#include "mc/engine.hpp"
#include "verdict_check.hpp"

using namespace itpseq;

int main(int argc, char** argv) {
  const double limit =
      bench::positive_arg(argc, argv, 1, 5.0, "[per_engine_seconds]");
  mc::EngineOptions opts;
  opts.time_limit_sec = limit;

  struct Series {
    const char* name;
    std::vector<double> times;
    unsigned solved = 0;
  };
  Series series[4] = {{"ITP", {}, 0},
                      {"ITPSEQ", {}, 0},
                      {"SITPSEQ", {}, 0},
                      {"ITPSEQ+CBA", {}, 0}};

  auto suite = bench::make_suite();
  std::fprintf(stderr, "running %zu instances x 4 engines (budget %.1fs)...\n",
               suite.size(), limit);
  for (auto& inst : suite) {
    mc::EngineResult rs[4] = {
        mc::check_itp(inst.model, 0, opts), mc::check_itpseq(inst.model, 0, opts),
        mc::check_sitpseq(inst.model, 0, opts),
        mc::check_itpseq_cba(inst.model, 0, opts)};
    for (int e = 0; e < 4; ++e) {
      bench::check_verdict(inst, rs[e]);
      bool solved = rs[e].verdict != mc::Verdict::kUnknown;
      series[e].times.push_back(solved ? rs[e].seconds : limit);
      if (solved) ++series[e].solved;
    }
  }
  for (auto& s : series) std::sort(s.times.begin(), s.times.end());

  std::printf("# Figure 6 reproduction: sorted per-instance run times [s]\n");
  std::printf("# instances solved within %.1fs: ITP=%u ITPSEQ=%u SITPSEQ=%u "
              "ITPSEQCBA=%u (of %zu)\n",
              limit, series[0].solved, series[1].solved, series[2].solved,
              series[3].solved, suite.size());
  std::printf("%6s %12s %12s %12s %12s\n", "idx", "ITP", "ITPSEQ", "SITPSEQ",
              "ITPSEQ+CBA");
  for (std::size_t i = 0; i < suite.size(); ++i)
    std::printf("%6zu %12.4f %12.4f %12.4f %12.4f\n", i, series[0].times[i],
                series[1].times[i], series[2].times[i], series[3].times[i]);
  return 0;
}
