// bench_ablation_pba.cpp — ablation over the localization-abstraction
// strategy of Section V: none / CBA (Fig. 5) / PBA.
//
// The paper argues for CBA because its refine-up strategy is dual to the
// interpolation over-approximation, while PBA "is closer to standard
// interpolation, as they both start from SAT refutation proofs".  This
// sweep measures both on the industrial-like suite (where abstraction
// matters): solve counts, times, and the final number of visible latches.
// Every verdict is checked (verdict_check.hpp); a bad one exits 1.
//
// Usage: bench_ablation_pba [per_engine_seconds] [family_filter]
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
      argc, argv, 1, 10.0, "[per_engine_seconds] [family_filter]");
  std::string filter = argc > 2 ? argv[2] : "";
  const mc::AbstractionMode modes[] = {
      mc::AbstractionMode::kNone, mc::AbstractionMode::kCba,
      mc::AbstractionMode::kPba};

  std::printf(
      "# abstraction ablation (Section V); cell = time[s] (k_fp,j_fp) vis=N "
      "or ovf\n");
  std::printf("%-18s %5s", "# instance", "#FF");
  for (auto m : modes) std::printf("  %-26s", to_string(m));
  std::printf("\n");

  struct Tally {
    unsigned solved = 0;
    double total = 0;
    unsigned long long visible = 0, refinements = 0;
  } tally[3];

  for (auto& inst : bench::make_suite()) {
    if (!filter.empty() && inst.family.find(filter) == std::string::npos)
      continue;
    if (!inst.industrial) continue;  // abstraction only pays off at size
    std::printf("%-18s %5zu", inst.name.c_str(), inst.model.num_latches());
    for (int i = 0; i < 3; ++i) {
      mc::EngineOptions opts;
      opts.time_limit_sec = limit;
      opts.serial_alpha = 0.5;  // the paper's SITPSEQ setting
      mc::EngineResult r = mc::ItpSeqEngine(inst.model, 0, opts, modes[i]).run();
      bench::check_verdict(inst, r);
      if (r.verdict == mc::Verdict::kUnknown) {
        std::printf("  %-26s", "ovf");
        tally[i].total += limit;
      } else {
        char buf[48];
        std::snprintf(buf, sizeof buf, "%7.3f (%u,%u) vis=%u", r.seconds,
                      r.k_fp, r.j_fp, r.stats.cba_visible_latches);
        std::printf("  %-26s", buf);
        ++tally[i].solved;
        tally[i].total += r.seconds;
        tally[i].visible += r.stats.cba_visible_latches;
        tally[i].refinements += r.stats.cba_refinements;
      }
    }
    std::printf("\n");
  }
  std::printf("# summary:\n");
  for (int i = 0; i < 3; ++i)
    std::printf(
        "#   %-8s solved=%-3u total=%7.1fs visible_sum=%llu refinements=%llu\n",
        to_string(modes[i]), tally[i].solved, tally[i].total, tally[i].visible,
        tally[i].refinements);
  return 0;
}
