// bench_ablation_itpsys.cpp — ablation over the labeled interpolation
// system (McMillan / Pudlak / inverse McMillan) used to extract
// interpolants from the refutation proofs.
//
// The paper (and its references [3], [9]) use McMillan's asymmetric system,
// which yields the strongest — smallest — state sets.  Pudlak's symmetric
// system and the inverse (dual) McMillan system produce progressively
// weaker over-approximations from the *same* proofs, trading convergence
// depth against interpolant size.  This sweep quantifies that trade-off on
// both the standard-ITP engine (Fig. 1) and the parallel ITPSEQ engine
// (Fig. 2).  Every verdict is checked (verdict_check.hpp); a bad one
// exits 1.
//
// Usage: bench_ablation_itpsys [per_engine_seconds] [family_filter]
#include <cstdio>
#include <string>

#include "args.hpp"
#include "bench_circuits/suite.hpp"
#include "mc/engine.hpp"
#include "verdict_check.hpp"

using namespace itpseq;

namespace {

struct Tally {
  unsigned solved = 0;
  double total = 0;
  std::size_t max_itp = 0;
};

void run_cell(const bench::Instance& inst, bool seq, itp::System sys,
              double limit, Tally& tally) {
  mc::EngineOptions opts;
  opts.time_limit_sec = limit;
  opts.itp_system = sys;
  mc::EngineResult r = seq ? mc::check_itpseq(inst.model, 0, opts)
                           : mc::check_itp(inst.model, 0, opts);
  bench::check_verdict(inst, r);
  if (r.verdict == mc::Verdict::kUnknown) {
    std::printf("  %-18s", "ovf");
    tally.total += limit;
  } else {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%7.3f (%u,%u)", r.seconds, r.k_fp, r.j_fp);
    std::printf("  %-18s", buf);
    ++tally.solved;
    tally.total += r.seconds;
  }
  if (r.stats.max_itp_nodes > tally.max_itp)
    tally.max_itp = r.stats.max_itp_nodes;
}

}  // namespace

int main(int argc, char** argv) {
  const double limit = bench::positive_arg(
      argc, argv, 1, 5.0, "[per_engine_seconds] [family_filter]");
  std::string filter = argc > 2 ? argv[2] : "";
  const itp::System systems[] = {itp::System::kMcMillan, itp::System::kPudlak,
                                 itp::System::kInverseMcMillan};
  const char* sys_names[] = {"mcmillan", "pudlak", "inv-mcmillan"};

  std::printf(
      "# interpolation-system ablation; cell = time[s] (k_fp,j_fp) or ovf\n");
  std::printf("%-18s", "# instance");
  for (const char* e : {"ITP", "SEQ"})
    for (const char* s : sys_names) std::printf("  %s/%-13s", e, s);
  std::printf("\n");

  Tally tally[2][3];
  for (auto& inst : bench::make_suite()) {
    if (!filter.empty() && inst.family.find(filter) == std::string::npos)
      continue;
    if (inst.industrial) continue;  // keep the sweep CI-sized
    std::printf("%-18s", inst.name.c_str());
    for (int e = 0; e < 2; ++e)
      for (int s = 0; s < 3; ++s)
        run_cell(inst, e == 1, systems[s], limit, tally[e][s]);
    std::printf("\n");
  }
  std::printf("# summary:\n");
  for (int e = 0; e < 2; ++e)
    for (int s = 0; s < 3; ++s)
      std::printf("#   %s/%-13s solved=%-3u total=%7.1fs max_itp_nodes=%zu\n",
                  e ? "SEQ" : "ITP", sys_names[s], tally[e][s].solved,
                  tally[e][s].total, tally[e][s].max_itp);
  return 0;
}
