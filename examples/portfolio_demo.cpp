// portfolio_demo.cpp — the portfolio engine in action: random simulation
// catches shallow failures instantly, interpolation engines handle proofs,
// and the scheduler picks whichever finishes first.
//
// Usage: portfolio_demo [time_limit_sec]
#include <cstdio>

#include "args.hpp"
#include "bench_circuits/generators.hpp"
#include "mc/portfolio.hpp"
#include "mc/sim.hpp"

using namespace itpseq;

namespace {

void run(const char* label, const aig::Aig& model, const mc::PortfolioOptions& opts) {
  mc::EngineResult r = mc::check_portfolio(model, 0, opts);
  std::printf("%-24s -> %-8s by %-22s k=%-3u %.3fs\n", label,
              mc::to_string(r.verdict), r.engine.c_str(), r.k_fp, r.seconds);
  if (r.verdict == mc::Verdict::kFail &&
      !mc::trace_is_cex(model, r.cex, 0))
    std::printf("  WARNING: counterexample did not replay!\n");
}

}  // namespace

int main(int argc, char** argv) {
  mc::PortfolioOptions opts;
  opts.time_limit_sec =
      bench::positive_arg(argc, argv, 1, 30.0, "[time_limit_sec]");

  // Shallow failure: random simulation should win.
  run("queue8 overflow", bench::queue(8, false), opts);
  // Deep targeted failure: needs BMC-style search.
  run("lock12 opens", bench::combination_lock(12, 3, 0x9c), opts);
  // Proof with a small invariant: interpolation engines win.
  run("ring16 one-hot", bench::token_ring(16, false), opts);
  // Large design, local property: the CBA member shines.
  run("industrial 400FF", bench::industrial(40, 10, 0, 12, 301), opts);
  return 0;
}
