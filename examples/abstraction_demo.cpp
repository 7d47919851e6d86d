// abstraction_demo.cpp — shows counterexample-based abstraction (Fig. 5) at
// work: on a large pipeline with a tiny property cone, the CBA engine
// refines only a handful of latches while plain ITPSEQ must reason about
// the full design.
//
// Usage: abstraction_demo [time_limit_sec]
#include <cstdio>

#include "args.hpp"
#include "bench_circuits/generators.hpp"
#include "mc/engine.hpp"

using namespace itpseq;

int main(int argc, char** argv) {
  const double limit =
      bench::positive_arg(argc, argv, 1, 30.0, "[time_limit_sec]");

  // ~260 latches of pipeline noise around an 8-state guarded counter.
  aig::Aig big = bench::industrial(32, 8, /*variant=*/0, /*param=*/10, 201);
  std::printf("industrial pipeline: %zu inputs, %zu latches, %zu ANDs\n",
              big.num_inputs(), big.num_latches(), big.num_ands());

  mc::EngineOptions opts;
  opts.time_limit_sec = limit;

  mc::EngineResult plain = mc::check_itpseq(big, 0, opts);
  std::printf("ITPSEQ    : %-8s k_fp=%-3u j_fp=%-3u %.2fs\n",
              mc::to_string(plain.verdict), plain.k_fp, plain.j_fp,
              plain.seconds);

  mc::EngineResult cba = mc::check_itpseq_cba(big, 0, opts);
  std::printf("ITPSEQCBA : %-8s k_fp=%-3u j_fp=%-3u %.2fs  "
              "(visible latches: %u of %zu, %u refinements)\n",
              mc::to_string(cba.verdict), cba.k_fp, cba.j_fp, cba.seconds,
              cba.stats.cba_visible_latches, big.num_latches(),
              cba.stats.cba_refinements);
  return 0;
}
