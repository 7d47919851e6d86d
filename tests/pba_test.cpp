// pba_test.cpp — proof-based abstraction (ITPSEQPBA).
//
// Soundness is checked two ways: against BDD reachability ground truth on
// random circuits, and against the analytically-known verdicts of the
// curated suite.  Abstraction effectiveness (visible-latch counts) is
// checked on instances designed with a small property cone.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "bdd/reach.hpp"
#include "bench_circuits/generators.hpp"
#include "bench_circuits/suite.hpp"
#include "mc/engine.hpp"
#include "mc/itpseq_verif.hpp"
#include "mc/sim.hpp"

namespace itpseq {
namespace {

/// Same random-circuit shape as crosscheck_test.cpp (kept independent so
/// the two files can evolve separately).
aig::Aig random_circuit(std::uint32_t seed) {
  std::mt19937 rng(seed);
  aig::Aig g;
  unsigned ni = 1 + rng() % 3, nl = 2 + rng() % 5;
  std::vector<aig::Lit> pool;
  for (unsigned i = 0; i < ni; ++i) pool.push_back(g.add_input());
  std::vector<aig::Lit> latches;
  for (unsigned i = 0; i < nl; ++i) {
    aig::Lit l = g.add_latch(static_cast<aig::LatchInit>(rng() % 3));
    latches.push_back(l);
    pool.push_back(l);
  }
  unsigned gates = 5 + rng() % 25;
  for (unsigned n = 0; n < gates; ++n) {
    aig::Lit a = pool[rng() % pool.size()] ^ (rng() % 2);
    aig::Lit b = pool[rng() % pool.size()] ^ (rng() % 2);
    pool.push_back(rng() % 2 ? g.make_and(a, b) : g.make_xor(a, b));
  }
  for (aig::Lit l : latches)
    g.set_latch_next(l, pool[rng() % pool.size()] ^ (rng() % 2));
  aig::Lit bad = g.make_and(pool[rng() % pool.size()] ^ (rng() % 2),
                            pool[rng() % pool.size()] ^ (rng() % 2));
  g.add_output(bad);
  return g;
}

class PbaVsBddTest : public ::testing::TestWithParam<int> {};

TEST_P(PbaVsBddTest, RandomCircuitsAgree) {
  aig::Aig g = random_circuit(9100 + GetParam());
  bdd::ReachBudget rb;
  rb.seconds = 10.0;
  bdd::ReachResult truth = bdd::bdd_check(g, 0, rb);
  if (truth.verdict == bdd::ReachVerdict::kOverflow) GTEST_SKIP();

  mc::EngineOptions opts;
  opts.time_limit_sec = 15.0;
  opts.max_bound = 120;

  mc::EngineResult r = mc::check_itpseq_pba(g, 0, opts);
  if (r.verdict == mc::Verdict::kUnknown) return;
  if (truth.verdict == bdd::ReachVerdict::kPass) {
    EXPECT_EQ(r.verdict, mc::Verdict::kPass);
  } else {
    ASSERT_EQ(r.verdict, mc::Verdict::kFail);
    EXPECT_TRUE(mc::trace_is_cex(g, r.cex, 0));
    EXPECT_EQ(r.cex.depth(), truth.depth) << "not shallowest";
  }
}

INSTANTIATE_TEST_SUITE_P(Random, PbaVsBddTest, ::testing::Range(0, 40));

TEST(Pba, SuiteVerdictsMatchExpected) {
  // Capped by bound, not by the clock: tlc32 converges at k = 130, the
  // deepest of the suite, and cnt8pass, gray8, gray10 and tlc64 reach the
  // cap undecided.
  mc::EngineOptions opts;
  opts.max_bound = 130;
  opts.time_limit_sec = 600.0;  // a safety net, never reached
  unsigned solved = 0;
  for (auto& inst : bench::make_academic_suite(24)) {
    if (inst.expected == bench::Expected::kOpen) continue;
    mc::EngineResult r = mc::check_itpseq_pba(inst.model, 0, opts);
    if (r.verdict == mc::Verdict::kUnknown) continue;
    mc::Verdict want = inst.expected == bench::Expected::kPass
                           ? mc::Verdict::kPass
                           : mc::Verdict::kFail;
    EXPECT_EQ(r.verdict, want) << inst.name;
    if (r.verdict == mc::Verdict::kFail) {
      EXPECT_TRUE(mc::trace_is_cex(inst.model, r.cex, 0)) << inst.name;
    }
    ++solved;
  }
  EXPECT_EQ(solved, 73u);
}

TEST(Pba, AbstractsAwayIrrelevantLatches) {
  // Industrial-like PASS design: the property is a local guarded counter;
  // the wide pipeline latches are irrelevant to the proof, so PBA must
  // converge with far fewer visible latches than the model carries.
  aig::Aig g = bench::industrial(12, 4, /*variant=*/0, /*param=*/3,
                                 /*seed=*/11);
  mc::EngineOptions opts;
  opts.time_limit_sec = 30.0;
  mc::EngineResult r = mc::check_itpseq_pba(g, 0, opts);
  ASSERT_EQ(r.verdict, mc::Verdict::kPass);
  EXPECT_GT(r.stats.cba_visible_latches, 0u);
  EXPECT_LT(r.stats.cba_visible_latches, g.num_latches() / 2)
      << "PBA kept " << r.stats.cba_visible_latches << " of "
      << g.num_latches() << " latches";
}

TEST(Pba, FailDepthsAreShallowest) {
  // cnt8fail, the deepest failure, is found at k = 126.
  mc::EngineOptions opts;
  opts.max_bound = 126;
  opts.time_limit_sec = 600.0;  // a safety net, never reached
  unsigned exercised = 0;
  for (auto& inst : bench::make_academic_suite(20)) {
    if (inst.expected != bench::Expected::kFail || inst.fail_depth < 0)
      continue;
    mc::EngineResult r = mc::check_itpseq_pba(inst.model, 0, opts);
    if (r.verdict == mc::Verdict::kUnknown) continue;
    ASSERT_EQ(r.verdict, mc::Verdict::kFail) << inst.name;
    EXPECT_EQ(r.cex.depth(), static_cast<unsigned>(inst.fail_depth))
        << inst.name;
    ++exercised;
  }
  EXPECT_EQ(exercised, 32u);
}

TEST(Pba, ShrinkNeverDropsPropertySupport) {
  // Regression: the PBA shrink used to remove property-support latches
  // from the visible set, widening the abstract initial predicate enough
  // to contain bad states — the fixpoint check then claimed PASS on this
  // failing counter.  The needed-set must always include the support.
  aig::Aig g = bench::counter(4, 12, 7);  // FAILs at depth 7
  mc::EngineOptions opts;
  opts.time_limit_sec = 30.0;
  mc::EngineResult r = mc::check_itpseq_pba(g, 0, opts);
  ASSERT_EQ(r.verdict, mc::Verdict::kFail);
  EXPECT_EQ(r.cex.depth(), 7u);
}

TEST(Pba, EngineNamesReflectMode) {
  aig::Aig g = bench::counter(3, 6, 8);
  mc::EngineOptions opts;
  opts.time_limit_sec = 5.0;
  EXPECT_EQ(mc::ItpSeqEngine(g, 0, opts, mc::AbstractionMode::kPba).run().engine,
            "ITPSEQPBA");
  EXPECT_STREQ(to_string(mc::AbstractionMode::kNone), "none");
  EXPECT_STREQ(to_string(mc::AbstractionMode::kCba), "cba");
  EXPECT_STREQ(to_string(mc::AbstractionMode::kPba), "pba");
}

TEST(Pba, WorksWithEverySequenceVariant) {
  // PBA composes with parallel, serial and fully serial construction.
  aig::Aig g = bench::token_ring(5, false);
  for (double alpha : {0.0, 0.5, 1.0}) {
    mc::EngineOptions opts;
    opts.time_limit_sec = 15.0;
    opts.serial_alpha = alpha;
    mc::EngineResult r =
        mc::ItpSeqEngine(g, 0, opts, mc::AbstractionMode::kPba).run();
    EXPECT_EQ(r.verdict, mc::Verdict::kPass) << "alpha=" << alpha;
  }
}

TEST(Pba, WorksWithEveryInterpolationSystem) {
  aig::Aig g = bench::queue(5, true);
  for (itp::System sys : {itp::System::kMcMillan, itp::System::kPudlak,
                          itp::System::kInverseMcMillan}) {
    mc::EngineOptions opts;
    opts.time_limit_sec = 15.0;
    opts.itp_system = sys;
    mc::EngineResult r = mc::check_itpseq_pba(g, 0, opts);
    EXPECT_EQ(r.verdict, mc::Verdict::kPass) << to_string(sys);
  }
}

}  // namespace
}  // namespace itpseq
