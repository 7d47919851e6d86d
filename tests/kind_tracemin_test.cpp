// kind_tracemin_test.cpp — k-induction engine and trace minimization.
#include <gtest/gtest.h>

#include "bench_circuits/generators.hpp"
#include "bench_circuits/suite.hpp"
#include "mc/kinduction.hpp"
#include "mc/portfolio.hpp"
#include "mc/sim.hpp"
#include "mc/trace_min.hpp"

namespace itpseq {
namespace {

mc::EngineOptions kind_opts() {
  mc::EngineOptions o;
  o.time_limit_sec = 25.0;
  o.max_bound = 80;
  return o;
}

TEST(KInduction, ProvesInductiveProperties) {
  // One-hot ring invariant is 1-inductive.
  aig::Aig g = bench::token_ring(8, false);
  mc::EngineResult r = mc::check_kinduction(g, 0, kind_opts());
  ASSERT_EQ(r.verdict, mc::Verdict::kPass);
  EXPECT_LE(r.k_fp, 2u);
}

TEST(KInduction, FindsCounterexamples) {
  aig::Aig g = bench::token_ring(8, true);
  mc::EngineResult r = mc::check_kinduction(g, 0, kind_opts());
  ASSERT_EQ(r.verdict, mc::Verdict::kFail);
  EXPECT_EQ(r.cex.depth(), 7u);
  EXPECT_TRUE(mc::trace_is_cex(g, r.cex, 0));
}

TEST(KInduction, NonInductiveNeedsUniqueness) {
  // A modulo counter's "never reaches m" is not k-inductive for small k but
  // the unique-states constraints terminate at the recurrence diameter.
  aig::Aig g = bench::counter(3, 6, 7);
  mc::EngineResult r = mc::check_kinduction(g, 0, kind_opts());
  EXPECT_EQ(r.verdict, mc::Verdict::kPass);
}

class KInductionSuiteTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(KInductionSuiteTest, NeverWrong) {
  auto suite = bench::make_academic_suite(20);
  if (GetParam() >= suite.size()) GTEST_SKIP();
  const bench::Instance& inst = suite[GetParam()];
  mc::EngineOptions o = kind_opts();
  o.time_limit_sec = 10.0;
  o.max_bound = 30;
  mc::EngineResult r = mc::check_kinduction(inst.model, 0, o);
  if (r.verdict == mc::Verdict::kUnknown) GTEST_SKIP() << "budget";
  if (inst.expected == bench::Expected::kPass) {
    EXPECT_EQ(r.verdict, mc::Verdict::kPass) << inst.name;
  }
  if (inst.expected == bench::Expected::kFail) {
    EXPECT_EQ(r.verdict, mc::Verdict::kFail) << inst.name;
    EXPECT_TRUE(mc::trace_is_cex(inst.model, r.cex, 0)) << inst.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Suite, KInductionSuiteTest,
                         ::testing::Range(0u, 48u, 2u));

// --- trace minimization -------------------------------------------------------

TEST(TraceMin, PreservesCexAndClearsBits) {
  aig::Aig g = bench::queue(6, /*guarded=*/false);
  mc::Trace t;
  t.initial_latches.assign(g.num_latches(), false);
  // Noisy counterexample: push every cycle, pop bit wiggling irrelevantly
  // (pushes win ties, so pops are ignored).
  for (int i = 0; i < 8; ++i) t.inputs.push_back({true, i % 2 == 0});
  ASSERT_TRUE(mc::trace_is_cex(g, t, 0));

  mc::TraceMinStats stats;
  mc::Trace m = mc::minimize_trace(g, t, 0, &stats);
  EXPECT_TRUE(mc::trace_is_cex(g, m, 0));
  EXPECT_GT(stats.bits_cleared, 0u);
  // All pop bits must be gone.
  for (const auto& f : m.inputs) EXPECT_FALSE(f[1]);
  // Pushes in frames 0..depth-1 are all needed; the final frame's push is
  // irrelevant (the occupancy is already over capacity when it is read).
  for (std::size_t f = 0; f + 1 < m.inputs.size(); ++f)
    EXPECT_TRUE(m.inputs[f][0]) << "frame " << f;
  EXPECT_FALSE(m.inputs.back()[0]);
}

TEST(TraceMin, RejectsNonCex) {
  aig::Aig g = bench::queue(6, false);
  mc::Trace t;
  t.initial_latches.assign(g.num_latches(), false);
  t.inputs.push_back({false, false});
  EXPECT_THROW(mc::minimize_trace(g, t, 0), std::invalid_argument);
}

TEST(TraceMin, EngineCexMinimizes) {
  aig::Aig g = bench::sticky_detector(5, /*resettable=*/true);
  mc::EngineResult r = mc::check_random_sim(g, 0, 64, 64, 7);
  ASSERT_EQ(r.verdict, mc::Verdict::kFail);  // random sim finds noisy cex
  mc::TraceMinStats stats;
  mc::Trace m = mc::minimize_trace(g, r.cex, 0, &stats);
  EXPECT_TRUE(mc::trace_is_cex(g, m, 0));
  // The clr input must be all-zero after minimization.
  for (const auto& f : m.inputs) EXPECT_FALSE(f[2]);
}

}  // namespace
}  // namespace itpseq
