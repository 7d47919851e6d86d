// crosscheck_test.cpp — cross-validation between independent oracles:
// BDD reachability (no SAT machinery) versus the SAT-based engines, on
// random circuits that do not come from the curated suite families; plus
// cross-engine counterexample-depth agreement and end-to-end witness
// pipelines.
#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "bdd/reach.hpp"
#include "bench_circuits/suite.hpp"
#include "mc/certify.hpp"
#include "mc/engine.hpp"
#include "mc/kinduction.hpp"
#include "mc/portfolio.hpp"
#include "mc/sim.hpp"
#include "mc/trace_min.hpp"
#include "mc/witness.hpp"

namespace itpseq {
namespace {

/// Random sequential circuit: small latch/input counts, random AND/XOR
/// logic, random resets, one random output.
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
  // A random conjunction as the bad signal: rarely constant, often
  // reachable at some depth, sometimes never.
  aig::Lit bad = g.make_and(pool[rng() % pool.size()] ^ (rng() % 2),
                            pool[rng() % pool.size()] ^ (rng() % 2));
  g.add_output(bad);
  return g;
}

class BddVsSatTest : public ::testing::TestWithParam<int> {};

TEST_P(BddVsSatTest, RandomCircuitsAgree) {
  aig::Aig g = random_circuit(7000 + GetParam());
  bdd::ReachBudget rb;
  rb.seconds = 10.0;
  bdd::ReachResult truth = bdd::bdd_check(g, 0, rb);
  if (truth.verdict == bdd::ReachVerdict::kOverflow) GTEST_SKIP();

  mc::EngineOptions opts;
  opts.time_limit_sec = 15.0;
  opts.max_bound = 120;

  struct Named {
    const char* name;
    mc::EngineResult r;
  };
  Named results[] = {
      {"itp", mc::check_itp(g, 0, opts)},
      {"itpseq", mc::check_itpseq(g, 0, opts)},
      {"sitpseq", mc::check_sitpseq(g, 0, opts)},
      {"cba", mc::check_itpseq_cba(g, 0, opts)},
      {"kind", mc::check_kinduction(g, 0, opts)},
  };
  for (const Named& n : results) {
    if (n.r.verdict == mc::Verdict::kUnknown) continue;
    if (truth.verdict == bdd::ReachVerdict::kPass) {
      EXPECT_EQ(n.r.verdict, mc::Verdict::kPass) << n.name;
    } else {
      ASSERT_EQ(n.r.verdict, mc::Verdict::kFail) << n.name;
      EXPECT_TRUE(mc::trace_is_cex(g, n.r.cex, 0)) << n.name;
      EXPECT_EQ(n.r.cex.depth(), truth.depth) << n.name << ": not shallowest";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, BddVsSatTest, ::testing::Range(0, 60));

TEST(CrossCheck, FailDepthsAgreeAcrossEngines) {
  mc::EngineOptions opts;
  opts.time_limit_sec = 15.0;
  for (auto& inst : bench::make_academic_suite(20)) {
    if (inst.expected != bench::Expected::kFail || inst.fail_depth < 0) continue;
    unsigned expected = static_cast<unsigned>(inst.fail_depth);
    mc::EngineResult rs[] = {
        mc::check_itpseq(inst.model, 0, opts),
        mc::check_bmc(inst.model, 0, opts),
        mc::check_kinduction(inst.model, 0, opts),
    };
    for (const auto& r : rs) {
      if (r.verdict == mc::Verdict::kUnknown) continue;
      ASSERT_EQ(r.verdict, mc::Verdict::kFail) << inst.name << " " << r.engine;
      EXPECT_EQ(r.cex.depth(), expected) << inst.name << " " << r.engine;
    }
  }
}

TEST(CrossCheck, WitnessMinimizePipeline) {
  // FAIL -> minimize -> witness round-trip -> replay, over several families.
  mc::EngineOptions opts;
  opts.time_limit_sec = 15.0;
  unsigned exercised = 0;
  for (auto& inst : bench::make_academic_suite(16)) {
    if (inst.expected != bench::Expected::kFail) continue;
    if (inst.model.num_inputs() == 0) continue;
    mc::EngineResult r = mc::check_itpseq(inst.model, 0, opts);
    if (r.verdict != mc::Verdict::kFail) continue;
    mc::Trace small = mc::minimize_trace(inst.model, r.cex, 0);
    EXPECT_TRUE(mc::trace_is_cex(inst.model, small, 0)) << inst.name;
    std::stringstream ss;
    mc::write_witness(small, 0, ss);
    mc::Trace back = mc::read_witness(ss, inst.model.num_latches(),
                                      inst.model.num_inputs());
    EXPECT_TRUE(mc::trace_is_cex(inst.model, back, 0)) << inst.name;
    ++exercised;
    if (exercised >= 8) break;
  }
  EXPECT_GE(exercised, 4u);
}

class AllEnginesRandomTest : public ::testing::TestWithParam<int> {};

// Randomized generated circuits under fixed seeds: every definite-verdict
// engine (including PDR and the threaded portfolio) must agree, every FAIL
// trace must replay in the concrete simulator, and every PASS certificate
// must pass the independent checker.
TEST_P(AllEnginesRandomTest, EnginesAgreeTracesReplayCertificatesCheck) {
  aig::Aig g = random_circuit(9000 + GetParam());
  mc::EngineOptions opts;
  opts.time_limit_sec = 15.0;
  opts.max_bound = 120;

  struct Named {
    const char* name;
    mc::EngineResult r;
  };
  mc::PortfolioOptions popts;
  popts.time_limit_sec = 15.0;
  Named results[] = {
      {"bmc", mc::check_bmc(g, 0, opts)},
      {"itp", mc::check_itp(g, 0, opts)},
      {"itpseq", mc::check_itpseq(g, 0, opts)},
      {"sitpseq", mc::check_sitpseq(g, 0, opts)},
      {"cba", mc::check_itpseq_cba(g, 0, opts)},
      {"kind", mc::check_kinduction(g, 0, opts)},
      {"pdr", mc::check_pdr(g, 0, opts)},
      {"portfolio", mc::check_portfolio(g, 0, popts)},
  };
  const Named* reference = nullptr;
  for (const Named& n : results) {
    if (n.r.verdict == mc::Verdict::kUnknown) continue;
    if (reference == nullptr) reference = &n;
    EXPECT_EQ(n.r.verdict, reference->r.verdict)
        << n.name << " vs " << reference->name;
    if (n.r.verdict == mc::Verdict::kFail) {
      // Every definite-FAIL engine here is contracted to produce a
      // replayable witness — an empty trace is itself a bug.
      ASSERT_FALSE(n.r.cex.inputs.empty()) << n.name << ": FAIL, no witness";
      EXPECT_TRUE(mc::trace_is_cex(g, n.r.cex, 0)) << n.name;
    }
    if (n.r.verdict == mc::Verdict::kPass && n.r.certificate.has_value()) {
      mc::CertifyResult c = mc::check_certificate(g, 0, *n.r.certificate);
      EXPECT_TRUE(c.ok) << n.name << ": " << c.error;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, AllEnginesRandomTest, ::testing::Range(0, 25));

TEST(CrossCheck, PortfolioAgreesWithBddOnRandomCircuits) {
  for (int seed = 100; seed < 115; ++seed) {
    aig::Aig g = random_circuit(seed);
    bdd::ReachResult truth = bdd::bdd_check(g, 0);
    if (truth.verdict == bdd::ReachVerdict::kOverflow) continue;
    mc::PortfolioOptions popts;
    popts.time_limit_sec = 20.0;
    mc::EngineResult r = mc::check_portfolio(g, 0, popts);
    if (r.verdict == mc::Verdict::kUnknown) continue;
    EXPECT_EQ(r.verdict == mc::Verdict::kPass,
              truth.verdict == bdd::ReachVerdict::kPass)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace itpseq
