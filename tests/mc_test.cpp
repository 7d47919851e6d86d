// mc_test.cpp — integration tests for the model-checking engines.
//
// Every engine (ITP, ITPSEQ, SITPSEQ, ITPSEQCBA, BMC) is run across the
// academic benchmark suite and must agree with the analytically expected
// verdict; counterexamples are replayed on the concrete model; failure
// depths must be the shallowest ones.
#include <gtest/gtest.h>

#include <functional>

#include "bench_circuits/generators.hpp"
#include "bench_circuits/suite.hpp"
#include "mc/engine.hpp"
#include "mc/sim.hpp"

namespace itpseq::mc {
namespace {

using bench::Expected;
using bench::Instance;

void expect_result(const Instance& inst, const EngineResult& r) {
  if (r.verdict == Verdict::kUnknown) {
    // Budget exhaustion is acceptable, never a wrong verdict.
    return;
  }
  if (inst.expected == Expected::kPass) {
    EXPECT_EQ(r.verdict, Verdict::kPass) << inst.name << " via " << r.engine;
  } else if (inst.expected == Expected::kFail) {
    ASSERT_EQ(r.verdict, Verdict::kFail) << inst.name << " via " << r.engine;
    EXPECT_TRUE(trace_is_cex(inst.model, r.cex, 0))
        << inst.name << " via " << r.engine << ": spurious counterexample";
    if (inst.fail_depth >= 0) {
      EXPECT_EQ(r.cex.depth(), static_cast<unsigned>(inst.fail_depth))
          << inst.name << " via " << r.engine << ": not the shallowest cex";
    }
  }
}

EngineOptions quick_opts() {
  EngineOptions o;
  o.time_limit_sec = 25.0;
  o.max_bound = 80;
  return o;
}

class EngineSuiteTest
    : public ::testing::TestWithParam<std::tuple<int, unsigned>> {};

TEST_P(EngineSuiteTest, AgreesWithExpectedVerdict) {
  auto [engine_id, index] = GetParam();
  auto suite = bench::make_academic_suite(34);
  if (index >= suite.size()) GTEST_SKIP() << "index beyond suite";
  const Instance& inst = suite[index];
  EngineOptions opts = quick_opts();
  EngineResult r;
  switch (engine_id) {
    case 0:
      r = check_itp(inst.model, 0, opts);
      break;
    case 1:
      r = check_itpseq(inst.model, 0, opts);
      break;
    case 2:
      r = check_sitpseq(inst.model, 0, opts);
      break;
    case 3:
      r = check_itpseq_cba(inst.model, 0, opts);
      break;
    default:
      r = check_bmc(inst.model, 0, opts);
      break;
  }
  if (engine_id == 4 && inst.expected == Expected::kPass)
    EXPECT_NE(r.verdict, Verdict::kFail) << "BMC cannot fail a safe model";
  else
    expect_result(inst, r);
}

std::string engine_param_name(
    const ::testing::TestParamInfo<std::tuple<int, unsigned>>& info) {
  static const char* const names[] = {"itp", "itpseq", "sitpseq", "cba", "bmc"};
  return std::string(names[std::get<0>(info.param)]) + "_" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, EngineSuiteTest,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Range(0u, 64u)),
    engine_param_name);

// --- targeted engine behaviours ---------------------------------------------

/// Every FAIL trace of the five paper engines and BMC starts in the reset
/// state: a latch with a defined reset has its reset value in the trace,
/// also when the engine left it untied (outside the cone of influence), so
/// that no clause constrains its frame-0 variable.  Each FAIL design of the
/// suite gets one more latch outside the cone, reset to 1 and toggling.
TEST(Engines, FailTracesStartInTheResetState) {
  using Check = EngineResult (*)(const aig::Aig&, std::size_t,
                                 const EngineOptions&);
  const Check checks[] = {
      check_itp,
      check_itpseq,
      [](const aig::Aig& m, std::size_t p, const EngineOptions& o) {
        return check_sitpseq(m, p, o);
      },
      [](const aig::Aig& m, std::size_t p, const EngineOptions& o) {
        return check_itpseq_cba(m, p, o);
      },
      check_itpseq_pba,
      check_bmc};
  unsigned traces = 0;
  for (const Instance& inst : bench::make_suite()) {
    if (inst.expected != Expected::kFail || inst.fail_depth > 32) continue;
    aig::Aig model = inst.model;
    const aig::Lit spare = model.add_latch(aig::LatchInit::kOne, "spare");
    model.set_latch_next(spare, aig::lit_not(spare));
    ASSERT_FALSE(model.latch_coi(0).back());
    EngineOptions opts;
    opts.max_bound = inst.fail_depth >= 0 ? inst.fail_depth : 32;
    for (Check check : checks) {
      const EngineResult r = check(model, 0, opts);
      SCOPED_TRACE(inst.name + " via " + r.engine);
      ASSERT_EQ(r.verdict, Verdict::kFail);
      EXPECT_TRUE(trace_is_cex(model, r.cex, 0));
      ++traces;
      for (std::size_t i = 0; i < model.num_latches(); ++i) {
        const aig::LatchInit init = model.latch_init(i);
        if (init == aig::LatchInit::kUndef) continue;
        EXPECT_EQ(r.cex.initial_latches[i], init == aig::LatchInit::kOne)
            << "latch " << i;
      }
    }
  }
  EXPECT_EQ(traces, 6u * 45u);  // 45 FAIL designs fail by depth 32
}

TEST(Engines, Depth0Failure) {
  // Latch initialized to 1 with bad = latch: fails at depth 0.
  aig::Aig g;
  aig::Lit l = g.add_latch(aig::LatchInit::kOne);
  g.set_latch_next(l, l);
  g.add_output(l);
  for (auto check : {check_itp, check_itpseq}) {
    EngineResult r = check(g, 0, quick_opts());
    EXPECT_EQ(r.verdict, Verdict::kFail);
    EXPECT_EQ(r.k_fp, 0u);
    EXPECT_TRUE(trace_is_cex(g, r.cex, 0));
  }
}

TEST(Engines, ConstantFalseProperty) {
  aig::Aig g;
  aig::Lit l = g.add_latch();
  g.set_latch_next(l, l);
  g.add_output(aig::kFalse);
  EXPECT_EQ(check_itpseq(g, 0, quick_opts()).verdict, Verdict::kPass);
}

TEST(Engines, ConstantTrueProperty) {
  aig::Aig g;
  aig::Lit l = g.add_latch();
  g.set_latch_next(l, l);
  g.add_output(aig::kTrue);
  EngineResult r = check_itpseq(g, 0, quick_opts());
  EXPECT_EQ(r.verdict, Verdict::kFail);
  EXPECT_EQ(r.k_fp, 0u);
}

TEST(Engines, MissingPropertyIndexPasses) {
  aig::Aig g;
  aig::Lit l = g.add_latch();
  g.set_latch_next(l, l);
  EXPECT_EQ(check_itpseq(g, 7, quick_opts()).verdict, Verdict::kPass);
}

TEST(Engines, TimeBudgetRespected) {
  // A large instance with a microscopic budget must come back quickly —
  // either UNKNOWN or a (correct) early verdict, never running long.
  aig::Aig g = bench::industrial(56, 14, 0, 10, 501);
  EngineOptions opts;
  opts.time_limit_sec = 0.02;
  auto t0 = std::chrono::steady_clock::now();
  EngineResult r = check_itpseq(g, 0, opts);
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_NE(r.verdict, Verdict::kFail);
  EXPECT_LT(elapsed, 10.0);
}

TEST(Engines, MaxBoundRespected) {
  // ring32 reach: cex at depth 31, but max_bound 5 forbids finding it.
  aig::Aig g = bench::token_ring(32, true);
  EngineOptions opts = quick_opts();
  opts.max_bound = 5;
  EngineResult r = check_itpseq(g, 0, opts);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
}

TEST(Engines, SerialAlphaOneIsFullySerial) {
  EngineOptions opts = quick_opts();
  opts.serial_alpha = 1.0;
  aig::Aig g = bench::token_ring(8, false);
  EngineResult r = check_sitpseq(g, 0, opts);
  EXPECT_EQ(r.verdict, Verdict::kPass);
}

TEST(Engines, ExactSchemeAlsoSound) {
  EngineOptions opts = quick_opts();
  opts.scheme = cnf::TargetScheme::kExact;
  for (bool fail : {false, true}) {
    aig::Aig g = bench::token_ring(6, fail);
    EngineResult r = check_itpseq(g, 0, opts);
    EXPECT_EQ(r.verdict, fail ? Verdict::kFail : Verdict::kPass);
    if (fail) {
      EXPECT_TRUE(trace_is_cex(g, r.cex, 0));
    }
  }
}

TEST(Engines, CbaRefinesOnlyRelevantLatches) {
  // Pipeline noise around a small counter: CBA must converge with far fewer
  // visible latches than the full design.
  aig::Aig g = bench::industrial(16, 4, 0, 6, 55);
  EngineOptions opts = quick_opts();
  EngineResult r = check_itpseq_cba(g, 0, opts);
  ASSERT_EQ(r.verdict, Verdict::kPass);
  EXPECT_LT(r.stats.cba_visible_latches, g.num_latches() / 2)
      << "abstraction refined nearly everything";
}

TEST(Engines, CbaFindsDeepCex) {
  aig::Aig g = bench::industrial(16, 4, 1, 6, 56);
  EngineResult r = check_itpseq_cba(g, 0, quick_opts());
  ASSERT_EQ(r.verdict, Verdict::kFail);
  EXPECT_TRUE(trace_is_cex(g, r.cex, 0));
  EXPECT_EQ(r.cex.depth(), 6u);
}

TEST(Engines, UndefResetLatchHandled) {
  // Latch with X reset feeding the property: engines must treat reset as
  // nondeterministic.
  aig::Aig g;
  aig::Lit l = g.add_latch(aig::LatchInit::kUndef);
  aig::Lit m = g.add_latch(aig::LatchInit::kZero);
  g.set_latch_next(l, l);
  g.set_latch_next(m, l);
  g.add_output(m);  // reachable iff l starts at 1 -> FAIL at depth 1
  using CheckFn = std::function<EngineResult()>;
  for (const CheckFn& check :
       {CheckFn([&] { return check_itp(g, 0, quick_opts()); }),
        CheckFn([&] { return check_itpseq(g, 0, quick_opts()); }),
        CheckFn([&] { return check_sitpseq(g, 0, quick_opts()); })}) {
    EngineResult r = check();
    ASSERT_EQ(r.verdict, Verdict::kFail);
    EXPECT_TRUE(trace_is_cex(g, r.cex, 0));
  }
}

TEST(Engines, PassVerdictsHaveFixpointDepths) {
  aig::Aig g = bench::token_ring(8, false);
  EngineResult r = check_itpseq(g, 0, quick_opts());
  ASSERT_EQ(r.verdict, Verdict::kPass);
  EXPECT_GE(r.k_fp, 1u);
  EXPECT_GE(r.j_fp, 1u);
  EXPECT_LE(r.j_fp, r.k_fp);
}

TEST(Engines, CompactionPreservesVerdicts) {
  // Force aggressive state-set garbage collection every bound; results
  // must be identical to the default.
  EngineOptions opts = quick_opts();
  opts.compact_threshold = 1;
  for (bool fail : {false, true}) {
    aig::Aig g = bench::token_ring(10, fail);
    EngineResult seq = check_itpseq(g, 0, opts);
    EngineResult itp = check_itp(g, 0, opts);
    EXPECT_EQ(seq.verdict, fail ? Verdict::kFail : Verdict::kPass);
    EXPECT_EQ(itp.verdict, fail ? Verdict::kFail : Verdict::kPass);
  }
  aig::Aig cnt = bench::counter(4, 11, 13);
  EngineResult r = check_sitpseq(cnt, 0, opts);
  EXPECT_EQ(r.verdict, Verdict::kPass);
}

TEST(Engines, StatsPopulated) {
  aig::Aig g = bench::counter(4, 11, 13);
  EngineResult r = check_itpseq(g, 0, quick_opts());
  ASSERT_EQ(r.verdict, Verdict::kPass);
  EXPECT_GT(r.stats.sat_calls, 0u);
  EXPECT_GT(r.stats.proof_clauses, 0u);
}

// --- simulator --------------------------------------------------------------

TEST(Simulator, StepAndBad) {
  aig::Aig g = bench::counter(3, 8, 5);
  Simulator sim(g, 0);
  std::vector<bool> s = sim.reset_state();
  std::vector<bool> no_in;
  for (int t = 0; t < 5; ++t) {
    EXPECT_FALSE(sim.bad(s, no_in)) << t;
    s = sim.step(s, no_in);
  }
  EXPECT_TRUE(sim.bad(s, no_in));
}

TEST(Simulator, TraceRun) {
  aig::Aig g = bench::queue(4, /*guarded=*/false);
  Trace t;
  t.initial_latches.assign(g.num_latches(), false);
  // push every cycle for 5 cycles -> count reaches 5 = capacity+1 -> bad.
  for (int i = 0; i < 6; ++i) t.inputs.push_back({true, false});
  SimFrames f = Simulator(g, 0).run(t);
  EXPECT_FALSE(f.bad.front());
  EXPECT_TRUE(f.bad[5]);
}

}  // namespace
}  // namespace itpseq::mc
