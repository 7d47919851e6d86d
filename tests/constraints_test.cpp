// constraints_test.cpp — AIGER 1.9 invariant constraints through the whole
// stack: I/O round-trip, simulation, BDD reachability, every SAT engine and
// the witness format.
#include <gtest/gtest.h>

#include <sstream>

#include "aig/aiger_io.hpp"
#include "bdd/reach.hpp"
#include "bench_circuits/generators.hpp"
#include "mc/certify.hpp"
#include "mc/engine.hpp"
#include "mc/portfolio.hpp"
#include "mc/sim.hpp"
#include "mc/witness.hpp"

namespace itpseq {
namespace {

/// Unguarded queue whose overflow is forbidden by a constraint: without
/// constraint support the property FAILs at capacity+1; with it, PASS.
aig::Aig blocked_queue(unsigned capacity) {
  aig::Aig g = bench::queue(capacity, /*guarded=*/false);
  // Constraint: the push input is never asserted.
  g.add_constraint(aig::lit_not(g.input(0)));
  return g;
}

/// Counter whose bad value is excluded by a constraint on the state.
aig::Aig blocked_counter() {
  aig::Aig g = bench::counter(4, 11, 7, /*with_enable=*/true);
  // bad = (count == 7); constrain count != 7 at every frame.
  std::vector<aig::Lit> bits;
  for (std::size_t i = 0; i < g.num_latches(); ++i) bits.push_back(g.latch(i));
  g.add_constraint(aig::lit_not(bench::equals_const(g, bits, 7)));
  return g;
}

TEST(Constraints, AigerRoundTrip) {
  aig::Aig g = blocked_queue(4);
  ASSERT_EQ(g.num_constraints(), 1u);
  std::stringstream sa, sb;
  aig::write_aiger_ascii(g, sa);
  aig::write_aiger_binary(g, sb);
  aig::Aig ha = aig::read_aiger(sa);
  aig::Aig hb = aig::read_aiger(sb);
  EXPECT_EQ(ha.num_constraints(), 1u);
  EXPECT_EQ(hb.num_constraints(), 1u);
}

TEST(Constraints, SimulatorRejectsViolatingTraces) {
  aig::Aig g = blocked_queue(4);
  mc::Trace t;
  t.initial_latches.assign(g.num_latches(), false);
  for (int i = 0; i < 6; ++i) t.inputs.push_back({true, false});  // pushes
  // The trace reaches the bad state but violates the constraint.
  EXPECT_FALSE(mc::trace_is_cex(g, t, 0));
  mc::SimFrames f = mc::Simulator(g, 0).run(t);
  EXPECT_TRUE(f.bad.back());
  EXPECT_FALSE(f.constraints_ok.front());
}

TEST(Constraints, BddReachRespectsConstraints) {
  {
    bdd::ReachResult r = bdd::bdd_check(blocked_queue(4));
    EXPECT_EQ(r.verdict, bdd::ReachVerdict::kPass);
  }
  {
    bdd::ReachResult r = bdd::bdd_check(blocked_counter());
    EXPECT_EQ(r.verdict, bdd::ReachVerdict::kPass);
  }
  {
    // Sanity: without the constraint the same circuits fail.
    bdd::ReachResult r = bdd::bdd_check(bench::queue(4, false));
    EXPECT_EQ(r.verdict, bdd::ReachVerdict::kFail);
  }
}

class ConstraintEngineTest : public ::testing::TestWithParam<int> {};

TEST_P(ConstraintEngineTest, AllEnginesPassBlockedDesigns) {
  mc::EngineOptions opts;
  opts.time_limit_sec = 20.0;
  auto run = [&](const aig::Aig& g) {
    switch (GetParam()) {
      case 0:
        return mc::check_itp(g, 0, opts);
      case 1:
        return mc::check_itpseq(g, 0, opts);
      case 2:
        return mc::check_sitpseq(g, 0, opts);
      default:
        return mc::check_itpseq_cba(g, 0, opts);
    }
  };
  EXPECT_EQ(run(blocked_queue(4)).verdict, mc::Verdict::kPass);
  EXPECT_EQ(run(blocked_counter()).verdict, mc::Verdict::kPass);
}

INSTANTIATE_TEST_SUITE_P(Engines, ConstraintEngineTest, ::testing::Range(0, 4));

TEST(Constraints, BmcCannotFailBlockedDesign) {
  mc::EngineOptions opts;
  opts.time_limit_sec = 5.0;
  opts.max_bound = 12;
  EXPECT_NE(mc::check_bmc(blocked_queue(4), 0, opts).verdict,
            mc::Verdict::kFail);
}

TEST(Constraints, CbaRefinesThroughTheConstraint) {
  // input i; latch u (reset 0, next u); latch v (reset 0, next i); bad = v;
  // constraint u.  The reset state violates the constraint, so the design
  // has no trace at all.  CBA starts from v, the property's support, with u
  // free: its abstract trace is spurious only through the constraint, and
  // u, on the constraint's cone, is the latch refinement must pick.
  aig::Aig g;
  const aig::Lit i = g.add_input("i");
  const aig::Lit u = g.add_latch(aig::LatchInit::kZero, "u");
  const aig::Lit v = g.add_latch(aig::LatchInit::kZero, "v");
  g.set_latch_next(u, u);
  g.set_latch_next(v, i);
  g.add_output(v);
  g.add_constraint(u);
  EXPECT_EQ(bdd::bdd_check(g).verdict, bdd::ReachVerdict::kPass);
  mc::EngineOptions opts;
  opts.time_limit_sec = 20.0;
  const mc::EngineResult r = mc::check_itpseq_cba(g, 0, opts);
  EXPECT_EQ(r.verdict, mc::Verdict::kPass) << r.error.message;
  EXPECT_EQ(r.k_fp, 1u);
  EXPECT_EQ(r.stats.cba_refinements, 1u);
}

TEST(Constraints, RandomSimCannotFailBlockedDesign) {
  EXPECT_NE(mc::check_random_sim(blocked_queue(4), 0, 64, 64).verdict,
            mc::Verdict::kFail);
}

TEST(Constraints, ConstrainedFailStillFound) {
  // Constraint that does not block the failure: pop never asserted; the
  // unguarded queue still overflows via pushes.
  aig::Aig g = bench::queue(4, false);
  g.add_constraint(aig::lit_not(g.input(1)));
  mc::EngineOptions opts;
  opts.time_limit_sec = 20.0;
  mc::EngineResult r = mc::check_itpseq(g, 0, opts);
  ASSERT_EQ(r.verdict, mc::Verdict::kFail);
  EXPECT_TRUE(mc::trace_is_cex(g, r.cex, 0));
  EXPECT_EQ(r.cex.depth(), 5u);
}

TEST(Constraints, NewEnginesRespectConstraints) {
  // PBA and the interpolation-system option must PASS the constraint-blocked designs and keep failing the
  // genuinely broken one.
  aig::Aig pass1 = blocked_queue(4);
  aig::Aig pass2 = blocked_counter();
  mc::EngineOptions opts;
  opts.time_limit_sec = 15.0;
  for (auto* g : {&pass1, &pass2}) {
    EXPECT_EQ(mc::check_itpseq_pba(*g, 0, opts).verdict, mc::Verdict::kPass);
    mc::EngineOptions v = opts;
    v.itp_system = itp::System::kPudlak;
    EXPECT_EQ(mc::check_itpseq(*g, 0, v).verdict, mc::Verdict::kPass);
  }
  // Constraint present but not blocking: still FAIL at the right depth.
  aig::Aig open = bench::queue(4, /*guarded=*/false);
  open.add_constraint(aig::lit_not(open.input(1)));  // never pop
  mc::EngineResult r = mc::check_itpseq_pba(open, 0, opts);
  ASSERT_EQ(r.verdict, mc::Verdict::kFail);
  EXPECT_EQ(r.cex.depth(), 5u);
  EXPECT_TRUE(mc::trace_is_cex(open, r.cex, 0));
}

TEST(Constraints, CertificatesOfConstrainedDesignsCheck) {
  // PASS certificates must remain valid under constrained-trace semantics
  // (the checker asserts constraints in both frames).
  aig::Aig g = blocked_counter();
  mc::EngineOptions opts;
  opts.time_limit_sec = 15.0;
  for (int e = 0; e < 3; ++e) {
    mc::EngineResult r = e == 0   ? mc::check_itp(g, 0, opts)
                         : e == 1 ? mc::check_itpseq(g, 0, opts)
                                  : mc::check_itpseq_pba(g, 0, opts);
    ASSERT_EQ(r.verdict, mc::Verdict::kPass) << e;
    ASSERT_TRUE(r.certificate.has_value()) << e;
    mc::CertifyResult c = mc::check_certificate(g, 0, *r.certificate);
    EXPECT_TRUE(c.ok) << e << ": " << c.error;
  }
}

TEST(Constraints, ContradictoryConstraintMakesEverythingPass) {
  aig::Aig g = bench::queue(4, false);
  g.add_constraint(aig::kFalse);
  mc::EngineOptions opts;
  opts.time_limit_sec = 10.0;
  EXPECT_EQ(mc::check_itpseq(g, 0, opts).verdict, mc::Verdict::kPass);
}

// --- witness format -----------------------------------------------------------

TEST(Witness, RoundTrip) {
  mc::Trace t;
  t.initial_latches = {true, false, true};
  t.inputs = {{false, true}, {true, true}, {false, false}};
  std::stringstream ss;
  mc::write_witness(t, 0, ss);
  mc::Trace u = mc::read_witness(ss, 3, 2);
  EXPECT_EQ(u.initial_latches, t.initial_latches);
  EXPECT_EQ(u.inputs, t.inputs);
}

TEST(Witness, EngineCexReplaysThroughWitnessFormat) {
  aig::Aig g = bench::token_ring(6, true);
  mc::EngineOptions opts;
  opts.time_limit_sec = 10.0;
  mc::EngineResult r = mc::check_itpseq(g, 0, opts);
  ASSERT_EQ(r.verdict, mc::Verdict::kFail);
  std::stringstream ss;
  mc::write_witness(r.cex, 0, ss);
  mc::Trace u = mc::read_witness(ss, g.num_latches(), g.num_inputs());
  EXPECT_TRUE(mc::trace_is_cex(g, u, 0));
}

TEST(Witness, RejectsMalformed) {
  std::stringstream s1("0\nb0\n00\n.\n");
  EXPECT_THROW(mc::read_witness(s1, 2, 1), std::runtime_error);
  std::stringstream s2("1\nb0\n000\n");  // wrong width
  EXPECT_THROW(mc::read_witness(s2, 2, 1), std::runtime_error);
  std::stringstream s3("1\nb0\n00\n1\n");  // missing terminator
  EXPECT_THROW(mc::read_witness(s3, 2, 1), std::runtime_error);
}

}  // namespace
}  // namespace itpseq
