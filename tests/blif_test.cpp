// blif_test.cpp — BLIF reader/writer: cover semantics, latch handling,
// round-trips (BLIF -> AIG -> BLIF and AIGER <-> BLIF), and error paths.
#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "aig/aig.hpp"
#include "aig/aiger_io.hpp"
#include "bench_circuits/suite.hpp"
#include "io/blif.hpp"
#include "mc/engine.hpp"

namespace itpseq {
namespace {

aig::Aig parse(const std::string& text) {
  std::istringstream in(text);
  return io::read_blif(in);
}

/// Evaluate output 0 of g under input values given by name order.
bool eval_out(const aig::Aig& g, const std::vector<bool>& inputs,
              std::size_t out = 0) {
  std::vector<bool> vals(g.num_vars(), false);
  for (std::size_t i = 0; i < g.num_inputs(); ++i)
    vals[aig::lit_var(g.input(i))] = inputs[i];
  return g.evaluate(g.output(out), vals);
}

TEST(Blif, AndCover) {
  aig::Aig g = parse(R"(.model t
.inputs a b
.outputs f
.names a b f
11 1
.end
)");
  EXPECT_EQ(g.num_inputs(), 2u);
  EXPECT_EQ(g.num_outputs(), 1u);
  EXPECT_TRUE(eval_out(g, {true, true}));
  EXPECT_FALSE(eval_out(g, {true, false}));
  EXPECT_FALSE(eval_out(g, {false, true}));
}

TEST(Blif, SumOfProductsAndDontCares) {
  // f = a&~b | c  (with a don't-care column).
  aig::Aig g = parse(R"(.model t
.inputs a b c
.outputs f
.names a b c f
10- 1
--1 1
.end
)");
  for (int m = 0; m < 8; ++m) {
    bool a = m & 1, b = m & 2, c = m & 4;
    EXPECT_EQ(eval_out(g, {a, b, c}), (a && !b) || c) << m;
  }
}

TEST(Blif, OffSetCover) {
  // Rows with output 0 define the complement: f = NOT (a & b).
  aig::Aig g = parse(R"(.model t
.inputs a b
.outputs f
.names a b f
11 0
.end
)");
  EXPECT_FALSE(eval_out(g, {true, true}));
  EXPECT_TRUE(eval_out(g, {false, true}));
}

TEST(Blif, Constants) {
  aig::Aig g = parse(R"(.model t
.inputs a
.outputs zero one
.names zero
.names one
1
.end
)");
  EXPECT_EQ(g.output(0), aig::kFalse);
  EXPECT_EQ(g.output(1), aig::kTrue);
}

TEST(Blif, ChainedCoversAnyOrder) {
  // g defined after its use; the reader must resolve by name.
  aig::Aig a = parse(R"(.model t
.inputs x y
.outputs f
.names g x f
11 1
.names y g
0 1
.end
)");
  // f = (NOT y) AND x.
  EXPECT_TRUE(eval_out(a, {true, false}));
  EXPECT_FALSE(eval_out(a, {true, true}));
  EXPECT_FALSE(eval_out(a, {false, false}));
}

TEST(Blif, LatchesWithInitValues) {
  aig::Aig g = parse(R"(.model t
.inputs d
.outputs f
.latch d q0 0
.latch d q1 1
.latch d q2 2
.latch d q3 re clk 0
.names q0 q1 f
11 1
.end
)");
  ASSERT_EQ(g.num_latches(), 4u);
  EXPECT_EQ(g.latch_init(0), aig::LatchInit::kZero);
  EXPECT_EQ(g.latch_init(1), aig::LatchInit::kOne);
  EXPECT_EQ(g.latch_init(2), aig::LatchInit::kUndef);
  EXPECT_EQ(g.latch_init(3), aig::LatchInit::kZero);  // typed latch
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(g.latch_next(i), g.input(0));
}

TEST(Blif, CommentsAndContinuations) {
  aig::Aig g = parse(".model t  # comment\n"
                     ".inputs a \\\nb\n"
                     ".outputs f\n"
                     ".names a b f  # trailing\n"
                     "11 1\n"
                     ".end\n");
  EXPECT_EQ(g.num_inputs(), 2u);
  EXPECT_TRUE(eval_out(g, {true, true}));
}

TEST(Blif, Errors) {
  EXPECT_THROW(parse(".model a\n.model b\n"), std::runtime_error);
  EXPECT_THROW(parse(".model t\n.subckt foo x=y\n"), std::runtime_error);
  EXPECT_THROW(parse(".model t\n.inputs a\n.outputs f\n.names a f\n1 1\n"
                     ".names a f\n0 1\n"),
               std::runtime_error);  // f defined twice
  EXPECT_THROW(parse(".model t\n.outputs f\n.end\n"), std::runtime_error);
  EXPECT_THROW(parse(".model t\n.inputs a\n.outputs f\n.names a f\n"
                     "11 1\n"),
               std::runtime_error);  // row width mismatch
  EXPECT_THROW(parse(".model t\n.inputs a\n.outputs f\n.names a f\n"
                     "1 1\n0 0\n"),
               std::runtime_error);  // mixed on/off rows
  EXPECT_THROW(parse(".model t\n.outputs f\n.names g f\n1 1\n.names f g\n"
                     "1 1\n.end\n"),
               std::runtime_error);  // combinational cycle
  EXPECT_THROW(io::read_blif_file("/nonexistent/x.blif"), std::runtime_error);
}

/// Structural round-trip: write then re-read, verify by co-simulation of
/// outputs and latch-next functions over random input/latch values.
void expect_roundtrip(const aig::Aig& g, std::uint32_t seed) {
  std::stringstream ss;
  io::write_blif(g, ss);
  aig::Aig h = io::read_blif(ss);
  ASSERT_EQ(h.num_inputs(), g.num_inputs());
  ASSERT_EQ(h.num_latches(), g.num_latches());
  ASSERT_EQ(h.num_outputs(), g.num_outputs());
  for (std::size_t i = 0; i < g.num_latches(); ++i)
    EXPECT_EQ(h.latch_init(i), g.latch_init(i)) << "latch " << i;
  std::mt19937_64 rng(seed);
  for (int round = 0; round < 8; ++round) {
    std::vector<std::uint64_t> vg(g.num_vars(), 0), vh(h.num_vars(), 0);
    for (std::size_t i = 0; i < g.num_inputs(); ++i) {
      std::uint64_t w = rng();
      vg[aig::lit_var(g.input(i))] = w;
      vh[aig::lit_var(h.input(i))] = w;
    }
    for (std::size_t i = 0; i < g.num_latches(); ++i) {
      std::uint64_t w = rng();
      vg[aig::lit_var(g.latch(i))] = w;
      vh[aig::lit_var(h.latch(i))] = w;
    }
    for (std::size_t o = 0; o < g.num_outputs(); ++o)
      ASSERT_EQ(g.evaluate64(g.output(o), vg), h.evaluate64(h.output(o), vh))
          << "output " << o;
    for (std::size_t i = 0; i < g.num_latches(); ++i)
      ASSERT_EQ(g.evaluate64(g.latch_next(i), vg),
                h.evaluate64(h.latch_next(i), vh))
          << "next " << i;
  }
}

TEST(Blif, RoundTripSuiteInstances) {
  unsigned done = 0;
  for (auto& inst : bench::make_academic_suite(24)) {
    expect_roundtrip(inst.model, 100 + done);
    if (++done >= 12) break;
  }
  EXPECT_GE(done, 12u);
}

TEST(Blif, AigerToBlifToAiger) {
  // Cross-format: AIGER binary -> AIG -> BLIF -> AIG -> AIGER ASCII, with
  // the model-checking verdict preserved end to end.
  aig::Aig g = bench::make_academic_suite(16).front().model;
  std::stringstream aig_bin;
  aig::write_aiger_binary(g, aig_bin);
  aig::Aig g2 = aig::read_aiger(aig_bin);
  std::stringstream blif;
  io::write_blif(g2, blif);
  aig::Aig g3 = io::read_blif(blif);
  expect_roundtrip(g3, 7);
  mc::EngineOptions opts;
  opts.time_limit_sec = 10.0;
  mc::EngineResult r1 = mc::check_itpseq(g, 0, opts);
  mc::EngineResult r2 = mc::check_itpseq(g3, 0, opts);
  // The rebuilt AIG is structurally different, so proof shapes (and hence
  // convergence bounds) may differ slightly; the verdict must not.
  EXPECT_EQ(r1.verdict, r2.verdict);
}

TEST(Blif, NamesSurviveRoundTrip) {
  aig::Aig g;
  aig::Lit a = g.add_input("req");
  aig::Lit q = g.add_latch(aig::LatchInit::kZero, "state");
  g.set_latch_next(q, g.make_and(a, aig::lit_not(q)));
  g.add_output(g.make_and(q, a), "bad");
  std::stringstream ss;
  io::write_blif(g, ss);
  std::string text = ss.str();
  EXPECT_NE(text.find("req"), std::string::npos);
  EXPECT_NE(text.find("state"), std::string::npos);
  aig::Aig h = io::read_blif(ss);
  EXPECT_EQ(h.name(aig::lit_var(h.input(0))), "req");
  EXPECT_EQ(h.name(aig::lit_var(h.latch(0))), "state");
}

class BlifRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(BlifRandomTest, RandomCircuitRoundTrip) {
  std::mt19937 rng(GetParam());
  aig::Aig g;
  unsigned ni = 1 + rng() % 4, nl = rng() % 4;
  std::vector<aig::Lit> pool;
  for (unsigned i = 0; i < ni; ++i) pool.push_back(g.add_input());
  std::vector<aig::Lit> latches;
  for (unsigned i = 0; i < nl; ++i) {
    aig::Lit l = g.add_latch(static_cast<aig::LatchInit>(rng() % 3));
    latches.push_back(l);
    pool.push_back(l);
  }
  for (unsigned n = 0; n < 10 + rng() % 30; ++n) {
    aig::Lit a = pool[rng() % pool.size()] ^ (rng() % 2);
    aig::Lit b = pool[rng() % pool.size()] ^ (rng() % 2);
    pool.push_back(rng() % 2 ? g.make_and(a, b) : g.make_xor(a, b));
  }
  for (aig::Lit l : latches)
    g.set_latch_next(l, pool[rng() % pool.size()] ^ (rng() % 2));
  g.add_output(pool[rng() % pool.size()] ^ (rng() % 2));
  g.add_output(pool[rng() % pool.size()] ^ (rng() % 2));
  expect_roundtrip(g, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Random, BlifRandomTest, ::testing::Range(0, 40));

}  // namespace
}  // namespace itpseq
