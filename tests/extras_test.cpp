// extras_test.cpp — tests for the auxiliary library pieces: the validation
// API, DIMACS I/O, AIG compaction, random simulation and the portfolio.
#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "aig/compact.hpp"
#include "bench_circuits/generators.hpp"
#include "itp/interpolate.hpp"
#include "itp/validate.hpp"
#include "mc/portfolio.hpp"
#include "mc/sim.hpp"
#include "sat/dimacs.hpp"
#include "sat/solver.hpp"

namespace itpseq {
namespace {

// --- itp::validate -----------------------------------------------------------

itp::LabeledCnf chain_cnf(unsigned n) {
  // x1, x_i -> x_{i+1} per partition, ~x_n.
  itp::LabeledCnf f;
  f.num_vars = n;
  f.clauses.push_back({{sat::mk_lit(0)}, 1});
  for (unsigned i = 0; i + 1 < n; ++i)
    f.clauses.push_back({{sat::mk_lit(i, true), sat::mk_lit(i + 1)}, i + 2});
  f.clauses.push_back({{sat::mk_lit(n - 1, true)}, n + 1});
  return f;
}

TEST(Validate, AcceptsRealInterpolants) {
  itp::LabeledCnf f = chain_cnf(5);
  sat::Solver s;
  s.enable_proof();
  for (unsigned i = 0; i < f.num_vars; ++i) s.new_var();
  for (auto& [lits, label] : f.clauses) s.add_clause(lits, label);
  ASSERT_EQ(s.solve(), sat::Status::kUnsat);

  aig::Aig g;
  std::vector<sat::Var> ids;
  for (unsigned v = 0; v < f.num_vars; ++v) {
    g.add_input();
    ids.push_back(v);
  }
  itp::InterpolantExtractor ex(s.proof());
  std::vector<aig::Lit> seq =
      ex.extract_sequence(g, 1, 5, [&](std::uint32_t, sat::Var v) {
        return g.input(v);
      });
  auto r = itp::validate_sequence(f, g, seq, ids);
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(Validate, RejectsBogusInterpolant) {
  itp::LabeledCnf f = chain_cnf(4);
  aig::Aig g;
  std::vector<sat::Var> ids;
  for (unsigned v = 0; v < f.num_vars; ++v) {
    g.add_input();
    ids.push_back(v);
  }
  // NOT x2 is not implied by A at cut 2 (A forces x1 and x1->x2).
  auto r = itp::validate_interpolant(f, 2, g, aig::lit_not(g.input(1)), ids);
  EXPECT_FALSE(r.ok);
  // x1 at cut 3 violates the support condition (x1 is A-local there).
  auto r2 = itp::validate_interpolant(f, 3, g, g.input(0), ids);
  EXPECT_FALSE(r2.ok);
  EXPECT_NE(r2.error.find("not shared"), std::string::npos);
}

TEST(Validate, RejectsNonBlockingInterpolant) {
  itp::LabeledCnf f = chain_cnf(4);
  aig::Aig g;
  std::vector<sat::Var> ids;
  for (unsigned v = 0; v < f.num_vars; ++v) {
    g.add_input();
    ids.push_back(v);
  }
  // TRUE satisfies A => I but not I AND B unsat.
  auto r = itp::validate_interpolant(f, 2, g, aig::kTrue, ids);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("consistent with B"), std::string::npos);
}

// --- DIMACS ------------------------------------------------------------------

TEST(Dimacs, RoundTrip) {
  sat::DimacsProblem p;
  p.num_vars = 4;
  p.clauses = {{sat::mk_lit(0), sat::mk_lit(1, true)},
               {sat::mk_lit(2)},
               {sat::mk_lit(3, true), sat::mk_lit(0, true)}};
  p.labels = {1, 1, 2};
  std::stringstream ss;
  sat::write_dimacs(p, ss);
  sat::DimacsProblem q = sat::read_dimacs(ss);
  EXPECT_EQ(q.num_vars, 4u);
  ASSERT_EQ(q.clauses.size(), 3u);
  EXPECT_EQ(q.clauses[0], p.clauses[0]);
  EXPECT_EQ(q.labels, p.labels);
}

TEST(Dimacs, ParsesStandardFormat) {
  std::stringstream ss("c a comment\np cnf 3 2\n1 -2 0\n2 3 0\n");
  sat::DimacsProblem p = sat::read_dimacs(ss);
  EXPECT_EQ(p.num_vars, 3u);
  ASSERT_EQ(p.clauses.size(), 2u);
  sat::Solver s;
  EXPECT_TRUE(sat::load_dimacs(p, s));
  EXPECT_EQ(s.solve(), sat::Status::kSat);
  EXPECT_TRUE(s.verify_model());
}

TEST(Dimacs, RejectsMalformed) {
  std::stringstream s1("1 2 0\n");
  EXPECT_THROW(sat::read_dimacs(s1), std::runtime_error);
  std::stringstream s2("p cnf 2 1\n5 0\n");
  EXPECT_THROW(sat::read_dimacs(s2), std::runtime_error);
  std::stringstream s3("p dnf 2 1\n1 0\n");
  EXPECT_THROW(sat::read_dimacs(s3), std::runtime_error);
}

TEST(Dimacs, SolvesUnsatWithProof) {
  std::stringstream ss(
      "p cnf 2 4\nc part 1\n1 0\n-1 2 0\nc part 2\n-2 0\n1 2 0\n");
  sat::DimacsProblem p = sat::read_dimacs(ss);
  sat::Solver s;
  s.enable_proof();
  sat::load_dimacs(p, s);
  EXPECT_EQ(s.solve(), sat::Status::kUnsat);
}

// --- aig::compact ------------------------------------------------------------

TEST(Compact, DropsDeadNodes) {
  aig::Aig g;
  aig::Lit a = g.add_input();
  aig::Lit b = g.add_input();
  aig::Lit keep = g.make_and(a, b);
  // Dead logic (distinct nodes, not strash-folded):
  aig::Lit acc = g.make_xor(a, b);
  for (int i = 0; i < 10; ++i) acc = g.make_and(acc, g.add_input());
  ASSERT_GT(g.num_ands(), 5u);
  aig::CompactResult c = aig::compact(g, {keep});
  EXPECT_EQ(c.graph.num_ands(), 1u);
  ASSERT_EQ(c.roots.size(), 1u);
  // Semantics preserved.
  std::vector<bool> vg(g.num_vars()), vc(c.graph.num_vars());
  for (int m = 0; m < 4; ++m) {
    vg[aig::lit_var(a)] = vc[aig::lit_var(c.graph.input(0))] = m & 1;
    vg[aig::lit_var(b)] = vc[aig::lit_var(c.graph.input(1))] = (m & 2) != 0;
    EXPECT_EQ(g.evaluate(keep, vg), c.graph.evaluate(c.roots[0], vc));
  }
}

TEST(Compact, KeepsLatchLogicOnRequest) {
  aig::Aig g = bench::counter(4, 11, 7);
  aig::CompactResult c = aig::compact(g, {g.output(0)}, /*keep_latch_logic=*/true);
  EXPECT_EQ(c.graph.num_latches(), g.num_latches());
  // Next-state functions present and equivalent under random patterns.
  std::mt19937_64 rng(3);
  for (int t = 0; t < 16; ++t) {
    std::vector<std::uint64_t> vg(g.num_vars()), vc(c.graph.num_vars());
    for (std::size_t i = 0; i < g.num_latches(); ++i) {
      std::uint64_t r = rng();
      vg[aig::lit_var(g.latch(i))] = r;
      vc[aig::lit_var(c.graph.latch(i))] = r;
    }
    for (std::size_t i = 0; i < g.num_latches(); ++i)
      EXPECT_EQ(g.evaluate64(g.latch_next(i), vg),
                c.graph.evaluate64(c.graph.latch_next(i), vc));
  }
}

TEST(Compact, NegatedRootsPreserved) {
  aig::Aig g;
  aig::Lit a = g.add_input();
  aig::Lit b = g.add_input();
  aig::Lit x = g.make_or(a, b);
  aig::CompactResult c = aig::compact(g, {aig::lit_not(x)});
  std::vector<bool> vc(c.graph.num_vars(), false);
  EXPECT_TRUE(c.graph.evaluate(c.roots[0], vc));  // !(0|0) = 1
}

// --- random simulation --------------------------------------------------------

TEST(RandomSim, FindsShallowFailures) {
  aig::Aig g = bench::queue(4, /*guarded=*/false);
  mc::EngineResult r = mc::check_random_sim(g, 0, 32, 16);
  ASSERT_EQ(r.verdict, mc::Verdict::kFail);
  EXPECT_TRUE(mc::trace_is_cex(g, r.cex, 0));
}

TEST(RandomSim, NeverFailsSafeDesign) {
  aig::Aig g = bench::token_ring(8, false);
  mc::EngineResult r = mc::check_random_sim(g, 0, 64, 32);
  EXPECT_EQ(r.verdict, mc::Verdict::kUnknown);
}

TEST(RandomSim, HandlesUndefResets) {
  aig::Aig g;
  aig::Lit l = g.add_latch(aig::LatchInit::kUndef);
  g.set_latch_next(l, l);
  g.add_output(l);
  mc::EngineResult r = mc::check_random_sim(g, 0, 4, 8);
  ASSERT_EQ(r.verdict, mc::Verdict::kFail);
  EXPECT_TRUE(mc::trace_is_cex(g, r.cex, 0));
}

TEST(RandomSim, DeterministicPerSeed) {
  aig::Aig g = bench::sticky_detector(2, false);
  mc::EngineResult a = mc::check_random_sim(g, 0, 32, 8, 42);
  mc::EngineResult b = mc::check_random_sim(g, 0, 32, 8, 42);
  ASSERT_EQ(a.verdict, b.verdict);
  if (a.verdict == mc::Verdict::kFail) {
    EXPECT_EQ(a.k_fp, b.k_fp);
  }
}

// --- portfolio -----------------------------------------------------------------

TEST(Portfolio, SolvesPassAndFail) {
  mc::PortfolioOptions opts;
  opts.time_limit_sec = 30.0;
  {
    aig::Aig g = bench::token_ring(8, false);
    mc::EngineResult r = mc::check_portfolio(g, 0, opts);
    EXPECT_EQ(r.verdict, mc::Verdict::kPass);
    EXPECT_NE(r.engine.find("portfolio/"), std::string::npos);
  }
  {
    aig::Aig g = bench::queue(8, false);
    mc::EngineResult r = mc::check_portfolio(g, 0, opts);
    ASSERT_EQ(r.verdict, mc::Verdict::kFail);
    EXPECT_TRUE(mc::trace_is_cex(g, r.cex, 0));
  }
}

TEST(Portfolio, RespectsBudget) {
  mc::PortfolioOptions opts;
  opts.time_limit_sec = 0.2;
  opts.members = {mc::PortfolioMember::kItpSeq};
  opts.engine_defaults.max_bound = 1000;
  aig::Aig g = bench::gray_counter(12);  // too deep for 0.2s
  auto t0 = std::chrono::steady_clock::now();
  mc::EngineResult r = mc::check_portfolio(g, 0, opts);
  double el =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(el, 15.0);
  EXPECT_NE(r.verdict, mc::Verdict::kFail);
}

TEST(Portfolio, CustomMemberList) {
  mc::PortfolioOptions opts;
  opts.time_limit_sec = 20.0;
  opts.members = {mc::PortfolioMember::kBmc, mc::PortfolioMember::kKInduction};
  aig::Aig g = bench::counter(4, 11, 13);
  mc::EngineResult r = mc::check_portfolio(g, 0, opts);
  EXPECT_EQ(r.verdict, mc::Verdict::kPass);
  EXPECT_NE(r.engine.find("KIND"), std::string::npos);
}

}  // namespace
}  // namespace itpseq
