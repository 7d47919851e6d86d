// opt_test.cpp — AIG compaction: bit-parallel simulation and SAT sweeping
// (fraig).
//
// The sweep must preserve semantics, checked two independent ways: 64-way
// random co-simulation (evaluate64 on original vs swept) and exact SAT
// equivalence (opt::equivalent) on small cones.
#include <gtest/gtest.h>

#include <random>

#include "aig/aig.hpp"
#include "opt/fraig.hpp"
#include "opt/simulate.hpp"

namespace itpseq {
namespace {

/// Random combinational cone over `leaves` inputs; returns (graph, root).
/// Redundancy is injected deliberately (duplicate subtrees, re-derived
/// functions) so the sweep has something to find.
std::pair<aig::Aig, aig::Lit> random_cone(std::uint32_t seed,
                                          unsigned leaves = 6,
                                          unsigned gates = 40) {
  std::mt19937 rng(seed);
  aig::Aig g;
  std::vector<aig::Lit> pool;
  for (unsigned i = 0; i < leaves; ++i) pool.push_back(g.add_input());
  for (unsigned n = 0; n < gates; ++n) {
    aig::Lit a = pool[rng() % pool.size()] ^ (rng() % 2);
    aig::Lit b = pool[rng() % pool.size()] ^ (rng() % 2);
    switch (rng() % 4) {
      case 0: pool.push_back(g.make_and(a, b)); break;
      case 1: pool.push_back(g.make_or(a, b)); break;
      case 2: pool.push_back(g.make_xor(a, b)); break;
      default: {
        // Re-derive an equivalent function with different structure:
        // a XOR b as (a|b) & !(a&b).
        aig::Lit alt = g.make_and(g.make_or(a, b),
                                  aig::lit_not(g.make_and(a, b)));
        pool.push_back(alt);
        break;
      }
    }
  }
  aig::Lit root = pool.back();
  for (int i = 0; i < 3; ++i)
    root = g.make_or(root, pool[rng() % pool.size()] ^ (rng() % 2));
  return {std::move(g), root};
}

/// 64-way co-simulation equivalence between a root in g and a root in h,
/// where h's input i corresponds to g's input i.
void expect_cosim_equal(const aig::Aig& g, aig::Lit rg, const aig::Aig& h,
                        aig::Lit rh, std::uint64_t seed,
                        const char* what) {
  std::mt19937_64 rng(seed);
  for (int round = 0; round < 16; ++round) {
    std::vector<std::uint64_t> vg(g.num_vars(), 0), vh(h.num_vars(), 0);
    for (std::size_t i = 0; i < g.num_inputs(); ++i) {
      std::uint64_t w = rng();
      vg[aig::lit_var(g.input(i))] = w;
      vh[aig::lit_var(h.input(i))] = w;
    }
    ASSERT_EQ(g.evaluate64(rg, vg), h.evaluate64(rh, vh))
        << what << " seed " << seed << " round " << round;
  }
}

// --- simulation --------------------------------------------------------------

TEST(Simulate, SignaturesMatchEvaluate64) {
  auto [g, root] = random_cone(42);
  opt::BitParallelSim sim(g, {root}, 2, 7);
  // Reconstruct the leaf patterns the simulator drew and cross-check the
  // root signature against the reference evaluator.
  for (unsigned w = 0; w < sim.words(); ++w) {
    std::vector<std::uint64_t> vals(g.num_vars(), 0);
    for (std::size_t i = 0; i < g.num_inputs(); ++i) {
      aig::Var v = aig::lit_var(g.input(i));
      if (sim.in_cone(v)) vals[v] = sim.word(v, w);
    }
    EXPECT_EQ(g.evaluate64(root, vals), sim.lit_word(root, w)) << "word " << w;
  }
}

TEST(Simulate, ComplementInvariantHash) {
  aig::Aig g;
  aig::Lit a = g.add_input(), b = g.add_input();
  aig::Lit x = g.make_and(a, b);
  aig::Lit y = g.make_or(aig::lit_not(a), aig::lit_not(b));  // NOT x
  opt::BitParallelSim sim(g, {x, y}, 4, 11);
  EXPECT_EQ(sim.class_hash(aig::lit_var(x)), sim.class_hash(aig::lit_var(y)));
  EXPECT_TRUE(sim.same_signature(x, aig::lit_not(y)));
  EXPECT_FALSE(sim.same_signature(x, y));
}

TEST(Simulate, AddPatternRefinesSignatures) {
  aig::Aig g;
  aig::Lit a = g.add_input(), b = g.add_input();
  aig::Lit x = g.make_and(a, b);
  opt::BitParallelSim sim(g, {x}, 1, 3);
  // Force the pattern a=1, b=1: the new bit of x must be 1.
  sim.add_pattern([&](aig::Var) { return true; });
  EXPECT_TRUE(sim.same_signature(x, x));
  // After 64 + 1 more patterns the dynamic word must have been flushed
  // into the static signature.
  for (int i = 0; i < 65; ++i) sim.add_pattern([&](aig::Var) { return false; });
  EXPECT_GE(sim.words(), 2u);
}

class SimRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SimRandomTest, EverySignatureMatchesReference) {
  auto [g, root] = random_cone(1000 + GetParam());
  opt::BitParallelSim sim(g, {root}, 3, GetParam());
  std::vector<std::uint64_t> vals(g.num_vars(), 0);
  for (unsigned w = 0; w < sim.words(); ++w) {
    for (std::size_t i = 0; i < g.num_inputs(); ++i) {
      aig::Var v = aig::lit_var(g.input(i));
      if (sim.in_cone(v)) vals[v] = sim.word(v, w);
    }
    for (aig::Var v : g.cone({root}))
      if (g.is_and(v)) {
        EXPECT_EQ(g.evaluate64(aig::var_lit(v), vals), sim.word(v, w));
      }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, SimRandomTest, ::testing::Range(0, 20));

// --- fraig -------------------------------------------------------------------

TEST(Fraig, MergesStructurallyDifferentEquivalents) {
  aig::Aig g;
  aig::Lit a = g.add_input(), b = g.add_input(), c = g.add_input();
  // Same function, two associations.
  aig::Lit x = g.make_and(g.make_and(a, b), c);
  aig::Lit y = g.make_and(a, g.make_and(b, c));
  ASSERT_NE(x, y);  // strashing alone cannot merge these
  opt::FraigResult r = opt::fraig(g, {x, y});
  EXPECT_EQ(r.roots[0], r.roots[1]);
  EXPECT_GE(r.stats.merges, 1u);
}

TEST(Fraig, MergesComplementPairs) {
  aig::Aig g;
  aig::Lit a = g.add_input(), b = g.add_input();
  aig::Lit x = g.make_xor(a, b);
  // XNOR built differently: (a&b) | (!a&!b).
  aig::Lit y = g.make_or(g.make_and(a, b),
                         g.make_and(aig::lit_not(a), aig::lit_not(b)));
  opt::FraigResult r = opt::fraig(g, {x, y});
  EXPECT_EQ(r.roots[0], aig::lit_not(r.roots[1]));
}

TEST(Fraig, FoldsHiddenConstants) {
  aig::Aig g;
  aig::Lit a = g.add_input(), b = g.add_input();
  // (a|b) & (!a|b) & (a|!b) & (!a|!b) == FALSE, but not structurally.
  aig::Lit f = g.make_and(
      g.make_and(g.make_or(a, b), g.make_or(aig::lit_not(a), b)),
      g.make_and(g.make_or(a, aig::lit_not(b)),
                 g.make_or(aig::lit_not(a), aig::lit_not(b))));
  ASSERT_NE(f, aig::kFalse);
  opt::FraigResult r = opt::fraig(g, {f});
  EXPECT_EQ(r.roots[0], aig::kFalse);
}

TEST(Fraig, CounterexamplesRefineClasses) {
  // Functions that agree on many patterns but differ: force refinements.
  aig::Aig g;
  std::vector<aig::Lit> ins;
  for (int i = 0; i < 8; ++i) ins.push_back(g.add_input());
  aig::Lit all = g.make_and_many(ins);             // AND of all
  std::vector<aig::Lit> most(ins.begin(), ins.end() - 1);
  aig::Lit most_and = g.make_and_many(most);       // AND of first 7
  // These differ only when first 7 inputs are all 1: sim likely misses it.
  opt::FraigResult r = opt::fraig(g, {all, most_and});
  EXPECT_NE(r.roots[0], r.roots[1]);
  ASSERT_TRUE(opt::equivalent(r.graph, r.roots[0], r.roots[1]).has_value());
  EXPECT_FALSE(opt::equivalent(r.graph, r.roots[0], r.roots[1]).value());
}

class FraigRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(FraigRandomTest, PreservesSemanticsNeverGrows) {
  auto [g, root] = random_cone(4000 + GetParam());
  opt::FraigResult r = opt::fraig(g, {root});
  expect_cosim_equal(g, root, r.graph, r.roots[0], GetParam(), "fraig");
  EXPECT_LE(r.graph.cone_size(r.roots[0]), g.cone_size(root));
  // Exact check on top of co-simulation: import both into one graph.
  aig::Aig joint;
  std::vector<aig::Lit> leaves;
  for (std::size_t i = 0; i < g.num_inputs(); ++i)
    leaves.push_back(joint.add_input());
  std::vector<aig::Lit> m1(g.num_vars(), aig::kNullLit);
  std::vector<aig::Lit> m2(r.graph.num_vars(), aig::kNullLit);
  for (std::size_t i = 0; i < g.num_inputs(); ++i) {
    m1[aig::lit_var(g.input(i))] = leaves[i];
    m2[aig::lit_var(r.graph.input(i))] = leaves[i];
  }
  aig::Lit j1 = joint.import_cone(g, root, m1);
  aig::Lit j2 = joint.import_cone(r.graph, r.roots[0], m2);
  auto eq = opt::equivalent(joint, j1, j2);
  ASSERT_TRUE(eq.has_value());
  EXPECT_TRUE(*eq);
}

INSTANTIATE_TEST_SUITE_P(Random, FraigRandomTest, ::testing::Range(0, 40));

TEST(Fraig, IdempotentSecondPassFindsNothing) {
  auto [g, root] = random_cone(77, 6, 60);
  opt::FraigResult r1 = opt::fraig(g, {root});
  opt::FraigResult r2 = opt::fraig(r1.graph, {r1.roots[0]});
  EXPECT_EQ(r2.stats.merges, 0u)
      << "second sweep should find no new equivalences";
  EXPECT_EQ(r2.graph.cone_size(r2.roots[0]), r1.graph.cone_size(r1.roots[0]));
}

TEST(Fraig, EquivalentHelper) {
  aig::Aig g;
  aig::Lit a = g.add_input(), b = g.add_input();
  EXPECT_TRUE(opt::equivalent(g, a, a).value());
  EXPECT_FALSE(opt::equivalent(g, a, aig::lit_not(a)).value());
  EXPECT_FALSE(opt::equivalent(g, a, b).value());
  aig::Lit deMorgan =
      aig::lit_not(g.make_and(aig::lit_not(a), aig::lit_not(b)));
  EXPECT_TRUE(opt::equivalent(g, deMorgan, g.make_or(a, b)).value());
  EXPECT_TRUE(opt::equivalent(g, aig::kTrue, aig::kTrue).value());
  EXPECT_FALSE(opt::equivalent(g, aig::kTrue, aig::kFalse).value());
}

}  // namespace
}  // namespace itpseq
