// ternary_test.cpp — unit tests for the three-valued AIG simulator behind
// PDR's cube lifting: Kleene semantics, X-propagation through AND / latch /
// constraint cones, event-driven try_latch_x with undo (checked against
// from-scratch simulation on random AIGs), and agreement with the concrete
// Simulator on fully-defined assignments.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "bench_circuits/generators.hpp"
#include "bench_circuits/suite.hpp"
#include "mc/sim.hpp"
#include "mc/ternary.hpp"

namespace itpseq::mc {
namespace {

TEST(Ternary, KleeneOperators) {
  using enum TernVal;
  EXPECT_EQ(tern_and(kFalse, kX), kFalse);  // 0 dominates X
  EXPECT_EQ(tern_and(kX, kFalse), kFalse);
  EXPECT_EQ(tern_and(kTrue, kX), kX);  // 1 is neutral
  EXPECT_EQ(tern_and(kX, kTrue), kX);
  EXPECT_EQ(tern_and(kX, kX), kX);
  EXPECT_EQ(tern_and(kTrue, kTrue), kTrue);
  EXPECT_EQ(tern_and(kTrue, kFalse), kFalse);
  EXPECT_EQ(tern_not(kX), kX);
  EXPECT_EQ(tern_not(kTrue), kFalse);
  EXPECT_EQ(tern_not(kFalse), kTrue);
}

TEST(Ternary, XPropagatesThroughAndCone) {
  aig::Aig g;
  aig::Lit a = g.add_latch(aig::LatchInit::kZero, "a");
  aig::Lit b = g.add_latch(aig::LatchInit::kZero, "b");
  aig::Lit c = g.add_input("c");
  aig::Lit ab = g.make_and(a, b);
  aig::Lit root = g.make_and(ab, c);
  g.set_latch_next(a, a);
  g.set_latch_next(b, b);
  g.add_output(root, "bad");

  TernarySim sim(g, {root});
  sim.set_latch(0, TernVal::kTrue);
  sim.set_latch(1, TernVal::kX);
  sim.set_input(0, TernVal::kTrue);
  sim.simulate();
  EXPECT_EQ(sim.value(ab), TernVal::kX);    // 1 AND X = X
  EXPECT_EQ(sim.value(root), TernVal::kX);  // X AND 1 = X
  // Forcing the other AND leg to 0 masks the X.
  sim.set_input(0, TernVal::kFalse);
  sim.simulate();
  EXPECT_EQ(sim.value(root), TernVal::kFalse);
  EXPECT_EQ(sim.value(aig::lit_not(root)), TernVal::kTrue);
}

TEST(Ternary, TryLatchXCommitsWhenRootsStayDefined) {
  // root = a AND NOT b with b = 1: root is 0 via b regardless of a, so a
  // can be X-ed; b cannot.
  aig::Aig g;
  aig::Lit a = g.add_latch(aig::LatchInit::kZero, "a");
  aig::Lit b = g.add_latch(aig::LatchInit::kZero, "b");
  aig::Lit root = g.make_and(a, aig::lit_not(b));
  g.set_latch_next(a, a);
  g.set_latch_next(b, b);

  TernarySim sim(g, {root});
  sim.set_watches({root});
  sim.assign({true, true}, {});
  EXPECT_EQ(sim.value(root), TernVal::kFalse);
  EXPECT_TRUE(sim.watches_defined());

  EXPECT_TRUE(sim.try_latch_x(0));  // a drops: b keeps root at 0
  EXPECT_EQ(sim.value(a), TernVal::kX);
  EXPECT_EQ(sim.value(root), TernVal::kFalse);

  // b is now the only support of a defined root: the try must fail and
  // must restore every node value it touched.
  EXPECT_FALSE(sim.try_latch_x(1));
  EXPECT_EQ(sim.value(b), TernVal::kTrue);
  EXPECT_EQ(sim.value(root), TernVal::kFalse);
  EXPECT_TRUE(sim.watches_defined());
}

TEST(Ternary, LatchNextAndConstraintRootsGuardLifting) {
  // Next-state cone as the watched root (the consecution-query shape):
  // next(t) = t XOR en. With en = 0, next(t) = t, so t must be kept and
  // the unrelated latch u dropped.  A constraint root keeps its own
  // support alive the same way.
  aig::Aig g;
  aig::Lit en = g.add_input("en");
  aig::Lit t = g.add_latch(aig::LatchInit::kZero, "t");
  aig::Lit u = g.add_latch(aig::LatchInit::kZero, "u");
  aig::Lit cst = g.add_latch(aig::LatchInit::kZero, "cst");
  g.set_latch_next(t, g.make_xor(t, en));
  g.set_latch_next(u, u);
  g.set_latch_next(cst, cst);
  g.add_constraint(cst);

  std::vector<aig::Lit> roots{g.latch_next(0), g.constraint(0)};
  TernarySim sim(g, roots);
  sim.set_watches(roots);
  sim.assign({true, true, true}, {false});
  EXPECT_EQ(sim.value(g.latch_next(0)), TernVal::kTrue);

  EXPECT_TRUE(sim.try_latch_x(1));   // u: outside both cones
  EXPECT_FALSE(sim.try_latch_x(0));  // t: feeds its own next state
  EXPECT_FALSE(sim.try_latch_x(2));  // cst: feeds the constraint root
  EXPECT_TRUE(sim.watches_defined());
}

TEST(Ternary, TryLatchXMatchesFullSimulation) {
  // Differential test of the event-driven try: on random AIGs, with random
  // watches and a random try order, every commit/rollback decision and
  // every cone value afterwards must equal what a second simulator gets by
  // setting the latch to X and re-simulating the whole cone.
  unsigned commits = 0, rollbacks = 0;
  for (int seed = 0; seed < 60; ++seed) {
    std::mt19937 rng(4200 + seed);
    aig::Aig g;
    const unsigned nl = 2 + rng() % 10, ni = rng() % 4;
    std::vector<aig::Lit> pool;
    for (unsigned i = 0; i < nl; ++i) pool.push_back(g.add_latch());
    for (unsigned i = 0; i < ni; ++i) pool.push_back(g.add_input());
    auto pick = [&] {
      return aig::lit_xor(pool[rng() % pool.size()], rng() % 2 != 0);
    };
    const unsigned nands = 5 + rng() % 60;
    for (unsigned i = 0; i < nands; ++i)
      pool.push_back(g.make_and(pick(), pick()));
    for (unsigned i = 0; i < nl; ++i) g.set_latch_next(g.latch(i), pick());
    std::vector<aig::Lit> roots;
    for (int r = 0; r < 6; ++r) roots.push_back(pick());
    for (unsigned i = 0; i < nl; ++i) roots.push_back(g.latch_next(i));

    TernarySim fast(g, roots), ref(g, roots);
    for (int round = 0; round < 4; ++round) {
      std::vector<aig::Lit> watches;
      for (aig::Lit r : roots)
        if (rng() % 3 == 0) watches.push_back(r);
      std::vector<bool> latches(nl), inputs(ni);
      for (std::size_t i = 0; i < nl; ++i) latches[i] = rng() % 2 != 0;
      for (std::size_t i = 0; i < ni; ++i) inputs[i] = rng() % 2 != 0;
      fast.set_watches(watches);
      fast.assign(latches, inputs);
      ref.set_watches(watches);
      ref.assign(latches, inputs);
      std::vector<std::size_t> order(nl);
      for (std::size_t i = 0; i < nl; ++i) order[i] = i;
      std::shuffle(order.begin(), order.end(), rng);
      for (std::size_t i : order) {
        ref.set_latch(i, TernVal::kX);
        ref.simulate();
        const bool want = ref.watches_defined();
        if (!want) {
          ref.set_latch(i, tern_of(latches[i]));
          ref.simulate();
        }
        ASSERT_EQ(fast.try_latch_x(i), want)
            << "seed " << seed << " round " << round << " latch " << i;
        ++(want ? commits : rollbacks);
        EXPECT_EQ(fast.watches_defined(), ref.watches_defined());
        for (aig::Var v = 1; v < g.num_vars(); ++v)
          ASSERT_EQ(fast.value(aig::var_lit(v)), ref.value(aig::var_lit(v)))
              << "seed " << seed << " round " << round << " latch " << i
              << " var " << v;
      }
    }
  }
  // Not vacuous: both outcomes occur often.
  EXPECT_GT(commits, 100u);
  EXPECT_GT(rollbacks, 100u);
}

TEST(Ternary, AgreesWithConcreteSimulatorOnDefinedInputs) {
  // On fully-defined assignments ternary simulation must reproduce the
  // concrete simulator exactly: bad output, constraints, and every
  // next-state function, across randomized suite instances.
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  auto next_bit = [&rng]() {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return (rng >> 33 & 1ull) != 0;
  };
  unsigned checked = 0;
  for (const auto& inst : bench::make_academic_suite(24)) {
    const aig::Aig& g = inst.model;
    std::vector<aig::Lit> roots{g.output(0)};
    for (std::size_t i = 0; i < g.num_latches(); ++i)
      roots.push_back(g.latch_next(i));
    for (std::size_t i = 0; i < g.num_constraints(); ++i)
      roots.push_back(g.constraint(i));
    TernarySim tsim(g, roots);
    Simulator csim(g, 0);
    std::vector<bool> latches(g.num_latches());
    for (unsigned round = 0; round < 8; ++round) {
      std::vector<bool> inputs(g.num_inputs());
      for (std::size_t i = 0; i < latches.size(); ++i) latches[i] = next_bit();
      for (std::size_t i = 0; i < inputs.size(); ++i) inputs[i] = next_bit();
      tsim.assign(latches, inputs);
      EXPECT_EQ(tsim.value(g.output(0)),
                tern_of(csim.bad(latches, inputs)))
          << inst.name;
      EXPECT_EQ(tsim.value(aig::kTrue), TernVal::kTrue);
      std::vector<bool> next = csim.step(latches, inputs);
      for (std::size_t i = 0; i < g.num_latches(); ++i)
        ASSERT_EQ(tsim.value(g.latch_next(i)), tern_of(next[i]))
            << inst.name << " latch " << i << " round " << round;
      ++checked;
    }
  }
  EXPECT_GT(checked, 100u);
}

TEST(Ternary, LiftedCubeStillForcesRootsOnRandomCircuits) {
  // Property test of the lifting contract: after greedily X-ing latches,
  // every concrete completion of the remaining cube (we test the all-0 and
  // all-1 completions plus random ones) still produces the watched root
  // values.
  std::uint64_t rng = 0xdeadbeefcafef00dull;
  auto next_bit = [&rng]() {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return (rng >> 33 & 1ull) != 0;
  };
  for (const auto& inst : bench::make_academic_suite(20)) {
    const aig::Aig& g = inst.model;
    std::vector<aig::Lit> roots{g.output(0)};
    for (std::size_t i = 0; i < g.num_latches(); ++i)
      roots.push_back(g.latch_next(i));
    TernarySim tsim(g, roots);
    Simulator csim(g, 0);
    std::vector<bool> latches(g.num_latches()), inputs(g.num_inputs());
    for (std::size_t i = 0; i < latches.size(); ++i) latches[i] = next_bit();
    for (std::size_t i = 0; i < inputs.size(); ++i) inputs[i] = next_bit();
    tsim.set_watches(roots);
    tsim.assign(latches, inputs);
    bool bad0 = csim.bad(latches, inputs);
    std::vector<bool> next0 = csim.step(latches, inputs);
    std::vector<bool> kept(g.num_latches(), false);
    for (std::size_t i = 0; i < g.num_latches(); ++i)
      if (!tsim.try_latch_x(i)) kept[i] = true;
    for (unsigned round = 0; round < 4; ++round) {
      std::vector<bool> filled(g.num_latches());
      for (std::size_t i = 0; i < filled.size(); ++i)
        filled[i] = kept[i] ? latches[i]
                            : (round == 0 ? false
                                          : round == 1 ? true : next_bit());
      EXPECT_EQ(csim.bad(filled, inputs), bad0) << inst.name;
      EXPECT_EQ(csim.step(filled, inputs), next0) << inst.name;
    }
  }
}

}  // namespace
}  // namespace itpseq::mc
