// state_space_test.cpp — unit tests for the symbolic state-set manager and
// its containment checks, including a differential test of the witness
// pool and the persistent checker against a fresh solver per query.
#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <type_traits>

#include "bench_circuits/generators.hpp"
#include "cnf/tseitin.hpp"
#include "mc/state_space.hpp"

namespace itpseq::mc {
namespace {

// The checker's encoder refers to the graph of the StateSpace it belongs to.
static_assert(!std::is_copy_constructible_v<StateSpace> &&
              !std::is_move_constructible_v<StateSpace> &&
              !std::is_copy_assignable_v<StateSpace> &&
              !std::is_move_assignable_v<StateSpace>);

TEST(StateSpace, InputsMirrorLatches) {
  aig::Aig g = bench::counter(4, 11, 7);
  StateSpace s(g);
  EXPECT_EQ(s.graph().num_inputs(), g.num_latches());
  for (std::size_t i = 0; i < g.num_latches(); ++i)
    EXPECT_EQ(s.latch_input(i), s.graph().input(i));
}

TEST(StateSpace, InitPredMatchesResets) {
  aig::Aig g;
  (void)g.add_latch(aig::LatchInit::kZero);
  (void)g.add_latch(aig::LatchInit::kOne);
  (void)g.add_latch(aig::LatchInit::kUndef);
  for (std::size_t i = 0; i < 3; ++i) g.set_latch_next(g.latch(i), g.latch(i));
  StateSpace s(g);
  aig::Lit init = s.init_pred();
  std::vector<bool> v(s.graph().num_vars(), false);
  auto set = [&](int i, bool val) { v[aig::lit_var(s.graph().input(i))] = val; };
  set(0, false);
  set(1, true);
  set(2, false);
  EXPECT_TRUE(s.graph().evaluate(init, v));
  set(2, true);  // undef latch unconstrained
  EXPECT_TRUE(s.graph().evaluate(init, v));
  set(1, false);  // violates reset of latch 1
  EXPECT_FALSE(s.graph().evaluate(init, v));
}

TEST(StateSpace, InitPredWithVisibility) {
  aig::Aig g;
  (void)g.add_latch(aig::LatchInit::kOne);
  (void)g.add_latch(aig::LatchInit::kOne);
  for (std::size_t i = 0; i < 2; ++i) g.set_latch_next(g.latch(i), g.latch(i));
  StateSpace s(g);
  aig::Lit init = s.init_pred({true, false});  // latch 1 invisible
  std::vector<bool> v(s.graph().num_vars(), false);
  v[aig::lit_var(s.graph().input(0))] = true;
  EXPECT_TRUE(s.graph().evaluate(init, v));  // latch 1 free
}

TEST(StateSpace, ImpliesBasics) {
  aig::Aig g = bench::counter(3, 8, 5);
  StateSpace s(g);
  aig::Aig& G = s.graph();
  aig::Lit a = G.input(0);
  aig::Lit ab = G.make_and(G.input(0), G.input(1));
  EXPECT_EQ(s.implies(ab, a, 5.0), Implication::kHolds);
  EXPECT_EQ(s.implies(a, ab, 5.0), Implication::kFails);
  EXPECT_EQ(s.implies(aig::kFalse, a, 5.0), Implication::kHolds);
  EXPECT_EQ(s.implies(a, aig::kTrue, 5.0), Implication::kHolds);
  EXPECT_EQ(s.implies(a, a, 5.0), Implication::kHolds);
  EXPECT_EQ(s.implies(aig::kTrue, aig::kFalse, 5.0), Implication::kFails);
  EXPECT_GT(s.num_sat_calls(), 0u);
}

TEST(StateSpace, WitnessAnswersWithoutSat) {
  aig::Aig g = bench::counter(3, 8, 5);
  StateSpace s(g);
  aig::Aig& G = s.graph();
  aig::Lit x0 = G.input(0), x1 = G.input(1), x2 = G.input(2);
  // The all-zero slots do not refute x0 ⇒ x1: the checker finds a witness
  // with x0 = 1, x1 = 0 and stores it.
  EXPECT_EQ(s.implies(x0, x1, 5.0), Implication::kFails);
  EXPECT_EQ(s.num_sat_calls(), 1u);
  // That witness is in x0 ∧ ¬(x1 ∧ x2): refuted with no SAT call.
  EXPECT_EQ(s.implies(x0, G.make_and(x1, x2), 5.0), Implication::kFails);
  EXPECT_EQ(s.num_sat_calls(), 1u);
  // A containment that holds has no witness: only SAT answers it.
  EXPECT_EQ(s.implies(G.make_and(x0, x1), x0, 5.0), Implication::kHolds);
  EXPECT_EQ(s.num_sat_calls(), 2u);
  // The pool survives compaction, which keeps the input order.
  s.compact({});
  EXPECT_EQ(s.implies(s.latch_input(0), s.latch_input(1), 5.0),
            Implication::kFails);
  EXPECT_EQ(s.num_sat_calls(), 2u);
  EXPECT_EQ(s.num_checks(), 4u);
}

TEST(StateSpace, CompactRemapsRoots) {
  aig::Aig g = bench::counter(4, 11, 7);
  StateSpace s(g);
  aig::Aig& G = s.graph();
  aig::Lit keep = G.make_or(G.input(0), G.make_and(G.input(1), G.input(2)));
  // Garbage that compaction should drop.
  aig::Lit junk = keep;
  for (int i = 0; i < 50; ++i) junk = G.make_xor(junk, G.input(i % 4));
  std::size_t before = G.num_ands();
  s.compact({&keep});
  EXPECT_LT(s.graph().num_ands(), before);
  // `keep` still means the same function.
  std::vector<bool> v(s.graph().num_vars(), false);
  EXPECT_FALSE(s.graph().evaluate(keep, v));
  v[aig::lit_var(s.graph().input(0))] = true;
  EXPECT_TRUE(s.graph().evaluate(keep, v));
  v[aig::lit_var(s.graph().input(0))] = false;
  v[aig::lit_var(s.graph().input(1))] = true;
  v[aig::lit_var(s.graph().input(2))] = true;
  EXPECT_TRUE(s.graph().evaluate(keep, v));
}

// --- Differential test: persistent checker vs. a fresh solver per query ---

// Reference oracle: is the conjunction of `conj` satisfiable?  A brand-new
// solver and encoder per call, the facts asserted as unit clauses.
sat::Status fresh_solve(const aig::Aig& g, std::initializer_list<aig::Lit> conj) {
  sat::Solver solver;
  cnf::TseitinEncoder enc(g, solver,
                          [&](aig::Var) { return sat::mk_lit(solver.new_var()); });
  for (aig::Lit l : conj) solver.add_clause({enc.encode(l, 0)}, 0);
  return solver.solve();
}

Implication oracle_implies(const aig::Aig& g, aig::Lit a, aig::Lit b) {
  return fresh_solve(g, {a, aig::lit_not(b)}) == sat::Status::kUnsat
             ? Implication::kHolds
             : Implication::kFails;
}

// Random predicates over the latch inputs of a StateSpace, grown on demand.
class RandomSets {
 public:
  RandomSets(StateSpace& s, unsigned seed) : s_(s), rng_(seed) {
    for (std::size_t i = 0; i < s.model().num_latches(); ++i)
      pool_.push_back(s.latch_input(i));
  }

  /// Add `n` random gates, each over two pool literals.
  void grow(int n) {
    aig::Aig& G = s_.graph();
    for (int i = 0; i < n; ++i) {
      aig::Lit x = pick();
      aig::Lit y = pick();
      switch (rng_() % 3) {
        case 0: pool_.push_back(G.make_and(x, y)); break;
        case 1: pool_.push_back(G.make_or(x, y)); break;
        default: pool_.push_back(G.make_xor(x, y)); break;
      }
    }
  }

  /// A random pair (a, b).  One pair in three is built so that the
  /// implication holds (a = b AND x, or b = a OR x).
  std::pair<aig::Lit, aig::Lit> pair() {
    aig::Aig& G = s_.graph();
    aig::Lit a = pick();
    aig::Lit b = pick();
    switch (rng_() % 6) {
      case 0: a = G.make_and(b, pick()); break;
      case 1: b = G.make_or(a, pick()); break;
      default: break;
    }
    return {a, b};
  }

  /// Compact the graph keeping a random half of the pool.
  void compact() {
    std::vector<aig::Lit> keep;
    for (aig::Lit l : pool_)
      if (rng_() % 2 == 0) keep.push_back(l);
    std::vector<aig::Lit*> roots;
    for (aig::Lit& l : keep) roots.push_back(&l);
    s_.compact(std::move(roots));
    pool_.clear();
    for (std::size_t i = 0; i < s_.model().num_latches(); ++i)
      pool_.push_back(s_.latch_input(i));
    pool_.insert(pool_.end(), keep.begin(), keep.end());
  }

 private:
  aig::Lit pick() {
    aig::Lit l = pool_[rng_() % pool_.size()];
    return rng_() % 2 ? aig::lit_not(l) : l;
  }

  StateSpace& s_;
  std::mt19937 rng_;
  std::vector<aig::Lit> pool_;
};

aig::Aig latch_model(int latches) {
  aig::Aig m;
  for (int i = 0; i < latches; ++i) (void)m.add_latch(aig::LatchInit::kZero);
  for (int i = 0; i < latches; ++i) m.set_latch_next(m.latch(i), m.latch(i));
  return m;
}

constexpr int kRounds = 60;
constexpr int kPerRound = 8;
constexpr int kQueries = kRounds * kPerRound;

// Runs kRounds rounds of: grow the graph, then query kPerRound random pairs
// against the oracle.  `between_rounds` runs after each round.  Returns the number
// of holding implications seen (the caller checks both outcomes occurred).
// The witness pool must have answered some of the non-trivial queries.
template <typename Between>
int differential(StateSpace& s, RandomSets& sets, Between between_rounds) {
  int holds = 0;
  std::size_t nontrivial = 0;
  for (int round = 0; round < kRounds; ++round) {
    sets.grow(6);
    for (int q = 0; q < kPerRound; ++q) {
      auto [a, b] = sets.pair();
      Implication want = oracle_implies(s.graph(), a, b);
      const std::size_t calls = s.num_sat_calls();
      EXPECT_EQ(s.implies(a, b, -1.0), want) << "round " << round << " query " << q;
      const bool trivial = a == aig::kFalse || b == aig::kTrue || a == b;
      nontrivial += !trivial;
      // Only SAT proves a containment.
      if (want == Implication::kHolds && !trivial) {
        EXPECT_EQ(s.num_sat_calls(), calls + 1);
      }
      holds += want == Implication::kHolds;
    }
    between_rounds(round);
  }
  EXPECT_LT(s.num_sat_calls(), nontrivial);
  return holds;
}

TEST(StateSpaceDifferential, GraphGrowsBetweenQueries) {
  aig::Aig m = latch_model(7);
  StateSpace s(m);
  RandomSets sets(s, 1);
  int holds = differential(s, sets, [](int) {});
  EXPECT_GT(holds, kQueries / 10);
  EXPECT_LT(holds, kQueries - kQueries / 10);
}

TEST(StateSpaceDifferential, QueriesInterleavedWithCompact) {
  aig::Aig m = latch_model(7);
  StateSpace s(m);
  RandomSets sets(s, 2);
  int holds = differential(s, sets, [&](int round) {
    if (round % 5 == 4) sets.compact();
  });
  EXPECT_GT(holds, kQueries / 10);
  EXPECT_LT(holds, kQueries - kQueries / 10);
}

TEST(StateSpaceDifferential, CancelledQueryLeavesCheckerSound) {
  aig::Aig m = latch_model(7);
  StateSpace s(m);
  RandomSets sets(s, 3);
  const std::atomic<bool> cancelled{true};
  int holds = differential(s, sets, [&](int) {
    // A query that needs the solver: a ∧ ¬b and a both satisfiable.
    aig::Aig& G = s.graph();
    aig::Lit a = G.make_and(s.latch_input(0), s.latch_input(1));
    aig::Lit b = G.make_and(s.latch_input(2), s.latch_input(3));
    EXPECT_EQ(s.implies(a, b, -1.0, &cancelled), Implication::kUnknown);
  });
  EXPECT_GT(holds, kQueries / 10);
}

// Each minterm over 7 latches has exactly one state, so only a witness of
// that very state refutes "minterm ⇒ false".  127 distinct refutations
// overwrite the pool almost twice: the latest 64 remain.
TEST(StateSpace, PoolKeepsTheLatest64Witnesses) {
  aig::Aig m = latch_model(7);
  StateSpace s(m);
  auto minterm = [&](unsigned bits) {
    std::vector<aig::Lit> conj;
    for (unsigned i = 0; i < 7; ++i)
      conj.push_back(aig::lit_xor(s.latch_input(i), ((bits >> i) & 1u) == 0));
    return s.graph().make_and_many(conj);
  };
  for (unsigned bits = 1; bits < 128; ++bits) {
    EXPECT_EQ(s.implies(minterm(bits), aig::kFalse, -1.0), Implication::kFails);
    EXPECT_EQ(s.num_sat_calls(), bits);
  }
  for (unsigned bits = 64; bits < 128; ++bits)
    EXPECT_EQ(s.implies(minterm(bits), aig::kFalse, -1.0), Implication::kFails);
  EXPECT_EQ(s.num_sat_calls(), 127u);
  EXPECT_EQ(s.implies(minterm(63), aig::kFalse, -1.0), Implication::kFails);
  EXPECT_EQ(s.num_sat_calls(), 128u);
}

}  // namespace
}  // namespace itpseq::mc
