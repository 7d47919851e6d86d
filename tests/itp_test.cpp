// itp_test.cpp — property tests for Craig interpolant extraction.
//
// For randomly generated partitioned UNSAT formulas we verify, by
// independent SAT checks, the defining conditions of the paper:
//   Definition 1 (per cut j):  A => I,  I AND B unsat,
//                              supp(I) within shared variables;
//   Definition 2 (sequences):  I_j AND A_{j+1} => I_{j+1}.
#include <gtest/gtest.h>

#include <random>
#include <set>

#include "aig/aig.hpp"
#include "cnf/tseitin.hpp"
#include "itp/interpolate.hpp"
#include "sat/proof_check.hpp"
#include "sat/solver.hpp"

namespace itpseq {
namespace {

struct PartitionedCnf {
  unsigned nvars = 0;
  // clauses[i] = (literals, label)
  std::vector<std::pair<std::vector<sat::Lit>, std::uint32_t>> clauses;
};

/// Encode an AIG predicate over SAT variables: AIG input i corresponds to
/// SAT variable var_of_input[i] in `solver`.
sat::Lit encode_pred(const aig::Aig& g, aig::Lit root, sat::Solver& solver,
                     const std::vector<sat::Var>& var_of_input) {
  cnf::TseitinEncoder enc(g, solver, [&](aig::Var v) {
    return sat::mk_lit(var_of_input[g.input_index(v)]);
  });
  return enc.encode(root, 0);
}

/// Check "conjunction of clauses with label in [lo,hi] AND pred(sign)" for
/// satisfiability.
sat::Status query(const PartitionedCnf& f, std::uint32_t lo, std::uint32_t hi,
                  const aig::Aig& g, std::vector<std::pair<aig::Lit, bool>> preds) {
  sat::Solver s;
  std::vector<sat::Var> vars;
  for (unsigned i = 0; i < f.nvars; ++i) vars.push_back(s.new_var());
  for (const auto& [lits, label] : f.clauses) {
    if (label < lo || label > hi) continue;
    std::vector<sat::Lit> cl;
    for (sat::Lit l : lits) cl.push_back(sat::mk_lit(vars[sat::var(l)], sat::sign(l)));
    s.add_clause(cl);
  }
  for (auto [p, positive] : preds) {
    if (p == aig::kTrue) {
      if (!positive) return sat::Status::kUnsat;
      continue;
    }
    if (p == aig::kFalse) {
      if (positive) return sat::Status::kUnsat;
      continue;
    }
    sat::Lit e = encode_pred(g, p, s, vars);
    s.add_clause({positive ? e : sat::neg(e)});
  }
  return s.solve();
}

/// Build an AIG whose input i stands for SAT var i.
aig::Aig fresh_universe(unsigned nvars) {
  aig::Aig g;
  for (unsigned i = 0; i < nvars; ++i) g.add_input();
  return g;
}

/// Solve `f` once with proof logging.  `forced` sets inprocessing interval 0,
/// so the solve starts with a round whose rewrites (subsumption, BVE,
/// vivification, probing) are logged as proof resolutions; without it a
/// one-shot solve this small runs no round.
sat::Status solve_partitioned(const PartitionedCnf& f, bool forced,
                              sat::Solver& s) {
  s.enable_proof();
  if (forced) s.set_inprocess_interval(0);
  for (unsigned i = 0; i < f.nvars; ++i) s.new_var();
  for (const auto& [lits, label] : f.clauses) s.add_clause(lits, label);
  return s.solve();
}

void verify_sequence_once(const PartitionedCnf& f, unsigned max_label,
                          bool forced) {
  SCOPED_TRACE(forced ? "forced inprocessing round" : "default schedule");
  sat::Solver s;
  sat::Status st = solve_partitioned(f, forced, s);
  ASSERT_NE(st, sat::Status::kUnknown);
  if (st == sat::Status::kSat) {
    EXPECT_TRUE(s.verify_model());
    return;  // nothing to interpolate
  }
  auto pc = sat::check_proof(s.proof());
  ASSERT_TRUE(pc.ok) << pc.error;

  aig::Aig g = fresh_universe(f.nvars);
  itp::InterpolantExtractor ex(s.proof());
  std::vector<aig::Lit> seq = ex.extract_sequence(
      g, 1, max_label - 1,
      [&](std::uint32_t, sat::Var v) { return g.input(v); });

  for (std::uint32_t cut = 1; cut + 1 <= max_label; ++cut) {
    aig::Lit I = seq[cut - 1];
    // Support condition: inputs of I must be shared at this cut.
    for (aig::Var v : g.support(I)) {
      std::size_t idx = g.input_index(v);
      EXPECT_TRUE(ex.shared_at(static_cast<sat::Var>(idx), cut))
          << "cut " << cut << " var " << idx;
    }
    // A => I  (A AND NOT I unsat).
    EXPECT_EQ(query(f, 0, cut, g, {{I, false}}), sat::Status::kUnsat)
        << "A => I failed at cut " << cut;
    // I AND B unsat.
    EXPECT_EQ(query(f, cut + 1, max_label, g, {{I, true}}), sat::Status::kUnsat)
        << "I & B sat at cut " << cut;
  }
  // Chain condition: I_j AND A_{j+1} => I_{j+1}.
  for (std::uint32_t j = 1; j + 2 <= max_label; ++j) {
    EXPECT_EQ(query(f, j + 1, j + 1, g, {{seq[j - 1], true}, {seq[j], false}}),
              sat::Status::kUnsat)
        << "chain condition failed at j=" << j;
  }
}

/// Check the sequence over both proof shapes: the plain refutation a
/// one-shot solve produces, and one that includes inprocessing steps.
void verify_sequence(const PartitionedCnf& f, unsigned max_label) {
  verify_sequence_once(f, max_label, /*forced=*/false);
  verify_sequence_once(f, max_label, /*forced=*/true);
}

class ItpRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(ItpRandomTest, RandomPartitionedCnf) {
  std::mt19937 rng(GetParam());
  PartitionedCnf f;
  f.nvars = 6 + rng() % 8;
  unsigned max_label = 2 + rng() % 4;  // partitions 1..max_label
  unsigned nclauses = static_cast<unsigned>(f.nvars * (3.0 + (rng() % 25) / 10.0));
  for (unsigned c = 0; c < nclauses; ++c) {
    unsigned len = 1 + rng() % 3;
    std::vector<sat::Lit> cl;
    for (unsigned k = 0; k < len; ++k)
      cl.push_back(sat::mk_lit(rng() % f.nvars, rng() % 2));
    f.clauses.push_back({cl, 1 + rng() % max_label});
  }
  verify_sequence(f, max_label);
}

INSTANTIATE_TEST_SUITE_P(RandomCnf, ItpRandomTest, ::testing::Range(0, 80));

/// Random 3-CNF just above the satisfiability threshold, with no unit
/// clauses: unlike the short formulas above (refuted while their clauses are
/// added), these reach the solve's entry, so a forced round rewrites them and
/// the search then learns from the rewritten clauses.
PartitionedCnf random_partitioned_3cnf(int seed, unsigned& max_label) {
  std::mt19937 rng(seed);
  PartitionedCnf f;
  f.nvars = 40 + rng() % 10;
  max_label = 2 + rng() % 4;  // partitions 1..max_label
  const unsigned nclauses = static_cast<unsigned>(f.nvars * 4.6);
  for (unsigned c = 0; c < nclauses; ++c) {
    std::vector<sat::Lit> cl;
    while (cl.size() < 3) {
      sat::Var v = rng() % f.nvars;
      bool fresh = true;
      for (sat::Lit l : cl) fresh = fresh && sat::var(l) != v;
      if (fresh) cl.push_back(sat::mk_lit(v, rng() % 2));
    }
    f.clauses.push_back({cl, 1 + rng() % max_label});
  }
  return f;
}

class ItpInprocessedProofTest : public ::testing::TestWithParam<int> {};

TEST_P(ItpInprocessedProofTest, Random3Cnf) {
  unsigned max_label = 0;
  PartitionedCnf f = random_partitioned_3cnf(GetParam(), max_label);
  verify_sequence(f, max_label);
}

INSTANTIATE_TEST_SUITE_P(Random3Cnf, ItpInprocessedProofTest,
                         ::testing::Range(0, 20));

TEST(Itp, ForcedRoundsShapeRandom3CnfRefutations) {
  // Guards ItpInprocessedProofTest: with a forced round its refutations must
  // contain inprocessing rewrites, and some must contain search conflicts
  // after them, or its forced half would re-check a single proof shape.
  unsigned unsat = 0, rewritten = 0, searched = 0;
  for (int seed = 0; seed < 20; ++seed) {
    unsigned max_label = 0;
    PartitionedCnf f = random_partitioned_3cnf(seed, max_label);
    sat::Solver s;
    if (solve_partitioned(f, /*forced=*/true, s) != sat::Status::kUnsat)
      continue;
    ++unsat;
    const sat::SolverStats& st = s.stats();
    EXPECT_GE(st.inprocess_rounds, 1u) << "seed " << seed;
    if (st.subsumed + st.strengthened + st.vars_eliminated + st.vivified +
            st.failed_literals > 0)
      ++rewritten;
    if (st.conflicts > 0) ++searched;
  }
  EXPECT_GE(unsat, 10u);
  EXPECT_GE(2 * rewritten, unsat);
  EXPECT_GT(searched, 0u);
}

TEST(Itp, HandCraftedTwoPartition) {
  // A: (a)(~a | b)    B: (~b)
  PartitionedCnf f;
  f.nvars = 2;
  f.clauses = {{{sat::mk_lit(0)}, 1},
               {{sat::mk_lit(0, true), sat::mk_lit(1)}, 1},
               {{sat::mk_lit(1, true)}, 2}};
  verify_sequence(f, 2);
}

TEST(Itp, InterpolantIsBForBUnsatCore) {
  // If the B side alone is contradictory the interpolant can be TRUE; the
  // conditions must still hold.
  PartitionedCnf f;
  f.nvars = 2;
  f.clauses = {{{sat::mk_lit(0)}, 1},
               {{sat::mk_lit(1)}, 2},
               {{sat::mk_lit(1, true)}, 2}};
  verify_sequence(f, 2);
}

TEST(Itp, InterpolantIsFalseForAUnsatCore) {
  PartitionedCnf f;
  f.nvars = 2;
  f.clauses = {{{sat::mk_lit(0)}, 1},
               {{sat::mk_lit(0, true)}, 1},
               {{sat::mk_lit(1)}, 2}};
  verify_sequence(f, 2);
}

TEST(Itp, IncompleteProofThrows) {
  sat::Solver s;
  s.enable_proof();
  sat::Var a = s.new_var();
  s.add_clause({sat::mk_lit(a)});
  ASSERT_EQ(s.solve(), sat::Status::kSat);
  EXPECT_THROW(itp::InterpolantExtractor ex(s.proof()), std::invalid_argument);
}

TEST(Itp, VarRangeReportsCoreLabels) {
  sat::Solver s;
  s.enable_proof();
  sat::Var a = s.new_var();
  sat::Var b = s.new_var();
  s.add_clause({sat::mk_lit(a)}, 1);
  s.add_clause({sat::mk_lit(a, true), sat::mk_lit(b)}, 2);
  s.add_clause({sat::mk_lit(b, true)}, 3);
  ASSERT_EQ(s.solve(), sat::Status::kUnsat);
  itp::InterpolantExtractor ex(s.proof());
  std::uint32_t lo = 0, hi = 0;
  ASSERT_TRUE(ex.var_range(a, lo, hi));
  EXPECT_EQ(lo, 1u);
  EXPECT_EQ(hi, 2u);
  EXPECT_TRUE(ex.shared_at(a, 1));
  EXPECT_FALSE(ex.shared_at(a, 2));
  EXPECT_TRUE(ex.shared_at(b, 2));
}

class ItpManyPartitionsTest : public ::testing::TestWithParam<int> {};

TEST_P(ItpManyPartitionsTest, ChainedImplicationsLongSequences) {
  // x1 -> x2 -> ... -> xn with x1 asserted in partition 1, each implication
  // in its own partition, and ~xn last: a "BMC-shaped" refutation whose
  // sequence terms should behave like reachability frontiers.
  const unsigned n = 4 + GetParam();
  PartitionedCnf f;
  f.nvars = n;
  f.clauses.push_back({{sat::mk_lit(0)}, 1});
  for (unsigned i = 0; i + 1 < n; ++i)
    f.clauses.push_back({{sat::mk_lit(i, true), sat::mk_lit(i + 1)}, i + 2});
  f.clauses.push_back({{sat::mk_lit(n - 1, true)}, n + 1});
  verify_sequence(f, n + 1);
}

INSTANTIATE_TEST_SUITE_P(Chains, ItpManyPartitionsTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace itpseq
