// drat_test.cpp — DRAT export from logged resolution proofs, and the
// independent forward RUP checker.
//
// Every UNSAT solver run must export a DRAT proof that the independent
// checker accepts; corrupted proofs (bogus clause, missing suffix, bad
// deletion) must be rejected.
#include <gtest/gtest.h>

#include <random>
#include <span>
#include <sstream>

#include "cnf/unroller.hpp"
#include "bench_circuits/generators.hpp"
#include "sat/drat.hpp"
#include "sat/solver.hpp"

namespace itpseq {
namespace {

using Cnf = std::vector<std::vector<sat::Lit>>;

/// Solve; returns true + DRAT text via `drat` when UNSAT.
bool refute_to_drat(unsigned nvars, const Cnf& cnf, std::string& drat) {
  sat::Solver s;
  s.enable_proof();
  for (unsigned i = 0; i < nvars; ++i) s.new_var();
  for (const auto& c : cnf) s.add_clause(c);
  if (s.solve() != sat::Status::kUnsat) return false;
  std::ostringstream out;
  sat::write_drat(s.proof(), out);
  drat = out.str();
  return true;
}

sat::DratCheckResult check(unsigned nvars, const Cnf& cnf,
                           const std::string& drat) {
  std::istringstream in(drat);
  return sat::check_drat(nvars, cnf, in);
}

TEST(Drat, TrivialContradiction) {
  Cnf cnf = {{sat::mk_lit(0)}, {sat::mk_lit(0, true)}};
  std::string drat;
  ASSERT_TRUE(refute_to_drat(1, cnf, drat));
  sat::DratCheckResult r = check(1, cnf, drat);
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(Drat, PigeonholePrinciple) {
  // PHP(4,3): 4 pigeons in 3 holes — classically hard, small proof here.
  const unsigned pigeons = 4, holes = 3;
  auto v = [&](unsigned p, unsigned h) { return p * holes + h; };
  Cnf cnf;
  for (unsigned p = 0; p < pigeons; ++p) {
    std::vector<sat::Lit> c;
    for (unsigned h = 0; h < holes; ++h) c.push_back(sat::mk_lit(v(p, h)));
    cnf.push_back(c);
  }
  for (unsigned h = 0; h < holes; ++h)
    for (unsigned p1 = 0; p1 < pigeons; ++p1)
      for (unsigned p2 = p1 + 1; p2 < pigeons; ++p2)
        cnf.push_back(
            {sat::mk_lit(v(p1, h), true), sat::mk_lit(v(p2, h), true)});
  std::string drat;
  ASSERT_TRUE(refute_to_drat(pigeons * holes, cnf, drat));
  sat::DratCheckResult r = check(pigeons * holes, cnf, drat);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_GT(r.additions, 0u);
}

class DratRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(DratRandomTest, ExportedProofsVerify) {
  std::mt19937 rng(GetParam());
  unsigned nvars = 6 + rng() % 10;
  unsigned nclauses = static_cast<unsigned>(nvars * 4.6);
  Cnf cnf;
  for (unsigned c = 0; c < nclauses; ++c) {
    unsigned len = 1 + rng() % 3;
    std::vector<sat::Lit> cl;
    for (unsigned k = 0; k < len; ++k)
      cl.push_back(sat::mk_lit(rng() % nvars, rng() % 2));
    cnf.push_back(cl);
  }
  std::string drat;
  if (!refute_to_drat(nvars, cnf, drat)) GTEST_SKIP() << "satisfiable draw";
  sat::DratCheckResult r = check(nvars, cnf, drat);
  EXPECT_TRUE(r.ok) << r.error;
}

INSTANTIATE_TEST_SUITE_P(Random, DratRandomTest, ::testing::Range(0, 60));

TEST(Drat, BmcProofsVerify) {
  // End-to-end: an UNSAT BMC instance of a suite circuit exports a
  // checkable DRAT proof.
  // Input-driven circuit so unit propagation alone cannot refute the
  // instance (the solver must actually search and learn).
  aig::Aig g = bench::queue(5, true);  // PASS property
  sat::Solver s;
  s.set_inprocess(false);  // the point is search-learned clauses in the DRAT
  s.enable_proof();
  cnf::Unroller unr(g, s);
  unr.assert_init(1);
  for (unsigned t = 0; t < 6; ++t) unr.add_transition(t, t + 1);
  s.add_clause({unr.bad_lit(6, 7)}, 7);
  ASSERT_EQ(s.solve(), sat::Status::kUnsat);
  ASSERT_GT(s.stats().conflicts, 0u) << "instance too easy for this test";
  std::ostringstream out;
  sat::write_drat(s.proof(), out);
  // Reconstruct the original clause list from the proof (labels are not
  // needed for DRAT checking).
  Cnf cnf;
  unsigned nvars = static_cast<unsigned>(s.num_vars());
  const sat::Proof& p = s.proof();
  for (sat::ClauseId id = 0; id < p.size(); ++id)
    if (p.is_original(id)) {
      std::span<const sat::Lit> lits = p.literals(id);
      cnf.push_back({lits.begin(), lits.end()});
    }
  std::istringstream in(out.str());
  sat::DratCheckResult r = sat::check_drat(nvars, cnf, in);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_GT(r.additions, 0u);
}

TEST(Drat, RejectsNonRupAddition) {
  Cnf cnf = {{sat::mk_lit(0), sat::mk_lit(1)}};
  // "1 0" claims unit x0 is implied — it is not.
  std::string bogus = "1 0\n0\n";
  sat::DratCheckResult r = check(2, cnf, bogus);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("not RUP"), std::string::npos);
}

TEST(Drat, RejectsTruncatedProof) {
  Cnf cnf = {{sat::mk_lit(0)},
             {sat::mk_lit(0, true), sat::mk_lit(1)},
             {sat::mk_lit(1, true)}};
  // Valid intermediate step but no empty clause.
  std::string truncated = "2 0\n";
  sat::DratCheckResult r = check(2, cnf, truncated);
  // Adding unit x1 to this formula yields a level-0 conflict (x1 and ~x1),
  // so the checker legitimately completes early; use a formula where the
  // prefix does NOT close the proof.
  EXPECT_TRUE(r.ok);  // settle() finds the conflict — still a refutation
  Cnf open_cnf = {{sat::mk_lit(0), sat::mk_lit(1)},
                  {sat::mk_lit(0), sat::mk_lit(1, true)},
                  {sat::mk_lit(0, true), sat::mk_lit(2)}};
  sat::DratCheckResult r2 = check(3, open_cnf, "1 0\n");
  EXPECT_FALSE(r2.ok);
  EXPECT_NE(r2.error.find("without deriving"), std::string::npos);
}

TEST(Drat, DeletionLines) {
  // UNSAT but not by unit propagation alone:
  //   (x0|x1)(x0|~x1)(~x0|x2)(~x0|~x2), plus a redundant (x0|x2).
  Cnf cnf = {{sat::mk_lit(0), sat::mk_lit(1)},
             {sat::mk_lit(0), sat::mk_lit(1, true)},
             {sat::mk_lit(0, true), sat::mk_lit(2)},
             {sat::mk_lit(0, true), sat::mk_lit(2, true)},
             {sat::mk_lit(0), sat::mk_lit(2)}};
  // Harmless deletion of the redundant clause, then a valid refutation:
  // x0 is RUP, and with x0 the two x2 clauses conflict.
  sat::DratCheckResult r = check(3, cnf, "d 1 3 0\n1 0\n0\n");
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.deletions, 1u);
  // Adding x0 already yields a level-0 conflict, so the checker closes the
  // proof before reading the final "0" line.
  EXPECT_EQ(r.additions, 1u);
  // Deleting a clause the proof needs invalidates the next addition.
  sat::DratCheckResult r2 = check(3, cnf, "d 1 -2 0\nd 1 3 0\n1 0\n0\n");
  EXPECT_FALSE(r2.ok);
  EXPECT_EQ(r2.deletions, 2u);
  EXPECT_NE(r2.error.find("not RUP"), std::string::npos);
  // Deleting a clause that was never added must be rejected.
  sat::DratCheckResult r3 = check(3, cnf, "d 1 -3 0\n0\n");
  EXPECT_FALSE(r3.ok);
  EXPECT_NE(r3.error.find("deletion"), std::string::npos);
}

TEST(Drat, IncompleteProofThrowsOnExport) {
  sat::Solver s;
  s.enable_proof();
  s.new_var();
  s.add_clause({sat::mk_lit(0)});
  ASSERT_EQ(s.solve(), sat::Status::kSat);
  std::ostringstream out;
  EXPECT_THROW(sat::write_drat(s.proof(), out), std::invalid_argument);
}

}  // namespace
}  // namespace itpseq
