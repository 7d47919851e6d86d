// sat_test.cpp — unit and property tests for the CDCL solver and its
// resolution proof logging.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

#include "sat/proof_check.hpp"
#include "sat/solver.hpp"

namespace itpseq::sat {

/// White-box access for FailedAssumptionsMatchFullTrailWalk: builds the
/// trail solve_assuming has when an assumption turns out false, so the
/// solver's bounded walk and a full-trail reference walk read one trail.
struct SolverWhiteBox {
  /// Decide `as` in order, one level each, propagating before each, as
  /// solve_assuming does before its first branch.  Returns the first
  /// assumption found false, or kNoLit (none is, or propagation conflicts).
  static Lit decide(Solver& s, const std::vector<Lit>& as) {
    s.backtrack(0);
    for (Lit a : as) {
      if (s.propagate() != Solver::kNoCRef) return kNoLit;
      if (s.value(a) == LBool::kFalse) return a;
      s.trail_lim_.push_back(static_cast<std::uint32_t>(s.trail_.size()));
      if (s.value(a) == LBool::kUndef) s.enqueue(a, Solver::kNoCRef);
    }
    return kNoLit;
  }

  /// The unbounded walk: every trail position from the top down to 0.
  static std::vector<Lit> reference(Solver& s, Lit failed) {
    std::vector<Lit> out{failed};
    std::vector<char> seen(s.num_vars(), 0);
    seen[var(failed)] = 1;
    for (std::size_t i = s.trail_.size(); i-- > 0;) {
      const Var v = var(s.trail_[i]);
      if (!seen[v]) continue;
      const Solver::CRef r = s.var_data_[v].reason;
      if (r == Solver::kNoCRef) {
        if (s.trail_[i] != failed) out.push_back(s.trail_[i]);
      } else {
        for (Lit q : s.cls(r))
          if (var(q) != v) seen[var(q)] = 1;
      }
      seen[v] = 0;
    }
    return out;
  }

  /// The solver's own walk; also reports whether it left a mark behind.
  static std::vector<Lit> analyze(Solver& s, Lit failed, bool& marks_left) {
    s.analyze_assumption(failed);
    marks_left = std::any_of(s.seen_.begin(), s.seen_.end(),
                             [](std::uint8_t m) { return m != 0; });
    s.backtrack(0);
    return s.failed_assumptions();
  }
};

namespace {

Lit pos(Var v) { return mk_lit(v, false); }
Lit negl(Var v) { return mk_lit(v, true); }

TEST(Sat, TrivialSat) {
  Solver s;
  Var a = s.new_var();
  s.add_clause({pos(a)});
  EXPECT_EQ(s.solve(), Status::kSat);
  EXPECT_TRUE(s.model_value(pos(a)));
  EXPECT_TRUE(s.verify_model());
}

TEST(Sat, TrivialUnsat) {
  Solver s;
  s.enable_proof();
  Var a = s.new_var();
  s.add_clause({pos(a)});
  s.add_clause({negl(a)});
  EXPECT_EQ(s.solve(), Status::kUnsat);
  auto res =
      check_proof(s.proof(), s.proof().final_id(), {{pos(a)}, {negl(a)}});
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(Sat, EmptyClauseUnsat) {
  Solver s;
  s.enable_proof();
  (void)s.new_var();
  EXPECT_FALSE(s.add_clause({}));
  EXPECT_EQ(s.solve(), Status::kUnsat);
  EXPECT_TRUE(check_proof(s.proof()).ok);
}

TEST(Sat, TautologyIgnored) {
  Solver s;
  Var a = s.new_var();
  s.add_clause({pos(a), negl(a)});
  EXPECT_EQ(s.solve(), Status::kSat);
}

TEST(Sat, DuplicateLiteralsDeduped) {
  Solver s;
  Var a = s.new_var(), b = s.new_var();
  s.add_clause({pos(a), pos(a), pos(b)});
  s.add_clause({negl(a)});
  s.add_clause({negl(b), pos(a)});
  EXPECT_EQ(s.solve(), Status::kUnsat);
}

TEST(Sat, PigeonHole3) {
  // 4 pigeons, 3 holes: classic small UNSAT with a nontrivial proof.
  Solver s;
  s.enable_proof();
  Var p[4][3];
  for (auto& row : p)
    for (auto& v : row) v = s.new_var();
  std::vector<std::vector<Lit>> cls;
  for (int i = 0; i < 4; ++i) {
    cls.push_back({pos(p[i][0]), pos(p[i][1]), pos(p[i][2])});
    s.add_clause(cls.back(), i);
  }
  for (int h = 0; h < 3; ++h)
    for (int i = 0; i < 4; ++i)
      for (int j = i + 1; j < 4; ++j) {
        cls.push_back({negl(p[i][h]), negl(p[j][h])});
        s.add_clause(cls.back(), 7);
      }
  EXPECT_EQ(s.solve(), Status::kUnsat);
  auto res = check_proof(s.proof(), s.proof().final_id(), cls);
  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_GT(s.proof().core().size(), 5u);
}

TEST(Sat, ConflictBudgetReturnsUnknown) {
  // A hard instance with a 0-conflict budget must come back unknown.
  Solver s;
  Var v[10];
  for (auto& x : v) x = s.new_var();
  std::mt19937 rng(3);
  for (int c = 0; c < 42; ++c) {
    std::vector<Lit> cl;
    for (int k = 0; k < 3; ++k) cl.push_back(mk_lit(v[rng() % 10], rng() % 2));
    s.add_clause(cl);
  }
  Budget b;
  b.conflicts = 1;
  Status st = s.solve(b);
  EXPECT_TRUE(st == Status::kUnknown || st == Status::kSat ||
              st == Status::kUnsat);  // tiny instances may finish anyway
}

// Brute-force reference: enumerate all assignments.
bool brute_force_sat(unsigned nvars, const std::vector<std::vector<Lit>>& cls) {
  for (std::uint64_t m = 0; m < (1ull << nvars); ++m) {
    bool all = true;
    for (const auto& c : cls) {
      bool sat = false;
      for (Lit l : c)
        if (((m >> var(l)) & 1) != sign(l)) {
          sat = true;
          break;
        }
      if (!sat) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

class SatRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SatRandomTest, MatchesBruteForceAndProofsCheck) {
  std::mt19937 rng(GetParam());
  const unsigned nvars = 8 + rng() % 6;  // 8..13
  const unsigned nclauses =
      static_cast<unsigned>(nvars * (3.5 + (rng() % 20) / 10.0));
  std::vector<std::vector<Lit>> cls;
  Solver s;
  s.enable_proof();
  for (unsigned i = 0; i < nvars; ++i) s.new_var();
  for (unsigned c = 0; c < nclauses; ++c) {
    unsigned len = 1 + rng() % 4;
    std::vector<Lit> cl;
    for (unsigned k = 0; k < len; ++k)
      cl.push_back(mk_lit(rng() % nvars, rng() % 2));
    cls.push_back(cl);
    s.add_clause(cl, c % 5);
  }
  bool expected = brute_force_sat(nvars, cls);
  Status st = s.solve();
  ASSERT_NE(st, Status::kUnknown);
  EXPECT_EQ(st == Status::kSat, expected);
  if (st == Status::kSat) {
    EXPECT_TRUE(s.verify_model());
  } else {
    auto res = check_proof(s.proof(), s.proof().final_id(), cls);
    EXPECT_TRUE(res.ok) << res.error;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomCnf, SatRandomTest, ::testing::Range(0, 60));

class SatHardRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SatHardRandomTest, Random3SatNearThreshold) {
  // 3-SAT at clause/var ratio ~4.26 (the hard region), larger sizes; the
  // solver must agree with brute force and produce checkable proofs.
  std::mt19937 rng(1000 + GetParam());
  const unsigned nvars = 14 + rng() % 5;  // 14..18
  const unsigned nclauses = static_cast<unsigned>(nvars * 4.26);
  std::vector<std::vector<Lit>> cls;
  Solver s;
  s.enable_proof();
  for (unsigned i = 0; i < nvars; ++i) s.new_var();
  for (unsigned c = 0; c < nclauses; ++c) {
    std::vector<Lit> cl;
    while (cl.size() < 3) {
      Lit l = mk_lit(rng() % nvars, rng() % 2);
      bool dup = false;
      for (Lit x : cl)
        if (var(x) == var(l)) dup = true;
      if (!dup) cl.push_back(l);
    }
    cls.push_back(cl);
    s.add_clause(cl, c);
  }
  bool expected = brute_force_sat(nvars, cls);
  Status st = s.solve();
  ASSERT_NE(st, Status::kUnknown);
  EXPECT_EQ(st == Status::kSat, expected);
  if (st == Status::kSat) {
    EXPECT_TRUE(s.verify_model());
  } else {
    auto res = check_proof(s.proof(), s.proof().final_id(), cls);
    EXPECT_TRUE(res.ok) << res.error;
  }
}

INSTANTIATE_TEST_SUITE_P(Hard3Sat, SatHardRandomTest, ::testing::Range(0, 25));

TEST(Sat, UnitPropagationChain) {
  // x0 -> x1 -> ... -> x9, then force ~x9: UNSAT with a long level-0 chain.
  Solver s;
  s.enable_proof();
  Var v[10];
  for (auto& x : v) x = s.new_var();
  for (int i = 0; i + 1 < 10; ++i) s.add_clause({negl(v[i]), pos(v[i + 1])}, i);
  s.add_clause({pos(v[0])}, 20);
  s.add_clause({negl(v[9])}, 21);
  EXPECT_EQ(s.solve(), Status::kUnsat);
  auto res = check_proof(s.proof());
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(Sat, ManySolveCallsStatsAccumulate) {
  Solver s;
  Var a = s.new_var(), b = s.new_var();
  s.add_clause({pos(a), pos(b)});
  EXPECT_EQ(s.solve(), Status::kSat);
  std::uint64_t d1 = s.stats().decisions;
  EXPECT_EQ(s.solve(), Status::kSat);
  EXPECT_GE(s.stats().decisions, d1);
}

TEST(Sat, ProofLabelsPreserved) {
  Solver s;
  s.enable_proof();
  Var a = s.new_var();
  s.add_clause({pos(a)}, 17);
  s.add_clause({negl(a)}, 42);
  EXPECT_EQ(s.solve(), Status::kUnsat);
  const Proof& p = s.proof();
  bool saw17 = false, saw42 = false;
  for (ClauseId id : p.core()) {
    if (!p.is_original(id)) continue;
    if (p.label(id) == 17) saw17 = true;
    if (p.label(id) == 42) saw42 = true;
  }
  EXPECT_TRUE(saw17);
  EXPECT_TRUE(saw42);
}

TEST(Sat, FailedAssumptionsMatchFullTrailWalk) {
  // Random 3-CNF with some units (level-0 reasons), solved a few times
  // first so that learned clauses serve as reasons too.  Then random
  // assumption lists are decided until one is false, and the bounded walk
  // must return exactly what the full-trail walk returns, in order.
  unsigned compared = 0, deep = 0;
  for (int seed = 0; seed < 40; ++seed) {
    std::mt19937 rng(700 + seed);
    const unsigned nvars = 30 + rng() % 20;
    Solver s;
    s.set_inprocess(false);
    for (unsigned i = 0; i < nvars; ++i) s.new_var();
    const unsigned ncls = nvars * 3;
    for (unsigned c = 0; c < ncls; ++c) {
      const unsigned len = c % 60 == 0 ? 1 : c % 5 == 0 ? 2 : 3;
      std::vector<Lit> cl;
      for (unsigned k = 0; k < len; ++k)
        cl.push_back(mk_lit(rng() % nvars, rng() % 2));
      s.add_clause(cl);
    }
    auto random_assumptions = [&] {
      std::vector<Lit> as;
      const unsigned n = 4 + rng() % 16;
      for (unsigned k = 0; k < n; ++k)
        as.push_back(mk_lit(rng() % nvars, rng() % 2));
      return as;
    };
    for (int q = 0; q < 4 && s.ok(); ++q)
      s.solve_assuming(random_assumptions());
    for (int q = 0; q < 60 && s.ok(); ++q) {
      const std::vector<Lit> as = random_assumptions();
      const Lit failed = SolverWhiteBox::decide(s, as);
      if (failed == kNoLit) continue;
      const std::vector<Lit> want = SolverWhiteBox::reference(s, failed);
      bool marks_left = false;
      EXPECT_EQ(SolverWhiteBox::analyze(s, failed, marks_left), want)
          << "seed " << seed << ", query " << q;
      EXPECT_FALSE(marks_left) << "seed " << seed << ", query " << q;
      ++compared;
      if (want.size() > 2) ++deep;
    }
  }
  // Not vacuous: many failures, some of them resting on several assumptions.
  EXPECT_GT(compared, 200u);
  EXPECT_GT(deep, 20u);
}

TEST(Sat, CoreFollowsTheFinalAskedFor) {
  // Two queries refuted from disjoint clauses: asking for one core, then
  // the other, then the first again must return each query's own core,
  // with core_position matching the returned order.
  Solver s;
  s.enable_proof();
  s.set_inprocess(false);
  Var a = s.new_var(), b = s.new_var(), c = s.new_var(), d = s.new_var();
  s.add_clause({pos(a), pos(b)}, 1);
  s.add_clause({negl(a), pos(b)}, 1);
  s.add_clause({negl(c), pos(d)}, 2);
  s.add_clause({negl(c), negl(d)}, 2);
  ASSERT_EQ(s.solve_assuming({negl(b)}), Status::kUnsat);
  const ClauseId first = s.proof().final_id();
  ASSERT_EQ(s.solve_assuming({pos(c)}), Status::kUnsat);
  const ClauseId second = s.proof().final_id();
  const Proof& p = s.proof();
  auto labels = [&](ClauseId f) {
    std::vector<std::uint32_t> out;
    const std::vector<ClauseId>& order = p.core(f);
    for (std::size_t i = 0; i < order.size(); ++i) {
      EXPECT_EQ(p.core_position(order[i]), i);
      if (p.is_original(order[i]) && p.literals(order[i]).size() > 1)
        out.push_back(p.label(order[i]));
    }
    return out;
  };
  EXPECT_EQ(labels(first), (std::vector<std::uint32_t>{1, 1}));
  EXPECT_EQ(labels(second), (std::vector<std::uint32_t>{2, 2}));
  EXPECT_EQ(labels(first), (std::vector<std::uint32_t>{1, 1}));
  EXPECT_EQ(p.core(second).back(), second);
}

// --- the proof oracle rejects bad logs ---------------------------------------
//
// Hand-built logs over x0, x1 from the originals A = (x0 | x1),
// B = (~x0 | x1) and C = (~x1): A and B resolve on x0 to (x1), which
// resolves with C on x1 to the empty clause.

struct SmallLog {
  Proof proof;
  ClauseId a, b, c;
  std::vector<std::vector<Lit>> formula{
      {pos(0), pos(1)}, {negl(0), pos(1)}, {negl(1)}};
  SmallLog()
      : a(proof.add_original(std::vector<Lit>{pos(0), pos(1)}, 0)),
        b(proof.add_original(std::vector<Lit>{negl(0), pos(1)}, 0)),
        c(proof.add_original(std::vector<Lit>{negl(1)}, 1)) {}
};

void expect_rejected(const ProofCheckResult& r, const std::string& why) {
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find(why), std::string::npos) << r.error;
}

TEST(ProofCheck, AcceptsAValidRefutation) {
  SmallLog log;
  const ClauseId x1 = log.proof.add_learned(std::vector<Lit>{pos(1)},
                                            {{log.a, log.b}, {0}});
  const ClauseId final = log.proof.set_final({{x1, log.c}, {1}});
  auto r = check_proof(log.proof, final);
  EXPECT_TRUE(r.ok) << r.error;
  // Leaves match as literal sets: order and duplicates do not matter.
  log.formula[0] = {pos(1), pos(0), pos(1)};
  r = check_proof(log.proof, final, log.formula);
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(ProofCheck, RejectsForeignLeaf) {
  // The log's A lost a literal the formula has: the chains still replay,
  // but they refute a different formula.
  SmallLog log;
  log.formula[0].push_back(pos(2));
  const ClauseId final = log.proof.set_final({{log.a, log.b, log.c}, {0, 1}});
  EXPECT_TRUE(check_proof(log.proof, final).ok);
  expect_rejected(check_proof(log.proof, final, log.formula),
                  "is not in the formula");
  // A leaf the formula lacks altogether.
  log.formula.erase(log.formula.begin() + 1);
  expect_rejected(check_proof(log.proof, final, log.formula),
                  "is not in the formula");
}

TEST(ProofCheck, RejectsPivotThatDoesNotClash) {
  SmallLog log;
  // A and C do not clash on x0.
  const ClauseId final = log.proof.set_final({{log.a, log.c}, {0}});
  expect_rejected(check_proof(log.proof, final), "invalid resolution on var 0");
}

TEST(ProofCheck, RejectsChainDerivingAnotherClause) {
  SmallLog log;
  // A and B resolve to (x1), not to the recorded (x0).
  const ClauseId x0 = log.proof.add_learned(std::vector<Lit>{pos(0)},
                                            {{log.a, log.b}, {0}});
  const ClauseId final = log.proof.set_final({{x0, log.c}, {1}});
  expect_rejected(check_proof(log.proof, final), "but recorded");
}

TEST(ProofCheck, RejectsFinalThatIsNotEmpty) {
  SmallLog log;
  // A final chain that stops at (x1).
  const ClauseId short_final = log.proof.set_final({{log.a, log.b}, {0}});
  expect_rejected(check_proof(log.proof, short_final), "but recorded {}");
  // A learned clause asked for as the final.
  const ClauseId x1 = log.proof.add_learned(std::vector<Lit>{pos(1)},
                                            {{log.a, log.b}, {0}});
  expect_rejected(check_proof(log.proof, x1),
                  "final chain does not derive the empty clause");
}

TEST(ProofCheck, RejectsNoFinal) {
  SmallLog log;
  expect_rejected(check_proof(log.proof), "no final chain");
  expect_rejected(check_proof(log.proof, kNoClauseId, log.formula),
                  "no final chain");
}

TEST(Sat, EnableProofAfterClausesThrows) {
  Solver s;
  Var a = s.new_var();
  s.add_clause({pos(a)});
  EXPECT_THROW(s.enable_proof(), std::logic_error);
}

}  // namespace
}  // namespace itpseq::sat
