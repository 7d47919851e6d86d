// arena_test.cpp — flat clause arena, binary watchers, LBD-tiered
// reduce_db and the arena garbage collector.
//
// The GC stress tests force the wasted-bytes threshold near zero and the
// learned-clause cap to its floor, so clause deletion, satisfied-clause
// removal and physical compaction all fire constantly; every verdict,
// failed-assumption core and proof must be unchanged by any of it.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>

#include "sat/proof_check.hpp"
#include "sat/solver.hpp"
#include "sat/tracecheck.hpp"

namespace itpseq::sat {
namespace {

Lit pos(Var v) { return mk_lit(v, false); }
Lit negl(Var v) { return mk_lit(v, true); }

// Random 3-SAT clause set at the given ratio.
std::vector<std::vector<Lit>> random_cnf(std::mt19937& rng, unsigned nvars,
                                         double ratio) {
  std::vector<std::vector<Lit>> cls;
  const unsigned n = static_cast<unsigned>(nvars * ratio);
  for (unsigned c = 0; c < n; ++c) {
    std::vector<Lit> cl;
    while (cl.size() < 3) {
      Lit l = mk_lit(rng() % nvars, rng() % 2);
      bool dup = false;
      for (Lit x : cl)
        if (var(x) == var(l)) dup = true;
      if (!dup) cl.push_back(l);
    }
    cls.push_back(cl);
  }
  return cls;
}

TEST(Arena, BinaryPropagationsCounted) {
  // x0 -> x1 -> ... -> x9 through binary clauses: all implications must be
  // served by the inline binary watchers.
  Solver s;
  Var v[10];
  for (auto& x : v) x = s.new_var();
  for (int i = 0; i + 1 < 10; ++i) s.add_clause({negl(v[i]), pos(v[i + 1])});
  s.add_clause({pos(v[0])});
  EXPECT_EQ(s.solve(), Status::kSat);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(s.model_value(mk_lit(v[i])));
  EXPECT_EQ(s.stats().bin_propagations, s.stats().propagations);
  EXPECT_GE(s.stats().bin_propagations, 9u);
}

TEST(Arena, GlueHistogramPopulated) {
  Solver s;
  s.set_inprocess(false);  // needs real search: learned clauses fill the hist
  std::mt19937 rng(42);
  const unsigned nvars = 30;
  for (unsigned i = 0; i < nvars; ++i) s.new_var();
  for (const auto& cl : random_cnf(rng, nvars, 4.4)) s.add_clause(cl);
  ASSERT_NE(s.solve(), Status::kUnknown);
  std::uint64_t learned = 0;
  for (auto g : s.stats().glue_hist) learned += g;
  EXPECT_GT(learned, 0u);
}

TEST(Arena, RetiredClausesPhysicallyReclaimed) {
  // PDR-style retirement: guarded clauses killed by activation units must
  // be swept (remove_satisfied) and compacted (GC) once enough propagation
  // work has passed.
  Solver s;
  s.set_gc_frac(0.01);
  std::mt19937 rng(7);
  const unsigned nv = 40;
  std::vector<Var> vars;
  for (unsigned i = 0; i < nv; ++i) vars.push_back(s.new_var());
  std::vector<Lit> acts;
  for (int round = 0; round < 600; ++round) {
    Lit act = mk_lit(s.new_var());
    std::vector<Lit> cl{neg(act)};
    for (unsigned k = 0; k < 3 + rng() % 5; ++k)
      cl.push_back(mk_lit(vars[rng() % nv], rng() % 2));
    s.add_clause(cl);
    acts.push_back(act);
    // Retire everything but the newest few almost immediately.
    if (acts.size() > 8) {
      s.add_clause({neg(acts.front())});
      acts.erase(acts.begin());
    }
    std::vector<Lit> as(acts.begin(), acts.end());
    ASSERT_NE(s.solve_assuming(as), Status::kUnknown);
    ASSERT_TRUE(s.ok());
  }
  EXPECT_GT(s.stats().removed_satisfied, 0u);
  EXPECT_GT(s.stats().gc_runs, 0u);
  EXPECT_GT(s.stats().wasted_bytes_reclaimed, 0u);
  // The live formula is ~8 guarded clauses + retire units; the arena must
  // stay far below the ~600-clause high-water mark.
  EXPECT_LT(s.arena_bytes(), 100000u);
}

TEST(Arena, ProofSurvivesReduceAndGc) {
  // Proof-logged UNSAT with the learned cap at its floor and the GC
  // threshold near zero: clause deletion + compaction must never corrupt
  // the resolution chains, and the tracecheck replay must still emit the
  // full refutation.
  std::mt19937 rng(2026);
  unsigned unsat_seen = 0;
  for (int attempt = 0; attempt < 30 && unsat_seen < 5; ++attempt) {
    std::mt19937 inst_rng(1000 + attempt);
    Solver s;
    s.enable_proof();
    s.set_reduce_base(20.0);
    s.set_gc_frac(0.01);
    const unsigned nvars = 26;
    for (unsigned i = 0; i < nvars; ++i) s.new_var();
    for (const auto& cl : random_cnf(inst_rng, nvars, 4.6)) s.add_clause(cl);
    Status st = s.solve();
    ASSERT_NE(st, Status::kUnknown);
    if (st == Status::kSat) {
      EXPECT_TRUE(s.verify_model());
      continue;
    }
    ++unsat_seen;
    auto res = check_proof(s.proof());
    ASSERT_TRUE(res.ok) << res.error;
    std::ostringstream tc;
    write_tracecheck(s.proof(), tc);
    EXPECT_FALSE(tc.str().empty());
  }
  EXPECT_GE(unsat_seen, 5u) << "suite too easy: no UNSAT instances drawn";
}

TEST(Arena, LbdTierReduceDeterminism) {
  // Two identical runs with forced reductions/GC must take the identical
  // search path: the reduce policy is a pure function of (LBD, activity,
  // insertion order).
  auto run = [](SolverStats& out) -> Status {
    std::mt19937 rng(555);
    Solver s;
    s.set_inprocess(false);  // the test targets reduce_db/GC on search paths
    s.set_reduce_base(30.0);
    s.set_gc_frac(0.05);
    const unsigned nvars = 40;
    for (unsigned i = 0; i < nvars; ++i) s.new_var();
    for (const auto& cl : random_cnf(rng, nvars, 4.3)) s.add_clause(cl);
    Status st = s.solve();
    out = s.stats();
    return st;
  };
  SolverStats a, b;
  Status sa = run(a), sb = run(b);
  EXPECT_EQ(sa, sb);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.propagations, b.propagations);
  EXPECT_EQ(a.bin_propagations, b.bin_propagations);
  EXPECT_EQ(a.conflicts, b.conflicts);
  EXPECT_EQ(a.db_reductions, b.db_reductions);
  EXPECT_EQ(a.gc_runs, b.gc_runs);
  EXPECT_EQ(a.glue_hist, b.glue_hist);
  EXPECT_GT(a.db_reductions, 0u) << "reduce_db never fired; test is vacuous";
}

class ArenaStressTest : public ::testing::TestWithParam<int> {};

TEST_P(ArenaStressTest, InterleavedSessionAgreesWithFreshSolver) {
  // Interleave add_clause / activation-literal deletion / solve_assuming
  // with the GC threshold forced low; every verdict and every
  // failed-assumption core must match a fresh, GC-free solver on the same
  // accumulated formula.
  std::mt19937 rng(3100 + GetParam());
  const unsigned nvars = 12 + rng() % 5;
  Solver inc;
  inc.set_gc_frac(0.02);
  inc.set_reduce_base(25.0);
  for (unsigned i = 0; i < nvars; ++i) inc.new_var();
  std::vector<std::vector<Lit>> added;     // mirror of the live formula
  std::vector<Lit> acts;                   // live activation guards
  std::vector<Var> act_vars;               // all act vars ever created

  for (int step = 0; step < 25 && inc.ok(); ++step) {
    // Permanent clauses.
    for (int c = 0; c < 2; ++c) {
      std::vector<Lit> cl;
      unsigned len = 1 + rng() % 3;
      for (unsigned k = 0; k < len; ++k)
        cl.push_back(mk_lit(rng() % nvars, rng() % 2));
      added.push_back(cl);
      inc.add_clause(cl);
    }
    // A guarded clause, sometimes retired again later.
    {
      Lit act = mk_lit(inc.new_var());
      act_vars.push_back(var(act));
      std::vector<Lit> cl{neg(act)};
      unsigned len = 1 + rng() % 3;
      for (unsigned k = 0; k < len; ++k)
        cl.push_back(mk_lit(rng() % nvars, rng() % 2));
      added.push_back(cl);
      inc.add_clause(cl);
      acts.push_back(act);
    }
    if (acts.size() > 3 && rng() % 2 == 0) {
      Lit retire = acts[rng() % acts.size()];
      acts.erase(std::find(acts.begin(), acts.end(), retire));
      added.push_back({neg(retire)});
      inc.add_clause({neg(retire)});
    }

    std::vector<Lit> assumptions;
    for (unsigned v = 0; v < nvars; ++v)
      if (rng() % 4 == 0) assumptions.push_back(mk_lit(v, rng() % 2));
    for (Lit a : acts)
      if (rng() % 2) assumptions.push_back(a);

    Status got = inc.solve_assuming(assumptions);
    ASSERT_NE(got, Status::kUnknown);

    // Reference: fresh solver over the same formula + assumption units.
    auto fresh_solve = [&](const std::vector<Lit>& as) {
      Solver fresh;
      for (unsigned i = 0; i < nvars; ++i) fresh.new_var();
      for (Var av : act_vars) {
        (void)av;
        fresh.new_var();
      }
      for (const auto& cl : added) fresh.add_clause(cl);
      for (Lit a : as) fresh.add_clause({a});
      return fresh.solve();
    };
    Status expected = fresh_solve(assumptions);
    ASSERT_NE(expected, Status::kUnknown);
    EXPECT_EQ(got, expected) << "step " << step;
    if (got == Status::kSat) {
      EXPECT_TRUE(inc.verify_model());
    } else if (inc.ok()) {
      // Core validity: a subset of the assumptions, and itself sufficient.
      const auto& core = inc.failed_assumptions();
      for (Lit l : core)
        EXPECT_NE(std::find(assumptions.begin(), assumptions.end(), l),
                  assumptions.end())
            << "core literal not among the assumptions";
      EXPECT_EQ(fresh_solve(core), Status::kUnsat)
          << "failed-assumption core is not sufficient for the conflict";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sessions, ArenaStressTest, ::testing::Range(0, 30));

TEST(Arena, LearnedTierCountsMatchGlueHistogram) {
  Solver s;
  std::mt19937 rng(99);
  const unsigned nvars = 34;
  for (unsigned i = 0; i < nvars; ++i) s.new_var();
  for (const auto& cl : random_cnf(rng, nvars, 4.3)) s.add_clause(cl);
  ASSERT_NE(s.solve(), Status::kUnknown);
  const SolverStats& st = s.stats();
  EXPECT_EQ(st.learned_core, st.glue_hist[0] + st.glue_hist[1]);
  EXPECT_EQ(st.learned_mid,
            st.glue_hist[2] + st.glue_hist[3] + st.glue_hist[4] + st.glue_hist[5]);
  EXPECT_EQ(st.learned_local, st.glue_hist[6] + st.glue_hist[7]);
  EXPECT_GT(st.learned_core + st.learned_mid + st.learned_local, 0u);
  EXPECT_GT(st.peak_arena_bytes, 0u);
  EXPECT_GE(st.peak_arena_bytes, s.arena_bytes());
}

TEST(Arena, ReduceDbKeepsVerdictsOnPigeonhole) {
  // Forced constant reduction on a real combinatorial UNSAT instance.
  Solver s;
  s.enable_proof();
  s.set_reduce_base(10.0);
  s.set_gc_frac(0.01);
  const int n = 5;  // 6 pigeons, 5 holes
  std::vector<std::vector<Var>> p(n + 1, std::vector<Var>(n));
  for (auto& row : p)
    for (auto& v : row) v = s.new_var();
  for (int i = 0; i <= n; ++i) {
    std::vector<Lit> cl;
    for (int h = 0; h < n; ++h) cl.push_back(pos(p[i][h]));
    s.add_clause(cl, 1);
  }
  for (int h = 0; h < n; ++h)
    for (int i = 0; i <= n; ++i)
      for (int j = i + 1; j <= n; ++j)
        s.add_clause({negl(p[i][h]), negl(p[j][h])}, 2);
  EXPECT_EQ(s.solve(), Status::kUnsat);
  EXPECT_GT(s.stats().db_reductions, 0u);
  auto res = check_proof(s.proof());
  EXPECT_TRUE(res.ok) << res.error;
}

}  // namespace
}  // namespace itpseq::sat
