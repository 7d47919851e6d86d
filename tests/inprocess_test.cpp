// inprocess_test.cpp — in-solver simplification (subsumption, BVE,
// vivification, probing) under proof logging: verdict crosschecks against
// untouched solvers, model extension over eliminated variables, proof
// replay + DRAT/tracecheck export on UNSAT, the freeze/restore contract for
// assumptions and late add_clause, and the rule that schedules rounds (paid
// for by reuse or by search).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <sstream>
#include <thread>

#include "sat/drat.hpp"
#include "sat/proof_check.hpp"
#include "sat/solver.hpp"
#include "sat/tracecheck.hpp"

namespace itpseq::sat {
namespace {

Lit pos(Var v) { return mk_lit(v, false); }
Lit negl(Var v) { return mk_lit(v, true); }

std::vector<std::vector<Lit>> random_cnf(std::mt19937& rng, unsigned nvars,
                                         double ratio) {
  std::vector<std::vector<Lit>> cls;
  const unsigned n = static_cast<unsigned>(nvars * ratio);
  for (unsigned c = 0; c < n; ++c) {
    unsigned len = 1 + rng() % 4;
    std::vector<Lit> cl;
    for (unsigned k = 0; k < len; ++k)
      cl.push_back(mk_lit(rng() % nvars, rng() % 2));
    cls.push_back(cl);
  }
  return cls;
}

bool model_satisfies(const std::vector<LBool>& model,
                     const std::vector<std::vector<Lit>>& cls) {
  for (const auto& c : cls) {
    bool sat = false;
    for (Lit l : c)
      if (lbool_xor(model[var(l)], sign(l)) == LBool::kTrue) {
        sat = true;
        break;
      }
    if (!sat) return false;
  }
  return true;
}

/// Crosscheck harness: solve `cls` with inprocessing forced on every entry
/// and with it disabled; verdicts must agree, SAT models (extended over
/// eliminated vars) must satisfy the ORIGINAL clauses, and UNSAT proofs
/// must replay, DRAT-check and export to tracecheck.  `on_stats`, if given,
/// receives the inprocessing solver's counters.
void crosscheck(const std::vector<std::vector<Lit>>& cls, unsigned nvars,
                SolverStats* on_stats = nullptr) {
  Solver on, off;
  on.set_inprocess_interval(0);  // a round at every entry and restart
  off.set_inprocess(false);
  on.enable_proof();
  off.enable_proof();
  for (unsigned i = 0; i < nvars; ++i) {
    on.new_var();
    off.new_var();
  }
  for (const auto& c : cls) {
    on.add_clause(c);
    off.add_clause(c);
  }
  Status son = on.solve(), soff = off.solve();
  if (on_stats != nullptr) *on_stats = on.stats();
  ASSERT_NE(son, Status::kUnknown);
  ASSERT_EQ(son, soff) << "inprocessing changed the verdict";
  if (son == Status::kSat) {
    EXPECT_TRUE(model_satisfies(on.model(), cls))
        << "extended model violates an original clause";
    EXPECT_TRUE(on.verify_model());
  } else {
    auto pc = check_proof(on.proof());
    EXPECT_TRUE(pc.ok) << pc.error;
    // Independent RUP check of the exported DRAT against the originals.
    std::ostringstream drat;
    write_drat(on.proof(), drat);
    std::istringstream in(drat.str());
    auto dc = check_drat(nvars, cls, in);
    EXPECT_TRUE(dc.ok) << dc.error;
    std::ostringstream tc;
    write_tracecheck(on.proof(), tc);
    EXPECT_FALSE(tc.str().empty());
  }
}

class InprocessFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(InprocessFuzzTest, VerdictModelAndProofAgree) {
  std::mt19937 rng(3000 + GetParam());
  const unsigned nvars = 10 + rng() % 15;
  const double ratio = 2.5 + (rng() % 30) / 10.0;  // spans SAT and UNSAT
  auto cls = random_cnf(rng, nvars, ratio);
  crosscheck(cls, nvars);
}

INSTANTIATE_TEST_SUITE_P(RandomCnf, InprocessFuzzTest, ::testing::Range(0, 80));

TEST(Inprocess, UnsatDerivedDuringElimination) {
  // (x|y)(x|~y)(~x|y)(~x|~y): BVE on x yields the resolvents (y) and (~y);
  // integrating the second falsifies it at level 0 — the refutation is
  // derived entirely inside the inprocessing round, before any search.
  Solver s;
  s.set_inprocess_interval(0);
  s.enable_proof();
  Var x = s.new_var(), y = s.new_var();
  s.add_clause({pos(x), pos(y)});
  s.add_clause({pos(x), negl(y)});
  s.add_clause({negl(x), pos(y)});
  s.add_clause({negl(x), negl(y)});
  EXPECT_EQ(s.solve(), Status::kUnsat);
  auto pc = check_proof(s.proof());
  EXPECT_TRUE(pc.ok) << pc.error;
  std::ostringstream tc;
  write_tracecheck(s.proof(), tc);
  EXPECT_FALSE(tc.str().empty());
}

TEST(Inprocess, XorChainRefutedByElimination) {
  // XOR-style binaries: no clause subsumes or self-subsumes another, so the
  // contradiction only surfaces once variable elimination starts resolving.
  // Eliminating v leaves (a|~b) and (b|~a); eliminating a then yields the
  // units (b) and (~b).
  Solver s;
  s.set_inprocess_interval(0);
  s.enable_proof();
  const Var v = s.new_var(), a = s.new_var(), b = s.new_var();
  s.add_clause({pos(v), pos(a)});
  s.add_clause({pos(v), pos(b)});
  s.add_clause({negl(v), negl(a)});
  s.add_clause({negl(v), negl(b)});
  s.add_clause({pos(a), pos(b)});
  s.add_clause({negl(a), negl(b)});
  EXPECT_EQ(s.solve(), Status::kUnsat);
  EXPECT_EQ(s.stats().subsumed + s.stats().strengthened, 0u);
  EXPECT_GE(s.stats().vars_eliminated, 1u);
  auto pc = check_proof(s.proof());
  EXPECT_TRUE(pc.ok) << pc.error;
}

class InprocessSubsumeStressTest : public ::testing::TestWithParam<int> {};

TEST_P(InprocessSubsumeStressTest, RemovalDuringIterationStaysSound) {
  // Engineered for dense subsumption: every base clause gets random
  // supersets (subsumption deletes them mid-sweep) and a one-flipped-literal
  // variant (self-subsumption strengthens it), so the round keeps deleting
  // and rewriting clauses — and the occurrence lists it iterates — while it
  // sweeps.
  std::mt19937 rng(7100 + GetParam());
  const unsigned nvars = 6 + rng() % 5;
  auto rnd_lit = [&] { return mk_lit(rng() % nvars, rng() % 2); };
  std::vector<std::vector<Lit>> cls;
  const unsigned nbase = 4 + rng() % 5;
  for (unsigned bi = 0; bi < nbase; ++bi) {
    // No units and no repeated variable: level-0 propagation must not
    // satisfy the supersets before the subsumption sweep sees them.
    std::vector<Lit> base;
    unsigned len = 2 + rng() % 2;
    while (base.size() < len) {
      Lit l = rnd_lit();
      if (std::none_of(base.begin(), base.end(),
                       [&](Lit x) { return var(x) == var(l); }))
        base.push_back(l);
    }
    cls.push_back(base);
    for (unsigned sup = 0; sup < 2 + rng() % 3; ++sup) {
      std::vector<Lit> d = base;
      for (unsigned k = 0; k < 1 + rng() % 3; ++k) d.push_back(rnd_lit());
      cls.push_back(d);
    }
    std::vector<Lit> f = base;
    std::size_t fi = rng() % f.size();
    f[fi] = neg(f[fi]);
    f.push_back(rnd_lit());
    cls.push_back(f);
  }
  std::shuffle(cls.begin(), cls.end(), rng);
  SolverStats st;
  crosscheck(cls, nvars, &st);
  // The supersets guarantee the sweep actually removed during iteration.
  EXPECT_GT(st.subsumed + st.strengthened, 0u);
}

INSTANTIATE_TEST_SUITE_P(DenseSubsumption, InprocessSubsumeStressTest,
                         ::testing::Range(0, 40));

TEST(Inprocess, SubsumptionAndStrengtheningCounted) {
  // Freeze everything so BVE cannot erase the evidence: (a|b) subsumes
  // (a|b|c) and self-subsumes (a|~b|c) down to (a|c).
  Solver s;
  s.set_inprocess_interval(0);
  s.enable_proof();
  Var a = s.new_var(), b = s.new_var(), c = s.new_var();
  for (Var v : {a, b, c}) s.freeze(v);
  s.add_clause({pos(a), pos(b)});
  s.add_clause({pos(a), pos(b), pos(c)});
  s.add_clause({pos(a), negl(b), pos(c)});
  EXPECT_EQ(s.solve(), Status::kSat);
  EXPECT_GE(s.stats().subsumed, 1u);
  EXPECT_GE(s.stats().strengthened, 1u);
  EXPECT_GE(s.stats().inprocess_rounds, 1u);
  EXPECT_TRUE(model_satisfies(
      s.model(), {{pos(a), pos(b)}, {pos(a), pos(b), pos(c)},
                  {pos(a), negl(b), pos(c)}}));
}

TEST(Inprocess, FailedLiteralProbeDerivesUnit) {
  // Two-step implication chain x -> y -> z against (~x|~z): no pair of these
  // binaries subsumes or strengthens another, and all vars are frozen (no
  // BVE) — only probing x walks the chain to the conflict, so the failed
  // literal installs unit ~x.
  Solver s;
  s.set_inprocess_interval(0);
  s.enable_proof();
  Var x = s.new_var(), y = s.new_var(), z = s.new_var();
  for (Var v : {x, y, z}) s.freeze(v);
  s.add_clause({negl(x), pos(y)});
  s.add_clause({negl(y), pos(z)});
  s.add_clause({negl(x), negl(z)});
  EXPECT_EQ(s.solve(), Status::kSat);
  EXPECT_GE(s.stats().probed, 1u);
  EXPECT_GE(s.stats().failed_literals, 1u);
  EXPECT_FALSE(s.model_value(pos(x)));
}

TEST(Inprocess, VivificationShortensClause) {
  // The chain x -> y -> z makes the ~z literal of (~x|~z|w) redundant, but
  // the two-step implication is invisible to self-subsuming resolution (no
  // single resolution partner exists).  Vivifying the clause propagates x,
  // hits z's reason chain, and strengthens it to (~x|w).  Vars frozen so
  // BVE stays out of the way.
  Solver s;
  s.set_inprocess_interval(0);
  s.enable_proof();
  Var x = s.new_var(), y = s.new_var(), z = s.new_var(), w = s.new_var();
  for (Var v : {x, y, z, w}) s.freeze(v);
  s.add_clause({negl(x), pos(y)});
  s.add_clause({negl(y), pos(z)});
  s.add_clause({negl(x), negl(z), pos(w)});
  EXPECT_EQ(s.solve(), Status::kSat);
  EXPECT_GE(s.stats().vivified, 1u);
}

TEST(Inprocess, AssumingEliminatedVarRestoresIt) {
  // BVE eliminates v on its first round; a later solve_assuming over v must
  // transparently restore it (recorded clauses come back under their
  // original ids) — without the restore the query would mis-solve.
  Solver s;
  s.set_inprocess_interval(0);
  Var v = s.new_var(), a = s.new_var(), b = s.new_var();
  s.add_clause({pos(v), pos(a)});
  s.add_clause({negl(v), pos(b)});
  ASSERT_EQ(s.solve(), Status::kSat);
  ASSERT_TRUE(s.is_eliminated(v)) << "test premise: BVE eliminated v";
  // ~v and ~a falsify (v | a): UNSAT under these assumptions.
  Status st = s.solve_assuming({negl(v), negl(a)});
  EXPECT_EQ(st, Status::kUnsat);
  EXPECT_TRUE(s.ok()) << "assumption-unsat must not refute the formula";
  EXPECT_FALSE(s.failed_assumptions().empty());
  EXPECT_FALSE(s.is_eliminated(v));
  EXPECT_TRUE(s.is_frozen(v));
  // And satisfiable again under the opposite polarity.
  EXPECT_EQ(s.solve_assuming({pos(v)}), Status::kSat);
  EXPECT_TRUE(s.model_value(pos(b)));
}

TEST(Inprocess, AddClauseOverEliminatedVarRestoresIt) {
  Solver s;
  s.set_inprocess_interval(0);
  Var v = s.new_var(), a = s.new_var(), b = s.new_var();
  s.add_clause({pos(v), pos(a)});
  s.add_clause({negl(v), pos(b)});
  ASSERT_EQ(s.solve(), Status::kSat);
  ASSERT_TRUE(s.is_eliminated(v));
  // New input clause over v: the var must come back before it is installed.
  s.add_clause({pos(v)});
  s.add_clause({negl(b)});
  EXPECT_EQ(s.solve(), Status::kUnsat);  // v & (~v | b) & ~b
}

TEST(Inprocess, FrozenVarsNeverEliminated) {
  std::mt19937 rng(77);
  Solver s;
  s.set_inprocess_interval(0);
  const unsigned nvars = 16;
  for (unsigned i = 0; i < nvars; ++i) s.new_var();
  for (unsigned i = 0; i < nvars; ++i) s.freeze(i);
  for (const auto& c : random_cnf(rng, nvars, 3.0)) s.add_clause(c);
  Status st = s.solve();
  ASSERT_NE(st, Status::kUnknown);
  for (unsigned i = 0; i < nvars; ++i)
    EXPECT_FALSE(s.is_eliminated(i)) << "frozen var " << i << " eliminated";
  EXPECT_EQ(s.stats().vars_eliminated, 0u);
}

TEST(Inprocess, IncrementalAssumptionFuzz) {
  // A long-lived inprocessing solver answering assumption queries (with
  // clause additions in between) must agree with a fresh untouched solver
  // on every query, and its failed-assumption cores must be sufficient.
  for (int seed = 0; seed < 12; ++seed) {
    std::mt19937 rng(5000 + seed);
    const unsigned nvars = 12 + rng() % 8;
    Solver inc;
    inc.set_inprocess_interval(0);
    for (unsigned i = 0; i < nvars; ++i) inc.new_var();
    std::vector<std::vector<Lit>> cls = random_cnf(rng, nvars, 2.0);
    for (const auto& c : cls) inc.add_clause(c);
    for (int q = 0; q < 8; ++q) {
      // Occasionally grow the formula (exercises restore via add_clause).
      if (rng() % 3 == 0) {
        auto extra = random_cnf(rng, nvars, 0.3);
        for (const auto& c : extra) {
          cls.push_back(c);
          inc.add_clause(c);
        }
      }
      std::vector<Lit> assume;
      const unsigned na = rng() % 4;
      for (unsigned k = 0; k < na; ++k)
        assume.push_back(mk_lit(rng() % nvars, rng() % 2));
      Status si = inc.solve_assuming(assume);
      ASSERT_NE(si, Status::kUnknown);
      // Reference: fresh solver, assumptions as units.
      Solver ref;
      ref.set_inprocess(false);
      for (unsigned i = 0; i < nvars; ++i) ref.new_var();
      bool ref_ok = true;
      for (const auto& c : cls) ref_ok = ref.add_clause(c) && ref_ok;
      for (Lit aL : assume) ref_ok = ref.add_clause({aL}) && ref_ok;
      Status sr = ref_ok ? ref.solve() : Status::kUnsat;
      if (sr == Status::kUnknown) continue;
      ASSERT_EQ(si == Status::kSat, sr == Status::kSat)
          << "incremental inprocessing changed a query verdict (seed "
          << seed << ", query " << q << ")";
      if (si == Status::kSat) {
        EXPECT_TRUE(model_satisfies(inc.model(), cls));
        for (Lit aL : assume)
          EXPECT_EQ(lbool_xor(inc.model()[var(aL)], sign(aL)), LBool::kTrue);
      } else if (!inc.failed_assumptions().empty()) {
        // The failed core alone must already be inconsistent with the CNF.
        Solver core;
        core.set_inprocess(false);
        for (unsigned i = 0; i < nvars; ++i) core.new_var();
        bool core_ok = true;
        for (const auto& c : cls) core_ok = core.add_clause(c) && core_ok;
        for (Lit f : inc.failed_assumptions())
          core_ok = core.add_clause({f}) && core_ok;
        EXPECT_TRUE(!core_ok || core.solve() == Status::kUnsat)
            << "failed-assumption core is not sufficient";
      }
      if (!inc.ok()) break;  // formula itself refuted: nothing left to ask
    }
  }
}

TEST(Inprocess, LazyModelMatchesEagerExtension) {
  // Twin solvers answer the same queries.  `eager` reads its whole model
  // right after each SAT answer, which extends it over the eliminated vars
  // at once.  `lazy` reads nothing at first.  Then both either do nothing,
  // or change what the extension reads: a clause over an eliminated var
  // (restore via add_clause), an assumption on one (restore via
  // solve_assuming), or a unit and then a query that fails but runs a
  // forced round first.  Lazy's reads afterwards, eliminated vars first
  // through model_value, must equal eager's model.
  unsigned checked = 0, grown = 0;
  for (int seed = 0; seed < 40; ++seed) {
    std::mt19937 rng(9100 + seed);
    const unsigned nvars = 30 + rng() % 20;
    Solver eager, lazy;
    for (Solver* s : {&eager, &lazy}) {
      s->set_inprocess_interval(0);
      for (unsigned i = 0; i < nvars; ++i) s->new_var();
      s->freeze(0);  // the forced-round query assumes var 0: no restore
    }
    // No units: BVE gets room, and a later unit opens more of it.
    for (unsigned c = 0; c < nvars * 2; ++c) {
      std::vector<Lit> cl;
      for (unsigned k = 0, len = c % 4 == 0 ? 2 : 3; k < len; ++k)
        cl.push_back(mk_lit(rng() % nvars, rng() % 2));
      eager.add_clause(cl);
      lazy.add_clause(cl);
    }
    for (int q = 0; q < 10; ++q) {
      std::vector<Lit> assume;
      if (rng() % 2 == 0) assume.push_back(mk_lit(rng() % nvars, rng() % 2));
      const Status st = eager.solve_assuming(assume);
      ASSERT_EQ(lazy.solve_assuming(assume), st);
      if (st != Status::kSat) continue;
      const std::vector<LBool> want = eager.model();
      ASSERT_EQ(std::count(want.begin(), want.end(), LBool::kUndef), 0)
          << "a model read must be total";
      std::vector<Var> elim;
      for (Var v = 0; v < nvars; ++v)
        if (lazy.is_eliminated(v)) elim.push_back(v);
      auto both = [&](auto&& f) {
        f(eager);
        f(lazy);
      };
      const std::uint64_t eliminated = lazy.stats().vars_eliminated;
      switch (q % 4) {
        case 0:
          if (!elim.empty()) {
            const Lit other = mk_lit(rng() % nvars);
            both([&](Solver& s) { s.add_clause({pos(elim[0]), other}); });
          }
          break;
        case 1:
          if (!elim.empty())
            both([&](Solver& s) {
              s.solve_assuming({pos(elim[0]), negl(elim[0])});
            });
          break;
        case 2: {
          // A new unit simplifies clauses, so the round may eliminate more.
          const Lit unit = mk_lit(1 + rng() % (nvars - 1), rng() % 2);
          both([&](Solver& s) {
            if (!s.is_eliminated(var(unit))) s.add_clause({unit});
            s.solve_assuming({pos(0), negl(0)});
          });
          break;
        }
        default:
          break;
      }
      // The round eliminated more vars while lazy's extension was pending.
      if (lazy.stats().vars_eliminated > eliminated && q % 4 == 2) ++grown;
      for (Var v : elim)
        EXPECT_EQ(lazy.model_value(pos(v)), want[v] == LBool::kTrue)
            << "seed " << seed << ", query " << q << ", var " << v;
      EXPECT_EQ(lazy.model(), want) << "seed " << seed << ", query " << q;
      if (!elim.empty()) ++checked;
    }
    EXPECT_LE(lazy.stats().model_extensions, eager.stats().model_extensions);
  }
  EXPECT_GT(checked, 30u);
  EXPECT_GT(grown, 0u);
}

TEST(Inprocess, RepeatedRoundsReachFixpointSafely) {
  // Many forced rounds over the same (shrinking) database must stay sound
  // and terminate; verdict checked against a clean solver at the end.
  std::mt19937 rng(99);
  const unsigned nvars = 18;
  auto cls = random_cnf(rng, nvars, 3.5);
  Solver s;
  s.set_inprocess_interval(0);
  for (unsigned i = 0; i < nvars; ++i) s.new_var();
  for (const auto& c : cls) s.add_clause(c);
  Status first = s.solve();
  for (int i = 0; i < 5 && first != Status::kUnknown; ++i)
    ASSERT_EQ(s.solve(), first) << "re-solve changed the verdict";
  Solver ref;
  ref.set_inprocess(false);
  for (unsigned i = 0; i < nvars; ++i) ref.new_var();
  for (const auto& c : cls) ref.add_clause(c);
  EXPECT_EQ(s.solve(), ref.solve());
}

TEST(Inprocess, CancellationDuringInprocessingSolveIsClean) {
  // Concurrency smoke (runs under TSan via the `concurrency` label): a
  // cancel token flipped from another thread while a solver with forced
  // inprocessing churns on pigeonhole queries must stop the solve without
  // corrupting state — the follow-up uncancelled solve gives the verdict.
  Solver s;
  s.set_inprocess_interval(0);
  const int n = 7;  // 8 pigeons, 7 holes
  std::vector<std::vector<Var>> p(n + 1, std::vector<Var>(n));
  for (auto& row : p)
    for (auto& v : row) v = s.new_var();
  for (int i = 0; i <= n; ++i) {
    std::vector<Lit> cl;
    for (int h = 0; h < n; ++h) cl.push_back(pos(p[i][h]));
    s.add_clause(cl);
  }
  for (int h = 0; h < n; ++h)
    for (int i = 0; i <= n; ++i)
      for (int j = i + 1; j <= n; ++j)
        s.add_clause({negl(p[i][h]), negl(p[j][h])});
  std::atomic<bool> cancel{false};
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    cancel.store(true, std::memory_order_relaxed);
  });
  Budget b;
  b.cancel = &cancel;
  Status st = s.solve(b);  // kUnknown if the token won, kUnsat if we did
  killer.join();
  EXPECT_NE(st, Status::kSat);
  EXPECT_EQ(s.solve(), Status::kUnsat);  // state intact after cancellation
}

// --- scheduling: a round must be paid for, by reuse or by search -----------

/// A satisfiable formula far below the default interval, with a subsumed
/// clause so that a round has something to do.
void add_easy_sat(Solver& s) {
  const unsigned n = 12;
  for (unsigned i = 0; i < n; ++i) s.new_var();
  for (unsigned i = 0; i + 2 < n; ++i)
    s.add_clause({pos(i), pos(i + 1), negl(i + 2)});
  s.add_clause({pos(0), pos(1)});
  s.add_clause({pos(0), pos(1), pos(2)});
}

/// PHP(n+1, n): UNSAT, and thousands of conflicts in one solve for n = 7.
void add_pigeonhole(Solver& s, int n) {
  std::vector<std::vector<Var>> p(n + 1, std::vector<Var>(n));
  for (auto& row : p)
    for (auto& v : row) v = s.new_var();
  for (int i = 0; i <= n; ++i) {
    std::vector<Lit> cl;
    for (int h = 0; h < n; ++h) cl.push_back(pos(p[i][h]));
    s.add_clause(cl);
  }
  for (int h = 0; h < n; ++h)
    for (int i = 0; i <= n; ++i)
      for (int j = i + 1; j <= n; ++j)
        s.add_clause({negl(p[i][h]), negl(p[j][h])});
}

TEST(InprocessSchedule, OneShotSolveBelowIntervalRunsNoRound) {
  Solver s;
  add_easy_sat(s);
  EXPECT_EQ(s.solve(), Status::kSat);
  EXPECT_LT(s.stats().conflicts, 4000u);
  EXPECT_EQ(s.stats().inprocess_rounds, 0u);
}

TEST(InprocessSchedule, ReSolvedSolverRunsFirstRoundAtSecondEntry) {
  Solver s;
  add_easy_sat(s);
  EXPECT_EQ(s.solve(), Status::kSat);
  EXPECT_EQ(s.stats().inprocess_rounds, 0u);
  EXPECT_EQ(s.solve_assuming({pos(3)}), Status::kSat);
  EXPECT_EQ(s.stats().inprocess_rounds, 1u);
  EXPECT_GE(s.stats().subsumed, 1u);
  // Later rounds are paid for by search only; these solves are too easy.
  EXPECT_EQ(s.solve(), Status::kSat);
  EXPECT_EQ(s.solve(), Status::kSat);
  EXPECT_EQ(s.stats().inprocess_rounds, 1u);
  EXPECT_TRUE(s.verify_model());
}

TEST(InprocessSchedule, IntervalZeroRunsRoundAtFirstEntry) {
  Solver s;
  s.set_inprocess_interval(0);
  add_easy_sat(s);
  EXPECT_EQ(s.solve(), Status::kSat);
  EXPECT_GE(s.stats().inprocess_rounds, 1u);
}

TEST(InprocessSchedule, DisabledNeverRunsARound) {
  Solver s;
  s.set_inprocess(false);
  s.set_inprocess_interval(0);
  add_easy_sat(s);
  EXPECT_EQ(s.solve(), Status::kSat);
  EXPECT_EQ(s.solve(), Status::kSat);
  EXPECT_EQ(s.stats().inprocess_rounds, 0u);
}

TEST(InprocessSchedule, LongSingleSolveGetsInSearchRound) {
  // One solve, no reuse: every round is paid for by search, counted from
  // the solver's creation, so rounds * interval never exceeds conflicts.
  const std::uint64_t interval = 1000;
  Solver s;
  s.set_inprocess_interval(interval);
  s.enable_proof();
  add_pigeonhole(s, 7);
  EXPECT_EQ(s.solve(), Status::kUnsat);
  const SolverStats& st = s.stats();
  EXPECT_GE(st.conflicts, 2 * interval);
  EXPECT_GE(st.inprocess_rounds, 1u);
  EXPECT_LE(st.inprocess_rounds * interval, st.conflicts);
  auto pc = check_proof(s.proof());
  EXPECT_TRUE(pc.ok) << pc.error;
}

}  // namespace
}  // namespace itpseq::sat
