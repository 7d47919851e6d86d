// incremental_test.cpp — incremental SAT interface (assumptions, clause
// addition between solves, failed-assumption cores, one refutation per
// query under proof logging), and BMC and k-induction on one growing
// instance (mc::Bmc) against a monolithic reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <tuple>

#include "bench_circuits/generators.hpp"
#include "bench_circuits/suite.hpp"
#include "mc/bmc.hpp"
#include "mc/engine.hpp"
#include "mc/kinduction.hpp"
#include "mc/sim.hpp"
#include "sat/drat.hpp"
#include "sat/proof_check.hpp"
#include "sat/solver.hpp"
#include "sat/tracecheck.hpp"

namespace itpseq {
namespace {

using sat::mk_lit;
using sat::Status;

TEST(Incremental, AssumptionsFlipOutcome) {
  sat::Solver s;
  sat::Var a = s.new_var(), b = s.new_var();
  s.add_clause({mk_lit(a), mk_lit(b)});
  EXPECT_EQ(s.solve_assuming({mk_lit(a, true)}), Status::kSat);
  EXPECT_TRUE(s.model_value(mk_lit(b)));
  EXPECT_EQ(s.solve_assuming({mk_lit(a, true), mk_lit(b, true)}), Status::kUnsat);
  EXPECT_TRUE(s.ok());  // clause set itself is satisfiable
  EXPECT_EQ(s.solve(), Status::kSat);
}

TEST(Incremental, FailedAssumptionCore) {
  sat::Solver s;
  sat::Var x = s.new_var(), y = s.new_var(), z = s.new_var();
  s.add_clause({mk_lit(x, true), mk_lit(y, true)});  // ~x | ~y
  Status st = s.solve_assuming({mk_lit(z), mk_lit(x), mk_lit(y)});
  ASSERT_EQ(st, Status::kUnsat);
  const auto& core = s.failed_assumptions();
  // Core must mention x and y and may not mention the irrelevant z.
  auto has = [&](sat::Lit l) {
    return std::find(core.begin(), core.end(), l) != core.end();
  };
  EXPECT_TRUE(has(mk_lit(x)));
  EXPECT_TRUE(has(mk_lit(y)));
  EXPECT_FALSE(has(mk_lit(z)));
}

TEST(Incremental, ClausesAddedBetweenSolves) {
  sat::Solver s;
  sat::Var v[4];
  for (auto& x : v) x = s.new_var();
  s.add_clause({mk_lit(v[0]), mk_lit(v[1])});
  EXPECT_EQ(s.solve(), Status::kSat);
  s.add_clause({mk_lit(v[0], true)});
  EXPECT_EQ(s.solve(), Status::kSat);
  EXPECT_TRUE(s.model_value(mk_lit(v[1])));
  s.add_clause({mk_lit(v[1], true)});
  EXPECT_EQ(s.solve(), Status::kUnsat);
  EXPECT_FALSE(s.ok());
  // Once truly unsat, further solves stay unsat.
  EXPECT_EQ(s.solve(), Status::kUnsat);
}

TEST(Incremental, AssumptionsThenPermanentUnsat) {
  sat::Solver s;
  sat::Var a = s.new_var();
  s.add_clause({mk_lit(a)});
  EXPECT_EQ(s.solve_assuming({mk_lit(a, true)}), Status::kUnsat);
  EXPECT_TRUE(s.ok());
  s.add_clause({mk_lit(a, true)});
  EXPECT_EQ(s.solve(), Status::kUnsat);
  EXPECT_FALSE(s.ok());
}

// --- proofs under assumptions -----------------------------------------------

/// Independent replay of a TRACECHECK trace (sat/tracecheck.hpp): every
/// derived line must follow from its antecedents by trivial resolution (each
/// step resolves on the one clashing variable), the last line must be the
/// empty clause, and every leaf must be accepted by `leaf_ok`.
::testing::AssertionResult replay_tracecheck(
    const std::string& trace,
    const std::function<bool(const std::set<long long>&)>& leaf_ok) {
  std::map<long long, std::set<long long>> clauses;
  std::istringstream in(trace);
  std::string line;
  std::set<long long> last{0};
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    long long id = 0, x = 0;
    ls >> id;
    std::set<long long> lits;
    while (ls >> x && x != 0) lits.insert(x);
    std::vector<long long> ante;
    while (ls >> x && x != 0) ante.push_back(x);
    if (ante.empty()) {
      if (!leaf_ok(lits))
        return ::testing::AssertionFailure() << "foreign leaf on line " << id;
    } else {
      std::set<long long> acc = clauses.at(ante[0]);
      for (std::size_t i = 1; i < ante.size(); ++i) {
        const std::set<long long>& rhs = clauses.at(ante[i]);
        long long pivot = 0;
        for (long long l : rhs)
          if (acc.count(-l)) {
            if (pivot != 0)
              return ::testing::AssertionFailure() << "two clashes, line " << id;
            pivot = l;
          }
        if (pivot == 0)
          return ::testing::AssertionFailure() << "no clash, line " << id;
        acc.erase(-pivot);
        for (long long l : rhs)
          if (l != pivot) acc.insert(l);
      }
      if (acc != lits)
        return ::testing::AssertionFailure() << "wrong resolvent, line " << id;
    }
    clauses[id] = lits;
    last = lits;
  }
  if (!last.empty())
    return ::testing::AssertionFailure() << "trace does not end in the empty clause";
  return ::testing::AssertionSuccess();
}

long long dimacs(sat::Lit l) {
  const long long v = static_cast<long long>(sat::var(l)) + 1;
  return sat::sign(l) ? -v : v;
}

class ProofAssumptionFuzz
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(ProofAssumptionFuzz, EveryQueryHasItsOwnRefutation) {
  // One proof-logging solver answers a run of queries.  Clause groups sit
  // behind activation literals, clauses are added between queries, and the
  // assumptions (activations and plain literals, sometimes clashing) change
  // from query to query.  Every answer must match a fresh solver on the
  // query's active clauses; a SAT model must satisfy them; an UNSAT answer
  // must come with a refutation, from its own final id, that replays,
  // passes the TRACECHECK and DRAT checks, and rests only on clauses of the
  // solver and units of this query's assumptions.
  const auto [seed, forced] = GetParam();
  std::mt19937 rng(9000 + seed);
  const unsigned nvars = 8 + rng() % 6;
  sat::Solver inc;
  inc.enable_proof();
  if (forced) inc.set_inprocess_interval(0);  // a round at every entry
  for (unsigned i = 0; i < nvars; ++i) inc.new_var();

  // group 0 is unguarded; group g > 0 is guarded by act[g].
  std::vector<sat::Lit> act{sat::kNoLit};
  std::vector<std::vector<std::vector<sat::Lit>>> groups(1);
  std::vector<std::vector<sat::Lit>> added;  // every clause as the solver has it
  auto random_clause = [&] {
    std::vector<sat::Lit> cl;
    for (unsigned k = 0, len = 1 + rng() % 3; k < len; ++k)
      cl.push_back(mk_lit(rng() % nvars, rng() % 2));
    return cl;
  };
  auto add = [&](std::size_t g, std::vector<sat::Lit> cl) {
    groups[g].push_back(cl);
    if (g > 0) cl.push_back(sat::neg(act[g]));
    added.push_back(cl);
    inc.add_clause(cl, static_cast<std::uint32_t>(g));
  };
  std::vector<sat::ClauseId> finals;
  for (int q = 0; q < 14; ++q) {
    if (act.size() < 6 && rng() % 2 == 0) {
      const sat::Var a = inc.new_var();
      if (forced) inc.freeze(a);
      inc.set_assumption_label(a, static_cast<std::uint32_t>(act.size()));
      act.push_back(mk_lit(a));
      groups.emplace_back();
    }
    for (int c = 0, n = 1 + rng() % 4; c < n; ++c)
      add(rng() % groups.size(), random_clause());

    std::vector<sat::Lit> assumptions;
    std::vector<bool> on(groups.size(), false);
    on[0] = true;
    for (std::size_t g = 1; g < groups.size(); ++g)
      if (rng() % 3 != 0) {
        on[g] = true;
        assumptions.push_back(act[g]);
      }
    for (unsigned k = 0, n = rng() % 3; k < n; ++k)
      assumptions.push_back(mk_lit(rng() % nvars, rng() % 2));
    std::shuffle(assumptions.begin(), assumptions.end(), rng);

    const Status got = inc.solve_assuming(assumptions);
    ASSERT_NE(got, Status::kUnknown);

    sat::Solver fresh;
    for (unsigned i = 0; i < inc.num_vars(); ++i) fresh.new_var();
    std::vector<std::vector<sat::Lit>> active;
    for (std::size_t g = 0; g < groups.size(); ++g)
      if (on[g])
        for (const auto& cl : groups[g]) active.push_back(cl);
    for (const auto& cl : active) fresh.add_clause(cl);
    for (std::size_t g = 1; g < groups.size(); ++g)
      if (on[g]) fresh.add_clause({act[g]});
    for (sat::Lit a : assumptions) fresh.add_clause({a});
    const Status expected = fresh.solve();
    ASSERT_EQ(got, expected) << "query " << q;

    if (got == Status::kSat) {
      auto holds = [&](sat::Lit l) {
        return sat::lbool_xor(inc.model()[sat::var(l)], sat::sign(l)) ==
               sat::LBool::kTrue;
      };
      for (const auto& cl : added)
        EXPECT_TRUE(std::any_of(cl.begin(), cl.end(), holds)) << "query " << q;
      for (sat::Lit a : assumptions) EXPECT_TRUE(holds(a)) << "query " << q;
      continue;
    }
    const sat::Proof& proof = inc.proof();
    const sat::ClauseId final = proof.final_id();
    ASSERT_NE(final, sat::kNoClauseId);
    finals.push_back(final);
    const auto pc = sat::check_proof(proof, final);
    EXPECT_TRUE(pc.ok) << "query " << q << ": " << pc.error;

    std::set<std::set<long long>> leaves;
    for (const auto& cl : added) {
      std::set<long long> c;
      for (sat::Lit l : cl) c.insert(dimacs(l));
      leaves.insert(c);
    }
    for (sat::Lit a : assumptions) leaves.insert({dimacs(a)});
    // Leaves: the solver's clauses and this query's assumption units only.
    std::ostringstream tc;
    sat::write_tracecheck(proof, final, tc);
    EXPECT_TRUE(replay_tracecheck(tc.str(), [&](const std::set<long long>& c) {
      return leaves.count(c) > 0;
    })) << "query " << q;

    std::vector<std::vector<sat::Lit>> cnf = added;
    for (sat::Lit a : assumptions) cnf.push_back({a});
    std::ostringstream drat;
    sat::write_drat(proof, final, drat);
    std::istringstream din(drat.str());
    const auto dc = sat::check_drat(static_cast<unsigned>(inc.num_vars()), cnf, din);
    EXPECT_TRUE(dc.ok) << "query " << q << ": " << dc.error;
    if (!inc.ok()) break;  // the clause set itself is refuted
  }
  // The log keeps every refutation: earlier finals still replay.
  for (sat::ClauseId f : finals) {
    const auto pc = sat::check_proof(inc.proof(), f);
    EXPECT_TRUE(pc.ok) << pc.error;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProofAssumptionFuzz,
                         ::testing::Combine(::testing::Range(0, 40),
                                            ::testing::Bool()));

class IncrementalRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalRandomTest, AgreesWithFreshSolver) {
  // Random incremental session: interleave clause additions and
  // assumption-solves; every answer must match a fresh solver on the same
  // accumulated formula + assumption units.
  std::mt19937 rng(500 + GetParam());
  const unsigned nvars = 10 + rng() % 5;
  sat::Solver inc;
  for (unsigned i = 0; i < nvars; ++i) inc.new_var();
  std::vector<std::vector<sat::Lit>> added;

  for (int step = 0; step < 12; ++step) {
    // Add a couple of random clauses.
    for (int c = 0; c < 3; ++c) {
      std::vector<sat::Lit> cl;
      unsigned len = 1 + rng() % 3;
      for (unsigned k = 0; k < len; ++k)
        cl.push_back(mk_lit(rng() % nvars, rng() % 2));
      added.push_back(cl);
      inc.add_clause(cl);
    }
    // Random assumptions (distinct vars).
    std::vector<sat::Lit> assumptions;
    for (unsigned v = 0; v < nvars; ++v)
      if (rng() % 4 == 0) assumptions.push_back(mk_lit(v, rng() % 2));

    Status got = inc.solve_assuming(assumptions);
    ASSERT_NE(got, Status::kUnknown);

    sat::Solver fresh;
    for (unsigned i = 0; i < nvars; ++i) fresh.new_var();
    for (const auto& cl : added) fresh.add_clause(cl);
    for (sat::Lit a : assumptions) fresh.add_clause({a});
    Status expected = fresh.solve();
    ASSERT_NE(expected, Status::kUnknown);
    EXPECT_EQ(got, expected) << "step " << step;
    if (got == Status::kSat) {
      EXPECT_TRUE(inc.verify_model());
    }
    if (!inc.ok()) break;  // permanently unsat; fresh agrees by equality
  }
}

INSTANTIATE_TEST_SUITE_P(Sessions, IncrementalRandomTest, ::testing::Range(0, 40));

// --- incremental BMC and k-induction ---------------------------------------

/// Reference: the first depth 1..max_bound at which a fresh solver over the
/// full unrolling (every latch tied, no target but bad at exactly that
/// depth) is satisfiable, or 0 when none is: the monolithic formulation,
/// which encodes the whole unrolling afresh at every bound.
unsigned monolithic_fail_depth(const aig::Aig& g, unsigned max_bound) {
  for (unsigned k = 1; k <= max_bound; ++k) {
    sat::Solver s;
    cnf::Unroller unr(g, s);
    unr.assert_init(0);
    for (unsigned t = 0; t < k; ++t) unr.add_transition(t, 0);
    for (unsigned t = 0; t <= k; ++t) unr.assert_constraints(t, 0);
    s.add_clause({unr.bad_lit(k, 0)}, 0);
    if (s.solve() == Status::kSat) return k;
  }
  return 0;
}

struct SuiteCounts {
  unsigned fail = 0, pass = 0, unknown = 0;
};

/// Run `check` up to `max_bound` on every instance with no wall-clock cap.
/// `ref[i]` is instance i's monolithic_fail_depth up to at least max_bound.
/// Every FAIL must replay at the reference depth (and at the suite's known
/// depth); without a FAIL the reference must find none up to max_bound.
SuiteCounts check_against_reference(
    const std::vector<const bench::Instance*>& suite,
    const std::vector<unsigned>& ref, unsigned max_bound,
    mc::EngineResult (*check)(const aig::Aig&, std::size_t,
                              const mc::EngineOptions&)) {
  mc::EngineOptions opts;
  opts.time_limit_sec = 1e9;
  opts.max_bound = max_bound;
  SuiteCounts n;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const bench::Instance& inst = *suite[i];
    const unsigned depth = ref[i] <= max_bound ? ref[i] : 0;
    const mc::EngineResult r = check(inst.model, 0, opts);
    if (r.verdict == mc::Verdict::kFail) {
      ++n.fail;
      EXPECT_TRUE(mc::trace_is_cex(inst.model, r.cex, 0)) << inst.name;
      EXPECT_EQ(r.cex.depth(), depth) << inst.name;
      EXPECT_EQ(r.k_fp, depth) << inst.name;
      if (inst.fail_depth >= 0) {
        EXPECT_EQ(r.cex.depth(), static_cast<unsigned>(inst.fail_depth))
            << inst.name;
      }
      continue;
    }
    EXPECT_EQ(depth, 0u) << inst.name << " " << mc::to_string(r.verdict);
    if (r.verdict == mc::Verdict::kPass) {
      ++n.pass;
      EXPECT_NE(inst.expected, bench::Expected::kFail) << inst.name;
    } else {
      ++n.unknown;
      EXPECT_EQ(r.verdict, mc::Verdict::kUnknown) << inst.name;
    }
  }
  return n;
}

TEST(IncrementalBmc, SuiteFailDepthsMatchMonolithicReference) {
  // BMC to bound 40 on the academic suite designs and to bound 20 on the
  // industrial ones (their known depths are at most 16; the reference
  // takes seconds per design beyond), k-induction to bound 25 on the
  // academic ones.
  const std::vector<bench::Instance> suite = bench::make_suite();
  std::vector<const bench::Instance*> academic, industrial;
  std::vector<unsigned> academic_ref, industrial_ref;
  for (const bench::Instance& inst : suite) {
    const unsigned cap = inst.industrial ? 20 : 40;
    (inst.industrial ? industrial : academic).push_back(&inst);
    (inst.industrial ? industrial_ref : academic_ref)
        .push_back(monolithic_fail_depth(inst.model, cap));
  }
  ASSERT_EQ(academic.size() + industrial.size(), 102u);
  const SuiteCounts bmc_a =
      check_against_reference(academic, academic_ref, 40, mc::check_bmc);
  const SuiteCounts bmc_i =
      check_against_reference(industrial, industrial_ref, 20, mc::check_bmc);
  EXPECT_EQ(bmc_a.fail + bmc_i.fail, 45u);
  EXPECT_EQ(bmc_a.pass + bmc_i.pass, 0u);
  EXPECT_EQ(bmc_a.unknown + bmc_i.unknown, 57u);
  const SuiteCounts kind =
      check_against_reference(academic, academic_ref, 25, mc::check_kinduction);
  EXPECT_EQ(kind.fail, 36u);
  EXPECT_EQ(kind.pass, 47u);
  EXPECT_EQ(kind.unknown, 3u);
}

TEST(IncrementalBmc, FasterSchedulesStillSound) {
  // Deep counterexample: the single-instance formulation must find the
  // exact same depth.
  aig::Aig g = bench::token_ring(24, true);
  mc::EngineOptions opts;
  opts.time_limit_sec = 30.0;
  mc::EngineResult r = mc::check_bmc(g, 0, opts);
  ASSERT_EQ(r.verdict, mc::Verdict::kFail);
  EXPECT_EQ(r.cex.depth(), 23u);
  EXPECT_TRUE(mc::trace_is_cex(g, r.cex, 0));
}

}  // namespace
}  // namespace itpseq
