// cnf_test.cpp — tests for Tseitin encoding and the time-frame unroller.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <span>
#include <sstream>
#include <string>

#include "aig/aig.hpp"
#include "bench_circuits/generators.hpp"
#include "bench_circuits/suite.hpp"
#include "cnf/tseitin.hpp"
#include "cnf/unroller.hpp"
#include "mc/sim.hpp"
#include "sat/proof_check.hpp"
#include "sat/solver.hpp"

namespace itpseq {
namespace {

TEST(Tseitin, EncodesAgainstTruthTable) {
  std::mt19937 rng(5);
  for (int trial = 0; trial < 25; ++trial) {
    aig::Aig g;
    std::vector<aig::Lit> pool;
    unsigned ni = 2 + rng() % 4;
    for (unsigned i = 0; i < ni; ++i) pool.push_back(g.add_input());
    for (int n = 0; n < 20; ++n) {
      aig::Lit a = pool[rng() % pool.size()] ^ (rng() % 2);
      aig::Lit b = pool[rng() % pool.size()] ^ (rng() % 2);
      pool.push_back(g.make_and(a, b));
    }
    aig::Lit root = pool.back() ^ (rng() % 2);

    // For every input assignment, the encoded literal must be forced to the
    // evaluated value.
    for (std::uint64_t m = 0; m < (1ull << ni); ++m) {
      sat::Solver s;
      std::vector<sat::Var> invars;
      for (unsigned i = 0; i < ni; ++i) invars.push_back(s.new_var());
      cnf::TseitinEncoder enc(g, s, [&](aig::Var v) {
        return sat::mk_lit(invars[g.input_index(v)]);
      });
      sat::Lit rl = enc.encode(root, 0);
      for (unsigned i = 0; i < ni; ++i)
        s.add_clause({sat::mk_lit(invars[i], !((m >> i) & 1))});
      std::vector<bool> vals(g.num_vars(), false);
      for (unsigned i = 0; i < ni; ++i)
        vals[aig::lit_var(g.input(i))] = (m >> i) & 1;
      bool expected = g.evaluate(root, vals);
      // Assert the opposite: must be UNSAT.
      s.add_clause({expected ? sat::neg(rl) : rl});
      EXPECT_EQ(s.solve(), sat::Status::kUnsat) << "trial " << trial << " m=" << m;
    }
  }
}

TEST(Tseitin, ConstantRoots) {
  aig::Aig g;
  (void)g.add_input();
  sat::Solver s;
  cnf::TseitinEncoder enc(g, s, [&](aig::Var) { return sat::mk_lit(s.new_var()); });
  sat::Lit t = enc.encode(aig::kTrue, 0);
  sat::Lit f = enc.encode(aig::kFalse, 0);
  s.add_clause({t});
  s.add_clause({sat::neg(f)});
  EXPECT_EQ(s.solve(), sat::Status::kSat);
}

TEST(Tseitin, LookupReturnsEncodedOnly) {
  aig::Aig g;
  aig::Lit a = g.add_input();
  aig::Lit b = g.add_input();
  aig::Lit x = g.make_and(a, b);
  sat::Solver s;
  cnf::TseitinEncoder enc(g, s, [&](aig::Var) { return sat::mk_lit(s.new_var()); });
  EXPECT_EQ(enc.lookup(x), sat::kNoLit);
  sat::Lit e = enc.encode(x, 0);
  EXPECT_EQ(enc.lookup(x), e);
  EXPECT_EQ(enc.lookup(aig::lit_not(x)), sat::neg(e));
}

// The unrolled CNF must accept exactly the traces the simulator produces.
TEST(Unroller, UnrollingMatchesSimulation) {
  std::mt19937 rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    aig::Aig g = bench::counter(4, 11, 7, /*with_enable=*/true);
    const unsigned k = 1 + rng() % 5;

    sat::Solver s;
    cnf::Unroller unr(g, s);
    unr.assert_init(0);
    for (unsigned t = 0; t < k; ++t) unr.add_transition(t, 0);

    // Pin all inputs to random values.
    mc::Trace trace;
    trace.initial_latches.assign(g.num_latches(), false);
    for (unsigned t = 0; t <= k; ++t) {
      std::vector<bool> in;
      for (std::size_t i = 0; i < g.num_inputs(); ++i) {
        bool v = rng() % 2;
        in.push_back(v);
        sat::Lit l = unr.lit(g.input(i), t, 0);
        s.add_clause({v ? l : sat::neg(l)});
      }
      trace.inputs.push_back(in);
    }
    ASSERT_EQ(s.solve(), sat::Status::kSat);

    mc::Simulator sim(g, 0);
    mc::SimFrames frames = sim.run(trace);
    for (unsigned t = 0; t <= k; ++t)
      for (std::size_t i = 0; i < g.num_latches(); ++i) {
        sat::Lit l = unr.lookup(g.latch(i), t);
        ASSERT_NE(l, sat::kNoLit);
        bool sat_val =
            sat::lbool_xor(s.model()[sat::var(l)], sat::sign(l)) ==
            sat::LBool::kTrue;
        EXPECT_EQ(sat_val, frames.latches[t][i])
            << "latch " << i << " frame " << t;
      }
  }
}

TEST(Unroller, UntiedLatchesAreFreeCutpoints) {
  // counter(3, 8, 5): bad (count == 5) is five steps from reset.  A latch
  // without its reset unit is free at frame 0, and an untied latch is free
  // at its frame; a guarded tie binds it only while the guard is assumed.
  aig::Aig g = bench::counter(3, 8, 5);
  {
    sat::Solver s;
    cnf::Unroller unr(g, s);
    s.add_clause({unr.bad_lit(0, 0)}, 0);
    EXPECT_EQ(s.solve(), sat::Status::kSat);  // no reset unit
    for (std::size_t i = 0; i < g.num_latches(); ++i) unr.init_latch(i, 0);
    EXPECT_EQ(s.solve(), sat::Status::kUnsat);
  }
  sat::Solver s;
  cnf::Unroller unr(g, s);
  unr.assert_init(0);
  unr.set_tie_policy(
      [](std::size_t, unsigned) { return cnf::Unroller::kUntied; });
  unr.add_transition(0, 0);
  s.add_clause({unr.bad_lit(1, 0)}, 0);
  EXPECT_EQ(s.solve(), sat::Status::kSat);  // frame 1 is free
  const sat::Lit guard = sat::mk_lit(s.new_var());
  for (std::size_t i = 0; i < g.num_latches(); ++i) unr.tie(i, 0, 0, guard);
  EXPECT_EQ(s.solve(), sat::Status::kSat);  // the guard is free too
  EXPECT_EQ(s.solve_assuming({guard}), sat::Status::kUnsat);  // count is 1
  EXPECT_EQ(s.failed_assumptions(), std::vector<sat::Lit>{guard});
}

TEST(Unroller, StatePredicateEncoding) {
  aig::Aig g = bench::counter(3, 8, 5);
  // Predicate: count == 2 at frame 0; unrolling one step must make
  // count == 3 at frame 1 (bad for counter with bad_value 3... use lookup).
  aig::Aig sets;
  for (std::size_t i = 0; i < g.num_latches(); ++i) sets.add_input();
  std::vector<aig::Lit> bits;
  for (std::size_t i = 0; i < g.num_latches(); ++i) bits.push_back(sets.input(i));
  aig::Lit pred = bench::equals_const(sets, bits, 2);

  sat::Solver s;
  cnf::Unroller unr(g, s);
  sat::Lit pl = unr.encode_state_pred(sets, pred, 0, 0);
  s.add_clause({pl}, 0);
  unr.add_transition(0, 0);
  ASSERT_EQ(s.solve(), sat::Status::kSat);
  // Frame-1 latches must read 3.
  unsigned value = 0;
  for (std::size_t i = 0; i < g.num_latches(); ++i) {
    sat::Lit l = unr.lookup(g.latch(i), 1);
    if (sat::lbool_xor(s.model()[sat::var(l)], sat::sign(l)) == sat::LBool::kTrue)
      value |= 1u << i;
  }
  EXPECT_EQ(value, 3u);
}

TEST(Unroller, FrameOrderEnforced) {
  aig::Aig g = bench::counter(3, 8, 5);
  sat::Solver s;
  cnf::Unroller unr(g, s);
  EXPECT_THROW(unr.add_transition(1, 0), std::logic_error);
  EXPECT_THROW(unr.lit(g.latch(0), 3, 0), std::out_of_range);
}

TEST(Unroller, BmcRefutationChecksAgainstTheUnrolling) {
  // End-to-end: a search-learned refutation of a BMC unrolling replays and
  // rests only on the unrolling's clauses.  The circuit is input-driven,
  // so unit propagation alone cannot refute it.
  aig::Aig g = bench::queue(5, true);  // PASS property
  sat::Solver s;
  s.set_inprocess(false);  // the point is search-learned clauses
  s.enable_proof();
  cnf::Unroller unr(g, s);
  unr.assert_init(1);
  for (unsigned t = 0; t < 6; ++t) unr.add_transition(t, t + 1);
  s.add_clause({unr.bad_lit(6, 7)}, 7);
  // Before the search, the log holds exactly the unrolling's clauses.
  std::vector<std::vector<sat::Lit>> formula;
  for (sat::ClauseId id = 0; id < s.proof().size(); ++id) {
    std::span<const sat::Lit> lits = s.proof().literals(id);
    formula.emplace_back(lits.begin(), lits.end());
  }
  ASSERT_EQ(s.solve(), sat::Status::kUnsat);
  ASSERT_GT(s.stats().conflicts, 0u) << "instance too easy for this test";
  const auto pc = sat::check_proof(s.proof(), s.proof().final_id(), formula);
  EXPECT_TRUE(pc.ok) << pc.error;
}

// --- Differential test: pruned cone walk vs. full Aig::cone() walk --------
//
// RefTseitin and RefUnroller are reference encoders: every lookup walks the
// whole cone with Aig::cone() and skips the nodes already encoded.  The
// pruned walk must produce the same variables and the same original-clause
// stream (literals, label, order), read back from the proof log.

class RefTseitin {
 public:
  RefTseitin(const aig::Aig& g, sat::Solver& solver, cnf::LeafMap leaf)
      : g_(g), solver_(solver), leaf_(std::move(leaf)) {}

  sat::Lit encode(aig::Lit l, std::uint32_t label) {
    if (map_.size() < g_.num_vars()) map_.resize(g_.num_vars(), sat::kNoLit);
    aig::Var root = aig::lit_var(l);
    if (root == 0) {
      sat::Lit t = true_lit(label);
      return aig::lit_sign(l) ? t : sat::neg(t);
    }
    for (aig::Var v : g_.cone({aig::var_lit(root)})) {
      if (map_[v] != sat::kNoLit) continue;
      const aig::Node& n = g_.node(v);
      if (n.type != aig::NodeType::kAnd) {
        map_[v] = leaf_(v);
        continue;
      }
      auto fanin = [&](aig::Lit f) {
        aig::Var fv = aig::lit_var(f);
        sat::Lit s = fv == 0 ? sat::neg(true_lit(label)) : map_[fv];
        return aig::lit_sign(f) ? sat::neg(s) : s;
      };
      sat::Lit a = fanin(n.fanin0);
      sat::Lit b = fanin(n.fanin1);
      sat::Lit x = sat::mk_lit(solver_.new_var());
      solver_.add_clause({sat::neg(x), a}, label);
      solver_.add_clause({sat::neg(x), b}, label);
      solver_.add_clause({x, sat::neg(a), sat::neg(b)}, label);
      map_[v] = x;
    }
    return aig::lit_sign(l) ? sat::neg(map_[root]) : map_[root];
  }

 private:
  sat::Lit true_lit(std::uint32_t label) {
    if (true_ == sat::kNoLit) {
      true_ = sat::mk_lit(solver_.new_var());
      solver_.add_clause({true_}, label);
    }
    return true_;
  }

  const aig::Aig& g_;
  sat::Solver& solver_;
  cnf::LeafMap leaf_;
  std::vector<sat::Lit> map_;
  sat::Lit true_ = sat::kNoLit;
};

class RefUnroller {
 public:
  RefUnroller(const aig::Aig& model, sat::Solver& solver)
      : model_(model), solver_(solver) {
    frames_.emplace_back(model_.num_vars(), sat::kNoLit);
    for (std::size_t i = 0; i < model_.num_latches(); ++i)
      frames_[0][aig::lit_var(model_.latch(i))] = fresh();
  }

  sat::Lit lit(aig::Lit l, unsigned t, std::uint32_t label) {
    aig::Var root = aig::lit_var(l);
    if (root == 0) {
      sat::Lit tl = true_lit(label);
      return aig::lit_sign(l) ? tl : sat::neg(tl);
    }
    std::vector<sat::Lit>& map = frames_[t];
    for (aig::Var v : model_.cone({aig::var_lit(root)})) {
      if (map[v] != sat::kNoLit) continue;
      const aig::Node& n = model_.node(v);
      if (n.type != aig::NodeType::kAnd) {
        map[v] = fresh();
        continue;
      }
      auto fanin = [&](aig::Lit f) {
        aig::Var fv = aig::lit_var(f);
        sat::Lit s = fv == 0 ? sat::neg(true_lit(label)) : map[fv];
        return aig::lit_sign(f) ? sat::neg(s) : s;
      };
      sat::Lit a = fanin(n.fanin0);
      sat::Lit b = fanin(n.fanin1);
      sat::Lit x = fresh();
      solver_.add_clause({sat::neg(x), a}, label);
      solver_.add_clause({sat::neg(x), b}, label);
      solver_.add_clause({x, sat::neg(a), sat::neg(b)}, label);
      map[v] = x;
    }
    return aig::lit_sign(l) ? sat::neg(map[root]) : map[root];
  }

  const aig::Aig& model() const { return model_; }
  sat::Solver& solver() { return solver_; }
  void set_tie_policy(cnf::Unroller::TiePolicy p) { policy_ = std::move(p); }

  void assert_init(std::uint32_t label) {
    for (std::size_t i = 0; i < model_.num_latches(); ++i) init_latch(i, label);
  }

  void init_latch(std::size_t i, std::uint32_t label) {
    aig::LatchInit init = model_.latch_init(i);
    if (init == aig::LatchInit::kUndef) return;
    sat::Lit l = lit(model_.latch(i), 0, label);
    solver_.add_clause({init == aig::LatchInit::kOne ? l : sat::neg(l)}, label);
  }

  void add_transition(unsigned t, std::uint32_t label) {
    std::vector<sat::Lit> next(model_.num_vars(), sat::kNoLit);
    for (std::size_t i = 0; i < model_.num_latches(); ++i) {
      sat::Lit v = fresh();
      next[aig::lit_var(model_.latch(i))] = v;
      const sat::Lit guard = policy_ ? policy_(i, t) : sat::kNoLit;
      if (guard == cnf::Unroller::kUntied) continue;
      auto add = [&](std::vector<sat::Lit> c) {
        if (guard != sat::kNoLit) c.push_back(sat::neg(guard));
        solver_.add_clause(c, label);
      };
      aig::Lit nx = model_.latch_next(i);
      if (aig::lit_var(nx) == 0) {
        add({aig::lit_sign(nx) ? v : sat::neg(v)});
      } else {
        sat::Lit g = lit(nx, t, label);
        add({sat::neg(v), g});
        add({v, sat::neg(g)});
      }
    }
    frames_.push_back(std::move(next));
  }

  void assert_constraints(unsigned t, std::uint32_t label) {
    for (std::size_t i = 0; i < model_.num_constraints(); ++i) {
      aig::Lit c = model_.constraint(i);
      if (aig::lit_var(c) == 0) {
        if (c == aig::kFalse) solver_.add_clause({}, label);
        continue;
      }
      solver_.add_clause({lit(c, t, label)}, label);
    }
  }

  sat::Lit bad_lit(unsigned t, std::uint32_t label) {
    return lit(model_.output(0), t, label);
  }

  sat::Lit encode_state_pred(const aig::Aig& sets, aig::Lit root, unsigned t,
                             std::uint32_t label) {
    RefTseitin enc(sets, solver_, [&](aig::Var v) {
      return lit(model_.latch(sets.input_index(v)), t, label);
    });
    return enc.encode(root, label);
  }

 private:
  sat::Lit fresh() { return sat::mk_lit(solver_.new_var()); }
  sat::Lit true_lit(std::uint32_t label) {
    if (true_ == sat::kNoLit) {
      true_ = fresh();
      solver_.add_clause({true_}, label);
    }
    return true_;
  }

  const aig::Aig& model_;
  sat::Solver& solver_;
  cnf::Unroller::TiePolicy policy_;
  std::vector<std::vector<sat::Lit>> frames_;
  sat::Lit true_ = sat::kNoLit;
};

std::string clause_str(std::span<const sat::Lit> lits, std::uint32_t label) {
  std::ostringstream os;
  os << "{";
  for (sat::Lit l : lits) os << ' ' << (sat::sign(l) ? "-" : "") << sat::var(l);
  os << " } label " << label;
  return os.str();
}

// Same variable count and the same original clauses, in the same order and
// with the same labels, as recorded in the two solvers' proof logs.
void expect_same_stream(const sat::Solver& got, const sat::Solver& want,
                        const std::string& what) {
  EXPECT_EQ(got.num_vars(), want.num_vars()) << what;
  const sat::Proof& pg = got.proof();
  const sat::Proof& pw = want.proof();
  ASSERT_EQ(pg.size(), pw.size()) << what;
  for (sat::ClauseId id = 0; id < pg.size(); ++id) {
    ASSERT_TRUE(pg.is_original(id) && pw.is_original(id)) << what;
    std::span<const sat::Lit> g = pg.literals(id), w = pw.literals(id);
    ASSERT_TRUE(std::equal(g.begin(), g.end(), w.begin(), w.end()) &&
                pg.label(id) == pw.label(id))
        << what << ": clause " << id << " is " << clause_str(g, pg.label(id))
        << ", reference " << clause_str(w, pw.label(id));
  }
}

// A predicate over the model's latches with real structure: the bad
// output's cone, model inputs folded onto latch inputs.
aig::Lit state_pred(const aig::Aig& model, aig::Aig& sets) {
  const std::size_t nl = model.num_latches();
  for (std::size_t i = 0; i < nl; ++i) sets.add_input();
  std::vector<aig::Lit> leaf(model.num_vars(), aig::kNullLit);
  for (std::size_t i = 0; i < nl; ++i)
    leaf[aig::lit_var(model.latch(i))] = sets.input(i);
  for (std::size_t i = 0; i < model.num_inputs(); ++i)
    leaf[aig::lit_var(model.input(i))] = sets.input(i % nl);
  return sets.import_cone(model, model.output(0), leaf);
}

// The partial abstraction, one latch in three each: tied, untied (a free
// cutpoint, without its reset unit), and tied behind a fresh guard.
cnf::Unroller::TiePolicy partial_ties(sat::Solver& s) {
  return [&s](std::size_t i, unsigned) {
    if (i % 3 == 0) return sat::kNoLit;
    if (i % 3 == 1) return cnf::Unroller::kUntied;
    return sat::mk_lit(s.new_var());
  };
}

template <class U>
void init(U& u, bool partial, std::uint32_t label) {
  if (!partial) return u.assert_init(label);
  u.set_tie_policy(partial_ties(u.solver()));
  for (std::size_t i = 0; i < u.model().num_latches(); ++i)
    if (i % 3 != 1) u.init_latch(i, label);
}

// ITP/ITPSEQ order: init, the transitions, constraints, the target at every
// frame, and a state predicate at frame 0 (before any transition) and k.
template <class U>
void drive_paper(U& u, bool partial, const aig::Aig& sets, aig::Lit pred,
                 unsigned k) {
  init(u, partial, 1);
  (void)u.encode_state_pred(sets, pred, 0, 1);
  for (unsigned t = 0; t < k; ++t) u.add_transition(t, t + 1);
  for (unsigned t = 0; t <= k; ++t) u.assert_constraints(t, t + 1);
  for (unsigned t = 1; t <= k; ++t) (void)u.bad_lit(t, k + 1);
  (void)u.encode_state_pred(sets, pred, k, k + 1);
}

// BMC / k-induction order: frame t-1's bad signal, a state predicate and
// the constraints are encoded before its transition, so add_transition
// finds the frame partly encoded (under other labels).
template <class U>
void drive_bmc(U& u, bool partial, const aig::Aig& sets, aig::Lit pred,
               unsigned k) {
  init(u, partial, 0);
  u.assert_constraints(0, 0);
  for (unsigned t = 1; t <= k; ++t) {
    (void)u.bad_lit(t - 1, 3 * t);
    (void)u.encode_state_pred(sets, pred, t - 1, 3 * t + 1);
    u.add_transition(t - 1, 3 * t + 2);
    u.assert_constraints(t, 3 * t + 2);
  }
  (void)u.bad_lit(k, 0);
}

TEST(EncodeCone, UnrollerMatchesFullConeWalkOnSuite) {
  constexpr unsigned kFrames = 4;
  for (const bench::Instance& inst : bench::make_suite()) {
    const aig::Aig& g = inst.model;
    if (g.num_latches() == 0 || g.num_outputs() == 0) continue;
    aig::Aig sets;
    const aig::Lit pred = state_pred(g, sets);
    // Concrete, and partial_ties' abstraction.
    for (bool partial : {false, true}) {
      for (bool bmc : {false, true}) {
        sat::Solver got, want;
        got.enable_proof();
        want.enable_proof();
        cnf::Unroller unr(g, got);
        RefUnroller ref(g, want);
        if (bmc) {
          drive_bmc(unr, partial, sets, pred, kFrames);
          drive_bmc(ref, partial, sets, pred, kFrames);
        } else {
          drive_paper(unr, partial, sets, pred, kFrames);
          drive_paper(ref, partial, sets, pred, kFrames);
        }
        expect_same_stream(got, want,
                           inst.name + (partial ? " partial" : " concrete") +
                               (bmc ? " bmc order" : " paper order"));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

// The StateSpace checker keeps one TseitinEncoder while the graph grows
// (imported interpolants): later encodes share nodes encoded earlier.
TEST(EncodeCone, TseitinMatchesFullConeWalkOnGrowingGraph) {
  for (const bench::Instance& inst : bench::make_suite()) {
    const aig::Aig& g = inst.model;
    aig::Aig sets;
    std::vector<aig::Lit> leaf(g.num_vars(), aig::kNullLit);
    for (std::size_t i = 0; i < g.num_latches(); ++i)
      leaf[aig::lit_var(g.latch(i))] = sets.add_input();
    for (std::size_t i = 0; i < g.num_inputs(); ++i)
      leaf[aig::lit_var(g.input(i))] = sets.add_input();
    sat::Solver got, want;
    got.enable_proof();
    want.enable_proof();
    cnf::TseitinEncoder enc(sets, got,
                            [&](aig::Var) { return sat::mk_lit(got.new_var()); });
    RefTseitin ref(sets, want,
                   [&](aig::Var) { return sat::mk_lit(want.new_var()); });
    std::vector<aig::Lit> roots;
    for (std::size_t i = 0; i < g.num_latches(); ++i) {
      roots.push_back(sets.import_cone(g, g.latch_next(i), leaf));
      const auto label = static_cast<std::uint32_t>(i % 4);
      EXPECT_EQ(enc.encode(roots.back(), label), ref.encode(roots.back(), label));
      // Re-encode an earlier root, negated: a pure lookup.
      aig::Lit old = aig::lit_not(roots[i / 2]);
      EXPECT_EQ(enc.encode(old, label), ref.encode(old, label));
    }
    aig::Lit all = sets.make_and_many(roots);
    EXPECT_EQ(enc.encode(all, 7), ref.encode(all, 7));
    expect_same_stream(got, want, inst.name + " growing graph");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// The per-use property encodings (Unroller::assert_good, assert_bad) against
// bad_lit's Tseitin literal, built by a separate encoder over the same leaf
// variables.  Both encodings are checked at frame 0, whose next-state cones
// are encoded first (so the flattening stops at nodes the frame has), and
// at frame 1, where no gate is encoded.  Latches are untied, so every leaf
// assignment is possible at both frames.
class PerUseChecker {
 public:
  PerUseChecker(const aig::Aig& g, unsigned t) : g_(g), t_(t), unr_(g, s_) {
    s_.enable_proof();
    unr_.set_tie_policy(
        [](std::size_t, unsigned) { return cnf::Unroller::kUntied; });
    unr_.add_transition(0, 0);
    for (std::size_t i = 0; i < g.num_latches(); ++i)
      (void)unr_.lit(g.latch_next(i), 0, 0);
    support_ = g.support(g.output(0));
    for (aig::Var v : support_) leaf_.push_back(unr_.lit(aig::var_lit(v), t, 0));
    cnf::TseitinEncoder ref(g, s_, [&](aig::Var v) {
      return unr_.lookup(aig::var_lit(v), t);
    });
    bad_ = ref.encode(g.output(0), 0);
    good_act_ = sat::mk_lit(s_.new_var());
    bad_act_ = sat::mk_lit(s_.new_var());
    s_.freeze(sat::var(good_act_));
    s_.freeze(sat::var(bad_act_));
    // The good clauses are the guarded ones; the others define the gates
    // of conjuncts that are not leaves of the model.
    const std::size_t before = s_.proof().size();
    unr_.assert_good(t, 0, good_act_);
    for (std::size_t id = before; id < s_.proof().size(); ++id) {
      std::vector<sat::Lit> c(s_.proof().literals(id).begin(),
                              s_.proof().literals(id).end());
      const auto guard = std::find(c.begin(), c.end(), sat::neg(good_act_));
      if (guard == c.end()) continue;
      c.erase(guard);
      good_.push_back(std::move(c));
    }
    // Those gates are now encoded, so every clause the target adds is its
    // own, and each carries ~act: unassumed, the target constrains nothing,
    // and no clause of it becomes unit on leaf values alone.
    const std::size_t mid = s_.proof().size();
    unr_.assert_bad(t, t, 0, bad_act_);
    for (std::size_t id = mid; id < s_.proof().size(); ++id) {
      const auto c = s_.proof().literals(id);
      EXPECT_NE(std::find(c.begin(), c.end(), sat::neg(bad_act_)), c.end())
          << "a target clause without ~act";
    }
  }

  std::size_t support_size() const { return support_.size(); }

  /// Every good clause is implied by ¬bad, and together they refute bad;
  /// the target under its activation refutes ¬bad.
  void check_symbolic() {
    EXPECT_EQ(s_.solve_assuming({good_act_, bad_}), sat::Status::kUnsat);
    for (const std::vector<sat::Lit>& c : good_) {
      std::vector<sat::Lit> a{sat::neg(bad_)};
      for (sat::Lit l : c) a.push_back(sat::neg(l));
      EXPECT_EQ(s_.solve_assuming(a), sat::Status::kUnsat);
    }
    EXPECT_EQ(s_.solve_assuming({bad_act_, sat::neg(bad_)}),
              sat::Status::kUnsat);
  }

  /// Under the leaf assignment `bits` (bit j: support var j): the good
  /// clauses are satisfiable exactly when bad is false, the target under
  /// its activation exactly when bad is true, and with neither activation
  /// assumed the assignment always is.
  void check_assignment(const std::vector<bool>& bits) {
    std::vector<bool> vals(g_.num_vars(), false);
    std::vector<sat::Lit> a;
    for (std::size_t j = 0; j < support_.size(); ++j) {
      vals[support_[j]] = bits[j];
      a.push_back(bits[j] ? leaf_[j] : sat::neg(leaf_[j]));
    }
    const bool bad = g_.evaluate(g_.output(0), vals);
    const auto solve_with = [&](sat::Lit act) {
      std::vector<sat::Lit> as = a;
      if (act != sat::kNoLit) as.push_back(act);
      return s_.solve_assuming(as);
    };
    EXPECT_EQ(solve_with(good_act_),
              bad ? sat::Status::kUnsat : sat::Status::kSat);
    EXPECT_EQ(solve_with(bad_act_),
              bad ? sat::Status::kSat : sat::Status::kUnsat);
    EXPECT_EQ(solve_with(sat::kNoLit), sat::Status::kSat);
  }

  /// All assignments of a support of up to 12 variables, else `samples`
  /// random ones plus `samples` models of bad.
  void check_assignments(std::mt19937& rng, unsigned samples) {
    const std::size_t n = support_.size();
    std::vector<bool> bits(n);
    if (n <= 12) {
      for (std::uint32_t m = 0; m < (1u << n); ++m) {
        for (std::size_t j = 0; j < n; ++j) bits[j] = (m >> j) & 1;
        check_assignment(bits);
      }
      return;
    }
    for (unsigned r = 0; r < samples; ++r) {
      for (std::size_t j = 0; j < n; ++j) bits[j] = rng() & 1;
      check_assignment(bits);
    }
    for (unsigned r = 0; r < samples; ++r) {
      // A model of bad near a random assignment: assume a random prefix of
      // it, shortened until bad is satisfiable.
      std::vector<sat::Lit> a{bad_};
      for (std::size_t j = 0; j < n; ++j)
        a.push_back((rng() & 1) ? leaf_[j] : sat::neg(leaf_[j]));
      while (s_.solve_assuming(a) != sat::Status::kSat) {
        ASSERT_GT(a.size(), 1u) << "bad is unsatisfiable";
        a.pop_back();
      }
      for (std::size_t j = 0; j < n; ++j)
        bits[j] = s_.model_value(leaf_[j]);
      check_assignment(bits);
    }
  }

 private:
  const aig::Aig& g_;
  unsigned t_;
  sat::Solver s_;
  cnf::Unroller unr_;
  std::vector<aig::Var> support_;
  std::vector<sat::Lit> leaf_;  // leaf_[j]: support_[j] at frame t_
  sat::Lit bad_ = sat::kNoLit;  // the reference Tseitin literal
  sat::Lit good_act_ = sat::kNoLit, bad_act_ = sat::kNoLit;
  std::vector<std::vector<sat::Lit>> good_;  // without the guard
};

/// A random model whose bad output mixes OR trees, AND trees, shared nodes
/// and constants, over a few latches and inputs whose next-state functions
/// share its nodes.
aig::Aig random_property_model(std::mt19937& rng) {
  aig::Aig g;
  std::vector<aig::Lit> pool;
  for (unsigned i = 0, n = 1 + rng() % 3; i < n; ++i)
    pool.push_back(g.add_input());
  for (unsigned i = 0, n = 2 + rng() % 5; i < n; ++i)
    pool.push_back(g.add_latch(aig::LatchInit::kZero));
  const std::size_t latches = pool.size() - g.num_inputs();
  auto pick = [&] { return pool[rng() % pool.size()] ^ (rng() % 2); };
  for (unsigned i = 0, n = 4 + rng() % 12; i < n; ++i)
    pool.push_back(rng() % 3 ? g.make_and(pick(), pick())
                             : g.make_or(pick(), pick()));
  if (rng() % 8 == 0) pool.push_back(rng() % 2 ? aig::kTrue : aig::kFalse);
  std::vector<aig::Lit> disjuncts;
  for (unsigned d = 0, n = 1 + rng() % 4; d < n; ++d) {
    std::vector<aig::Lit> conj;
    for (unsigned c = 0, m = 1 + rng() % 3; c < m; ++c) conj.push_back(pick());
    disjuncts.push_back(g.make_and_many(conj));
  }
  g.add_output(g.make_or_many(disjuncts));
  for (std::size_t i = 0; i < latches; ++i)
    g.set_latch_next(g.latch(i), pick());
  return g;
}

TEST(Unroller, PerUsePropertyEncodingsMatchBadLit) {
  std::mt19937 rng(28);
  unsigned exhaustive = 0;
  for (const bench::Instance& inst : bench::make_suite()) {
    SCOPED_TRACE(inst.name);
    for (unsigned t : {0u, 1u}) {
      PerUseChecker chk(inst.model, t);
      chk.check_symbolic();
      chk.check_assignments(rng, 8);
      if (chk.support_size() <= 12) ++exhaustive;
      if (::testing::Test::HasFailure()) return;
    }
  }
  // 90 of the 102 designs have a property over at most 12 leaves.
  EXPECT_GE(exhaustive, 160u);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("random model " + std::to_string(trial));
    const aig::Aig g = random_property_model(rng);
    for (unsigned t : {0u, 1u}) {
      PerUseChecker chk(g, t);
      chk.check_symbolic();
      chk.check_assignments(rng, 8);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace itpseq
