// itp_session_test.cpp — the long-lived proof-logging session behind all
// five paper engines against a one-shot build of every query.
//
// Each test drives an mc::ItpSession through an engine's query pattern
// (the bounds of ITPSEQ, SITPSEQ's serial steps and parallel suffix, ITP's
// inner iterations, CBA's growing abstraction, PBA's concrete check and
// abstract re-solve) and checks every query against a test-local one-shot
// solver built from the paper's formulas over the full model: every latch
// the abstraction makes visible is tied and reset, in or out of the cone of
// influence, and the start's definitions are unguarded.  The session ties
// only the cone and guards one-use starts, so this is a differential test
// of both.  Each query must give the same SAT/UNSAT answer, and on UNSAT
// an extracted sequence that satisfies Definitions 1 and 2 (itp/validate)
// for the one-shot build's partition.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_circuits/generators.hpp"
#include "bench_circuits/suite.hpp"
#include "cnf/unroller.hpp"
#include "itp/interpolate.hpp"
#include "itp/validate.hpp"
#include "mc/itp_session.hpp"
#include "mc/state_space.hpp"

namespace itpseq::mc {
namespace {

using Layout = ItpSession::Layout;

/// A test-local Tseitin unrolling into a plain labelled clause list.  It
/// shares no code with cnf::Unroller, and no solver drops a clause that is
/// satisfied at level 0, so the partition is exactly the paper's.
class Encoder {
 public:
  using Map = std::unordered_map<aig::Var, sat::Lit>;

  itp::LabeledCnf cnf;

  sat::Lit fresh() { return sat::mk_lit(cnf.num_vars++); }
  void add(std::vector<sat::Lit> c, std::uint32_t label) {
    cnf.clauses.emplace_back(std::move(c), label);
  }
  /// `root` of `g`, whose leaves (inputs, latches) are looked up in (or,
  /// when absent, added to) `map`; gate clauses carry `label`.
  sat::Lit encode(const aig::Aig& g, aig::Lit root, Map& map,
                  std::uint32_t label) {
    const aig::Var v = aig::lit_var(root);
    sat::Lit l;
    if (auto it = map.find(v); it != map.end()) {
      l = it->second;
    } else if (v == 0) {  // constant false
      l = fresh();
      add({sat::neg(l)}, label);
      map[v] = l;
    } else if (g.is_and(v)) {
      const aig::Node& nd = g.node(v);
      const sat::Lit a = encode(g, nd.fanin0, map, label);
      const sat::Lit b = encode(g, nd.fanin1, map, label);
      l = fresh();
      add({sat::neg(l), a}, label);
      add({sat::neg(l), b}, label);
      add({l, sat::neg(a), sat::neg(b)}, label);
      map[v] = l;
    } else {
      l = map[v] = fresh();
    }
    return aig::lit_sign(root) ? sat::neg(l) : l;
  }
};

/// The one-shot build of a query (what each engine built per query before
/// the session), partitioned as the paper does: start(V^0) ∧ T^n ∧
/// constraints at frames 0..n ∧ target, with the layout's labels.  Every
/// `visible` latch (empty: all) is tied and reset, whatever the cone of
/// influence; the others are free.
struct OneShot {
  sat::Status status;
  itp::LabeledCnf cnf;
  std::vector<std::vector<sat::Lit>> latch;  // latch[t][i]: latch i at frame t
};

OneShot one_shot(const aig::Aig& model, const aig::Aig& sets, Layout layout,
                 aig::Lit start, unsigned n, bool assume_k,
                 const std::vector<bool>& visible = {}) {
  auto tied = [&](std::size_t i) { return visible.empty() || visible[i]; };
  const bool seq = layout == Layout::kSequence;
  auto label = [&](unsigned t) -> std::uint32_t {
    return seq ? t + 1 : (t == 0 ? 1 : 2);
  };
  Encoder e;
  std::vector<Encoder::Map> frame(n + 1);
  OneShot r;
  r.latch.resize(n + 1);
  for (unsigned t = 0; t <= n; ++t)
    for (std::size_t i = 0; i < model.num_latches(); ++i) {
      r.latch[t].push_back(e.fresh());
      frame[t][aig::lit_var(model.latch(i))] = r.latch[t].back();
    }
  if (start == aig::kNullLit) {
    for (std::size_t i = 0; i < model.num_latches(); ++i)
      if (tied(i) && model.latch_init(i) != aig::LatchInit::kUndef)
        e.add({model.latch_init(i) == aig::LatchInit::kOne
                   ? r.latch[0][i]
                   : sat::neg(r.latch[0][i])},
              1);
  } else if (start != aig::kTrue) {
    Encoder::Map over;  // sets' input i is model latch i
    for (std::size_t i = 0; i < model.num_latches(); ++i)
      over[aig::lit_var(sets.input(i))] = r.latch[0][i];
    e.add({e.encode(sets, start, over, 1)}, 1);
  }
  for (unsigned t = 0; t < n; ++t)
    for (std::size_t i = 0; i < model.num_latches(); ++i) {
      if (!tied(i)) continue;
      const sat::Lit nx = e.encode(model, model.latch_next(i), frame[t], label(t));
      e.add({sat::neg(r.latch[t + 1][i]), nx}, label(t));
      e.add({r.latch[t + 1][i], sat::neg(nx)}, label(t));
    }
  for (unsigned t = 0; t <= n; ++t)
    for (std::size_t c = 0; c < model.num_constraints(); ++c)
      e.add({e.encode(model, model.constraint(c), frame[t], label(t))}, label(t));
  auto bad = [&](unsigned t, std::uint32_t l) {
    return e.encode(model, model.output(0), frame[t], l);
  };
  std::vector<sat::Lit> target;
  if (seq) {
    if (assume_k)
      for (unsigned t = 1; t < n; ++t) e.add({sat::neg(bad(t, label(t)))}, label(t));
    target.push_back(bad(n, n + 1));
  } else {
    for (unsigned t = 1; t <= n; ++t) target.push_back(bad(t, 2));
  }
  e.add(target, seq ? n + 1 : 2);

  sat::Solver s;
  for (unsigned v = 0; v < e.cnf.num_vars; ++v) s.new_var();
  for (const auto& [c, l] : e.cnf.clauses) s.add_clause(c);
  r.status = s.solve();
  r.cnf = std::move(e.cnf);
  return r;
}

/// Drives one session and checks each of its queries.
class SessionChecker {
 public:
  SessionChecker(const aig::Aig& model, ItpSession::Shape shape, bool validate)
      : model_(model),
        space_(model),
        shape_(shape),
        validate_(validate),
        session_(model, 0, EngineOptions{}, shape) {}

  /// One query, checked against its one-shot build.  On UNSAT returns the
  /// sequence for cuts 1..last_cut, validated against the one-shot
  /// partition when enabled.
  bool query(aig::Lit start, unsigned n, unsigned last_cut,
             std::vector<aig::Lit>& terms) {
    SCOPED_TRACE("query " + std::to_string(queries_) + " (n = " +
                 std::to_string(n) + ")");
    ++queries_;
    const sat::Status got =
        session_.query(space_.graph(), start, n, sat::Budget{});
    const OneShot want = one_shot(model_, space_.graph(), shape_.layout, start,
                                  n, shape_.assume_k, visible_);
    EXPECT_NE(got, sat::Status::kUnknown);
    EXPECT_EQ(got, want.status);
    if (got != sat::Status::kUnsat || want.status != sat::Status::kUnsat)
      return false;
    terms = extract(session_.final(), last_cut);
    if (validate_) check_sequence(want, terms);
    return true;
  }

  /// Later queries (and their one-shot builds) on this abstraction.
  void set_visible(const std::vector<bool>& visible) {
    session_.set_visible(visible);
    visible_ = visible;
  }
  std::vector<bool> failed_latches() const { return session_.failed_latches(); }

 private:
  std::vector<aig::Lit> extract(sat::ClauseId final, unsigned last_cut) {
    itp::InterpolantExtractor ex(session_.proof(), final);
    return ex.extract_sequence(
        space_.graph(), 1, last_cut, [&](std::uint32_t cut, sat::Var v) {
          for (std::size_t i = 0; i < model_.num_latches(); ++i) {
            const sat::Lit l = session_.unroller().lookup(model_.latch(i), cut);
            if (l != sat::kNoLit && sat::var(l) == v)
              return aig::lit_xor(space_.latch_input(i), sat::sign(l));
          }
          return aig::kNullLit;
        });
  }

  /// Definitions 1 and 2 for the first terms.size() cuts of the one-shot
  /// partition.  Term c is over the latches at frame c: rebuild it in an
  /// AIG whose input v is the one-shot's SAT variable v.
  void check_sequence(const OneShot& want, const std::vector<aig::Lit>& terms) {
    aig::Aig h;
    std::vector<sat::Var> var_of_input;
    for (unsigned v = 0; v < want.cnf.num_vars; ++v) {
      h.add_input();
      var_of_input.push_back(v);
    }
    const aig::Aig& g = space_.graph();
    std::vector<aig::Lit> mapped;
    for (unsigned c = 1; c <= terms.size(); ++c) {
      std::vector<aig::Lit> leaf(g.num_vars(), aig::kNullLit);
      for (std::size_t i = 0; i < model_.num_latches(); ++i) {
        const sat::Lit l = want.latch[c][i];
        leaf[aig::lit_var(space_.latch_input(i))] =
            aig::lit_xor(h.input(sat::var(l)), sat::sign(l));
      }
      mapped.push_back(h.import_cone(g, terms[c - 1], leaf));
    }
    const itp::ValidationResult r =
        itp::validate_sequence(want.cnf, h, mapped, var_of_input);
    EXPECT_TRUE(r.ok) << r.error;
  }

  const aig::Aig& model_;
  StateSpace space_;
  ItpSession::Shape shape_;
  bool validate_;
  ItpSession session_;
  std::vector<bool> visible_;  // empty: every latch
  unsigned queries_ = 0;
};

ItpSession::Shape sequence_shape(bool serial) {
  ItpSession::Shape sh;
  sh.layout = Layout::kSequence;
  sh.assume_k = true;
  sh.shorter_queries = serial;
  return sh;
}

/// SITPSEQ's (alpha = 0.5) serial steps and parallel suffix at bound k,
/// after the bound's query answered UNSAT with sequence `seq`.
void serial_steps(SessionChecker& chk, unsigned k,
                  const std::vector<aig::Lit>& seq) {
  const unsigned ns = std::min(
      k, static_cast<unsigned>(std::floor(0.5 * static_cast<double>(k + 1))));
  aig::Lit term = seq[0];
  for (unsigned j = 2; j <= ns; ++j) {
    std::vector<aig::Lit> step;
    if (!chk.query(term, k - (j - 1), 1, step)) return;  // the fallback
    term = step[0];
  }
  if (ns < k) {
    std::vector<aig::Lit> suffix;
    chk.query(term, k - ns, k - ns, suffix);
  }
}

/// ITPSEQ and SITPSEQ (alpha = 0.5): every bound, serial step and
/// parallel suffix of a run capped at `max_bound`.
void run_sequence(const aig::Aig& model, bool serial, unsigned max_bound,
                  bool validate) {
  SessionChecker chk(model, sequence_shape(serial), validate);
  for (unsigned k = 1; k <= max_bound; ++k) {
    SCOPED_TRACE("k = " + std::to_string(k));
    std::vector<aig::Lit> seq;
    if (!chk.query(aig::kNullLit, k, k, seq)) return;  // a counterexample
    if (serial) serial_steps(chk, k, seq);
  }
}

/// CBA and PBA sessions, with or without serial steps, on the abstraction
/// their engines would use.  CBA (exact-k, no latch visible at first) makes
/// the lowest invisible latch visible while a bound's query is SAT.  PBA
/// (assume-k) asks each bound's concrete query, the same query with no
/// latch visible, and the same query assuming only the guards of the
/// concrete query's failed latches, which must be UNSAT.
/// Counts the bounds refuted with some latch invisible in `abstract`.
void run_abstraction(const aig::Aig& model, AbstractionMode mode, bool serial,
                     unsigned max_bound, unsigned& abstract) {
  ItpSession::Shape sh = sequence_shape(serial);
  sh.abstraction = mode;
  sh.assume_k = mode == AbstractionMode::kPba;
  SessionChecker chk(model, sh, /*validate=*/true);
  std::vector<bool> visible(model.num_latches(), false);
  if (mode == AbstractionMode::kCba) chk.set_visible(visible);
  for (unsigned k = 1; k <= max_bound; ++k) {
    SCOPED_TRACE("k = " + std::to_string(k));
    std::vector<aig::Lit> seq;
    if (mode == AbstractionMode::kPba) {
      chk.set_visible({});
      if (!chk.query(aig::kNullLit, k, k, seq)) return;  // a counterexample
      visible = chk.failed_latches();
      // With no latch visible, the query may turn SAT.
      chk.set_visible(std::vector<bool>(model.num_latches(), false));
      std::vector<aig::Lit> free_seq;
      chk.query(aig::kNullLit, k, k, free_seq);
      chk.set_visible(visible);
      ASSERT_TRUE(chk.query(aig::kNullLit, k, k, seq))
          << "the re-solve on the failed latches is SAT";
    } else {
      while (!chk.query(aig::kNullLit, k, k, seq)) {
        const auto next = std::find(visible.begin(), visible.end(), false);
        if (next == visible.end()) return;  // a counterexample
        *next = true;
        chk.set_visible(visible);
      }
    }
    if (std::find(visible.begin(), visible.end(), false) != visible.end())
      ++abstract;
    if (serial) serial_steps(chk, k, seq);
  }
}

/// ITP: every bound's inner iterations (at most four).
void run_standard(const aig::Aig& model, unsigned max_bound, bool validate) {
  ItpSession::Shape sh;
  sh.layout = Layout::kStandard;
  SessionChecker chk(model, sh, validate);
  for (unsigned k = 1; k <= max_bound; ++k) {
    SCOPED_TRACE("k = " + std::to_string(k));
    aig::Lit front = aig::kNullLit;
    for (unsigned j = 0; j < 4; ++j) {
      std::vector<aig::Lit> itp;
      if (!chk.query(front, k, 1, itp)) break;
      front = itp[0];
    }
  }
}

/// Every bound after the first opens with a one-use start (the previous
/// bound's first term), which therefore encodes the new frame, and then
/// asks the bound's query from the initial states: the frame must outlive
/// the start, and only the start's definitions retire.  `serial`: the
/// session encodes the property per use (SITPSEQ's shape).
void run_start_first(const aig::Aig& model, bool serial, unsigned max_bound,
                     bool validate) {
  SessionChecker chk(model, sequence_shape(serial), validate);
  aig::Lit term = aig::kTrue;
  for (unsigned k = 1; k <= max_bound; ++k) {
    SCOPED_TRACE("k = " + std::to_string(k));
    std::vector<aig::Lit> seq;
    chk.query(term, k, 1, seq);
    if (!chk.query(aig::kNullLit, k, k, seq)) return;  // a counterexample
    term = seq[0];
  }
}

/// Latches of `model` in the cone of influence of output 0, the ones a
/// session ties.
std::size_t cone_latches(const aig::Aig& model) {
  const std::vector<bool> coi = model.latch_coi(0);
  return static_cast<std::size_t>(std::count(coi.begin(), coi.end(), true));
}

TEST(ItpSession, SuiteQueriesMatchOneShot) {
  unsigned partial = 0;  // validated designs with latches outside the cone
  for (const auto& inst : bench::make_suite()) {
    SCOPED_TRACE(inst.name);
    // Definitions 1 and 2 cost fresh SAT calls per cut: small designs and
    // small cones (the industrial FAIL designs) only.
    const std::size_t cone = cone_latches(inst.model);
    const bool validate = inst.model.num_latches() <= 24 || cone <= 24;
    if (validate && cone < inst.model.num_latches()) ++partial;
    run_sequence(inst.model, /*serial=*/false, 4, validate);
    run_sequence(inst.model, /*serial=*/true, 4, validate);
    run_standard(inst.model, 3, validate);
    run_start_first(inst.model, /*serial=*/false, 4, validate);
    run_start_first(inst.model, /*serial=*/true, 4, validate);
  }
  // lock{4,8,24}safe and the seven industrial FAIL designs.
  EXPECT_GE(partial, 10u);
}

TEST(ItpSession, AbstractionQueriesMatchOneShot) {
  unsigned abstract[2] = {0, 0};  // CBA, PBA
  for (const auto& inst : bench::make_suite()) {
    if (inst.model.num_latches() > 24) continue;
    SCOPED_TRACE(inst.name);
    for (AbstractionMode mode : {AbstractionMode::kCba, AbstractionMode::kPba})
      for (bool serial : {false, true}) {
        SCOPED_TRACE(std::string(to_string(mode)) + (serial ? " serial" : ""));
        run_abstraction(inst.model, mode, serial, 4,
                        abstract[mode == AbstractionMode::kPba]);
        if (::testing::Test::HasFatalFailure()) return;
      }
  }
  // Both engines' abstractions actually drop latches on the suite.
  EXPECT_GE(abstract[0], 100u);
  EXPECT_GE(abstract[1], 100u);
}

/// A one-use start's gate clauses are satisfied when the start retires,
/// so the next query's level-0 sweep frees every one of them.
TEST(ItpSession, RetiredStartDefinitionsAreReclaimed) {
  const auto suite = bench::make_suite();
  const auto inst = std::find_if(suite.begin(), suite.end(), [](const auto& i) {
    return i.model.num_latches() >= 4 && i.model.num_latches() <= 24;
  });
  ASSERT_NE(inst, suite.end());
  const aig::Aig& model = inst->model;
  SCOPED_TRACE(inst->name);
  StateSpace space(model);
  aig::Aig& sets = space.graph();
  // A parity chain over the latches: 3 gates, hence 9 clauses, per step.
  aig::Lit start = space.latch_input(0);
  for (unsigned j = 1; j <= 100; ++j)
    start = sets.make_xor(start, space.latch_input(j % model.num_latches()));
  const std::size_t gate_clauses = 3 * sets.cone_size(start);
  ASSERT_GE(gate_clauses, 900u);

  ItpSession::Shape sh;
  sh.layout = Layout::kStandard;
  ItpSession session(model, 0, EngineOptions{}, sh);
  ASSERT_NE(session.query(sets, start, 2, {}), sat::Status::kUnknown);
  // The next queries start from the initial states; the first one that
  // sweeps level 0 must free the retired start's whole encoding.
  const std::uint64_t before = session.solver().stats().removed_satisfied;
  for (unsigned q = 0;
       q < 8 && session.solver().stats().removed_satisfied == before; ++q)
    ASSERT_NE(session.query(sets, aig::kNullLit, 2, {}), sat::Status::kUnknown);
  EXPECT_GE(session.solver().stats().removed_satisfied - before, gate_clauses);
}

/// A serial-shape session encodes the property per use, so a query
/// propagates no property cone of a frame it does not assume.  The ring's
/// property (two tokens at once) is an OR of 496 pairwise ANDs.  After a
/// length-8 query, a length-2 query from the initial states makes 785
/// implications at its assumption levels: the latches of frames 0..8 and
/// the query's own target.  With the property's Tseitin cones unguarded
/// at every frame, as the other shapes have them, it makes 8,218: the
/// initial states evaluate the cones of frames 1..8 as well.  Inprocessing
/// is off, since its elimination rewrites those cones.
TEST(ItpSession, ShorterQueryPropagatesNoUnassumedPropertyCone) {
  const aig::Aig ring = bench::token_ring(32, false);
  StateSpace space(ring);
  EngineOptions opts;
  opts.sat_inprocess = false;
  ItpSession session(ring, 0, opts, sequence_shape(/*serial=*/true));
  ASSERT_EQ(session.query(space.graph(), aig::kNullLit, 8, {}),
            sat::Status::kUnsat);
  const std::uint64_t before =
      session.solver().stats().assumption_propagations;
  ASSERT_EQ(session.query(space.graph(), aig::kNullLit, 2, {}),
            sat::Status::kUnsat);
  EXPECT_LE(session.solver().stats().assumption_propagations - before, 2000u);
}

/// x' = x OR in, y' = x, bad = x, constraint NOT y; x and y reset to 0.
/// bad holds at frame 1 on the path with in = 1 at frame 0, and that
/// path violates the constraint at frame 2 (y = x at frame 1).
aig::Aig late_violation() {
  aig::Aig g;
  const aig::Lit in = g.add_input("in");
  const aig::Lit x = g.add_latch(aig::LatchInit::kZero, "x");
  const aig::Lit y = g.add_latch(aig::LatchInit::kZero, "y");
  g.set_latch_next(x, g.make_or(x, in));
  g.set_latch_next(y, x);
  g.add_output(x, "bad");
  g.add_constraint(aig::lit_not(y));
  return g;
}

TEST(ItpSession, ShorterQueryIgnoresConstraintsPastItsTarget) {
  const aig::Aig g = late_violation();
  StateSpace space(g);
  // A length-1 query is SAT; asserting the constraint at frame 2 as well
  // would refute it.
  ASSERT_EQ(one_shot(g, space.graph(), Layout::kSequence, aig::kNullLit, 1,
                     /*assume_k=*/true)
                .status,
            sat::Status::kSat);
  {
    sat::Solver s;
    cnf::Unroller u(g, s);
    u.assert_init(0);
    for (unsigned t = 0; t < 2; ++t) u.add_transition(t, 0);
    for (unsigned t = 0; t <= 2; ++t) u.assert_constraints(t, 0);
    s.add_clause({u.bad_lit(1, 0)});
    ASSERT_EQ(s.solve(), sat::Status::kUnsat);
  }
  // The session has encoded frames 0..3 when the length-1 query comes.
  ItpSession session(g, 0, EngineOptions{}, sequence_shape(/*serial=*/true));
  EXPECT_EQ(session.query(space.graph(), aig::kNullLit, 3, {}),
            sat::Status::kSat);
  EXPECT_EQ(session.query(space.graph(), aig::kNullLit, 1, {}),
            sat::Status::kSat);
  EXPECT_EQ(session.query(space.graph(), aig::kNullLit, 2, {}),
            sat::Status::kSat);
}

}  // namespace
}  // namespace itpseq::mc
