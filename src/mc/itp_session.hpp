// itp_session.hpp — one proof-logging BMC unrolling, answered query by query.
//
// ITP (Fig. 1) and the sequence engines (Figs. 2, 4, 5) ask all of a run's
// BMC queries over one labelled unrolling: only the start (the initial states,
// or the previous interpolant or serial term) and the target change.  A
// long-lived session therefore encodes each frame once, keeps start, target
// and query-specific clauses behind activation literals, and answers every
// query with solve_assuming.  Each UNSAT answer has its own refutation in
// the one proof log (sat/proof.hpp), ending at final(); interpolants are
// extracted from that refutation.
//
// Every session uses the interpolation-sequence labels (Vizel & Grumberg,
// FMCAD 2009), fixed per frame, so they never depend on the query: frame
// t's logic (transition t -> t+1, constraints, the assume-k "good" clause)
// is partition t+1, the start is partition 1, and the target of a length-n
// query is partition n+1.  The target is one of three (Shape::target):
//   kExact    bad at frame n;
//   kAssumeK  bad at frame n, and good at frames 1..n-1;
//   kBoundK   bad at some frame 1..n, the target standard interpolation
//             (Fig. 1) needs for soundness.
// The interpolant at cut 1 puts labels <= 1 on the A-side and every other
// label on the B-side, so it is McMillan's A = start ∧ T(V^0,V^1),
// B = T^{n-1} ∧ target interpolant: ITP's interpolant is the first term of
// the sequence.  A bound-k target mentions frames 1..n under label n+1, so
// only its cut 1 is an interpolant; the exact and assume-k targets give a
// sequence at every cut 1..n.  Each activation literal carries the label of
// the clauses it guards, so it is local to one partition and never shared
// across a cut.
//
// Every session ties only the latches in the sequential cone of influence
// of the bad output and the constraints (aig::Aig::latch_coi): no other
// latch can change an answer, so the others stay free cutpoints with no
// reset unit.  This is where Eén, Mishchenko & Amla (FMCAD 2010), the
// paper's reference [13], start every abstraction.  The abstraction
// engines (Section V) differ only in which of those ties
// (cnf::Unroller::tie) are active:
//   kNone  ties every cone latch, and its reset unit sits under the initial
//          states' activation.
//   kCba   ties the visible cone latches only, for good: a latch made
//          visible is tied in every frame so far and every later one, and
//          its reset unit joins the initial states' clauses.
//   kPba   ties each cone latch at frame t behind its own activation
//          a(i,t), labelled t+1, and its reset unit behind one labelled 1.
//          A query assumes the guards of the visible latches (all for the
//          concrete check); the failed assumptions of a refuted query name
//          the latches it needed.
// This is the single-instance formulation of reference [13].  R_0, the
// engines' first reachable set, is the reset predicate of tied_latches():
// what the first query's A-side asserts.
//
// A query's answer is that of its one-shot build over the full model:
// every latch the abstraction makes visible tied and reset, and the start's
// definitions unguarded.  The session's clauses differ from that build only
// in ways that cannot change an answer: latches outside the cone are
// untied; it also holds learned clauses, clauses whose guards the query
// does not assume and clauses that only define fresh variables (frames
// past a shorter query's target); and the definitions of earlier one-use
// starts are satisfied by their retirement.  When queries can be shorter
// than the unrolling (SITPSEQ's serial steps), the constraints and good
// clauses of every frame are guarded per frame and assumed only up to the
// query's target; every target is guarded.  So every SAT/UNSAT answer is
// the one-shot answer; only the proofs differ.
//
// How the property is encoded follows the shape.  Sessions whose queries
// never get shorter (ITP, ITPSEQ, CBA, PBA) use Unroller::bad_lit: one
// Tseitin cone per frame, shared by the good clause and the target.  Its
// definitions are unguarded, so a session with shorter queries would
// evaluate every frame's cone in every query, at frames the query never
// assumes.  Such sessions (SITPSEQ) encode each use on its own, with no
// unguarded gate of the property: Unroller::assert_good flattens a good
// clause into clauses over the frame's leaves, and Unroller::assert_bad
// builds a target whose every clause carries its activation, so a target
// the query does not assume propagates nothing (see unroller.hpp; a
// property that is one cube keeps bad_lit).  The answers do not change: a
// frame's good clauses hold exactly when ¬bad does, and an assumed target
// is satisfiable exactly when bad is, so each partition has the models of
// the one-shot build over its latches.  The new variables (fresh disjuncts,
// leaves of the frame) are local to the partition of their use, so the
// cuts are still the frame latches.  Certificates are checked by
// certify.cpp over the full model with bad_lit's Tseitin cone: one query
// per check leaves nothing to save, and the checker stays independent of
// the session's encodings.
//
// Used activations are retired with a permanent negative unit, so level-0
// simplification reclaims their clauses: a start that is an interpolant or
// a term after its query, and, when queries never get shorter, a target
// once a query of another length comes.  A one-use start's gate clauses
// carry its activation too (cnf::encode_cone's guard), so its retirement
// satisfies its whole encoding and the next sweep frees it, where it would
// otherwise be propagated by every later query (activation literals as in
// Eén & Sörensson, BMC 2003).  Frame logic and the initial states are
// never guarded that way, nor are targets except by the per-use encoding.  Activation variables and frame latch
// variables are frozen: they are assumed, they are the interpolation
// leaves, and they are the inputs of the next frame and of start encodings.
#pragma once

#include <cstdint>
#include <vector>

#include "aig/aig.hpp"
#include "cnf/unroller.hpp"
#include "mc/result.hpp"
#include "sat/solver.hpp"

namespace itpseq::mc {

/// Localization-abstraction strategy of the sequence engine (Section V).
enum class AbstractionMode : std::uint8_t {
  kNone,  ///< concrete model only (ITP, ITPSEQ, SITPSEQ)
  kCba,   ///< counterexample-based abstraction (Fig. 5)
  kPba,   ///< proof-based abstraction
};

const char* to_string(AbstractionMode m);

class ItpSession {
 public:
  /// A length-n query's target (see above).
  enum class Target : std::uint8_t { kExact, kAssumeK, kBoundK };

  struct Shape {
    Target target = Target::kExact;
    /// Which latch ties exist and how they are switched (see above).
    AbstractionMode abstraction = AbstractionMode::kNone;
    /// A query may be shorter than an earlier one (SITPSEQ serial steps).
    bool shorter_queries = false;
  };

  /// Retained-proof cap, in proof clauses.  A session keeps every query's
  /// refutation, so its proof grows with the run; an engine starts a fresh
  /// session at its next bound once proof().size() exceeds this.  About 40 MB
  /// of proof at 40 bytes a clause; the largest session of the enginebench
  /// workloads (bound 32 academic, bound 16 industrial) stays near 135k.
  static constexpr std::size_t kProofCap = std::size_t{1} << 20;

  ItpSession(const aig::Aig& model, std::size_t prop, const EngineOptions& opts,
             Shape shape);
  ItpSession(const ItpSession&) = delete;
  ItpSession& operator=(const ItpSession&) = delete;

  /// Solve start(V^0) ∧ (unrolling of length n) ∧ target (see the labels
  /// above).  `start`: aig::kNullLit for the initial states, aig::kTrue for
  /// none, otherwise a predicate of `sets`, whose input i is model latch i.
  sat::Status query(const aig::Aig& sets, aig::Lit start, unsigned n,
                    const sat::Budget& budget);

  /// After query() == kUnsat: that query's empty clause in proof().
  sat::ClauseId final() const { return final_; }

  /// kCba, kPba: later queries run on the abstraction whose visible latches
  /// are `visible` (empty: every latch).  A kPba session starts with every
  /// latch visible, a kCba session with none; kCba ties the newly visible
  /// latches for good, so a latch once visible must stay visible.
  void set_visible(std::vector<bool> visible);
  /// kPba, after query() == kUnsat: per latch, whether one of its guards is
  /// among the failed assumptions (all false after a refutation that
  /// needed no assumption).
  std::vector<bool> failed_latches() const;
  /// The latches whose ties and reset units the next query asserts: those
  /// in the cone that are visible.
  std::vector<bool> tied_latches() const;

  const sat::Solver& solver() const { return solver_; }
  const cnf::Unroller& unroller() const { return unr_; }
  const sat::Proof& proof() const { return solver_.proof(); }

 private:
  static std::uint32_t frame_label(unsigned t) { return t + 1; }
  static std::uint32_t target_label(unsigned n) { return n + 1; }
  /// A fresh frozen activation literal for clauses of partition `label`.
  sat::Lit activation(std::uint32_t label);
  bool visible(std::size_t i) const { return visible_.empty() || visible_[i]; }
  /// The reset state's clauses, under init_act_ or per-latch guards.
  void encode_init();
  /// guards_[row][i], growing guards_ on demand.
  sat::Lit& guard(std::size_t row, std::size_t i);
  /// Add clause_ (with ~guard unless guard is kNoLit).
  void add_guarded(sat::Lit guard, std::uint32_t label);
  /// Disable `act` for good (no-op for kNoLit) and clear it.
  void retire(sat::Lit& act, std::uint32_t label);
  /// `slots[t]`'s activation, created on first use when queries can be
  /// shorter, else kNoLit (the frame's clauses are unguarded).
  sat::Lit frame_guard(std::vector<sat::Lit>& slots, unsigned t);
  void freeze_latches(unsigned t);
  /// Transitions up to frame n, then the constraints and good clauses the
  /// session does not have yet.
  void encode(unsigned n);
  /// The target's activation (created and its clause added on first use).
  sat::Lit target(unsigned n);

  const aig::Aig& model_;
  std::size_t prop_;
  Shape shape_;
  sat::Solver solver_;
  cnf::Unroller unr_;
  std::vector<sat::Lit> clause_;       // add_guarded's scratch clause
  std::vector<sat::Lit> assumptions_;  // one query's activations
  sat::Lit init_act_ = sat::kNoLit;
  bool init_encoded_ = false;
  std::vector<bool> visible_;         // empty: every latch
  std::vector<bool> coi_;             // the latches the session may tie
  // kPba: [0][i] guards latch i's reset unit, [t+1][i] its tie at frame t.
  std::vector<std::vector<sat::Lit>> guards_;
  unsigned constrained_ = 0;  // frames [0, constrained_) have constraints
  unsigned good_ = 1;         // frames [1, good_) have a good clause
  std::vector<sat::Lit> frame_act_;   // per frame: constraints
  std::vector<sat::Lit> good_act_;    // per frame: the good clause
  std::vector<sat::Lit> target_act_;  // per length
  unsigned last_n_ = 0;               // length of the previous query
  sat::ClauseId final_ = sat::kNoClauseId;
};

}  // namespace itpseq::mc
