// unroller.hpp — time-frame expansion of a sequential AIG into CNF.
//
// The unroller maintains, for each time frame t, a Tseitin map from AIG
// variables to SAT literals.  Every latch gets a fresh SAT variable in every
// frame: at frame 0 constrained by its reset value (init_latch) or free, at
// frame t+1 *tied* to its next-state function at frame t by two equality
// clauses.  So the variables shared across a partition cut are exactly the
// frame's latch variables, which interpolant extraction relies on.
//
// Partition labels follow the interpolation-sequence convention of the
// paper (Section II-C):
//   A_1     = S0(V^0) ∧ T(V^0,V^1)        -> label 1
//   A_i     = T(V^{i-1},V^i), 2 <= i <= k  -> label i
//   A_{k+1} = ¬p(V^k)                      -> label k+1
// Callers are free to use any other monotone labeling (e.g. a two-label
// A/B split for standard interpolation).
//
// Which ties exist is up to the caller: a tie may sit behind a guard
// literal (it holds only while the guard is assumed), and an untied latch
// is a free cutpoint.  add_transition ties each latch of the new frame as
// the tie policy says; tie() adds a tie later.  BMC and every ItpSession
// leave the latches outside the property's cone of influence
// (aig::Aig::latch_coi) untied, and localization abstraction (CBA, PBA)
// chooses among the cone's ties.  With no policy every latch is tied: the
// full model, as certificate checks, k-induction and PDR use it.
//
// Gate cones are encoded on demand by cnf::encode_cone (tseitin.hpp) over
// the frame's map.  Pruning invariant: a node with a literal in a frame's
// map has its whole cone encoded in that frame.  The walk therefore stops
// at encoded nodes and costs only the part of a cone a frame does not yet
// have, also when a frame is partly encoded before its transition (BMC and
// k-induction ask for bad_lit(t) before add_transition(t)).  Variables,
// clause order and labels are those of a full-cone walk.
//
// Per-use property encodings.  bad_lit(t)'s gate definitions are unguarded,
// so once frame t's leaves are assigned, unit propagation evaluates its
// whole cone in every query, whether or not the query uses the property
// at t.  Two encoders encode one use each, with no gate variables of their
// own (one-polarity encoding, Plaisted & Greenbaum 1986):
//   assert_good  ¬bad(t): one clause ¬y_1 ∨ ... ∨ ¬y_m per disjunct
//                y_1 ∧ ... ∧ y_m of bad(t), behind the caller's guard;
//   assert_bad   bad at some frame of a range: one clause over a fresh
//                variable per disjunct, which implies the disjunct's
//                conjuncts.  Every clause carries ~act, so a target the
//                query does not assume propagates nothing.
// The disjuncts are the leaves of bad's OR tree (AND nodes under negated
// edges), the conjuncts those of each disjunct's AND tree (AND nodes under
// positive edges).  Both walks stop at a node with a literal in the frame's
// map: by the pruning invariant its cone is encoded, so it is a leaf like
// a latch.  The AND walks also stop at nodes with more than one fanout,
// which keeps the DNF linear in bad's cone.  Leaves get their literals from
// lit(), which keeps the invariant; the encoders map no node themselves.
// When bad is one cube (its OR tree is a single leaf), its DNF is bad
// itself, so both encoders use bad_lit(t): the cone is one AND tree, so
// there is little to save, and flattening it changes which conjunct
// explains a refuted target (SITPSEQ then stopped converging on the
// suite's cnt6pass and lfsr10z by bound 32).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "aig/aig.hpp"
#include "cnf/tseitin.hpp"
#include "sat/solver.hpp"

namespace itpseq::cnf {

/// Target formulations of the sequence engines' BMC checks (Section III).
/// Standard interpolation's bound-k target (bad at any frame 1..k) is
/// built by its session (mc/itp_session.hpp).
enum class TargetScheme : std::uint8_t {
  kExact,        ///< bad at frame k exactly (violations earlier allowed)
  kExactAssume,  ///< bad at frame k, good at frames 1..k-1
};

class Unroller {
 public:
  Unroller(const aig::Aig& model, sat::Solver& solver);

  const aig::Aig& model() const { return model_; }
  sat::Solver& solver() { return solver_; }

  /// SAT literal of AIG literal `l` evaluated at frame `t`.  Combinational
  /// gate clauses created on demand carry partition `label`.
  sat::Lit lit(aig::Lit l, unsigned t, std::uint32_t label);

  /// SAT literal of the i-th latch at frame t (frame must exist or be
  /// created by prior transitions; frame 0 always available).
  sat::Lit latch_lit(std::size_t i, unsigned t, std::uint32_t label);

  /// Already-encoded SAT literal of `l` at frame t, or sat::kNoLit.  Never
  /// creates variables or clauses (safe after solve(), e.g. for reading
  /// counterexample values out of a model).
  sat::Lit lookup(aig::Lit l, unsigned t) const;

  /// Assert the reset state at frame 0: init_latch for every latch.
  void assert_init(std::uint32_t label);
  /// Assert latch i's reset value at frame 0 (nothing for an undefined
  /// reset) with partition `label`; with a `guard`, the unit gets ~guard.
  void init_latch(std::size_t i, std::uint32_t label,
                  sat::Lit guard = sat::kNoLit);

  /// Extend the unrolling with frame t+1 (t = num_frames()-1): a fresh
  /// variable per latch, tied (`label`) as the tie policy says.
  void add_transition(unsigned t, std::uint32_t label);
  /// Tie latch i at frame t+1 to its next-state function, encoded at frame
  /// t with `label`: two equality clauses (a unit for a constant), each
  /// with ~guard unless guard is kNoLit.  At most once per latch and frame.
  void tie(std::size_t i, unsigned t, std::uint32_t label,
           sat::Lit guard = sat::kNoLit);

  /// Tie policy of later add_transition calls: `guard(i, t)` guards latch
  /// i's tie at frame t; kNoLit ties it unguarded (also the default when
  /// no policy is set), kUntied leaves it a free cutpoint (see above).
  static constexpr sat::Lit kUntied = sat::kNoLit - 1;
  using TiePolicy = std::function<sat::Lit(std::size_t i, unsigned t)>;
  void set_tie_policy(TiePolicy guard) { tie_policy_ = std::move(guard); }

  /// Highest frame with latch literals available (0-based); frames
  /// 0..num_frames()-1 exist.
  unsigned num_frames() const { return static_cast<unsigned>(frames_.size()); }

  /// SAT literal of the bad signal (output `prop`) at frame t.
  sat::Lit bad_lit(unsigned t, std::uint32_t label, std::size_t prop = 0);

  /// ¬bad(t) as clauses over leaf literals, each with ~guard unless guard
  /// is kNoLit: ¬y_1 ∨ ... ∨ ¬y_m for each disjunct y_1 ∧ ... ∧ y_m of
  /// bad(t) (see above).
  void assert_good(unsigned t, std::uint32_t label, sat::Lit guard,
                   std::size_t prop = 0);
  /// bad at some frame of [first, last], behind `act`: ~act ∨ d_1 ∨ ... ∨
  /// d_k over the disjuncts of those frames, where d is the conjunct of a
  /// one-conjunct disjunct, else a fresh variable with ~act ∨ ~d ∨ y for
  /// each conjunct y.
  void assert_bad(unsigned first, unsigned last, std::uint32_t label,
                  sat::Lit act, std::size_t prop = 0);

  /// Assert every invariant constraint of the model at frame t (AIGER 1.9
  /// "C" section semantics: constraints hold in every frame of a trace).
  /// `guard` as for assert_init.
  void assert_constraints(unsigned t, std::uint32_t label,
                          sat::Lit guard = sat::kNoLit);

  /// Encode (and return) an arbitrary predicate over the model's *latches*:
  /// `root` is a literal of `sets`, whose input i corresponds to model
  /// latch i.  Evaluated over frame `t`'s latch literals.  With a `guard`,
  /// the predicate's definitions hold only while it is assumed, and a unit
  /// ¬guard satisfies them all (for a predicate used once); the frame's
  /// latch literals are never guarded.
  sat::Lit encode_state_pred(const aig::Aig& sets, aig::Lit root, unsigned t,
                             std::uint32_t label);
  sat::Lit encode_state_pred(const aig::Aig& sets, aig::Lit root, unsigned t,
                             std::uint32_t label, sat::Lit guard);

 private:
  struct Frame {
    std::vector<sat::Lit> map;  // aig var -> sat lit, kNoLit if unencoded
  };

  sat::Lit fresh() { return sat::mk_lit(solver_.new_var()); }
  sat::Lit true_lit(std::uint32_t label);
  /// bad(t) as a DNF over AIG literals: each disjunct's conjuncts go to
  /// `dnf`, the disjunct's end in `dnf` to `ends` (both cleared first).
  /// One cube is the one conjunct bad, which lit() encodes as bad_lit.
  void bad_dnf(unsigned t, std::size_t prop, std::vector<aig::Lit>& dnf,
               std::vector<std::size_t>& ends);
  /// Appends to `out` the leaves of `root`'s tree through the AND nodes
  /// reached by edges of sign `neg` (true: an OR tree) that have no literal
  /// at frame t; below the root, with `stop_shared`, it also stops at nodes
  /// with more than one fanout.  Each leaf once.
  void collect_tree(aig::Lit root, bool neg, unsigned t, bool stop_shared,
                    std::vector<aig::Lit>& out);

  const aig::Aig& model_;
  sat::Solver& solver_;
  TiePolicy tie_policy_;
  std::vector<Frame> frames_;
  std::vector<aig::Var> stack_;  // encode_cone's work stack
  sat::Lit true_ = sat::kNoLit;
  // collect_tree's work stack and per-literal visit stamps, and each AIG
  // node's fanout count (computed on first use).
  std::vector<aig::Lit> walk_;
  std::vector<std::uint32_t> visited_;
  std::uint32_t stamp_ = 0;
  std::vector<std::uint32_t> fanouts_;
};

}  // namespace itpseq::cnf
