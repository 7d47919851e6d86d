// unroller.hpp — time-frame expansion of a sequential AIG into CNF.
//
// The unroller maintains, for each time frame t, a Tseitin map from AIG
// variables to SAT literals.  Latches at frame 0 are fresh variables
// (constrained by assert_init, or left free); latches at frame t+1 alias
// the SAT literal of their next-state function at frame t.
//
// Partition labels follow the interpolation-sequence convention of the
// paper (Section II-C):
//   A_1     = S0(V^0) ∧ T(V^0,V^1)        -> label 1
//   A_i     = T(V^{i-1},V^i), 2 <= i <= k  -> label i
//   A_{k+1} = ¬p(V^k)                      -> label k+1
// Callers are free to use any other monotone labeling (e.g. a two-label
// A/B split for standard interpolation).
//
// Localization abstraction (CBA) is supported through a visibility mask:
// invisible latches are cut — they get fresh unconstrained SAT variables in
// every frame and are skipped by assert_init.
//
// Gate cones are encoded on demand by cnf::encode_cone (tseitin.hpp) over
// the frame's map.  Pruning invariant: a node with a literal in a frame's
// map has its whole cone encoded in that frame.  The walk therefore stops
// at encoded nodes and costs only the part of a cone a frame does not yet
// have, also when a frame is partly encoded before its transition (BMC and
// k-induction ask for bad_lit(t) before add_transition(t)).  Variables,
// clause order and labels are those of a full-cone walk.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "aig/aig.hpp"
#include "cnf/tseitin.hpp"
#include "sat/solver.hpp"

namespace itpseq::cnf {

/// The three BMC target formulations of the paper (Section II-A / III).
enum class TargetScheme : std::uint8_t {
  kBound,        ///< bad at any frame 1..k (used by standard interpolation)
  kExact,        ///< bad at frame k exactly (violations earlier allowed)
  kExactAssume,  ///< bad at frame k, good at frames 1..k-1
};

const char* to_string(TargetScheme s);

class Unroller {
 public:
  /// `visible`: per-latch flag; invisible latches become free cutpoints.
  /// Empty mask = everything visible (no abstraction).
  Unroller(const aig::Aig& model, sat::Solver& solver,
           std::vector<bool> visible = {});

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
  /// SAT literal of the i-th input at frame t.
  sat::Lit input_lit(std::size_t i, unsigned t, std::uint32_t label);

  /// Assert the reset state at frame 0 (unit clause per initialized,
  /// visible latch) with partition `label`.  With a `guard` literal every
  /// clause gets ~guard, so the clauses hold only while guard is assumed.
  void assert_init(std::uint32_t label, sat::Lit guard = sat::kNoLit);

  /// Extend the unrolling with transition t -> t+1: encodes every visible
  /// latch's next-state cone at frame t (label) and aliases frame-(t+1)
  /// latches to the results.  Must be called with t = num_frames()-1.
  void add_transition(unsigned t, std::uint32_t label);

  /// Highest frame with latch literals available (0-based); frames
  /// 0..num_frames()-1 exist.
  unsigned num_frames() const { return static_cast<unsigned>(frames_.size()); }

  /// SAT literal of the bad signal (output `prop`) at frame t.
  sat::Lit bad_lit(unsigned t, std::uint32_t label, std::size_t prop = 0);

  /// Assert every invariant constraint of the model at frame t (AIGER 1.9
  /// "C" section semantics: constraints hold in every frame of a trace).
  /// `guard` as for assert_init.
  void assert_constraints(unsigned t, std::uint32_t label,
                          sat::Lit guard = sat::kNoLit);

  /// Assert the BMC target for bound k with the given scheme.  Target
  /// clauses get partition `label` (gate cones per-frame get labels from
  /// `frame_label(t)` if provided, else `label`).
  void assert_target(unsigned k, TargetScheme scheme, std::uint32_t label);

  /// Encode (and return) an arbitrary predicate over the model's *latches*:
  /// `root` is a literal of `sets`, whose input i corresponds to model
  /// latch i.  Evaluated over frame `t`'s latch literals.
  sat::Lit encode_state_pred(const aig::Aig& sets, aig::Lit root, unsigned t,
                             std::uint32_t label);

  bool latch_visible(std::size_t i) const {
    return visible_.empty() || visible_[i];
  }

 private:
  struct Frame {
    std::vector<sat::Lit> map;  // aig var -> sat lit, kNoLit if unencoded
  };

  sat::Lit fresh() { return sat::mk_lit(solver_.new_var()); }
  sat::Lit true_lit(std::uint32_t label);
  void ensure_frame0();

  const aig::Aig& model_;
  sat::Solver& solver_;
  std::vector<bool> visible_;
  std::vector<Frame> frames_;
  std::vector<aig::Var> stack_;  // encode_cone's work stack
  sat::Lit true_ = sat::kNoLit;
};

}  // namespace itpseq::cnf
