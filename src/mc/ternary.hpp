// ternary.hpp — three-valued (0/1/X) simulation of an AIG cone.
//
// The workhorse behind PDR's ternary-simulation lifting (Eén, Mishchenko,
// Brayton, "Efficient Implementation of Property Directed Reachability",
// FMCAD 2011): given a concrete SAT model of a predecessor query, literals
// of the state cube are X-ed out one latch at a time; a latch may be
// dropped exactly when re-simulating with that latch at X leaves every
// watched root (the bad cone, the successor cube's next-state functions,
// the invariant constraints) at a *defined* value.  Since ternary AND is
// monotone — turning a leaf to X can only move node values from 0/1 to X,
// never flip them — "still defined" is equivalent to "still equal to the
// model value", so the shrunk cube still forces the query roots.
//
// The simulator is built once over the union cone of every root PDR can
// ever watch (all next-state functions, the bad output, the constraints)
// and reused across queries:
//
//   set_watches(roots)   choose the literals that must stay defined
//   assign(latches, ins) load a concrete model and evaluate the cone
//   try_latch_x(i)       flip latch i to X with event-driven re-simulation;
//                        commits if every watched root stays defined,
//                        otherwise undoes itself
//
// A try re-evaluates only the fanouts of nodes whose value changed, read
// from a fanout table (compressed sparse rows) built once over the cone,
// and pops them from a heap in topological order, so each node is evaluated
// once, after all of its fanins.  It stops as soon as a watched root turns
// X.  A try costs O(E log E) for the E fanout edges of the nodes it turns
// to X, never a walk over the rest of the cone.
//
// The same class doubles as a general ternary evaluator for tests and
// future engines (set_latch/set_input + simulate + value).
#pragma once

#include <cstdint>
#include <vector>

#include "aig/aig.hpp"

namespace itpseq::mc {

/// A ternary value.  kX means "unknown / both".
enum class TernVal : std::uint8_t { kFalse = 0, kTrue = 1, kX = 2 };

/// Kleene AND: 0 dominates, 1 is neutral, otherwise X.
constexpr TernVal tern_and(TernVal a, TernVal b) {
  if (a == TernVal::kFalse || b == TernVal::kFalse) return TernVal::kFalse;
  if (a == TernVal::kTrue && b == TernVal::kTrue) return TernVal::kTrue;
  return TernVal::kX;
}

/// Kleene NOT: X stays X.
constexpr TernVal tern_not(TernVal a) {
  switch (a) {
    case TernVal::kFalse: return TernVal::kTrue;
    case TernVal::kTrue: return TernVal::kFalse;
    default: return TernVal::kX;
  }
}

constexpr TernVal tern_of(bool b) { return b ? TernVal::kTrue : TernVal::kFalse; }

class TernarySim {
 public:
  /// Build over the union cone of `roots`; only variables in that cone are
  /// ever simulated.  Roots watched later must come from this set.
  TernarySim(const aig::Aig& model, const std::vector<aig::Lit>& roots);

  /// Replace the watched-root set (each root's variable must lie in the
  /// constructed cone or be constant).  Cheap: O(old + new watch count).
  void set_watches(const std::vector<aig::Lit>& roots);

  /// Load a fully concrete assignment (indexed by latch/input enumeration
  /// order; missing entries default to 0) and evaluate the whole cone.
  void assign(const std::vector<bool>& latches, const std::vector<bool>& inputs);

  /// Leaf setters for explicit ternary experiments; call simulate() after.
  void set_latch(std::size_t i, TernVal v);
  void set_input(std::size_t i, TernVal v);
  /// Full-cone evaluation from the current leaf values.
  void simulate();

  /// Current value of an AIG literal (constants fold; variables outside the
  /// cone read as X).
  TernVal value(aig::Lit l) const;

  /// All watched roots currently defined (non-X)?
  bool watches_defined() const { return undef_watched_ == 0; }

  /// Try to move latch `i` to X.  Re-simulates the latch's transitive
  /// fanout event-driven; if every watched root keeps a defined value the
  /// change is committed and true is returned, otherwise (as soon as one
  /// watched root turns X) every node is restored and false is returned.
  bool try_latch_x(std::size_t i);

  /// Number of AND nodes in the simulated cone (diagnostics).
  std::size_t cone_ands() const { return cone_ands_; }

 private:
  void set_value(aig::Var v, TernVal nv, bool trail);
  /// Queue the AND fanouts of the node at topological position p.
  void schedule_fanouts(std::uint32_t p);

  const aig::Aig& model_;
  std::vector<TernVal> values_;       // per var; X outside the cone
  std::vector<aig::Var> topo_;        // cone in topological order
  std::vector<std::uint32_t> pos_;    // var -> index into topo_ (+1), 0 = absent
  std::vector<std::uint32_t> watch_;  // var -> number of watched roots on it
  std::vector<aig::Var> watched_vars_;  // vars with watch_ > 0 (for reset)
  std::size_t undef_watched_ = 0;     // watched vars currently at X
  // Fanout table over topo_ positions: the AND fanouts of position p are
  // fanout_[fanout_begin_[p] .. fanout_begin_[p + 1]), in increasing order.
  std::vector<std::uint32_t> fanout_begin_;
  std::vector<std::uint32_t> fanout_;
  std::vector<std::uint32_t> heap_;    // min-heap of positions to evaluate
  std::uint32_t gen_ = 0;              // try generation stamp
  std::vector<std::uint32_t> queued_;  // position -> last generation queued
  std::vector<std::pair<aig::Var, TernVal>> trail_;  // undo log of one try
  std::size_t cone_ands_ = 0;
};

}  // namespace itpseq::mc
