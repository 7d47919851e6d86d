// state_space.hpp — management of symbolic state sets (interpolants,
// reachability over-approximations R_j) as AIG predicates.
//
// Every engine keeps one StateSpace: an AIG whose input i stands for model
// latch i.  Interpolants are extracted into this AIG; unions, intersections
// and the containment checks ("I_j implies R_{j-1}", the fixpoint test of
// Figs. 1/2/5) are performed here.
//
// A containment query implies(a, b) — is a ∧ ¬b unsatisfiable? — is
// answered in two steps:
//  1. The witness pool: 64 concrete states, one bit each of a uint64_t per
//     input, simulated bit-parallel over the graph (FRAIG-style reuse of
//     counterexamples).  A state in a ∧ ¬b answers kFails with no SAT call.
//     The pool holds the checker's latest satisfying states; a slot not yet
//     filled is the all-zero state.  Node values are cached up to a
//     high-water mark, so a query simulates only the nodes added since.
//  2. The checker: ONE persistent solver (no proof logging, no
//     inprocessing) that only ever receives the Tseitin gate definitions of
//     the state-set nodes queried so far.  A query is pure assumptions —
//     {enc(a), ¬enc(b)} — so every learned clause follows from the
//     definitions alone and never depends on an earlier query.  The checker
//     is created at the first query and dropped by compact(), the only
//     operation that renumbers state-set variables.
// So kHolds always comes from SAT, and every answer is the checker's.
#pragma once

#include <cstdint>
#include <optional>

#include "aig/aig.hpp"
#include "cnf/tseitin.hpp"
#include "sat/solver.hpp"

namespace itpseq::mc {

/// Verdict of a containment query.
enum class Implication : std::uint8_t { kHolds, kFails, kUnknown };

class StateSpace {
 public:
  explicit StateSpace(const aig::Aig& model);
  // The checker's encoder refers to sets_: a copy or move would query the
  // old graph.
  StateSpace(const StateSpace&) = delete;
  StateSpace& operator=(const StateSpace&) = delete;
  StateSpace(StateSpace&&) = delete;
  StateSpace& operator=(StateSpace&&) = delete;

  aig::Aig& graph() { return sets_; }
  const aig::Aig& graph() const { return sets_; }
  const aig::Aig& model() const { return model_; }

  /// AIG literal (input) standing for model latch i.
  aig::Lit latch_input(std::size_t i) const { return sets_.input(i); }

  /// Predicate describing the model's initial states; latches with
  /// undefined reset are unconstrained.  With a visibility mask, only
  /// visible latches are constrained (CBA abstract initial states).
  aig::Lit init_pred(const std::vector<bool>& visible = {});

  /// Containment check: does `a` imply `b` over the state space?  (i.e.
  /// is a AND NOT b unsatisfiable?)  A query that is cancelled or has a zero
  /// time budget answers kUnknown; otherwise a pool witness in a AND NOT b
  /// answers kFails, and the persistent checker, under the assumptions
  /// {a, NOT b}, answers the rest.  Nothing is asserted, so the answer does
  /// not depend on earlier queries.  `cancel` (optional) aborts the SAT call
  /// cooperatively with kUnknown; later queries are unaffected.
  Implication implies(aig::Lit a, aig::Lit b, double time_limit_sec,
                      const std::atomic<bool>* cancel = nullptr);

  /// Garbage-collect the state-set AIG: rebuild it keeping only the cones
  /// of `roots`, which are remapped in place.  All other literals into the
  /// old graph become invalid.  Resets the checker (its encoding is keyed
  /// on the old variable ids); the next query starts a fresh one.  The
  /// witness pool survives: compaction keeps the input order.
  void compact(std::vector<aig::Lit*> roots);

  /// implies() calls, and those of them that reached the checker.
  std::size_t num_checks() const { return checks_; }
  std::size_t num_sat_calls() const { return sat_calls_; }

 private:
  struct Checker {
    explicit Checker(const aig::Aig& sets);
    sat::Solver solver;
    cnf::TseitinEncoder enc;  // memoizes every encoded node, leaves included
  };

  /// Value of `l` under every pool witness, bit w for witness w;
  /// simulates the nodes above the high-water mark up to `l`'s first.
  std::uint64_t simulate(aig::Lit l);
  /// Store the checker's model as the next witness, over the oldest.
  void add_witness();

  const aig::Aig& model_;
  aig::Aig sets_;
  std::optional<Checker> checker_;
  /// sim_[v]: node v's value under every witness, for v < sim_.size() (the
  /// high-water mark).  Entries 1..num_inputs() are the pool itself.
  std::vector<std::uint64_t> sim_;
  unsigned next_witness_ = 0;  // slot the next witness overwrites
  std::size_t checks_ = 0;
  std::size_t sat_calls_ = 0;
};

}  // namespace itpseq::mc
