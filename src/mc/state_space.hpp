// state_space.hpp — management of symbolic state sets (interpolants,
// reachability over-approximations R_j) as AIG predicates.
//
// Every engine keeps one StateSpace: an AIG whose input i stands for model
// latch i.  Interpolants are extracted into this AIG; unions, intersections
// and the containment checks ("I_j implies R_{j-1}", the fixpoint test of
// Figs. 1/2/5) are performed here, the latter by SAT.
//
// All containment and satisfiability queries run on ONE persistent checker:
// a solver (no proof logging, no inprocessing) that only ever receives the
// Tseitin gate definitions of the state-set nodes queried so far.  A query
// is pure assumptions — implies(a, b) solves {enc(a), ¬enc(b)} — so every
// learned clause follows from the definitions alone and never depends on an
// earlier query.  The checker is created at the first query and dropped by
// compact(), the only operation that renumbers state-set variables.
#pragma once

#include <cstdint>
#include <initializer_list>
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

  /// SAT containment check: does `a` imply `b` over the state space?
  /// (i.e. is a AND NOT b unsatisfiable?)  Solved on the persistent checker
  /// under the assumptions {a, NOT b}; nothing is asserted, so the answer
  /// does not depend on earlier queries.  `cancel` (optional) aborts the
  /// SAT call cooperatively with kUnknown; later queries are unaffected.
  Implication implies(aig::Lit a, aig::Lit b, double time_limit_sec,
                      const std::atomic<bool>* cancel = nullptr);

  /// Is the predicate satisfiable at all?  Same checker, assumption {a}.
  Implication satisfiable(aig::Lit a, double time_limit_sec,
                          const std::atomic<bool>* cancel = nullptr);

  /// Garbage-collect the state-set AIG: rebuild it keeping only the cones
  /// of `roots`, which are remapped in place.  All other literals into the
  /// old graph become invalid.  Resets the checker (its encoding is keyed
  /// on the old variable ids); the next query starts a fresh one.
  void compact(std::vector<aig::Lit*> roots);

  std::size_t num_sat_calls() const { return sat_calls_; }

 private:
  struct Checker {
    explicit Checker(const aig::Aig& sets);
    sat::Solver solver;
    cnf::TseitinEncoder enc;  // memoizes every encoded node, leaves included
  };

  /// Satisfiability of the conjunction of `conj`, as assumptions on the
  /// checker.  The one query path behind implies() and satisfiable().
  sat::Status solve(std::initializer_list<aig::Lit> conj,
                    double time_limit_sec, const std::atomic<bool>* cancel);

  const aig::Aig& model_;
  aig::Aig sets_;
  std::optional<Checker> checker_;
  std::size_t sat_calls_ = 0;
};

}  // namespace itpseq::mc
