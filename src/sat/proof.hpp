// proof.hpp — resolution proof log produced by the CDCL solver.
//
// Every clause the solver ever creates gets a unique ClauseId.  Original
// (input) clauses carry a user-supplied *partition label*; for interpolation
// sequences the label is the index of the BMC time-frame partition A_i the
// clause belongs to.  Learned clauses carry a *trivial resolution chain*:
// the conflict clause resolved left-to-right against reason clauses, with
// recorded pivot variables.  Interpolants are computed by structural
// induction over this DAG (see itp/interpolate.hpp).
//
// One log serves every query of a solver: each refuted query ends with its
// own final chain deriving the empty clause, and its refutation is the part
// of the DAG that final reaches (core(final)).  A query refuted under
// assumptions ends with the failed-assumption clause resolved against
// *assumption units*: proof-only original unit clauses, one per assumed
// literal, labelled like the clauses the assumption guards.  They are not
// in the solver's clause database; they stand for the assumptions.  A
// refutation at decision level 0 refutes the clause set itself and is the
// final of every later query.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sat/types.hpp"

namespace itpseq::sat {

/// Resolution chain for one derived clause:
///   result = chain[0] ⊗_{pivots[0]} chain[1] ⊗_{pivots[1]} chain[2] ...
/// where ⊗_v is propositional resolution on variable v.  The solver builds
/// chains in this form; the log stores them flat (Proof::chain views one).
struct ResolutionChain {
  std::vector<ClauseId> chain;
  std::vector<Var> pivots;  // size == chain.size() - 1
};

/// A logged clause's chain: empty for an original.
struct ChainView {
  std::span<const ClauseId> chain;
  std::span<const Var> pivots;  // size == chain.size() - 1
};

/// Refutation log.  Indexed by ClauseId.  The literals of all clauses live
/// in one flat array (clause id's literals end at ends_[id]), and so do the
/// chains, so logging a clause appends to them instead of allocating.
class Proof {
 public:
  /// Kind of each recorded clause.
  enum class Kind : std::uint8_t { kOriginal, kLearned };

  /// Record an original clause; returns its id.
  ClauseId add_original(std::span<const Lit> lits, std::uint32_t label) {
    return append(Kind::kOriginal, lits, label, {});
  }

  /// Record a learned clause with its resolution chain; returns its id.
  ClauseId add_learned(std::span<const Lit> lits, const ResolutionChain& chain) {
    return append(Kind::kLearned, lits, 0, chain);
  }

  /// Record a query's final (empty-clause) chain; it becomes final_id().
  ClauseId set_final(const ResolutionChain& chain) {
    final_id_ = add_learned({}, chain);
    return final_id_;
  }
  /// Make an already logged final the latest again (a query answered by an
  /// earlier level-0 refutation).
  void reuse_final(ClauseId id) { final_id_ = id; }

  std::size_t size() const { return kinds_.size(); }
  Kind kind(ClauseId id) const { return kinds_[id]; }
  bool is_original(ClauseId id) const { return kinds_[id] == Kind::kOriginal; }
  std::uint32_t label(ClauseId id) const { return labels_[id]; }
  /// The clause's literals; the view is invalidated by the next add_*.
  std::span<const Lit> literals(ClauseId id) const {
    const std::size_t begin = id == 0 ? 0 : ends_[id - 1];
    return {lits_.data() + begin, ends_[id] - begin};
  }
  /// The clause's chain; the view is invalidated by the next add_*.
  ChainView chain(ClauseId id) const {
    const std::size_t begin = id == 0 ? 0 : chain_ends_[id - 1];
    const std::size_t end = chain_ends_[id];
    if (begin == end) return {};
    // step_pivots_[begin] is the chain head's placeholder.
    return {{steps_.data() + begin, end - begin},
            {step_pivots_.data() + begin + 1, end - begin - 1}};
  }
  /// Id of the latest query's empty clause; kNoClauseId until a query is
  /// refuted.
  ClauseId final_id() const { return final_id_; }
  bool complete() const { return final_id_ != kNoClauseId; }

  /// Ids of clauses transitively used by `final`'s chain (that query's
  /// *core*), in topological order (antecedents before users).  Costs
  /// O(core): the visit marks are epoch-stamped and reused across calls.
  /// The latest walk is kept, so asking for the same final again (an engine
  /// counts a refutation's core, then extracts from it) costs nothing.  The
  /// returned order, and core_position(id) for every id in it, stay valid
  /// until a core() call for another final.  The marks make concurrent calls
  /// on one Proof a data race, like any other use of a solver from two
  /// threads.
  const std::vector<ClauseId>& core(ClauseId final) const;
  /// The latest query's core.
  const std::vector<ClauseId>& core() const { return core(final_id_); }
  std::uint32_t core_position(ClauseId id) const { return position_[id]; }

 private:
  ClauseId append(Kind k, std::span<const Lit> lits, std::uint32_t label,
                  const ResolutionChain& chain) {
    kinds_.push_back(k);
    labels_.push_back(label);
    lits_.insert(lits_.end(), lits.begin(), lits.end());
    ends_.push_back(lits_.size());
    if (!chain.chain.empty()) {
      steps_.insert(steps_.end(), chain.chain.begin(), chain.chain.end());
      step_pivots_.push_back(kNoVar);
      step_pivots_.insert(step_pivots_.end(), chain.pivots.begin(),
                          chain.pivots.end());
    }
    chain_ends_.push_back(steps_.size());
    return static_cast<ClauseId>(kinds_.size() - 1);
  }

  std::vector<Kind> kinds_;
  std::vector<std::uint32_t> labels_;
  std::vector<Lit> lits_;            // all clauses' literals, back to back
  std::vector<std::size_t> ends_;    // per clause: one past its last literal
  // All chains back to back: clause id's antecedents are steps_[b, e) with
  // e = chain_ends_[id], and step_pivots_[i] resolves steps_[i] in (the
  // chain head's slot holds kNoVar).
  std::vector<ClauseId> steps_;
  std::vector<Var> step_pivots_;
  std::vector<std::size_t> chain_ends_;
  ClauseId final_id_ = kNoClauseId;
  // core() scratch: stamp_[id] is epoch_ once id is entered and epoch_ + 1
  // once it is emitted; position_[id] is its index in the emitted order.
  mutable std::vector<std::uint32_t> stamp_;
  mutable std::vector<std::uint32_t> position_;
  mutable std::uint32_t epoch_ = 0;
  // The latest walk: the log is append-only, so its order stays exact.
  mutable ClauseId core_final_ = kNoClauseId;
  mutable std::vector<ClauseId> core_order_;
};

}  // namespace itpseq::sat
