// proof.hpp — resolution proof log produced by the CDCL solver.
//
// Every clause the solver ever creates gets a unique ClauseId.  Original
// (input) clauses carry a user-supplied *partition label*; for interpolation
// sequences the label is the index of the BMC time-frame partition A_i the
// clause belongs to.  Learned clauses carry a *trivial resolution chain*:
// the conflict clause resolved left-to-right against reason clauses, with
// recorded pivot variables.  The refutation ends with a final chain deriving
// the empty clause; interpolants are computed by structural induction over
// this DAG (see itp/interpolate.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sat/types.hpp"

namespace itpseq::sat {

/// Resolution chain for one derived clause:
///   result = chain[0] ⊗_{pivots[0]} chain[1] ⊗_{pivots[1]} chain[2] ...
/// where ⊗_v is propositional resolution on variable v.
struct ResolutionChain {
  std::vector<ClauseId> chain;
  std::vector<Var> pivots;  // size == chain.size() - 1
};

/// Complete refutation proof.  Indexed by ClauseId.  The literals of all
/// clauses live in one flat array (clause id's literals end at ends_[id]),
/// so logging a clause appends to it instead of allocating a vector.
class Proof {
 public:
  /// Kind of each recorded clause.
  enum class Kind : std::uint8_t { kOriginal, kLearned };

  /// Record an original clause; returns its id.
  ClauseId add_original(std::span<const Lit> lits, std::uint32_t label) {
    kinds_.push_back(Kind::kOriginal);
    labels_.push_back(label);
    append_literals(lits);
    chains_.emplace_back();
    return static_cast<ClauseId>(kinds_.size() - 1);
  }

  /// Record a learned clause with its resolution chain; returns its id.
  ClauseId add_learned(std::span<const Lit> lits, ResolutionChain chain) {
    kinds_.push_back(Kind::kLearned);
    labels_.push_back(0);
    append_literals(lits);
    chains_.push_back(std::move(chain));
    return static_cast<ClauseId>(kinds_.size() - 1);
  }

  /// Record the final (empty-clause) chain.  Returns the empty clause id.
  ClauseId set_final(ResolutionChain chain) {
    final_id_ = add_learned({}, std::move(chain));
    return final_id_;
  }

  std::size_t size() const { return kinds_.size(); }
  Kind kind(ClauseId id) const { return kinds_[id]; }
  bool is_original(ClauseId id) const { return kinds_[id] == Kind::kOriginal; }
  std::uint32_t label(ClauseId id) const { return labels_[id]; }
  /// The clause's literals; the view is invalidated by the next add_*.
  std::span<const Lit> literals(ClauseId id) const {
    const std::size_t begin = id == 0 ? 0 : ends_[id - 1];
    return {lits_.data() + begin, ends_[id] - begin};
  }
  const ResolutionChain& chain(ClauseId id) const { return chains_[id]; }
  /// Id of the derived empty clause; kNoClauseId until the refutation ends.
  ClauseId final_id() const { return final_id_; }
  bool complete() const { return final_id_ != kNoClauseId; }

  /// Ids of clauses transitively used by the final chain (the *core*),
  /// in topological order (antecedents before users).
  std::vector<ClauseId> core() const;

 private:
  void append_literals(std::span<const Lit> lits) {
    lits_.insert(lits_.end(), lits.begin(), lits.end());
    ends_.push_back(lits_.size());
  }

  std::vector<Kind> kinds_;
  std::vector<std::uint32_t> labels_;
  std::vector<Lit> lits_;            // all clauses' literals, back to back
  std::vector<std::size_t> ends_;    // per clause: one past its last literal
  std::vector<ResolutionChain> chains_;
  ClauseId final_id_ = kNoClauseId;
};

}  // namespace itpseq::sat
