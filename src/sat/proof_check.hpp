// proof_check.hpp — independent replay of resolution proofs: the one proof
// oracle for the solver's log (interpolants have itp::validate_sequence).
//
// Used by the test suite and examples/sat_solve: re-derives every
// learned clause in the proof core by literally performing the logged
// resolution chain, and checks the result matches the recorded literals
// (and that the final chain yields the empty clause).  The two-argument
// form takes the core's original leaves on trust; the formula overload also
// requires each of them to be a clause of the caller's formula, so a leaf
// logged under the wrong id or with the wrong literals (the chains still
// replay, but refute a different formula) is rejected.
#pragma once

#include <string>
#include <vector>

#include "sat/proof.hpp"

namespace itpseq::sat {

/// Result of replaying a proof.
struct ProofCheckResult {
  bool ok = false;
  std::string error;  // human-readable description of the first failure
};

/// Replay all chains in the core of `final`, one query's refutation.  Each
/// chain must be a valid trivial resolution derivation and produce exactly
/// the recorded clause (as a set of literals); the final chain must produce
/// the empty clause.
ProofCheckResult check_proof(const Proof& proof, ClauseId final);
/// The latest query's refutation.
inline ProofCheckResult check_proof(const Proof& proof) {
  return check_proof(proof, proof.final_id());
}

/// As above, and every original clause in the core of `final` must be a
/// clause of `formula`, compared as literal sets.  `formula` is the
/// caller's clauses plus the query's assumption units, one per assumed
/// literal.
ProofCheckResult check_proof(const Proof& proof, ClauseId final,
                             const std::vector<std::vector<Lit>>& formula);

}  // namespace itpseq::sat
