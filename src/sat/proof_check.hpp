// proof_check.hpp — independent replay of resolution proofs.
//
// Used by the test suite and available as a debugging aid: re-derives every
// learned clause in the proof core by literally performing the logged
// resolution chain, and checks the result matches the recorded literals
// (and that the final chain yields the empty clause).
#pragma once

#include <string>

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

}  // namespace itpseq::sat
