// tracecheck.hpp — export resolution proofs in TRACECHECK format.
//
// TRACECHECK is the textual proof-trace format accepted by the classic
// `tracecheck` verifier (Biere): one line per clause,
//
//   <id> <lit>* 0 <antecedent-id>* 0
//
// Original clauses have no antecedents; derived clauses list the ids of
// their resolution chain.  Only the proof core is exported.  Ids are
// 1-based as the format requires.
#pragma once

#include <iosfwd>

#include "sat/proof.hpp"

namespace itpseq::sat {

/// Write the core of `final`, one query's refutation, in TRACECHECK format.
/// Assumption units appear as original clauses.
void write_tracecheck(const Proof& proof, ClauseId final, std::ostream& out);
/// The latest query's refutation (the proof must be complete).
inline void write_tracecheck(const Proof& proof, std::ostream& out) {
  write_tracecheck(proof, proof.final_id(), out);
}

}  // namespace itpseq::sat
