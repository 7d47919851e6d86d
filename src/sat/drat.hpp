// drat.hpp — DRAT proof export and an independent forward RUP checker.
//
// DRAT is the de-facto standard clausal proof format of the SAT
// competitions: a refutation is a list of clause *additions* (each of
// which must be a reverse-unit-propagation — RUP — consequence of the
// formula so far) optionally interleaved with deletions ("d" lines),
// ending with the empty clause.
//
// Because this solver logs full resolution chains, every learned clause in
// the proof is RUP by construction, so export is a projection of the
// resolution proof: emit the core's learned clauses in derivation order.
// The bundled checker re-verifies a DRAT file against the original CNF by
// literal forward RUP checking (assert the negation of each added clause,
// run unit propagation, expect a conflict) — sharing no code with the
// solver's propagation engine, which is the point of an independent
// checker.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "sat/proof.hpp"
#include "sat/types.hpp"

namespace itpseq::sat {

/// Write the core learned clauses of `final`, one query's refutation, as a
/// DRAT proof, in DIMACS-style signed-integer lines terminated by 0.  The
/// final line is the empty clause ("0").  A refutation under assumptions
/// checks against the formula plus its assumption units.
void write_drat(const Proof& proof, ClauseId final, std::ostream& out);
/// The latest query's refutation (the proof must be complete).
inline void write_drat(const Proof& proof, std::ostream& out) {
  write_drat(proof, proof.final_id(), out);
}

struct DratCheckResult {
  bool ok = false;
  std::string error;        // first failure, human-readable
  std::size_t additions = 0;  // clause additions verified
  std::size_t deletions = 0;  // deletion lines applied
};

/// Forward RUP check of a DRAT proof against a CNF.
/// `clauses` is the original formula over variables 0..num_vars-1.
/// The proof stream contains one clause per line in DIMACS convention
/// (positive integer v = variable v-1 positive, negative = complemented),
/// with optional "d" deletion lines.  Verification succeeds iff every
/// addition is RUP and the empty clause is derived.
DratCheckResult check_drat(unsigned num_vars,
                           const std::vector<std::vector<Lit>>& clauses,
                           std::istream& proof);

}  // namespace itpseq::sat
