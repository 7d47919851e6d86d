// lemma_exchange.hpp — thread-safe cross-engine lemma exchange for the
// portfolio (ROADMAP: "PDR/ITPSEQ lemma sharing").
//
// The hub stores *lemmas*: clauses over the model's latches, each carrying a
// validity grade that fixes exactly what a consumer may assume:
//
//   kInvariant  The clause holds in every reachable state.  It is satisfied
//               by all initial states and is inductive relative to the
//               conjunction of the kInvariant lemmas published before it
//               (publishers must prove this; PDR does it with an F_inf
//               consecution query).  Consumers may conjoin it anywhere a
//               model invariant constraint would be sound: every frame of a
//               concretely-rooted BMC unrolling, the A-partitions of
//               interpolation instances, the interpolant matrix columns.
//
//   kFrame      The clause holds in every state reachable within `bound`
//               steps (PDR frame semantics: a clause of F_j).  Consumers may
//               assert it at unrolling frames t <= bound of an unrolling
//               rooted in the *exact* initial states, and nowhere else —
//               deeper frames or over-approximate prefixes would be unsound.
//
//   kCandidate  No validity promise at all (interpolation engines publish
//               syntactic latch clauses of their interpolants this way).
//               Consumers MUST verify a candidate before relying on it; PDR
//               does so with an ordinary relative-induction query, which
//               makes candidate injection exactly as sound as its own lemma
//               generation.
//
// Because every consumption path above filters through a soundness argument
// (or an explicit SAT check), exchanged lemmas can prune work but can never
// change a verdict — the property tests/portfolio_test.cpp cross-checks with
// the exchange disabled.
//
// Concurrency: publish() and fetch() take an internal mutex; the store is
// append-only so subscribers track their position with a plain cursor and
// never block each other for long.  The hub is owned by check_portfolio and
// outlives every member engine (engines hold a non-owning pointer via
// EngineOptions::exchange).
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <vector>

#include "aig/aig.hpp"
#include "cnf/unroller.hpp"

namespace itpseq::mc {

/// A literal over model latches: latch index << 1 | sign, sign = 1 meaning
/// the latch appears negated in the clause.
using LatchLit = std::uint32_t;

constexpr std::size_t latch_lit_index(LatchLit l) { return l >> 1; }
constexpr bool latch_lit_sign(LatchLit l) { return (l & 1u) != 0; }
constexpr LatchLit mk_latch_lit(std::size_t latch, bool sign) {
  return static_cast<LatchLit>((latch << 1) | (sign ? 1u : 0u));
}

enum class LemmaGrade : std::uint8_t { kInvariant, kFrame, kCandidate };

const char* to_string(LemmaGrade g);

struct Lemma {
  std::vector<LatchLit> clause;  ///< disjunction over latch literals, sorted
  LemmaGrade grade = LemmaGrade::kCandidate;
  unsigned bound = 0;  ///< kFrame only: valid for states reachable <= bound
  std::uint8_t source = 0;  ///< publisher slot, for attribution/stats only
};

/// Aggregate hub counters (valid snapshot under concurrent publishing).
struct LemmaExchangeStats {
  std::uint64_t published = 0;  ///< lemmas accepted into the store
  std::uint64_t rejected = 0;   ///< duplicates / tautologies / over capacity
  /// Distinct lemmas delivered to at least one *foreign* subscriber —
  /// re-deliveries to more subscribers, relaunched members re-reading
  /// the store, and publishers skipping their own lemmas do not inflate it.
  std::uint64_t fetched = 0;
};

class LemmaExchange {
 public:
  /// `capacity` bounds the store; once full, further publishes are dropped
  /// (sharing is best-effort — dropping lemmas is always sound).
  explicit LemmaExchange(std::size_t num_latches, std::size_t capacity = 65536);

  /// Normalize (sort, strip duplicate literals) and store the lemma.
  /// Returns false for tautologies, out-of-range literals, re-publishes
  /// that are not a significant upgrade of the stored copy (see seen_),
  /// and capacity overflow.
  bool publish(Lemma lemma);

  /// Copy out every lemma with index >= *cursor and advance the cursor.
  /// Each subscriber owns its cursor (start at 0); the store is append-only,
  /// so a subscriber sees every lemma exactly once, in publish order.
  /// With `self` != 0 the subscriber's own publications are skipped (and
  /// not counted as fetched), so stats.fetched is foreign deliveries only.
  std::vector<Lemma> fetch(std::size_t& cursor, std::uint8_t self = 0);

  /// Copy out every *live* lemma (tombstoned/superseded entries skipped) —
  /// the checkpoint writer's view of the store (mc/lemma_store.hpp).  One
  /// O(n) copy under the hub lock; publishers racing the copy are neither
  /// blocked for long nor partially observed.
  std::vector<Lemma> export_lemmas() const;

  std::size_t size() const;
  LemmaExchangeStats stats() const;

 private:
  const std::size_t num_latches_;
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<Lemma> lemmas_;
  /// Dedup index: per normalized clause, its strongest published strength
  /// and store index.  Re-publishes are accepted only as significant
  /// upgrades (promotion to kInvariant, a kFrame bound at least doubling,
  /// or any graded copy of a former kCandidate); the superseded copy is
  /// tombstoned so subscribers never receive both versions.
  std::map<std::vector<LatchLit>, std::pair<std::uint32_t, std::size_t>> seen_;
  std::vector<char> delivered_;  // per store index: reached a foreign reader
  std::vector<char> dead_;       // per store index: superseded by an upgrade
  LemmaExchangeStats stats_;
};

/// Engine-local subscriber state: drains the hub into per-grade buckets and
/// skips the engine's own publications.  Buckets are append-only, so an
/// engine can instantiate lemmas incrementally by remembering how far into
/// each bucket it has processed.
struct LemmaFeed {
  LemmaFeed() = default;
  LemmaFeed(LemmaExchange* h, std::uint8_t s) : hub(h), self(s) {}

  LemmaExchange* hub = nullptr;
  std::uint8_t self = 0;  ///< own EngineOptions::exchange_source slot
  std::size_t cursor = 0;
  std::vector<Lemma> invariants;
  std::vector<Lemma> frames;
  std::vector<Lemma> candidates;

  /// Pull new foreign lemmas from the hub; returns how many arrived.
  std::size_t poll();
};

/// Assert `l.clause` over the latch literals of frame `t` of an unrolling
/// (clauses and on-demand gate cones carry partition `label`).  With a
/// `guard` literal the clause gets ~guard and holds only while guard is
/// assumed.  The caller owns the soundness argument — see the grade rules
/// above.
void assert_lemma_clause(cnf::Unroller& unr, const Lemma& l, unsigned t,
                         std::uint32_t label, sat::Lit guard = sat::kNoLit);

/// Build the clause as a predicate in an AIG whose input i stands for model
/// latch i (e.g. a StateSpace graph): OR over the latch-input literals.
aig::Lit latch_clause_pred(aig::Aig& g, const std::vector<LatchLit>& clause);

/// Decompose the top-level conjunction of `root` (a predicate in an AIG
/// whose input i stands for model latch i, e.g. a StateSpace graph) into
/// clauses over latch literals: conjuncts that are single inputs become unit
/// clauses, negated AND-trees over inputs become disjunctions.  Conjuncts
/// with any other structure are skipped.  At most `max_clauses` clauses of
/// at most `max_len` literals are returned — the cheap, syntactic slice of
/// an interpolant suitable for publishing as kCandidate lemmas.
std::vector<std::vector<LatchLit>> extract_latch_clauses(
    const aig::Aig& g, aig::Lit root, std::size_t max_clauses = 64,
    std::size_t max_len = 8);

/// Publish the syntactic latch clauses of `root` (up to `quota` clauses of
/// length <= `max_len`) as kCandidate lemmas under `source`.  Returns how
/// many the hub accepted — the interpolation engines' publish path.
std::size_t publish_candidates(LemmaExchange* hub, const aig::Aig& g,
                               aig::Lit root, std::size_t quota,
                               std::size_t max_len, std::uint8_t source);

}  // namespace itpseq::mc
