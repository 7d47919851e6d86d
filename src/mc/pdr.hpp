// pdr.hpp — property-directed reachability (IC3/PDR) engine.
//
// The strongest known complement to the interpolation engines: instead of
// one monolithic unrolling per bound, PDR maintains a *frame trace*
//
//   F_0 = S0,  F_1, ..., F_K      with  F_i ⊆ F_{i+1},
//                                       F_i ∧ T ⇒ F_{i+1}',
//                                       F_i ⇒ ¬bad  (i ≤ K)
//
// where each F_i is a set of clauses over the latches (F_i's clause set
// contains F_{i+1}'s).  Bad states found in F_K become *proof obligations*
// handled depth-first through a priority queue.  Two cube-shrinking layers
// keep the obligations small:
//
//   * Lifting: every state pulled out of a SAT model is reduced from a
//     full latch assignment to a short cube by ternary simulation
//     (mc/ternary.hpp, the FMCAD'11 technique): latches are X-ed out while
//     the query roots — bad cone / successor next-state cone / invariant
//     constraints — retain defined values (EngineOptions::pdr_lift).
//   * Generalization: blocked obligations are minimized by relative
//     induction (drop-literal search seeded with the SAT solver's
//     failed-assumption core); with EngineOptions::pdr_ctg the search runs
//     the FMCAD'13 ctgDown algorithm, which blocks counterexample-to-
//     generalization states at their own frames (at most 3 per cube,
//     recursion depth 1) and joins with unblockable predecessors, yielding
//     markedly shorter lemmas on circuits with converging control.
//
// Generalized lemmas are pushed to the highest frame where they stay
// inductive.  When two adjacent frames have equal clause sets the trace is
// a fixpoint: F_i is an inductive invariant and a PASS Certificate is
// emitted (checkable via mc/certify.hpp).  When an obligation chain
// reaches the initial states, the chain's recorded inputs form a concrete
// counterexample Trace.
//
// All queries run on a single incremental SAT solver holding one copy of
// the transition relation (frame 0 -> frame 1 of a cnf::Unroller); frame
// membership, initial-state constraints and invariant constraints are
// switched per query with activation literals and solve_assuming(), so no
// re-encoding ever happens.  This is exactly the workload the incremental
// solver API (failed_assumptions() cores) was built for — and a workload
// profile opposite to ITPSEQ: many small queries instead of few huge ones,
// which is why the portfolio wants both.
#pragma once

#include <cstdint>
#include <vector>

#include "mc/engine.hpp"

namespace itpseq::mc {

/// Counters specific to the PDR engine, exposed for benchmarks and tests
/// (frames/s and queries/s are the engine's natural throughput measures).
struct PdrStats {
  std::uint64_t queries = 0;         ///< incremental SAT queries
  std::uint64_t obligations = 0;     ///< proof obligations handled
  std::uint64_t lemmas = 0;          ///< clauses added to the frame trace
  std::uint64_t lemma_literals = 0;  ///< total literals over added lemmas
  std::uint64_t gen_dropped = 0;     ///< literals removed by generalization
  std::uint64_t lift_dropped = 0;    ///< literals removed by ternary lifting
  std::uint64_t lift_kept = 0;       ///< literals surviving ternary lifting
  std::uint64_t ctg_blocked = 0;     ///< CTG states blocked at their frame
  std::uint64_t ctg_abandoned = 0;   ///< CTG states given up on (joined)
  std::uint64_t subsumed = 0;        ///< lemmas deleted by subsumption
  std::uint64_t propagated = 0;      ///< lemmas pushed forward a frame
  std::uint64_t invariant_lemmas = 0;  ///< clauses proven inductive (F_inf)
  unsigned frames = 0;               ///< final frontier K
};

class PdrEngine : public Engine {
 public:
  PdrEngine(const aig::Aig& model, std::size_t prop, EngineOptions opts)
      : Engine(model, prop, opts) {}
  const char* name() const override { return "PDR"; }

  /// Valid after run().
  const PdrStats& pdr_stats() const { return pstats_; }

 protected:
  void execute(EngineResult& out) override;

 private:
  PdrStats pstats_;
};

}  // namespace itpseq::mc
