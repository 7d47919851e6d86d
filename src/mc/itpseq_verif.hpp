// itpseq_verif.hpp — UMC based on interpolation sequences.
//
// Implements the paper's sequence algorithms in one engine:
//
//  * ITPSEQ    (Fig. 2, serial_alpha = 0): at each bound k, one exact-k or
//    assume-k BMC check; on UNSAT the whole sequence I^k_1..I^k_k is
//    extracted *in parallel* from the single refutation proof (Eq. 2).
//  * SITPSEQ   (Fig. 4, 0 < serial_alpha <= 1): the first
//    floor(alpha*(k+1)) terms are computed *serially* (Eq. 3) — each term
//    becomes the A-side initial set of a fresh, shorter BMC problem — and
//    the rest in parallel from the final proof.  If a shifted instance
//    turns satisfiable (the over-approximate prefix made it reachable), the
//    engine falls back to the pure parallel sequence from the original
//    proof for this bound.
//  * ITPSEQCBA (Fig. 5, AbstractionMode::kCba): the BMC checks run on a
//    localization abstraction (invisible latches freed).  Abstract
//    counterexamples are concretized by simulation (EXTEND); on mismatch
//    the most-diverging invisible latch is made visible (REFINE) and the
//    bound is retried.  Once UNSAT, the sequence machinery proceeds on the
//    abstract model.  CBA checks use exact-k targets as in Fig. 5.
//  * ITPSEQPBA (AbstractionMode::kPba): proof-based abstraction, the dual
//    strategy Section V mentions via reference [13] (Een/Mishchenko/Amla).
//    Each bound first runs the *concrete* BMC check; a SAT answer is a real
//    counterexample, an UNSAT answer yields a proof core from which the set
//    of latches actually needed is read off.  The sequence is then
//    extracted from a re-solve of the *abstract* model (smaller proofs,
//    hence higher over-approximation — the premise of Section V).  If the
//    variable-granular abstraction is too coarse for this bound (the
//    abstract re-solve turns SAT), the concrete proof is used instead.
//
// The matrix state sets are maintained across bounds:
//   calI_j = AND over i >= j of I^i_j          (column conjunction)
// and the fixpoint test is calI_j => R_{j-1} with R_j = R_{j-1} OR calI_j.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "mc/engine.hpp"
#include "mc/lemma_exchange.hpp"

namespace itpseq::mc {

/// Localization-abstraction strategy of the sequence engine (Section V).
enum class AbstractionMode : std::uint8_t {
  kNone,  ///< concrete model only (ITPSEQ / SITPSEQ)
  kCba,   ///< counterexample-based abstraction (Fig. 5)
  kPba,   ///< proof-based abstraction
};

const char* to_string(AbstractionMode m);

class ItpSeqEngine : public Engine {
 public:
  ItpSeqEngine(const aig::Aig& model, std::size_t prop, EngineOptions opts,
               AbstractionMode mode = AbstractionMode::kNone);
  const char* name() const override;

 protected:
  void execute(EngineResult& out) override;

 private:
  struct ShiftedSolve {
    std::unique_ptr<sat::Solver> solver;
    std::unique_ptr<cnf::Unroller> unroller;
    sat::Status status = sat::Status::kUnknown;
  };

  /// Build and solve the BMC problem  start(V^0) ∧ T^local_k ∧ target, with
  /// interpolation-sequence partition labels 1..local_k+1.  start ==
  /// kNullLit means the (possibly abstract) initial states.  With
  /// `concrete` the visibility mask is ignored (full model).
  ShiftedSolve solve_shifted(aig::Lit start, unsigned local_k,
                             EngineResult& out, bool concrete = false);

  /// PBA: latches whose unrolled frame variables occur in the refutation
  /// core of a solved instance (everything else can be cut).
  std::vector<bool> pba_needed(const ShiftedSolve& s, unsigned k) const;

  /// Extract sequence terms for local cuts [1, last_cut] from a refuted
  /// shifted solve; returns AIG literals over the state space.
  std::vector<aig::Lit> extract_terms(const ShiftedSolve& s, unsigned last_cut);

  /// CBA: check an abstract counterexample on the concrete model (EXTEND);
  /// fills `out` and returns true on a real failure, otherwise refines the
  /// abstraction (REFINE) and returns false.
  bool extend_or_refine(const ShiftedSolve& s, unsigned k, EngineResult& out,
                        bool& refined);

  AbstractionMode mode_;
  std::vector<bool> prop_support_;     // latches in the bad signal's support
  std::vector<bool> visible_;          // abstraction mask; empty = concrete
  std::vector<aig::Lit> calI_;         // calI_[j], j >= 1; index 0 unused

  // Lemma exchange (concrete mode only — on the abstract transition
  // relation even invariant lemmas are not inductive, so the abstraction
  // engines neither consume nor rely on foreign facts).  Consumed
  // kInvariant lemmas are asserted like model constraints in every solve
  // and conjoined into the fixpoint target / PASS certificate; sequence
  // terms are published back as kCandidate latch clauses.
  LemmaFeed feed_;
  aig::Lit inv_ = aig::kTrue;          // conjunction of consumed invariants
  std::size_t inv_used_ = 0;
};

}  // namespace itpseq::mc
