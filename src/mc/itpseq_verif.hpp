// itpseq_verif.hpp — UMC based on interpolation sequences.
//
// Implements the paper's sequence algorithms in one engine:
//
//  * ITPSEQ    (Fig. 2, serial_alpha = 0): at each bound k, one exact-k or
//    assume-k BMC check; on UNSAT the whole sequence I^k_1..I^k_k is
//    extracted *in parallel* from the single refutation proof (Eq. 2).
//  * SITPSEQ   (Fig. 4, 0 < serial_alpha <= 1): the first
//    floor(alpha*(k+1)) terms are computed *serially* (Eq. 3) — each term
//    becomes the A-side initial set of a shorter BMC query — and the rest
//    in parallel from the last query's proof.  If a shifted query turns
//    satisfiable (the over-approximate prefix made it reachable), the
//    engine falls back to the pure parallel sequence from the bound's
//    first proof.
//
// All four answer every query of a run (every bound, refinement and serial
// step) on one long-lived session (mc/itp_session.hpp): each frame is
// encoded once, and each query is a solve_assuming with its own refutation.
//  * ITPSEQCBA (Fig. 5, AbstractionMode::kCba): the BMC checks run on a
//    localization abstraction (invisible latches freed).  Abstract
//    counterexamples are concretized by simulation (EXTEND); on mismatch
//    the most-diverging invisible latch is made visible (REFINE), tied in
//    every frame, and the bound is retried.  Once UNSAT, the sequence
//    machinery proceeds on the abstract model.  CBA uses exact-k targets.
//  * ITPSEQPBA (AbstractionMode::kPba): proof-based abstraction, the dual
//    strategy Section V mentions via reference [13] (Een/Mishchenko/Amla).
//    Each bound first runs the *concrete* BMC check, every tie guard
//    assumed; a SAT answer is a real counterexample.  On UNSAT the latches
//    of the failed guards, with the property support, are the abstraction,
//    and the sequence is extracted from a re-solve assuming only their
//    guards (smaller proofs, hence higher over-approximation — the premise
//    of Section V).  That is a superset of the failed assumptions, so the
//    re-solve is UNSAT by construction.
//
// The matrix state sets are maintained across bounds:
//   calI_j = AND over i >= j of I^i_j          (column conjunction)
// and the fixpoint test is calI_j => R_{j-1} with R_j = R_{j-1} OR calI_j.
#pragma once

#include <vector>

#include "mc/engine.hpp"

namespace itpseq::mc {

class ItpSeqEngine : public Engine {
 public:
  ItpSeqEngine(const aig::Aig& model, std::size_t prop, EngineOptions opts,
               AbstractionMode mode = AbstractionMode::kNone);
  const char* name() const override;

 protected:
  void execute(EngineResult& out) override;

 private:
  /// CBA, after an abstract counterexample of length k: false if it
  /// replays on the concrete model (EXTEND) or no latch is left invisible,
  /// else makes one more latch visible, on the session too (REFINE).
  bool refine(ItpSession& s, unsigned k, EngineResult& out);

  AbstractionMode mode_;
  std::vector<bool> prop_support_;     // latches in the bad signal's support
  std::vector<bool> visible_;          // abstraction mask; empty = concrete
  std::vector<aig::Lit> calI_;         // calI_[j], j >= 1; index 0 unused
};

}  // namespace itpseq::mc
