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
// ITPSEQ and SITPSEQ answer every query of a run (every bound and serial
// step) on one long-lived session (mc/itp_session.hpp): each frame is
// encoded once, and each query is a solve_assuming with its own
// refutation.  CBA and PBA change their visibility mask from query to
// query, so each of their queries gets a one-query session.
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
  /// Shape of the run's sessions: kSequence labels 1..n+1 for a length-n
  /// query from start(V^0), with the configured target scheme.
  ItpSession::Shape shape(bool long_lived) const;
  /// CBA, PBA: a one-query session over the current abstraction, or over
  /// the full model with `concrete`.
  std::unique_ptr<ItpSession> one_query(bool concrete = false) const;

  /// PBA: latches whose unrolled frame variables occur in the refutation
  /// core of a refuted query (everything else can be cut).
  std::vector<bool> pba_needed(const ItpSession& s, unsigned k) const;

  /// Extract sequence terms for local cuts [1, last_cut] from the
  /// refutation ending in `final`; returns AIG literals over the state
  /// space.
  std::vector<aig::Lit> extract_terms(const ItpSession& s, sat::ClauseId final,
                                      unsigned last_cut);

  /// CBA: check an abstract counterexample on the concrete model (EXTEND);
  /// fills `out` and returns true on a real failure, otherwise refines the
  /// abstraction (REFINE) and returns false.
  bool extend_or_refine(const ItpSession& s, unsigned k, EngineResult& out,
                        bool& refined);

  AbstractionMode mode_;
  std::vector<bool> prop_support_;     // latches in the bad signal's support
  std::vector<bool> visible_;          // abstraction mask; empty = concrete
  std::vector<aig::Lit> calI_;         // calI_[j], j >= 1; index 0 unused
};

}  // namespace itpseq::mc
