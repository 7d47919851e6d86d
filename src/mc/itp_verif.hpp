// itp_verif.hpp — standard interpolation-based UMC (McMillan), Fig. 1.
//
// Outer loop over the BMC bound k; inner loop computes a chain of
// interpolants I_1, I_2, ... where I_{j+1} = ITP(I_j AND T, B) and
// B = T^{k-1} AND (bad at some frame 1..k)  — the *bound-k* target that
// standard interpolation requires for soundness (Section III), whatever
// EngineOptions::scheme says (that knob is for BMC and the sequences).
// The inner loop terminates with PASS when I_j implies the union R_{j-1}
// of all previous state sets (fixpoint), or restarts with k+1 when the
// over-approximate instance becomes satisfiable.  FAIL is only reported
// from the first inner iteration, whose A-side is the exact initial-state
// set.
//
// Every instance of a run is a query on one long-lived proof-logging
// session (mc/itp_session.hpp, layout kStandard): the unrolling grows by a
// frame per bound, the front and the bound-k target sit behind activation
// literals, and each interpolant comes from its own query's refutation.
#pragma once

#include "mc/engine.hpp"

namespace itpseq::mc {

class ItpVerifEngine : public Engine {
 public:
  ItpVerifEngine(const aig::Aig& model, std::size_t prop, EngineOptions opts)
      : Engine(model, prop, opts) {}
  const char* name() const override { return "ITP"; }

 protected:
  void execute(EngineResult& out) override;
};

}  // namespace itpseq::mc
