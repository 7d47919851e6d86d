// kinduction.hpp — temporal induction (k-induction) engine.
//
// The classic SAT-based proof engine (Sheeran-Singh-Stålmarck) included as
// a portfolio baseline alongside the interpolation engines:
//
//   base(k):  S0 ∧ T^k ∧ p(V^1..k-1) ∧ ¬p(V^k)           SAT -> FAIL
//   step(k):  T^{k+1} ∧ p(V^0..k) ∧ ¬p(V^{k+1})         UNSAT -> PASS
//
// Both run incrementally, as in Eén & Sörensson ("Temporal Induction by
// Incremental SAT Solving"): the base case on one mc::Bmc (bmc.hpp), which
// ties only the property's cone of influence, and the step case on one
// solver over the *uninitialized* unrolling of the full model.  The step
// case's unique-states ("simple path") constraints make the method
// complete: it terminates at the recurrence diameter.
#pragma once

#include "mc/engine.hpp"

namespace itpseq::mc {

class KInductionEngine : public Engine {
 public:
  KInductionEngine(const aig::Aig& model, std::size_t prop, EngineOptions opts)
      : Engine(model, prop, opts) {}
  const char* name() const override { return "KIND"; }

 protected:
  void execute(EngineResult& out) override;

 private:
  /// Clause "states at frames i and j differ in some latch".
  void add_distinct(sat::Solver& solver, cnf::Unroller& unr, unsigned i,
                    unsigned j);
};

/// Convenience wrapper.
EngineResult check_kinduction(const aig::Aig& model, std::size_t prop,
                              const EngineOptions& opts = {});

}  // namespace itpseq::mc
