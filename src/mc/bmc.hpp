// bmc.hpp — plain bounded model checking (falsification only).
//
// Iterates the bound k and solves one SAT instance per bound using the
// configured target scheme (bound-k / exact-k / exact-assume-k,
// Section II-A).  Returns FAIL with a counterexample, or UNKNOWN when the
// bound or time budget is exhausted — BMC alone can never return PASS.
// Only the latches in the property's cone of influence are tied; the
// others cannot change the answer and stay free.
#pragma once

#include <vector>

#include "mc/engine.hpp"

namespace itpseq::mc {

class BmcEngine : public Engine {
 public:
  BmcEngine(const aig::Aig& model, std::size_t prop, EngineOptions opts)
      : Engine(model, prop, opts) {}
  const char* name() const override { return "BMC"; }

 protected:
  void execute(EngineResult& out) override;

 private:
  /// `coi`: per latch, whether it is in the cone of influence.
  void execute_incremental(EngineResult& out, const std::vector<bool>& coi);
};

}  // namespace itpseq::mc
