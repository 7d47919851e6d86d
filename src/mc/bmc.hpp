// bmc.hpp — bounded model checking on one growing SAT instance.
//
// mc::Bmc is the single-instance formulation of Eén & Sörensson ("Temporal
// Induction by Incremental SAT Solving", BMC'03), which the paper's engines
// follow after its reference [13]: one solver holds the unrolling from the
// reset state and gains one frame per bound.  check(k) makes ¬bad at frame
// k-1 a permanent clause and assumes bad at frame k, so with the bounds
// checked in order a satisfying assignment is a counterexample whose first
// failure is at depth k (depth 0 is Engine::preliminary_checks').  Only the
// latches in the property's cone of influence are tied; the others cannot
// change the answer and stay free.
//
// BmcEngine iterates the bound on one Bmc and returns FAIL with a
// counterexample, or UNKNOWN when the bound or the time budget is exhausted
// — BMC alone never returns PASS.  k-induction runs its base case on a Bmc
// too (kinduction.hpp).
#pragma once

#include <vector>

#include "mc/engine.hpp"

namespace itpseq::mc {

class Bmc {
 public:
  Bmc(const aig::Aig& model, std::size_t prop, const EngineOptions& opts);

  /// Extend the unrolling to frame k and look for a path that first
  /// violates the property at frame k.  Bounds go in order: the first call
  /// checks k = 1, each later one the next bound.  kUnsat with
  /// !solver().ok() means no constrained path stays good up to frame k-1.
  sat::Status check(unsigned k, const sat::Budget& budget);

  const sat::Solver& solver() const { return solver_; }
  const cnf::Unroller& unroller() const { return unr_; }
  /// check() calls so far: the solver's counters are cumulative over them.
  unsigned checks() const { return checks_; }

 private:
  std::size_t prop_;
  std::vector<bool> coi_;  // per latch: in the cone of influence
  sat::Solver solver_;
  cnf::Unroller unr_;
  unsigned checks_ = 0;
};

class BmcEngine : public Engine {
 public:
  BmcEngine(const aig::Aig& model, std::size_t prop, EngineOptions opts)
      : Engine(model, prop, opts) {}
  const char* name() const override { return "BMC"; }

 protected:
  void execute(EngineResult& out) override;
};

}  // namespace itpseq::mc
