#include "mc/bmc.hpp"

#include <stdexcept>

#include "obs/trace.hpp"

namespace itpseq::mc {

Bmc::Bmc(const aig::Aig& model, std::size_t prop, const EngineOptions& opts)
    : prop_(prop), coi_(model.latch_coi(prop)), unr_(model, solver_) {
  opts.apply_sat_options(solver_);
  unr_.set_tie_policy([this](std::size_t i, unsigned) {
    return coi_[i] ? sat::kNoLit : cnf::Unroller::kUntied;
  });
  unr_.assert_init(0);
  unr_.assert_constraints(0, 0);
}

sat::Status Bmc::check(unsigned k, const sat::Budget& budget) {
  if (k != unr_.num_frames())
    throw std::logic_error("Bmc::check: bounds must be checked in order");
  unr_.add_transition(k - 1, 0);
  unr_.assert_constraints(k, 0);
  if (k >= 2) solver_.add_clause({sat::neg(unr_.bad_lit(k - 1, 0, prop_))}, 0);
  ++checks_;
  return solver_.solve_assuming({unr_.bad_lit(k, 0, prop_)}, budget);
}

void BmcEngine::execute(EngineResult& out) {
  Bmc bmc(model_, prop_, opts_);
  out.verdict = Verdict::kUnknown;
  for (unsigned k = 1; k <= opts_.max_bound; ++k) {
    out.k_fp = k;
    if (out_of_time()) break;
    if (obs::enabled()) {
      obs::counters().bounds.fetch_add(1, std::memory_order_relaxed);
      obs::emit("bound_start", {{"k", k}});
    }
    obs::Span obs_bound("bound", {{"k", k}});
    const sat::Status status = bmc.check(k, sat_budget());
    if (status == sat::Status::kSat) {
      out.verdict = Verdict::kFail;
      out.j_fp = 0;
      out.cex = extract_trace(bmc.solver(), bmc.unroller(), k);
      break;
    }
    // kUnknown: the budget ran out.  A refuted clause set: no path can
    // delay the first failure this far, and no bound will find one.
    if (status == sat::Status::kUnknown || !bmc.solver().ok()) break;
  }
  absorb_session(out, bmc.solver(), bmc.checks());
}

}  // namespace itpseq::mc
