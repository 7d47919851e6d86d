#include "mc/state_space.hpp"

#include "aig/compact.hpp"

namespace itpseq::mc {

StateSpace::StateSpace(const aig::Aig& model) : model_(model) {
  for (std::size_t i = 0; i < model.num_latches(); ++i) {
    aig::Var lv = aig::lit_var(model.latch(i));
    sets_.add_input(model.name(lv).empty() ? "latch" + std::to_string(i)
                                           : model.name(lv));
  }
}

aig::Lit StateSpace::init_pred(const std::vector<bool>& visible) {
  std::vector<aig::Lit> conj;
  for (std::size_t i = 0; i < model_.num_latches(); ++i) {
    if (!visible.empty() && !visible[i]) continue;
    switch (model_.latch_init(i)) {
      case aig::LatchInit::kZero:
        conj.push_back(aig::lit_not(sets_.input(i)));
        break;
      case aig::LatchInit::kOne:
        conj.push_back(sets_.input(i));
        break;
      case aig::LatchInit::kUndef:
        break;
    }
  }
  return sets_.make_and_many(conj);
}

StateSpace::Checker::Checker(const aig::Aig& sets)
    : enc(sets, solver, [this](aig::Var) { return sat::mk_lit(solver.new_var()); }) {
  solver.set_inprocess(false);
}

sat::Status StateSpace::solve(std::initializer_list<aig::Lit> conj,
                              double time_limit_sec,
                              const std::atomic<bool>* cancel) {
  ++sat_calls_;
  if (!checker_) checker_.emplace(sets_);
  std::vector<sat::Lit> assumptions;
  for (aig::Lit l : conj) assumptions.push_back(checker_->enc.encode(l, 0));
  sat::Budget budget;
  budget.seconds = time_limit_sec;
  budget.cancel = cancel;
  return checker_->solver.solve_assuming(assumptions, budget);
}

Implication StateSpace::implies(aig::Lit a, aig::Lit b, double time_limit_sec,
                                const std::atomic<bool>* cancel) {
  // Trivial cases need no SAT call.
  if (a == aig::kFalse || b == aig::kTrue || a == b) return Implication::kHolds;
  switch (solve({a, aig::lit_not(b)}, time_limit_sec, cancel)) {
    case sat::Status::kUnsat:
      return Implication::kHolds;
    case sat::Status::kSat:
      return Implication::kFails;
    case sat::Status::kUnknown:
      break;
  }
  return Implication::kUnknown;
}

void StateSpace::compact(std::vector<aig::Lit*> roots) {
  checker_.reset();
  std::vector<aig::Lit> root_lits;
  root_lits.reserve(roots.size());
  for (aig::Lit* r : roots) root_lits.push_back(*r);
  aig::CompactResult c = aig::compact(sets_, root_lits);
  sets_ = std::move(c.graph);
  for (std::size_t i = 0; i < roots.size(); ++i) *roots[i] = c.roots[i];
}

Implication StateSpace::satisfiable(aig::Lit a, double time_limit_sec,
                                    const std::atomic<bool>* cancel) {
  if (a == aig::kTrue) return Implication::kHolds;
  if (a == aig::kFalse) return Implication::kFails;
  switch (solve({a}, time_limit_sec, cancel)) {
    case sat::Status::kSat:
      return Implication::kHolds;
    case sat::Status::kUnsat:
      return Implication::kFails;
    case sat::Status::kUnknown:
      break;
  }
  return Implication::kUnknown;
}

}  // namespace itpseq::mc
