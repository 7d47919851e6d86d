#include "mc/state_space.hpp"

#include "aig/compact.hpp"

namespace itpseq::mc {

StateSpace::StateSpace(const aig::Aig& model) : model_(model) {
  for (std::size_t i = 0; i < model.num_latches(); ++i) {
    aig::Var lv = aig::lit_var(model.latch(i));
    sets_.add_input(model.name(lv).empty() ? "latch" + std::to_string(i)
                                           : model.name(lv));
  }
  sim_.assign(sets_.num_vars(), 0);  // constant false and the pool
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

Implication StateSpace::implies(aig::Lit a, aig::Lit b, double time_limit_sec,
                                const std::atomic<bool>* cancel) {
  ++checks_;
  // Trivial cases need no SAT call.
  if (a == aig::kFalse || b == aig::kTrue || a == b) return Implication::kHolds;
  // The checker answers kUnknown without a budget; so does the pool.
  if (time_limit_sec == 0.0 ||
      (cancel != nullptr && cancel->load(std::memory_order_relaxed)))
    return Implication::kUnknown;
  if ((simulate(a) & ~simulate(b)) != 0) return Implication::kFails;
  ++sat_calls_;
  if (!checker_) checker_.emplace(sets_);
  const std::vector<sat::Lit> assumptions{
      checker_->enc.encode(a, 0), checker_->enc.encode(aig::lit_not(b), 0)};
  sat::Budget budget;
  budget.seconds = time_limit_sec;
  budget.cancel = cancel;
  switch (checker_->solver.solve_assuming(assumptions, budget)) {
    case sat::Status::kUnsat:
      return Implication::kHolds;
    case sat::Status::kSat:
      add_witness();
      return Implication::kFails;
    case sat::Status::kUnknown:
      break;
  }
  return Implication::kUnknown;
}

std::uint64_t StateSpace::simulate(aig::Lit l) {
  auto value = [this](aig::Lit f) {
    return aig::lit_sign(f) ? ~sim_[aig::lit_var(f)] : sim_[aig::lit_var(f)];
  };
  // Past the inputs every node is an AND over earlier nodes.
  while (sim_.size() <= aig::lit_var(l)) {
    const aig::Node& n = sets_.node(static_cast<aig::Var>(sim_.size()));
    sim_.push_back(value(n.fanin0) & value(n.fanin1));
  }
  return value(l);
}

void StateSpace::add_witness() {
  const std::uint64_t bit = std::uint64_t{1} << next_witness_;
  next_witness_ = (next_witness_ + 1) % 64;
  for (std::size_t i = 0; i < sets_.num_inputs(); ++i) {
    // An input the checker never encoded is unconstrained: it counts as 0.
    const sat::Lit x = checker_->enc.lookup(sets_.input(i));
    const bool one = x != sat::kNoLit && checker_->solver.model_value(x);
    std::uint64_t& w = sim_[aig::lit_var(sets_.input(i))];
    w = one ? w | bit : w & ~bit;
  }
  sim_.resize(sets_.num_inputs() + 1);  // every gate value is stale
}

void StateSpace::compact(std::vector<aig::Lit*> roots) {
  checker_.reset();
  sim_.resize(sets_.num_inputs() + 1);
  std::vector<aig::Lit> root_lits;
  root_lits.reserve(roots.size());
  for (aig::Lit* r : roots) root_lits.push_back(*r);
  aig::CompactResult c = aig::compact(sets_, root_lits);
  sets_ = std::move(c.graph);
  for (std::size_t i = 0; i < roots.size(); ++i) *roots[i] = c.roots[i];
}

}  // namespace itpseq::mc
