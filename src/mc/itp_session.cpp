#include "mc/itp_session.hpp"

namespace itpseq::mc {

ItpSession::ItpSession(const aig::Aig& model, std::size_t prop,
                       const EngineOptions& opts, Shape shape,
                       std::vector<bool> visible)
    : model_(model),
      prop_(prop),
      shape_(shape),
      unr_(model, solver_, std::move(visible)) {
  // The unroller's constructor only creates variables, so proof logging
  // still starts before the first clause.
  opts.apply_sat_options(solver_);
  solver_.enable_proof();
  if (shape_.long_lived) freeze_latches(0);
}

sat::Lit ItpSession::activation(std::uint32_t label) {
  if (!shape_.long_lived) return sat::kNoLit;
  const sat::Var v = solver_.new_var();
  solver_.freeze(v);
  solver_.set_assumption_label(v, label);
  return sat::mk_lit(v);
}

void ItpSession::add_guarded(sat::Lit guard, std::uint32_t label) {
  if (guard != sat::kNoLit) clause_.insert(clause_.begin(), sat::neg(guard));
  solver_.add_clause(clause_, label);
  clause_.clear();
}

void ItpSession::retire(sat::Lit& act, std::uint32_t label) {
  if (act == sat::kNoLit) return;
  solver_.add_clause({sat::neg(act)}, label);
  act = sat::kNoLit;
}

sat::Lit ItpSession::frame_guard(std::vector<sat::Lit>& slots, unsigned t) {
  if (!shape_.shorter_queries) return sat::kNoLit;
  if (slots.size() <= t) slots.resize(t + 1, sat::kNoLit);
  if (slots[t] == sat::kNoLit) slots[t] = activation(frame_label(t));
  return slots[t];
}

void ItpSession::freeze_latches(unsigned t) {
  for (std::size_t i = 0; i < model_.num_latches(); ++i) {
    const sat::Lit l = unr_.lookup(model_.latch(i), t);
    if (l != sat::kNoLit) solver_.freeze(sat::var(l));
  }
}

void ItpSession::encode(unsigned n) {
  while (unr_.num_frames() <= n) {
    const unsigned t = unr_.num_frames() - 1;
    unr_.add_transition(t, frame_label(t));
    if (shape_.long_lived) freeze_latches(t + 1);
  }
  for (; constrained_ <= n; ++constrained_) {
    const unsigned t = constrained_;
    unr_.assert_constraints(
        t, frame_label(t),
        model_.num_constraints() > 0 ? frame_guard(frame_act_, t) : sat::kNoLit);
  }
  if (shape_.assume_k)
    for (; good_ < n; ++good_) {
      clause_.push_back(sat::neg(unr_.bad_lit(good_, frame_label(good_), prop_)));
      add_guarded(frame_guard(good_act_, good_), frame_label(good_));
    }
}

sat::Lit ItpSession::target(unsigned n) {
  if (target_act_.size() <= n) target_act_.resize(n + 1, sat::kNoLit);
  if (target_act_[n] != sat::kNoLit) return target_act_[n];
  const std::uint32_t label = target_label(n);
  if (shape_.layout == Layout::kSequence) {
    clause_.push_back(unr_.bad_lit(n, label, prop_));
  } else {
    for (unsigned t = 1; t <= n; ++t)
      clause_.push_back(unr_.bad_lit(t, label, prop_));
  }
  target_act_[n] = activation(label);
  add_guarded(target_act_[n], label);
  return target_act_[n];
}

sat::Status ItpSession::query(const aig::Aig& sets, aig::Lit start, unsigned n,
                              const sat::Budget& budget) {
  assumptions_.clear();
  // Start: the initial states stay available; an interpolant or term is
  // used by this query only.
  sat::Lit once = sat::kNoLit;
  if (start == aig::kNullLit) {
    if (!init_encoded_) {
      init_act_ = activation(1);
      unr_.assert_init(1, init_act_);
      init_encoded_ = true;
    }
    if (init_act_ != sat::kNoLit) assumptions_.push_back(init_act_);
  } else if (start != aig::kTrue) {
    clause_.push_back(unr_.encode_state_pred(sets, start, 0, 1));
    once = activation(1);
    add_guarded(once, 1);
    if (once != sat::kNoLit) assumptions_.push_back(once);
  }
  encode(n);
  if (shape_.shorter_queries) {
    for (unsigned t = 0; t <= n && t < frame_act_.size(); ++t)
      if (frame_act_[t] != sat::kNoLit) assumptions_.push_back(frame_act_[t]);
    for (unsigned t = 1; t < n && t < good_act_.size(); ++t)
      if (good_act_[t] != sat::kNoLit) assumptions_.push_back(good_act_[t]);
  } else if (last_n_ != n && last_n_ < target_act_.size()) {
    retire(target_act_[last_n_], target_label(last_n_));  // lengths only grow
  }
  last_n_ = n;
  if (const sat::Lit t = target(n); t != sat::kNoLit) assumptions_.push_back(t);

  const sat::Status st = assumptions_.empty()
                             ? solver_.solve(budget)
                             : solver_.solve_assuming(assumptions_, budget);
  final_ = st == sat::Status::kUnsat ? solver_.proof().final_id()
                                     : sat::kNoClauseId;
  retire(once, 1);
  return st;
}

}  // namespace itpseq::mc
