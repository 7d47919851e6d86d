#include "mc/itp_session.hpp"

namespace itpseq::mc {

const char* to_string(AbstractionMode m) {
  switch (m) {
    case AbstractionMode::kNone: return "none";
    case AbstractionMode::kCba: return "cba";
    case AbstractionMode::kPba: return "pba";
  }
  return "?";
}

ItpSession::ItpSession(const aig::Aig& model, std::size_t prop,
                       const EngineOptions& opts, Shape shape)
    : model_(model),
      prop_(prop),
      shape_(shape),
      unr_(model, solver_),
      coi_(model.latch_coi(prop)) {
  // The unroller's constructor only creates variables, so proof logging
  // still starts before the first clause.
  opts.apply_sat_options(solver_);
  solver_.enable_proof();
  freeze_latches(0);
  // No latch of a kCba session is visible until set_visible.
  if (shape_.abstraction == AbstractionMode::kCba)
    visible_.assign(model_.num_latches(), false);
  // A latch outside the cone of influence of the bad output and the
  // constraints cannot change an answer, so it is never tied.  kPba puts
  // every tie behind its own guard, local to the frame's partition; kCba
  // ties a visible latch for good.
  unr_.set_tie_policy([this](std::size_t i, unsigned t) {
    if (!coi_[i]) return cnf::Unroller::kUntied;
    if (shape_.abstraction == AbstractionMode::kPba)
      return guard(t + 1, i) = activation(frame_label(t));
    return visible(i) ? sat::kNoLit : cnf::Unroller::kUntied;
  });
}

sat::Lit ItpSession::activation(std::uint32_t label) {
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

void ItpSession::set_visible(std::vector<bool> visible) {
  // CBA: tie the newly visible latches of the cone in every frame encoded
  // so far.
  for (std::size_t i = 0; i < model_.num_latches(); ++i) {
    if (shape_.abstraction != AbstractionMode::kCba || !coi_[i] ||
        this->visible(i) || (!visible.empty() && !visible[i]))
      continue;
    for (unsigned t = 0; t + 1 < unr_.num_frames(); ++t)
      unr_.tie(i, t, frame_label(t));
    if (init_encoded_) unr_.init_latch(i, 1, init_act_);
  }
  visible_ = std::move(visible);
}

sat::Lit& ItpSession::guard(std::size_t row, std::size_t i) {
  if (guards_.size() <= row)
    guards_.resize(row + 1,
                   std::vector<sat::Lit>(model_.num_latches(), sat::kNoLit));
  return guards_[row][i];
}

std::vector<bool> ItpSession::failed_latches() const {
  std::vector<char> failed(solver_.num_vars(), 0);
  for (sat::Lit a : solver_.failed_assumptions()) failed[sat::var(a)] = 1;
  std::vector<bool> out(model_.num_latches(), false);
  for (const std::vector<sat::Lit>& row : guards_)
    for (std::size_t i = 0; i < row.size(); ++i)
      if (row[i] != sat::kNoLit && failed[sat::var(row[i])]) out[i] = true;
  return out;
}

std::vector<bool> ItpSession::tied_latches() const {
  std::vector<bool> out(model_.num_latches(), false);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = coi_[i] && visible(i);
  return out;
}

void ItpSession::encode_init() {
  init_encoded_ = true;
  const bool pba = shape_.abstraction == AbstractionMode::kPba;
  if (!pba) init_act_ = activation(1);
  for (std::size_t i = 0; i < model_.num_latches(); ++i) {
    if (!coi_[i]) continue;
    if (!pba && visible(i))
      unr_.init_latch(i, 1, init_act_);
    else if (pba && model_.latch_init(i) != aig::LatchInit::kUndef)
      unr_.init_latch(i, 1, guard(0, i) = activation(1));
  }
}

void ItpSession::encode(unsigned n) {
  while (unr_.num_frames() <= n) {
    const unsigned t = unr_.num_frames() - 1;
    unr_.add_transition(t, frame_label(t));
    freeze_latches(t + 1);
  }
  for (; constrained_ <= n; ++constrained_) {
    const unsigned t = constrained_;
    unr_.assert_constraints(
        t, frame_label(t),
        model_.num_constraints() > 0 ? frame_guard(frame_act_, t) : sat::kNoLit);
  }
  if (shape_.assume_k)
    for (; good_ < n; ++good_) {
      const std::uint32_t label = frame_label(good_);
      const sat::Lit guard = frame_guard(good_act_, good_);
      if (shape_.shorter_queries) {
        unr_.assert_good(good_, label, guard, prop_);
      } else {
        clause_.push_back(sat::neg(unr_.bad_lit(good_, label, prop_)));
        add_guarded(guard, label);
      }
    }
}

sat::Lit ItpSession::target(unsigned n) {
  if (target_act_.size() <= n) target_act_.resize(n + 1, sat::kNoLit);
  if (target_act_[n] != sat::kNoLit) return target_act_[n];
  const std::uint32_t label = target_label(n);
  const unsigned first = shape_.layout == Layout::kSequence ? n : 1;
  if (shape_.shorter_queries) {
    target_act_[n] = activation(label);
    unr_.assert_bad(first, n, label, target_act_[n], prop_);
    return target_act_[n];
  }
  for (unsigned t = first; t <= n; ++t)
    clause_.push_back(unr_.bad_lit(t, label, prop_));
  target_act_[n] = activation(label);
  add_guarded(target_act_[n], label);
  return target_act_[n];
}

sat::Status ItpSession::query(const aig::Aig& sets, aig::Lit start, unsigned n,
                              const sat::Budget& budget) {
  assumptions_.clear();
  // Start: the initial states stay available; an interpolant or term is
  // used by this query only, so its definitions go with it.
  sat::Lit once = sat::kNoLit;
  if (start == aig::kNullLit) {
    if (!init_encoded_) encode_init();
    if (init_act_ != sat::kNoLit) assumptions_.push_back(init_act_);
  } else if (start != aig::kTrue) {
    once = activation(1);
    clause_.push_back(unr_.encode_state_pred(sets, start, 0, 1, once));
    add_guarded(once, 1);
    assumptions_.push_back(once);
  }
  encode(n);
  // kPba: the visible latches' reset guards (with the initial states) and
  // tie guards up to the target.
  for (std::size_t r = start == aig::kNullLit ? 0 : 1;
       r <= n && r < guards_.size(); ++r)
    for (std::size_t i = 0; i < guards_[r].size(); ++i)
      if (guards_[r][i] != sat::kNoLit && visible(i))
        assumptions_.push_back(guards_[r][i]);
  if (shape_.shorter_queries) {
    for (unsigned t = 0; t <= n && t < frame_act_.size(); ++t)
      if (frame_act_[t] != sat::kNoLit) assumptions_.push_back(frame_act_[t]);
    for (unsigned t = 1; t < n && t < good_act_.size(); ++t)
      if (good_act_[t] != sat::kNoLit) assumptions_.push_back(good_act_[t]);
  } else if (last_n_ != n && last_n_ < target_act_.size()) {
    retire(target_act_[last_n_], target_label(last_n_));  // lengths only grow
  }
  last_n_ = n;
  assumptions_.push_back(target(n));

  const sat::Status st = solver_.solve_assuming(assumptions_, budget);
  final_ = st == sat::Status::kUnsat ? solver_.proof().final_id()
                                     : sat::kNoClauseId;
  retire(once, 1);
  return st;
}

}  // namespace itpseq::mc
