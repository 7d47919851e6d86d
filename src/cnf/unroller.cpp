#include "cnf/unroller.hpp"

#include <cassert>
#include <stdexcept>

namespace itpseq::cnf {

const char* to_string(TargetScheme s) {
  switch (s) {
    case TargetScheme::kBound:
      return "bound-k";
    case TargetScheme::kExact:
      return "exact-k";
    case TargetScheme::kExactAssume:
      return "assume-k";
  }
  return "?";
}

Unroller::Unroller(const aig::Aig& model, sat::Solver& solver,
                   std::vector<bool> visible)
    : model_(model), solver_(solver), visible_(std::move(visible)) {
  if (!visible_.empty() && visible_.size() != model_.num_latches())
    throw std::invalid_argument("Unroller: visibility mask size mismatch");
  ensure_frame0();
}

sat::Lit Unroller::true_lit(std::uint32_t label) {
  if (true_ == sat::kNoLit) {
    true_ = fresh();
    solver_.add_clause({true_}, label);
  }
  return true_;
}

void Unroller::ensure_frame0() {
  Frame f;
  f.map.assign(model_.num_vars(), sat::kNoLit);
  // Latches and inputs at frame 0 are fresh SAT variables.
  for (std::size_t i = 0; i < model_.num_latches(); ++i)
    f.map[aig::lit_var(model_.latch(i))] = fresh();
  frames_.push_back(std::move(f));
}

sat::Lit Unroller::lit(aig::Lit l, unsigned t, std::uint32_t label) {
  if (t >= frames_.size()) throw std::out_of_range("Unroller::lit: frame");
  aig::Var root = aig::lit_var(l);
  if (root == 0) {
    sat::Lit tl = true_lit(label);
    return aig::lit_sign(l) ? tl : sat::neg(tl);
  }
  // Every frame maps all its latches up front (ensure_frame0,
  // add_transition), so the only leaves the walk reaches are inputs.
  sat::Lit s = encode_cone(
      model_, root, label, solver_, frames_[t].map, stack_,
      [&](aig::Var) { return fresh(); }, [&] { return true_lit(label); });
  return aig::lit_sign(l) ? sat::neg(s) : s;
}

sat::Lit Unroller::latch_lit(std::size_t i, unsigned t, std::uint32_t label) {
  return lit(model_.latch(i), t, label);
}

sat::Lit Unroller::lookup(aig::Lit l, unsigned t) const {
  if (t >= frames_.size()) return sat::kNoLit;
  aig::Var v = aig::lit_var(l);
  if (v == 0) return sat::kNoLit;
  sat::Lit s = frames_[t].map[v];
  if (s == sat::kNoLit) return sat::kNoLit;
  return aig::lit_sign(l) ? sat::neg(s) : s;
}

sat::Lit Unroller::input_lit(std::size_t i, unsigned t, std::uint32_t label) {
  return lit(model_.input(i), t, label);
}

void Unroller::assert_init(std::uint32_t label, sat::Lit guard) {
  for (std::size_t i = 0; i < model_.num_latches(); ++i) {
    if (!latch_visible(i)) continue;
    aig::LatchInit init = model_.latch_init(i);
    if (init == aig::LatchInit::kUndef) continue;  // free at reset
    sat::Lit l = latch_lit(i, 0, label);
    if (init != aig::LatchInit::kOne) l = sat::neg(l);
    if (guard == sat::kNoLit)
      solver_.add_clause({l}, label);
    else
      solver_.add_clause({sat::neg(guard), l}, label);
  }
}

void Unroller::add_transition(unsigned t, std::uint32_t label) {
  if (t + 1 != frames_.size())
    throw std::logic_error("add_transition: frames must be added in order");
  Frame next;
  next.map.assign(model_.num_vars(), sat::kNoLit);
  // Every latch at frame t+1 gets a *fresh* SAT variable tied to its
  // next-state function by equality clauses.  Aliasing the gate literal
  // directly would be slightly cheaper, but fresh variables guarantee that
  // the variables shared across a partition cut are exactly the frame's
  // latch variables, one per latch — which interpolant extraction relies on
  // to map shared variables back to state-space inputs.
  for (std::size_t i = 0; i < model_.num_latches(); ++i) {
    aig::Var lv = aig::lit_var(model_.latch(i));
    sat::Lit v = fresh();
    next.map[lv] = v;
    if (!latch_visible(i)) continue;  // cutpoint: leave unconstrained
    aig::Lit nx = model_.latch_next(i);
    if (aig::lit_var(nx) == 0) {
      // Constant next state: a unit clause, avoiding a constant-true var.
      solver_.add_clause({aig::lit_sign(nx) ? v : sat::neg(v)}, label);
    } else {
      sat::Lit g = lit(nx, t, label);
      solver_.add_clause({sat::neg(v), g}, label);
      solver_.add_clause({v, sat::neg(g)}, label);
    }
  }
  frames_.push_back(std::move(next));
}

void Unroller::assert_constraints(unsigned t, std::uint32_t label,
                                  sat::Lit guard) {
  for (std::size_t i = 0; i < model_.num_constraints(); ++i) {
    aig::Lit c = model_.constraint(i);
    if (aig::lit_var(c) == 0) {
      if (c != aig::kFalse) continue;
      // Unsatisfiable: the empty clause, or ~guard.
      if (guard == sat::kNoLit)
        solver_.add_clause({}, label);
      else
        solver_.add_clause({sat::neg(guard)}, label);
      continue;
    }
    sat::Lit l = lit(c, t, label);
    if (guard == sat::kNoLit)
      solver_.add_clause({l}, label);
    else
      solver_.add_clause({sat::neg(guard), l}, label);
  }
}

sat::Lit Unroller::bad_lit(unsigned t, std::uint32_t label, std::size_t prop) {
  if (prop >= model_.num_outputs())
    throw std::out_of_range("bad_lit: no such output");
  return lit(model_.output(prop), t, label);
}

void Unroller::assert_target(unsigned k, TargetScheme scheme, std::uint32_t label) {
  switch (scheme) {
    case TargetScheme::kBound: {
      std::vector<sat::Lit> disj;
      for (unsigned t = 1; t <= k; ++t) disj.push_back(bad_lit(t, label));
      solver_.add_clause(disj, label);
      break;
    }
    case TargetScheme::kExact:
      solver_.add_clause({bad_lit(k, label)}, label);
      break;
    case TargetScheme::kExactAssume:
      for (unsigned t = 1; t + 1 <= k; ++t)
        solver_.add_clause({sat::neg(bad_lit(t, label))}, label);
      solver_.add_clause({bad_lit(k, label)}, label);
      break;
  }
}

sat::Lit Unroller::encode_state_pred(const aig::Aig& sets, aig::Lit root,
                                     unsigned t, std::uint32_t label) {
  if (sets.num_inputs() != model_.num_latches())
    throw std::invalid_argument(
        "encode_state_pred: state-set AIG inputs must match model latches");
  TseitinEncoder enc(sets, solver_, [&](aig::Var v) -> sat::Lit {
    std::size_t idx = sets.input_index(v);
    assert(idx != aig::Aig::kNoIndex);
    return latch_lit(idx, t, label);
  });
  return enc.encode(root, label);
}

}  // namespace itpseq::cnf
