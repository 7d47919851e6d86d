#include "cnf/unroller.hpp"

#include <cassert>
#include <stdexcept>

namespace itpseq::cnf {

Unroller::Unroller(const aig::Aig& model, sat::Solver& solver)
    : model_(model), solver_(solver) {
  // Latches at frame 0 are fresh SAT variables; inputs get theirs on demand.
  frames_.push_back({std::vector<sat::Lit>(model_.num_vars(), sat::kNoLit)});
  for (std::size_t i = 0; i < model_.num_latches(); ++i)
    frames_[0].map[aig::lit_var(model_.latch(i))] = fresh();
}

sat::Lit Unroller::true_lit(std::uint32_t label) {
  if (true_ == sat::kNoLit) {
    true_ = fresh();
    solver_.add_clause({true_}, label);
  }
  return true_;
}

sat::Lit Unroller::lit(aig::Lit l, unsigned t, std::uint32_t label) {
  if (t >= frames_.size()) throw std::out_of_range("Unroller::lit: frame");
  aig::Var root = aig::lit_var(l);
  if (root == 0) {
    sat::Lit tl = true_lit(label);
    return aig::lit_sign(l) ? tl : sat::neg(tl);
  }
  // Every frame maps all its latches up front (constructor,
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

void Unroller::assert_init(std::uint32_t label) {
  for (std::size_t i = 0; i < model_.num_latches(); ++i) init_latch(i, label);
}

void Unroller::init_latch(std::size_t i, std::uint32_t label, sat::Lit guard) {
  aig::LatchInit init = model_.latch_init(i);
  if (init == aig::LatchInit::kUndef) return;  // free at reset
  sat::Lit l = latch_lit(i, 0, label);
  if (init != aig::LatchInit::kOne) l = sat::neg(l);
  if (guard == sat::kNoLit)
    solver_.add_clause({l}, label);
  else
    solver_.add_clause({sat::neg(guard), l}, label);
}

void Unroller::add_transition(unsigned t, std::uint32_t label) {
  if (t + 1 != frames_.size())
    throw std::logic_error("add_transition: frames must be added in order");
  frames_.push_back({std::vector<sat::Lit>(model_.num_vars(), sat::kNoLit)});
  for (std::size_t i = 0; i < model_.num_latches(); ++i) {
    frames_.back().map[aig::lit_var(model_.latch(i))] = fresh();
    const sat::Lit guard = tie_policy_ ? tie_policy_(i, t) : sat::kNoLit;
    if (guard != kUntied) tie(i, t, label, guard);
  }
}

void Unroller::tie(std::size_t i, unsigned t, std::uint32_t label,
                   sat::Lit guard) {
  if (t + 1 >= frames_.size()) throw std::out_of_range("Unroller::tie: frame");
  const sat::Lit v = frames_[t + 1].map[aig::lit_var(model_.latch(i))];
  // One clause of the tie, with ~guard when guarded.  add_clause drops a
  // repeated literal, so add(u, u) is the unit u.
  auto add = [&](sat::Lit a, sat::Lit b) {
    if (guard == sat::kNoLit)
      solver_.add_clause({a, b}, label);
    else
      solver_.add_clause({sat::neg(guard), a, b}, label);
  };
  const aig::Lit nx = model_.latch_next(i);
  if (aig::lit_var(nx) == 0) {
    // Constant next state: a unit clause, avoiding a constant-true var.
    const sat::Lit u = aig::lit_sign(nx) ? v : sat::neg(v);
    add(u, u);
  } else {
    const sat::Lit g = lit(nx, t, label);
    add(sat::neg(v), g);
    add(v, sat::neg(g));
  }
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

void Unroller::collect_tree(aig::Lit root, bool neg, unsigned t,
                            bool stop_shared, std::vector<aig::Lit>& out) {
  const std::vector<sat::Lit>& map = frames_[t].map;
  ++stamp_;
  walk_.assign(1, root);
  while (!walk_.empty()) {
    const aig::Lit l = walk_.back();
    walk_.pop_back();
    if (visited_[l] == stamp_) continue;
    visited_[l] = stamp_;
    const aig::Var v = aig::lit_var(l);
    if (aig::lit_sign(l) != neg || !model_.is_and(v) ||
        map[v] != sat::kNoLit || (stop_shared && l != root && fanouts_[v] > 1)) {
      out.push_back(l);
      continue;
    }
    // fanin1 below fanin0 on the stack: leaves come out in fanin order.
    const aig::Node& n = model_.node(v);
    walk_.push_back(aig::lit_xor(n.fanin1, neg));
    walk_.push_back(aig::lit_xor(n.fanin0, neg));
  }
}

void Unroller::bad_dnf(unsigned t, std::size_t prop, std::vector<aig::Lit>& dnf,
                       std::vector<std::size_t>& ends) {
  if (prop >= model_.num_outputs())
    throw std::out_of_range("bad_dnf: no such output");
  if (t >= frames_.size()) throw std::out_of_range("bad_dnf: frame");
  if (fanouts_.empty()) {
    fanouts_.assign(model_.num_vars(), 0);
    visited_.assign(2 * model_.num_vars(), 0);
    auto ref = [&](aig::Lit l) { ++fanouts_[aig::lit_var(l)]; };
    for (aig::Var v = 1; v < model_.num_vars(); ++v)
      if (model_.is_and(v)) {
        ref(model_.node(v).fanin0);
        ref(model_.node(v).fanin1);
      }
    for (std::size_t i = 0; i < model_.num_latches(); ++i)
      ref(model_.latch_next(i));
    for (std::size_t i = 0; i < model_.num_constraints(); ++i)
      ref(model_.constraint(i));
  }
  dnf.clear();
  ends.clear();
  std::vector<aig::Lit> disjuncts;
  collect_tree(model_.output(prop), /*neg=*/true, t, false, disjuncts);
  if (disjuncts.size() == 1) {  // one cube: bad itself, i.e. bad_lit
    dnf.push_back(model_.output(prop));
    ends.push_back(1);
    return;
  }
  for (aig::Lit d : disjuncts) {
    collect_tree(d, /*neg=*/false, t, true, dnf);
    ends.push_back(dnf.size());
  }
}

void Unroller::assert_good(unsigned t, std::uint32_t label, sat::Lit guard,
                           std::size_t prop) {
  std::vector<aig::Lit> dnf;
  std::vector<std::size_t> ends;
  bad_dnf(t, prop, dnf, ends);
  std::vector<sat::Lit> clause;
  std::size_t begin = 0;
  for (std::size_t end : ends) {
    clause.clear();
    if (guard != sat::kNoLit) clause.push_back(sat::neg(guard));
    for (std::size_t i = begin; i < end; ++i)
      clause.push_back(sat::neg(lit(dnf[i], t, label)));
    solver_.add_clause(clause, label);
    begin = end;
  }
}

void Unroller::assert_bad(unsigned first, unsigned last, std::uint32_t label,
                          sat::Lit act, std::size_t prop) {
  std::vector<aig::Lit> dnf;
  std::vector<std::size_t> ends;
  std::vector<sat::Lit> top{sat::neg(act)};
  for (unsigned t = first; t <= last; ++t) {
    bad_dnf(t, prop, dnf, ends);
    std::size_t begin = 0;
    for (std::size_t end : ends) {
      if (end - begin == 1) {
        top.push_back(lit(dnf[begin], t, label));
      } else {
        const sat::Lit d = fresh();
        for (std::size_t i = begin; i < end; ++i)
          solver_.add_clause({sat::neg(act), sat::neg(d), lit(dnf[i], t, label)},
                             label);
        top.push_back(d);
      }
      begin = end;
    }
  }
  solver_.add_clause(top, label);
}

sat::Lit Unroller::encode_state_pred(const aig::Aig& sets, aig::Lit root,
                                     unsigned t, std::uint32_t label) {
  return encode_state_pred(sets, root, t, label, sat::kNoLit);
}

sat::Lit Unroller::encode_state_pred(const aig::Aig& sets, aig::Lit root,
                                     unsigned t, std::uint32_t label,
                                     sat::Lit guard) {
  if (sets.num_inputs() != model_.num_latches())
    throw std::invalid_argument(
        "encode_state_pred: state-set AIG inputs must match model latches");
  TseitinEncoder enc(
      sets, solver_,
      [&](aig::Var v) -> sat::Lit {
        std::size_t idx = sets.input_index(v);
        assert(idx != aig::Aig::kNoIndex);
        return latch_lit(idx, t, label);
      },
      guard);
  return enc.encode(root, label);
}

}  // namespace itpseq::cnf
