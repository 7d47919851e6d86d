// ternary.cpp — see ternary.hpp.
#include "mc/ternary.hpp"

#include <algorithm>
#include <functional>

namespace itpseq::mc {

TernarySim::TernarySim(const aig::Aig& model, const std::vector<aig::Lit>& roots)
    : model_(model),
      values_(model.num_vars(), TernVal::kX),
      pos_(model.num_vars(), 0),
      watch_(model.num_vars(), 0) {
  topo_ = model.cone(roots);
  for (std::size_t i = 0; i < topo_.size(); ++i) {
    pos_[topo_[i]] = static_cast<std::uint32_t>(i + 1);
    if (model_.is_and(topo_[i])) ++cone_ands_;
  }
  values_[0] = TernVal::kFalse;  // the constant variable
  // Fanout table: count each AND's distinct in-cone fanins, prefix-sum the
  // counts, then fill in topological order so every row comes out sorted.
  auto fanin_positions = [&](aig::Var u) {
    const aig::Node& n = model_.node(u);
    std::uint32_t a = pos_[aig::lit_var(n.fanin0)];
    std::uint32_t b = pos_[aig::lit_var(n.fanin1)];
    if (b == a) b = 0;
    return std::pair{a, b};  // 1-based positions, 0 = none
  };
  fanout_begin_.assign(topo_.size() + 1, 0);
  for (aig::Var u : topo_) {
    if (!model_.is_and(u)) continue;
    auto [a, b] = fanin_positions(u);
    if (a != 0) ++fanout_begin_[a];
    if (b != 0) ++fanout_begin_[b];
  }
  for (std::size_t p = 1; p < fanout_begin_.size(); ++p)
    fanout_begin_[p] += fanout_begin_[p - 1];
  fanout_.resize(fanout_begin_.back());
  std::vector<std::uint32_t> fill(fanout_begin_.begin(),
                                  fanout_begin_.end() - 1);
  for (std::uint32_t p = 0; p < topo_.size(); ++p) {
    if (!model_.is_and(topo_[p])) continue;
    auto [a, b] = fanin_positions(topo_[p]);
    if (a != 0) fanout_[fill[a - 1]++] = p;
    if (b != 0) fanout_[fill[b - 1]++] = p;
  }
  queued_.assign(topo_.size(), 0);
}

void TernarySim::set_watches(const std::vector<aig::Lit>& roots) {
  for (aig::Var v : watched_vars_) watch_[v] = 0;
  watched_vars_.clear();
  undef_watched_ = 0;
  for (aig::Lit r : roots) {
    aig::Var v = aig::lit_var(r);
    if (v == 0) continue;  // constants are always defined
    if (watch_[v]++ == 0) {
      watched_vars_.push_back(v);
      if (values_[v] == TernVal::kX) ++undef_watched_;
    }
  }
}

void TernarySim::set_value(aig::Var v, TernVal nv, bool trail) {
  TernVal ov = values_[v];
  if (ov == nv) return;
  if (trail) trail_.emplace_back(v, ov);
  values_[v] = nv;
  if (watch_[v] != 0) {
    if (nv == TernVal::kX && ov != TernVal::kX) ++undef_watched_;
    if (nv != TernVal::kX && ov == TernVal::kX) --undef_watched_;
  }
}

void TernarySim::set_latch(std::size_t i, TernVal v) {
  set_value(aig::lit_var(model_.latch(i)), v, false);
}

void TernarySim::set_input(std::size_t i, TernVal v) {
  set_value(aig::lit_var(model_.input(i)), v, false);
}

void TernarySim::assign(const std::vector<bool>& latches,
                        const std::vector<bool>& inputs) {
  for (aig::Var v : topo_) {
    if (model_.is_latch(v)) {
      std::size_t li = model_.latch_index(v);
      set_value(v, tern_of(li < latches.size() && latches[li]), false);
    } else if (model_.is_input(v)) {
      std::size_t ii = model_.input_index(v);
      set_value(v, tern_of(ii < inputs.size() && inputs[ii]), false);
    }
  }
  simulate();
}

void TernarySim::simulate() {
  for (aig::Var v : topo_) {
    if (!model_.is_and(v)) continue;
    const aig::Node& n = model_.node(v);
    TernVal a = value(n.fanin0);
    TernVal b = value(n.fanin1);
    set_value(v, tern_and(a, b), false);
  }
}

TernVal TernarySim::value(aig::Lit l) const {
  if (l == aig::kFalse) return TernVal::kFalse;
  if (l == aig::kTrue) return TernVal::kTrue;
  TernVal v = values_[aig::lit_var(l)];
  return aig::lit_sign(l) ? tern_not(v) : v;
}

void TernarySim::schedule_fanouts(std::uint32_t p) {
  for (std::uint32_t k = fanout_begin_[p]; k < fanout_begin_[p + 1]; ++k) {
    const std::uint32_t q = fanout_[k];
    if (queued_[q] == gen_) continue;
    queued_[q] = gen_;
    heap_.push_back(q);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  }
}

bool TernarySim::try_latch_x(std::size_t i) {
  aig::Var v = aig::lit_var(model_.latch(i));
  if (values_[v] == TernVal::kX) return true;  // nothing to do
  trail_.clear();
  set_value(v, TernVal::kX, true);
  if (pos_[v] != 0) {
    if (++gen_ == 0) {  // the stamps wrapped: forget every old one
      std::fill(queued_.begin(), queued_.end(), 0u);
      gen_ = 1;
    }
    heap_.clear();
    schedule_fanouts(pos_[v] - 1);
    // Smallest position first: every fanin of the popped node is final.
    // Ternary AND is monotone under leaf-to-X moves, so a node changes at
    // most once, and a watched root that turns X stays X: stop there.
    while (!heap_.empty() && undef_watched_ == 0) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      const std::uint32_t p = heap_.back();
      heap_.pop_back();
      const aig::Var u = topo_[p];
      const aig::Node& n = model_.node(u);
      const TernVal nv = tern_and(value(n.fanin0), value(n.fanin1));
      if (nv == values_[u]) continue;
      set_value(u, nv, true);
      schedule_fanouts(p);
    }
  }
  if (undef_watched_ == 0) return true;  // commit
  // A watched root lost its value: roll back in reverse order.
  for (auto it = trail_.rbegin(); it != trail_.rend(); ++it)
    set_value(it->first, it->second, false);
  return false;
}

}  // namespace itpseq::mc
