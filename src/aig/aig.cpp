#include "aig/aig.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace itpseq::aig {

Aig::Aig() {
  nodes_.push_back(Node{NodeType::kConst, kNullLit, kNullLit, LatchInit::kZero});
}

Lit Aig::new_var(NodeType t) {
  Var v = static_cast<Var>(nodes_.size());
  Node n;
  n.type = t;
  nodes_.push_back(n);
  return var_lit(v);
}

Lit Aig::add_input(const std::string& name) {
  Lit l = new_var(NodeType::kInput);
  input_index_[lit_var(l)] = inputs_.size();
  inputs_.push_back(l);
  if (!name.empty()) set_name(lit_var(l), name);
  return l;
}

Lit Aig::add_latch(LatchInit init, const std::string& name) {
  Lit l = new_var(NodeType::kLatch);
  nodes_[lit_var(l)].init = init;
  latch_index_[lit_var(l)] = latches_.size();
  latches_.push_back(l);
  if (!name.empty()) set_name(lit_var(l), name);
  return l;
}

void Aig::set_latch_next(Lit latch_lit, Lit next) {
  Var v = lit_var(latch_lit);
  if (v >= nodes_.size() || nodes_[v].type != NodeType::kLatch || lit_sign(latch_lit))
    throw std::invalid_argument("set_latch_next: not a positive latch literal");
  if (lit_var(next) >= nodes_.size())
    throw std::invalid_argument("set_latch_next: next literal out of range");
  nodes_[v].fanin0 = next;
}

Lit Aig::make_and(Lit a, Lit b) {
  if (lit_var(a) >= nodes_.size() || lit_var(b) >= nodes_.size())
    throw std::invalid_argument("make_and: literal out of range");
  // Constant folding and trivial cases.
  if (a == kFalse || b == kFalse) return kFalse;
  if (a == kTrue) return b;
  if (b == kTrue) return a;
  if (a == b) return a;
  if (a == lit_not(b)) return kFalse;
  // Canonical order: larger literal first (stable strash key).
  if (a < b) std::swap(a, b);
  std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
  auto it = strash_.find(key);
  if (it != strash_.end()) return it->second;
  Lit l = new_var(NodeType::kAnd);
  nodes_[lit_var(l)].fanin0 = a;
  nodes_[lit_var(l)].fanin1 = b;
  ++num_ands_;
  strash_.emplace(key, l);
  return l;
}

Lit Aig::make_xor(Lit a, Lit b) {
  // a ^ b = !(a & b) & !(!a & !b)
  return make_and(lit_not(make_and(a, b)), lit_not(make_and(lit_not(a), lit_not(b))));
}

Lit Aig::make_ite(Lit c, Lit t, Lit e) {
  // ite(c,t,e) = !(!(c&t) & !(!c&e))
  return lit_not(make_and(lit_not(make_and(c, t)), lit_not(make_and(lit_not(c), e))));
}

Lit Aig::make_and_many(const std::vector<Lit>& lits) {
  if (lits.empty()) return kTrue;
  // Balanced reduction keeps the tree shallow.
  std::vector<Lit> layer = lits;
  while (layer.size() > 1) {
    std::vector<Lit> next;
    next.reserve((layer.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2)
      next.push_back(make_and(layer[i], layer[i + 1]));
    if (layer.size() % 2) next.push_back(layer.back());
    layer.swap(next);
  }
  return layer[0];
}

Lit Aig::make_or_many(const std::vector<Lit>& lits) {
  std::vector<Lit> inv;
  inv.reserve(lits.size());
  for (Lit l : lits) inv.push_back(lit_not(l));
  return lit_not(make_and_many(inv));
}

std::size_t Aig::add_output(Lit l, const std::string& name) {
  if (lit_var(l) >= nodes_.size())
    throw std::invalid_argument("add_output: literal out of range");
  outputs_.push_back(l);
  output_names_.push_back(name);
  return outputs_.size() - 1;
}

std::size_t Aig::add_constraint(Lit l) {
  if (lit_var(l) >= nodes_.size())
    throw std::invalid_argument("add_constraint: literal out of range");
  constraints_.push_back(l);
  return constraints_.size() - 1;
}

std::size_t Aig::latch_index(Var v) const {
  auto it = latch_index_.find(v);
  return it == latch_index_.end() ? kNoIndex : it->second;
}

std::size_t Aig::input_index(Var v) const {
  auto it = input_index_.find(v);
  return it == input_index_.end() ? kNoIndex : it->second;
}

const std::string& Aig::name(Var v) const {
  static const std::string empty;
  auto it = names_.find(v);
  return it == names_.end() ? empty : it->second;
}

void Aig::set_name(Var v, const std::string& n) { names_[v] = n; }

std::vector<Var> Aig::cone(const std::vector<Lit>& roots) const {
  std::vector<Var> order;
  std::vector<std::uint8_t> mark(nodes_.size(), 0);  // 0=unseen 1=on-stack 2=done
  // Iterative DFS producing a topological order.
  std::vector<Var> stack;
  for (Lit r : roots) {
    if (lit_var(r) == 0) continue;
    stack.push_back(lit_var(r));
  }
  while (!stack.empty()) {
    Var v = stack.back();
    if (mark[v] == 2) {
      stack.pop_back();
      continue;
    }
    if (mark[v] == 1) {
      mark[v] = 2;
      order.push_back(v);
      stack.pop_back();
      continue;
    }
    mark[v] = 1;
    if (nodes_[v].type == NodeType::kAnd) {
      Var a = lit_var(nodes_[v].fanin0);
      Var b = lit_var(nodes_[v].fanin1);
      if (a != 0 && mark[a] == 0) stack.push_back(a);
      if (b != 0 && mark[b] == 0) stack.push_back(b);
    }
  }
  return order;
}

std::vector<Var> Aig::support(Lit root) const {
  std::vector<Var> result;
  for (Var v : cone({root}))
    if (nodes_[v].type == NodeType::kInput || nodes_[v].type == NodeType::kLatch)
      result.push_back(v);
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<bool> Aig::latch_coi(std::size_t prop) const {
  std::vector<bool> in(latches_.size(), false);
  std::vector<std::uint8_t> seen(nodes_.size(), 0);
  std::vector<Var> stack;
  auto push = [&](Lit l) {
    const Var v = lit_var(l);
    if (v != 0 && !seen[v]) {
      seen[v] = 1;
      stack.push_back(v);
    }
  };
  push(outputs_.at(prop));
  for (Lit c : constraints_) push(c);
  while (!stack.empty()) {
    const Var v = stack.back();
    stack.pop_back();
    const Node& n = nodes_[v];
    if (n.type == NodeType::kAnd) {
      push(n.fanin0);
      push(n.fanin1);
    } else if (n.type == NodeType::kLatch) {
      in[latch_index(v)] = true;
      push(n.fanin0);  // the next-state function
    }
  }
  return in;
}

std::size_t Aig::cone_size(Lit root) const {
  std::size_t n = 0;
  for (Var v : cone({root}))
    if (nodes_[v].type == NodeType::kAnd) ++n;
  return n;
}

bool Aig::evaluate(Lit root, const std::vector<bool>& values) const {
  std::vector<Var> order = cone({root});
  std::vector<std::uint8_t> val(nodes_.size(), 0);
  for (Var v : order) {
    const Node& n = nodes_[v];
    switch (n.type) {
      case NodeType::kConst:
        val[v] = 0;
        break;
      case NodeType::kInput:
      case NodeType::kLatch:
        val[v] = (v < values.size() && values[v]) ? 1 : 0;
        break;
      case NodeType::kAnd: {
        bool a = (val[lit_var(n.fanin0)] != 0) ^ lit_sign(n.fanin0);
        bool b = (val[lit_var(n.fanin1)] != 0) ^ lit_sign(n.fanin1);
        val[v] = (a && b) ? 1 : 0;
        break;
      }
    }
  }
  Var rv = lit_var(root);
  bool base = rv == 0 ? false : (val[rv] != 0);
  return base ^ lit_sign(root);
}

std::uint64_t Aig::evaluate64(Lit root, const std::vector<std::uint64_t>& values) const {
  std::vector<Var> order = cone({root});
  std::vector<std::uint64_t> val(nodes_.size(), 0);
  for (Var v : order) {
    const Node& n = nodes_[v];
    switch (n.type) {
      case NodeType::kConst:
        val[v] = 0;
        break;
      case NodeType::kInput:
      case NodeType::kLatch:
        val[v] = v < values.size() ? values[v] : 0;
        break;
      case NodeType::kAnd: {
        std::uint64_t a = val[lit_var(n.fanin0)] ^ (lit_sign(n.fanin0) ? ~0ull : 0ull);
        std::uint64_t b = val[lit_var(n.fanin1)] ^ (lit_sign(n.fanin1) ? ~0ull : 0ull);
        val[v] = a & b;
        break;
      }
    }
  }
  Var rv = lit_var(root);
  std::uint64_t base = rv == 0 ? 0ull : val[rv];
  return base ^ (lit_sign(root) ? ~0ull : 0ull);
}

Lit Aig::import_cone(const Aig& src, Lit root, const std::vector<Lit>& leaf_map) {
  std::vector<Lit> map(src.num_vars(), kNullLit);
  map[0] = kFalse;
  for (Var v : src.cone({root})) {
    const Node& n = src.nodes_[v];
    if (n.type == NodeType::kAnd) {
      Lit a = map[lit_var(n.fanin0)];
      Lit b = map[lit_var(n.fanin1)];
      assert(a != kNullLit && b != kNullLit);
      map[v] = make_and(lit_xor(a, lit_sign(n.fanin0)), lit_xor(b, lit_sign(n.fanin1)));
    } else {
      if (v >= leaf_map.size() || leaf_map[v] == kNullLit)
        throw std::invalid_argument("import_cone: unmapped leaf variable");
      map[v] = leaf_map[v];
    }
  }
  Var rv = lit_var(root);
  Lit base = rv == 0 ? kFalse : map[rv];
  if (base == kNullLit) throw std::invalid_argument("import_cone: unmapped root");
  return lit_xor(base, lit_sign(root));
}

}  // namespace itpseq::aig
