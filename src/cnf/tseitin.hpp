// tseitin.hpp — Tseitin encoding of AIG cones into a SAT solver.
//
// A TseitinEncoder owns a mapping from AIG variables (in one fixed context,
// e.g. one time frame or one state-set AIG) to SAT literals, creating gate
// definition clauses on demand.  Gate clauses carry a caller-chosen
// partition label so they land in the right interpolation partition.
//
// encode_cone() is the one cone walk behind TseitinEncoder and the
// per-frame maps of cnf::Unroller.  Pruning invariant: a node with a literal
// in the map has its whole cone encoded (a gate gets its literal only from
// encode_cone, after its fanins; leaves have no cone).  The walk stops at
// encoded nodes, so it costs only the unencoded part of a cone; and as no
// unencoded node lies below an encoded one, it encodes them in the order of
// a full Aig::cone() walk.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

#include "aig/aig.hpp"
#include "sat/solver.hpp"

namespace itpseq::cnf {

/// Encodes, in DFS post-order (fanin0 pushed before fanin1), every node of
/// `root`'s cone without a literal in `map` (indexed by AIG variable,
/// covering the cone) and returns map[root].  `stack` is the caller's
/// reusable work stack; `leaf(v)` gives an input's or latch's literal and
/// `true_lit()` that of constant true.  Gate g = a & b gets a fresh variable
/// and the clauses (¬g ∨ a), (¬g ∨ b), (g ∨ ¬a ∨ ¬b), labelled `label`; with
/// a `guard`, each clause also gets ¬guard, so the definitions hold only
/// while the guard is assumed and a unit ¬guard satisfies them all.
template <class Leaf, class TrueLit>
sat::Lit encode_cone(const aig::Aig& g, aig::Var root, std::uint32_t label,
                     sat::Solver& solver, std::vector<sat::Lit>& map,
                     std::vector<aig::Var>& stack, Leaf&& leaf,
                     TrueLit&& true_lit, sat::Lit guard = sat::kNoLit) {
  assert(root != 0);
  if (map[root] != sat::kNoLit) return map[root];
  // Entries are var << 1 | expanded: an expanded node's unencoded fanins
  // are above it, so it is encoded when it is back on top.
  stack.clear();
  stack.push_back(root << 1);
  while (!stack.empty()) {
    const aig::Var top = stack.back();
    const aig::Var v = top >> 1;
    const aig::Node& n = g.node(v);
    const bool is_and = n.type == aig::NodeType::kAnd;
    const aig::Lit f0 = n.fanin0, f1 = n.fanin1;
    if ((top & 1) == 0) {
      if (map[v] != sat::kNoLit) {  // reached twice before it was expanded
        stack.pop_back();
        continue;
      }
      stack.back() = top | 1;
      if (is_and) {
        const aig::Var a = aig::lit_var(f0), b = aig::lit_var(f1);
        if (a != 0 && map[a] == sat::kNoLit) stack.push_back(a << 1);
        if (b != 0 && map[b] == sat::kNoLit) stack.push_back(b << 1);
      }
      continue;
    }
    stack.pop_back();
    if (!is_and) {
      map[v] = leaf(v);
      assert(map[v] != sat::kNoLit && "leaf map must cover all leaves");
      continue;
    }
    auto fanin = [&](aig::Lit f) {
      const aig::Var fv = aig::lit_var(f);
      const sat::Lit s = fv == 0 ? sat::neg(true_lit()) : map[fv];
      assert(s != sat::kNoLit && "cone order violated");
      return aig::lit_sign(f) ? sat::neg(s) : s;
    };
    const sat::Lit a = fanin(f0);
    const sat::Lit b = fanin(f1);
    const sat::Lit x = sat::mk_lit(solver.new_var());
    if (guard == sat::kNoLit) {
      solver.add_clause({sat::neg(x), a}, label);
      solver.add_clause({sat::neg(x), b}, label);
      solver.add_clause({x, sat::neg(a), sat::neg(b)}, label);
    } else {
      const sat::Lit off = sat::neg(guard);
      solver.add_clause({off, sat::neg(x), a}, label);
      solver.add_clause({off, sat::neg(x), b}, label);
      solver.add_clause({off, x, sat::neg(a), sat::neg(b)}, label);
    }
    map[v] = x;
  }
  return map[root];
}

/// Callback providing the SAT literal of an AIG *leaf* (input or latch).
using LeafMap = std::function<sat::Lit(aig::Var)>;

class TseitinEncoder {
 public:
  /// `leaf` is consulted once per leaf variable and memoized.  With a
  /// `guard`, every clause the encoder adds carries ¬guard (encode_cone).
  TseitinEncoder(const aig::Aig& g, sat::Solver& solver, LeafMap leaf,
                 sat::Lit guard = sat::kNoLit)
      : g_(g), solver_(solver), leaf_(std::move(leaf)), guard_(guard) {}

  /// SAT literal equisatisfiably representing AIG literal `l`; gate clauses
  /// added with partition `label`.  The constant-true AIG literal maps to a
  /// dedicated always-true SAT variable.
  sat::Lit encode(aig::Lit l, std::uint32_t label);

  /// Pre-encoded SAT literal for an AIG node, or sat::kNoLit.
  sat::Lit lookup(aig::Lit l) const;

  const aig::Aig& graph() const { return g_; }

 private:
  sat::Lit true_lit(std::uint32_t label);

  const aig::Aig& g_;
  sat::Solver& solver_;
  LeafMap leaf_;
  sat::Lit guard_;
  std::vector<sat::Lit> map_;  // aig var -> sat lit (positive phase)
  std::vector<aig::Var> stack_;  // encode_cone's work stack
  sat::Lit true_ = sat::kNoLit;
};

}  // namespace itpseq::cnf
