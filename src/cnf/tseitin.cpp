#include "cnf/tseitin.hpp"

namespace itpseq::cnf {

sat::Lit TseitinEncoder::true_lit(std::uint32_t label) {
  if (true_ == sat::kNoLit) {
    sat::Var v = solver_.new_var();
    true_ = sat::mk_lit(v);
    if (guard_ == sat::kNoLit)
      solver_.add_clause({true_}, label);
    else
      solver_.add_clause({sat::neg(guard_), true_}, label);
  }
  return true_;
}

sat::Lit TseitinEncoder::lookup(aig::Lit l) const {
  aig::Var v = aig::lit_var(l);
  if (v >= map_.size() || map_[v] == sat::kNoLit) return sat::kNoLit;
  return aig::lit_sign(l) ? sat::neg(map_[v]) : map_[v];
}

sat::Lit TseitinEncoder::encode(aig::Lit l, std::uint32_t label) {
  if (map_.size() < g_.num_vars()) map_.resize(g_.num_vars(), sat::kNoLit);
  aig::Var root = aig::lit_var(l);
  if (root == 0) {
    sat::Lit t = true_lit(label);
    return aig::lit_sign(l) ? t : sat::neg(t);
  }
  sat::Lit s = encode_cone(g_, root, label, solver_, map_, stack_, leaf_,
                           [&] { return true_lit(label); }, guard_);
  return aig::lit_sign(l) ? sat::neg(s) : s;
}

}  // namespace itpseq::cnf
