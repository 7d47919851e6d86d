#include "itp/interpolate.hpp"

#include <stdexcept>

#include "util/fault.hpp"

namespace itpseq::itp {

const char* to_string(System s) {
  switch (s) {
    case System::kMcMillan: return "mcmillan";
    case System::kPudlak: return "pudlak";
    case System::kInverseMcMillan: return "inverse-mcmillan";
  }
  return "?";
}

InterpolantExtractor::InterpolantExtractor(const sat::Proof& proof)
    : InterpolantExtractor(proof, proof.final_id()) {}

InterpolantExtractor::InterpolantExtractor(const sat::Proof& proof,
                                           sat::ClauseId final)
    : proof_(proof) {
  ITPSEQ_FAULT_POINT("itp.extract");
  if (final == sat::kNoClauseId)
    throw std::invalid_argument("InterpolantExtractor: proof incomplete");
  core_ = proof.core(final);
  // Classify variables by the labels of core original clauses they occur in.
  for (sat::ClauseId id : core_) {
    if (!proof_.is_original(id)) continue;
    const std::uint32_t label = proof_.label(id);
    for (sat::Lit l : proof_.literals(id)) {
      Range& r = range_[sat::var(l)];
      if (r.min == kUnset || label < r.min) r.min = label;
      if (r.max == 0 || label > r.max) r.max = label;
    }
  }
  // Flatten the core once, antecedents as core positions and every variable
  // with its range, so each cut walks arrays of the core's size only.
  auto range_of = [&](sat::Var v) {
    auto it = range_.find(v);
    return it == range_.end() ? Range{} : it->second;
  };
  part_.reserve(core_.size());
  for (sat::ClauseId id : core_) {
    if (proof_.is_original(id)) {
      const auto begin = static_cast<std::uint32_t>(leaves_.size());
      for (sat::Lit l : proof_.literals(id))
        leaves_.push_back(Leaf{l, range_of(sat::var(l))});
      part_.emplace_back(begin, static_cast<std::uint32_t>(leaves_.size()));
    } else {
      const auto begin = static_cast<std::uint32_t>(steps_.size());
      const sat::ChainView ch = proof_.chain(id);
      for (std::size_t s = 0; s < ch.chain.size(); ++s) {
        const sat::Var pivot = s == 0 ? sat::kNoVar : ch.pivots[s - 1];
        steps_.push_back(Step{proof_.core_position(ch.chain[s]), pivot,
                              s == 0 ? Range{} : range_of(pivot)});
      }
      part_.emplace_back(begin, static_cast<std::uint32_t>(steps_.size()));
    }
  }
}

bool InterpolantExtractor::var_range(sat::Var v, std::uint32_t& min_label,
                                     std::uint32_t& max_label) const {
  auto it = range_.find(v);
  if (it == range_.end()) return false;
  min_label = it->second.min;
  max_label = it->second.max;
  return true;
}

bool InterpolantExtractor::shared_at(sat::Var v, std::uint32_t cut) const {
  auto it = range_.find(v);
  return it != range_.end() && it->second.shared_at(cut);
}

aig::Lit InterpolantExtractor::extract(aig::Aig& out, std::uint32_t cut,
                                       const LeafFn& leaf, System sys) const {
  auto mapped_leaf = [&](sat::Var v) {
    aig::Lit al = leaf(v);
    if (al == aig::kNullLit)
      throw std::logic_error("interpolation: unmapped shared variable");
    return al;
  };
  std::vector<aig::Lit> val(core_.size(), aig::kNullLit);  // by core position
  for (std::size_t i = 0; i < core_.size(); ++i) {
    const sat::ClauseId id = core_[i];
    const auto [begin, end] = part_[i];
    if (proof_.is_original(id)) {
      if (proof_.label(id) <= cut) {
        // A-leaf.
        if (sys == System::kMcMillan) {
          std::vector<aig::Lit> disj;  // OR of shared literals
          for (std::uint32_t e = begin; e < end; ++e) {
            const Leaf& lf = leaves_[e];
            if (!lf.range.shared_at(cut)) continue;
            disj.push_back(
                aig::lit_xor(mapped_leaf(sat::var(lf.lit)), sat::sign(lf.lit)));
          }
          val[i] = out.make_or_many(disj);
        } else {
          val[i] = aig::kFalse;  // Pudlak, inverse McMillan
        }
      } else {
        // B-leaf.
        if (sys == System::kInverseMcMillan) {
          std::vector<aig::Lit> conj;  // AND of negated shared literals
          for (std::uint32_t e = begin; e < end; ++e) {
            const Leaf& lf = leaves_[e];
            if (!lf.range.shared_at(cut)) continue;
            conj.push_back(
                aig::lit_xor(mapped_leaf(sat::var(lf.lit)), !sat::sign(lf.lit)));
          }
          val[i] = out.make_and_many(conj);
        } else {
          val[i] = aig::kTrue;  // McMillan, Pudlak
        }
      }
    } else {
      aig::Lit acc = val[steps_[begin].ante];
      for (std::uint32_t e = begin + 1; e < end; ++e) {
        const Step& st = steps_[e];
        const sat::Var pivot = st.pivot;
        aig::Lit rhs = val[st.ante];
        bool in_core = st.range.min != kUnset;
        bool in_b = in_core && st.range.max > cut;
        bool in_a = !in_core || st.range.min <= cut;
        switch (sys) {
          case System::kMcMillan:
            // A-local => OR; shared or B-local => AND.
            acc = in_b ? out.make_and(acc, rhs) : out.make_or(acc, rhs);
            break;
          case System::kPudlak:
            if (!in_b) {
              acc = out.make_or(acc, rhs);  // A-local
            } else if (!in_a) {
              acc = out.make_and(acc, rhs);  // B-local
            } else {
              // Shared: mux on the pivot, (v OR Ip) AND (NOT v OR In) with
              // Ip from the antecedent containing the positive pivot.
              bool rhs_positive = false;
              for (sat::Lit l : proof_.literals(core_[st.ante]))
                if (sat::var(l) == pivot) {
                  rhs_positive = !sat::sign(l);
                  break;
                }
              aig::Lit ip = rhs_positive ? rhs : acc;
              aig::Lit in = rhs_positive ? acc : rhs;
              aig::Lit v_lit = mapped_leaf(pivot);
              acc = out.make_and(out.make_or(v_lit, ip),
                                 out.make_or(aig::lit_not(v_lit), in));
            }
            break;
          case System::kInverseMcMillan:
            // B-local => AND; shared or A-local => OR.
            acc = (in_b && !in_a) ? out.make_and(acc, rhs)
                                  : out.make_or(acc, rhs);
            break;
        }
      }
      val[i] = acc;
    }
  }
  return val.back();  // the final is last in topological order
}

std::vector<aig::Lit> InterpolantExtractor::extract_sequence(
    aig::Aig& out, std::uint32_t first, std::uint32_t last,
    const CutLeafFn& leaf, System sys) const {
  std::vector<aig::Lit> seq;
  seq.reserve(last - first + 1);
  for (std::uint32_t cut = first; cut <= last; ++cut)
    seq.push_back(
        extract(out, cut, [&](sat::Var v) { return leaf(cut, v); }, sys));
  return seq;
}

}  // namespace itpseq::itp
