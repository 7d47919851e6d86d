#include "sat/proof_check.hpp"

#include <algorithm>
#include <set>
#include <span>
#include <sstream>
#include <vector>

namespace itpseq::sat {

namespace {
std::string clause_str(const std::set<Lit>& c) {
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (Lit l : c) {
    if (!first) os << ' ';
    first = false;
    os << (sign(l) ? "-" : "") << var(l);
  }
  os << '}';
  return os.str();
}
}  // namespace

ProofCheckResult check_proof(const Proof& proof, ClauseId final) {
  ProofCheckResult res;
  if (final == kNoClauseId) {
    res.error = "proof incomplete (no final chain)";
    return res;
  }
  std::vector<std::set<Lit>> derived(proof.size());
  std::vector<bool> have(proof.size(), false);

  for (ClauseId id : proof.core(final)) {
    if (proof.is_original(id)) {
      std::span<const Lit> lits = proof.literals(id);
      derived[id] = {lits.begin(), lits.end()};
      have[id] = true;
      continue;
    }
    const ChainView ch = proof.chain(id);
    if (ch.chain.empty()) {
      res.error = "learned clause with empty chain";
      return res;
    }
    if (ch.pivots.size() + 1 != ch.chain.size()) {
      res.error = "chain/pivot arity mismatch";
      return res;
    }
    for (ClauseId c : ch.chain)
      if (!have[c]) {
        res.error = "chain references underived clause";
        return res;
      }
    std::set<Lit> acc = derived[ch.chain[0]];
    for (std::size_t s = 0; s + 1 < ch.chain.size(); ++s) {
      Var p = ch.pivots[s];
      const std::set<Lit>& rhs = derived[ch.chain[s + 1]];
      Lit pos = mk_lit(p, false), neg_l = mk_lit(p, true);
      bool acc_pos = acc.count(pos), acc_neg = acc.count(neg_l);
      bool rhs_pos = rhs.count(pos), rhs_neg = rhs.count(neg_l);
      if (!((acc_pos && rhs_neg) || (acc_neg && rhs_pos))) {
        std::ostringstream os;
        os << "invalid resolution on var " << p << ": " << clause_str(acc)
           << " with " << clause_str(rhs);
        res.error = os.str();
        return res;
      }
      acc.erase(pos);
      acc.erase(neg_l);
      for (Lit l : rhs)
        if (var(l) != p) acc.insert(l);
    }
    std::span<const Lit> recorded = proof.literals(id);
    std::set<Lit> rec(recorded.begin(), recorded.end());
    if (acc != rec) {
      std::ostringstream os;
      os << "chain derives " << clause_str(acc) << " but recorded "
         << clause_str(rec);
      res.error = os.str();
      return res;
    }
    derived[id] = std::move(acc);
    have[id] = true;
  }
  if (!derived[final].empty()) {
    res.error = "final chain does not derive the empty clause";
    return res;
  }
  res.ok = true;
  return res;
}

}  // namespace itpseq::sat
