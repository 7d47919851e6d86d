#include "sat/tracecheck.hpp"

#include <ostream>
#include <stdexcept>

namespace itpseq::sat {

void write_tracecheck(const Proof& proof, ClauseId final, std::ostream& out) {
  if (final == kNoClauseId)
    throw std::invalid_argument("write_tracecheck: proof incomplete");
  for (ClauseId id : proof.core(final)) {
    out << (id + 1);
    for (Lit l : proof.literals(id)) {
      long long v = static_cast<long long>(var(l)) + 1;
      out << ' ' << (sign(l) ? -v : v);
    }
    out << " 0";
    if (!proof.is_original(id))
      for (ClauseId c : proof.chain(id).chain) out << ' ' << (c + 1);
    out << " 0\n";
  }
}

}  // namespace itpseq::sat
