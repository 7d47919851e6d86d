#include "sat/drat.hpp"

#include <algorithm>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>

namespace itpseq::sat {

void write_drat(const Proof& proof, ClauseId final, std::ostream& out) {
  if (final == kNoClauseId)
    throw std::invalid_argument("write_drat: proof incomplete");
  for (ClauseId id : proof.core(final)) {
    if (proof.is_original(id)) continue;
    for (Lit l : proof.literals(id)) {
      long dimacs = static_cast<long>(var(l)) + 1;
      out << (sign(l) ? -dimacs : dimacs) << ' ';
    }
    out << "0\n";
  }
}

namespace {

/// Minimal independent unit-propagation engine for RUP checking.  Shares
/// no code with the main solver (occurrence lists + full-clause scans
/// instead of watched literals).
class RupChecker {
 public:
  explicit RupChecker(unsigned num_vars)
      : assign_(num_vars, 0) {}  // 0 = unassigned, 1 = true, -1 = false

  /// Add a clause to the database; returns its id.
  std::size_t add(std::vector<Lit> lits) {
    std::size_t id = clauses_.size();
    for (Lit l : lits)
      if (var(l) >= assign_.size()) assign_.resize(var(l) + 1, 0);
    clauses_.push_back({std::move(lits), false});
    return id;
  }

  /// Remove a clause whose literal set matches (any one occurrence).
  bool remove(const std::vector<Lit>& lits) {
    std::vector<Lit> key = sorted(lits);
    for (std::size_t id = clauses_.size(); id-- > 0;) {
      if (clauses_[id].deleted) continue;
      if (sorted(clauses_[id].lits) == key) {
        clauses_[id].deleted = true;
        return true;
      }
    }
    return false;
  }

  bool value_true(Lit l) const {
    int a = assign_[var(l)];
    return sign(l) ? a == -1 : a == 1;
  }
  bool value_false(Lit l) const {
    int a = assign_[var(l)];
    return sign(l) ? a == 1 : a == -1;
  }

  void assume(Lit l) {
    assign_[var(l)] = sign(l) ? -1 : 1;
    trail_.push_back(l);
  }

  /// Propagate to fixpoint; true iff a conflict was found.
  bool propagate() {
    // Simple saturation loop: scan until no clause is unit or conflicting.
    bool changed = true;
    while (changed) {
      changed = false;
      for (const Clause& c : clauses_) {
        if (c.deleted) continue;
        Lit unit = kNoLit;
        bool satisfied = false;
        unsigned free = 0;
        for (Lit l : c.lits) {
          if (value_true(l)) {
            satisfied = true;
            break;
          }
          if (!value_false(l)) {
            ++free;
            unit = l;
          }
        }
        if (satisfied) continue;
        if (free == 0) return true;  // conflict
        if (free == 1) {
          assume(unit);
          changed = true;
        }
      }
    }
    return false;
  }

  /// RUP test: is `lits` a reverse-unit-propagation consequence?
  /// Leaves the assignment as it was on entry.
  bool rup(const std::vector<Lit>& lits) {
    std::size_t mark = trail_.size();
    bool conflict = false;
    for (Lit l : lits) {
      if (value_true(l)) {  // negation immediately inconsistent
        conflict = true;
        break;
      }
      if (!value_false(l)) assume(neg(l));
    }
    if (!conflict) conflict = propagate();
    while (trail_.size() > mark) {
      assign_[var(trail_.back())] = 0;
      trail_.pop_back();
    }
    return conflict;
  }

  /// Permanently propagate the level-0 consequences (after adding units).
  bool settle() { return propagate(); }

 private:
  struct Clause {
    std::vector<Lit> lits;
    bool deleted;
  };
  static std::vector<Lit> sorted(std::vector<Lit> v) {
    std::sort(v.begin(), v.end());
    return v;
  }

  std::vector<Clause> clauses_;
  std::vector<int> assign_;
  std::vector<Lit> trail_;
};

}  // namespace

DratCheckResult check_drat(unsigned num_vars,
                           const std::vector<std::vector<Lit>>& clauses,
                           std::istream& proof) {
  DratCheckResult res;
  RupChecker chk(num_vars);
  for (const auto& c : clauses) chk.add(c);
  if (chk.settle()) {
    res.ok = true;  // formula is conflicting by unit propagation alone
    return res;
  }

  std::string line;
  std::size_t lineno = 0;
  while (std::getline(proof, line)) {
    ++lineno;
    std::istringstream ss(line);
    std::string first;
    if (!(ss >> first)) continue;  // blank line
    bool deletion = first == "d";
    std::vector<Lit> lits;
    long v = 0;
    if (!deletion) {
      v = std::stol(first);
      if (v != 0)
        lits.push_back(mk_lit(static_cast<Var>(std::labs(v) - 1), v < 0));
    }
    while (ss >> v && v != 0)
      lits.push_back(mk_lit(static_cast<Var>(std::labs(v) - 1), v < 0));

    if (deletion) {
      if (!chk.remove(lits)) {
        res.error = "line " + std::to_string(lineno) +
                    ": deletion of a clause not in the database";
        return res;
      }
      ++res.deletions;
      continue;
    }
    if (!chk.rup(lits)) {
      res.error =
          "line " + std::to_string(lineno) + ": clause is not RUP";
      return res;
    }
    ++res.additions;
    if (lits.empty()) {
      res.ok = true;  // empty clause verified: refutation complete
      return res;
    }
    chk.add(lits);
    if (chk.settle()) {
      res.ok = true;  // level-0 conflict: refutation complete
      return res;
    }
  }
  res.error = "proof ended without deriving the empty clause";
  return res;
}

}  // namespace itpseq::sat
