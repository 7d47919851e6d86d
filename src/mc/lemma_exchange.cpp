#include "mc/lemma_exchange.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "util/fault.hpp"

namespace itpseq::mc {

const char* to_string(LemmaGrade g) {
  switch (g) {
    case LemmaGrade::kInvariant:
      return "invariant";
    case LemmaGrade::kFrame:
      return "frame";
    case LemmaGrade::kCandidate:
      return "candidate";
  }
  return "?";
}

namespace {

constexpr std::uint32_t kInvariantStrength = 0xffffffffu;

/// Strength key for the dedup index: higher keys subsume lower ones for the
/// same clause.  kFrame strength grows with the bound but stays below any
/// kInvariant entry.
std::uint32_t strength(const Lemma& l) {
  switch (l.grade) {
    case LemmaGrade::kCandidate:
      return 0;
    case LemmaGrade::kFrame:
      return 1 + std::min<std::uint32_t>(l.bound, kInvariantStrength - 2);
    case LemmaGrade::kInvariant:
      return kInvariantStrength;
  }
  return 0;
}

}  // namespace

LemmaExchange::LemmaExchange(std::size_t num_latches, std::size_t capacity)
    : num_latches_(num_latches), capacity_(capacity) {}

bool LemmaExchange::publish(Lemma lemma) {
  ITPSEQ_FAULT_POINT("exchange.publish");
  const char* obs_grade = to_string(lemma.grade);
  auto obs_report = [&](std::size_t lits, bool accepted) {
    if (!obs::enabled()) return;
    if (accepted)
      obs::counters().lemmas_published.fetch_add(1, std::memory_order_relaxed);
    obs::emit("lemma_publish", {{"grade", obs_grade},
                                {"lits", lits},
                                {"accepted", accepted ? 1u : 0u}});
  };
  std::vector<LatchLit>& c = lemma.clause;
  std::sort(c.begin(), c.end());
  c.erase(std::unique(c.begin(), c.end()), c.end());
  bool bad = c.empty();
  for (std::size_t i = 0; i < c.size() && !bad; ++i) {
    if (latch_lit_index(c[i]) >= num_latches_) bad = true;  // foreign model
    if (i + 1 < c.size() && latch_lit_index(c[i]) == latch_lit_index(c[i + 1]))
      bad = true;  // l OR NOT l: tautology, useless to share
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (bad) {
    ++stats_.rejected;
    obs_report(c.size(), false);
    return false;
  }
  // Dedup before the capacity check, and keep one live copy per clause
  // (the strongest).  A re-publish is a worthwhile *upgrade* only when it
  // promotes to kInvariant or at least doubles a kFrame bound — a clause
  // propagating through PDR frames one by one must not flood the store
  // with near-identical copies.  An upgrade tombstones the weaker copy so
  // subscribers that have not read it yet only ever see the stronger one.
  std::uint32_t s = strength(lemma);
  auto it = seen_.find(c);
  if (it != seen_.end()) {
    std::uint32_t stored = it->second.first;
    bool upgrade = (s == kInvariantStrength && stored < s) ||
                   (s < kInvariantStrength && stored > 0 &&
                    s >= 2 * static_cast<std::uint64_t>(stored)) ||
                   (stored == 0 && s > 0);
    if (!upgrade) {
      ++stats_.rejected;
      obs_report(c.size(), false);
      return false;
    }
  }
  if (lemmas_.size() >= capacity_) {
    ++stats_.rejected;
    obs_report(c.size(), false);
    return false;
  }
  if (it != seen_.end()) {
    dead_[it->second.second] = 1;
    it->second = {s, lemmas_.size()};
  } else {
    seen_.emplace(c, std::make_pair(s, lemmas_.size()));
  }
  lemmas_.push_back(std::move(lemma));
  obs_report(lemmas_.back().clause.size(), true);
  delivered_.push_back(0);
  dead_.push_back(0);
  ++stats_.published;
  return true;
}

std::vector<Lemma> LemmaExchange::fetch(std::size_t& cursor,
                                        std::uint8_t self) {
  ITPSEQ_FAULT_POINT("exchange.fetch");
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Lemma> out;
  for (; cursor < lemmas_.size(); ++cursor) {
    if (dead_[cursor]) continue;  // superseded by a later, stronger copy
    if (self != 0 && lemmas_[cursor].source == self) continue;
    out.push_back(lemmas_[cursor]);
    // Count each lemma's *first* delivery to a foreign subscriber only —
    // more subscribers or relaunched members re-reading the store must
    // not inflate the figure.
    if (!delivered_[cursor]) {
      delivered_[cursor] = 1;
      ++stats_.fetched;
    }
  }
  return out;
}

std::vector<Lemma> LemmaExchange::export_lemmas() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Lemma> out;
  out.reserve(lemmas_.size());
  for (std::size_t i = 0; i < lemmas_.size(); ++i) {
    if (dead_[i]) continue;
    out.push_back(lemmas_[i]);
  }
  return out;
}

std::size_t LemmaExchange::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lemmas_.size();
}

LemmaExchangeStats LemmaExchange::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void assert_lemma_clause(cnf::Unroller& unr, const Lemma& l, unsigned t,
                         std::uint32_t label, sat::Lit guard) {
  std::vector<sat::Lit> cls;
  cls.reserve(l.clause.size() + 1);
  if (guard != sat::kNoLit) cls.push_back(sat::neg(guard));
  for (LatchLit ll : l.clause) {
    sat::Lit sl = unr.latch_lit(latch_lit_index(ll), t, label);
    cls.push_back(latch_lit_sign(ll) ? sat::neg(sl) : sl);
  }
  unr.solver().add_clause(std::move(cls), label);
}

std::size_t publish_candidates(LemmaExchange* hub, const aig::Aig& g,
                               aig::Lit root, std::size_t quota,
                               std::size_t max_len, std::uint8_t source) {
  if (hub == nullptr || quota == 0) return 0;
  std::size_t accepted = 0;
  for (auto& cls : extract_latch_clauses(g, root, quota, max_len)) {
    Lemma l;
    l.clause = std::move(cls);
    l.grade = LemmaGrade::kCandidate;
    l.source = source;
    if (hub->publish(std::move(l))) ++accepted;
  }
  return accepted;
}

aig::Lit latch_clause_pred(aig::Aig& g, const std::vector<LatchLit>& clause) {
  std::vector<aig::Lit> lits;
  lits.reserve(clause.size());
  for (LatchLit ll : clause)
    lits.push_back(aig::lit_xor(g.input(latch_lit_index(ll)),
                                latch_lit_sign(ll)));
  return g.make_or_many(lits);
}

std::size_t LemmaFeed::poll() {
  if (hub == nullptr) return 0;
  std::size_t got = 0;
  std::size_t got_inv = 0, got_frame = 0, got_cand = 0;
  for (Lemma& l : hub->fetch(cursor, self)) {
    ++got;
    switch (l.grade) {
      case LemmaGrade::kInvariant:
        ++got_inv;
        invariants.push_back(std::move(l));
        break;
      case LemmaGrade::kFrame:
        ++got_frame;
        frames.push_back(std::move(l));
        break;
      case LemmaGrade::kCandidate:
        ++got_cand;
        candidates.push_back(std::move(l));
        break;
    }
  }
  if (got > 0 && obs::enabled()) {
    obs::counters().lemmas_fetched.fetch_add(got, std::memory_order_relaxed);
    obs::emit("lemma_fetch", {{"invariant", got_inv},
                              {"frame", got_frame},
                              {"candidate", got_cand}});
  }
  return got;
}

std::vector<std::vector<LatchLit>> extract_latch_clauses(const aig::Aig& g,
                                                         aig::Lit root,
                                                         std::size_t max_clauses,
                                                         std::size_t max_len) {
  std::vector<std::vector<LatchLit>> out;
  if (root == aig::kTrue || root == aig::kFalse) return out;

  // A disjunct leaf of ~(AND-tree): input literal -> latch literal.
  auto as_latch_lit = [&](aig::Lit l, LatchLit& ll) {
    std::size_t idx = g.input_index(aig::lit_var(l));
    if (idx == aig::Aig::kNoIndex) return false;
    ll = mk_latch_lit(idx, aig::lit_sign(l));
    return true;
  };

  // Read literal `l` as a clause (OR over input literals): either a single
  // input literal, or a negated AND node whose De Morgan expansion bottoms
  // out in input literals.
  auto as_clause = [&](aig::Lit l, std::vector<LatchLit>& clause) {
    clause.clear();
    LatchLit unit;
    if (as_latch_lit(l, unit)) {
      clause.push_back(unit);
      return true;
    }
    const aig::Node& n = g.node(aig::lit_var(l));
    if (n.type != aig::NodeType::kAnd || !aig::lit_sign(l)) return false;
    // ~(a AND b) = ~a OR ~b; recurse through positive AND children.
    std::vector<aig::Lit> stack{n.fanin0, n.fanin1};
    while (!stack.empty()) {
      aig::Lit f = stack.back();
      stack.pop_back();
      LatchLit ll;
      if (as_latch_lit(aig::lit_not(f), ll)) {
        if (clause.size() >= max_len) return false;
        clause.push_back(ll);
        continue;
      }
      const aig::Node& fn = g.node(aig::lit_var(f));
      if (fn.type == aig::NodeType::kAnd && !aig::lit_sign(f)) {
        stack.push_back(fn.fanin0);
        stack.push_back(fn.fanin1);
        continue;
      }
      return false;  // disjunct is not an input literal
    }
    return !clause.empty();
  };

  // Top-level conjunction walk of `root`.
  std::vector<aig::Lit> conj{root};
  std::vector<LatchLit> clause;
  while (!conj.empty() && out.size() < max_clauses) {
    aig::Lit l = conj.back();
    conj.pop_back();
    if (l == aig::kTrue) continue;
    const aig::Node& n = g.node(aig::lit_var(l));
    if (n.type == aig::NodeType::kAnd && !aig::lit_sign(l)) {
      conj.push_back(n.fanin0);
      conj.push_back(n.fanin1);
      continue;
    }
    if (as_clause(l, clause)) out.push_back(clause);
  }
  return out;
}

}  // namespace itpseq::mc
