#include "sat/solver.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "obs/trace.hpp"
#include "util/fault.hpp"
#include "util/mem_budget.hpp"

namespace itpseq::sat {

namespace {
constexpr double kVarDecay = 0.95;
constexpr double kClauseDecay = 0.999;
constexpr double kRescaleLimit = 1e100;
constexpr float kClauseRescaleLimit = 1e20f;
constexpr std::uint32_t kRestartBase = 100;  // conflicts per Luby unit
}  // namespace

Solver::Solver() { level_stamp_.push_back(0); }  // level 0 exists up front
Solver::~Solver() = default;

void Solver::enable_proof() {
  if (!arena_.empty())
    throw std::logic_error("enable_proof must precede add_clause");
  if (!proof_) proof_ = std::make_unique<Proof>();
}

Var Solver::new_var() {
  Var v = static_cast<Var>(assign_.size());
  assign_.push_back(LBool::kUndef);
  var_data_.push_back(VarData{});
  activity_.push_back(0.0);
  phase_.push_back(0);
  heap_pos_.push_back(kNoPos);
  seen_.push_back(0);
  level_stamp_.push_back(0);  // decision levels never exceed num_vars
  frozen_.push_back(0);
  eliminated_.push_back(0);
  watches_.emplace_back();
  watches_.emplace_back();
  bin_watches_.emplace_back();
  bin_watches_.emplace_back();
  heap_insert(v);
  return v;
}

Solver::CRef Solver::alloc_clause(std::span<const Lit> lits, ClauseId id,
                                  bool learned, std::uint32_t lbd) {
  ITPSEQ_FAULT_POINT("sat.arena");
#ifdef ITPSEQ_CHECKED
  ++arena_epoch_;  // every outstanding Cls view is now stale by contract
#endif
  CRef cr = static_cast<CRef>(arena_.size());
  arena_.push_back((static_cast<std::uint32_t>(lits.size()) << kFlagBits) |
                   (learned ? kLearnedFlag : 0u));
  arena_.push_back(id);
  arena_.push_back(lbd);
  arena_.push_back(0);  // activity = 0.0f bit pattern
  arena_.insert(arena_.end(), lits.begin(), lits.end());
  const std::uint64_t bytes = arena_.size() * sizeof(std::uint32_t);
  if (bytes > stats_.peak_arena_bytes) stats_.peak_arena_bytes = bytes;
  return cr;
}

bool Solver::add_clause(std::initializer_list<Lit> lits, std::uint32_t label) {
  return add_clause_span({lits.begin(), lits.size()}, label);
}

bool Solver::add_clause(const std::vector<Lit>& lits, std::uint32_t label) {
  return add_clause_span(lits, label);
}

bool Solver::add_clause_span(std::span<const Lit> in, std::uint32_t label) {
  assert(trail_lim_.empty() && "add_clause only at decision level 0");
  // Work in the member buffer: once it has grown, adding a clause allocates
  // nothing outside the arena and the proof log.
  std::vector<Lit>& lits = add_buf_;
  lits.assign(in.begin(), in.end());
  // Deduplicate and detect tautologies.
  std::sort(lits.begin(), lits.end());
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
  for (std::size_t i = 0; i + 1 < lits.size(); ++i)
    if (lits[i + 1] == neg(lits[i])) return true;  // tautology: skip
  for (Lit l : lits)
    if (var(l) >= num_vars()) throw std::invalid_argument("add_clause: unknown var");
  // A new clause may mention a BVE-eliminated variable; bring it back first
  // (its recorded clauses re-install under their original proof ids), so
  // the elimination never leaks into the caller-visible semantics.
  // restore_var reaches integrate_clause, never add_buf_.
  for (Lit l : lits)
    if (eliminated_[var(l)]) restore_var(var(l));
  // Skip clauses already satisfied at level 0 (sound for refutation: the
  // satisfying literal is implied by the remaining formula).
  for (Lit l : lits)
    if (value(l) == LBool::kTrue) return true;

  ++num_input_clauses_;
  ClauseId id = kNoClauseId;
  if (proof_) id = proof_->add_original(lits, label);

  if (lits.empty()) {
    ok_ = false;
    if (proof_ && root_final_ == kNoClauseId) {
      ResolutionChain chain;
      chain.chain.push_back(id);
      root_final_ = proof_->set_final(chain);
    }
    return false;
  }

  const std::size_t num_free = watch_order(lits);
  CRef cr = alloc_clause(lits, id, /*learned=*/false, /*lbd=*/0);

  if (num_free == 0) {
    // All literals false at level 0: root conflict.
    if (ok_) {
      ok_ = false;
      root_conflict_ = cr;
    }
    return false;
  }
  if (num_free == 1) {
    enqueue(lits[0], cr);
    return ok_;
  }
  attach(cr);
  return true;
}

std::size_t Solver::watch_order(std::span<Lit> lits) const {
  // std::stable_partition would allocate: rotate each non-false literal
  // down past the false ones before it instead.
  std::size_t num_free = 0;
  for (std::size_t i = 0; i < lits.size(); ++i) {
    if (value(lits[i]) == LBool::kFalse) continue;
    if (i != num_free)
      std::rotate(lits.begin() + num_free, lits.begin() + i, lits.begin() + i + 1);
    ++num_free;
  }
  return num_free;
}

void Solver::attach(CRef cr) {
  Cls c = cls(cr);
  assert(c.size() >= 2);
  if (c.size() == 2) {
    bin_watches_[c[0]].push_back(BinWatcher{c[1], cr});
    bin_watches_[c[1]].push_back(BinWatcher{c[0], cr});
  } else {
    watches_[c[0]].push_back(Watcher{cr, c[1]});
    watches_[c[1]].push_back(Watcher{cr, c[0]});
  }
}

void Solver::detach(CRef cr) {
  Cls c = cls(cr);
  if (c.size() == 2) {
    for (int i = 0; i < 2; ++i) {
      auto& bl = bin_watches_[c[i]];
      for (std::size_t j = 0; j < bl.size(); ++j)
        if (bl[j].cr == cr) {
          bl[j] = bl.back();
          bl.pop_back();
          break;
        }
    }
  } else {
    for (int i = 0; i < 2; ++i) {
      auto& wl = watches_[c[i]];
      for (std::size_t j = 0; j < wl.size(); ++j)
        if (wl[j].cref == cr) {
          wl[j] = wl.back();
          wl.pop_back();
          break;
        }
    }
  }
}

bool Solver::locked(CRef cr) {
  // A clause serving as a reason may not be deleted; analysis and proof
  // finalization still need its literals and id.  Long clauses keep their
  // implied literal at position 0 (propagate maintains this), but binary
  // clauses are never reordered — either literal can be the implied one.
  Cls c = cls(cr);
  auto is_reason = [&](Lit l) {
    return value(l) == LBool::kTrue && var_data_[var(l)].reason == cr;
  };
  if (is_reason(c[0])) return true;
  return c.size() == 2 && is_reason(c[1]);
}

void Solver::delete_clause(CRef cr) {
  Cls c = cls(cr);
  assert(!c.deleted());
  detach(cr);
  c.set_deleted();
  wasted_ += kHeaderWords + c.size();
}

std::uint32_t Solver::compute_lbd(const std::vector<Lit>& lits) {
  ++lbd_stamp_;
  std::uint32_t glue = 0;
  for (Lit l : lits) {
    std::uint32_t lvl = var_data_[var(l)].level;
    if (level_stamp_[lvl] != lbd_stamp_) {
      level_stamp_[lvl] = lbd_stamp_;
      ++glue;
    }
  }
  return glue;
}

void Solver::update_lbd(Cls c) {
  // Glucose-style dynamic glue: recompute when the clause participates in
  // conflict analysis (all its literals are assigned there) and keep the
  // minimum ever seen — a clause can only be promoted to a better tier.
  if (c.lbd() <= kCoreLbd) return;
  ++lbd_stamp_;
  std::uint32_t glue = 0;
  for (Lit l : c) {
    std::uint32_t lvl = var_data_[var(l)].level;
    if (level_stamp_[lvl] != lbd_stamp_) {
      level_stamp_[lvl] = lbd_stamp_;
      ++glue;
    }
  }
  if (glue < c.lbd()) c.set_lbd(glue);
}

void Solver::enqueue(Lit l, CRef reason) {
  assert(value(l) == LBool::kUndef);
  Var v = var(l);
  assign_[v] = sign(l) ? LBool::kFalse : LBool::kTrue;
  var_data_[v].reason = reason;
  var_data_[v].level = static_cast<std::uint32_t>(trail_lim_.size());
  var_data_[v].trail_pos = static_cast<std::uint32_t>(trail_.size());
  trail_.push_back(l);
}

Solver::CRef Solver::propagate() {
  if (qhead_ >= trail_.size()) return kNoCRef;  // nothing queued
  // Hot path: the arena, assignment array and each watch list are stable
  // for the duration (enqueue only appends to trail_; replacement watches
  // go to OTHER lists — ls[1] != false_lit by construction), so raw
  // pointers are hoisted out of the loops where the compiler cannot prove
  // that itself.  Stats are accumulated locally and flushed once.
  std::uint32_t* const arena = arena_.data();
  const LBool* const assigns = assign_.data();
  auto val = [assigns](Lit l) { return lbool_xor(assigns[var(l)], sign(l)); };
  std::uint64_t props = 0, bin_props = 0;
  CRef confl = kNoCRef;

  while (qhead_ < trail_.size()) {
    Lit p = trail_[qhead_++];
    Lit false_lit = neg(p);  // literal that just became false

    // Binary implications: resolved from the watcher alone, arena untouched.
    {
      const BinWatcher* bw = bin_watches_[false_lit].data();
      const std::size_t bn = bin_watches_[false_lit].size();
      for (std::size_t i = 0; i < bn; ++i) {
        const LBool v = val(bw[i].other);
        if (v == LBool::kTrue) continue;
        if (v == LBool::kFalse) {
          confl = bw[i].cr;
          goto done;
        }
        enqueue(bw[i].other, bw[i].cr);
        ++props;
        ++bin_props;
      }
    }

    {
      auto& wl = watches_[false_lit];
      Watcher* const ws = wl.data();
      const std::size_t n = wl.size();
      std::size_t i = 0, j = 0;
      while (i < n) {
        const Watcher w = ws[i];
        if (val(w.blocker) == LBool::kTrue) {
          ws[j++] = ws[i++];
          continue;
        }
        std::uint32_t* const base = arena + w.cref;
        Lit* const ls = base + kHeaderWords;
        const std::uint32_t size = base[0] >> kFlagBits;
        // Make sure the false literal is at position 1.
        if (ls[0] == false_lit) std::swap(ls[0], ls[1]);
        assert(ls[1] == false_lit);
        ++i;
        // 0th watch true: clause satisfied.
        const Lit first = ls[0];
        if (val(first) == LBool::kTrue) {
          ws[j++] = Watcher{w.cref, first};
          continue;
        }
        // Look for a replacement watch.
        bool found = false;
        for (std::uint32_t k = 2; k < size; ++k) {
          if (val(ls[k]) != LBool::kFalse) {
            std::swap(ls[1], ls[k]);
            watches_[ls[1]].push_back(Watcher{w.cref, first});
            found = true;
            break;
          }
        }
        if (found) continue;  // watcher moved away
        // Clause is unit or conflicting.
        ws[j++] = Watcher{w.cref, first};
        if (val(first) == LBool::kFalse) {
          // Conflict: copy remaining watchers and bail out.
          while (i < n) ws[j++] = ws[i++];
          wl.resize(j);
          confl = w.cref;
          goto done;
        }
        enqueue(first, w.cref);
        ++props;
      }
      wl.resize(j);
    }
  }
done:
  if (confl != kNoCRef) qhead_ = trail_.size();
  stats_.propagations += props;
  stats_.bin_propagations += bin_props;
  return confl;
}

void Solver::bump_var(Var v) {
  activity_[v] += var_inc_;
  if (activity_[v] > kRescaleLimit) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (heap_contains(v)) heap_up(heap_pos_[v]);
}

void Solver::decay_var_activity() { var_inc_ /= kVarDecay; }

void Solver::bump_clause(Cls c) {
  c.set_activity(c.activity() + static_cast<float>(clause_inc_));
  if (c.activity() > kClauseRescaleLimit) {
    for (CRef cr : learned_list_) {
      Cls lc = cls(cr);
      lc.set_activity(lc.activity() * 1e-20f);
    }
    clause_inc_ *= 1e-20;
  }
}

void Solver::decay_clause_activity() { clause_inc_ /= kClauseDecay; }

void Solver::analyze(CRef conflict, std::vector<Lit>& out_learned,
                     std::uint32_t& out_level, ResolutionChain& out_chain) {
  out_learned.clear();
  out_learned.push_back(kNoLit);  // slot for the 1UIP literal
  out_chain.chain.clear();
  out_chain.pivots.clear();

  std::uint32_t current = static_cast<std::uint32_t>(trail_lim_.size());
  int counter = 0;
  Lit p = kNoLit;
  std::size_t index = trail_.size();
  CRef cur = conflict;

  while (true) {
    Cls c = cls(cur);
    if (c.learned()) {
      bump_clause(c);
      update_lbd(c);
    }
    if (proof_) {
      if (p == kNoLit) {
        out_chain.chain.push_back(c.id());
      } else {
        out_chain.chain.push_back(c.id());
        out_chain.pivots.push_back(var(p));
      }
    }
    for (Lit q : c) {
      if (p != kNoLit && q == p) continue;  // the pivot itself
      Var v = var(q);
      if (seen_[v]) continue;
      assert(value(q) == LBool::kFalse);
      seen_[v] = 1;
      bump_var(v);
      if (var_data_[v].level >= current) {
        ++counter;
      } else {
        // Keep *all* lower-level literals, including level 0, so the logged
        // resolution chain derives exactly this clause; minimization strips
        // them with logged resolutions afterwards.
        out_learned.push_back(q);
      }
    }
    // Find the next current-level literal to resolve on.
    while (!seen_[var(trail_[index - 1])]) --index;
    --index;
    p = trail_[index];
    seen_[var(p)] = 0;
    --counter;
    if (counter == 0) break;
    cur = var_data_[var(p)].reason;
    assert(cur != kNoCRef && "non-decision literal must have a reason");
  }
  out_learned[0] = neg(p);
  stats_.learned_literals += out_learned.size();

  // Remember every var marked seen (minimization removes literals from
  // out_learned but their seen flags must still be cleared afterwards).
  std::vector<Var> seen_vars;
  seen_vars.reserve(out_learned.size());
  for (Lit l : out_learned) seen_vars.push_back(var(l));

  minimize_learned(out_learned, out_chain);

  // Compute backtrack level = max level among non-UIP literals.
  out_level = 0;
  std::size_t max_i = 1;
  for (std::size_t i = 1; i < out_learned.size(); ++i) {
    std::uint32_t lvl = var_data_[var(out_learned[i])].level;
    if (lvl > out_level) {
      out_level = lvl;
      max_i = i;
    }
  }
  // Put a literal of the backtrack level at position 1 (second watch).
  if (out_learned.size() > 1) std::swap(out_learned[1], out_learned[max_i]);

  // Clear seen flags (including vars removed by minimization).
  for (Var v : seen_vars) seen_[v] = 0;
}

void Solver::minimize_learned(std::vector<Lit>& learned, ResolutionChain& chain) {
  // A literal l (other than the UIP) is removable when it has a reason
  // clause all of whose other literals are either in the learned clause or
  // assigned at level 0.  Removal is a resolution step; every step is
  // appended to `chain` so the proof stays exact.  Introduced level-0
  // literals are resolved away transitively (their reasons only contain
  // level-0 literals, so the closure terminates).
  std::vector<Lit> kept;
  kept.push_back(learned[0]);
  std::vector<std::uint32_t> to_resolve;  // trail positions, processed descending

  for (std::size_t i = 1; i < learned.size(); ++i) {
    Lit l = learned[i];
    Var v = var(l);
    CRef r = var_data_[v].reason;
    bool removable = false;
    if (r != kNoCRef) {
      removable = true;
      for (Lit q : cls(r)) {
        if (var(q) == v) continue;
        if (!seen_[var(q)] && var_data_[var(q)].level != 0) {
          removable = false;
          break;
        }
      }
    }
    if (removable) {
      to_resolve.push_back(var_data_[v].trail_pos);
      ++stats_.minimized_literals;
    } else {
      kept.push_back(l);
    }
  }
  if (to_resolve.empty()) {
    learned.swap(kept);
    return;
  }
  // seen_ still marks all original learned-clause vars; mark kept-only set
  // separately for the closure test.
  std::vector<Var> kept_vars;
  for (Lit l : kept) kept_vars.push_back(var(l));

  if (proof_) {
    std::vector<std::uint8_t> queued(num_vars(), 0);
    // kept vars never enter the worklist; removed/introduced ones do.
    for (std::uint32_t pos : to_resolve) queued[var(trail_[pos])] = 1;
    std::make_heap(to_resolve.begin(), to_resolve.end());
    while (!to_resolve.empty()) {
      std::pop_heap(to_resolve.begin(), to_resolve.end());
      std::uint32_t pos = to_resolve.back();
      to_resolve.pop_back();
      Lit assigned = trail_[pos];
      Var v = var(assigned);
      CRef r = var_data_[v].reason;
      assert(r != kNoCRef);
      chain.chain.push_back(cls(r).id());
      chain.pivots.push_back(v);
      for (Lit q : cls(r)) {
        Var qv = var(q);
        if (qv == v || queued[qv]) continue;
        bool in_kept = false;
        for (Var kv : kept_vars)
          if (kv == qv) {
            in_kept = true;
            break;
          }
        if (in_kept) continue;
        // Introduced literal: must be level 0 (criterion) or a clause var
        // that was removed (already queued).  Resolve it away too.
        assert(var_data_[qv].level == 0 || seen_[qv]);
        queued[qv] = 1;
        to_resolve.push_back(var_data_[qv].trail_pos);
        std::push_heap(to_resolve.begin(), to_resolve.end());
      }
    }
  }
  learned.swap(kept);
}

void Solver::analyze_final(CRef conflict) {
  // Derive the empty clause from a clause falsified at decision level 0.
  if (!proof_ || root_final_ != kNoClauseId) return;
  ResolutionChain chain;
  chain.chain.push_back(cls(conflict).id());
  std::vector<std::uint32_t> work;
  std::vector<std::uint8_t> queued(num_vars(), 0);
  for (Lit q : cls(conflict)) {
    Var v = var(q);
    assert(var_data_[v].level == 0);
    if (!queued[v]) {
      queued[v] = 1;
      work.push_back(var_data_[v].trail_pos);
    }
  }
  std::make_heap(work.begin(), work.end());
  while (!work.empty()) {
    std::pop_heap(work.begin(), work.end());
    std::uint32_t pos = work.back();
    work.pop_back();
    Var v = var(trail_[pos]);
    CRef r = var_data_[v].reason;
    assert(r != kNoCRef && "level-0 assignments always have reasons");
    chain.chain.push_back(cls(r).id());
    chain.pivots.push_back(v);
    for (Lit q : cls(r)) {
      Var qv = var(q);
      if (qv == v || queued[qv]) continue;
      queued[qv] = 1;
      work.push_back(var_data_[qv].trail_pos);
      std::push_heap(work.begin(), work.end());
    }
  }
  root_final_ = proof_->set_final(chain);
}

void Solver::analyze_assumption(Lit failed) {
  // Collect an inconsistent subset of the assumptions by walking the
  // implication graph from the falsified assumption backwards.  All
  // decisions on the trail at this point are assumptions.  The walk starts
  // at ~failed's trail position (nothing above it is reached) and never
  // marks a level-0 var: those always have reasons, so they add no
  // assumption.  It ends below the first assumption level, or as soon as
  // no marked var is left.
  failed_.clear();
  failed_.push_back(failed);
  const Var fv = var(failed);
  if (var_data_[fv].level == 0) return;
  seen_[fv] = 1;
  std::size_t marked = 1;
  const std::size_t bottom = trail_lim_[0];
  for (std::size_t i = var_data_[fv].trail_pos + 1;
       marked > 0 && i-- > bottom;) {
    Var v = var(trail_[i]);
    if (!seen_[v]) continue;
    seen_[v] = 0;
    --marked;
    CRef r = var_data_[v].reason;
    if (r == kNoCRef) {
      if (trail_[i] != failed) failed_.push_back(trail_[i]);
    } else {
      for (Lit q : cls(r)) {
        Var qv = var(q);
        if (qv == v || seen_[qv] || var_data_[qv].level == 0) continue;
        seen_[qv] = 1;
        ++marked;
      }
    }
  }
}

ClauseId Solver::assumption_unit(Lit a) {
  if (assumption_units_.size() <= a) assumption_units_.resize(a + 1, kNoClauseId);
  if (assumption_units_[a] == kNoClauseId) {
    const std::uint32_t label =
        var(a) < assumption_labels_.size() ? assumption_labels_[var(a)] : 0;
    assumption_units_[a] = proof_->add_original({&a, 1}, label);
  }
  return assumption_units_[a];
}

void Solver::log_assumption_final(Lit failed) {
  // `failed` is false under the assumptions decided before it.  Resolve the
  // reason of ~failed against trail reasons (the analyze_final worklist)
  // down to the failed-assumption clause (~failed OR ~d1 OR ... OR ~dm),
  // whose d_i are assumption decisions, then resolve that clause against
  // the assumption units (failed), (d1), ..., (dm): the empty clause.
  ResolutionChain fin;
  const CRef r = var_data_[var(failed)].reason;
  if (r == kNoCRef) {
    // ~failed is itself an assumption: the two units clash.
    fin.chain = {assumption_unit(failed), assumption_unit(neg(failed))};
    fin.pivots = {var(failed)};
  } else {
    ResolutionChain chain;
    const std::vector<Lit> clause = resolve_with_reasons(r, kNoLit, chain);
    fin.chain.push_back(log_derived(clause, std::move(chain)));
    for (Lit q : clause) {
      fin.chain.push_back(assumption_unit(neg(q)));
      fin.pivots.push_back(var(q));
    }
  }
  proof_->set_final(fin);
}

void Solver::backtrack(std::uint32_t level) {
  if (trail_lim_.size() <= level) return;
  std::uint32_t bound = trail_lim_[level];
  for (std::size_t i = trail_.size(); i > bound; --i) {
    Lit l = trail_[i - 1];
    Var v = var(l);
    phase_[v] = sign(l) ? 0 : 1;  // save polarity
    assign_[v] = LBool::kUndef;
    if (!heap_contains(v)) heap_insert(v);
  }
  trail_.resize(bound);
  trail_lim_.resize(level);
  qhead_ = bound;
}

Lit Solver::pick_branch() {
  while (!heap_.empty()) {
    Var v = heap_pop();
    if (assign_[v] == LBool::kUndef && !eliminated_[v])
      return mk_lit(v, phase_[v] == 0);  // saved phase (default negative)
  }
  return kNoLit;
}

void Solver::reduce_db() {
  ++stats_.db_reductions;
  if (obs::enabled()) {
    obs::counters().reduce_dbs.fetch_add(1, std::memory_order_relaxed);
    obs::emit("sat_reduce_db", {{"learned", learned_list_.size()},
                                {"arena_bytes", arena_bytes()}});
  }
  // Reduction candidates: live learned clauses outside the core tier.
  // Binary clauses are kept (their watchers are inline and dirt cheap) and
  // reason-locked clauses must survive.
  std::vector<CRef> cand;
  cand.reserve(learned_list_.size());
  for (CRef cr : learned_list_) {
    Cls c = cls(cr);
    if (c.deleted() || c.size() <= 2 || c.lbd() <= kCoreLbd) continue;
    if (locked(cr)) continue;
    cand.push_back(cr);
  }
  // Worst first: local tier (LBD > kTier2Lbd) strictly before tier2, then
  // higher LBD, then lower activity.  stable_sort on exact keys keeps the
  // removal set a pure function of the search history (determinism).
  std::stable_sort(cand.begin(), cand.end(), [&](CRef a, CRef b) {
    Cls ca = cls(a), cb = cls(b);
    bool local_a = ca.lbd() > kTier2Lbd, local_b = cb.lbd() > kTier2Lbd;
    if (local_a != local_b) return local_a;
    if (ca.lbd() != cb.lbd()) return ca.lbd() > cb.lbd();
    return ca.activity() < cb.activity();
  });
  std::size_t target = cand.size() / 2;
  for (std::size_t i = 0; i < target; ++i) delete_clause(cand[i]);
  learned_list_.erase(
      std::remove_if(learned_list_.begin(), learned_list_.end(),
                     [&](CRef cr) { return cls(cr).deleted(); }),
      learned_list_.end());
}

void Solver::maybe_simplify() {
  // Only at decision level 0 and only when the top-level trail grew.  The
  // sweep is O(arena), so it must be amortized; it fires when either
  //  - enough top-level facts accumulated that the expected garbage is
  //    worth gc_frac_ of the arena (each unit — e.g. an activation-literal
  //    retirement — satisfies clauses; 16 words is a coarse per-unit
  //    estimate), the trigger that keeps propagation-light incremental
  //    sessions (PDR retiring lemmas) lean, or
  //  - enough propagation work has passed to pay for a background sweep.
  if (!trail_lim_.empty() || trail_.size() <= simplify_trail_) return;
  const double growth = static_cast<double>(trail_.size() - simplify_trail_);
  const bool by_units = growth * 16.0 >= gc_frac_ * static_cast<double>(arena_.size());
  const bool by_props =
      (stats_.propagations - simplify_props_) * 4 >= arena_.size();
  if (!by_units && !by_props) return;
  remove_satisfied();
  simplify_trail_ = trail_.size();
  simplify_props_ = stats_.propagations;
}

void Solver::remove_satisfied() {
  // Physically drop clauses satisfied at decision level 0: they are
  // satisfied in every extension, so removal preserves equivalence (same
  // argument as the add_clause skip).  This is what reclaims clauses that
  // incremental engines retire via activation-literal units.  Reason-locked
  // clauses stay (proof finalization needs level-0 reasons).
  assert(trail_lim_.empty());
  for (CRef cr = 0; cr < static_cast<CRef>(arena_.size());) {
    Cls c = cls(cr);
    const std::uint32_t span = kHeaderWords + c.size();
    if (!c.deleted() && !locked(cr)) {
      for (Lit l : c) {
        if (value(l) == LBool::kTrue) {
          delete_clause(cr);
          ++stats_.removed_satisfied;
          break;
        }
      }
    }
    cr += span;
  }
  learned_list_.erase(
      std::remove_if(learned_list_.begin(), learned_list_.end(),
                     [&](CRef cr) { return cls(cr).deleted(); }),
      learned_list_.end());
  maybe_gc();
}

void Solver::maybe_gc() {
  if (wasted_ == 0) return;
  if (static_cast<double>(wasted_) <
      gc_frac_ * static_cast<double>(arena_.size()))
    return;
  garbage_collect();
}

void Solver::garbage_collect() {
  // Compact the arena: copy live clauses in order, leave a forwarding
  // pointer (reloc flag + new CRef in the id slot) in the old storage, then
  // rewrite every CRef holder.  ClauseIds move with the clause — the proof
  // log never notices a collection.
  std::vector<std::uint32_t> to;
  to.reserve(arena_.size() - wasted_);
  for (CRef cr = 0; cr < static_cast<CRef>(arena_.size());) {
    const std::uint32_t w0 = arena_[cr];
    const std::uint32_t span = kHeaderWords + (w0 >> kFlagBits);
    if (!(w0 & kDeletedFlag)) {
      const CRef ncr = static_cast<CRef>(to.size());
      to.insert(to.end(), arena_.begin() + cr, arena_.begin() + cr + span);
      arena_[cr] = w0 | kRelocFlag;
      arena_[cr + 1] = ncr;  // forwarding pointer (old id copy is dead)
    }
    cr += span;
  }
  auto reloc = [&](CRef& cr) {
    if (cr == kNoCRef) return;
    assert((arena_[cr] & kRelocFlag) != 0 && "dangling CRef into deleted clause");
    cr = arena_[cr + 1];
  };
  for (auto& wl : watches_)
    for (Watcher& w : wl) reloc(w.cref);
  for (auto& bl : bin_watches_)
    for (BinWatcher& w : bl) reloc(w.cr);
  // Only reasons of currently-assigned vars are live (stale reasons of
  // unassigned vars must not be chased — they may point anywhere).
  for (Lit l : trail_) reloc(var_data_[var(l)].reason);
  for (CRef& cr : learned_list_) reloc(cr);
  reloc(root_conflict_);
  stats_.wasted_bytes_reclaimed +=
      (arena_.size() - to.size()) * sizeof(std::uint32_t);
  ++stats_.gc_runs;
  if (obs::enabled()) {
    obs::counters().gc_runs.fetch_add(1, std::memory_order_relaxed);
    obs::emit("sat_gc",
              {{"reclaimed_bytes",
                (arena_.size() - to.size()) * sizeof(std::uint32_t)},
               {"arena_bytes", to.size() * sizeof(std::uint32_t)}});
  }
  arena_.swap(to);
#ifdef ITPSEQ_CHECKED
  ++arena_epoch_;  // compaction moved every clause
#endif
  wasted_ = 0;
}

#ifdef ITPSEQ_CHECKED
std::uint32_t Solver::debug_stale_view_probe() {
  // Ternary clauses so both add_clause calls definitely hit the arena
  // (units only enqueue).
  std::vector<Lit> c1, c2;
  for (int i = 0; i < 3; ++i) c1.push_back(mk_lit(new_var(), false));
  for (int i = 0; i < 3; ++i) c2.push_back(mk_lit(new_var(), false));
  add_clause(c1);
  Cls stale = cls(0);  // view of c1 at the current epoch
  add_clause(c2);      // allocates: bumps the epoch
  // itpseq-lint: allow(L1) deliberate: this probe EXISTS to trip the checked-build epoch assert
  return stale.size();  // must abort under ITPSEQ_CHECKED
}
#endif

double Solver::luby(std::uint64_t i) const {
  // Luby sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
  std::uint64_t size = 1, seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) >> 1;
    --seq;
    i = i % size;
  }
  return static_cast<double>(1ull << seq);
}

Status Solver::solve(const Budget& budget) { return solve_assuming({}, budget); }

Status Solver::solve_assuming(const std::vector<Lit>& assumptions,
                              const Budget& budget) {
  ++solve_calls_;
  assumptions_ = assumptions;
  failed_.clear();
  backtrack(0);  // a previous kUnknown may have left the search mid-tree
  // Freeze contract: assumption vars must never be eliminated.  Freeze them
  // now and restore any that an earlier inprocessing round already
  // eliminated — BVE would otherwise silently mis-solve this query.
  for (Lit a : assumptions_) {
    Var v = var(a);
    if (v >= num_vars())
      throw std::invalid_argument("solve_assuming: unknown var");
    frozen_[v] = 1;
    if (eliminated_[v]) restore_var(v);
    assert(!eliminated_[v] && "assumed variable left eliminated");
  }
  auto start = std::chrono::steady_clock::now();
  auto cancelled = [&] {
    return budget.cancel != nullptr &&
           budget.cancel->load(std::memory_order_relaxed);
  };
  auto out_of_time = [&] {
    if (cancelled()) return true;
    // Hard memory pressure ends the search exactly like an exhausted clock:
    // kUnknown with whatever stats accumulated, before the allocator kills
    // the process.  limited() is one relaxed load, so unlimited runs (the
    // default) pay nothing.
    util::MemoryBudget& mb = util::MemoryBudget::instance();
    if (mb.limited()) {
      mb.poll();
      if (mb.hard()) return true;
    }
    if (budget.seconds < 0) return false;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
               .count() > budget.seconds;
  };
  if (!ok_) {
    if (proof_ && root_final_ == kNoClauseId && root_conflict_ != kNoCRef) {
      // Flush pending units so reasons exist, then finalize.
      propagate();  // cannot make things worse at level 0
      analyze_final(root_conflict_);
    }
    // The level-0 refutation answers this query too.
    if (proof_ && root_final_ != kNoClauseId) proof_->reuse_final(root_final_);
    return Status::kUnsat;
  }
  if (budget.seconds == 0.0 || cancelled()) {
    // An exhausted wall-clock budget (or a cancelled run): do not start the
    // search at all.
    return Status::kUnknown;
  }
  {
    // Same entry check for the memory budget, so a run already over the
    // limit (e.g. --mem-limit below the resident baseline) bails before
    // building any search state.
    util::MemoryBudget& mb = util::MemoryBudget::instance();
    if (mb.limited()) {
      mb.poll();
      if (mb.hard()) return Status::kUnknown;
    }
  }

  // Telemetry: this solve's contribution to the global sampler counters is
  // pushed as deltas — periodically at the sample points below and, via the
  // scope guard, on every exit path.  All of it is behind obs::enabled().
  struct ObsWindow {
    std::uint64_t conflicts, propagations, decisions;
  } obs_last{stats_.conflicts, stats_.propagations, stats_.decisions};
  auto obs_flush = [&] {
    if (!obs::enabled()) return;
    obs::Counters& c = obs::counters();
    c.conflicts.fetch_add(stats_.conflicts - obs_last.conflicts,
                          std::memory_order_relaxed);
    c.propagations.fetch_add(stats_.propagations - obs_last.propagations,
                             std::memory_order_relaxed);
    c.decisions.fetch_add(stats_.decisions - obs_last.decisions,
                          std::memory_order_relaxed);
    obs_last = {stats_.conflicts, stats_.propagations, stats_.decisions};
  };
  struct ObsFlushGuard {
    decltype(obs_flush)& flush;
    ~ObsFlushGuard() { flush(); }
  } obs_guard{obs_flush};

  std::int64_t conflict_limit = budget.conflicts;
  std::uint64_t restart_count = 0;
  std::uint64_t conflicts_until_restart =
      static_cast<std::uint64_t>(luby(restart_count) * kRestartBase);
  std::uint64_t conflicts_this_restart = 0;
  max_learned_ =
      reduce_base_forced_
          ? reduce_base_
          : std::max<double>(reduce_base_,
                             static_cast<double>(num_input_clauses_) / 3.0);

  std::vector<Lit> learned;
  ResolutionChain chain;

  // Incremental entry point (level 0): fold top-level facts accumulated
  // since the last sweep into the database — drop satisfied clauses and
  // maybe compact the arena.  Amortized against propagation work because
  // the sweep is O(arena).
  maybe_simplify();
  // Inprocessing round (subsumption/BVE/vivification/probing) if one is paid
  // for by reuse or by search; may refute the formula outright.
  if (!maybe_inprocess(/*at_entry=*/true)) return Status::kUnsat;

  while (true) {
    const std::uint64_t props_before = stats_.propagations;
    CRef conflict = propagate();
    if (!trail_lim_.empty() && trail_lim_.size() <= assumptions_.size())
      stats_.assumption_propagations += stats_.propagations - props_before;
    if (conflict != kNoCRef) {
      ++stats_.conflicts;
      ++conflicts_this_restart;
      if (trail_lim_.empty()) {
        analyze_final(conflict);
        ok_ = false;
        return Status::kUnsat;
      }
      std::uint32_t bt_level = 0;
      analyze(conflict, learned, bt_level, chain);
      backtrack(bt_level);

      ClauseId id = kNoClauseId;
      if (proof_) id = proof_->add_learned(learned, chain);  // analyze reuses chain

      // Glue computed at learning time (post-minimization, pre-backtrack
      // levels are still those of the conflict) drives the retention tier.
      std::uint32_t lbd = compute_lbd(learned);
      ++stats_.glue_hist[std::min<std::uint32_t>(lbd, 8) - 1];
      if (lbd <= kCoreLbd)
        ++stats_.learned_core;
      else if (lbd <= kTier2Lbd)
        ++stats_.learned_mid;
      else
        ++stats_.learned_local;

      CRef cr = alloc_clause(learned, id, /*learned=*/true, lbd);
      if (learned.size() > 1) {
        cls(cr).set_activity(static_cast<float>(clause_inc_));
        learned_list_.push_back(cr);
        attach(cr);
      }
      // Unit learned clauses are stored unattached so they can serve as the
      // reason of their (permanent, level-0) assignment.
      enqueue(learned[0], cr);
      decay_var_activity();
      decay_clause_activity();

      if (conflict_limit >= 0 &&
          stats_.conflicts >= static_cast<std::uint64_t>(conflict_limit)) {
        backtrack(0);
        return Status::kUnknown;
      }
      // The cancellation token is polled on every conflict (one relaxed
      // atomic load); the wall clock only every 64 conflicts — a syscall on
      // the conflict path is measurable, and 64 conflicts of extra latency
      // are well inside the budget granularity engines care about.
      if (cancelled() || ((stats_.conflicts & 63) == 0 && out_of_time())) {
        backtrack(0);
        return Status::kUnknown;
      }
      // Conflict-rate sample: one event every 4096 conflicts makes long
      // queries visible mid-flight without touching the per-conflict path
      // beyond this masked check.
      if ((stats_.conflicts & 4095) == 0 && obs::enabled()) {
        obs::emit("sat_sample", {{"conflicts", stats_.conflicts},
                                 {"propagations", stats_.propagations},
                                 {"decisions", stats_.decisions},
                                 {"learned", learned_list_.size()},
                                 {"arena_bytes", arena_bytes()}});
        obs_flush();
      }
    } else {
      if (conflicts_this_restart >= conflicts_until_restart) {
        ++stats_.restarts;
        if (obs::enabled()) {
          obs::counters().restarts.fetch_add(1, std::memory_order_relaxed);
          obs::emit("sat_restart", {{"conflicts", stats_.conflicts}});
        }
        ++restart_count;
        conflicts_this_restart = 0;
        conflicts_until_restart =
            static_cast<std::uint64_t>(luby(restart_count) * kRestartBase);
        backtrack(0);
        maybe_simplify();
        if (!maybe_inprocess(/*at_entry=*/false)) return Status::kUnsat;
        continue;
      }
      // Rung 1 of the memory-degradation ladder (see util/mem_budget.hpp):
      // under soft pressure, shed ballast once — stop inprocessing (its
      // occurrence index is the largest transient allocation), clamp the
      // learnt cap, and reduce+compact immediately.  Both calls are safe at
      // non-zero decision level (locked clauses are skipped).
      if (!mem_degraded_ && util::MemoryBudget::instance().soft()) {
        mem_degraded_ = true;
        inprocess_on_ = false;
        max_learned_ = std::min(max_learned_, 2000.0);
        reduce_db();
        garbage_collect();
      }
      if (static_cast<double>(learned_list_.size()) >= max_learned_) {
        reduce_db();
        maybe_gc();
        max_learned_ *= 1.3;
      }
      // Assumptions are decided first, in order, one per decision level.
      Lit next = kNoLit;
      while (trail_lim_.size() < assumptions_.size()) {
        Lit a = assumptions_[trail_lim_.size()];
        if (value(a) == LBool::kTrue) {
          // Already implied: open a dummy level to keep positions aligned.
          ++stats_.assumption_levels;
          trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size()));
          continue;
        }
        if (value(a) == LBool::kFalse) {
          analyze_assumption(a);
          if (proof_) log_assumption_final(a);
          backtrack(0);
          return Status::kUnsat;  // unsat under assumptions; ok() stays true
        }
        next = a;
        ++stats_.assumption_levels;
        break;
      }
      if (next == kNoLit) next = pick_branch();
      if (next == kNoLit) {
        model_.assign(assign_.begin(), assign_.end());
        // BVE left eliminated vars unassigned; their values are
        // reconstructed when first read (extend_pending_model), so callers
        // read a total model of the *original* formula.
        model_pending_ = !elim_trail_.empty();
        backtrack(0);
        return Status::kSat;
      }
      if ((stats_.decisions & 1023) == 0 && out_of_time()) {
        backtrack(0);
        return Status::kUnknown;
      }
      ++stats_.decisions;
      trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size()));
      enqueue(next, kNoCRef);
    }
  }
}

bool Solver::verify_model() const {
  extend_pending_model();
  for (CRef cr = 0; cr < static_cast<CRef>(arena_.size());) {
    const Cls c = cls(cr);
    cr += kHeaderWords + c.size();
    if (c.learned() || c.deleted()) continue;
    bool sat = false;
    for (std::uint32_t i = 0; i < c.size(); ++i)
      if (lbool_xor(model_[var(c[i])], sign(c[i])) == LBool::kTrue) {
        sat = true;
        break;
      }
    if (!sat && c.size() != 0) return false;
  }
  return true;
}

// --- activity heap ---------------------------------------------------------

void Solver::heap_insert(Var v) {
  heap_pos_[v] = heap_.size();
  heap_.push_back(v);
  heap_up(heap_pos_[v]);
}

Var Solver::heap_pop() {
  Var top = heap_[0];
  heap_pos_[top] = kNoPos;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_pos_[heap_[0]] = 0;
    heap_down(0);
  }
  return top;
}

void Solver::heap_up(std::size_t i) {
  Var v = heap_[i];
  while (i > 0) {
    std::size_t parent = (i - 1) / 2;
    if (activity_[heap_[parent]] >= activity_[v]) break;
    heap_[i] = heap_[parent];
    heap_pos_[heap_[i]] = i;
    i = parent;
  }
  heap_[i] = v;
  heap_pos_[v] = i;
}

void Solver::heap_down(std::size_t i) {
  Var v = heap_[i];
  while (true) {
    std::size_t left = 2 * i + 1;
    if (left >= heap_.size()) break;
    std::size_t right = left + 1;
    std::size_t best = (right < heap_.size() &&
                        activity_[heap_[right]] > activity_[heap_[left]])
                           ? right
                           : left;
    if (activity_[heap_[best]] <= activity_[v]) break;
    heap_[i] = heap_[best];
    heap_pos_[heap_[i]] = i;
    i = best;
  }
  heap_[i] = v;
  heap_pos_[v] = i;
}

}  // namespace itpseq::sat
