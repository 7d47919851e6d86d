// inprocess.cpp — in-solver simplification between searches.
//
// A round (Solver::inprocess) runs at solve entry or at a level-0 restart
// when Solver::maybe_inprocess finds it paid for (the rule is in the
// solver.hpp header).  Phases, in order:
//
//   1. level-0 propagation to fixpoint + satisfied-clause removal;
//   2. subsumption + self-subsuming resolution over a transient,
//      signature-accelerated occurrence index over the clause arena;
//   3. bounded variable elimination (BVE) with model reconstruction: a var
//      is eliminated when its non-tautological input resolvents do not
//      outnumber the clauses they replace; the replaced clauses are
//      recorded so kSat models extend back over the var;
//   4. clause vivification: re-propagate a clause's negation literal by
//      literal and strengthen it from the resulting conflict/implication;
//   5. failed-literal probing with on-the-fly hyper-binary resolution (the
//      derived binaries feed the dedicated binary-watch path).
//
// Proof safety: every rewrite is a logged resolution.  A strengthened
// clause D' = D \ {~l} gets chain [D, C] with pivot var(l) (valid because
// C \ {l} is a subset of D); each BVE resolvent gets chain [C+, C-] with
// pivot v; vivification/probing derivations resolve the starting clause
// against trail reasons in descending trail order (the analyze_final
// worklist pattern), which is exactly a trivial resolution chain.  The
// Proof object retains every clause ever logged, so deleting the solver
// side of a clause never invalidates recorded chains.
//
// Mutation safety: the occurrence index is built over live, *unsatisfied*
// clauses only.  At level 0 every reason-locked clause is satisfied by its
// implied literal, so locked clauses can never be rewritten or deleted by
// the index phases.  Deleting/strengthening is sound against the snapshot
// going stale (integrations may enqueue units that satisfy indexed
// clauses): subsumption and resolution are set-level arguments, independent
// of the current assignment.  Candidate occurrence lists are snapshotted
// before mutation loops (iterating a list the loop body mutates reads a
// stale index); dead entries are filtered lazily.
#include <algorithm>
#include <cassert>
#include <vector>

#include "obs/trace.hpp"
#include "sat/solver.hpp"
#include "util/fault.hpp"
#include "util/mem_budget.hpp"


namespace itpseq::sat {

namespace {
constexpr int kBveGrow = 0;             // allowed clause-count growth per var
constexpr std::size_t kBveMaxOcc = 20;  // skip vars occurring more often
constexpr std::uint64_t kSubsumeTicks = 4'000'000;  // occ scans per round
constexpr std::size_t kVivifyMaxRound = 256;        // clauses per round
constexpr std::size_t kProbeMaxRound = 384;         // probes per round
constexpr std::size_t kHbrPerProbe = 16;            // binaries per probe

/// Resolve two sorted clauses on v; false iff the resolvent is tautological.
bool resolve_sorted(const std::vector<Lit>& a, const std::vector<Lit>& b,
                    Var v, std::vector<Lit>& out) {
  out.clear();
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    Lit x = a[i], y = b[j];
    if (var(x) == v) {
      ++i;
      continue;
    }
    if (var(y) == v) {
      ++j;
      continue;
    }
    if (var(x) == var(y)) {
      if (x != y) return false;  // complementary pair: tautology
      out.push_back(x);
      ++i;
      ++j;
    } else if (x < y) {
      out.push_back(x);
      ++i;
    } else {
      out.push_back(y);
      ++j;
    }
  }
  for (; i < a.size(); ++i)
    if (var(a[i]) != v) out.push_back(a[i]);
  for (; j < b.size(); ++j)
    if (var(b[j]) != v) out.push_back(b[j]);
  return true;
}

/// small \ {skip} is a subset of big?  Both sorted.
bool sorted_subset_except(const std::vector<Lit>& small,
                          const std::vector<Lit>& big, Lit skip) {
  std::size_t j = 0;
  for (Lit l : small) {
    if (l == skip) continue;
    while (j < big.size() && big[j] < l) ++j;
    if (j >= big.size() || big[j] != l) return false;
    ++j;
  }
  return true;
}
}  // namespace

/// Transient occurrence index over the live, unsatisfied clauses.  Entries
/// are parallel arrays; occ maps literal -> entry indices.  Killed entries
/// stay in occ lists and are filtered lazily (every consumer checks dead).
struct Solver::OccIndex {
  std::vector<CRef> cref;
  std::vector<std::vector<Lit>> lits;  // sorted literal sets
  std::vector<std::uint64_t> sig;      // Bloom signature over (lit & 63)
  std::vector<std::uint8_t> learned;
  std::vector<std::uint8_t> dead;
  std::vector<std::vector<std::uint32_t>> occ;

  std::size_t size() const { return cref.size(); }
  static std::uint64_t sig_of(const std::vector<Lit>& ls) {
    std::uint64_t s = 0;
    for (Lit l : ls) s |= 1ull << (l & 63);
    return s;
  }
  void add(CRef cr, std::vector<Lit> ls, bool lrn) {
    const std::uint32_t i = static_cast<std::uint32_t>(cref.size());
    cref.push_back(cr);
    sig.push_back(sig_of(ls));
    learned.push_back(lrn ? 1 : 0);
    dead.push_back(0);
    for (Lit l : ls) occ[l].push_back(i);
    lits.push_back(std::move(ls));
  }
  void kill(std::uint32_t i) { dead[i] = 1; }
};

ClauseId Solver::log_derived(const std::vector<Lit>& lits,
                             ResolutionChain&& chain) {
  if (!proof_) return kNoClauseId;
  assert(!chain.chain.empty());
  // A chain of one clause performed no resolution: the "derivation" is the
  // clause itself — reuse its id instead of logging a duplicate.
  if (chain.chain.size() == 1) return chain.chain[0];
  if (lits.empty()) {
    if (root_final_ == kNoClauseId) root_final_ = proof_->set_final(chain);
    return root_final_;
  }
  return proof_->add_learned(lits, chain);
}

Solver::CRef Solver::integrate_clause(std::vector<Lit> lits, ClauseId id,
                                      bool learned, std::uint32_t lbd) {
  assert(trail_lim_.empty());
  assert(!lits.empty());
#ifdef ITPSEQ_CHECKED
  // Freeze contract: a clause entering the live database must not mention a
  // BVE-eliminated variable — propagation could assign it behind model
  // reconstruction's back.  Callers restore (add_clause) or skip
  // (inprocessing phases iterate non-eliminated vars) before getting here.
  for (Lit l : lits)
    ITPSEQ_CHECK(!eliminated_[var(l)],
                 "clause integrated while mentioning an eliminated variable");
#endif
  for (Lit l : lits)
    if (value(l) == LBool::kTrue) return kNoCRef;  // satisfied at level 0
  const std::size_t num_free = watch_order(lits);
  CRef cr = alloc_clause(lits, id, learned, lbd);
  if (num_free == 0) {  // all literals false at level 0: root conflict
    if (ok_) {
      ok_ = false;
      root_conflict_ = cr;
    }
    return cr;
  }
  if (learned && lits.size() > 1) {
    cls(cr).set_activity(static_cast<float>(clause_inc_));
    learned_list_.push_back(cr);
  }
  if (num_free == 1) {
    // Unit under the level-0 assignment: enqueue with this clause as the
    // (permanent) reason; like learned units it stays unattached.
    enqueue(lits[0], cr);
    return cr;
  }
  attach(cr);
  return cr;
}

bool Solver::install_derived(std::vector<Lit> lits, ResolutionChain&& chain,
                             bool learned, std::uint32_t lbd) {
  ClauseId id = log_derived(lits, std::move(chain));
  if (lits.empty()) {
    ok_ = false;
    return false;
  }
  integrate_clause(std::move(lits), id, learned, lbd);
  return ok_;
}

std::vector<Lit> Solver::resolve_with_reasons(CRef start, Lit keep,
                                              ResolutionChain& chain) {
  // Resolve away every false literal that has a reason, processing by
  // descending trail position so each reason only introduces literals
  // assigned earlier — the left-to-right trivial chain analyze_final and
  // minimize_learned use.  Literals without a reason (decisions, unassigned
  // literals) and `keep` survive into the result.
  std::vector<Lit> kept;
  std::vector<Var> touched;
  std::vector<std::uint32_t> work;  // trail positions, max-heap
  auto visit = [&](Lit q) {
    Var v = var(q);
    if (seen_[v]) return;
    seen_[v] = 1;
    touched.push_back(v);
    if (q != keep && value(q) == LBool::kFalse &&
        var_data_[v].reason != kNoCRef) {
      work.push_back(var_data_[v].trail_pos);
      std::push_heap(work.begin(), work.end());
    } else {
      kept.push_back(q);
    }
  };
  {
    Cls c = cls(start);
    if (proof_) chain.chain.push_back(c.id());
    for (Lit q : c) visit(q);
  }
  while (!work.empty()) {
    std::pop_heap(work.begin(), work.end());
    std::uint32_t pos = work.back();
    work.pop_back();
    Var v = var(trail_[pos]);
    CRef r = var_data_[v].reason;
    assert(r != kNoCRef);
    Cls rc = cls(r);
    if (proof_) {
      chain.chain.push_back(rc.id());
      chain.pivots.push_back(v);
    }
    for (Lit q : rc)
      if (var(q) != v) visit(q);
  }
  for (Var v : touched) seen_[v] = 0;
  return kept;
}

void Solver::restore_var(Var v) {
  assert(trail_lim_.empty());
  assert(eliminated_[v]);
  extend_pending_model();  // it reads the records changed below
  for (std::size_t i = elim_trail_.size(); i-- > 0;) {
    ElimRecord& rec = elim_trail_[i];
    if (!rec.active || rec.v != v) continue;
    rec.active = false;
    eliminated_[v] = 0;
    frozen_[v] = 1;  // the caller cares about v: never eliminate it again
    ++stats_.vars_restored;
    if (!heap_contains(v)) heap_insert(v);
    // Cascade: the recorded clauses may mention vars eliminated *after* v
    // (those were still live when v went away).  Reinstalling such a clause
    // would break the invariant that no live clause mentions an eliminated
    // var — propagation could assign the var behind reconstruction's back —
    // so restore the dependents first.  (elim_trail_ entries are only ever
    // deactivated, never erased, so recursion is safe.)
    for (const ElimClause& ec : rec.clauses)
      for (Lit l : ec.lits)
        // itpseq-lint: allow(L4) the recursion only deactivates other trail records; rec.clauses is never resized (see above)
        if (eliminated_[var(l)]) restore_var(var(l));
    // Re-install the recorded clauses under their original proof ids — no
    // new proof steps; the formula is back to (an equivalent of) what the
    // caller built.
    for (ElimClause& ec : rec.clauses)
      integrate_clause(std::move(ec.lits), ec.id, /*learned=*/false, 0);
    rec.clauses.clear();
    return;
  }
  assert(false && "restore_var: no active elimination record");
}

void Solver::extend_model_over_eliminated(std::vector<LBool>& model) const {
  // Reverse elimination order: when v's record is processed, every var
  // eliminated after v (which may appear in v's recorded clauses) already
  // has its value.  Default v to false; only clauses containing v
  // positively can then be violated, and flipping v satisfies them (every
  // clause with ~v is satisfied elsewhere — its resolvents against the
  // violated clause are satisfied by the model, and the violated clause
  // contributes no true literal to them).
  for (auto it = elim_trail_.rbegin(); it != elim_trail_.rend(); ++it) {
    if (!it->active) continue;
    Var v = it->v;
    model[v] = LBool::kFalse;
    for (const ElimClause& ec : it->clauses) {
      bool sat = false;
      Lit vlit = kNoLit;
      for (Lit l : ec.lits) {
        if (var(l) == v) {
          vlit = l;
          continue;
        }
        if (lbool_xor(model[var(l)], sign(l)) == LBool::kTrue) {
          sat = true;
          break;
        }
      }
      if (!sat && vlit != kNoLit && !sign(vlit)) {
        model[v] = LBool::kTrue;
        break;
      }
    }
  }
}

bool Solver::maybe_inprocess(bool at_entry) {
  if (!ok_) return false;
  if (!inprocess_on_ || arena_.empty()) return true;
  assert(trail_lim_.empty());
  // A round is paid for by reuse (the first round, at the second solve's
  // entry) or by search (interval conflicts since the last round, counted
  // from creation before the first).
  const bool by_reuse =
      at_entry && stats_.inprocess_rounds == 0 && solve_calls_ >= 2;
  const bool by_search =
      stats_.conflicts - last_inprocess_conflicts_ >= inprocess_interval_;
  if (!by_reuse && !by_search) return true;
  {
    // Under memory pressure an inprocessing round is the wrong move: the
    // occurrence index is the solver's largest transient allocation.  Skip
    // rounds from the soft rung of the ladder up (see util/mem_budget.hpp).
    util::MemoryBudget& mb = util::MemoryBudget::instance();
    if (mb.limited()) {
      mb.poll();
      if (mb.soft()) return true;
    }
  }
  bool alive = inprocess();
  if (!alive && proof_ && root_final_ == kNoClauseId && root_conflict_ != kNoCRef)
    analyze_final(root_conflict_);
  return alive;
}

bool Solver::inprocess() {
  extend_pending_model();  // BVE below appends to the records it reads
  ITPSEQ_FAULT_POINT("sat.inprocess");
  assert(trail_lim_.empty());
  last_inprocess_conflicts_ = stats_.conflicts;
  ++stats_.inprocess_rounds;
  const SolverStats before = stats_;
  obs::Span span("inprocess", {{"arena_bytes", arena_bytes()}});
  if (CRef confl = propagate(); confl != kNoCRef) {
    analyze_final(confl);
    ok_ = false;
    return false;
  }
  remove_satisfied();
  if (!inprocess_subsume_eliminate()) return false;
  // The occurrence index is gone; prune deleted learned clauses and compact
  // before the probing phases (they collect CRefs).
  learned_list_.erase(
      std::remove_if(learned_list_.begin(), learned_list_.end(),
                     [&](CRef cr) { return cls(cr).deleted(); }),
      learned_list_.end());
  maybe_gc();
  if (!inprocess_vivify()) return false;
  if (!inprocess_probe()) return false;
  if (CRef confl = propagate(); confl != kNoCRef) {
    analyze_final(confl);
    ok_ = false;
    return false;
  }
  remove_satisfied();  // fold derived units in (also prunes learned_list_)
  if (obs::enabled()) {
    obs::counters().inprocess_rounds.fetch_add(1, std::memory_order_relaxed);
    obs::emit("sat_inprocess",
              {{"subsumed", stats_.subsumed - before.subsumed},
               {"strengthened", stats_.strengthened - before.strengthened},
               {"vars_eliminated",
                stats_.vars_eliminated - before.vars_eliminated},
               {"vivified", stats_.vivified - before.vivified},
               {"failed_literals",
                stats_.failed_literals - before.failed_literals},
               {"hyper_binaries", stats_.hyper_binaries - before.hyper_binaries},
               {"arena_bytes", arena_bytes()}});
  }
#ifdef ITPSEQ_CHECKED
  checked_audit_freeze();
#endif
  return true;
}

#ifdef ITPSEQ_CHECKED
// End-of-inprocess invariant audit (ITPSEQ_CHECKED builds only): one O(vars)
// pass over the freeze/elimination state and one O(arena) walk over the
// clause store.  Catches any phase that eliminated a frozen variable or
// left a live clause mentioning an eliminated one — the two ways BVE model
// reconstruction (and with it every published certificate) goes wrong.
void Solver::checked_audit_freeze() const {
  for (Var v = 0; v < static_cast<Var>(num_vars()); ++v)
    ITPSEQ_CHECK(!(frozen_[v] && eliminated_[v]),
                 "frozen variable is eliminated after an inprocessing round");
  for (CRef cr = 0; cr < static_cast<CRef>(arena_.size());) {
    const std::uint32_t w0 = arena_[cr];
    const std::uint32_t sz = w0 >> kFlagBits;
    if (!(w0 & kDeletedFlag))
      for (std::uint32_t i = 0; i < sz; ++i)
        ITPSEQ_CHECK(
            !eliminated_[var(arena_[cr + kHeaderWords + i])],
            "live clause mentions an eliminated variable after inprocessing");
    cr += kHeaderWords + sz;
  }
}
#endif

bool Solver::inprocess_subsume_eliminate() {
  assert(ok_ && trail_lim_.empty());
  OccIndex ix;
  ix.occ.resize(2 * num_vars());
  for (CRef cr = 0; cr < static_cast<CRef>(arena_.size());) {
    Cls c = cls(cr);
    const std::uint32_t span = kHeaderWords + c.size();
    if (!c.deleted() && c.size() >= 2) {
      bool satv = false;
      for (Lit l : c)
        if (value(l) == LBool::kTrue) {
          satv = true;
          break;
        }
      if (!satv) {
        std::vector<Lit> ls(c.begin(), c.end());
        std::sort(ls.begin(), ls.end());
        ix.add(cr, std::move(ls), c.learned());
      }
    }
    cr += span;
  }
  std::uint64_t ticks = 0;
  for (int iter = 0; iter < 2; ++iter) {
    const std::uint64_t before =
        stats_.subsumed + stats_.strengthened + stats_.vars_eliminated;
    // Entries appended during the pass (strengthened clauses, resolvents)
    // are processed too: ix.size() is re-read each iteration.
    for (std::size_t i = 0; i < ix.size() && ticks < kSubsumeTicks; ++i) {
      if (ix.dead[i]) continue;
      if (!subsume_with(ix, i, ticks)) return false;
    }
    for (Var v = 0;
         v < static_cast<Var>(num_vars()) && ticks < kSubsumeTicks; ++v) {
      ticks += 8;  // baseline cost of considering a variable
      if (!try_eliminate(ix, v)) return false;
    }
    if (stats_.subsumed + stats_.strengthened + stats_.vars_eliminated ==
        before)
      break;
  }
  return true;
}

void Solver::promote_to_input(CRef cr) {
  Cls c = cls(cr);
  if (!c.learned()) return;
  c.clear_learned();
  learned_list_.erase(
      std::remove(learned_list_.begin(), learned_list_.end(), cr),
      learned_list_.end());
}

bool Solver::subsume_with(OccIndex& ix, std::size_t i, std::uint64_t& ticks) {
  // Clause i as the subsumer: backward subsumption (C ⊆ D drops D) and
  // self-subsuming resolution (C \ {l} ⊆ D with ~l ∈ D strengthens D).
  // Copy the subsumer: strengthen_in_index appends to ix.lits, which can
  // reallocate — a reference would go stale mid-loop.
  const std::vector<Lit> c = ix.lits[i];
  const std::uint64_t csig = ix.sig[i];
  Lit best = c[0];
  for (Lit l : c)
    if (ix.occ[l].size() < ix.occ[best].size()) best = l;
  {
    // Snapshot the candidate list; the loop mutates occurrence state.
    const std::vector<std::uint32_t> cands = ix.occ[best];
    for (std::uint32_t di : cands) {
      ++ticks;
      if (di == i || ix.dead[di]) continue;
      if (ix.lits[di].size() < c.size()) continue;
      if ((csig & ~ix.sig[di]) != 0) continue;
      if (!sorted_subset_except(c, ix.lits[di], kNoLit)) continue;
      // A learned subsumer deleting an input clause becomes the constraint's
      // only carrier: promote it to input first, or BVE may later drop it.
      if (ix.learned[i] && !ix.learned[di]) {
        promote_to_input(ix.cref[i]);
        ix.learned[i] = 0;
      }
      delete_clause(ix.cref[di]);
      ix.kill(di);
      ++stats_.subsumed;
    }
  }
    for (Lit l : c) {
    std::uint64_t sig_wo = 0;
    for (Lit m : c)
      if (m != l) sig_wo |= 1ull << (m & 63);
    const std::vector<std::uint32_t> cands = ix.occ[neg(l)];
    for (std::uint32_t di : cands) {
      ++ticks;
      if (di == i || ix.dead[di]) continue;
      if (ix.lits[di].size() < c.size()) continue;
      if ((sig_wo & ~ix.sig[di]) != 0) continue;
      if (!sorted_subset_except(c, ix.lits[di], l)) continue;
      strengthen_in_index(ix, di, neg(l),
                          proof_ ? cls(ix.cref[i]).id() : kNoClauseId);
      if (!ok_) return false;
    }
  }
  return true;
}

void Solver::strengthen_in_index(OccIndex& ix, std::size_t di, Lit drop,
                                 ClauseId subsumer_id) {
  CRef old = ix.cref[di];
  const bool was_learned = ix.learned[di] != 0;
  std::vector<Lit> nl;
  nl.reserve(ix.lits[di].size() - 1);
  for (Lit m : ix.lits[di])
    if (m != drop) nl.push_back(m);
  ResolutionChain chain;
  if (proof_) {
    // D' = D ⊗_{var(drop)} C: D contributes everything but `drop`, and
    // C \ {~drop} ⊆ D' adds nothing new.
    chain.chain = {cls(old).id(), subsumer_id};
    chain.pivots = {var(drop)};
  }
  std::uint32_t lbd =
      was_learned
          ? std::max<std::uint32_t>(
                1, std::min<std::uint32_t>(
                       cls(old).lbd(), static_cast<std::uint32_t>(nl.size())))
          : 0;
  delete_clause(old);
  ix.kill(static_cast<std::uint32_t>(di));
  ++stats_.strengthened;
  ClauseId nid = log_derived(nl, std::move(chain));
  if (nl.empty()) {
    ok_ = false;
    return;
  }
  CRef ncr = integrate_clause(nl, nid, was_learned, lbd);
  if (!ok_ || ncr == kNoCRef) return;
  // Index the replacement for further passes — unless installing it made it
  // a unit reason (locked) or satisfied it (both must stay untouched).
  for (Lit m : nl)
    if (value(m) == LBool::kTrue) return;
  if (locked(ncr)) return;
  ix.add(ncr, std::move(nl), was_learned);
}

bool Solver::try_eliminate(OccIndex& ix, Var v) {
  if (frozen_[v] || eliminated_[v] || value_var(v) != LBool::kUndef)
    return true;
  const Lit pl = mk_lit(v, false), nl = mk_lit(v, true);
  std::vector<std::uint32_t> pos, neg_c, learned_occ;
  for (std::uint32_t i : ix.occ[pl]) {
    if (ix.dead[i]) continue;
    (ix.learned[i] ? learned_occ : pos).push_back(i);
  }
  for (std::uint32_t i : ix.occ[nl]) {
    if (ix.dead[i]) continue;
    (ix.learned[i] ? learned_occ : neg_c).push_back(i);
  }
  if (pos.empty() && neg_c.empty() && learned_occ.empty()) return true;
  if (pos.size() > kBveMaxOcc || neg_c.size() > kBveMaxOcc) return true;
  // All non-tautological resolvents of input clauses; give up on v unless
  // they fit in the room the replaced clauses leave (+ grow).  Elimination
  // must be all-or-nothing: skipping even one resolvent would be unsound.
  struct Res {
    std::vector<Lit> lits;
    std::uint32_t pi, ni;
  };
  std::vector<Res> res;
  const std::size_t budget = pos.size() + neg_c.size() + kBveGrow;
  std::vector<Lit> scratch;
  for (std::uint32_t pi : pos)
    for (std::uint32_t ni : neg_c) {
      if (!resolve_sorted(ix.lits[pi], ix.lits[ni], v, scratch)) continue;
      if (res.size() >= budget) return true;  // would grow the database
      res.push_back({scratch, pi, ni});
    }
  // Commit: record + delete the originals (learned clauses with v are
  // simply dropped — they are consequences of the input and carry no
  // reconstruction obligation), then install the logged resolvents.
  ITPSEQ_CHECK(!frozen_[v], "frozen variable selected for elimination");
  eliminated_[v] = 1;
  ++stats_.vars_eliminated;
  ElimRecord rec;
  rec.v = v;
  for (std::uint32_t i : pos)
    rec.clauses.push_back({ix.lits[i], cls(ix.cref[i]).id()});
  for (std::uint32_t i : neg_c)
    rec.clauses.push_back({ix.lits[i], cls(ix.cref[i]).id()});
  for (std::uint32_t i : pos) {
    delete_clause(ix.cref[i]);
    ix.kill(i);
  }
  for (std::uint32_t i : neg_c) {
    delete_clause(ix.cref[i]);
    ix.kill(i);
  }
  for (std::uint32_t i : learned_occ) {
    delete_clause(ix.cref[i]);
    ix.kill(i);
  }
  elim_trail_.push_back(std::move(rec));
  for (Res& r : res) {
    ResolutionChain chain;
    if (proof_) {
      chain.chain = {cls(ix.cref[r.pi]).id(), cls(ix.cref[r.ni]).id()};
      chain.pivots = {v};
    }
    ClauseId nid = log_derived(r.lits, std::move(chain));
    if (r.lits.empty()) {
      ok_ = false;
      return false;
    }
    CRef ncr = integrate_clause(r.lits, nid, /*learned=*/false, 0);
    if (!ok_) return false;
    if (ncr == kNoCRef) continue;
    bool satv = false;
    for (Lit m : r.lits)
      if (value(m) == LBool::kTrue) {
        satv = true;
        break;
      }
    if (satv || locked(ncr)) continue;
    ix.add(ncr, std::move(r.lits), false);
  }
  return true;
}

bool Solver::inprocess_vivify() {
  assert(trail_lim_.empty());
  if (CRef confl = propagate(); confl != kNoCRef) {
    analyze_final(confl);
    ok_ = false;
    return false;
  }
  // Candidates: live unsatisfied input clauses of size >= 3.  CRefs stay
  // valid across the loop (allocation never moves arena offsets and GC is
  // not called here).
  std::vector<CRef> cand;
  for (CRef cr = 0; cr < static_cast<CRef>(arena_.size());) {
    Cls c = cls(cr);
    const std::uint32_t span = kHeaderWords + c.size();
    if (!c.deleted() && !c.learned() && c.size() >= 3) cand.push_back(cr);
    cr += span;
  }
  if (cand.empty()) return true;
  const std::uint64_t props_budget =
      stats_.propagations + arena_.size() / 2 + 10000;
  const std::size_t n = std::min(cand.size(), kVivifyMaxRound);
  std::size_t k = 0;
  for (; k < n && stats_.propagations < props_budget; ++k) {
    CRef cr = cand[(vivify_head_ + k) % cand.size()];
    Cls c = cls(cr);
    if (c.deleted() || c.size() < 3) continue;
    bool satv = false;
    for (Lit l : c)
      if (value(l) == LBool::kTrue) {
        satv = true;
        break;
      }
    if (satv) continue;
    std::vector<Lit> ls(c.begin(), c.end());
    // Detach so the clause cannot propagate against itself while its
    // negation is being decided.
    detach(cr);
    std::vector<Lit> kept;
    ResolutionChain chain;
    bool derived = false;
    for (Lit l : ls) {
      const LBool vl = value(l);
      if (vl == LBool::kTrue) {
        // ~(prefix) implies l: C strengthens to the reason-side derivation
        // that keeps l.
        CRef r = var_data_[var(l)].reason;
        if (r == kNoCRef) break;  // defensive: cannot strengthen
        kept = resolve_with_reasons(r, l, chain);
        derived = true;
        break;
      }
      if (vl == LBool::kFalse) continue;  // removal candidate: skip deciding
      trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size()));
      enqueue(neg(l), kNoCRef);
      if (CRef confl = propagate(); confl != kNoCRef) {
        kept = resolve_with_reasons(confl, kNoLit, chain);
        derived = true;
        break;
      }
    }
    if (!derived) {
      // No conflict/implication, but literals false under the probe (or at
      // level 0) have reasons — resolve them out of C itself.
      for (Lit l : ls)
        if (value(l) == LBool::kFalse &&
            var_data_[var(l)].reason != kNoCRef) {
          kept = resolve_with_reasons(cr, kNoLit, chain);
          derived = true;
          break;
        }
    }
    backtrack(0);
    if (derived && kept.size() < ls.size()) {
      c = cls(cr);  // re-fetch: the probe may not allocate, but be safe
      c.set_deleted();  // already detached; delete_clause would re-scan
      wasted_ += kHeaderWords + c.size();
      ++stats_.vivified;
      if (!install_derived(std::move(kept), std::move(chain),
                           /*learned=*/false, 0))
        return false;
      if (CRef confl = propagate(); confl != kNoCRef) {
        analyze_final(confl);
        ok_ = false;
        return false;
      }
    } else {
      attach(cr);  // watch positions 0/1 are unchanged and still valid
    }
  }
  vivify_head_ = (vivify_head_ + k) % cand.size();
  return true;
}

bool Solver::inprocess_probe() {
  assert(trail_lim_.empty());
  if (CRef confl = propagate(); confl != kNoCRef) {
    analyze_final(confl);
    ok_ = false;
    return false;
  }
  const std::size_t nv = num_vars();
  if (nv == 0) return true;
  const std::uint64_t props_budget =
      stats_.propagations + arena_.size() / 2 + 10000;
  std::size_t probes = 0, k = 0;
  struct Derived {
    std::vector<Lit> lits;
    ResolutionChain chain;
  };
  for (; k < nv && probes < kProbeMaxRound && stats_.propagations < props_budget;
       ++k) {
    const Var v = static_cast<Var>((probe_head_ + k) % nv);
    if (value_var(v) != LBool::kUndef || eliminated_[v]) continue;
    for (int s = 0; s < 2; ++s) {
      if (value_var(v) != LBool::kUndef) break;  // prior polarity failed
      const Lit l = mk_lit(v, s != 0);
      ++probes;
      ++stats_.probed;
      trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size()));
      enqueue(l, kNoCRef);
      CRef confl = propagate();
      if (confl != kNoCRef) {
        // Failed literal: the conflict resolves (before backtracking, while
        // reasons are live) to a clause over the only decision, i.e. {~l} —
        // or to the empty clause, refuting the formula.
        ResolutionChain chain;
        std::vector<Lit> kept = resolve_with_reasons(confl, kNoLit, chain);
        backtrack(0);
        ++stats_.failed_literals;
        if (!install_derived(std::move(kept), std::move(chain),
                             /*learned=*/true, 1))
          return false;
        if (CRef c2 = propagate(); c2 != kNoCRef) {
          analyze_final(c2);
          ok_ = false;
          return false;
        }
        break;
      }
      // Hyper-binary resolution: an implied q whose reason is a long clause
      // compresses to the binary (~l ∨ q); future propagation takes the
      // dedicated binary-watch path instead of walking the long clause.
      std::vector<Derived> derived;
      for (std::size_t t = trail_lim_.back() + 1;
           t < trail_.size() && derived.size() < kHbrPerProbe; ++t) {
        const Lit q = trail_[t];
        CRef r = var_data_[var(q)].reason;
        if (r == kNoCRef || cls(r).size() <= 2) continue;
        bool dup = false;
        for (const BinWatcher& bw : bin_watches_[neg(l)])
          if (bw.other == q) {
            dup = true;
            break;
          }
        if (dup) continue;
        Derived d;
        d.lits = resolve_with_reasons(r, q, d.chain);
        assert(d.lits.size() <= 2);
        derived.push_back(std::move(d));
      }
      backtrack(0);
      for (Derived& d : derived) {
        if (d.lits.size() == 2)
          ++stats_.hyper_binaries;
        else
          ++stats_.failed_literals;  // collapsed to a unit (or empty)
        // Read the size before the call: function arguments evaluate in an
        // unspecified order, so `d.lits.size()` in the same argument list
        // as `std::move(d.lits)` may see the moved-from (empty) vector and
        // mis-grade a hyper-binary as LBD 1.
        const unsigned lbd = d.lits.size() == 2 ? 2 : 1;
        if (!install_derived(std::move(d.lits), std::move(d.chain),
                             /*learned=*/true, lbd))
          return false;
      }
      if (!derived.empty()) {
        if (CRef c2 = propagate(); c2 != kNoCRef) {
          analyze_final(c2);
          ok_ = false;
          return false;
        }
      }
    }
  }
  probe_head_ = (probe_head_ + k) % nv;
  return true;
}

}  // namespace itpseq::sat
