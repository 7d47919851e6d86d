// solver.hpp — CDCL SAT solver with resolution proof logging.
//
// A MiniSat-lineage solver: two-watched-literal propagation, first-UIP
// conflict analysis with chain-logged clause minimization, VSIDS decision
// heuristic with phase saving, Luby restarts (a 100-conflict base unit) and
// LBD-tiered learned clause database reduction.
//
// The distinctive feature is *proof logging*: when enabled, every learned
// clause records the trivial resolution chain that derives it, and every
// UNSAT answer comes with its own refutation (see sat/proof.hpp): of the
// input clauses, or, under assumptions, of the input clauses plus one
// proof-only unit per failed assumption.  Interpolants and interpolation
// sequences are then extracted from that refutation (itp/interpolate.hpp).
//
// Both usage styles are supported, with or without proof logging: one-shot
// (create, new_var/add_clause, solve(); how the depth-0 and certificate
// checks solve) and long-lived incremental (clauses added between
// solve_assuming() calls, query-specific clauses behind activation
// literals; how every engine searches).  The storage layer below is
// built so the incremental style stays lean over thousands of queries.
//
// --- Clause storage architecture -------------------------------------------
//
// All clauses live in ONE flat std::uint32_t arena (arena_).  A clause is a
// packed header followed by its literals inline:
//
//     word 0   size << 4 | flags   (bit0 learned, bit1 deleted, bit2 reloc)
//     word 1   ClauseId            (proof identity; kNoClauseId w/o proof)
//     word 2   LBD                 (glue; 0 for input clauses)
//     word 3   activity            (float bit pattern)
//     word 4.. literals            (size words)
//
// A CRef is a word offset into the arena, so dereferencing a clause is one
// add — no per-clause heap allocation, no pointer chase, and propagation
// walks memory that is contiguous in allocation (≈ use) order.  `Cls` is a
// transient *view* into the arena: any allocation may reallocate the arena
// and invalidates every outstanding view (the same discipline as AIG node
// references; see the PR 1 BddManager use-after-free).
//
// Binary clauses: watch lists are split.  bin_watches_[l] stores the
// *implied literal* inline next to the CRef, so binary propagation reads
// only the watcher vector and never touches the arena; the CRef is kept
// solely for conflict analysis and proof chains (cold path).  Long clauses
// use classic blocker watchers (watches_[l], scanned when l becomes false).
//
// Learned-clause retention is LBD-tiered (Glucose-style), activity as the
// tiebreak:
//   core   LBD <= 2          never deleted (glue clauses),
//   tier2  3 <= LBD <= 6     deleted only after every local clause,
//   local  LBD > 6           first to go; reduce_db() removes the worst
//                            half of the reducible clauses, ordered by
//                            (tier, LBD desc, activity asc).
// A clause's LBD can only improve: it is recomputed when the clause is used
// in conflict analysis and lowered if smaller (possibly promoting it to a
// better tier).  Binary and reason-locked clauses are never deleted.
//
// Garbage collection: deleted clauses (reduce_db + satisfied-at-level-0
// removal) only set a header flag and count their words as wasted;
// garbage_collect() physically compacts the arena once wasted words exceed
// gc_frac_ of it, rewriting every CRef holder (watches, binary watches,
// trail reasons, learned_list_, root_conflict_) via forwarding pointers
// left in the old arena.  GC remaps CRefs but NEVER renumbers ClauseIds —
// proof chains and interpolation stay valid across any number of
// collections.  This is what keeps one-solver-per-run engines (PDR, BMC,
// the sessions) at a bounded footprint: clauses retired by activation-
// literal units become satisfied at level 0, are physically reclaimed, and
// their watcher entries disappear with them.
//
// --- Inprocessing ----------------------------------------------------------
//
// When enabled (the default), the solver simplifies its own clause database
// *between* searches: a round runs at solve entry or at a level-0 restart,
// but only once it is paid for.  A solver's first round is paid for by
// reuse: it runs at the entry of its second solve call, so a solver that is
// solved once (a depth-0 check, a certificate check) only gets rounds that a
// long search pays for.  Every other round is paid for by search: it needs
// inprocess-interval conflicts since the previous round, or since the solver
// was created if none has run yet (set_inprocess_interval; 0 forces a round
// at every entry and restart, the first entry included).  A round is,
// in order: level-0 propagation to fixpoint, satisfied-clause removal,
// signature-accelerated subsumption + self-subsuming resolution, bounded
// variable elimination (BVE) with model reconstruction, clause vivification,
// and failed-literal probing with on-the-fly hyper-binary resolution (the
// derived binaries feed the dedicated binary-watch path).  See inprocess.cpp.
//
// Proof-safety invariants (what keeps proofs and ITP valid):
//   * every rewrite is a logged resolution: a strengthened clause is a new
//     proof clause with chain [old, subsumer] and the removed literal's var
//     as pivot; each BVE resolvent is logged with chain [C+, C-] on the
//     eliminated var; vivification/probing derivations resolve the starting
//     clause against trail reasons (the analyze_final worklist pattern);
//   * the Proof object retains every clause ever logged, so solver-side
//     deletion (subsumption, BVE originals, reduce_db) never invalidates a
//     recorded chain;
//   * reason-locked and satisfied clauses are never rewritten (at level 0 a
//     locked clause is satisfied by its implied literal, so the occurrence
//     index — built over unsatisfied clauses only — cannot even see one).
//
// Freeze contract: variables the caller will assume (activation literals,
// interface/latch vars) must never be eliminated.  freeze(v) marks a var
// permanently; solve_assuming() additionally auto-freezes every assumption
// var and *restores* any that was already eliminated (re-installing its
// recorded clauses under their original ClauseIds, so no new proof steps
// are needed).  add_clause() restores eliminated vars it mentions the same
// way.  On kSat the model is extended over eliminated vars in reverse
// elimination order, so callers read a total model regardless.  The
// extension is lazy (Eén & Biere, SAT 2005): kSat only copies the
// assignment, and the first model() read, or model_value() read of an
// eliminated var, completes it.  An engine that reads only frozen vars never
// pays for it.  restore_var() and an inprocessing round complete a pending
// extension before they change the elimination records it reads.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "sat/checked.hpp"
#include "sat/proof.hpp"
#include "sat/types.hpp"

namespace itpseq::sat {

/// Resource limits for one solve() call.  Negative means unlimited.
/// `cancel` is a cooperative cancellation token (non-owning): when the
/// pointed-to flag becomes true the solver abandons the search at the next
/// poll point and returns kUnknown.  It is polled on every conflict and
/// periodically between decisions, so cancellation latency is bounded by a
/// short burst of propagation, not by the time/conflict budget.
struct Budget {
  std::int64_t conflicts = -1;
  double seconds = -1.0;
  const std::atomic<bool>* cancel = nullptr;
};

/// Solver statistics, exposed for benchmarks and engine diagnostics.
struct SolverStats {
  std::uint64_t decisions = 0;
  /// Implications found by propagate() (binary ones included).  A unit that
  /// add_clause enqueues at level 0, because every other literal of the
  /// clause is already false there, is not one: BMC on an input-free design
  /// does all its work that way (its reset fixes every frame as the frame
  /// is added), e.g. 0 propagations against 3,158 such units on ring8safe
  /// over bounds 1..50.
  std::uint64_t propagations = 0;
  std::uint64_t bin_propagations = 0;  // implications from binary watchers
  /// Search at the assumption levels of solve_assuming: implications made
  /// there, and the levels opened (one per assumption, dummy ones included).
  std::uint64_t assumption_propagations = 0;
  std::uint64_t assumption_levels = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learned_literals = 0;
  std::uint64_t minimized_literals = 0;
  std::uint64_t db_reductions = 0;
  std::uint64_t gc_runs = 0;                 // arena compactions
  std::uint64_t wasted_bytes_reclaimed = 0;  // total bytes GC gave back
  std::uint64_t removed_satisfied = 0;       // level-0-satisfied clauses freed
  std::uint64_t peak_arena_bytes = 0;        // clause-store high-water mark
  /// Learned clauses entering each retention tier (by glue at learning
  /// time; promotions by dynamic LBD improvement are not re-counted).
  std::uint64_t learned_core = 0;   // LBD <= 2: immortal
  std::uint64_t learned_mid = 0;    // 3 <= LBD <= 6: deleted last
  std::uint64_t learned_local = 0;  // LBD > 6: first to go
  /// Learned-clause glue histogram: bucket min(LBD, 8) - 1, i.e. the last
  /// bucket aggregates every clause with LBD >= 8.
  std::array<std::uint64_t, 8> glue_hist{};
  /// Inprocessing (see solver.hpp header and inprocess.cpp).
  std::uint64_t inprocess_rounds = 0;
  std::uint64_t subsumed = 0;          // clauses dropped by subsumption
  std::uint64_t strengthened = 0;      // self-subsuming resolution rewrites
  std::uint64_t vars_eliminated = 0;   // BVE-eliminated variables
  std::uint64_t vars_restored = 0;     // eliminated vars brought back
  std::uint64_t vivified = 0;          // clauses shortened by vivification
  std::uint64_t probed = 0;            // failed-literal probes attempted
  std::uint64_t failed_literals = 0;   // probes that yielded a unit
  std::uint64_t hyper_binaries = 0;    // binaries from hyper-binary resolution
  /// Lazy model extensions actually run (see model()); at most one per kSat
  /// answer, and none for an answer whose eliminated vars nobody read.
  std::uint64_t model_extensions = 0;

  /// Cross-solver aggregation for benchmark drivers: counters are summed,
  /// the arena high-water mark takes the maximum.  Keep this the single
  /// place that knows every field.
  SolverStats& operator+=(const SolverStats& s) {
    decisions += s.decisions;
    propagations += s.propagations;
    bin_propagations += s.bin_propagations;
    assumption_propagations += s.assumption_propagations;
    assumption_levels += s.assumption_levels;
    conflicts += s.conflicts;
    restarts += s.restarts;
    learned_literals += s.learned_literals;
    minimized_literals += s.minimized_literals;
    db_reductions += s.db_reductions;
    gc_runs += s.gc_runs;
    wasted_bytes_reclaimed += s.wasted_bytes_reclaimed;
    removed_satisfied += s.removed_satisfied;
    if (s.peak_arena_bytes > peak_arena_bytes)
      peak_arena_bytes = s.peak_arena_bytes;
    learned_core += s.learned_core;
    learned_mid += s.learned_mid;
    learned_local += s.learned_local;
    for (std::size_t i = 0; i < glue_hist.size(); ++i)
      glue_hist[i] += s.glue_hist[i];
    inprocess_rounds += s.inprocess_rounds;
    subsumed += s.subsumed;
    strengthened += s.strengthened;
    vars_eliminated += s.vars_eliminated;
    vars_restored += s.vars_restored;
    vivified += s.vivified;
    probed += s.probed;
    failed_literals += s.failed_literals;
    hyper_binaries += s.hyper_binaries;
    model_extensions += s.model_extensions;
    return *this;
  }
};

class Solver {
  // tests/sat_test.cpp: replays the assumption loop on the live trail to
  // check analyze_assumption against a full-trail walk.
  friend struct SolverWhiteBox;

 public:
  Solver();
  ~Solver();
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  /// Enable resolution proof logging.  Must be called before any add_clause.
  void enable_proof();

  /// Create a fresh variable; returns its index.
  Var new_var();
  std::size_t num_vars() const { return assign_.size(); }

  /// Add an input clause.  `label` tags the clause's partition (time frame)
  /// for interpolation.  Returns false iff the formula is already trivially
  /// unsatisfiable at level 0 (solve() will still produce a proof).
  /// Clauses may also be added *between* solve() calls (incremental use).
  /// Both overloads copy the literals into a member scratch buffer, so a
  /// braced clause (`add_clause({a, b}, label)`) or a caller's reused
  /// vector costs no heap allocation beyond the arena and the proof log.
  bool add_clause(std::initializer_list<Lit> lits, std::uint32_t label = 0);
  bool add_clause(const std::vector<Lit>& lits, std::uint32_t label = 0);

  /// Solve the accumulated formula.
  Status solve(const Budget& budget = {});

  /// Solve under assumptions (incremental interface).  kUnsat with a
  /// non-empty assumption set means "unsatisfiable under these
  /// assumptions"; failed_assumptions() then returns a subset sufficient
  /// for the conflict.  Without assumptions kUnsat is final (ok() false).
  /// With proof logging every kUnsat logs this query's refutation, and
  /// proof().final_id() is its empty clause: the failed-assumption clause
  /// resolved against the assumption units of the failed subset (logged
  /// once per literal, labelled by set_assumption_label), or the level-0
  /// refutation once the clause set itself is refuted.
  Status solve_assuming(const std::vector<Lit>& assumptions,
                        const Budget& budget = {});

  /// Proof logging: partition label of the assumption units of v (either
  /// polarity; default 0).  Give an activation literal the label of the
  /// clauses it guards, so it stays local to that partition.  Set it before
  /// the first query that can fail on v.
  void set_assumption_label(Var v, std::uint32_t label) {
    if (assumption_labels_.size() <= v) assumption_labels_.resize(v + 1, 0);
    assumption_labels_[v] = label;
  }

  /// After solve_assuming() == kUnsat: an inconsistent subset of the
  /// assumptions (the "core"; not necessarily minimal).
  const std::vector<Lit>& failed_assumptions() const { return failed_; }

  /// False once the clause set itself (independent of assumptions) has been
  /// refuted; further solves return kUnsat immediately.
  bool ok() const { return ok_; }

  /// After kSat: is literal l true in the model?  Reading a var the search
  /// left unassigned (BVE eliminated it) first completes the model.
  bool model_value(Lit l) const {
    if (model_[var(l)] == LBool::kUndef) extend_pending_model();
    return lbool_xor(model_[var(l)], sign(l)) == LBool::kTrue;
  }
  /// After kSat: full model (indexed by var), extended over eliminated vars.
  /// The first read after a kSat answer may complete the model in place, so
  /// concurrent readers of one solver race, like concurrent Proof::core
  /// calls.
  const std::vector<LBool>& model() const {
    extend_pending_model();
    return model_;
  }

  /// With proof logging: the log, holding every refuted query's
  /// refutation; proof().final_id() is the latest one's.
  const Proof& proof() const { return *proof_; }

  const SolverStats& stats() const { return stats_; }

  /// Current clause-arena footprint in bytes (live + not-yet-collected).
  std::size_t arena_bytes() const { return arena_.size() * sizeof(std::uint32_t); }

  /// Tuning/testing knobs.  gc_frac: collect once wasted words exceed this
  /// fraction of the arena (default 0.25; stress tests force it near 0).
  /// reduce_base: initial learned-clause cap (default max(1000, inputs/3);
  /// an explicit value overrides the input-size scaling so tests can force
  /// reduce_db() on small instances).
  void set_gc_frac(double f) { gc_frac_ = f; }
  void set_reduce_base(double b) {
    reduce_base_ = b;
    reduce_base_forced_ = true;
  }

  /// Enable/disable inprocessing (default on).  See the header comment for
  /// what a round does and the proof-safety/freeze contracts.
  void set_inprocess(bool on) { inprocess_on_ = on; }
  /// Conflicts that pay for an inprocessing round (default 4000): since the
  /// previous round, or since creation before the first.  Testing knob: 0
  /// forces a round at every solve entry (the first included) and level-0
  /// restart.
  void set_inprocess_interval(std::uint64_t conflicts) {
    inprocess_interval_ = conflicts;
  }
  /// Mark a variable as never-eliminate (assumption/activation/interface
  /// vars).  solve_assuming() freezes its assumption vars automatically;
  /// engines should still freeze vars they will assume *later*, to avoid
  /// eliminate-then-restore churn.
  void freeze(Var v) { frozen_[v] = 1; }
  bool is_frozen(Var v) const { return frozen_[v] != 0; }
  /// True while v is eliminated by BVE (cleared again if v is restored).
  bool is_eliminated(Var v) const { return eliminated_[v] != 0; }

  /// Check that a full assignment satisfies every input clause (debugging).
  bool verify_model() const;

#ifdef ITPSEQ_CHECKED
  /// Deliberately violates the view contract: fetches a Cls, forces an
  /// arena allocation, then dereferences the stale view.  Exists only so
  /// tests/checked_test.cpp can death-test the epoch validation; returns
  /// the (never-reached) stale size.
  std::uint32_t debug_stale_view_probe();
#endif

 private:
  using CRef = std::uint32_t;
  static constexpr CRef kNoCRef = 0xffffffffu;

  static constexpr std::uint32_t kHeaderWords = 4;
  static constexpr std::uint32_t kLearnedFlag = 1u;
  static constexpr std::uint32_t kDeletedFlag = 2u;
  static constexpr std::uint32_t kRelocFlag = 4u;
  static constexpr std::uint32_t kFlagBits = 4;  // size lives in word0 >> 4

  static constexpr std::uint32_t kCoreLbd = 2;   // glue tier: immortal
  static constexpr std::uint32_t kTier2Lbd = 6;  // mid tier: deleted last

  /// Transient view of an arena clause (invalidated by any allocation).
  /// Under ITPSEQ_CHECKED every view fetched through cls() captures the
  /// arena epoch at fetch time and validates it on each dereference — a
  /// view held across alloc_clause()/garbage_collect() aborts with a
  /// diagnostic instead of silently reading freed memory.
  struct Cls {
    std::uint32_t* base;
#ifdef ITPSEQ_CHECKED
    const Solver* owner = nullptr;  // nullptr: unchecked (foreign buffer)
    std::uint64_t epoch = 0;
    std::uint32_t* b() const {
      ITPSEQ_CHECK(owner == nullptr || epoch == owner->arena_epoch_,
                   "stale Cls view: the clause arena was reallocated or "
                   "compacted since this view was fetched; re-fetch with "
                   "cls() after anything that can allocate");
      return base;
    }
#else
    std::uint32_t* b() const { return base; }
#endif
    std::uint32_t size() const { return b()[0] >> kFlagBits; }
    bool learned() const { return (b()[0] & kLearnedFlag) != 0; }
    bool deleted() const { return (b()[0] & kDeletedFlag) != 0; }
    void set_deleted() { b()[0] |= kDeletedFlag; }
    void clear_learned() { b()[0] &= ~kLearnedFlag; }
    ClauseId id() const { return b()[1]; }
    std::uint32_t lbd() const { return b()[2]; }
    void set_lbd(std::uint32_t g) { b()[2] = g; }
    float activity() const {
      float a;
      std::memcpy(&a, &b()[3], sizeof a);
      return a;
    }
    void set_activity(float a) { std::memcpy(&b()[3], &a, sizeof a); }
    Lit* lits() { return b() + kHeaderWords; }
    const Lit* lits() const { return b() + kHeaderWords; }
    Lit* begin() { return lits(); }
    Lit* end() { return lits() + size(); }
    Lit& operator[](std::uint32_t i) { return b()[kHeaderWords + i]; }
    Lit operator[](std::uint32_t i) const { return b()[kHeaderWords + i]; }
  };
#ifdef ITPSEQ_CHECKED
  Cls cls(CRef cr) { return Cls{arena_.data() + cr, this, arena_epoch_}; }
  const Cls cls(CRef cr) const {
    return Cls{const_cast<std::uint32_t*>(arena_.data()) + cr, this,
               arena_epoch_};
  }
#else
  Cls cls(CRef cr) { return Cls{arena_.data() + cr}; }
  const Cls cls(CRef cr) const {
    return Cls{const_cast<std::uint32_t*>(arena_.data()) + cr};
  }
#endif

  /// Watcher for clauses of size >= 3.
  struct Watcher {
    CRef cref;
    Lit blocker;  // fast satisfied-check before touching the clause
  };
  /// Watcher for binary clauses: the implication is resolved entirely from
  /// the watch list; `cr` is only read by analysis/proof code.
  struct BinWatcher {
    Lit other;
    CRef cr;
  };

  struct VarData {
    CRef reason = kNoCRef;
    std::uint32_t level = 0;
    std::uint32_t trail_pos = 0;
  };

  LBool value(Lit l) const { return lbool_xor(assign_[var(l)], sign(l)); }
  LBool value_var(Var v) const { return assign_[v]; }

  CRef alloc_clause(std::span<const Lit> lits, ClauseId id, bool learned,
                    std::uint32_t lbd);
  bool add_clause_span(std::span<const Lit> lits, std::uint32_t label);
  /// Watch order: moves the literals not false at level 0 to the front,
  /// keeping the relative order of both groups, without allocating.
  /// Returns how many are not false.
  std::size_t watch_order(std::span<Lit> lits) const;
  void attach(CRef cr);
  void detach(CRef cr);
  bool locked(CRef cr);
  void delete_clause(CRef cr);
  std::uint32_t compute_lbd(const std::vector<Lit>& lits);
  void update_lbd(Cls c);
  void enqueue(Lit l, CRef reason);
  CRef propagate();
  void analyze(CRef conflict, std::vector<Lit>& out_learned, std::uint32_t& out_level,
               ResolutionChain& out_chain);
  void minimize_learned(std::vector<Lit>& learned, ResolutionChain& chain);
  void analyze_final(CRef conflict);  // derive empty clause at level 0
  void analyze_assumption(Lit failed);  // collect the failed-assumption core
  /// Proof logging: log the refutation of a query whose assumption `failed`
  /// is false (see solve_assuming).
  void log_assumption_final(Lit failed);
  /// Proof id of the assumption unit (a), logged on first use.
  ClauseId assumption_unit(Lit a);
  void backtrack(std::uint32_t level);
  Lit pick_branch();
  void bump_var(Var v);
  void decay_var_activity();
  void bump_clause(Cls c);
  void decay_clause_activity();
  void reduce_db();
  void maybe_simplify();
  void remove_satisfied();
  void maybe_gc();
  void garbage_collect();
  void heap_insert(Var v);
  Var heap_pop();
  void heap_up(std::size_t i);
  void heap_down(std::size_t i);
  bool heap_contains(Var v) const { return heap_pos_[v] != kNoPos; }
  double luby(std::uint64_t i) const;

  // inprocessing (inprocess.cpp) -------------------------------------------
  /// One clause recorded when its variable was eliminated: the literal set
  /// and the proof id it was originally logged under (restore re-installs it
  /// under the same id — no new proof steps).
  struct ElimClause {
    std::vector<Lit> lits;
    ClauseId id;
  };
  struct ElimRecord {
    Var v;
    std::vector<ElimClause> clauses;
    bool active = true;  // false once the var was restored
  };
  /// Transient occurrence index over the live, unsatisfied clauses; lives
  /// only for the subsumption/BVE phase of one round (see inprocess.cpp).
  struct OccIndex;

  /// Run a round if one is paid for (see the header comment); `at_entry`
  /// marks the solve-entry call site.  False iff the round refuted the
  /// formula.
  bool maybe_inprocess(bool at_entry);
  bool inprocess();        // one full round; false iff refuted
  bool inprocess_subsume_eliminate();
  bool inprocess_vivify();
  bool inprocess_probe();
  bool subsume_with(OccIndex& ix, std::size_t i, std::uint64_t& ticks);
  /// Reclassify a learned clause as input (irredundant).  Required before a
  /// learned clause may subsume-delete an input clause: afterwards it may be
  /// the only carrier of that constraint, and BVE drops learned clauses with
  /// the pivot without resolving them.
  void promote_to_input(CRef cr);
  bool try_eliminate(OccIndex& ix, Var v);
  void strengthen_in_index(OccIndex& ix, std::size_t di, Lit drop,
                           ClauseId subsumer_id);
  /// Log a derived clause: add_learned normally, the level-0 refutation for
  /// the empty clause, and a chain of one clause (no resolutions) reuses its
  /// own id.
  ClauseId log_derived(const std::vector<Lit>& lits, ResolutionChain&& chain);
  /// Allocate + attach/enqueue an already-logged clause at level 0.  Returns
  /// kNoCRef when the clause is satisfied at level 0 (nothing installed);
  /// sets ok_ = false on a root conflict.
  CRef integrate_clause(std::vector<Lit> lits, ClauseId id, bool learned,
                        std::uint32_t lbd);
  /// log_derived + integrate_clause; false iff the formula became refuted.
  bool install_derived(std::vector<Lit> lits, ResolutionChain&& chain,
                       bool learned, std::uint32_t lbd);
  /// Resolve the clause at `start` against trail reasons until only
  /// reason-free literals remain (decisions, unassigned literals and `keep`,
  /// which may be kNoLit); the analyze_final worklist pattern.  Appends the
  /// proof chain when logging is on (starting from start's own id).
  std::vector<Lit> resolve_with_reasons(CRef start, Lit keep,
                                        ResolutionChain& chain);
  void restore_var(Var v);  // undo BVE for v (freeze it permanently)
  void extend_model_over_eliminated(std::vector<LBool>& model) const;
  /// Run the extension the latest kSat answer left pending, if any.
  void extend_pending_model() const {
    if (!model_pending_) return;
    model_pending_ = false;
    ++stats_.model_extensions;
    extend_model_over_eliminated(model_);
  }

  // clause storage ---------------------------------------------------------
  std::vector<std::uint32_t> arena_;         // flat clause arena (see header)
#ifdef ITPSEQ_CHECKED
  // Bumped by every alloc_clause() and every garbage_collect(): any Cls
  // fetched before the bump aborts on its next dereference.  The counter is
  // bumped even when the vector did not physically move — the *contract* is
  // "re-fetch after anything that can allocate", and the checked build
  // enforces the contract, not this run's luck.
  std::uint64_t arena_epoch_ = 0;
  void checked_audit_freeze() const;         // end-of-inprocess invariants
#endif
  std::vector<CRef> learned_list_;           // arena refs of learned clauses
  std::size_t num_input_clauses_ = 0;
  std::vector<Lit> add_buf_;                 // add_clause's scratch clause
  std::size_t wasted_ = 0;                   // deleted words awaiting GC
  double gc_frac_ = 0.25;

  // assignment -------------------------------------------------------------
  std::vector<LBool> assign_;
  std::vector<VarData> var_data_;
  std::vector<Lit> trail_;
  std::vector<std::uint32_t> trail_lim_;     // decision-level boundaries
  std::size_t qhead_ = 0;

  // watches (MiniSat convention: watches_[l] holds clauses that watch
  // literal l, scanned when l becomes false).  Binary clauses live in their
  // own lists with the implied literal inline.
  std::vector<std::vector<Watcher>> watches_;
  std::vector<std::vector<BinWatcher>> bin_watches_;

  // heuristics -------------------------------------------------------------
  std::vector<double> activity_;
  std::vector<std::uint8_t> phase_;          // saved polarity per var
  double var_inc_ = 1.0;
  double clause_inc_ = 1.0;
  static constexpr std::size_t kNoPos = static_cast<std::size_t>(-1);
  std::vector<Var> heap_;
  std::vector<std::size_t> heap_pos_;

  // analysis scratch -------------------------------------------------------
  std::vector<std::uint8_t> seen_;
  std::vector<std::uint64_t> level_stamp_;   // LBD distinct-level marking
  std::uint64_t lbd_stamp_ = 0;

  // state ------------------------------------------------------------------
  bool ok_ = true;                           // false once root-level conflict found
  CRef root_conflict_ = kNoCRef;             // clause falsified at level 0
  std::vector<Lit> assumptions_;             // active during solve_assuming
  std::vector<Lit> failed_;                  // assumption core after kUnsat
  // The latest kSat assignment; while model_pending_, the eliminated vars in
  // it are still unassigned (see extend_pending_model).  Mutable with
  // stats_, which counts the extension: const readers complete the model.
  mutable std::vector<LBool> model_;
  mutable bool model_pending_ = false;
  std::unique_ptr<Proof> proof_;
  ClauseId root_final_ = kNoClauseId;        // the level-0 refutation, once logged
  std::vector<ClauseId> assumption_units_;   // per literal, kNoClauseId until used
  std::vector<std::uint32_t> assumption_labels_;  // per var, default 0
  mutable SolverStats stats_;
  double max_learned_ = 0;
  double reduce_base_ = 1000.0;
  bool reduce_base_forced_ = false;
  bool mem_degraded_ = false;  // rung 1 of the memory ladder taken (one-shot)
  std::size_t simplify_trail_ = 0;           // trail size at last remove_satisfied
  std::uint64_t simplify_props_ = 0;         // propagation count at last sweep

  // inprocessing state -------------------------------------------------------
  bool inprocess_on_ = true;
  std::uint64_t inprocess_interval_ = 4000;  // conflicts between rounds
  std::uint64_t solve_calls_ = 0;             // solve_assuming entries so far
  std::uint64_t last_inprocess_conflicts_ = 0;  // conflicts at the last round
  std::vector<std::uint8_t> frozen_;         // per var: never eliminate
  std::vector<std::uint8_t> eliminated_;     // per var: currently BVE'd away
  std::vector<ElimRecord> elim_trail_;       // elimination order (for models)
  std::size_t vivify_head_ = 0;              // rotating cursors so successive
  std::size_t probe_head_ = 0;               // rounds cover different regions
};

}  // namespace itpseq::sat
