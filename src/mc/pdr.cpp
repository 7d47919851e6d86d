// pdr.cpp — IC3/PDR over one incremental solver with activation literals.
//
// Encoding: the solver holds a single copy of the transition relation
// (frame 0 -> frame 1 of an Unroller).  Everything that varies per query is
// switched with assumption literals:
//
//   act_init    guards the initial-state unit cube at frame 0
//   act_c0/c1   guard the invariant constraints at frames 0 / 1
//   acts_[j]    guards the lemma clauses *stored at* frame j; since the
//               trace is monotone (clauses of F_{j} contain those of
//               F_{j+1}), a query relative to F_k assumes acts_[j] for all
//               j >= k
//   tmp         a fresh per-query literal guarding the ¬cube clause of a
//               relative-induction query, retired afterwards with a unit
//
// Lemma cubes live in stored_[j] (j = highest frame where the clause is
// known inductive); the solver keeps superseded copies, which are implied
// and harmless, while the stored_ lists are kept subsumption-reduced so
// propagation and the fixpoint test work on the real clause sets.
#include "mc/pdr.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <queue>
#include <tuple>

#include "mc/ternary.hpp"
#include "obs/trace.hpp"

namespace itpseq::mc {
namespace {

/// ctgDown bounds: CTGs blocked per candidate cube before giving up on it,
/// and maximum recursion depth (1 = the paper's setting; CTGs discovered
/// while blocking a CTG are not themselves chased further).
constexpr unsigned kMaxCtgs = 3;
constexpr unsigned kCtgDepth = 1;

/// A cube literal: latch_index << 1 | value.  Cubes are sorted vectors
/// with at most one literal per latch, denoting a conjunction
/// "latch_i = value_i"; the lemma learned from a blocked cube c is the
/// clause ¬c.
using CubeLit = std::uint32_t;
using Cube = std::vector<CubeLit>;

constexpr std::size_t cl_index(CubeLit c) { return c >> 1; }
constexpr bool cl_value(CubeLit c) { return (c & 1u) != 0; }
constexpr CubeLit mk_cl(std::size_t latch, bool value) {
  return static_cast<CubeLit>((latch << 1) | (value ? 1u : 0u));
}

/// a ⊆ b as literal sets: cube a covers every state of cube b, so clause
/// ¬a subsumes clause ¬b.
bool cube_subsumes(const Cube& a, const Cube& b) {
  if (a.size() > b.size()) return false;
  std::size_t j = 0;
  for (CubeLit l : a) {
    while (j < b.size() && b[j] < l) ++j;
    if (j == b.size() || b[j] != l) return false;
    ++j;
  }
  return true;
}

/// One link of a (potential) counterexample: a state cube plus the input
/// vector that drives any of its states into the successor node's cube (or
/// asserts bad, for the root node at the frontier).
struct ObNode {
  Cube cube;
  std::vector<bool> inputs;
  int succ;  // index of the successor node; -1 for the frontier node
};

struct Obligation {
  unsigned frame;
  std::size_t size;
  std::uint64_t seq;
  std::size_t node;
};

/// Depth-ordered handling: lowest frame first (closest to the initial
/// states), then smallest cube, then FIFO.
struct ObOrder {
  bool operator()(const Obligation& a, const Obligation& b) const {
    return std::tie(a.frame, a.size, a.seq) > std::tie(b.frame, b.size, b.seq);
  }
};

/// A satisfying state pulled out of a query model.
struct StateModel {
  Cube cube;                  // lifted cube containing the state
  std::vector<bool> latches;  // full concrete latch assignment
  std::vector<bool> inputs;   // frame-0 input assignment
  bool in_init = false;       // concrete state satisfies S0
};

enum class StepOutcome { kOk, kFailed, kTimeout };

class PdrContext {
 public:
  PdrContext(const aig::Aig& model, std::size_t prop, const EngineOptions& opts,
             StateSpace& space, PdrStats& stats, double time_budget_sec)
      : model_(model),
        prop_(prop),
        opts_(opts),
        space_(space),
        stats_(stats),
        deadline_(std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(time_budget_sec))),
        unr_(model, solver_) {
    opts.apply_sat_options(solver_);
    setup();
  }

  void run(EngineResult& out);

  /// Valid after run() with kPass: invariant root in space_.graph().
  aig::Lit invariant() const { return invariant_; }
  const sat::Solver& solver() const { return solver_; }

 private:
  // --- setup ---------------------------------------------------------------

  sat::Lit new_act() { return sat::mk_lit(solver_.new_var()); }

  void setup() {
    // Frame-0 latch variables exist up front so models can always be read.
    for (std::size_t i = 0; i < model_.num_latches(); ++i)
      unr_.latch_lit(i, 0, 0);
    unr_.add_transition(0, 0);
    bad0_ = unr_.bad_lit(0, 0, prop_);

    act_c0_ = new_act();
    act_c1_ = new_act();
    for (std::size_t i = 0; i < model_.num_constraints(); ++i) {
      aig::Lit c = model_.constraint(i);
      solver_.add_clause({sat::neg(act_c0_), unr_.lit(c, 0, 0)}, 0);
      solver_.add_clause({sat::neg(act_c1_), unr_.lit(c, 1, 0)}, 0);
    }

    act_init_ = new_act();
    reset_.resize(model_.num_latches(), -1);
    for (std::size_t i = 0; i < model_.num_latches(); ++i) {
      switch (model_.latch_init(i)) {
        case aig::LatchInit::kZero:
          reset_[i] = 0;
          solver_.add_clause({sat::neg(act_init_), sat::neg(latch_at(i, true, 0))}, 0);
          break;
        case aig::LatchInit::kOne:
          reset_[i] = 1;
          solver_.add_clause({sat::neg(act_init_), latch_at(i, true, 0)}, 0);
          break;
        case aig::LatchInit::kUndef:
          break;
      }
    }

    // stored_[j]: lemma cubes whose clause is inductive up to frame j.
    // stored_[0] stays empty (F_0 = S0 is implicit).
    k_ = 1;
    stored_.resize(2);
    acts_.push_back(sat::kNoLit);  // index 0 unused
    acts_.push_back(new_act());

    // F_inf: clauses proven inductive (relative to F_inf itself), i.e. part
    // of every frame forever.  Guarded by one activation literal that every
    // query assumes.  Clauses land here via propagation.
    act_inf_ = new_act();

    // Lifting cones: a bad-state cube must preserve bad and the frame-0
    // constraints; a predecessor cube must preserve the successor's
    // next-state functions and the constraints at both frames (frame-1
    // constraint values are functions of next-states of the constraints'
    // latch support).
    for (std::size_t i = 0; i < model_.num_constraints(); ++i)
      constraint_roots_.push_back(model_.constraint(i));
    for (aig::Var v : model_.cone(constraint_roots_)) {
      std::size_t li = model_.latch_index(v);
      if (li != aig::Aig::kNoIndex)
        constraint_next_roots_.push_back(model_.latch_next(li));
    }
    bad_roots_ = constraint_roots_;
    bad_roots_.push_back(model_.output(prop_));

    // Ternary lifting simulator: built once over the union cone of every
    // root any query can watch (all next-state functions, the bad output,
    // the constraints at both frames); per-query root sets are subsets.
    if (opts_.pdr_lift) {
      std::vector<aig::Lit> all_roots = bad_roots_;
      all_roots.insert(all_roots.end(), constraint_next_roots_.begin(),
                       constraint_next_roots_.end());
      for (std::size_t i = 0; i < model_.num_latches(); ++i)
        all_roots.push_back(model_.latch_next(i));
      tsim_.emplace(model_, all_roots);
    }
  }

  // --- small helpers -------------------------------------------------------

  bool out_of_time() const {
    if (opts_.cancel != nullptr &&
        opts_.cancel->load(std::memory_order_relaxed))
      return true;
    return std::chrono::steady_clock::now() >= deadline_;
  }

  sat::Budget budget() const {
    sat::Budget b;
    b.seconds = std::max(
        0.0, std::chrono::duration<double>(deadline_ -
                                           std::chrono::steady_clock::now())
                 .count());
    b.cancel = opts_.cancel;
    return b;
  }

  /// SAT literal "latch i is `value`" at frame 0 or 1.
  sat::Lit latch_at(std::size_t i, bool value, unsigned frame) {
    sat::Lit l = unr_.latch_lit(i, frame, 0);
    return value ? l : sat::neg(l);
  }
  sat::Lit cube_lit_at(CubeLit cl, unsigned frame) {
    return latch_at(cl_index(cl), cl_value(cl), frame);
  }

  /// Does the cube contain an initial state?  (It does unless some literal
  /// over a latch with a defined reset disagrees with that reset.)
  bool intersects_init(const Cube& c) const {
    for (CubeLit l : c) {
      signed char r = reset_[cl_index(l)];
      if (r >= 0 && (r != 0) != cl_value(l)) return false;
    }
    return true;
  }

  /// Restore init-disjointness of `c` (⊆ `from`) by re-adding a literal of
  /// `from` that disagrees with a defined reset.  `from` must be
  /// init-disjoint itself.
  void restore_init_disjoint(Cube& c, const Cube& from) const {
    if (!intersects_init(c)) return;
    for (CubeLit l : from) {
      signed char r = reset_[cl_index(l)];
      if (r >= 0 && (r != 0) != cl_value(l)) {
        c.insert(std::lower_bound(c.begin(), c.end(), l), l);
        return;
      }
    }
  }

  /// Assumptions activating F_lvl (plus constraints at both frames and the
  /// proven-invariant clause set F_inf, part of every frame).
  void frame_assumptions(unsigned lvl, std::vector<sat::Lit>& as) const {
    as.clear();
    as.push_back(act_c0_);
    as.push_back(act_c1_);
    as.push_back(act_inf_);
    if (lvl == 0) as.push_back(act_init_);
    for (std::size_t j = std::max<unsigned>(lvl, 1); j < acts_.size(); ++j)
      as.push_back(acts_[j]);
  }

  /// Read the query model: full state + inputs at frame 0, lifted to a cube
  /// that preserves the values of `roots` (and is made init-disjoint unless
  /// the concrete state itself is initial).
  void extract_state(const std::vector<aig::Lit>& roots, StateModel& p) {
    p.latches.assign(model_.num_latches(), false);
    p.in_init = true;
    for (std::size_t i = 0; i < model_.num_latches(); ++i) {
      p.latches[i] = solver_.model_value(unr_.lookup(model_.latch(i), 0));
      if (reset_[i] >= 0 && (reset_[i] != 0) != p.latches[i]) p.in_init = false;
    }
    p.inputs.assign(model_.num_inputs(), false);
    for (std::size_t i = 0; i < model_.num_inputs(); ++i) {
      sat::Lit l = unr_.lookup(model_.input(i), 0);
      if (l != sat::kNoLit) p.inputs[i] = solver_.model_value(l);
    }
    // Syntactic lift: latches outside the combinational support of `roots`
    // cannot influence the successor values / bad / constraints, so drop
    // them outright.
    std::vector<char> keep(model_.num_latches(), 0);
    for (aig::Var v : model_.cone(roots)) {
      std::size_t li = model_.latch_index(v);
      if (li != aig::Aig::kNoIndex) keep[li] = 1;
    }
    p.cube.clear();
    for (std::size_t i = 0; i < model_.num_latches(); ++i)
      if (keep[i]) p.cube.push_back(mk_cl(i, p.latches[i]));
    // Semantic lift: greedily X out support latches whose ternary
    // re-simulation still leaves every root at its model value (tern_and is
    // monotone, so a root that stays defined stays *equal*).  The remaining
    // cube, together with the recorded inputs, still forces the roots —
    // exactly the contract obligation replay and lemma learning rely on.
    if (tsim_.has_value() && !p.cube.empty()) {
      tsim_->set_watches(roots);
      tsim_->assign(p.latches, p.inputs);
      Cube lifted;
      lifted.reserve(p.cube.size());
      for (CubeLit l : p.cube) {
        if (tsim_->try_latch_x(cl_index(l)))
          ++stats_.lift_dropped;
        else
          lifted.push_back(l);
      }
      stats_.lift_kept += lifted.size();
      if (obs::enabled()) {
        obs::emit("pdr_lift", {{"before", p.cube.size()},
                               {"after", lifted.size()}});
      }
      p.cube = std::move(lifted);
    }
    if (!p.in_init) restore_init_disjoint_concrete(p.cube, p.latches);
  }

  /// Like restore_init_disjoint but drawing the breaker literal from a full
  /// concrete state known not to be initial.
  void restore_init_disjoint_concrete(Cube& c,
                                      const std::vector<bool>& latches) const {
    if (!intersects_init(c)) return;
    for (std::size_t i = 0; i < model_.num_latches(); ++i) {
      if (reset_[i] >= 0 && (reset_[i] != 0) != latches[i]) {
        CubeLit l = mk_cl(i, latches[i]);
        c.insert(std::lower_bound(c.begin(), c.end(), l), l);
        return;
      }
    }
  }

  // --- queries -------------------------------------------------------------

  /// Relative-induction query: is F_lvl ∧ ¬g ∧ T ∧ g' unsatisfiable?
  /// kUnsat: `core` (if given) receives the subset of g whose primed
  /// literals appear in the failed-assumption core.  kSat: `pred` (if
  /// given) receives the predecessor state, lifted against g's next-state
  /// cone.
  sat::Status consecution(unsigned lvl, const Cube& g, Cube* core,
                          StateModel* pred) {
    ++stats_.queries;
    sat::Lit tmp = new_act();
    std::vector<sat::Lit> cls{sat::neg(tmp)};
    for (CubeLit l : g) cls.push_back(sat::neg(cube_lit_at(l, 0)));
    solver_.add_clause(std::move(cls), 0);

    frame_assumptions(lvl, as_);
    as_.push_back(tmp);
    for (CubeLit l : g) as_.push_back(cube_lit_at(l, 1));
    sat::Status st = solver_.solve_assuming(as_, budget());

    if (st == sat::Status::kUnsat && core) {
      const std::vector<sat::Lit>& failed = solver_.failed_assumptions();
      core->clear();
      for (CubeLit l : g) {
        sat::Lit want = cube_lit_at(l, 1);
        if (std::find(failed.begin(), failed.end(), want) != failed.end())
          core->push_back(l);
      }
    }
    if (st == sat::Status::kSat && pred) {
      std::vector<aig::Lit> roots = constraint_roots_;
      roots.insert(roots.end(), constraint_next_roots_.begin(),
                   constraint_next_roots_.end());
      for (CubeLit l : g) roots.push_back(model_.latch_next(cl_index(l)));
      extract_state(roots, *pred);
    }
    solver_.add_clause({sat::neg(tmp)}, 0);  // retire the ¬g clause
    return st;
  }

  /// Is there a bad state in F_K?  (Constraints hold at the bad frame; no
  /// successor is required — a trace may end there.)
  sat::Status bad_query(StateModel* pred) {
    ++stats_.queries;
    as_.clear();
    as_.push_back(act_c0_);
    as_.push_back(act_inf_);
    for (std::size_t j = k_; j < acts_.size(); ++j) as_.push_back(acts_[j]);
    as_.push_back(bad0_);
    sat::Status st = solver_.solve_assuming(as_, budget());
    if (st == sat::Status::kSat && pred) extract_state(bad_roots_, *pred);
    return st;
  }

  // --- frame trace ---------------------------------------------------------

  /// Is the cube already excluded from F_lvl by a stored lemma?
  bool is_blocked(const Cube& c, unsigned lvl) const {
    for (const Cube& b : inf_cubes_)
      if (cube_subsumes(b, c)) return true;
    for (std::size_t j = lvl; j < stored_.size(); ++j)
      for (const Cube& b : stored_[j])
        if (cube_subsumes(b, c)) return true;
    return false;
  }

  /// Add lemma ¬g at frame j: subsume weaker stored lemmas, record the
  /// cube, and push the guarded clause into the solver.
  void add_blocked(const Cube& g, unsigned j) {
    if (stored_.size() <= j) stored_.resize(j + 1);
    while (acts_.size() <= j) acts_.push_back(new_act());
    for (std::size_t i = 1; i <= j; ++i) {
      auto& list = stored_[i];
      std::size_t before = list.size();
      list.erase(std::remove_if(list.begin(), list.end(),
                                [&](const Cube& b) {
                                  return cube_subsumes(g, b);
                                }),
                 list.end());
      stats_.subsumed += before - list.size();
    }
    stored_[j].push_back(g);
    ++stats_.lemmas;
    stats_.lemma_literals += g.size();
    std::vector<sat::Lit> cls{sat::neg(acts_[j])};
    for (CubeLit l : g) cls.push_back(sat::neg(cube_lit_at(l, 0)));
    solver_.add_clause(std::move(cls), 0);
  }

  /// Plain down step: one consecution query; on UNSAT shrink `g` to the
  /// failed-assumption core (kept init-disjoint and never emptied — an
  /// empty cube's clause is FALSE, which no frame may learn).
  bool down(Cube& g, unsigned lvl) {
    Cube core;
    sat::Status st = consecution(lvl, g, &core, nullptr);
    if (st != sat::Status::kUnsat) return false;
    restore_init_disjoint(core, g);
    if (!core.empty()) g = std::move(core);
    return true;
  }

  /// ctgDown (Hassan/Bradley/Somenzi FMCAD'13): like down, but when the
  /// consecution query is killed by a predecessor state m (a counterexample
  /// to generalization), first try to block m at its own frame — m is often
  /// unreachable, and blocking it both rescues this candidate and
  /// strengthens the trace.  Unblockable predecessors are *joined* into the
  /// candidate (literals m disagrees with are dropped), absorbing m into
  /// the cube.  Bounded by kMaxCtgs per candidate and recursion depth
  /// kCtgDepth; every path keeps `g` init-disjoint.
  bool ctg_down(Cube& g, unsigned lvl, unsigned depth) {
    unsigned ctgs = 0;
    while (true) {
      if (out_of_time()) return false;
      if (intersects_init(g)) return false;
      Cube core;
      StateModel m;
      sat::Status st = consecution(lvl, g, &core, &m);
      if (st == sat::Status::kUnknown) return false;
      if (st == sat::Status::kUnsat) {
        restore_init_disjoint(core, g);
        if (!core.empty()) g = std::move(core);
        return true;
      }
      // m: a state of F_lvl outside g with a transition into g.
      if (lvl > 0 && ctgs < kMaxCtgs && depth <= kCtgDepth && !m.in_init &&
          !intersects_init(m.cube)) {
        Cube ctg_core;
        sat::Status cst = consecution(lvl - 1, m.cube, &ctg_core, nullptr);
        if (cst == sat::Status::kUnknown) return false;
        if (cst == sat::Status::kUnsat) {
          // The CTG is unreachable at its frame: generalize and block it,
          // then retry the candidate against the strengthened trace.
          ++ctgs;
          ++stats_.ctg_blocked;
          Cube gg = generalize(m.cube, lvl - 1, ctg_core, depth + 1);
          unsigned up = push_forward(gg, lvl - 1);
          add_blocked(gg, up + 1);
          continue;
        }
      }
      ++stats_.ctg_abandoned;
      // Join: keep only the literals m agrees with.  m satisfies ¬g, so at
      // least one literal drops and the loop terminates in <= |g| joins.
      Cube joined;
      joined.reserve(g.size());
      for (CubeLit l : g)
        if (m.latches[cl_index(l)] == cl_value(l)) joined.push_back(l);
      if (joined.empty() || joined.size() == g.size()) return false;
      g = std::move(joined);
      ctgs = 0;
    }
  }

  /// Inductive generalization at level lvl (consecution of `s` relative to
  /// F_lvl is known to hold with assumption core `core`): shrink to a
  /// minimal cube that is still init-disjoint and still inducts, using
  /// ctg_down when CTG handling is enabled and plain down otherwise.
  /// `depth` tracks ctgDown recursion (1 = a real obligation cube).
  Cube generalize(const Cube& s, unsigned lvl, const Cube& core,
                  unsigned depth = 1) {
    // Init-free models (every reset_[i] < 0): intersects_init() is true for
    // *every* cube and restore_init_disjoint* cannot repair anything, so no
    // literal ever drops here and down/ctg_down refuse all candidates.
    // That degradation is sound because such models never create
    // obligations in the first place — every state is initial, so any bad
    // or predecessor state surfaces as a depth-0 / in_init counterexample
    // before blocking starts (covered by pdr_test InitFreeModel* tests).
    Cube g = core;
    restore_init_disjoint(g, s);
    if (g.empty()) g = s;  // defensive: empty core on an init-free model
    std::size_t attempts = 0;
    const std::size_t max_attempts = 3 * g.size() + 8;
    std::size_t i = 0;
    while (i < g.size() && g.size() > 1 && attempts < max_attempts) {
      if (out_of_time()) break;  // g is valid as-is
      Cube candidate = g;
      candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
      if (intersects_init(candidate)) {
        ++i;
        continue;
      }
      ++attempts;
      bool shrunk = opts_.pdr_ctg ? ctg_down(candidate, lvl, depth)
                                  : down(candidate, lvl);
      if (shrunk) {
        g = std::move(candidate);
        i = 0;
      } else {
        ++i;
      }
    }
    return g;
  }

  /// Highest level whose consecution still holds for g (>= lvl); the lemma
  /// is then addable at that level + 1.
  unsigned push_forward(const Cube& g, unsigned lvl) {
    while (lvl + 1 <= k_ &&
           consecution(lvl + 1, g, nullptr, nullptr) == sat::Status::kUnsat)
      ++lvl;
    return lvl;
  }

  // --- F_inf ---------------------------------------------------------------

  /// Is clause ¬g inductive on its own (relative to F_inf):
  /// F_inf ∧ ¬g ∧ T ∧ g' unsatisfiable?  Such a clause holds in every
  /// reachable state and belongs to every frame forever.
  bool inductive_check(const Cube& g) {
    ++stats_.queries;
    sat::Lit tmp = new_act();
    std::vector<sat::Lit> cls{sat::neg(tmp)};
    for (CubeLit l : g) cls.push_back(sat::neg(cube_lit_at(l, 0)));
    solver_.add_clause(std::move(cls), 0);
    as_.clear();
    as_.push_back(act_c0_);
    as_.push_back(act_c1_);
    as_.push_back(act_inf_);
    as_.push_back(tmp);
    for (CubeLit l : g) as_.push_back(cube_lit_at(l, 1));
    sat::Status st = solver_.solve_assuming(as_, budget());
    solver_.add_clause({sat::neg(tmp)}, 0);
    return st == sat::Status::kUnsat;
  }

  /// Record a proven-invariant clause: member of every frame from now on.
  void add_to_inf(const Cube& g) {
    inf_cubes_.push_back(g);
    ++stats_.invariant_lemmas;
    std::vector<sat::Lit> cls{sat::neg(act_inf_)};
    for (CubeLit l : g) cls.push_back(sat::neg(cube_lit_at(l, 0)));
    solver_.add_clause(std::move(cls), 0);
    // Invariant clauses subsume frame bookkeeping for the same states.
    for (std::size_t i = 1; i < stored_.size(); ++i) {
      auto& list = stored_[i];
      std::size_t before = list.size();
      list.erase(std::remove_if(list.begin(), list.end(),
                                [&](const Cube& b) {
                                  return cube_subsumes(g, b);
                                }),
                 list.end());
      stats_.subsumed += before - list.size();
    }
  }

  // --- counterexamples -----------------------------------------------------

  /// Build the FAIL result: `initial` is a concrete initial state, `chain`
  /// the first obligation node; following succ links reaches the frontier
  /// node whose inputs assert bad.
  void reconstruct_fail(EngineResult& out, const std::vector<bool>& initial,
                        int chain) {
    out.verdict = Verdict::kFail;
    out.cex.initial_latches = initial;
    out.cex.inputs.clear();
    for (int idx = chain; idx != -1; idx = nodes_[static_cast<std::size_t>(idx)].succ)
      out.cex.inputs.push_back(nodes_[static_cast<std::size_t>(idx)].inputs);
    out.k_fp = out.cex.depth();
    out.j_fp = 0;
  }

  // --- main algorithm ------------------------------------------------------

  StepOutcome handle_obligations(EngineResult& out) {
    while (!queue_.empty()) {
      if (out_of_time()) return StepOutcome::kTimeout;
      Obligation ob = queue_.top();
      queue_.pop();
      ++stats_.obligations;
      if (obs::enabled())
        obs::counters().obligations.fetch_add(1, std::memory_order_relaxed);
      const Cube s = nodes_[ob.node].cube;  // copy: nodes_ may grow
      if (ob.frame == 0) {
        // Normally unreachable (predecessors found relative to F_0 are
        // reported immediately below); rebuild a state from the cube.
        std::vector<bool> initial(model_.num_latches(), false);
        for (std::size_t i = 0; i < model_.num_latches(); ++i)
          if (reset_[i] >= 0) initial[i] = reset_[i] != 0;
        for (CubeLit l : s) initial[cl_index(l)] = cl_value(l);
        reconstruct_fail(out, initial, static_cast<int>(ob.node));
        return StepOutcome::kFailed;
      }
      if (is_blocked(s, ob.frame)) continue;

      Cube core;
      StateModel pred;
      sat::Status st = consecution(ob.frame - 1, s, &core, &pred);
      if (st == sat::Status::kUnknown) return StepOutcome::kTimeout;
      if (st == sat::Status::kSat) {
        if (pred.in_init) {
          // The predecessor is an initial state: the obligation chain is a
          // real counterexample.
          std::vector<bool> initial = pred.latches;
          nodes_.push_back(
              {std::move(pred.cube), std::move(pred.inputs),
               static_cast<int>(ob.node)});
          reconstruct_fail(out, initial, static_cast<int>(nodes_.size()) - 1);
          return StepOutcome::kFailed;
        }
        std::size_t child = nodes_.size();
        nodes_.push_back({std::move(pred.cube), std::move(pred.inputs),
                          static_cast<int>(ob.node)});
        queue_.push({ob.frame - 1, nodes_[child].cube.size(), seq_++, child});
        queue_.push({ob.frame, s.size(), seq_++, ob.node});
      } else {
        Cube g = generalize(s, ob.frame - 1, core);
        unsigned lvl = push_forward(g, ob.frame - 1);
        stats_.gen_dropped += s.size() - g.size();
        if (obs::enabled()) {
          obs::emit("pdr_blocked", {{"frame", ob.frame},
                                    {"pushed_to", lvl + 1},
                                    {"cube", s.size()},
                                    {"generalized", g.size()}});
        }
        add_blocked(g, lvl + 1);
        // Note: no re-enqueue at a higher frame.  Keeping every node at
        // frame = K - (distance to bad) guarantees the first obligation
        // chain reaching S0 is a *shallowest* counterexample; deeper
        // predecessors are rediscovered by the bad query at the next
        // frontier.
      }
    }
    return StepOutcome::kOk;
  }

  /// Block every bad state of F_K.
  StepOutcome strengthen(EngineResult& out) {
    while (true) {
      if (out_of_time()) return StepOutcome::kTimeout;
      StateModel bad;
      sat::Status st = bad_query(&bad);
      if (st == sat::Status::kUnknown) return StepOutcome::kTimeout;
      if (st == sat::Status::kUnsat) return StepOutcome::kOk;
      std::vector<bool> initial = bad.latches;
      bool in_init = bad.in_init;
      std::size_t node = nodes_.size();
      nodes_.push_back({std::move(bad.cube), std::move(bad.inputs), -1});
      if (in_init) {
        // Depth-0 counterexample (possible only without the preliminary
        // check, but handle it for robustness).
        reconstruct_fail(out, initial, static_cast<int>(node));
        return StepOutcome::kFailed;
      }
      queue_.push({k_, nodes_[node].cube.size(), seq_++, node});
      StepOutcome r = handle_obligations(out);
      if (r != StepOutcome::kOk) return r;
    }
  }

  /// Push lemmas forward one frame where they still induct.
  StepOutcome propagate() {
    for (unsigned i = 1; i < k_; ++i) {
      std::vector<Cube> snapshot = stored_[i];
      for (const Cube& c : snapshot) {
        if (out_of_time()) return StepOutcome::kTimeout;
        // Skip cubes subsumed away since the snapshot.
        auto it = std::find(stored_[i].begin(), stored_[i].end(), c);
        if (it == stored_[i].end()) continue;
        sat::Status st = consecution(i, c, nullptr, nullptr);
        if (st == sat::Status::kUnknown) return StepOutcome::kTimeout;
        if (st == sat::Status::kUnsat) {
          stored_[i].erase(it);
          ++stats_.propagated;
          if (i + 1 == k_ && inductive_check(c)) {
            // Reached the frontier and inductive on its own: promote to
            // F_inf.
            add_to_inf(c);
          } else {
            add_blocked(c, i + 1);
          }
        }
      }
    }
    return StepOutcome::kOk;
  }

  /// F_i = F_{i+1} for some i <= K?  Then F_{i+1} is inductive: build it as
  /// a predicate over the state space and report PASS.
  bool fixpoint(EngineResult& out) {
    for (unsigned i = 1; i <= k_; ++i) {
      if (!stored_[i].empty()) continue;
      std::vector<aig::Lit> clauses;
      aig::Aig& g = space_.graph();
      // The clause of a blocked cube: the literal for "latch = value" is
      // the latch's state-space input negated iff value is 1.
      auto clause_pred = [&](const Cube& b) {
        std::vector<aig::Lit> lits;
        lits.reserve(b.size());
        for (CubeLit cl : b)
          lits.push_back(
              aig::lit_xor(space_.latch_input(cl_index(cl)), cl_value(cl)));
        return g.make_or_many(lits);
      };
      // F_i = F_inf clauses plus everything stored above i; both parts are
      // needed for the certificate to be inductive on its own.
      for (const Cube& b : inf_cubes_) clauses.push_back(clause_pred(b));
      for (std::size_t j = i + 1; j < stored_.size(); ++j)
        for (const Cube& b : stored_[j]) clauses.push_back(clause_pred(b));
      invariant_ = g.make_and_many(clauses);
      out.verdict = Verdict::kPass;
      out.j_fp = i;
      return true;
    }
    return false;
  }

  const aig::Aig& model_;
  std::size_t prop_;
  const EngineOptions& opts_;
  StateSpace& space_;
  PdrStats& stats_;
  std::chrono::steady_clock::time_point deadline_;

  sat::Solver solver_;
  cnf::Unroller unr_;
  sat::Lit bad0_ = sat::kNoLit;
  sat::Lit act_init_ = sat::kNoLit;
  sat::Lit act_c0_ = sat::kNoLit;
  sat::Lit act_c1_ = sat::kNoLit;
  sat::Lit act_inf_ = sat::kNoLit;  // guards the proven-invariant clauses
  std::vector<sat::Lit> acts_;  // per-frame lemma activation (index 0 unused)
  std::vector<signed char> reset_;  // per-latch reset value, -1 = undef

  unsigned k_ = 1;  // frontier frame K
  std::vector<std::vector<Cube>> stored_;
  std::vector<Cube> inf_cubes_;  // F_inf: clauses in every frame forever

  std::vector<ObNode> nodes_;
  std::priority_queue<Obligation, std::vector<Obligation>, ObOrder> queue_;
  std::uint64_t seq_ = 0;

  std::vector<aig::Lit> constraint_roots_;
  std::vector<aig::Lit> constraint_next_roots_;
  std::vector<aig::Lit> bad_roots_;
  std::optional<TernarySim> tsim_;  // ternary lifting (opts_.pdr_lift)
  std::vector<sat::Lit> as_;  // assumption scratch

  aig::Lit invariant_ = aig::kTrue;
};

void PdrContext::run(EngineResult& out) {
  while (k_ <= opts_.max_bound) {
    out.k_fp = k_;
    stats_.frames = k_;
    if (obs::enabled()) {
      std::uint64_t lemmas = 0;
      for (const auto& f : stored_) lemmas += f.size();
      obs::emit("pdr_frame", {{"k", k_}, {"lemmas", lemmas}});
    }
    obs::Span obs_frontier("frontier", {{"k", k_}});
    StepOutcome r = strengthen(out);
    if (r == StepOutcome::kFailed) return;
    if (r == StepOutcome::kTimeout) {
      out.verdict = Verdict::kUnknown;
      return;
    }
    r = propagate();
    if (r == StepOutcome::kTimeout) {
      out.verdict = Verdict::kUnknown;
      return;
    }
    if (fixpoint(out)) return;
    ++k_;
    if (stored_.size() <= k_) stored_.resize(k_ + 1);
    while (acts_.size() <= k_) acts_.push_back(new_act());
  }
  out.verdict = Verdict::kUnknown;  // bound exhausted
}

}  // namespace

void PdrEngine::execute(EngineResult& out) {
  pstats_ = PdrStats{};
  PdrContext ctx(model_, prop_, opts_, space_, pstats_, remaining());
  ctx.run(out);
  absorb_session(out, ctx.solver(), pstats_.queries);
  if (out.verdict == Verdict::kPass && !out.certificate.has_value())
    out.certificate = make_certificate(ctx.invariant());
}

}  // namespace itpseq::mc
