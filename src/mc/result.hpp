// result.hpp — common result/option types for model-checking engines.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "cnf/unroller.hpp"
#include "itp/interpolate.hpp"

namespace itpseq::mc {

/// A PASS certificate: `root` is a predicate over `graph`, whose input i
/// stands for model latch i.  The set R it denotes satisfies the four
/// conditions documented in mc/certify.hpp, making R AND NOT bad an
/// inductive safety invariant.
struct Certificate {
  aig::Aig graph;
  aig::Lit root = aig::kTrue;
};

enum class Verdict : std::uint8_t {
  kPass,     ///< property proved
  kFail,     ///< counterexample found
  kUnknown,  ///< resource budget exhausted ("ovf" in Table I terms)
  kError,    ///< the engine itself failed (exception contained at its
             ///< boundary); see ErrorInfo for the taxonomy
};
// kUnknown vs kError: kUnknown is a *healthy* run that ran out of budget
// (time, bound, memory ladder) — retrying with more resources may succeed.
// kError means the computation broke (OOM mid-extraction, I/O failure,
// internal invariant violation); the partial stats are still reported but
// the run is not retry-with-more-budget territory.  The portfolio returns
// kError only when *every* member failed — a single crashed member is
// reported per-member while survivors keep racing.

const char* to_string(Verdict v);

/// Failure taxonomy attached to kError results.
enum class ErrorKind : std::uint8_t {
  kNone,         ///< no error (default-constructed ErrorInfo)
  kOutOfMemory,  ///< std::bad_alloc escaped the engine
  kSolverLimit,  ///< solver-side limit tripped abnormally (e.g. the
                 ///< watchdog had to escalate a missed deadline)
  kInternal,     ///< invariant violation / unexpected exception
  kIoError,      ///< model or witness I/O failed
};

/// Static-storage name ("OOM", "INTERNAL", ...) — safe to hand to obs.
const char* to_string(ErrorKind k);

struct ErrorInfo {
  ErrorKind kind = ErrorKind::kNone;
  std::string message;
};

/// Map a caught exception onto the taxonomy: bad_alloc -> kOutOfMemory,
/// parser failures (ios_base::failure or an "aiger:"/"blif:" message
/// prefix) -> kIoError, anything else -> kInternal.
ErrorInfo classify_exception(const std::exception& e);

/// One portfolio member's fate, reported even when another member won.
/// A member that died of kOutOfMemory is relaunched (see portfolio.hpp),
/// so one entry may span several attempts: `verdict`/`error` describe the
/// final attempt, `seconds` accumulates across all of them, and the retry
/// history is in `restarts`/`last_error`.
struct MemberOutcome {
  std::string member;                  ///< engine name (to_string form)
  Verdict verdict = Verdict::kUnknown;
  double seconds = 0.0;                ///< summed over all attempts
  unsigned k_fp = 0;                   ///< final attempt's bound reached
  ErrorInfo error;                     ///< kind != kNone iff verdict == kError
  /// Times this member was relaunched after an out-of-memory death (0 =
  /// first attempt stood).  A healthy final verdict with restarts > 0
  /// means the self-healing path recovered the member.
  unsigned restarts = 0;
  /// The error that triggered the most recent relaunch — preserved even
  /// when the relaunched attempt finished healthy (error.kind would then
  /// be kNone and the crash history invisible without this).
  ErrorInfo last_error;
};

/// A concrete counterexample: initial latch values plus one input vector per
/// time frame.  The trace has frames 0..depth(); the bad output is 1 at
/// frame depth() (after depth() transitions).
struct Trace {
  std::vector<bool> initial_latches;        // indexed by latch
  std::vector<std::vector<bool>> inputs;    // [frame][input], depth()+1 frames
  unsigned depth() const {
    return inputs.empty() ? 0 : static_cast<unsigned>(inputs.size()) - 1;
  }
};

/// Knobs shared by all engines.
struct EngineOptions {
  double time_limit_sec = 60.0;   ///< total wall-clock budget
  unsigned max_bound = 500;       ///< give up beyond this BMC bound
  /// Target of the sequence engines' BMC checks (Section III); CBA always
  /// uses exact-k (Fig. 5), standard ITP the bound-k target its soundness
  /// needs, and BMC and k-induction the assume-k one (mc/bmc.hpp).
  cnf::TargetScheme scheme = cnf::TargetScheme::kExactAssume;
  /// Labeled interpolation system used to extract interpolants.  McMillan
  /// is the paper's system; Pudlak / inverse McMillan give progressively
  /// weaker (larger) state sets from the same proofs.
  itp::System itp_system = itp::System::kMcMillan;
  /// Serial fraction alpha_s of Fig. 4: 0 = parallel ITPSEQ,
  /// 1 = fully serial; the paper's SITPSEQ uses 0.5.
  double serial_alpha = 0.0;
  /// Sequence engines: garbage-collect the state-set AIG between bounds
  /// once it exceeds this node count (0 = never).  Bounds the growth of the
  /// interpolant store over long runs.
  std::size_t compact_threshold = 200000;
  /// PDR: shrink predecessor/bad cubes by ternary-simulation lifting
  /// (Eén/Mishchenko/Brayton FMCAD'11) instead of the syntactic
  /// cone-of-influence lift alone.
  bool pdr_lift = true;
  /// PDR: CTG-aware inductive generalization (ctgDown of
  /// Hassan/Bradley/Somenzi, "Better Generalization in IC3", FMCAD'13):
  /// when dropping a literal fails because of a counterexample-to-
  /// generalization state, try to block that state at its own frame.
  bool pdr_ctg = true;
  /// Inprocessing (subsumption / bounded variable elimination /
  /// vivification / failed-literal probing inside every SAT solver the
  /// engine creates; see sat::Solver::set_inprocess).  Proof-logging safe:
  /// every rewrite is a logged resolution, so verdicts stay sound and
  /// proofs and interpolants stay valid.  A round does change the search,
  /// though, so proofs, interpolants and the bound an interpolation engine
  /// converges at can differ.  Rounds must be paid for
  /// by reuse or by search (sat/solver.hpp), so one-shot solvers (a
  /// certificate check) run one only after a long search, and long-lived
  /// ones (every engine's session) run them routinely.
  bool sat_inprocess = true;
  /// Learned-clause cap override for every SAT solver the engine creates
  /// (sat::Solver::set_reduce_base); 0 keeps the solver default.  The
  /// portfolio's OOM degradation ladder clamps this on relaunch to shrink
  /// the dominant allocation.
  double sat_reduce_base = 0.0;
  /// Cooperative cancellation token (non-owning; may be null).  The
  /// contract every engine implements: *poll* the flag at loop heads and
  /// inside SAT calls (via sat::Budget::cancel) and return kUnknown
  /// promptly once it is set.  Engines never detach work — when run() has
  /// returned, no engine-owned computation is still executing, which is
  /// what lets the portfolio join all member threads after a winner.
  std::atomic<bool>* cancel = nullptr;

  /// Apply the SAT-core knobs above to a solver the engine created.  This
  /// is the single place that knows the full knob list — engines call it
  /// at every solver-construction site instead of hand-rolling the
  /// setters, so a new knob (like the OOM ladder's sat_reduce_base)
  /// reaches every solver at once.
  void apply_sat_options(sat::Solver& s) const {
    s.set_inprocess(sat_inprocess);
    if (sat_reduce_base > 0.0) s.set_reduce_base(sat_reduce_base);
  }
};

/// Aggregate statistics engines expose for the benchmark tables.
struct EngineStats {
  std::uint64_t sat_calls = 0;
  std::uint64_t sat_conflicts = 0;
  std::uint64_t sat_propagations = 0;      // all implications derived
  std::uint64_t sat_bin_propagations = 0;  // share from inline binary watchers
  /// Search at assumption levels (sat::SolverStats counterparts): the
  /// implications made there and the levels opened.
  std::uint64_t sat_assumption_propagations = 0;
  std::uint64_t sat_assumption_levels = 0;
  std::uint64_t sat_gc_runs = 0;           // clause-arena compactions
  std::uint64_t sat_arena_reclaimed = 0;   // bytes GC gave back
  std::size_t sat_arena_peak = 0;          // largest clause arena seen
  /// Learned-clause glue histogram summed over all solvers (bucket
  /// min(LBD, 8) - 1; see sat::SolverStats::glue_hist).
  std::array<std::uint64_t, 8> sat_glue_hist{};
  /// Inprocessing totals over all solvers (sat::SolverStats counterparts).
  std::uint64_t sat_inprocess_rounds = 0;
  std::uint64_t sat_subsumed = 0;          // subsumption + strengthening
  std::uint64_t sat_vars_eliminated = 0;   // BVE commits
  std::uint64_t sat_vivified = 0;          // clauses shortened by vivify
  std::uint64_t sat_failed_literals = 0;   // probe-derived units
  std::uint64_t sat_hyper_binaries = 0;    // probe-derived binaries
  /// Lazy model extensions run over BVE-eliminated vars (at most one per
  /// SAT answer; see sat::Solver::model()).  Exact for solvers absorbed once
  /// per run (PDR, BMC, k-induction); a session query's reads after its
  /// work was absorbed (a FAIL trace, a CBA refinement) are not counted.
  std::uint64_t sat_model_extensions = 0;
  std::uint64_t proof_clauses = 0;     // total core clauses over all proofs
  std::size_t max_itp_nodes = 0;       // largest interpolant AIG cone
  std::size_t state_aig_nodes = 0;     // final state-set AIG size
  std::uint64_t fixpoint_checks = 0;     // StateSpace::implies() calls
  std::uint64_t fixpoint_sat_calls = 0;  // ... that reached its checker
  unsigned cba_visible_latches = 0;    // CBA only: final abstraction size
  unsigned cba_refinements = 0;        // CBA only

  /// Cross-run aggregation for benchmark tables: counters are summed,
  /// high-water / size fields take the maximum.  Keep this the single
  /// place that knows every field — drivers must not hand-roll the list.
  EngineStats& operator+=(const EngineStats& s) {
    sat_calls += s.sat_calls;
    sat_conflicts += s.sat_conflicts;
    sat_propagations += s.sat_propagations;
    sat_bin_propagations += s.sat_bin_propagations;
    sat_assumption_propagations += s.sat_assumption_propagations;
    sat_assumption_levels += s.sat_assumption_levels;
    sat_gc_runs += s.sat_gc_runs;
    sat_arena_reclaimed += s.sat_arena_reclaimed;
    if (s.sat_arena_peak > sat_arena_peak) sat_arena_peak = s.sat_arena_peak;
    for (std::size_t i = 0; i < sat_glue_hist.size(); ++i)
      sat_glue_hist[i] += s.sat_glue_hist[i];
    sat_inprocess_rounds += s.sat_inprocess_rounds;
    sat_subsumed += s.sat_subsumed;
    sat_vars_eliminated += s.sat_vars_eliminated;
    sat_vivified += s.sat_vivified;
    sat_failed_literals += s.sat_failed_literals;
    sat_hyper_binaries += s.sat_hyper_binaries;
    sat_model_extensions += s.sat_model_extensions;
    proof_clauses += s.proof_clauses;
    if (s.max_itp_nodes > max_itp_nodes) max_itp_nodes = s.max_itp_nodes;
    if (s.state_aig_nodes > state_aig_nodes) state_aig_nodes = s.state_aig_nodes;
    fixpoint_checks += s.fixpoint_checks;
    fixpoint_sat_calls += s.fixpoint_sat_calls;
    if (s.cba_visible_latches > cba_visible_latches)
      cba_visible_latches = s.cba_visible_latches;
    cba_refinements += s.cba_refinements;
    return *this;
  }
};

struct EngineResult {
  Verdict verdict = Verdict::kUnknown;
  /// BMC bound at fixpoint/failure (k_fp in Table I; last attempted bound
  /// for kUnknown, matching the parenthesised ovf entries).
  unsigned k_fp = 0;
  /// Depth of the forward over-approximate traversal at the fixpoint
  /// (j_fp in Table I; 0 on failure, as in the paper).
  unsigned j_fp = 0;
  double seconds = 0.0;
  std::string engine;
  Trace cex;  // valid iff verdict == kFail
  /// Inductive-invariant certificate; emitted by the interpolation engines
  /// on kPass (check with mc::check_certificate).
  std::optional<Certificate> certificate;
  /// Why the run errored; kind == kNone unless verdict == kError, except
  /// that a watchdog-salvaged kUnknown records kSolverLimit here so the
  /// missed deadline is visible in reports.
  ErrorInfo error;
  /// Portfolio runs only: per-member fates, including members that lost the
  /// race or crashed (their ErrorInfo is preserved here and in run_report).
  std::vector<MemberOutcome> members;
  EngineStats stats;
};

}  // namespace itpseq::mc
