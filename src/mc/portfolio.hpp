// portfolio.hpp — a portfolio of model-checking engines.
//
// The paper positions ITPSEQ as "an additional engine within a potential
// portfolio of available MC techniques" (Section IV).  This engine realizes
// that with a worker pool: member engines run concurrently on std::threads,
// the first definite verdict wins, and all peers are torn down through
// cooperative cancellation.
//
// Scheduler.  A pool of `jobs` workers (default: one per member; lists
// longer than max(8, hardware concurrency) are capped there) pulls members
// from the queue in list order.  Each member is capped at its fair share of
// the pool's remaining capacity (remaining * jobs / members still queued),
// so queued members cannot be starved: with jobs >= members every member
// runs once with the full remaining budget, and jobs = 1 is a pool of one
// that runs the members one at a time in list order — a deterministic
// cross-check, and the mode for single-core hosts.  Deliberate
// oversubscription by default: members are pure CPU burners, so even with
// fewer cores than members racing + early cancellation beats time slicing.
//
// Cancellation contract.  The portfolio owns one std::atomic<bool> token
// handed to every member via EngineOptions::cancel.  Engines must *poll*
// it (loop heads + sat::Budget::cancel) and return kUnknown promptly; they
// never detach work.  check_portfolio() therefore joins every worker
// before returning — no engine thread outlives the call.  An external
// token in engine_defaults.cancel is relayed to the internal one, so a
// caller can cancel the whole portfolio.
//
// Members share nothing but the cancellation token.  The paper proposes no
// lemma sharing, and a measured cross-engine lemma exchange decided no
// design of the generator suite that the members did not decide alone
// (ROADMAP, item 5).
//
// Failure containment.  A member that dies (bad_alloc, internal error) is
// a *result*, not a process death: run_member converts the exception into
// a Verdict::kError result carrying an ErrorInfo, the scheduler records it
// in EngineResult::members and keeps racing the survivors, and the
// portfolio itself returns kError only when every member failed.  A
// watchdog (sharing the external-cancel guard thread) escalates a deadline
// that cooperative cancellation missed — an engine stalled outside its
// poll loop — by forcing cancellation after watchdog_grace_sec past the
// budget and annotating the kUnknown result with ErrorKind::kSolverLimit.
//
// Self-healing.  Only a member that died of kOutOfMemory is relaunched:
// that cause can pass (a peer's allocation spike), and degrade_for_retry
// changes the configuration for it.  A deterministic engine relaunched
// after kInternal/kIoError would replay the same failure, so those stay
// the member's outcome.  At most util::kMaxRelaunches relaunches, each
// after a jittered exponential backoff (util/retry.hpp); a relaunch starts
// cold under the degraded options.  Retry history (restarts / last_error)
// is kept per member in EngineResult::members; each relaunch emits a
// member_restart obs event.
//
// Determinism.  For a fixed sim_seed the random-simulation member explores
// one fixed trace enumeration of a fixed size for every `jobs` value
// (independent of wall-clock and thread interleaving), and every SAT
// member is deterministic in isolation, so the portfolio *verdict* is
// independent of `jobs` whenever the budget suffices; budget truncation
// can only degrade a definite verdict to UNKNOWN, never flip PASS/FAIL.
// On closed circuits (forced traces) the reported counterexample is
// jobs-independent too.
#pragma once

#include <atomic>
#include <vector>

#include "mc/engine.hpp"

namespace itpseq::mc {

/// Member engines available to the portfolio.
enum class PortfolioMember : std::uint8_t {
  kRandomSim,  ///< 64-way random simulation (falsification only)
  kBmc,        ///< plain BMC (falsification only)
  kItp,        ///< standard interpolation (Fig. 1)
  kItpSeq,     ///< parallel sequences (Fig. 2)
  kSItpSeq,    ///< serial sequences, alpha = 0.5 (Fig. 4)
  kItpSeqCba,  ///< sequences + abstraction (Fig. 5)
  kKInduction, ///< temporal induction baseline
  kPdr,        ///< property-directed reachability (IC3)
};

const char* to_string(PortfolioMember m);

struct PortfolioOptions {
  /// Default member list (a function, not an NSDMI initializer list: GCC 12
  /// flags the inlined initializer_list copy with -Wmaybe-uninitialized).
  static std::vector<PortfolioMember> default_members() {
    return {PortfolioMember::kRandomSim, PortfolioMember::kItp,
            PortfolioMember::kPdr, PortfolioMember::kSItpSeq,
            PortfolioMember::kItpSeqCba};
  }
  /// Member list, started in order as workers free up.
  std::vector<PortfolioMember> members = default_members();
  /// Worker threads: 0 = one per member (lists longer than max(8, hardware
  /// concurrency) are capped there), N = pool of N threads; 1 runs the
  /// members one at a time in list order.
  unsigned jobs = 0;
  /// Seed of the random-simulation member; fixes its trace enumeration so
  /// verdicts are reproducible regardless of jobs/interleaving.
  std::uint64_t sim_seed = 1;
  double time_limit_sec = 60.0;
  /// Grace period past time_limit_sec before the watchdog escalates
  /// (forces internal cancellation and tags the result with
  /// ErrorKind::kSolverLimit).  Engines are cooperative, so this only
  /// fires when a member misses its own deadline polls.  <= 0 disables.
  double watchdog_grace_sec = 5.0;
  EngineOptions engine_defaults;
  /// Test instrumentation: incremented when a member starts, decremented
  /// when it returns.  After check_portfolio() returns it reads 0 — the
  /// join-all guarantee made observable.
  std::atomic<int>* active_probe = nullptr;
};

/// Mutate `eo` so an out-of-memory relaunch sheds the allocation-heavy
/// machinery: inprocessing off, learnt cap clamped, earlier state-set
/// compaction.  Caller-chosen tighter caps are kept.
void degrade_for_retry(EngineOptions& eo);

/// Run the portfolio; the winning member's name is recorded in
/// EngineResult::engine (prefixed with "portfolio/").
EngineResult check_portfolio(const aig::Aig& model, std::size_t prop,
                             const PortfolioOptions& opts = {});

/// Pure random-simulation falsifier: simulates `rounds` batches of 64
/// random input sequences of length `depth`; FAIL with a replayable trace
/// or UNKNOWN (never PASS).  The enumeration order depends only on `seed`,
/// so the outcome is deterministic; `cancel` and `time_limit_sec` only
/// truncate the sweep (returning UNKNOWN early).
EngineResult check_random_sim(const aig::Aig& model, std::size_t prop,
                              unsigned depth, unsigned rounds,
                              std::uint64_t seed = 1,
                              const std::atomic<bool>* cancel = nullptr,
                              double time_limit_sec = -1.0);

}  // namespace itpseq::mc
