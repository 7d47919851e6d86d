// engine.hpp — base class for the unbounded model-checking engines.
//
// Concrete engines (Figs. 1, 2, 4 and 5 of the paper) share: the model and
// property under check, the wall-clock budget, the symbolic state space for
// interpolants, the depth-0 property check, and counterexample extraction
// from a satisfiable BMC instance.
//
// Cancellation contract (EngineOptions::cancel): engines are cooperative.
// Every engine polls the token at the head of its main loop (out_of_time()
// covers it) and passes it into each SAT call (sat_budget() covers it), so
// a set token surfaces as kUnknown within one short SAT burst.  Engines
// never detach threads or leave work running past run()'s return — the
// threaded portfolio relies on this to join all members after a winner.
#pragma once

#include <chrono>
#include <memory>

#include "aig/aig.hpp"
#include "cnf/unroller.hpp"
#include "mc/itp_session.hpp"
#include "mc/result.hpp"
#include "mc/state_space.hpp"
#include "sat/solver.hpp"
#include "util/mem_budget.hpp"

namespace itpseq::mc {

class Engine {
 public:
  Engine(const aig::Aig& model, std::size_t prop, EngineOptions opts);
  virtual ~Engine() = default;

  /// Run to completion (or budget exhaustion).
  EngineResult run();

  virtual const char* name() const = 0;

  const EngineOptions& options() const { return opts_; }

 protected:
  /// Engine-specific algorithm; `out` pre-filled with engine name.
  virtual void execute(EngineResult& out) = 0;

  /// Seconds left in the budget (>= 0).
  double remaining() const;
  /// Cooperative cancellation requested?
  bool cancelled() const {
    return opts_.cancel != nullptr &&
           opts_.cancel->load(std::memory_order_relaxed);
  }
  /// Budget exhausted (wall clock or hard memory pressure) or cancellation
  /// requested — engines poll this at every loop head and stop with
  /// kUnknown when it fires.  The memory check is one relaxed load when no
  /// --mem-limit is armed; the budget itself is refreshed by the SAT core's
  /// polls, which run far more often than engine loop heads.
  bool out_of_time() const {
    return cancelled() || remaining() <= 0.0 ||
           util::MemoryBudget::instance().hard();
  }
  /// SAT budget covering the remaining engine time (and cancellation).
  sat::Budget sat_budget() const;

  /// Handles trivial properties and the depth-0 check (S0 AND bad(V^0)).
  /// Returns true when the verdict is already decided (out is filled).
  bool preliminary_checks(EngineResult& out);

  /// Read a counterexample of depth k out of a satisfied solver/unrolling.
  Trace extract_trace(const sat::Solver& solver, const cnf::Unroller& unroller,
                      unsigned k) const;

  /// Merge the solver's work since `since` (default: since its creation)
  /// into the running result, as one SAT call.  A long-lived solver passes
  /// the statistics it had before the query, so each query counts once.
  void absorb_stats(EngineResult& out, const sat::Solver& solver,
                    const sat::SolverStats& since = {}) const;
  /// Merge a long-lived solver's work as `queries` SAT calls, once per
  /// run (its counters are cumulative, so absorbing after every query would
  /// sum prefixes); nothing when no query ran.
  void absorb_session(EngineResult& out, const sat::Solver& solver,
                      std::uint64_t queries) const;

  /// One query on a session (mc/itp_session.hpp) from `start` over the
  /// state-set graph, within the engine's budget; its work, and on kUnsat
  /// its refutation's core size, go into `out`.
  sat::Status solve_query(ItpSession& s, aig::Lit start, unsigned n,
                          EngineResult& out);

  /// Build a PASS certificate from a state-set literal of space_.graph()
  /// (see mc/certify.hpp for the conditions the caller guarantees).
  Certificate make_certificate(aig::Lit r) const;

  const aig::Aig& model_;
  std::size_t prop_;
  EngineOptions opts_;
  StateSpace space_;
  std::chrono::steady_clock::time_point start_;
};

/// Convenience: run one engine configuration on a model.
EngineResult check_itp(const aig::Aig& model, std::size_t prop,
                       const EngineOptions& opts = {});
EngineResult check_itpseq(const aig::Aig& model, std::size_t prop,
                          const EngineOptions& opts = {});
EngineResult check_sitpseq(const aig::Aig& model, std::size_t prop,
                           EngineOptions opts = {});
EngineResult check_itpseq_cba(const aig::Aig& model, std::size_t prop,
                              EngineOptions opts = {});
EngineResult check_itpseq_pba(const aig::Aig& model, std::size_t prop,
                              const EngineOptions& opts = {});
EngineResult check_bmc(const aig::Aig& model, std::size_t prop,
                       const EngineOptions& opts = {});
EngineResult check_pdr(const aig::Aig& model, std::size_t prop,
                       const EngineOptions& opts = {});

}  // namespace itpseq::mc
