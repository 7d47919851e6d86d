#include "mc/engine.hpp"

#include <algorithm>
#include <ios>
#include <new>

#include "aig/compact.hpp"
#include "obs/trace.hpp"
#include "util/mem_budget.hpp"

namespace itpseq::mc {

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kPass:
      return "PASS";
    case Verdict::kFail:
      return "FAIL";
    case Verdict::kUnknown:
      return "UNKNOWN";
    case Verdict::kError:
      return "ERROR";
  }
  return "?";
}

const char* to_string(ErrorKind k) {
  switch (k) {
    case ErrorKind::kNone:
      return "NONE";
    case ErrorKind::kOutOfMemory:
      return "OOM";
    case ErrorKind::kSolverLimit:
      return "SOLVER-LIMIT";
    case ErrorKind::kInternal:
      return "INTERNAL";
    case ErrorKind::kIoError:
      return "IO";
  }
  return "?";
}

ErrorInfo classify_exception(const std::exception& e) {
  ErrorInfo info;
  if (dynamic_cast<const std::bad_alloc*>(&e) != nullptr) {
    info.kind = ErrorKind::kOutOfMemory;
    info.message = "out of memory";
    return info;
  }
  info.message = e.what();
  if (dynamic_cast<const std::ios_base::failure*>(&e) != nullptr ||
      info.message.rfind("aiger:", 0) == 0 ||
      info.message.rfind("blif:", 0) == 0) {
    info.kind = ErrorKind::kIoError;
  } else {
    info.kind = ErrorKind::kInternal;
  }
  return info;
}

Engine::Engine(const aig::Aig& model, std::size_t prop, EngineOptions opts)
    : model_(model), prop_(prop), opts_(opts), space_(model) {}

EngineResult Engine::run() {
  start_ = std::chrono::steady_clock::now();
  // Tag every event this thread emits (including from the SAT core) with
  // the engine's name, and time the whole run as one top-level span.
  obs::ScopedEngine obs_tag(name());
  obs::Span obs_span("run");
  EngineResult out;
  out.engine = name();
  // Containment boundary: execute() mutates `out` in place, so whatever
  // stats accumulated before an exception survive into the kError result.
  try {
    if (!preliminary_checks(out)) execute(out);
  } catch (const std::exception& e) {
    out.verdict = Verdict::kError;
    out.error = classify_exception(e);
  } catch (...) {
    out.verdict = Verdict::kError;
    out.error = {ErrorKind::kInternal, "unknown exception"};
  }
  if (out.verdict == Verdict::kError && obs::enabled()) {
    obs::emit("engine_error",
              {{"engine", name()}, {"kind", to_string(out.error.kind)}});
  }
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  out.stats.state_aig_nodes = space_.graph().num_ands();
  out.stats.fixpoint_checks = space_.num_checks();
  out.stats.fixpoint_sat_calls = space_.num_sat_calls();
  return out;
}

double Engine::remaining() const {
  double used =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  return std::max(0.0, opts_.time_limit_sec - used);
}

sat::Budget Engine::sat_budget() const {
  sat::Budget b;
  b.seconds = remaining();
  b.cancel = opts_.cancel;
  return b;
}

bool Engine::preliminary_checks(EngineResult& out) {
  if (prop_ >= model_.num_outputs()) {
    out.verdict = Verdict::kPass;  // no bad output: vacuously safe
    return true;
  }
  aig::Lit bad = model_.output(prop_);
  if (bad == aig::kFalse) {
    out.verdict = Verdict::kPass;
    out.certificate = make_certificate(aig::kTrue);  // bad is constant false
    return true;
  }
  // Depth-0 check: S0 AND bad(V^0).
  sat::Solver solver;
  opts_.apply_sat_options(solver);
  cnf::Unroller unr(model_, solver);
  unr.assert_init(0);
  unr.assert_constraints(0, 0);
  solver.add_clause({unr.bad_lit(0, 0, prop_)}, 0);
  switch (solver.solve(sat_budget())) {
    case sat::Status::kSat:
      out.verdict = Verdict::kFail;
      out.k_fp = 0;
      out.cex = extract_trace(solver, unr, 0);
      return true;
    case sat::Status::kUnsat:
      return false;  // continue with the main algorithm
    case sat::Status::kUnknown:
      out.verdict = Verdict::kUnknown;
      return true;
  }
  return false;
}

Trace Engine::extract_trace(const sat::Solver& solver,
                            const cnf::Unroller& unroller, unsigned k) const {
  Trace t;
  t.initial_latches.resize(model_.num_latches(), false);
  // A latch with a defined reset starts there, whether or not a clause
  // constrains its frame-0 variable (an untied latch is free); the model
  // decides only undefined resets.
  for (std::size_t i = 0; i < model_.num_latches(); ++i) {
    const sat::Lit l = unroller.lookup(model_.latch(i), 0);
    if (model_.latch_init(i) != aig::LatchInit::kUndef)
      t.initial_latches[i] = model_.latch_init(i) == aig::LatchInit::kOne;
    else if (l != sat::kNoLit)
      t.initial_latches[i] = solver.model_value(l);
  }
  for (unsigned f = 0; f <= k; ++f) {
    std::vector<bool> in(model_.num_inputs(), false);
    for (std::size_t i = 0; i < model_.num_inputs(); ++i) {
      sat::Lit l = unroller.lookup(model_.input(i), f);
      if (l != sat::kNoLit) in[i] = solver.model_value(l);
    }
    t.inputs.push_back(std::move(in));
  }
  return t;
}

Certificate Engine::make_certificate(aig::Lit r) const {
  aig::CompactResult c = aig::compact(space_.graph(), {r});
  return Certificate{std::move(c.graph), c.roots[0]};
}

void Engine::absorb_stats(EngineResult& out, const sat::Solver& solver,
                          const sat::SolverStats& since) const {
  ++out.stats.sat_calls;
  const sat::SolverStats& s = solver.stats();
  out.stats.sat_conflicts += s.conflicts - since.conflicts;
  out.stats.sat_propagations += s.propagations - since.propagations;
  out.stats.sat_bin_propagations += s.bin_propagations - since.bin_propagations;
  out.stats.sat_assumption_propagations +=
      s.assumption_propagations - since.assumption_propagations;
  out.stats.sat_assumption_levels +=
      s.assumption_levels - since.assumption_levels;
  out.stats.sat_gc_runs += s.gc_runs - since.gc_runs;
  out.stats.sat_arena_reclaimed +=
      s.wasted_bytes_reclaimed - since.wasted_bytes_reclaimed;
  out.stats.sat_arena_peak = std::max<std::size_t>(
      out.stats.sat_arena_peak, s.peak_arena_bytes);
  for (std::size_t i = 0; i < s.glue_hist.size(); ++i)
    out.stats.sat_glue_hist[i] += s.glue_hist[i] - since.glue_hist[i];
  out.stats.sat_inprocess_rounds += s.inprocess_rounds - since.inprocess_rounds;
  out.stats.sat_subsumed +=
      s.subsumed + s.strengthened - since.subsumed - since.strengthened;
  out.stats.sat_vars_eliminated += s.vars_eliminated - since.vars_eliminated;
  out.stats.sat_vivified += s.vivified - since.vivified;
  out.stats.sat_failed_literals += s.failed_literals - since.failed_literals;
  out.stats.sat_hyper_binaries += s.hyper_binaries - since.hyper_binaries;
  out.stats.sat_model_extensions +=
      s.model_extensions - since.model_extensions;
}

void Engine::absorb_session(EngineResult& out, const sat::Solver& solver,
                            std::uint64_t queries) const {
  if (queries == 0) return;
  absorb_stats(out, solver);
  out.stats.sat_calls += queries - 1;
}

sat::Status Engine::solve_query(ItpSession& s, aig::Lit start, unsigned n,
                                EngineResult& out) {
  const sat::SolverStats before = s.solver().stats();
  const sat::Status st = s.query(space_.graph(), start, n, sat_budget());
  absorb_stats(out, s.solver(), before);
  if (st == sat::Status::kUnsat)
    out.stats.proof_clauses += s.proof().core(s.final()).size();
  return st;
}

}  // namespace itpseq::mc
