#include "mc/kinduction.hpp"

#include "obs/trace.hpp"

namespace itpseq::mc {

void KInductionEngine::add_distinct(sat::Solver& solver, cnf::Unroller& unr,
                                    unsigned i, unsigned j) {
  // OR over latches of (s_i[l] XOR s_j[l]), Tseitin-encoded.
  std::vector<sat::Lit> disj;
  for (std::size_t l = 0; l < model_.num_latches(); ++l) {
    sat::Lit a = unr.latch_lit(l, i, 0);
    sat::Lit b = unr.latch_lit(l, j, 0);
    sat::Lit x = sat::mk_lit(solver.new_var());
    // x <-> a XOR b
    solver.add_clause({sat::neg(x), a, b}, 0);
    solver.add_clause({sat::neg(x), sat::neg(a), sat::neg(b)}, 0);
    solver.add_clause({x, a, sat::neg(b)}, 0);
    solver.add_clause({x, sat::neg(a), b}, 0);
    disj.push_back(x);
  }
  solver.add_clause(disj, 0);
}

void KInductionEngine::execute(EngineResult& out) {
  // Incremental step-case solver: the uninitialized unrolling grows with k;
  // "good" constraints become permanent, targets are assumed per bound.
  sat::Solver step;
  opts_.apply_sat_options(step);
  cnf::Unroller step_unr(model_, step);
  step_unr.assert_constraints(0, 0);

  // The step solver is long-lived and its counters are cumulative, so it is
  // absorbed once per exit path (a per-bound absorb would sum prefixes
  // quadratically); the per-bound base solvers are fresh and absorb inline.
  unsigned step_solves = 0;
  auto finish_step = [&] {
    if (step_solves == 0) return;
    absorb_stats(out, step);
    out.stats.sat_calls += step_solves - 1;
  };

  for (unsigned k = 1; k <= opts_.max_bound; ++k) {
    out.k_fp = k;
    if (out_of_time()) {
      out.verdict = Verdict::kUnknown;
      finish_step();
      return;
    }
    if (obs::enabled()) {
      obs::counters().bounds.fetch_add(1, std::memory_order_relaxed);
      obs::emit("bound_start", {{"k", k}});
    }
    obs::Span obs_bound("bound", {{"k", k}});

    // --- base(k): counterexample of exact depth k ------------------------
    {
      obs::Span obs_base("base", {{"k", k}});
      sat::Solver solver;
      opts_.apply_sat_options(solver);
      cnf::Unroller unr(model_, solver);
      unr.assert_init(0);
      for (unsigned t = 0; t < k; ++t) unr.add_transition(t, 0);
      for (unsigned t = 0; t <= k; ++t) unr.assert_constraints(t, 0);
      solver.add_clause({unr.bad_lit(k, 0, prop_)}, 0);
      sat::Status st = solver.solve(sat_budget());
      absorb_stats(out, solver);
      if (st == sat::Status::kUnknown) {
        out.verdict = Verdict::kUnknown;
        finish_step();
        return;
      }
      if (st == sat::Status::kSat) {
        out.verdict = Verdict::kFail;
        out.j_fp = 0;
        out.cex = extract_trace(solver, unr, k);
        finish_step();
        return;
      }
    }

    // --- step(k): p holds for k steps from *any* state, then fails -------
    obs::Span obs_step("step", {{"k", k}});
    step_unr.add_transition(k - 1, 0);
    step_unr.assert_constraints(k, 0);
    // p at frame k-1 becomes a permanent constraint (it was the assumed
    // target at the previous bound), and the newly created frame k joins
    // the pairwise simple-path constraints.
    step.add_clause({sat::neg(step_unr.bad_lit(k - 1, 0, prop_))}, 0);
    if (unique_states_)
      for (unsigned i = 0; i < k; ++i) add_distinct(step, step_unr, i, k);

    sat::Status st =
        step.solve_assuming({step_unr.bad_lit(k, 0, prop_)}, sat_budget());
    ++step_solves;
    if (st == sat::Status::kUnknown) {
      out.verdict = Verdict::kUnknown;
      finish_step();
      return;
    }
    if (st == sat::Status::kUnsat) {
      if (!step.ok()) {
        // The path constraints themselves became unsatisfiable: the
        // recurrence diameter is exceeded, so the base cases exhausted all
        // behaviours — the property holds.
        out.verdict = Verdict::kPass;
        out.j_fp = k;
        finish_step();
        return;
      }
      out.verdict = Verdict::kPass;
      out.j_fp = k;
      finish_step();
      return;
    }
  }
  out.verdict = Verdict::kUnknown;
  finish_step();
}

EngineResult check_kinduction(const aig::Aig& model, std::size_t prop,
                              const EngineOptions& opts) {
  return KInductionEngine(model, prop, opts).run();
}

}  // namespace itpseq::mc
