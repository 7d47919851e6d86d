#include "mc/kinduction.hpp"

#include "mc/bmc.hpp"
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
  Bmc base(model_, prop_, opts_);
  // Step case: the uninitialized unrolling grows with k; "good"
  // constraints become permanent, targets are assumed per bound.
  sat::Solver step;
  opts_.apply_sat_options(step);
  cnf::Unroller step_unr(model_, step);
  step_unr.assert_constraints(0, 0);
  unsigned step_solves = 0;

  out.verdict = Verdict::kUnknown;
  for (unsigned k = 1; k <= opts_.max_bound; ++k) {
    out.k_fp = k;
    if (out_of_time()) break;
    if (obs::enabled()) {
      obs::counters().bounds.fetch_add(1, std::memory_order_relaxed);
      obs::emit("bound_start", {{"k", k}});
    }
    obs::Span obs_bound("bound", {{"k", k}});

    // --- base(k): counterexample whose first failure is at depth k -------
    {
      obs::Span obs_base("base", {{"k", k}});
      const sat::Status st = base.check(k, sat_budget());
      if (st == sat::Status::kUnknown) break;
      if (st == sat::Status::kSat) {
        out.verdict = Verdict::kFail;
        out.j_fp = 0;
        out.cex = extract_trace(base.solver(), base.unroller(), k);
        break;
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
    for (unsigned i = 0; i < k; ++i) add_distinct(step, step_unr, i, k);

    const sat::Status st =
        step.solve_assuming({step_unr.bad_lit(k, 0, prop_)}, sat_budget());
    ++step_solves;
    if (st == sat::Status::kUnknown) break;
    if (st == sat::Status::kUnsat) {
      // Also when the path constraints themselves became unsatisfiable
      // (!step.ok()): the recurrence diameter is exceeded, so the base
      // cases exhausted all behaviours.
      out.verdict = Verdict::kPass;
      out.j_fp = k;
      break;
    }
  }
  absorb_session(out, base.solver(), base.checks());
  absorb_session(out, step, step_solves);
}

EngineResult check_kinduction(const aig::Aig& model, std::size_t prop,
                              const EngineOptions& opts) {
  return KInductionEngine(model, prop, opts).run();
}

}  // namespace itpseq::mc
