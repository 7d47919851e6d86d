#include "mc/bmc.hpp"

#include "obs/trace.hpp"

namespace itpseq::mc {

namespace {
/// Tie only the latches in the cone of influence: no other can change
/// whether the target is reachable, so the others stay free.
void tie_cone(cnf::Unroller& unr, const std::vector<bool>& coi) {
  unr.set_tie_policy([&coi](std::size_t i, unsigned) {
    return coi[i] ? sat::kNoLit : cnf::Unroller::kUntied;
  });
}
}  // namespace

void BmcEngine::execute(EngineResult& out) {
  const std::vector<bool> coi = model_.latch_coi(prop_);
  if (opts_.bmc_incremental) {
    execute_incremental(out, coi);
    return;
  }
  for (unsigned k = 1; k <= opts_.max_bound; ++k) {
    out.k_fp = k;
    if (out_of_time()) {
      out.verdict = Verdict::kUnknown;
      return;
    }
    if (obs::enabled()) {
      obs::counters().bounds.fetch_add(1, std::memory_order_relaxed);
      obs::emit("bound_start", {{"k", k}});
    }
    obs::Span obs_bound("bound", {{"k", k}});
    sat::Solver solver;
    opts_.apply_sat_options(solver);
    cnf::Unroller unr(model_, solver);
    tie_cone(unr, coi);
    unr.assert_init(0);
    for (unsigned t = 0; t < k; ++t) unr.add_transition(t, 0);
    for (unsigned t = 0; t <= k; ++t) unr.assert_constraints(t, 0);
    unr.assert_target(k, opts_.scheme, 0);

    sat::Status status = solver.solve(sat_budget());
    absorb_stats(out, solver);

    switch (status) {
      case sat::Status::kSat: {
        // With bound-k the violation can be at any frame <= k.
        unsigned depth = k;
        if (opts_.scheme == cnf::TargetScheme::kBound) {
          for (unsigned t = 1; t <= k; ++t) {
            sat::Lit b = unr.lookup(model_.output(prop_), t);
            if (b != sat::kNoLit &&
                sat::lbool_xor(solver.model()[sat::var(b)], sat::sign(b)) ==
                    sat::LBool::kTrue) {
              depth = t;
              break;
            }
          }
        }
        out.verdict = Verdict::kFail;
        out.j_fp = 0;
        out.cex = extract_trace(solver, unr, depth);
        return;
      }
      case sat::Status::kUnsat:
        break;
      case sat::Status::kUnknown:
        out.verdict = Verdict::kUnknown;
        return;
    }
  }
  out.verdict = Verdict::kUnknown;
}

void BmcEngine::execute_incremental(EngineResult& out,
                                    const std::vector<bool>& coi) {
  // Single-instance formulation: one solver, the unrolling grows by one
  // frame per bound, targets are enabled by assumptions.  With the
  // exact-assume scheme the "no earlier failure" clauses become permanent
  // as the bound moves on, which encodes "first failure at depth k".
  sat::Solver solver;
  opts_.apply_sat_options(solver);
  cnf::Unroller unr(model_, solver);
  tie_cone(unr, coi);
  unr.assert_init(0);
  unr.assert_constraints(0, 0);
  // One long-lived solver: its counters are cumulative, so absorb once per
  // exit path (a per-bound absorb would sum prefixes quadratically) and
  // account the per-bound queries separately.
  unsigned solves = 0;
  auto finish = [&] {
    if (solves == 0) return;  // timed out before the first query
    absorb_stats(out, solver);
    out.stats.sat_calls += solves - 1;
  };

  for (unsigned k = 1; k <= opts_.max_bound; ++k) {
    out.k_fp = k;
    if (out_of_time()) {
      out.verdict = Verdict::kUnknown;
      finish();
      return;
    }
    if (obs::enabled()) {
      obs::counters().bounds.fetch_add(1, std::memory_order_relaxed);
      obs::emit("bound_start", {{"k", k}});
    }
    obs::Span obs_bound("bound", {{"k", k}});
    unr.add_transition(k - 1, 0);
    unr.assert_constraints(k, 0);
    if (opts_.scheme == cnf::TargetScheme::kExactAssume && k >= 2)
      solver.add_clause({sat::neg(unr.bad_lit(k - 1, 0, prop_))}, 0);

    std::vector<sat::Lit> assumptions;
    if (opts_.scheme == cnf::TargetScheme::kBound) {
      sat::Lit act = sat::mk_lit(solver.new_var());
      std::vector<sat::Lit> cl{sat::neg(act)};
      for (unsigned t = 1; t <= k; ++t) cl.push_back(unr.bad_lit(t, 0, prop_));
      solver.add_clause(cl, 0);
      assumptions.push_back(act);
    } else {
      assumptions.push_back(unr.bad_lit(k, 0, prop_));
    }

    sat::Status status = solver.solve_assuming(assumptions, sat_budget());
    ++solves;

    switch (status) {
      case sat::Status::kSat: {
        unsigned depth = k;
        if (opts_.scheme == cnf::TargetScheme::kBound) {
          for (unsigned t = 1; t <= k; ++t) {
            sat::Lit b = unr.lookup(model_.output(prop_), t);
            if (b != sat::kNoLit &&
                sat::lbool_xor(solver.model()[sat::var(b)], sat::sign(b)) ==
                    sat::LBool::kTrue) {
              depth = t;
              break;
            }
          }
        }
        out.verdict = Verdict::kFail;
        out.j_fp = 0;
        out.cex = extract_trace(solver, unr, depth);
        finish();
        return;
      }
      case sat::Status::kUnsat:
        if (!solver.ok()) {
          // The clause set itself became unsatisfiable: no path can delay
          // the first failure this far, and shallower bounds were refuted.
          out.verdict = Verdict::kUnknown;
          finish();
          return;
        }
        break;
      case sat::Status::kUnknown:
        out.verdict = Verdict::kUnknown;
        finish();
        return;
    }
  }
  out.verdict = Verdict::kUnknown;
  finish();
}

}  // namespace itpseq::mc
