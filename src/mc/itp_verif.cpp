#include "mc/itp_verif.hpp"

#include <memory>

#include "obs/trace.hpp"

namespace itpseq::mc {

void ItpVerifEngine::execute(EngineResult& out) {
  // One session answers every query of the run: A = front ∧ T(V^0,V^1)
  // (label 1) and the bound-k B = T^{k-1} ∧ (bad at some frame 1..k)
  // (labels 2..k+1), so each interpolant is its refutation's cut 1.  A new
  // session starts at a bound once the proof outgrows ItpSession::kProofCap.
  std::unique_ptr<ItpSession> session;
  const ItpSession::Shape shape{ItpSession::Target::kBoundK};

  // The counterexample ends at the first frame where bad holds.
  auto fail_from = [&](const ItpSession& s, unsigned k) {
    unsigned depth = k;
    for (unsigned t = 1; t <= k; ++t) {
      sat::Lit b = s.unroller().lookup(model_.output(prop_), t);
      if (b != sat::kNoLit && s.solver().model_value(b)) {
        depth = t;
        break;
      }
    }
    out.verdict = Verdict::kFail;
    out.j_fp = 0;
    out.cex = extract_trace(s.solver(), s.unroller(), depth);
  };

  for (unsigned k = 1; k <= opts_.max_bound; ++k) {
    if (!begin_bound(out, k)) return;
    obs::Span obs_bound("bound", {{"k", k}});
    // Nothing survives an outer restart, so the state-set AIG can be
    // garbage-collected wholesale once it grows.
    renew_session(session, shape, {});

    aig::Lit R = space_.init_pred(session->tied_latches());
    aig::Lit front = aig::kNullLit;  // null = S0 (exact initial states)

    for (unsigned j = 0;; ++j) {
      const sat::Status st = solve_query(*session, front, k, out);
      if (st == sat::Status::kUnknown) {
        out.verdict = Verdict::kUnknown;
        return;
      }
      if (st == sat::Status::kSat) {
        if (j == 0) {
          fail_from(*session, k);
          return;
        }
        break;  // spurious: deepen the unrolling
      }
      const aig::Lit I = extract_cuts(*session, session->final(), 1, out)[0];
      // cone_size is an O(cone) DAG walk: keep it behind the gate so the
      // tracing-off path stays free.
      if (obs::enabled()) {
        obs::emit("itp_round", {{"k", k},
                                {"iteration", j + 1},
                                {"itp_nodes", space_.graph().cone_size(I)}});
      }
      if (fixpoint_step(I, R, j + 1, out)) return;
      front = I;
    }
  }
  out.verdict = Verdict::kUnknown;  // bound limit reached
}

}  // namespace itpseq::mc
