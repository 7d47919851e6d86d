#include "mc/itp_verif.hpp"

#include <memory>
#include <unordered_map>

#include "itp/interpolate.hpp"
#include "obs/trace.hpp"

namespace itpseq::mc {

void ItpVerifEngine::execute(EngineResult& out) {
  aig::Aig& G = space_.graph();

  // One session answers every query of the run: A = front ∧ T(V^0,V^1)
  // (label 1) and the bound-k B = T^{k-1} ∧ (bad at some frame 1..k)
  // (label 2).  A new session starts at a bound once the proof outgrows
  // ItpSession::kProofCap.
  std::unique_ptr<ItpSession> session;
  const ItpSession::Shape shape{ItpSession::Layout::kStandard};

  auto extract_cut1 = [&](const ItpSession& s) {
    itp::InterpolantExtractor ex(s.proof(), s.final());
    std::unordered_map<sat::Var, aig::Lit> leaf;
    for (std::size_t i = 0; i < model_.num_latches(); ++i) {
      sat::Lit sl = s.unroller().lookup(model_.latch(i), 1);
      leaf[sat::var(sl)] = aig::lit_xor(space_.latch_input(i), sat::sign(sl));
    }
    return ex.extract(
        G, 1,
        [&](sat::Var v) {
          auto it = leaf.find(v);
          return it == leaf.end() ? aig::kNullLit : it->second;
        },
        opts_.itp_system);
  };

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
    out.k_fp = k;
    out.j_fp = 0;
    out.cex = extract_trace(s.solver(), s.unroller(), depth);
  };

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
    // Nothing survives an outer restart, so the state-set AIG can be
    // garbage-collected wholesale once it grows.
    if (opts_.compact_threshold > 0 && G.num_ands() > opts_.compact_threshold)
      space_.compact({});
    if (!session || session->proof().size() > ItpSession::kProofCap)
      session = std::make_unique<ItpSession>(model_, prop_, opts_, shape);

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
      const aig::Lit I = extract_cut1(*session);

      // cone_size is an O(cone) DAG walk: keep it behind the gate so the
      // tracing-off path stays free.
      if (obs::enabled()) {
        obs::emit("itp_round", {{"k", k},
                                {"iteration", j + 1},
                                {"itp_nodes", G.cone_size(I)}});
      }
      out.stats.max_itp_nodes = std::max(out.stats.max_itp_nodes, G.cone_size(I));
      Implication imp = space_.implies(I, R, remaining(), opts_.cancel);
      if (imp == Implication::kHolds) {
        out.verdict = Verdict::kPass;
        out.k_fp = k;
        out.j_fp = j + 1;
        out.certificate = make_certificate(R);
        return;
      }
      if (imp == Implication::kUnknown) {
        out.verdict = Verdict::kUnknown;
        return;
      }
      R = G.make_or(R, I);
      front = I;
    }
  }
  out.verdict = Verdict::kUnknown;  // bound limit reached
}

}  // namespace itpseq::mc
