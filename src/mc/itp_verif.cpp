#include "mc/itp_verif.hpp"

#include <memory>
#include <unordered_map>

#include "itp/interpolate.hpp"
#include "mc/lemma_exchange.hpp"
#include "obs/trace.hpp"

namespace itpseq::mc {

void ItpVerifEngine::execute(EngineResult& out) {
  aig::Aig& G = space_.graph();

  // Lemma exchange: consumed kInvariant lemmas behave exactly like model
  // invariant constraints (they hold in every reachable state and are
  // inductive), so they are asserted wherever constraints are — every
  // frame of every instance — and conjoined into the fixpoint target and
  // the PASS certificate.  kFrame lemmas are NOT used here: they would cut
  // A-side models of the over-approximate iterations and break the image
  // closure the fixpoint argument needs.  Freshly extracted interpolants
  // are published as kCandidate latch clauses (PDR verifies before use).
  LemmaFeed feed{opts_.exchange, opts_.exchange_source};
  aig::Lit inv = aig::kTrue;  // conjunction of consumed invariant lemmas
  std::size_t inv_used = 0;
  auto poll_exchange = [&] {
    feed.poll();
    for (; inv_used < feed.invariants.size(); ++inv_used) {
      inv = G.make_and(
          inv, latch_clause_pred(G, feed.invariants[inv_used].clause));
      ++out.stats.lemmas_consumed;
    }
  };
  auto publish_terms = [&](aig::Lit term) {
    out.stats.lemmas_published += publish_candidates(
        opts_.exchange, G, term, /*quota=*/8, /*max_len=*/6,
        opts_.exchange_source);
  };

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
      if (b != sat::kNoLit &&
          sat::lbool_xor(s.solver().model()[sat::var(b)], sat::sign(b)) ==
              sat::LBool::kTrue) {
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
    poll_exchange();
    // Nothing survives an outer restart, so the state-set AIG can be
    // garbage-collected wholesale once it grows (the invariant-lemma
    // conjunction is the only literal that must survive).
    if (opts_.compact_threshold > 0 && G.num_ands() > opts_.compact_threshold)
      space_.compact({&inv});
    if (!session || session->proof().size() > ItpSession::kProofCap)
      session = std::make_unique<ItpSession>(model_, prop_, opts_, shape);

    aig::Lit R = space_.init_pred();
    aig::Lit front = aig::kNullLit;  // null = S0 (exact initial states)

    for (unsigned j = 0;; ++j) {
      const sat::Status st =
          solve_query(*session, front, k, feed.invariants, out);
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
      publish_terms(I);
      // Fixpoint modulo the invariant lemmas: new states within inv are
      // already covered, and R ∧ inv is the inductive set (certificate).
      Implication imp =
          space_.implies(G.make_and(I, inv), R, remaining(), opts_.cancel);
      if (imp == Implication::kHolds) {
        out.verdict = Verdict::kPass;
        out.k_fp = k;
        out.j_fp = j + 1;
        out.certificate = make_certificate(G.make_and(R, inv));
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
