#include "mc/itpseq_verif.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "itp/interpolate.hpp"
#include "mc/sim.hpp"
#include "obs/trace.hpp"

namespace itpseq::mc {

namespace {
/// Max CBA refinement iterations per bound before the run gives up.
constexpr unsigned kCbaRefineLimit = 1000;
}  // namespace

ItpSeqEngine::ItpSeqEngine(const aig::Aig& model, std::size_t prop,
                           EngineOptions opts, AbstractionMode mode)
    : Engine(model, prop, opts), mode_(mode) {
  // Latches in the property's direct combinational support.  Every
  // abstraction keeps these visible: the soundness of the fixpoint check
  // (R_0 = init_pred over the tied latches, which must exclude bad states)
  // relies on the bad signal being a function of visible latches only.
  prop_support_.assign(model.num_latches(), false);
  if (prop < model.num_outputs())
    for (aig::Var v : model.support(model.output(prop))) {
      std::size_t idx = model.latch_index(v);
      if (idx != aig::Aig::kNoIndex) prop_support_[idx] = true;
    }
  // CBA's initial abstraction: exactly the property support.
  if (mode_ == AbstractionMode::kCba) visible_ = prop_support_;
}

const char* ItpSeqEngine::name() const {
  switch (mode_) {
    case AbstractionMode::kCba: return "ITPSEQCBA";
    case AbstractionMode::kPba: return "ITPSEQPBA";
    case AbstractionMode::kNone: break;
  }
  return opts_.serial_alpha > 0.0 ? "SITPSEQ" : "ITPSEQ";
}

std::vector<aig::Lit> ItpSeqEngine::extract_terms(const ItpSession& s,
                                                  sat::ClauseId final,
                                                  unsigned last_cut) {
  aig::Aig& G = space_.graph();
  itp::InterpolantExtractor ex(s.proof(), final);
  // Leaf maps: for cut c the shared variables are the frame-c latch vars.
  std::vector<std::unordered_map<sat::Var, aig::Lit>> leaf(last_cut + 1);
  for (unsigned c = 1; c <= last_cut; ++c)
    for (std::size_t i = 0; i < model_.num_latches(); ++i) {
      sat::Lit sl = s.unroller().lookup(model_.latch(i), c);
      if (sl != sat::kNoLit)
        leaf[c][sat::var(sl)] =
            aig::lit_xor(space_.latch_input(i), sat::sign(sl));
    }
  return ex.extract_sequence(
      G, 1, last_cut,
      [&](std::uint32_t cut, sat::Var v) {
        auto it = leaf[cut].find(v);
        return it == leaf[cut].end() ? aig::kNullLit : it->second;
      },
      opts_.itp_system);
}

bool ItpSeqEngine::refine(ItpSession& s, unsigned k, EngineResult& out) {
  // EXTEND: replay the abstract counterexample (its inputs; the reset
  // values of free latches only count for undefined resets) on the
  // concrete model.
  SimFrames frames =
      Simulator(model_, prop_).run(extract_trace(s.solver(), s.unroller(), k));
  if (frames.is_cex()) return false;
  // REFINE: make visible the invisible latch of the *frontier* of the
  // current abstraction — invisible latches feeding the property, the
  // constraints or the next-state logic of visible latches — whose abstract
  // values diverge most from the concrete replay, so refinement walks the
  // property's cone of influence instead of pulling in bulk logic.  A
  // spurious trace always has one: if no frontier latch diverged, the
  // visible latches, the property and the constraints would evaluate
  // alike in both runs, and the replay would be a counterexample.
  std::vector<bool> frontier(model_.num_latches(), false);
  {
    std::vector<aig::Lit> roots;
    if (prop_ < model_.num_outputs()) roots.push_back(model_.output(prop_));
    for (std::size_t c = 0; c < model_.num_constraints(); ++c)
      roots.push_back(model_.constraint(c));
    for (std::size_t i = 0; i < model_.num_latches(); ++i)
      if (visible_[i]) roots.push_back(model_.latch_next(i));
    for (aig::Var v : model_.cone(roots)) {
      std::size_t idx = model_.latch_index(v);
      if (idx != aig::Aig::kNoIndex && !visible_[idx]) frontier[idx] = true;
    }
  }
  auto divergence = [&](std::size_t i) {
    unsigned score = 0;
    for (unsigned t = 0; t <= k; ++t) {
      sat::Lit sl = s.unroller().lookup(model_.latch(i), t);
      if (sl == sat::kNoLit) continue;
      if (s.solver().model_value(sl) != frames.latches[t][i]) ++score;
    }
    return score;
  };
  std::size_t best = aig::Aig::kNoIndex;
  unsigned best_score = 0;
  for (std::size_t i = 0; i < model_.num_latches(); ++i) {
    if (!frontier[i]) continue;
    const unsigned score = divergence(i);
    if (score > best_score) {
      best = i;
      best_score = score;
    }
  }
  if (best == aig::Aig::kNoIndex)
    throw std::logic_error("CBA: spurious trace, no frontier latch diverges");
  visible_[best] = true;
  s.set_visible(visible_);
  ++out.stats.cba_refinements;
  return true;
}

void ItpSeqEngine::execute(EngineResult& out) {
  aig::Aig& G = space_.graph();
  calI_.assign(1, aig::kNullLit);  // index 0 unused
  // One session for every query of the run, replaced at a bound once its
  // proof outgrows ItpSession::kProofCap.  Target: CBA follows Fig. 5 and
  // uses exact-k; otherwise the configured scheme decides whether
  // intermediate "good" constraints are added (assume-k) or not (exact-k).
  // bound-k is not meaningful for sequences.
  const ItpSession::Shape shape{
      ItpSession::Layout::kSequence, mode_,
      mode_ != AbstractionMode::kCba &&
          opts_.scheme == cnf::TargetScheme::kExactAssume,
      opts_.serial_alpha > 0.0};
  std::unique_ptr<ItpSession> run;

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

    // Bound the growth of the interpolant store: rebuild the state-set AIG
    // keeping only the live matrix columns.
    if (opts_.compact_threshold > 0 &&
        G.num_ands() > opts_.compact_threshold) {
      std::vector<aig::Lit*> roots;
      for (unsigned j = 1; j < calI_.size(); ++j) roots.push_back(&calI_[j]);
      space_.compact(std::move(roots));
    }
    if (!run || run->proof().size() > ItpSession::kProofCap) {
      run = std::make_unique<ItpSession>(model_, prop_, opts_, shape);
      if (mode_ == AbstractionMode::kCba) run->set_visible(visible_);
    }
    ItpSession& s = *run;

    // --- BMC check at bound k (with abstraction handling) ---------------
    sat::Status status;
    if (mode_ == AbstractionMode::kPba) {
      // PBA: the concrete check decides SAT/UNSAT; the latches of its
      // failed guards size the abstraction used for extraction.
      s.set_visible({});
      status = solve_query(s, aig::kNullLit, k, out);
      if (status == sat::Status::kUnsat) {
        visible_ = s.failed_latches();
        for (std::size_t i = 0; i < visible_.size(); ++i)
          if (prop_support_[i]) visible_[i] = true;
        s.set_visible(visible_);
        status = solve_query(s, aig::kNullLit, k, out);
        if (status == sat::Status::kSat)
          throw std::logic_error("PBA: abstraction of a refuted query is SAT");
        ++out.stats.cba_refinements;  // counts PBA recomputations
      }
    } else {
      status = solve_query(s, aig::kNullLit, k, out);
      while (mode_ == AbstractionMode::kCba && status == sat::Status::kSat &&
             refine(s, k, out)) {
        if (out.stats.cba_refinements > kCbaRefineLimit || out_of_time()) {
          out.verdict = Verdict::kUnknown;
          return;
        }
        status = solve_query(s, aig::kNullLit, k, out);
      }
    }
    if (!visible_.empty())
      out.stats.cba_visible_latches = static_cast<unsigned>(
          std::count(visible_.begin(), visible_.end(), true));
    if (status == sat::Status::kUnknown) {
      out.verdict = Verdict::kUnknown;
      return;
    }
    if (status == sat::Status::kSat) {
      out.verdict = Verdict::kFail;
      out.k_fp = k;
      out.j_fp = 0;
      out.cex = extract_trace(s.solver(), s.unroller(), k);
      return;
    }
    const sat::ClauseId first_final = s.final();

    // --- sequence construction (Fig. 4) ----------------------------------
    std::vector<aig::Lit> terms(k + 1, aig::kNullLit);  // terms[j], j=1..k
    unsigned ns = std::min(
        k, static_cast<unsigned>(
               std::floor(opts_.serial_alpha * static_cast<double>(k + 1))));
    bool fallback = false;

    if (ns == 0) {
      // Pure parallel: the whole sequence from the one proof (Eq. 2).
      std::vector<aig::Lit> seq = extract_terms(s, first_final, k);
      for (unsigned j = 1; j <= k; ++j) terms[j] = seq[j - 1];
    } else {
      // Serial prefix (Eq. 3).  The first term's defining problem is
      // exactly the original BMC check, so its proof is reused.
      terms[1] = extract_terms(s, first_final, 1)[0];
      for (unsigned j = 2; j <= ns && !fallback; ++j) {
        status = solve_query(s, terms[j - 1], k - (j - 1), out);
        if (status == sat::Status::kUnknown) {
          out.verdict = Verdict::kUnknown;
          return;
        }
        if (status == sat::Status::kSat) {
          fallback = true;  // over-approximation made the target reachable
          break;
        }
        terms[j] = extract_terms(s, s.final(), 1)[0];
      }
      if (!fallback && ns < k) {
        // Parallel suffix from one more proof (Fig. 4, last line).
        status = solve_query(s, terms[ns], k - ns, out);
        if (status == sat::Status::kUnknown) {
          out.verdict = Verdict::kUnknown;
          return;
        }
        if (status == sat::Status::kSat) {
          fallback = true;
        } else {
          std::vector<aig::Lit> seq = extract_terms(s, s.final(), k - ns);
          for (unsigned c = 1; c <= k - ns; ++c) terms[ns + c] = seq[c - 1];
        }
      }
      if (fallback) {
        std::vector<aig::Lit> seq = extract_terms(s, first_final, k);
        for (unsigned j = 1; j <= k; ++j) terms[j] = seq[j - 1];
      }
    }

    for (unsigned j = 1; j <= k; ++j)
      out.stats.max_itp_nodes =
          std::max(out.stats.max_itp_nodes, G.cone_size(terms[j]));
    if (obs::enabled()) {
      std::uint64_t total_nodes = 0;
      for (unsigned j = 1; j <= k; ++j) total_nodes += G.cone_size(terms[j]);
      obs::emit("itpseq_extract", {{"k", k},
                                   {"serial_prefix", ns},
                                   {"fallback", fallback ? 1u : 0u},
                                   {"seq_nodes", total_nodes}});
    }

    // --- matrix update and fixpoint checks (Fig. 2) ----------------------
    calI_.resize(k + 1, aig::kTrue);
    for (unsigned j = 1; j < k; ++j) calI_[j] = G.make_and(calI_[j], terms[j]);
    calI_[k] = terms[k];

    aig::Lit R = space_.init_pred(s.tied_latches());
    for (unsigned j = 1; j <= k; ++j) {
      Implication imp =
          space_.implies(calI_[j], R, remaining(), opts_.cancel);
      if (imp == Implication::kHolds) {
        out.verdict = Verdict::kPass;
        out.k_fp = k;
        out.j_fp = j;
        out.certificate = make_certificate(R);
        return;
      }
      if (imp == Implication::kUnknown) {
        out.verdict = Verdict::kUnknown;
        return;
      }
      R = G.make_or(R, calI_[j]);
    }
  }
  out.verdict = Verdict::kUnknown;
}

}  // namespace itpseq::mc
