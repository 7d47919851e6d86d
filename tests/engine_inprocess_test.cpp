// engine_inprocess_test.cpp — an inprocessing round must be paid for by
// reuse or by search.  All five paper engines (ITP, ITPSEQ, SITPSEQ, CBA,
// PBA) answer a run's queries on one long-lived solver, whose second query
// pays for a round: rounds change their proofs, and so maybe k_fp, j_fp and
// an abstraction, but never a verdict, and every PASS still certifies and
// every FAIL replays.  PDR, which reuses one solver for every query, still
// runs its rounds.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "bench_circuits/suite.hpp"
#include "mc/certify.hpp"
#include "mc/engine.hpp"
#include "mc/sim.hpp"

namespace itpseq::mc {
namespace {

using Check = std::function<EngineResult(const aig::Aig&, const EngineOptions&)>;

struct NamedEngine {
  const char* name;
  Check check;
};

const std::vector<NamedEngine>& long_lived_engines() {
  static const std::vector<NamedEngine> e = {
      {"itp", [](const aig::Aig& m, const EngineOptions& o) { return check_itp(m, 0, o); }},
      {"itpseq",
       [](const aig::Aig& m, const EngineOptions& o) { return check_itpseq(m, 0, o); }},
      {"sitpseq",
       [](const aig::Aig& m, const EngineOptions& o) { return check_sitpseq(m, 0, o); }},
      {"cba",
       [](const aig::Aig& m, const EngineOptions& o) { return check_itpseq_cba(m, 0, o); }},
      {"pba",
       [](const aig::Aig& m, const EngineOptions& o) { return check_itpseq_pba(m, 0, o); }},
  };
  return e;
}

// PASS, FAIL and bound-exhausted instances from several families, each
// cheap at the bound below.
const char* const kInstances[] = {"cnten4pass", "cnt4fail",  "ring8safe",
                                  "queue8ovf",  "vend6grd",  "lock8open",
                                  "industrialH2"};

EngineOptions capped(bool inprocess) {
  EngineOptions o;
  o.max_bound = 8;            // the work cap: outcomes never depend on speed
  o.time_limit_sec = 600.0;   // a safety net, never reached
  o.sat_inprocess = inprocess;
  return o;
}

std::vector<bench::Instance> selected() {
  std::vector<bench::Instance> out;
  for (auto& inst : bench::make_suite())
    for (const char* n : kInstances)
      if (inst.name == n) out.push_back(std::move(inst));
  return out;
}

// A PASS must carry a certificate that checks, a FAIL a trace that replays.
void expect_certified(const aig::Aig& model, const EngineResult& r) {
  if (r.verdict == Verdict::kPass) {
    ASSERT_TRUE(r.certificate.has_value());
    EXPECT_TRUE(check_certificate(model, 0, *r.certificate).ok);
  } else if (r.verdict == Verdict::kFail) {
    EXPECT_TRUE(trace_is_cex(model, r.cex, 0));
  }
}

TEST(EngineInprocess, LongLivedEnginesKeepVerdicts) {
  const auto insts = selected();
  ASSERT_EQ(insts.size(), std::size(kInstances));
  for (const auto& inst : insts) {
    for (const auto& e : long_lived_engines()) {
      SCOPED_TRACE(inst.name + " / " + e.name);
      const EngineResult on = e.check(inst.model, capped(true));
      const EngineResult off = e.check(inst.model, capped(false));
      ASSERT_NE(on.verdict, Verdict::kError);
      EXPECT_EQ(on.verdict, off.verdict);
      EXPECT_EQ(off.stats.sat_inprocess_rounds, 0u);
      // The session's second query pays for the first round.
      if (on.stats.sat_calls >= 2) {
        EXPECT_GE(on.stats.sat_inprocess_rounds, 1u);
      }
      expect_certified(inst.model, on);
      expect_certified(inst.model, off);
    }
  }
}

TEST(EngineInprocess, PdrStillRunsRounds) {
  for (const auto& inst : selected()) {
    SCOPED_TRACE(inst.name);
    const EngineResult r = check_pdr(inst.model, 0, capped(true));
    ASSERT_NE(r.verdict, Verdict::kError);
    EXPECT_GE(r.stats.sat_inprocess_rounds, 1u);
  }
}

}  // namespace
}  // namespace itpseq::mc
