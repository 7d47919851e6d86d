// certify_test.cpp — inductive-invariant certificates for PASS verdicts.
//
// Every interpolation engine must emit a certificate on PASS that the
// independent four-condition checker accepts; deliberately wrong
// certificates must be rejected with the right condition named.
#include <gtest/gtest.h>

#include "bench_circuits/generators.hpp"
#include "bench_circuits/suite.hpp"
#include "mc/certify.hpp"
#include "mc/engine.hpp"
#include "mc/portfolio.hpp"

namespace itpseq {
namespace {

using Checker = mc::EngineResult (*)(const aig::Aig&, std::size_t,
                                     const mc::EngineOptions&);

mc::EngineResult run_itp(const aig::Aig& g, std::size_t p,
                         const mc::EngineOptions& o) {
  return mc::check_itp(g, p, o);
}
mc::EngineResult run_itpseq(const aig::Aig& g, std::size_t p,
                            const mc::EngineOptions& o) {
  return mc::check_itpseq(g, p, o);
}
mc::EngineResult run_sitpseq(const aig::Aig& g, std::size_t p,
                             const mc::EngineOptions& o) {
  return mc::check_sitpseq(g, p, o);
}
mc::EngineResult run_cba(const aig::Aig& g, std::size_t p,
                         const mc::EngineOptions& o) {
  return mc::check_itpseq_cba(g, p, o);
}
mc::EngineResult run_pba(const aig::Aig& g, std::size_t p,
                         const mc::EngineOptions& o) {
  return mc::check_itpseq_pba(g, p, o);
}

struct EngineCase {
  const char* name;
  Checker run;
};

const EngineCase kEngines[] = {
    {"itp", run_itp}, {"itpseq", run_itpseq}, {"sitpseq", run_sitpseq},
    {"cba", run_cba}, {"pba", run_pba},
};

class CertifyEngineTest : public ::testing::TestWithParam<int> {};

TEST_P(CertifyEngineTest, SuitePassCertificatesCheck) {
  const EngineCase& e = kEngines[GetParam()];
  // Work-bounded: all but one of the PASSes on this suite converge by
  // k = 66 (tlc32 needs k = 130 with itpseq and pba), and the designs that
  // do not converge stop at the bound, not at the clock.  The time limit is
  // only a safety net, far above the slowest run (sitpseq on gray10 to
  // k = 70 takes about 6 s on a 4-core VM).
  mc::EngineOptions opts;
  opts.max_bound = 70;
  opts.time_limit_sec = 300.0;
  unsigned certified = 0;
  for (auto& inst : bench::make_academic_suite(20)) {
    if (inst.expected != bench::Expected::kPass) continue;
    mc::EngineResult r = e.run(inst.model, 0, opts);
    if (r.verdict != mc::Verdict::kPass) continue;
    ASSERT_TRUE(r.certificate.has_value()) << e.name << " " << inst.name;
    mc::CertifyResult c =
        mc::check_certificate(inst.model, 0, *r.certificate);
    EXPECT_TRUE(c.ok) << e.name << " " << inst.name << ": " << c.error;
    ++certified;
  }
  EXPECT_GE(certified, 10u) << e.name;
}

INSTANTIATE_TEST_SUITE_P(Engines, CertifyEngineTest, ::testing::Range(0, 5),
                         [](const auto& tpinfo) {
                           std::string n = kEngines[tpinfo.param].name;
                           for (char& c : n)
                             if (c == '-' || c == '+') c = '_';
                           return n;
                         });

TEST(Certify, OptionsVariantsStillCertify) {
  aig::Aig g = bench::token_ring(6, false);
  for (itp::System sys : {itp::System::kMcMillan, itp::System::kPudlak,
                          itp::System::kInverseMcMillan}) {
    mc::EngineOptions opts;
    opts.time_limit_sec = 15.0;
    opts.itp_system = sys;
    mc::EngineResult r = mc::check_itpseq(g, 0, opts);
    ASSERT_EQ(r.verdict, mc::Verdict::kPass);
    ASSERT_TRUE(r.certificate.has_value());
    mc::CertifyResult c = mc::check_certificate(g, 0, *r.certificate);
    EXPECT_TRUE(c.ok) << to_string(sys) << ": " << c.error;
  }
}

TEST(Certify, TrivialPropertyCertificate) {
  aig::Aig g;
  g.add_latch();
  g.set_latch_next(g.latch(0), g.latch(0));
  g.add_output(aig::kFalse);  // bad never fires
  mc::EngineResult r = mc::check_itpseq(g, 0, {});
  ASSERT_EQ(r.verdict, mc::Verdict::kPass);
  ASSERT_TRUE(r.certificate.has_value());
  EXPECT_TRUE(mc::check_certificate(g, 0, *r.certificate).ok);
}

TEST(Certify, RejectsTrueOnFailingModel) {
  // R = TRUE on a model whose bad is reachable: C4 (or C2) must fail.
  aig::Aig g = bench::counter(4, 12, 7);
  mc::Certificate cert;
  for (std::size_t i = 0; i < g.num_latches(); ++i) cert.graph.add_input();
  cert.root = aig::kTrue;
  mc::CertifyResult c = mc::check_certificate(g, 0, cert);
  EXPECT_FALSE(c.ok);
  EXPECT_NE(c.error.find("C4"), std::string::npos) << c.error;
}

TEST(Certify, RejectsFalse) {
  aig::Aig g = bench::token_ring(5, false);
  mc::Certificate cert;
  for (std::size_t i = 0; i < g.num_latches(); ++i) cert.graph.add_input();
  cert.root = aig::kFalse;
  mc::CertifyResult c = mc::check_certificate(g, 0, cert);
  EXPECT_FALSE(c.ok);
  EXPECT_NE(c.error.find("C1"), std::string::npos) << c.error;
}

TEST(Certify, RejectsNonInductiveSet) {
  // R = "exactly the initial state" of a counter that moves: C3 must fail
  // (closed-ness), since the successor leaves R.
  aig::Aig g = bench::counter(4, 12, 14);  // PASS model, but R too small
  mc::Certificate cert;
  std::vector<aig::Lit> ins;
  for (std::size_t i = 0; i < g.num_latches(); ++i)
    ins.push_back(cert.graph.add_input());
  // All latches zero.
  aig::Lit all0 = aig::kTrue;
  for (aig::Lit l : ins) all0 = cert.graph.make_and(all0, aig::lit_not(l));
  cert.root = all0;
  mc::CertifyResult c = mc::check_certificate(g, 0, cert);
  EXPECT_FALSE(c.ok);
  EXPECT_NE(c.error.find("C3"), std::string::npos) << c.error;
}

TEST(Certify, RejectsMissingInitialStates) {
  // R that excludes the initial state: C1 must fail.
  aig::Aig g = bench::counter(3, 6, 8);
  mc::Certificate cert;
  std::vector<aig::Lit> ins;
  for (std::size_t i = 0; i < g.num_latches(); ++i)
    ins.push_back(cert.graph.add_input());
  cert.root = ins[0];  // requires latch 0 = 1, initial state has 0
  mc::CertifyResult c = mc::check_certificate(g, 0, cert);
  EXPECT_FALSE(c.ok);
  EXPECT_NE(c.error.find("C1"), std::string::npos) << c.error;
}

TEST(Certify, HandWrittenInvariantAccepted) {
  // The classic one-hot invariant of the token ring, written by hand,
  // must pass the checker (it is inductive and safe).
  aig::Aig g = bench::token_ring(5, false);
  mc::Certificate cert;
  std::vector<aig::Lit> ins;
  for (std::size_t i = 0; i < g.num_latches(); ++i)
    ins.push_back(cert.graph.add_input());
  // Exactly one token: OR over i of (l_i AND no other).
  std::vector<aig::Lit> cases;
  for (std::size_t i = 0; i < ins.size(); ++i) {
    aig::Lit only = ins[i];
    for (std::size_t j = 0; j < ins.size(); ++j)
      if (j != i) only = cert.graph.make_and(only, aig::lit_not(ins[j]));
    cases.push_back(only);
  }
  cert.root = cert.graph.make_or_many(cases);
  mc::CertifyResult c = mc::check_certificate(g, 0, cert);
  EXPECT_TRUE(c.ok) << c.error;
}

TEST(Certify, PortfolioPropagatesCertificates) {
  aig::Aig g = bench::token_ring(6, false);
  mc::PortfolioOptions po;
  po.time_limit_sec = 20.0;
  mc::EngineResult r = mc::check_portfolio(g, 0, po);
  ASSERT_EQ(r.verdict, mc::Verdict::kPass);
  if (r.certificate.has_value()) {
    EXPECT_TRUE(mc::check_certificate(g, 0, *r.certificate).ok);
  }
}

}  // namespace
}  // namespace itpseq
