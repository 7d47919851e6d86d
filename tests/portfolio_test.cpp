// portfolio_test.cpp — the portfolio scheduler: jobs=1 vs wide-pool
// verdict agreement, winner attribution, the join-all cancellation
// guarantee, certified PASS verdicts, determinism of verdict + trace under
// a fixed seed regardless of --jobs, one roster entry per member, and the
// out-of-memory-only relaunch rule.
// Runs under TSan via the `concurrency` ctest label
// (ITPSEQ_SANITIZE=thread).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "bench_circuits/generators.hpp"
#include "bench_circuits/suite.hpp"
#include "mc/certify.hpp"
#include "mc/portfolio.hpp"
#include "mc/sim.hpp"
#include "obs/trace.hpp"
#include "util/fault.hpp"
#include "util/retry.hpp"

namespace itpseq::mc {
namespace {

PortfolioOptions quick(double limit = 10.0) {
  PortfolioOptions po;
  po.time_limit_sec = limit;
  return po;
}

bool traces_equal(const Trace& a, const Trace& b) {
  return a.initial_latches == b.initial_latches && a.inputs == b.inputs;
}

TEST(Portfolio, SequentialAndThreadedAgreeOnSuite) {
  unsigned compared = 0;
  for (const auto& inst : bench::make_academic_suite(16)) {
    PortfolioOptions seq = quick(8.0);
    seq.jobs = 1;
    PortfolioOptions thr = quick(8.0);
    thr.jobs = 4;
    EngineResult rs = check_portfolio(inst.model, 0, seq);
    EngineResult rt = check_portfolio(inst.model, 0, thr);
    if (rs.verdict == Verdict::kUnknown || rt.verdict == Verdict::kUnknown)
      continue;
    EXPECT_EQ(rs.verdict, rt.verdict) << inst.name;
    if (inst.expected == bench::Expected::kPass) {
      EXPECT_EQ(rt.verdict, Verdict::kPass) << inst.name;
    }
    if (inst.expected == bench::Expected::kFail) {
      EXPECT_EQ(rt.verdict, Verdict::kFail) << inst.name;
    }
    if (rt.verdict == Verdict::kFail) {
      EXPECT_TRUE(trace_is_cex(inst.model, rt.cex, 0)) << inst.name;
    }
    ++compared;
    if (compared >= 12) break;  // bound the runtime; coverage, not census
  }
  EXPECT_GE(compared, 6u);
}

TEST(Portfolio, WinnerAttributionNamesTheMember) {
  // Single-member portfolios: attribution is forced.
  aig::Aig fail_g = bench::counter(5, 20, 13);
  aig::Aig pass_g = bench::token_ring(8, /*fail_reach=*/false);

  PortfolioOptions po = quick();
  po.members = {PortfolioMember::kBmc};
  EngineResult r = check_portfolio(fail_g, 0, po);
  ASSERT_EQ(r.verdict, Verdict::kFail);
  EXPECT_EQ(r.engine, "portfolio/BMC");

  po.members = {PortfolioMember::kPdr};
  r = check_portfolio(pass_g, 0, po);
  ASSERT_EQ(r.verdict, Verdict::kPass);
  EXPECT_EQ(r.engine, "portfolio/PDR");

  // Mixed race on a PASS instance: the winner must be a proof-capable
  // member — the falsification-only members cannot produce PASS.
  po = quick();
  r = check_portfolio(pass_g, 0, po);
  ASSERT_EQ(r.verdict, Verdict::kPass);
  EXPECT_EQ(r.engine.rfind("portfolio/", 0), 0u) << r.engine;
  EXPECT_EQ(r.engine.find("RANDOM-SIM"), std::string::npos) << r.engine;
  EXPECT_EQ(r.engine.find("/BMC"), std::string::npos) << r.engine;
}

// Hard for every member in test time: FAIL only at depth 2^28 - 1, so no
// engine can decide it and all grind until stopped.
aig::Aig hard_instance() {
  return bench::counter(28, 1ull << 28, (1ull << 28) - 1);
}

TEST(Portfolio, CancellationLeavesNoThreadRunning) {
  // The probe counts live member engines, so 0 after return is the
  // join-all guarantee.
  aig::Aig g = hard_instance();
  std::atomic<int> probe{0};
  PortfolioOptions po = quick(1.5);
  po.jobs = 4;
  po.active_probe = &probe;
  auto t0 = std::chrono::steady_clock::now();
  EngineResult r = check_portfolio(g, 0, po);
  double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(probe.load(), 0) << "member engine still running after return";
  EXPECT_LT(secs, 10.0) << "members did not wind down near the budget";
  (void)r;
}

TEST(Portfolio, ExternalCancelTearsDownAllMembers) {
  aig::Aig g = hard_instance();
  std::atomic<bool> stop{false};
  std::atomic<int> probe{0};
  PortfolioOptions po = quick(60.0);  // would run a minute uncancelled
  po.jobs = 4;
  po.active_probe = &probe;
  po.engine_defaults.cancel = &stop;
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    stop.store(true);
  });
  auto t0 = std::chrono::steady_clock::now();
  EngineResult r = check_portfolio(g, 0, po);
  double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  killer.join();
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_EQ(probe.load(), 0);
  EXPECT_LT(secs, 10.0) << "external cancellation was not honored promptly";
}

TEST(Portfolio, RacingPassCarriesACheckedCertificate) {
  // A PASS out of the racing portfolio is the winner's own certificate and
  // still has to survive the independent checker.
  aig::Aig g = bench::token_ring(10, /*fail_reach=*/false);
  PortfolioOptions po = quick(20.0);
  po.members = {PortfolioMember::kSItpSeq, PortfolioMember::kPdr,
                PortfolioMember::kItp};
  EngineResult r = check_portfolio(g, 0, po);
  ASSERT_EQ(r.verdict, Verdict::kPass);
  ASSERT_TRUE(r.certificate.has_value());
  CertifyResult c = check_certificate(g, 0, *r.certificate);
  EXPECT_TRUE(c.ok) << c.error;
}

// --- determinism regression (fixed seed, any --jobs) -----------------------

TEST(Portfolio, VerdictAndTraceIndependentOfJobs) {
  // Closed (input-free) circuits with defined resets have a *forced* trace,
  // so even the racing scheduler must report the identical counterexample:
  // depth is the shallowest-failure depth every member agrees on, inputs
  // are empty, and the initial state is the reset state.
  struct Cfg {
    const char* name;
    aig::Aig model;
    unsigned depth;
  };
  Cfg cfgs[] = {
      {"counter", bench::counter(5, 20, 13), 13},
      {"token_ring", bench::token_ring(9, /*fail_reach=*/true), 8},
  };
  for (auto& cfg : cfgs) {
    EngineResult first;
    bool have_first = false;
    for (unsigned jobs : {1u, 2u, 4u}) {
      PortfolioOptions po = quick(20.0);
      po.jobs = jobs;
      po.sim_seed = 99;
      EngineResult r = check_portfolio(cfg.model, 0, po);
      ASSERT_EQ(r.verdict, Verdict::kFail) << cfg.name << " jobs=" << jobs;
      EXPECT_EQ(r.cex.depth(), cfg.depth) << cfg.name << " jobs=" << jobs;
      EXPECT_TRUE(trace_is_cex(cfg.model, r.cex, 0))
          << cfg.name << " jobs=" << jobs;
      if (!have_first) {
        first = r;
        have_first = true;
      } else {
        EXPECT_TRUE(traces_equal(first.cex, r.cex))
            << cfg.name << ": trace depends on jobs=" << jobs;
      }
    }
  }
}

TEST(Portfolio, RandomSimDeterministicUnderFixedSeed) {
  // Open circuit: the sweep is a pure function of the seed — two runs give
  // the identical trace, and the wall-clock/rounds knobs only truncate.
  aig::Aig g = bench::sticky_detector(3, /*resettable=*/false);
  EngineResult a = check_random_sim(g, 0, /*depth=*/32, /*rounds=*/256,
                                    /*seed=*/1234);
  EngineResult b = check_random_sim(g, 0, 32, 256, 1234);
  ASSERT_EQ(a.verdict, Verdict::kFail);
  ASSERT_EQ(b.verdict, Verdict::kFail);
  EXPECT_EQ(a.k_fp, b.k_fp);
  EXPECT_TRUE(traces_equal(a.cex, b.cex));
  EXPECT_TRUE(trace_is_cex(g, a.cex, 0));

  // A different seed is allowed to find a different witness, but a larger
  // round budget with the same seed must reproduce the same (first) one.
  EngineResult c = check_random_sim(g, 0, 32, 4096, 1234);
  ASSERT_EQ(c.verdict, Verdict::kFail);
  EXPECT_TRUE(traces_equal(a.cex, c.cex));
}

// --- self-healing: retry, backoff, degradation -----------------------------

TEST(Portfolio, BackoffDelayIsDeterministicAndBounded) {
  for (unsigned attempt = 0; attempt < 4; ++attempt) {
    double nominal = util::kBackoffBaseSec * static_cast<double>(1u << attempt);
    double d = util::backoff_delay_sec(attempt, /*seed=*/42);
    // Reproducible: the same (attempt, seed) always schedules the same
    // relaunch — no wall clock, no rand() (L5).
    EXPECT_EQ(d, util::backoff_delay_sec(attempt, 42)) << attempt;
    EXPECT_GE(d, nominal * (1.0 - util::kBackoffJitter)) << attempt;
    EXPECT_LE(d, nominal * (1.0 + util::kBackoffJitter)) << attempt;
  }
  // Jitter decorrelates members that died together: distinct seeds must
  // not produce an identical relaunch schedule.
  EXPECT_NE(util::backoff_delay_sec(1, 7), util::backoff_delay_sec(1, 8));
}

TEST(Portfolio, DegradationLadderShedsMemoryHungryMachinery) {
  EngineOptions eo;
  eo.sat_inprocess = true;
  degrade_for_retry(eo);
  EXPECT_FALSE(eo.sat_inprocess);
  EXPECT_GT(eo.sat_reduce_base, 0.0);
  EXPECT_LE(eo.sat_reduce_base, 500.0);
  EXPECT_NE(eo.compact_threshold, 0u);
  EXPECT_LE(eo.compact_threshold, 50000u);
  // A tighter caller-chosen cap is respected, never loosened.
  eo.sat_reduce_base = 100.0;
  eo.compact_threshold = 1000;
  degrade_for_retry(eo);
  EXPECT_DOUBLE_EQ(eo.sat_reduce_base, 100.0);
  EXPECT_EQ(eo.compact_threshold, 1000u);
}

TEST(Portfolio, FaultedMemberIsRelaunchedAndRecovers) {
  // The first interpolant extraction anywhere in the process runs out of
  // memory; the window then closes.  The ITP member's first attempt dies,
  // the scheduler relaunches it after backoff, and the relaunch — with the
  // fault gone — must still prove the instance.  RANDOM-SIM cannot prove
  // PASS, so a PASS verdict *is* the recovery.
  util::fault::clear();
  util::fault::configure("itp.extract:1:1:oom");
  obs::TraceConfig cfg;
  cfg.sample_interval_sec = 0;  // drain at finish only
  obs::TraceSink sink(cfg);
  PortfolioOptions po = quick(30.0);
  po.jobs = 2;
  po.members = {PortfolioMember::kItp, PortfolioMember::kRandomSim};
  EngineResult r = check_portfolio(bench::token_ring(6, false), 0, po);
  sink.finish();
  util::fault::clear();
  ASSERT_EQ(r.verdict, Verdict::kPass);
  EXPECT_NE(r.engine.find("ITP"), std::string::npos) << r.engine;
  const MemberOutcome* itp = nullptr;
  for (const MemberOutcome& m : r.members)
    if (m.member == "ITP") itp = &m;
  ASSERT_NE(itp, nullptr);
  EXPECT_GE(itp->restarts, 1u);
  EXPECT_EQ(itp->verdict, Verdict::kPass);
  // The error that caused the relaunch stays on the record even though the
  // member finished healthy.
  EXPECT_EQ(itp->last_error.kind, ErrorKind::kOutOfMemory);
  EXPECT_EQ(itp->error.kind, ErrorKind::kNone);
  // The relaunch is observable in the trace as a member_restart event.
  std::uint64_t restart_events = 0;
  for (const auto& [key, count] : sink.summary().kinds)
    if (key.second == "member_restart") restart_events += count;
  EXPECT_GE(restart_events, 1u);
}

TEST(Portfolio, ExhaustedRetriesReportTheLastError) {
  // Every extraction runs out of memory: the ITP members burn through all
  // relaunches and the portfolio — with no survivor — reports the taxonomy.
  util::fault::clear();
  util::fault::configure("itp.extract:1:1000000:oom");
  PortfolioOptions po = quick(30.0);
  po.jobs = 2;
  po.members = {PortfolioMember::kItp, PortfolioMember::kItp};
  EngineResult r = check_portfolio(bench::token_ring(6, false), 0, po);
  util::fault::clear();
  ASSERT_EQ(r.verdict, Verdict::kError);
  EXPECT_EQ(r.error.kind, ErrorKind::kOutOfMemory);
  ASSERT_EQ(r.members.size(), 2u);
  for (const MemberOutcome& m : r.members) {
    EXPECT_EQ(m.verdict, Verdict::kError) << m.member;
    EXPECT_EQ(m.restarts, util::kMaxRelaunches) << m.member;
    EXPECT_EQ(m.last_error.kind, ErrorKind::kOutOfMemory) << m.member;
  }
}

TEST(Portfolio, InternalErrorIsNotRelaunched) {
  // A deterministic engine relaunched after kInternal would replay the
  // same failure, so the error is the member's outcome and a peer wins.
  // The two ITP members are claimed before BMC for either pool width, so
  // both deaths are always on the roster.
  for (unsigned jobs : {1u, 2u}) {
    util::fault::clear();
    util::fault::configure("itp.extract:1:1000000:error");
    PortfolioOptions po = quick(30.0);
    po.jobs = jobs;
    po.members = {PortfolioMember::kItp, PortfolioMember::kItp,
                  PortfolioMember::kBmc};
    EngineResult r = check_portfolio(bench::counter(4, 12, 7), 0, po);
    util::fault::clear();
    ASSERT_EQ(r.verdict, Verdict::kFail) << "jobs=" << jobs;
    EXPECT_EQ(r.engine, "portfolio/BMC") << "jobs=" << jobs;
    unsigned dead = 0;
    for (const MemberOutcome& m : r.members) {
      EXPECT_EQ(m.restarts, 0u) << m.member << " jobs=" << jobs;
      if (m.member == "ITP") {
        EXPECT_EQ(m.error.kind, ErrorKind::kInternal) << "jobs=" << jobs;
        ++dead;
      }
    }
    EXPECT_EQ(dead, 2u) << "jobs=" << jobs;
  }
}

TEST(Portfolio, RosterListsEachMemberOnceForEveryJobs) {
  // Every member gives up at a small bound with kUnknown, long before the
  // budget: one scheduler for every jobs value runs each member exactly
  // once and records exactly one roster entry for it.
  aig::Aig g = hard_instance();
  for (unsigned jobs : {1u, 2u, 4u}) {
    PortfolioOptions po = quick(20.0);
    po.jobs = jobs;
    po.members = {PortfolioMember::kBmc, PortfolioMember::kItp,
                  PortfolioMember::kKInduction, PortfolioMember::kPdr};
    po.engine_defaults.max_bound = 4;
    EngineResult r = check_portfolio(g, 0, po);
    EXPECT_EQ(r.verdict, Verdict::kUnknown) << "jobs=" << jobs;
    ASSERT_EQ(r.members.size(), po.members.size()) << "jobs=" << jobs;
    for (PortfolioMember m : po.members) {
      std::size_t entries = 0;
      for (const MemberOutcome& o : r.members)
        if (o.member == to_string(m)) ++entries;
      EXPECT_EQ(entries, 1u) << to_string(m) << " jobs=" << jobs;
    }
  }
}

TEST(Portfolio, OneWorkerPoolRespectsBudget) {
  // jobs=1 must terminate near the budget like any other pool.
  aig::Aig g = hard_instance();
  PortfolioOptions po = quick(1.0);
  po.jobs = 1;
  auto t0 = std::chrono::steady_clock::now();
  EngineResult r = check_portfolio(g, 0, po);
  double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_LT(secs, 10.0);
}

}  // namespace
}  // namespace itpseq::mc
