// fault_test.cpp — failure containment end to end: the fault-injection
// registry itself, the memory-budget degradation ladder, hostile-input
// hardening of the parsers, and the per-site portfolio containment matrix
// (an injected crash in one member must never kill the process or the
// run).  Threaded-portfolio cases run under TSan via the `concurrency`
// ctest label.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "aig/aiger_io.hpp"
#include "bench_circuits/generators.hpp"
#include "io/blif.hpp"
#include "mc/engine.hpp"
#include "mc/portfolio.hpp"
#include "obs/trace.hpp"
#include "util/atomic_write.hpp"
#include "util/fault.hpp"
#include "util/mem_budget.hpp"

namespace itpseq {
namespace {

std::string data_path(const char* rel) {
  return std::string(ITPSEQ_DATA_DIR) + "/" + rel;
}

/// Every test leaves the process disarmed, whatever path it exits through:
/// both the fault plan and the memory budget are process-wide singletons.
class CleanSlate : public ::testing::Test {
 protected:
  void SetUp() override {
    util::fault::clear();
    util::MemoryBudget::instance().reset();
  }
  void TearDown() override {
    util::fault::clear();
    util::MemoryBudget::instance().reset();
  }
};

using FaultRegistry = CleanSlate;
using MemBudget = CleanSlate;
using Containment = CleanSlate;
using HostileInputs = CleanSlate;

// --- the registry ----------------------------------------------------------

TEST_F(FaultRegistry, OffByDefaultAndFree) {
  EXPECT_FALSE(util::fault::enabled());
  // The macro's fast path: nothing armed, nothing fires, nothing counted.
  ITPSEQ_FAULT_POINT("never.armed");
  EXPECT_EQ(util::fault::hits("never.armed"), 0u);
}

TEST_F(FaultRegistry, WindowFiresExactlyNthThroughNthPlusCount) {
  util::fault::configure("t.site:2:2");
  EXPECT_TRUE(util::fault::enabled());
  EXPECT_NO_THROW(util::fault::point("t.site"));   // hit 1: before window
  EXPECT_THROW(util::fault::point("t.site"), std::bad_alloc);  // hit 2
  EXPECT_THROW(util::fault::point("t.site"), std::bad_alloc);  // hit 3
  EXPECT_NO_THROW(util::fault::point("t.site"));   // hit 4: past window
  EXPECT_EQ(util::fault::hits("t.site"), 4u);
  EXPECT_EQ(util::fault::hits("t.other"), 0u);
}

TEST_F(FaultRegistry, ErrorKindCarriesTheSiteName) {
  util::fault::configure("t.err:1:1:error");
  try {
    util::fault::point("t.err");
    FAIL() << "fault did not fire";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("injected fault at t.err"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(FaultRegistry, StallKindBlocksForTheConfiguredDuration) {
  util::fault::configure("t.stall:1:1:stall60");
  auto t0 = std::chrono::steady_clock::now();
  EXPECT_NO_THROW(util::fault::point("t.stall"));
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  EXPECT_GE(ms, 40.0) << "stall did not block";
  // Second evaluation is past the window: no stall.
  t0 = std::chrono::steady_clock::now();
  util::fault::point("t.stall");
  ms = std::chrono::duration<double, std::milli>(
           std::chrono::steady_clock::now() - t0)
           .count();
  EXPECT_LT(ms, 40.0);
}

TEST_F(FaultRegistry, PlanListsArmMultipleSites) {
  util::fault::configure("a.one:1, b.two:1:1:error");
  EXPECT_THROW(util::fault::point("a.one"), std::bad_alloc);
  EXPECT_THROW(util::fault::point("b.two"), std::runtime_error);
}

TEST_F(FaultRegistry, MalformedSpecsAreRejected) {
  EXPECT_THROW(util::fault::configure("nocolon"), std::invalid_argument);
  EXPECT_THROW(util::fault::configure("s:x"), std::invalid_argument);
  EXPECT_THROW(util::fault::configure("s:0"), std::invalid_argument);
  EXPECT_THROW(util::fault::configure("s:1:0"), std::invalid_argument);
  EXPECT_THROW(util::fault::configure("s:1:1:bogus"), std::invalid_argument);
  EXPECT_THROW(util::fault::configure(":1"), std::invalid_argument);
  EXPECT_THROW(util::fault::configure("s:1:1:1:1"), std::invalid_argument);
  EXPECT_FALSE(util::fault::enabled());  // nothing was armed along the way
}

// --- the memory-budget ladder ----------------------------------------------

TEST_F(MemBudget, LevelForGradesAgainstTheLimit) {
  constexpr std::size_t kMb = 1024 * 1024;
  EXPECT_EQ(util::MemoryBudget::level_for(123456789, 0), 0);  // unlimited
  EXPECT_EQ(util::MemoryBudget::level_for(0, 100 * kMb), 0);
  EXPECT_EQ(util::MemoryBudget::level_for(79 * kMb, 100 * kMb), 0);
  EXPECT_EQ(util::MemoryBudget::level_for(80 * kMb, 100 * kMb), 1);  // soft
  EXPECT_EQ(util::MemoryBudget::level_for(99 * kMb, 100 * kMb), 1);
  EXPECT_EQ(util::MemoryBudget::level_for(100 * kMb, 100 * kMb), 2);  // hard
  EXPECT_EQ(util::MemoryBudget::level_for(5000 * kMb, 100 * kMb), 2);
}

TEST_F(MemBudget, PollClimbsToHardUnderATinyLimit) {
  util::MemoryBudget& mb = util::MemoryBudget::instance();
  EXPECT_FALSE(mb.limited());
  // Any live process dwarfs 1 MB, so the first poll lands on hard.
  mb.set_limit_mb(1);
  EXPECT_TRUE(mb.limited());
  mb.poll();
  EXPECT_TRUE(mb.hard());
  // The ladder only climbs; raising the limit does not matter until reset.
  mb.reset();
  EXPECT_FALSE(mb.limited());
  EXPECT_EQ(mb.level(), 0);
}

TEST_F(MemBudget, EngineBailsOutUnknownNotDead) {
  // An exhausted budget is a clean kUnknown (retry with more resources),
  // not a kError and not an allocator abort.
  util::MemoryBudget::instance().set_limit_mb(1);
  mc::EngineOptions opts;
  opts.time_limit_sec = 20.0;
  auto t0 = std::chrono::steady_clock::now();
  mc::EngineResult r = mc::check_bmc(bench::token_ring(6, false), 0, opts);
  double secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  EXPECT_EQ(r.verdict, mc::Verdict::kUnknown);
  EXPECT_EQ(r.error.kind, mc::ErrorKind::kNone);
  EXPECT_LT(secs, 10.0) << "memory bail-out was not prompt";
}

// --- containment: one member dies, the run survives ------------------------

TEST_F(Containment, SatOomKillsOnlyTheSatMembers) {
  // Every clause-arena allocation anywhere in the process throws, so the
  // interpolation member dies instantly; the SAT-free random-simulation
  // member must still falsify the closed counter.
  util::fault::configure("sat.arena:1:1000000");
  mc::PortfolioOptions po;
  po.time_limit_sec = 30.0;
  // Two ITP members ahead of the survivor in the queue, two workers: both
  // doomed members are claimed (and their deaths recorded) before any
  // worker can reach random-sim, so the roster check cannot race the win.
  po.members = {mc::PortfolioMember::kItp, mc::PortfolioMember::kItp,
                mc::PortfolioMember::kRandomSim};
  po.jobs = 2;
  mc::EngineResult r = mc::check_portfolio(bench::counter(4, 12, 7), 0, po);
  ASSERT_EQ(r.verdict, mc::Verdict::kFail);
  EXPECT_NE(r.engine.find("RANDOM-SIM"), std::string::npos) << r.engine;
  // The crashed member is a recorded outcome, not a vanished thread.
  bool saw_oom = false;
  for (const mc::MemberOutcome& m : r.members) {
    if (m.verdict == mc::Verdict::kError) {
      EXPECT_EQ(m.error.kind, mc::ErrorKind::kOutOfMemory) << m.member;
      saw_oom = true;
    }
  }
  EXPECT_TRUE(saw_oom) << "dead member missing from the outcome list";
}

TEST_F(Containment, ItpExtractionFaultLetsBmcWin) {
  util::fault::configure("itp.extract:1:1000000:error");
  mc::PortfolioOptions po;
  po.time_limit_sec = 30.0;
  po.members = {mc::PortfolioMember::kItp, mc::PortfolioMember::kBmc};
  mc::EngineResult r = mc::check_portfolio(bench::counter(4, 12, 7), 0, po);
  ASSERT_EQ(r.verdict, mc::Verdict::kFail);
  EXPECT_NE(r.engine.find("BMC"), std::string::npos) << r.engine;
  for (const mc::MemberOutcome& m : r.members) {
    if (m.verdict == mc::Verdict::kError) {
      EXPECT_EQ(m.error.kind, mc::ErrorKind::kInternal) << m.member;
    }
  }
}

TEST_F(Containment, AllMembersDeadIsAnErrorVerdictWithTheTaxonomy) {
  // PASS instance + every SAT allocation throwing: no member can survive,
  // so this is the one case where the portfolio itself reports kError.
  util::fault::configure("sat.arena:1:1000000");
  mc::PortfolioOptions po;
  po.time_limit_sec = 30.0;
  po.members = {mc::PortfolioMember::kBmc, mc::PortfolioMember::kItp};
  mc::EngineResult r = mc::check_portfolio(bench::token_ring(6, false), 0, po);
  ASSERT_EQ(r.verdict, mc::Verdict::kError);
  EXPECT_EQ(r.error.kind, mc::ErrorKind::kOutOfMemory);
  ASSERT_EQ(r.members.size(), 2u);
  for (const mc::MemberOutcome& m : r.members) {
    EXPECT_EQ(m.verdict, mc::Verdict::kError) << m.member;
    EXPECT_EQ(m.error.kind, mc::ErrorKind::kOutOfMemory) << m.member;
  }
}

TEST_F(Containment, WatchdogEscalatesAMissedDeadline) {
  // A member stalled outside its cancellation poll loop (the first clause
  // allocation blocks 700 ms) blows straight through a 100 ms budget plus
  // 50 ms grace; the watchdog must force cancellation and annotate the
  // salvaged kUnknown so the caller can tell it from a healthy timeout.
  // One scheduler serves every configuration, so the watchdog covers a
  // two-member race, a single-member list and a one-worker pool alike.
  struct Cfg {
    const char* name;
    std::vector<mc::PortfolioMember> members;
    unsigned jobs;
  };
  const std::vector<mc::PortfolioMember> two = {
      mc::PortfolioMember::kBmc, mc::PortfolioMember::kRandomSim};
  const Cfg cfgs[] = {
      {"race", two, 0},
      {"single member", {mc::PortfolioMember::kBmc}, 0},
      {"jobs=1", two, 1},
  };
  for (const Cfg& cfg : cfgs) {
    util::fault::configure("sat.arena:1:1:stall700");
    mc::PortfolioOptions po;
    po.time_limit_sec = 0.1;
    po.watchdog_grace_sec = 0.05;
    po.members = cfg.members;
    po.jobs = cfg.jobs;
    mc::EngineResult r =
        mc::check_portfolio(bench::token_ring(6, false), 0, po);
    util::fault::clear();
    EXPECT_EQ(r.verdict, mc::Verdict::kUnknown) << cfg.name;
    EXPECT_EQ(r.error.kind, mc::ErrorKind::kSolverLimit) << cfg.name;
    EXPECT_NE(r.error.message.find("watchdog"), std::string::npos)
        << cfg.name << ": " << r.error.message;
  }
}

TEST_F(Containment, DrainerSwallowsInjectedFaultsAndStaysAlive) {
  // A fault inside the trace drainer must never take the process (or the
  // run's verdict) with it: finish() absorbs it and accounts the loss.
  util::fault::configure("obs.drain:1:1:error");
  obs::TraceConfig cfg;
  cfg.sample_interval_sec = -1.0;  // drain only at finish()
  obs::TraceSink sink(cfg);
  obs::emit("fault_test_event", {{"n", 1u}});
  EXPECT_NO_THROW(sink.finish());
}

// --- crash-safe publication: util::atomic_write_file ----------------------

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::stringstream body;
  body << f.rdbuf();
  return body.str();
}

TEST(AtomicWrite, OverwritesWithTheWholeNewBody) {
  // --stats-json publishes through this helper.  Each write must replace
  // the file as a whole: a shorter body leaves no tail of the longer one,
  // and no temp sibling survives a successful write.
  const std::string path =
      std::string(::testing::TempDir()) + "itpseq_atomic_overwrite.json";
  std::string err;
  ASSERT_TRUE(util::atomic_write_file(path, "{\"first\":\"a longer body\"}\n",
                                      &err))
      << err;
  EXPECT_EQ(read_file(path), "{\"first\":\"a longer body\"}\n");
  ASSERT_TRUE(util::atomic_write_file(path, "{}\n", &err)) << err;
  EXPECT_EQ(read_file(path), "{}\n");
  ASSERT_TRUE(util::atomic_write_file(path, "", &err)) << err;
  EXPECT_EQ(read_file(path), "");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(AtomicWrite, FailedWriteLeavesTheOldFileIntact) {
  // The temp sibling cannot be opened (a directory sits at its name): the
  // write reports the failure and the final path keeps its old body.
  const std::string path =
      std::string(::testing::TempDir()) + "itpseq_atomic_blocked.json";
  ASSERT_TRUE(util::atomic_write_file(path, "old body\n"));
  std::filesystem::create_directory(path + ".tmp");
  std::string err;
  EXPECT_FALSE(util::atomic_write_file(path, "new body\n", &err));
  EXPECT_NE(err.find(".tmp"), std::string::npos) << err;
  EXPECT_EQ(read_file(path), "old body\n");
  std::filesystem::remove(path + ".tmp");
  std::remove(path.c_str());
}

// --- hostile inputs: parsers fail fast, never allocate the lie -------------

TEST_F(HostileInputs, MalformedAigerHeadersAreRejected) {
  const char* corpus[] = {
      "malformed/huge_counts.aag",   // counts demand gigabytes the file lacks
      "malformed/huge_counts.aig",   // binary variant of the same lie
      "malformed/huge_maxvar.aag",   // max_var far beyond the declared body
      "malformed/garbage_header.aag",
      "malformed/truncated_ands.aag",
      "malformed/bad_latch_next.aag",  // next-state literal out of range
      "malformed/bad_and_rhs.aag",     // AND fanin literal out of range
  };
  for (const char* rel : corpus) {
    EXPECT_THROW(aig::read_aiger_file(data_path(rel)), std::runtime_error)
        << rel;
  }
  // The rejection must be diagnosable: aiger-prefixed, header-blaming.
  try {
    aig::read_aiger_file(data_path("malformed/huge_counts.aag"));
    FAIL() << "hostile header was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("aiger:", 0), 0u) << e.what();
  }
}

TEST_F(HostileInputs, MalformedBlifIsRejected) {
  EXPECT_THROW(io::read_blif_file(data_path("malformed/undefined_signal.blif")),
               std::runtime_error);
  EXPECT_THROW(io::read_blif_file(data_path("malformed/bad_latch.blif")),
               std::runtime_error);
}

TEST_F(HostileInputs, LoaderFaultSitesFire) {
  // The loader sites let CI rehearse I/O-failure handling without a broken
  // filesystem: a valid input plus an armed site must raise, not parse.
  util::fault::configure("aig.load:1");
  std::istringstream aag("aag 0 0 0 0 0\n");
  EXPECT_THROW(aig::read_aiger(aag), std::bad_alloc);
  util::fault::clear();

  util::fault::configure("blif.load:1:1:error");
  std::istringstream blif(".model m\n.inputs a\n.outputs a\n.end\n");
  EXPECT_THROW(io::read_blif(blif), std::runtime_error);
}

}  // namespace
}  // namespace itpseq
