// cancel_test.cpp — the cooperative cancellation contract: every engine
// polls EngineOptions::cancel (directly and through sat::Budget) and
// returns UNKNOWN promptly, and zero/negative time budgets return
// immediately instead of looping.  Runs under TSan via the `concurrency`
// ctest label (ITPSEQ_SANITIZE=thread).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>

#include "bench_circuits/generators.hpp"
#include "mc/engine.hpp"
#include "mc/kinduction.hpp"
#include "mc/portfolio.hpp"

namespace itpseq::mc {
namespace {

using CheckFn =
    std::function<EngineResult(const aig::Aig&, std::size_t, EngineOptions)>;

struct NamedEngine {
  const char* name;
  CheckFn run;
};

std::vector<NamedEngine> all_engines() {
  return {
      {"bmc", [](const aig::Aig& g, std::size_t p, EngineOptions o) {
         return check_bmc(g, p, o);
       }},
      {"itp", [](const aig::Aig& g, std::size_t p, EngineOptions o) {
         return check_itp(g, p, o);
       }},
      {"itpseq", [](const aig::Aig& g, std::size_t p, EngineOptions o) {
         return check_itpseq(g, p, o);
       }},
      {"sitpseq", [](const aig::Aig& g, std::size_t p, EngineOptions o) {
         return check_sitpseq(g, p, o);
       }},
      {"itpseq-cba", [](const aig::Aig& g, std::size_t p, EngineOptions o) {
         return check_itpseq_cba(g, p, o);
       }},
      {"kind", [](const aig::Aig& g, std::size_t p, EngineOptions o) {
         return check_kinduction(g, p, o);
       }},
      {"pdr", [](const aig::Aig& g, std::size_t p, EngineOptions o) {
         return check_pdr(g, p, o);
       }},
  };
}

/// Hard for every engine: a counter that FAILs only at depth 2^28 - 1.  No
/// engine can prove PASS (the property is false) and none can reach the
/// counterexample in test time, so every engine keeps iterating bounds
/// until budget/cancellation stops it.
aig::Aig hard_instance() {
  return bench::counter(28, 1ull << 28, (1ull << 28) - 1);
}

double run_seconds(const std::function<void()>& f) {
  auto t0 = std::chrono::steady_clock::now();
  f();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

TEST(Cancel, PreCancelledTokenReturnsImmediately) {
  aig::Aig g = hard_instance();
  std::atomic<bool> stop{true};  // set before the engine even starts
  for (auto& e : all_engines()) {
    EngineOptions o;
    o.time_limit_sec = 60.0;
    o.cancel = &stop;
    EngineResult r;
    double secs = run_seconds([&] { r = e.run(g, 0, o); });
    EXPECT_EQ(r.verdict, Verdict::kUnknown) << e.name;
    EXPECT_LT(secs, 2.0) << e.name << " ignored a pre-set cancellation token";
  }
}

TEST(Cancel, MidRunCancellationIsHonoredPromptly) {
  aig::Aig g = hard_instance();
  for (auto& e : all_engines()) {
    std::atomic<bool> stop{false};
    EngineOptions o;
    o.time_limit_sec = 60.0;  // would run a minute without the token
    o.cancel = &stop;
    std::thread killer([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      stop.store(true);
    });
    EngineResult r;
    double secs = run_seconds([&] { r = e.run(g, 0, o); });
    killer.join();
    EXPECT_LT(secs, 8.0) << e.name << " did not honor mid-run cancellation";
    // A verdict is only legitimate if it landed before the token fired.
    if (secs > 0.3) {
      EXPECT_EQ(r.verdict, Verdict::kUnknown) << e.name;
    }
  }
}

TEST(Cancel, EasyVerdictsAreUnaffectedByAnUnsetToken) {
  // A live (unset) token must not perturb results.
  std::atomic<bool> stop{false};
  aig::Aig fail_g = bench::counter(4, 12, 9);
  aig::Aig pass_g = bench::token_ring(6, /*fail_reach=*/false);
  for (auto& e : all_engines()) {
    EngineOptions o;
    o.time_limit_sec = 30.0;
    o.cancel = &stop;
    EngineResult r = e.run(fail_g, 0, o);
    EXPECT_EQ(r.verdict, Verdict::kFail) << e.name;
  }
  EngineOptions o;
  o.time_limit_sec = 30.0;
  o.cancel = &stop;
  EXPECT_EQ(check_pdr(pass_g, 0, o).verdict, Verdict::kPass);
  EXPECT_EQ(check_kinduction(pass_g, 0, o).verdict, Verdict::kPass);
}

TEST(Cancel, ZeroAndNegativeBudgetsReturnImmediately) {
  aig::Aig g = hard_instance();
  for (double budget : {0.0, -1.0}) {
    for (auto& e : all_engines()) {
      EngineOptions o;
      o.time_limit_sec = budget;
      EngineResult r;
      double secs = run_seconds([&] { r = e.run(g, 0, o); });
      EXPECT_EQ(r.verdict, Verdict::kUnknown)
          << e.name << " budget=" << budget;
      EXPECT_LT(secs, 1.0) << e.name << " looped on budget=" << budget;
    }
  }
}

TEST(Cancel, RandomSimHonorsTokenAndBudget) {
  aig::Aig g = hard_instance();
  std::atomic<bool> stop{true};
  EngineResult r;
  double secs = run_seconds([&] {
    // A sweep that would take ages: the pre-set token must cut it short.
    r = check_random_sim(g, 0, /*depth=*/512, /*rounds=*/1u << 20,
                         /*seed=*/1, &stop);
  });
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_LT(secs, 1.0);

  secs = run_seconds([&] {
    r = check_random_sim(g, 0, 512, 1u << 20, 1, nullptr,
                         /*time_limit_sec=*/0.2);
  });
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_LT(secs, 3.0);
}

TEST(Cancel, SatBudgetZeroSecondsDoesNotSearch) {
  // The solver-level half of the contract, checked directly.
  sat::Solver s;
  sat::Var a = s.new_var(), b = s.new_var();
  s.add_clause({sat::mk_lit(a), sat::mk_lit(b)}, 0);
  sat::Budget budget;
  budget.seconds = 0.0;
  EXPECT_EQ(s.solve(budget), sat::Status::kUnknown);
  std::atomic<bool> stop{true};
  budget.seconds = -1.0;
  budget.cancel = &stop;
  EXPECT_EQ(s.solve(budget), sat::Status::kUnknown);
  budget.cancel = nullptr;
  EXPECT_EQ(s.solve(budget), sat::Status::kSat);
}

}  // namespace
}  // namespace itpseq::mc
