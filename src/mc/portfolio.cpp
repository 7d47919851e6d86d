// portfolio.cpp — the portfolio in two parts: a member runner (run,
// contain, relaunch after OOM) and one scheduler (a worker pool; jobs = 1 is
// a pool of one).  See portfolio.hpp for the scheduler/cancellation
// contracts.
#include "mc/portfolio.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "mc/kinduction.hpp"
#include "obs/trace.hpp"
#include "util/retry.hpp"

namespace itpseq::mc {

const char* to_string(PortfolioMember m) {
  switch (m) {
    case PortfolioMember::kRandomSim:
      return "RANDOM-SIM";
    case PortfolioMember::kBmc:
      return "BMC";
    case PortfolioMember::kItp:
      return "ITP";
    case PortfolioMember::kItpSeq:
      return "ITPSEQ";
    case PortfolioMember::kSItpSeq:
      return "SITPSEQ";
    case PortfolioMember::kItpSeqCba:
      return "ITPSEQCBA";
    case PortfolioMember::kKInduction:
      return "KIND";
    case PortfolioMember::kPdr:
      return "PDR";
  }
  return "?";
}

void degrade_for_retry(EngineOptions& eo) {
  // Shed the allocation-heavy machinery: the inprocessing occurrence index
  // is the largest transient allocation, the learnt-clause arena the
  // largest persistent one, and the state-set AIG grows unboundedly without
  // compaction.
  eo.sat_inprocess = false;
  eo.sat_reduce_base =
      eo.sat_reduce_base > 0.0 ? std::min(eo.sat_reduce_base, 500.0) : 500.0;
  if (eo.compact_threshold == 0 || eo.compact_threshold > 50000)
    eo.compact_threshold = 50000;
}

namespace {

/// Simple xorshift64 for reproducible word streams.
std::uint64_t next_word(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

/// Rounds of the random-simulation sweep.  Fixed, so the explored trace
/// enumeration never depends on wall-clock, thread interleaving or `jobs`:
/// budget/cancellation can truncate the sweep (degrading FAIL to UNKNOWN)
/// but never change which witness is reported.
constexpr unsigned kSimSweepRounds = 4096;

/// Run one member to completion under `eo` (budget and cancellation token
/// are both inside).
///
/// Containment boundary: a member that throws (engine construction, the
/// self-scheduled random-sim sweep — Engine::run() has its own boundary for
/// everything Engine-derived) becomes a kError *result*; the portfolio
/// keeps racing the survivors instead of std::terminate taking the process.
EngineResult run_member(const aig::Aig& model, std::size_t prop,
                        PortfolioMember m, const EngineOptions& eo,
                        std::uint64_t sim_seed) {
  try {
    switch (m) {
      case PortfolioMember::kRandomSim:
        return check_random_sim(model, prop, /*depth=*/64, kSimSweepRounds,
                                sim_seed, eo.cancel, eo.time_limit_sec);
      case PortfolioMember::kBmc:
        return check_bmc(model, prop, eo);
      case PortfolioMember::kItp:
        return check_itp(model, prop, eo);
      case PortfolioMember::kItpSeq:
        return check_itpseq(model, prop, eo);
      case PortfolioMember::kSItpSeq:
        return check_sitpseq(model, prop, eo);
      case PortfolioMember::kItpSeqCba:
        return check_itpseq_cba(model, prop, eo);
      case PortfolioMember::kKInduction:
        return check_kinduction(model, prop, eo);
      case PortfolioMember::kPdr:
        return check_pdr(model, prop, eo);
    }
  } catch (const std::exception& e) {
    EngineResult r;
    r.engine = to_string(m);
    r.verdict = Verdict::kError;
    r.error = classify_exception(e);
    if (obs::enabled()) {
      obs::emit("engine_error",
                {{"engine", to_string(m)}, {"kind", to_string(r.error.kind)}});
    }
    return r;
  } catch (...) {
    EngineResult r;
    r.engine = to_string(m);
    r.verdict = Verdict::kError;
    r.error = {ErrorKind::kInternal, "unknown exception"};
    if (obs::enabled()) {
      obs::emit("engine_error",
                {{"engine", to_string(m)}, {"kind", to_string(r.error.kind)}});
    }
    return r;
  }
  return {};
}

}  // namespace

EngineResult check_random_sim(const aig::Aig& model, std::size_t prop,
                              unsigned depth, unsigned rounds,
                              std::uint64_t seed,
                              const std::atomic<bool>* cancel,
                              double time_limit_sec) {
  // Random simulation bypasses Engine::run(), so it tags and times itself.
  obs::ScopedEngine obs_tag("RANDOM-SIM");
  obs::Span obs_span("run", {{"rounds", rounds}, {"depth", depth}});
  auto t0 = std::chrono::steady_clock::now();
  auto give_up = [&] {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed))
      return true;
    if (time_limit_sec < 0) return false;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
               .count() >= time_limit_sec;
  };
  EngineResult out;
  out.engine = "RANDOM-SIM";
  out.verdict = Verdict::kUnknown;
  std::uint64_t rng = seed ? seed : 1;

  if (prop >= model.num_outputs()) {
    out.verdict = Verdict::kPass;
    return out;
  }
  // Topological order over the cone of all next-state functions + bad.
  std::vector<aig::Lit> roots;
  for (std::size_t i = 0; i < model.num_latches(); ++i)
    roots.push_back(model.latch_next(i));
  roots.push_back(model.output(prop));
  for (std::size_t i = 0; i < model.num_constraints(); ++i)
    roots.push_back(model.constraint(i));
  std::vector<aig::Var> order = model.cone(roots);

  std::vector<std::uint64_t> val(model.num_vars(), 0);
  auto lit_word = [&](aig::Lit l) {
    std::uint64_t base = aig::lit_var(l) == 0 ? 0ull : val[aig::lit_var(l)];
    return base ^ (aig::lit_sign(l) ? ~0ull : 0ull);
  };

  for (unsigned round = 0; round < rounds; ++round) {
    // Cancellation/time truncate the sweep but never permute it, so the
    // first counterexample found is a fixed function of the seed.
    if (give_up()) break;
    // Initial latch words.
    std::vector<std::uint64_t> init_words(model.num_latches());
    for (std::size_t i = 0; i < model.num_latches(); ++i) {
      switch (model.latch_init(i)) {
        case aig::LatchInit::kZero:
          init_words[i] = 0;
          break;
        case aig::LatchInit::kOne:
          init_words[i] = ~0ull;
          break;
        case aig::LatchInit::kUndef:
          init_words[i] = next_word(rng);
          break;
      }
      val[aig::lit_var(model.latch(i))] = init_words[i];
    }
    std::vector<std::vector<std::uint64_t>> input_words;
    std::uint64_t valid = ~0ull;  // lanes where constraints held so far

    for (unsigned t = 0; t <= depth; ++t) {
      input_words.emplace_back(model.num_inputs());
      for (std::size_t i = 0; i < model.num_inputs(); ++i) {
        input_words.back()[i] = next_word(rng);
        val[aig::lit_var(model.input(i))] = input_words.back()[i];
      }
      for (aig::Var v : order) {
        const aig::Node& n = model.node(v);
        if (n.type == aig::NodeType::kAnd)
          val[v] = lit_word(n.fanin0) & lit_word(n.fanin1);
      }
      for (std::size_t i = 0; i < model.num_constraints(); ++i)
        valid &= lit_word(model.constraint(i));
      std::uint64_t bad = lit_word(model.output(prop)) & valid;
      if (bad) {
        // Extract the failing lane into a concrete trace.
        unsigned lane = 0;
        while (!((bad >> lane) & 1)) ++lane;
        Trace trace;
        trace.initial_latches.resize(model.num_latches());
        for (std::size_t i = 0; i < model.num_latches(); ++i)
          trace.initial_latches[i] = (init_words[i] >> lane) & 1;
        for (unsigned f = 0; f <= t; ++f) {
          std::vector<bool> in(model.num_inputs());
          for (std::size_t i = 0; i < model.num_inputs(); ++i)
            in[i] = (input_words[f][i] >> lane) & 1;
          trace.inputs.push_back(std::move(in));
        }
        out.verdict = Verdict::kFail;
        out.k_fp = t;
        out.cex = std::move(trace);
        out.seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        return out;
      }
      // Advance latches.
      std::vector<std::uint64_t> next(model.num_latches());
      for (std::size_t i = 0; i < model.num_latches(); ++i)
        next[i] = lit_word(model.latch_next(i));
      for (std::size_t i = 0; i < model.num_latches(); ++i)
        val[aig::lit_var(model.latch(i))] = next[i];
    }
  }
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

namespace {

/// State one portfolio run shares between its workers, the guard thread
/// and the caller.  `mu` guards the roster and the result slots below it;
/// once schedule() has joined every thread they belong to the caller.
struct Run {
  Run(const aig::Aig& g, std::size_t p, const PortfolioOptions& o)
      : model(g), prop(p), opts(o) {}

  double elapsed() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  }

  const aig::Aig& model;
  const std::size_t prop;
  const PortfolioOptions& opts;
  const std::chrono::steady_clock::time_point t0 =
      std::chrono::steady_clock::now();
  std::atomic<bool> cancel{false};
  bool watchdog_fired = false;  ///< written by the guard thread only

  std::mutex mu;
  std::vector<MemberOutcome> outcomes;  ///< every member's fate
  int winner = -1;
  EngineResult win;
  EngineResult last;  ///< no-winner fallback
  bool have_unknown = false;
};

/// Member runner: run queue entry `slot` with `budget` seconds, contained by
/// run_member, and relaunch it after an out-of-memory death (see
/// "Self-healing" in portfolio.hpp).  `o` receives the member's fate; the
/// final attempt's result is returned.
EngineResult run_and_relaunch(Run& run, std::size_t slot, double budget,
                              MemberOutcome& o) {
  const PortfolioOptions& opts = run.opts;
  const PortfolioMember m = opts.members[slot];
  o.member = to_string(m);
  EngineOptions base = opts.engine_defaults;
  EngineResult r;
  for (unsigned attempt = 0;; ++attempt) {
    EngineOptions eo = base;
    eo.time_limit_sec = budget;
    eo.cancel = &run.cancel;
    if (opts.active_probe != nullptr) opts.active_probe->fetch_add(1);
    if (obs::enabled()) {
      obs::emit("worker_start", {{"member", to_string(m)},
                                 {"slot", slot},
                                 {"attempt", attempt},
                                 {"budget_sec", budget}});
    }
    r = run_member(run.model, run.prop, m, eo, opts.sim_seed);
    if (opts.active_probe != nullptr) opts.active_probe->fetch_sub(1);
    if (obs::enabled()) {
      obs::emit("worker_done", {{"member", to_string(m)},
                                {"slot", slot},
                                {"verdict", to_string(r.verdict)},
                                {"seconds", r.seconds}});
    }
    o.seconds += r.seconds;
    if (r.verdict != Verdict::kError ||
        r.error.kind != ErrorKind::kOutOfMemory ||
        attempt >= util::kMaxRelaunches ||
        run.cancel.load(std::memory_order_relaxed))
      break;
    double delay = util::backoff_delay_sec(
        attempt, opts.sim_seed ^ (0x9e3779b97f4a7c15ull * (slot + 1)));
    if (opts.time_limit_sec - run.elapsed() <= delay) break;
    if (!util::interruptible_sleep(delay, &run.cancel)) break;
    budget = std::min(budget, opts.time_limit_sec - run.elapsed());
    if (budget <= 0) break;
    degrade_for_retry(base);
    o.restarts = attempt + 1;
    o.last_error = r.error;
    if (obs::enabled()) {
      obs::emit("member_restart", {{"member", to_string(m)},
                                   {"attempt", o.restarts},
                                   {"error", to_string(r.error.kind)},
                                   {"delay_sec", delay}});
    }
  }
  o.verdict = r.verdict;
  o.k_fp = r.k_fp;
  o.error = r.error;
  return r;
}

/// Scheduler: a pool of `jobs` workers drains the member queue in list
/// order; the first definite verdict (kPass/kFail) flips the cancellation
/// token and every peer winds down cooperatively.  Each member is capped at
/// its fair share of the pool's remaining capacity, remaining * jobs /
/// members still queued, so the queue behind it still gets its turn.  A
/// guard thread relays external cancellation and runs the watchdog.  Every
/// thread, the guard included, is joined before returning (engines never
/// detach work — see engine.hpp).
void schedule(Run& run, unsigned jobs) {
  const PortfolioOptions& opts = run.opts;
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    try {
      while (!run.cancel.load(std::memory_order_relaxed)) {
        std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= opts.members.size()) break;
        double remaining = opts.time_limit_sec - run.elapsed();
        if (remaining <= 0) break;
        std::size_t queued = opts.members.size() - i;
        double budget =
            std::min(remaining, remaining * jobs / static_cast<double>(queued));
        MemberOutcome o;
        EngineResult r = run_and_relaunch(run, i, budget, o);
        std::lock_guard<std::mutex> lock(run.mu);
        run.outcomes.push_back(std::move(o));
        if (r.verdict == Verdict::kPass || r.verdict == Verdict::kFail) {
          if (run.winner < 0) {
            run.winner = static_cast<int>(i);
            run.win = std::move(r);
            run.cancel.store(true, std::memory_order_relaxed);
            // The winning verdict propagates cancellation to every peer.
            if (obs::enabled()) {
              obs::emit("cancel", {{"winner", to_string(opts.members[i])},
                                   {"verdict", to_string(run.win.verdict)}});
            }
          }
        } else if (r.verdict == Verdict::kUnknown || !run.have_unknown) {
          // Prefer a healthy kUnknown over a crashed member's kError for
          // the no-winner return; a kError only sticks while nothing
          // healthy has reported.
          if (r.verdict == Verdict::kUnknown) run.have_unknown = true;
          run.last = std::move(r);
        }
      }
    } catch (const std::exception& e) {
      // run_member contains engine exceptions; this boundary covers the
      // scheduler bookkeeping itself (option copies, obs emission) so a
      // worker can never take down the process or skip its join.
      std::lock_guard<std::mutex> lock(run.mu);
      MemberOutcome o;
      o.member = "portfolio-worker";
      o.verdict = Verdict::kError;
      o.error = classify_exception(e);
      run.outcomes.push_back(std::move(o));
    } catch (...) {
      std::lock_guard<std::mutex> lock(run.mu);
      MemberOutcome o;
      o.member = "portfolio-worker";
      o.verdict = Verdict::kError;
      o.error = {ErrorKind::kInternal, "unknown exception"};
      run.outcomes.push_back(std::move(o));
    }
  };

  // The guard sleeps on a condition variable, so the exit path wakes it
  // immediately.  The watchdog: if cooperative cancellation misses the
  // deadline (an engine stalled outside its poll loop), force cancellation
  // after the grace period and mark the escalation.
  struct Relay {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
  };
  Relay relay;
  std::atomic<bool>* external = opts.engine_defaults.cancel;
  const bool watchdog_on =
      opts.watchdog_grace_sec > 0 && opts.time_limit_sec >= 0;
  std::thread guard;
  if (external != nullptr || watchdog_on) {
    guard = std::thread([&] {
      try {
        const double deadline = opts.time_limit_sec + opts.watchdog_grace_sec;
        std::unique_lock<std::mutex> lock(relay.mu);
        while (!relay.cv.wait_for(lock, std::chrono::milliseconds(2),
                                  [&] { return relay.done; })) {
          if (external != nullptr &&
              external->load(std::memory_order_relaxed)) {
            run.cancel.store(true, std::memory_order_relaxed);
          }
          if (watchdog_on && !run.watchdog_fired &&
              run.elapsed() >= deadline) {
            run.watchdog_fired = true;
            run.cancel.store(true, std::memory_order_relaxed);
            if (obs::enabled()) {
              obs::emit("watchdog", {{"grace_sec", opts.watchdog_grace_sec},
                                     {"elapsed_sec", run.elapsed()}});
            }
          }
        }
      } catch (...) {
        // Never let the guard take the process down: losing it only means
        // cancellation waits for the workers' own deadline polls.
      }
    });
  }
  // Exception-safe teardown, in reverse declaration order: workers are
  // joined first (PoolJoin below), then the guard is woken and joined —
  // on *every* exit path, including a throwing spawn loop.
  struct GuardJoin {
    Relay& relay;
    std::thread& t;
    ~GuardJoin() {
      {
        std::lock_guard<std::mutex> lock(relay.mu);
        relay.done = true;
      }
      relay.cv.notify_all();
      if (t.joinable()) t.join();
    }
  };
  GuardJoin guard_join{relay, guard};

  std::vector<std::thread> pool;
  struct PoolJoin {
    std::vector<std::thread>& pool;
    ~PoolJoin() {
      for (std::thread& t : pool)
        if (t.joinable()) t.join();
    }
  };
  PoolJoin pool_join{pool};
  pool.reserve(jobs);
  try {
    for (unsigned j = 0; j < jobs; ++j) pool.emplace_back(worker);
  } catch (const std::system_error&) {
    // Thread creation failed under resource pressure: degrade to whatever
    // part of the pool did start instead of dying.
  }
  if (pool.empty()) worker();  // last resort: run the queue inline
}

}  // namespace

EngineResult check_portfolio(const aig::Aig& model, std::size_t prop,
                             const PortfolioOptions& opts) {
  if (opts.members.empty()) {
    EngineResult none;
    none.engine = "portfolio";
    return none;
  }
  Run run(model, prop, opts);
  unsigned jobs = opts.jobs;
  if (jobs == 0) {
    // One thread per member by default.  Members are pure CPU burners, so
    // even on fewer cores racing + early cancellation beats time slicing
    // (the OS preempts; the fastest member still finishes early and cancels
    // the rest) — only very long member lists are capped to the hardware.
    unsigned hw = std::thread::hardware_concurrency();
    jobs = static_cast<unsigned>(
        std::min<std::size_t>(opts.members.size(), std::max(hw, 8u)));
  }
  jobs = static_cast<unsigned>(
      std::min<std::size_t>(jobs, opts.members.size()));
  schedule(run, jobs);

  // Every thread is joined: the roster and result slots are ours alone.
  EngineResult r;
  if (run.winner >= 0) {
    r = std::move(run.win);
    r.engine = std::string("portfolio/") +
               to_string(opts.members[static_cast<std::size_t>(run.winner)]);
  } else {
    // No winner.  Every member failing is a portfolio-level error; a mix of
    // kUnknown and crashes stays kUnknown (the healthy members simply ran
    // out of budget) with the crashes listed in `members`.
    r = std::move(run.last);
    r.engine = "portfolio";
    bool all_error = !run.outcomes.empty();
    for (const MemberOutcome& o : run.outcomes)
      if (o.verdict != Verdict::kError) all_error = false;
    if (all_error) {
      r.verdict = Verdict::kError;
      r.error = run.outcomes.front().error;
    } else if (run.watchdog_fired && r.verdict == Verdict::kUnknown &&
               r.error.kind == ErrorKind::kNone) {
      r.error = {ErrorKind::kSolverLimit,
                 "watchdog: deadline passed without cooperative cancellation"};
    }
  }
  r.seconds = run.elapsed();
  r.members = std::move(run.outcomes);
  return r;
}

}  // namespace itpseq::mc
