// driver.cpp — in-process engine benchmark over the generator suite.
//
// One process runs one workload: a fixed list of (instance, engine) calls
// over bench::make_suite(), issued serially from this single thread.  Work
// is capped by EngineOptions::max_bound only; the wall-clock budget is a
// safety net that a healthy call never reaches, so every call does the same
// work on every run and only host speed varies.
//
// Phases of one run:
//   1. Generate the workload's instances and serialize each to binary
//      AIGER in memory (input generation; not timed).
//   2. Set-up: parse every instance back with aig::read_aiger, the step an
//      itpseq-mc user pays per design.  Repeated --setups times; the first
//      parse feeds the engines, the others are spread evenly between engine
//      calls so that their median samples the whole run.
//   3. --passes passes over the call list, each in its own order drawn from
//      --seed.  Each call is timed alone between two readings of the host
//      probe (below); its verdict is then checked
//      (untimed): kError, a verdict contradicting Instance::expected, a
//      PASS whose certificate fails mc::check_certificate, a FAIL whose
//      trace does not replay in mc::Simulator, a call that reached the
//      safety net, and a later pass whose work differs from the first pass
//      all count as failed.
//
// Output: one JSON object on stdout with the raw per-call records (times
// and host probes of every pass, first-pass counters) and the set-up
// samples with their probes; run.py turns
// it into metrics.  Failing calls are also listed by name on stderr, and
// the exit code is 1 when any call failed.
//
// Usage: engine_bench --workload NAME [--seed N] [--passes P] [--setups S]
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "aig/aiger_io.hpp"
#include "bench_circuits/suite.hpp"
#include "mc/certify.hpp"
#include "mc/engine.hpp"
#include "mc/pdr.hpp"
#include "mc/sim.hpp"

using namespace itpseq;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Host probe: a fixed random read-modify-write walk over a 2 MiB buffer
// that is first flushed from the caches, about 0.4 ms on the reference
// host.  It times memory accesses that miss the caches, whose cost is what
// other tenants' contention for shared caches and memory changes (in phases
// of seconds to minutes); a warm or compute-bound probe misses that.  The
// flush makes the probe independent of what ran before it, and it runs no
// library code, so a change to the library cannot move it.  run.py scales
// each timed sample by the probes taken around it.
double probe() {
  static std::vector<std::uint32_t> buf(std::size_t{1} << 19);
  static std::uint64_t x = 1;
#if defined(__x86_64__) || defined(__i386__)
  for (std::size_t i = 0; i < buf.size(); i += 64 / sizeof(buf[0]))
    _mm_clflush(&buf[i]);
  _mm_mfence();
#endif
  const Clock::time_point t0 = Clock::now();
  for (int r = 0; r < 50000; ++r) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    buf[(x >> 40) & (buf.size() - 1)] += static_cast<std::uint32_t>(x);
  }
  return since(t0);
}

// The latest probe, refreshed when it is older than kProbeGapSec.  The
// flush costs about 5 ms, so short samples share a probe; a sample longer
// than the gap always gets a fresh probe after it, and the probe before it
// is at most the gap old.
class HostProbe {
 public:
  double now() {
    if (!valid_ || since(at_) >= kProbeGapSec) {
      value_ = probe();
      at_ = Clock::now();
      valid_ = true;
    }
    return value_;
  }

 private:
  static constexpr double kProbeGapSec = 0.1;
  double value_ = 0;
  Clock::time_point at_;
  bool valid_ = false;
};

enum class EngineKind { kItp, kItpseq, kSitpseq, kCba, kPba, kPdr };

const char* engine_name(EngineKind e) {
  switch (e) {
    case EngineKind::kItp: return "itp";
    case EngineKind::kItpseq: return "itpseq";
    case EngineKind::kSitpseq: return "sitpseq";
    case EngineKind::kCba: return "cba";
    case EngineKind::kPba: return "pba";
    case EngineKind::kPdr: return "pdr";
  }
  return "?";
}

enum class Slice { kAcademic, kIndustrial, kAll };

struct Workload {
  const char* name;
  Slice slice;
  std::vector<EngineKind> engines;
  unsigned max_bound;
};

// The three workloads (README.md gives the rationale for each).
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"seq_academic", Slice::kAcademic,
       {EngineKind::kItpseq, EngineKind::kSitpseq}, 32},
      {"paper_industrial", Slice::kIndustrial,
       {EngineKind::kItp, EngineKind::kItpseq, EngineKind::kCba,
        EngineKind::kPba},
       16},
      {"pdr_suite", Slice::kAll, {EngineKind::kPdr}, 500},
  };
  return w;
}

// Wall-clock safety net per call.  The slowest healthy call takes a few
// seconds; reaching this limit means the host, not the bound, ended the
// call, and the call counts as failed.
constexpr double kSafetyNetSec = 60.0;

struct Counters {
  mc::Verdict verdict = mc::Verdict::kUnknown;
  unsigned k_fp = 0;
  mc::EngineStats stats;
  mc::PdrStats pdr;

  bool same_work(const Counters& o) const {
    return verdict == o.verdict && k_fp == o.k_fp &&
           stats.sat_conflicts == o.stats.sat_conflicts &&
           stats.sat_propagations == o.stats.sat_propagations &&
           stats.proof_clauses == o.stats.proof_clauses &&
           pdr.queries == o.pdr.queries;
  }
};

struct Call {
  std::size_t inst = 0;
  EngineKind engine = EngineKind::kItp;
  Counters first;                // counters of the first pass
  std::vector<double> seconds;   // one per pass
  std::vector<double> host;      // mean host probe before and after, per pass
  std::string failure;           // first failure seen, empty if none
};

struct Outcome {
  mc::EngineResult result;
  mc::PdrStats pdr;
};

Outcome run_engine(EngineKind e, const aig::Aig& model,
                   const mc::EngineOptions& opts) {
  Outcome o;
  switch (e) {
    case EngineKind::kItp: o.result = mc::check_itp(model, 0, opts); break;
    case EngineKind::kItpseq: o.result = mc::check_itpseq(model, 0, opts); break;
    case EngineKind::kSitpseq: o.result = mc::check_sitpseq(model, 0, opts); break;
    case EngineKind::kCba: o.result = mc::check_itpseq_cba(model, 0, opts); break;
    case EngineKind::kPba: o.result = mc::check_itpseq_pba(model, 0, opts); break;
    case EngineKind::kPdr: {
      mc::PdrEngine eng(model, 0, opts);
      o.result = eng.run();
      o.pdr = eng.pdr_stats();
      break;
    }
  }
  return o;
}

// Empty when the verdict is checked good, else why it is not.
std::string check_verdict(const bench::Instance& inst, const aig::Aig& model,
                          const mc::EngineResult& r, double seconds) {
  using mc::Verdict;
  if (r.verdict == Verdict::kError)
    return std::string("engine error ") + mc::to_string(r.error.kind) + ": " +
           r.error.message;
  if (r.verdict == Verdict::kUnknown)
    return seconds >= kSafetyNetSec ? "hit the wall-clock safety net" : "";
  const Verdict expected = inst.expected == bench::Expected::kPass ? Verdict::kPass
                           : inst.expected == bench::Expected::kFail
                               ? Verdict::kFail
                               : r.verdict;
  if (r.verdict != expected)
    return std::string("verdict ") + mc::to_string(r.verdict) +
           " contradicts expected " + mc::to_string(expected);
  if (r.verdict == Verdict::kPass) {
    if (!r.certificate) return "PASS without certificate";
    mc::CertifyResult c = mc::check_certificate(model, 0, *r.certificate);
    if (!c.ok) return "certificate rejected: " + c.error;
    return "";
  }
  if (!mc::Simulator(model, 0).run(r.cex).is_cex())
    return "FAIL trace does not replay";
  return "";
}

std::vector<aig::Aig> parse_all(const std::vector<std::string>& images) {
  std::vector<aig::Aig> models;
  models.reserve(images.size());
  for (const std::string& img : images) {
    std::istringstream in(img);
    models.push_back(aig::read_aiger(in));
  }
  return models;
}

bool same_shape(const aig::Aig& a, const aig::Aig& b) {
  return a.num_inputs() == b.num_inputs() && a.num_latches() == b.num_latches() &&
         a.num_ands() == b.num_ands() && a.num_outputs() == b.num_outputs() &&
         a.num_constraints() == b.num_constraints();
}

void json_string(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
  std::putchar('"');
}

void json_seconds(const std::vector<double>& v) {
  std::putchar('[');
  for (std::size_t i = 0; i < v.size(); ++i)
    std::printf("%s%.9f", i ? "," : "", v[i]);
  std::putchar(']');
}

int usage() {
  std::fprintf(stderr,
               "usage: engine_bench --workload NAME [--seed N] [--passes P] "
               "[--setups S]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 1;
  unsigned passes = 1, setups = 1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") workload_name = v;
    else if (flag == "--seed") seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--passes") passes = static_cast<unsigned>(std::atoi(v));
    else if (flag == "--setups") setups = static_cast<unsigned>(std::atoi(v));
    else return usage();
  }
  if (argc % 2 == 0 || passes == 0 || setups == 0) return usage();
  const Workload* wl = nullptr;
  for (const Workload& w : workloads())
    if (workload_name == w.name) wl = &w;
  if (wl == nullptr) return usage();

  // 1. Inputs.
  std::vector<bench::Instance> insts;
  for (bench::Instance& inst : bench::make_suite()) {
    if (wl->slice == Slice::kAll ||
        inst.industrial == (wl->slice == Slice::kIndustrial))
      insts.push_back(std::move(inst));
  }
  std::vector<std::string> images;
  for (const bench::Instance& inst : insts) {
    std::ostringstream out;
    aig::write_aiger_binary(inst.model, out);
    images.push_back(out.str());
  }

  // 2. First set-up; its models feed the engines.
  HostProbe host;
  std::vector<double> setup_s, setup_host;
  auto timed_setup = [&] {
    const double before = host.now();
    const Clock::time_point start = Clock::now();
    std::vector<aig::Aig> parsed = parse_all(images);
    setup_s.push_back(since(start));
    setup_host.push_back(0.5 * (before + host.now()));
    return parsed;
  };
  const std::vector<aig::Aig> models = timed_setup();
  for (std::size_t i = 0; i < insts.size(); ++i) {
    if (!same_shape(models[i], insts[i].model)) {
      std::fprintf(stderr, "AIGER round trip changed %s\n", insts[i].name.c_str());
      return 1;
    }
  }

  // 3. Passes.
  std::vector<Call> calls;
  for (std::size_t i = 0; i < insts.size(); ++i) {
    for (EngineKind e : wl->engines) {
      Call c;
      c.inst = i;
      c.engine = e;
      calls.push_back(c);
    }
  }
  mc::EngineOptions opts;
  opts.max_bound = wl->max_bound;
  opts.time_limit_sec = kSafetyNetSec;

  const std::size_t total = calls.size() * passes;
  const std::size_t setup_every =
      setups > 1 ? std::max<std::size_t>(1, total / (setups - 1)) : total + 1;
  std::size_t issued = 0;
  std::vector<std::size_t> order(calls.size());
  for (unsigned p = 0; p < passes; ++p) {
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::seed_seq sq{seed, static_cast<std::uint64_t>(p)};
    std::mt19937_64 rng(sq);
    std::shuffle(order.begin(), order.end(), rng);
    for (std::size_t ci : order) {
      Call& c = calls[ci];
      const aig::Aig& model = models[c.inst];
      const double before = host.now();
      const Clock::time_point t0 = Clock::now();
      Outcome o = run_engine(c.engine, model, opts);
      const double sec = since(t0);
      c.host.push_back(0.5 * (before + host.now()));
      c.seconds.push_back(sec);

      Counters got{o.result.verdict, o.result.k_fp, o.result.stats, o.pdr};
      std::string failure;
      if (p == 0) {
        c.first = got;
        failure = check_verdict(insts[c.inst], model, o.result, sec);
      } else if (!got.same_work(c.first)) {
        failure = "work differs from the first pass";
      } else if (o.result.verdict == mc::Verdict::kUnknown) {
        failure = check_verdict(insts[c.inst], model, o.result, sec);
      }
      if (c.failure.empty()) c.failure = failure;

      if (++issued % setup_every == 0 && setup_s.size() < setups) timed_setup();
    }
  }
  while (setup_s.size() < setups) timed_setup();

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  // 4. Report.
  unsigned failed = 0;
  for (const Call& c : calls) {
    if (c.failure.empty()) continue;
    ++failed;
    std::fprintf(stderr, "FAILED %s/%s: %s\n", insts[c.inst].name.c_str(),
                 engine_name(c.engine), c.failure.c_str());
  }
  std::printf("{\"workload\":");
  json_string(wl->name);
  std::printf(",\"seed\":%llu,\"passes\":%u,\"max_bound\":%u,\"peak_rss_kb\":%ld,"
              "\"setup_s\":",
              static_cast<unsigned long long>(seed), passes, wl->max_bound,
              ru.ru_maxrss);
  json_seconds(setup_s);
  std::printf(",\"setup_host\":");
  json_seconds(setup_host);
  std::printf(",\"calls\":[");
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const Call& c = calls[i];
    const mc::EngineStats& s = c.first.stats;
    std::printf("%s{\"instance\":", i ? ",\n" : "\n");
    json_string(insts[c.inst].name);
    std::printf(",\"engine\":\"%s\",\"verdict\":\"%s\",\"k\":%u,\"seconds\":",
                engine_name(c.engine), mc::to_string(c.first.verdict),
                c.first.k_fp);
    json_seconds(c.seconds);
    std::printf(",\"host\":");
    json_seconds(c.host);
    std::printf(",\"sat_calls\":%llu,\"conflicts\":%llu,"
                "\"propagations\":%llu,\"inprocess_rounds\":%llu,"
                "\"proof_clauses\":%llu,\"max_itp_nodes\":%zu,"
                "\"state_aig_nodes\":%zu,\"cba_refinements\":%u,"
                "\"cba_visible_latches\":%u,\"pdr_queries\":%llu,"
                "\"pdr_lemmas\":%llu,\"pdr_lift_dropped\":%llu,\"failure\":",
                static_cast<unsigned long long>(s.sat_calls),
                static_cast<unsigned long long>(s.sat_conflicts),
                static_cast<unsigned long long>(s.sat_propagations),
                static_cast<unsigned long long>(s.sat_inprocess_rounds),
                static_cast<unsigned long long>(s.proof_clauses),
                s.max_itp_nodes, s.state_aig_nodes, s.cba_refinements,
                s.cba_visible_latches,
                static_cast<unsigned long long>(c.first.pdr.queries),
                static_cast<unsigned long long>(c.first.pdr.lemmas),
                static_cast<unsigned long long>(c.first.pdr.lift_dropped));
    json_string(c.failure);
    std::putchar('}');
  }
  std::printf("]}\n");
  return failed ? 1 : 0;
}
