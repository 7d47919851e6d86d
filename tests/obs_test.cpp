// obs_test.cpp — the tracing/telemetry subsystem end to end: JSONL schema
// and parseability under multithreaded emission, per-thread span nesting,
// Chrome trace-event export, stats-json round-trips against EngineStats,
// torn-line safety with concurrent workers + the periodic sampler, and the
// near-zero-cost disabled path.  Runs under the `concurrency` ctest label
// (TSan exercises the buffer handoff and the sampler).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_circuits/generators.hpp"
#include "mc/bmc.hpp"
#include "mc/kinduction.hpp"
#include "mc/pdr.hpp"
#include "mc/portfolio.hpp"
#include "mc/run_report.hpp"
#include "obs/trace.hpp"

namespace itpseq {
namespace {

std::string temp_path(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir ? dir : "/tmp") + "/itpseq_obs_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// --- minimal JSON parser (objects/arrays/strings/numbers/bools/null) -------
// Strict enough to reject torn or truncated output: any syntax error fails
// the parse, and every test asserts on it.

struct Json {
  enum class Type { kNull, kBool, kNum, kStr, kArr, kObj } type = Type::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<Json> arr;
  std::map<std::string, Json> obj;

  bool has(const std::string& k) const { return obj.count(k) != 0; }
  const Json& at(const std::string& k) const { return obj.at(k); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool parse(Json& out) {
    ok_ = true;
    pos_ = 0;
    out = value();
    skip_ws();
    return ok_ && pos_ == s_.size();
  }

 private:
  const std::string& s_;
  std::size_t pos_ = 0;
  bool ok_ = true;

  void fail() { ok_ = false; }
  char peek() { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  char get() { return pos_ < s_.size() ? s_[pos_++] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  bool literal(const char* lit) {
    for (const char* p = lit; *p; ++p)
      if (get() != *p) {
        fail();
        return false;
      }
    return true;
  }

  Json value() {
    skip_ws();
    Json j;
    if (!ok_) return j;
    switch (peek()) {
      case '{': {
        get();
        j.type = Json::Type::kObj;
        skip_ws();
        if (peek() == '}') {
          get();
          return j;
        }
        while (ok_) {
          skip_ws();
          if (get() != '"') {
            fail();
            break;
          }
          std::string key = string_tail();
          skip_ws();
          if (get() != ':') {
            fail();
            break;
          }
          j.obj[key] = value();
          skip_ws();
          char c = get();
          if (c == '}') break;
          if (c != ',') {
            fail();
            break;
          }
        }
        return j;
      }
      case '[': {
        get();
        j.type = Json::Type::kArr;
        skip_ws();
        if (peek() == ']') {
          get();
          return j;
        }
        while (ok_) {
          j.arr.push_back(value());
          skip_ws();
          char c = get();
          if (c == ']') break;
          if (c != ',') {
            fail();
            break;
          }
        }
        return j;
      }
      case '"':
        get();
        j.type = Json::Type::kStr;
        j.str = string_tail();
        return j;
      case 't':
        j.type = Json::Type::kBool;
        j.b = true;
        literal("true");
        return j;
      case 'f':
        j.type = Json::Type::kBool;
        literal("false");
        return j;
      case 'n':
        literal("null");
        return j;
      default: {
        j.type = Json::Type::kNum;
        std::size_t start = pos_;
        if (peek() == '-') get();
        while (std::isdigit(static_cast<unsigned char>(peek())) ||
               peek() == '.' || peek() == 'e' || peek() == 'E' ||
               peek() == '+' || peek() == '-')
          get();
        if (pos_ == start) {
          fail();
          return j;
        }
        j.num = std::stod(s_.substr(start, pos_ - start));
        return j;
      }
    }
  }

  std::string string_tail() {
    std::string out;
    while (ok_) {
      char c = get();
      if (c == '"') return out;
      if (c == '\0') {
        fail();
        return out;
      }
      if (c == '\\') {
        char e = get();
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u':
            for (int i = 0; i < 4; ++i) get();
            out += '?';  // tests never compare escaped unicode content
            break;
          default: fail();
        }
      } else {
        out += c;
      }
    }
    return out;
  }
};

std::vector<Json> parse_jsonl(const std::string& path, bool* all_ok) {
  std::vector<Json> out;
  *all_ok = true;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    Json j;
    if (!JsonParser(line).parse(j) || j.type != Json::Type::kObj) {
      *all_ok = false;
      continue;
    }
    out.push_back(std::move(j));
  }
  return out;
}

// ---------------------------------------------------------------------------

TEST(ObsTest, DisabledByDefaultAndEmitIsANoOp) {
  ASSERT_FALSE(obs::enabled());
  obs::emit("never_recorded", {{"x", 1u}});  // must not crash or allocate a sink
  { obs::Span s("no_sink"); }
  ASSERT_FALSE(obs::enabled());
}

TEST(ObsTest, JsonlSchemaFromMultithreadedEmission) {
  std::string path = temp_path("schema.jsonl");
  {
    obs::TraceConfig cfg;
    cfg.path = path;
    cfg.sample_interval_sec = 0.005;  // force concurrent drains
    obs::TraceSink sink(cfg);
    ASSERT_TRUE(obs::enabled());
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t)
      threads.emplace_back([t] {
        obs::ScopedEngine tag(t % 2 == 0 ? "EVEN" : "ODD");
        for (int i = 0; i < 2000; ++i) {
          obs::Span span("work", {{"i", static_cast<unsigned>(i)}});
          obs::emit("tick", {{"thread", static_cast<unsigned>(t)},
                             {"i", static_cast<unsigned>(i)},
                             {"label", "static-string \"quoted\""}});
        }
      });
    for (auto& th : threads) th.join();
    sink.finish();
    obs::TraceSink::Summary sum = sink.summary();
    EXPECT_EQ(sum.dropped, 0u);
    std::uint64_t samples = sum.kinds[std::make_pair("sampler", "sample")];
    EXPECT_EQ(sum.events, 8u * 2u * 2000u + samples);
  }
  ASSERT_FALSE(obs::enabled());

  bool all_ok = false;
  std::vector<Json> events = parse_jsonl(path, &all_ok);
  EXPECT_TRUE(all_ok) << "some lines failed to parse (torn write?)";
  ASSERT_GE(events.size(), 8u * 2u * 2000u);
  std::uint64_t ticks = 0, spans = 0;
  for (const Json& e : events) {
    ASSERT_TRUE(e.has("ts_us") && e.has("tid") && e.has("engine") &&
                e.has("kind") && e.has("payload"));
    EXPECT_EQ(e.obj.size(), 5u);  // exactly the schema keys
    if (e.at("kind").str == "tick") {
      ++ticks;
      EXPECT_EQ(e.at("payload").at("label").str, "static-string \"quoted\"");
    } else if (e.at("kind").str == "span") {
      ++spans;
      EXPECT_TRUE(e.at("payload").has("name"));
      EXPECT_TRUE(e.at("payload").has("dur_us"));
    }
  }
  EXPECT_EQ(ticks, 8u * 2000u);
  EXPECT_EQ(spans, 8u * 2000u);
}

TEST(ObsTest, SpanNestingBalancedPerThread) {
  std::string path = temp_path("nesting.jsonl");
  {
    obs::TraceConfig cfg;
    cfg.path = path;
    cfg.sample_interval_sec = 0;  // drain only at finish
    obs::TraceSink sink(cfg);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
      threads.emplace_back([] {
        for (int i = 0; i < 50; ++i) {
          obs::Span outer("outer");
          obs::Span mid("mid");
          { obs::Span inner("inner"); }
          { obs::Span inner2("inner"); }
        }
      });
    for (auto& th : threads) th.join();
  }
  bool all_ok = false;
  std::vector<Json> events = parse_jsonl(path, &all_ok);
  ASSERT_TRUE(all_ok);

  // Complete events (start + duration) from RAII scopes must form a proper
  // interval nesting per thread: sort by (start, longest first); walking a
  // stack, every span is either disjoint from or contained in the stack top.
  struct Iv {
    std::uint64_t s, e;
  };
  std::map<int, std::vector<Iv>> by_tid;
  for (const Json& ev : events) {
    if (ev.at("kind").str != "span") continue;
    std::uint64_t s = static_cast<std::uint64_t>(ev.at("ts_us").num);
    by_tid[static_cast<int>(ev.at("tid").num)].push_back(
        {s, s + static_cast<std::uint64_t>(ev.at("payload").at("dur_us").num)});
  }
  ASSERT_EQ(by_tid.size(), 4u);
  for (auto& [tid, ivs] : by_tid) {
    ASSERT_EQ(ivs.size(), 4u * 50u) << "tid " << tid;
    std::sort(ivs.begin(), ivs.end(), [](const Iv& a, const Iv& b) {
      return a.s != b.s ? a.s < b.s : a.e > b.e;
    });
    std::vector<Iv> stack;
    for (const Iv& iv : ivs) {
      while (!stack.empty() && stack.back().e <= iv.s) stack.pop_back();
      if (!stack.empty()) {
        ASSERT_LE(iv.e, stack.back().e)
            << "tid " << tid << ": span [" << iv.s << "," << iv.e
            << ") straddles [" << stack.back().s << "," << stack.back().e << ")";
      }
      stack.push_back(iv);
    }
  }
}

TEST(ObsTest, ChromeExportIsValidJsonWithThreeEnginesOnDistinctTids) {
  std::string path = temp_path("trace.chrome.json");
  aig::Aig pass = bench::token_ring(6, false);
  {
    obs::TraceConfig cfg;
    cfg.path = path;
    cfg.format = obs::TraceConfig::Format::kChrome;
    obs::TraceSink sink(cfg);
    // Three engines on three real threads — the deterministic counterpart
    // of a jobs-3 portfolio race (no winner cancellation to lose spans to).
    mc::EngineOptions eo;
    eo.time_limit_sec = 30.0;
    std::thread a([&] { mc::check_bmc(pass, 0, eo); });
    std::thread b([&] { mc::check_pdr(pass, 0, eo); });
    std::thread c([&] { mc::check_kinduction(pass, 0, eo); });
    a.join();
    b.join();
    c.join();
  }
  std::string text = slurp(path);
  Json root;
  ASSERT_TRUE(JsonParser(text).parse(root)) << "chrome export is not valid JSON";
  ASSERT_EQ(root.type, Json::Type::kArr);
  std::map<std::string, std::set<int>> span_tids;  // engine -> tids with spans
  for (const Json& e : root.arr) {
    ASSERT_TRUE(e.has("name") && e.has("cat") && e.has("ph") && e.has("pid") &&
                e.has("tid") && e.has("ts"));
    if (e.at("ph").str == "X") {
      ASSERT_TRUE(e.has("dur"));
      span_tids[e.at("cat").str].insert(static_cast<int>(e.at("tid").num));
    }
  }
  span_tids.erase("main");
  span_tids.erase("sampler");
  ASSERT_GE(span_tids.size(), 3u) << "expected spans from >= 3 engines";
  std::set<int> all_tids;
  for (const auto& [engine, tids] : span_tids)
    all_tids.insert(tids.begin(), tids.end());
  EXPECT_GE(all_tids.size(), 3u) << "engines must sit on distinct threads";
}

TEST(ObsTest, StatsJsonRoundTripsEngineStats) {
  aig::Aig fail = bench::counter(4, 12, 7);
  obs::TraceConfig cfg;  // no file: summary-only sink
  cfg.sample_interval_sec = 0;
  obs::TraceSink sink(cfg);
  mc::EngineOptions eo;
  eo.time_limit_sec = 30.0;
  mc::EngineResult r = mc::check_bmc(fail, 0, eo);
  sink.finish();
  ASSERT_EQ(r.verdict, mc::Verdict::kFail);

  std::string body = mc::stats_json(r, &sink, "obs_test", "counter.aag");
  Json j;
  ASSERT_TRUE(JsonParser(body).parse(j)) << body;
  EXPECT_EQ(j.at("verdict").str, "FAIL");
  EXPECT_EQ(j.at("tool").str, "obs_test");
  EXPECT_EQ(j.at("engine").str, r.engine);
  EXPECT_EQ(static_cast<unsigned>(j.at("k_fp").num), r.k_fp);
  const Json& s = j.at("stats");
  EXPECT_EQ(static_cast<std::uint64_t>(s.at("sat_calls").num),
            r.stats.sat_calls);
  EXPECT_EQ(static_cast<std::uint64_t>(s.at("sat_conflicts").num),
            r.stats.sat_conflicts);
  EXPECT_EQ(static_cast<std::uint64_t>(s.at("sat_propagations").num),
            r.stats.sat_propagations);
  EXPECT_EQ(static_cast<std::uint64_t>(s.at("sat_assumption_propagations").num),
            r.stats.sat_assumption_propagations);
  EXPECT_EQ(static_cast<std::uint64_t>(s.at("sat_assumption_levels").num),
            r.stats.sat_assumption_levels);
  EXPECT_EQ(static_cast<std::uint64_t>(s.at("proof_clauses").num),
            r.stats.proof_clauses);
  EXPECT_EQ(static_cast<std::uint64_t>(s.at("sat_model_extensions").num),
            r.stats.sat_model_extensions);
  ASSERT_EQ(s.at("sat_glue_hist").arr.size(), r.stats.sat_glue_hist.size());
  for (std::size_t i = 0; i < r.stats.sat_glue_hist.size(); ++i)
    EXPECT_EQ(static_cast<std::uint64_t>(s.at("sat_glue_hist").arr[i].num),
              r.stats.sat_glue_hist[i]);
  // The BMC run emitted bound spans into the sink; they must be in "trace".
  ASSERT_TRUE(j.has("trace"));
  bool saw_bound = false;
  for (const Json& span : j.at("trace").at("spans").arr)
    if (span.at("engine").str == "BMC" && span.at("name").str == "bound")
      saw_bound = true;
  EXPECT_TRUE(saw_bound);

  // And the same report must also be written through the file path.
  std::string path = temp_path("stats.json");
  ASSERT_TRUE(mc::write_stats_json(path, r, &sink, "obs_test", "counter.aag"));
  Json j2;
  ASSERT_TRUE(JsonParser(slurp(path)).parse(j2));
  EXPECT_EQ(static_cast<std::uint64_t>(
                j2.at("stats").at("sat_conflicts").num),
            r.stats.sat_conflicts);
}

TEST(ObsTest, StatsJsonReportsFixpointChecks) {
  // A PASS needs a holding containment check, and only the checker proves
  // one; the witness pool answers some of the failing ones.
  aig::Aig pass = bench::token_ring(6, false);
  mc::EngineOptions eo;
  eo.time_limit_sec = 30.0;
  mc::EngineResult r = mc::check_itpseq(pass, 0, eo);
  ASSERT_EQ(r.verdict, mc::Verdict::kPass);
  EXPECT_GT(r.stats.fixpoint_sat_calls, 0u);
  EXPECT_LE(r.stats.fixpoint_sat_calls, r.stats.fixpoint_checks);

  Json j;
  const std::string body = mc::stats_json(r, nullptr, "obs_test", "ring.aag");
  ASSERT_TRUE(JsonParser(body).parse(j)) << body;
  const Json& s = j.at("stats");
  EXPECT_EQ(static_cast<std::uint64_t>(s.at("fixpoint_checks").num),
            r.stats.fixpoint_checks);
  EXPECT_EQ(static_cast<std::uint64_t>(s.at("fixpoint_sat_calls").num),
            r.stats.fixpoint_sat_calls);
}

TEST(ObsTest, StatsJsonReportsModelExtensions) {
  // PDR reads only frame-0 latches and inputs, so a SAT answer needs its
  // model extended only when BVE eliminated an input it reads.
  aig::Aig pass = bench::token_ring(6, false);
  mc::EngineOptions eo;
  eo.time_limit_sec = 30.0;
  mc::EngineResult r = mc::check_pdr(pass, 0, eo);
  ASSERT_EQ(r.verdict, mc::Verdict::kPass);
  ASSERT_GT(r.stats.sat_calls, 10u);
  EXPECT_LT(r.stats.sat_model_extensions, r.stats.sat_calls / 10);

  Json j;
  const std::string body = mc::stats_json(r, nullptr, "obs_test", "ring.aag");
  ASSERT_TRUE(JsonParser(body).parse(j)) << body;
  EXPECT_EQ(static_cast<std::uint64_t>(
                j.at("stats").at("sat_model_extensions").num),
            r.stats.sat_model_extensions);
}

TEST(ObsTest, PortfolioProducesNoTornLines) {
  aig::Aig pass = bench::token_ring(8, false);
  // jobs=1 is a one-worker pool: the same scheduler, the same events.
  for (unsigned jobs : {4u, 1u}) {
    std::string path = temp_path("portfolio.jsonl");
    std::uint64_t drained = 0;
    {
      obs::TraceConfig cfg;
      cfg.path = path;
      cfg.sample_interval_sec = 0.002;  // sampler drains while workers emit
      obs::TraceSink sink(cfg);
      mc::PortfolioOptions po;
      po.jobs = jobs;
      po.time_limit_sec = 30.0;
      mc::EngineResult r = mc::check_portfolio(pass, 0, po);
      EXPECT_EQ(r.verdict, mc::Verdict::kPass) << "jobs=" << jobs;
      sink.finish();
      drained = sink.summary().events;
    }
    bool all_ok = false;
    std::vector<Json> events = parse_jsonl(path, &all_ok);
    EXPECT_TRUE(all_ok) << "cancelled workers must never tear an output line";
    EXPECT_EQ(drained, events.size());  // drained == written
    // Worker lifecycle events flow through the main scheduler threads.
    std::uint64_t starts = 0, dones = 0;
    for (const Json& e : events) {
      if (e.at("kind").str == "worker_start") ++starts;
      if (e.at("kind").str == "worker_done") ++dones;
    }
    EXPECT_GE(starts, 1u) << "jobs=" << jobs;
    EXPECT_EQ(starts, dones) << "jobs=" << jobs;  // every start reported back
  }
}

TEST(ObsTest, SamplerEmitsSamplesAndBufferCapCountsDrops) {
  {
    obs::TraceConfig cfg;  // no file
    cfg.sample_interval_sec = 0.005;
    obs::TraceSink sink(cfg);
    obs::counters().conflicts.fetch_add(1234, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    sink.finish();
    obs::TraceSink::Summary sum = sink.summary();
    std::uint64_t samples = sum.kinds[std::make_pair("sampler", "sample")];
    EXPECT_GE(samples, 1u);
  }
  {
    obs::TraceConfig cfg;
    cfg.sample_interval_sec = 0;  // no drains until finish...
    cfg.max_buffered_events = 16;  // ...so the cap must kick in
    obs::TraceSink sink(cfg);
    for (int i = 0; i < 100; ++i) obs::emit("flood");
    sink.finish();
    obs::TraceSink::Summary sum = sink.summary();
    EXPECT_EQ(sum.events, 16u);
    EXPECT_EQ(sum.dropped, 84u);
  }
}

TEST(ObsTest, SinkReinstallAcrossGenerations) {
  // Tests create sinks back to back; thread buffers must re-register per
  // generation instead of writing into a dead sink's buffers.
  for (int round = 0; round < 3; ++round) {
    obs::TraceConfig cfg;
    cfg.sample_interval_sec = 0;
    obs::TraceSink sink(cfg);
    obs::emit("gen_probe", {{"round", static_cast<unsigned>(round)}});
    sink.finish();
    obs::TraceSink::Summary sum = sink.summary();
    std::uint64_t probes = sum.kinds[std::make_pair("main", "gen_probe")];
    EXPECT_EQ(probes, 1u) << round;
  }
  ASSERT_FALSE(obs::enabled());
}

}  // namespace
}  // namespace itpseq
