// trace.cpp — TraceSink implementation: per-thread event buffers, the
// central drainer/serializer (JSONL + Chrome trace-event), the periodic
// sampler thread and the throttled --progress reporter.
#include "obs/trace.hpp"

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "util/fault.hpp"

namespace itpseq::obs {

namespace detail {

std::atomic<TraceSink*> g_sink{nullptr};

std::uint64_t now_us() {
  // One fixed epoch per process so timestamps from successive sinks (tests
  // create several) stay monotone and comparable.
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

std::uint32_t thread_id() {
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

namespace {
thread_local const char* t_engine = "main";
}  // namespace

}  // namespace detail

const char* engine_tag() { return detail::t_engine; }

ScopedEngine::ScopedEngine(const char* name) : prev_(detail::t_engine) {
  detail::t_engine = name;
}
ScopedEngine::~ScopedEngine() { detail::t_engine = prev_; }

Counters& counters() {
  static Counters c;
  return c;
}

// --- sink ------------------------------------------------------------------

namespace {

/// Per-thread event buffer.  The owning thread appends under `mu` (an
/// uncontended lock in steady state — the drainer takes it only long enough
/// to swap the vector out).
struct ThreadBuf {
  std::mutex mu;
  std::vector<Event> events;
  std::uint32_t tid = 0;
};

/// Buffer-lookup cache: one registration per (thread, sink generation).
struct TlsCache {
  std::uint64_t gen = 0;
  ThreadBuf* buf = nullptr;
};
thread_local TlsCache t_cache;
std::atomic<std::uint64_t> g_generation{0};

void append_escaped(std::string& out, const char* s) {
  for (; *s; ++s) {
    unsigned char c = static_cast<unsigned char>(*s);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
}

void append_arg_value(std::string& out, const Arg& a) {
  char buf[40];
  switch (a.type) {
    case Arg::Type::kU64:
      std::snprintf(buf, sizeof buf, "%" PRIu64, a.u);
      out += buf;
      break;
    case Arg::Type::kI64:
      std::snprintf(buf, sizeof buf, "%" PRId64, a.i);
      out += buf;
      break;
    case Arg::Type::kF64:
      std::snprintf(buf, sizeof buf, "%.6g", std::isfinite(a.f) ? a.f : 0.0);
      out += buf;
      break;
    case Arg::Type::kStr:
      out += '"';
      append_escaped(out, a.s != nullptr ? a.s : "");
      out += '"';
      break;
  }
}

void append_args(std::string& out, const Event& e, bool* first) {
  for (std::uint8_t i = 0; i < e.nargs; ++i) {
    if (!*first) out += ',';
    *first = false;
    out += '"';
    append_escaped(out, e.args[i].key != nullptr ? e.args[i].key : "?");
    out += "\":";
    append_arg_value(out, e.args[i]);
  }
}

void format_jsonl(std::string& out, const Event& e) {
  char buf[64];
  out += "{\"ts_us\":";
  std::snprintf(buf, sizeof buf, "%" PRIu64, e.ts_us);
  out += buf;
  std::snprintf(buf, sizeof buf, ",\"tid\":%u,\"engine\":\"", e.tid);
  out += buf;
  append_escaped(out, e.engine);
  out += "\",\"kind\":\"";
  append_escaped(out, e.kind);
  out += "\",\"payload\":{";
  bool first = true;
  if (e.span) {
    out += "\"name\":\"";
    append_escaped(out, e.name != nullptr ? e.name : "?");
    std::snprintf(buf, sizeof buf, "\",\"dur_us\":%" PRIu64, e.dur_us);
    out += buf;
    first = false;
  }
  append_args(out, e, &first);
  out += "}}\n";
}

void format_chrome(std::string& out, const Event& e) {
  char buf[96];
  out += "{\"name\":\"";
  append_escaped(out, e.span ? (e.name != nullptr ? e.name : "?") : e.kind);
  out += "\",\"cat\":\"";
  append_escaped(out, e.engine);
  if (e.span)
    std::snprintf(buf, sizeof buf,
                  "\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%" PRIu64
                  ",\"dur\":%" PRIu64 ",\"args\":{",
                  e.tid, e.ts_us, e.dur_us);
  else
    std::snprintf(buf, sizeof buf,
                  "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%" PRIu64 ",\"args\":{",
                  e.tid, e.ts_us);
  out += buf;
  bool first = true;
  append_args(out, e, &first);
  out += "}}";
}

}  // namespace

struct TraceSink::Impl {
  TraceConfig cfg;
  std::uint64_t gen = 0;

  // thread-buffer registry
  std::mutex reg_mu;
  std::vector<std::unique_ptr<ThreadBuf>> bufs;
  std::atomic<std::uint64_t> dropped{0};

  // drainer state (file + summary), one lock: drains are rare and batched
  std::mutex io_mu;
  std::FILE* file = nullptr;
  bool chrome_first = true;
  Summary summary;

  // sampler thread
  std::thread sampler;
  std::mutex cv_mu;
  std::condition_variable cv;
  bool stop = false;

  bool finished = false;

  ThreadBuf* register_thread() {
    auto buf = std::make_unique<ThreadBuf>();
    buf->tid = detail::thread_id();
    ThreadBuf* raw = buf.get();
    std::lock_guard<std::mutex> lock(reg_mu);
    bufs.push_back(std::move(buf));
    return raw;
  }

  void process(const std::vector<Event>& batch) {
    ITPSEQ_FAULT_POINT("obs.drain");
    std::lock_guard<std::mutex> lock(io_mu);
    std::string line;
    for (const Event& e : batch) {
      ++summary.events;
      if (e.span) {
        SpanAgg& a = summary.spans[{e.engine, e.name != nullptr ? e.name : "?"}];
        ++a.count;
        a.total_us += e.dur_us;
      } else {
        ++summary.kinds[{e.engine, e.kind}];
      }
      if (file != nullptr) {
        line.clear();
        if (cfg.format == TraceConfig::Format::kChrome) {
          if (!chrome_first) line += ",\n";
          chrome_first = false;
          format_chrome(line, e);
        } else {
          format_jsonl(line, e);
        }
        std::fwrite(line.data(), 1, line.size(), file);
      }
    }
    if (file != nullptr) std::fflush(file);
  }
};

TraceSink::TraceSink(TraceConfig cfg) : impl_(std::make_unique<Impl>()) {
  impl_->cfg = std::move(cfg);
  impl_->gen = g_generation.fetch_add(1, std::memory_order_relaxed) + 1;
  if (!impl_->cfg.path.empty()) {
    impl_->file = std::fopen(impl_->cfg.path.c_str(), "w");
    if (impl_->file != nullptr &&
        impl_->cfg.format == TraceConfig::Format::kChrome)
      std::fputs("[\n", impl_->file);
  }
  TraceSink* expected = nullptr;
  detail::g_sink.compare_exchange_strong(expected, this,
                                         std::memory_order_release);

  double tick = impl_->cfg.sample_interval_sec;
  if (impl_->cfg.progress &&
      (tick <= 0 || impl_->cfg.progress_interval_sec < tick))
    tick = impl_->cfg.progress_interval_sec;
  if (tick > 0) {
    impl_->sampler = std::thread([this, tick] {
      try {
      ScopedEngine tag("sampler");
      Counters& c = counters();
      std::uint64_t last[6] = {};
      auto snap = [&](std::uint64_t* out) {
        out[0] = c.conflicts.load(std::memory_order_relaxed);
        out[1] = c.propagations.load(std::memory_order_relaxed);
        out[2] = c.decisions.load(std::memory_order_relaxed);
        out[3] = c.restarts.load(std::memory_order_relaxed);
        out[4] = c.gc_runs.load(std::memory_order_relaxed);
        out[5] = c.obligations.load(std::memory_order_relaxed);
      };
      snap(last);
      const auto t0 = std::chrono::steady_clock::now();
      auto last_progress = t0;
      while (true) {
        {
          std::unique_lock<std::mutex> lock(impl_->cv_mu);
          impl_->cv.wait_for(lock, std::chrono::duration<double>(tick),
                             [&] { return impl_->stop; });
          if (impl_->stop) return;
        }
        std::uint64_t now[6];
        snap(now);
        if (impl_->cfg.sample_interval_sec > 0)
          emit("sample", {{"conflicts", now[0] - last[0]},
                          {"propagations", now[1] - last[1]},
                          {"decisions", now[2] - last[2]},
                          {"restarts", now[3] - last[3]},
                          {"gc_runs", now[4] - last[4]},
                          {"obligations", now[5] - last[5]}});
        auto t = std::chrono::steady_clock::now();
        if (impl_->cfg.progress &&
            std::chrono::duration<double>(t - last_progress).count() >=
                impl_->cfg.progress_interval_sec) {
          double el = std::chrono::duration<double>(t - t0).count();
          double win = std::chrono::duration<double>(t - last_progress).count();
          std::fprintf(stderr,
                       "c [obs t=%.1fs] conflicts=%" PRIu64 " (%.0f/s) props=%"
                       PRIu64 " (%.2gM/s) restarts=%" PRIu64 " gc=%" PRIu64
                       " obligations=%" PRIu64 "\n",
                       el, now[0], (now[0] - last[0]) / win,
                       now[1], (now[1] - last[1]) / win / 1e6, now[3], now[4],
                       now[5]);
          last_progress = t;
        }
        std::memcpy(last, now, sizeof last);
        flush();
      }
      } catch (...) {
        // Telemetry must never take the process down: a dying sampler
        // just stops mid-run sampling; finish() still drains and joins.
      }
    });
  }
}

TraceSink::~TraceSink() { finish(); }

void TraceSink::finish() {
  if (impl_->finished) return;
  impl_->finished = true;
  // Uninstall first: no new emits target this sink while it drains.
  TraceSink* expected = this;
  detail::g_sink.compare_exchange_strong(expected, nullptr,
                                         std::memory_order_release);
  if (impl_->sampler.joinable()) {
    {
      std::lock_guard<std::mutex> lock(impl_->cv_mu);
      impl_->stop = true;
    }
    impl_->cv.notify_all();
    impl_->sampler.join();
  }
  // Contain drainer failures: finish() runs on tool exit paths outside any
  // try scope, and losing the tail of a trace must not turn a finished
  // verdict into a crash.
  try {
    flush();
  } catch (...) {
    impl_->dropped.fetch_add(1, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(impl_->io_mu);
  impl_->summary.dropped = impl_->dropped.load(std::memory_order_relaxed);
  if (impl_->file != nullptr) {
    if (impl_->cfg.format == TraceConfig::Format::kChrome)
      std::fputs("\n]\n", impl_->file);
    std::fclose(impl_->file);
    impl_->file = nullptr;
  }
}

void TraceSink::flush() {
  std::vector<Event> batch;
  {
    std::lock_guard<std::mutex> reg_lock(impl_->reg_mu);
    for (auto& buf : impl_->bufs) {
      std::lock_guard<std::mutex> buf_lock(buf->mu);
      if (buf->events.empty()) continue;
      batch.insert(batch.end(), buf->events.begin(), buf->events.end());
      buf->events.clear();
    }
  }
  if (!batch.empty()) impl_->process(batch);
}

TraceSink::Summary TraceSink::summary() const {
  std::lock_guard<std::mutex> lock(impl_->io_mu);
  Summary s = impl_->summary;
  s.dropped = impl_->dropped.load(std::memory_order_relaxed);
  return s;
}

void TraceSink::add(const Event& e) {
  if (t_cache.gen != impl_->gen) {
    t_cache.buf = impl_->register_thread();
    t_cache.gen = impl_->gen;
  }
  ThreadBuf* buf = t_cache.buf;
  std::lock_guard<std::mutex> lock(buf->mu);
  if (buf->events.size() >= impl_->cfg.max_buffered_events) {
    impl_->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buf->events.push_back(e);
}

std::unique_ptr<TraceSink> TraceSink::from_env() {
  const char* path = std::getenv("ITPSEQ_TRACE");
  const char* progress = std::getenv("ITPSEQ_PROGRESS");
  bool want_progress = progress != nullptr && progress[0] != '\0' &&
                       std::strcmp(progress, "0") != 0;
  if ((path == nullptr || path[0] == '\0') && !want_progress) return nullptr;
  TraceConfig cfg;
  if (path != nullptr) cfg.path = path;
  const char* fmt = std::getenv("ITPSEQ_TRACE_FORMAT");
  if (fmt != nullptr && std::strcmp(fmt, "chrome") == 0)
    cfg.format = TraceConfig::Format::kChrome;
  cfg.progress = want_progress;
  return std::make_unique<TraceSink>(std::move(cfg));
}

namespace detail {

void emit_slow(const char* kind, const Arg* args, std::size_t nargs) {
  TraceSink* sink = g_sink.load(std::memory_order_acquire);
  if (sink == nullptr) return;
  Event e;
  e.ts_us = now_us();
  e.tid = thread_id();
  e.engine = engine_tag();
  e.kind = kind;
  for (std::size_t i = 0; i < nargs && i < kMaxArgs; ++i)
    e.args[e.nargs++] = args[i];
  sink->add(e);
}

void span_end(const char* name, std::uint64_t t0, const Arg* args,
              std::size_t nargs) {
  TraceSink* sink = g_sink.load(std::memory_order_acquire);
  if (sink == nullptr) return;  // sink finished mid-span: drop, never block
  Event e;
  e.ts_us = t0;
  e.dur_us = now_us() - t0;
  e.tid = thread_id();
  e.engine = engine_tag();
  e.kind = "span";
  e.name = name;
  e.span = true;
  for (std::size_t i = 0; i < nargs && i < kMaxArgs; ++i)
    e.args[e.nargs++] = args[i];
  sink->add(e);
}

}  // namespace detail

}  // namespace itpseq::obs
