// trace.hpp — structured tracing & telemetry for every layer of the stack.
//
// The subsystem answers "where did a run spend its time" for concurrent
// portfolio runs: engines, the SAT core and the scheduler emit *events*
// (instants) and *spans* (RAII-timed phases) into per-thread buffers that a
// central drainer serializes — as JSONL (one event per line) or as Chrome
// trace-event JSON that Perfetto / chrome://tracing renders as per-thread
// timelines.
//
// JSONL schema (one object per line, keys always present):
//
//   {"ts_us":N,          microseconds since process trace epoch
//    "tid":N,            small dense thread id (1, 2, ...)
//    "engine":"PDR",     thread's engine tag (ScopedEngine), "main" outside
//    "kind":"span",      event kind ("span" for phases, else an instant
//                        kind like "sat_restart", "pdr_blocked", ...)
//    "payload":{...}}    kind-specific fields; spans carry "name" and
//                        "dur_us"
//
// Overhead contract.  Tracing off must be near-zero cost: every emit point
// is guarded by the inlined enabled() check below — one relaxed atomic load
// and a predictable branch, no locks, no allocation.  The hot SAT paths
// (propagation, conflict analysis) carry NO per-event hooks at all; the
// solver reports through amortized sample points (every few thousand
// conflicts) and through events on its already-rare maintenance actions
// (restart, reduce_db, GC).  With tracing on, an emit formats nothing: it
// copies a fixed-size Event into a per-thread buffer under that buffer's
// otherwise-uncontended mutex; all serialization happens on the drainer.
//
// Threading contract.  Install/uninstall (TraceSink ctor / finish()) must
// happen while no instrumented worker threads are running — in practice:
// create the sink before dispatching engines, finish it after every engine
// thread is joined (check_portfolio joins all members before returning, so
// tool main() trivially satisfies this).  Emits themselves are fully
// thread-safe; a cancelled worker mid-emit can never tear an output line
// because only the central drainer writes the file.
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

namespace itpseq::obs {

class TraceSink;

/// Append `s` to `out` as the body of a JSON string literal: `"` and `\`
/// escaped, control characters as \n, \r, \t or \u00XX.  The one escaper
/// of the trace sink, the run report and the bench trajectory writer.
void append_json_escaped(std::string& out, std::string_view s);

namespace detail {
extern std::atomic<TraceSink*> g_sink;
std::uint64_t now_us();          // microseconds since the process trace epoch
std::uint32_t thread_id();       // small dense id, stable for a thread's life
}  // namespace detail

/// The global gate every instrumentation point checks first.  One relaxed
/// load; inlined into the caller, so disabled tracing costs a predictable
/// never-taken branch.
inline bool enabled() {
  return detail::g_sink.load(std::memory_order_acquire) != nullptr;
}

/// A typed payload field.  Values are copied by value; string values must
/// be *static* (literals, to_string() of enums) — the event buffer outlives
/// the emitting scope.
struct Arg {
  enum class Type : std::uint8_t { kU64, kI64, kF64, kStr };
  const char* key = nullptr;
  Type type = Type::kU64;
  union {
    std::uint64_t u;
    std::int64_t i;
    double f;
    const char* s;
  };
  Arg() : u(0) {}
  Arg(const char* k, unsigned long long v)
      : key(k), type(Type::kU64), u(v) {}
  Arg(const char* k, unsigned long v) : key(k), type(Type::kU64), u(v) {}
  Arg(const char* k, unsigned v) : key(k), type(Type::kU64), u(v) {}
  Arg(const char* k, int v) : key(k), type(Type::kI64), i(v) {}
  Arg(const char* k, long v) : key(k), type(Type::kI64), i(v) {}
  Arg(const char* k, double v) : key(k), type(Type::kF64), f(v) {}
  Arg(const char* k, const char* v) : key(k), type(Type::kStr), s(v) {}
};

constexpr std::size_t kMaxArgs = 8;

/// One trace record.  Fixed size, no owned memory: emitting never allocates
/// (the per-thread buffer vector amortizes growth).
struct Event {
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;      // spans only
  const char* engine = nullptr;  // static string (ScopedEngine tag)
  const char* kind = nullptr;    // static string
  const char* name = nullptr;    // spans: phase name; instants: nullptr
  Arg args[kMaxArgs];
  std::uint32_t tid = 0;
  std::uint8_t nargs = 0;
  bool span = false;
};

namespace detail {
void emit_slow(const char* kind, const Arg* args, std::size_t nargs);
void span_end(const char* name, std::uint64_t t0, const Arg* args,
              std::size_t nargs);
}  // namespace detail

/// Emit an instant event.  No-op (one relaxed load) when tracing is off.
inline void emit(const char* kind, std::initializer_list<Arg> args = {}) {
  if (!enabled()) return;
  detail::emit_slow(kind, args.begin(), args.size());
}

/// RAII-timed phase: records its construction time and emits one
/// kind="span" event at destruction (start + duration — Chrome "complete"
/// events, so nesting is balanced per thread by scope discipline).
class Span {
 public:
  explicit Span(const char* name, std::initializer_list<Arg> args = {}) {
    if (!enabled()) return;
    armed_ = true;
    name_ = name;
    t0_ = detail::now_us();
    for (const Arg& a : args) {
      if (nargs_ >= kMaxArgs) break;
      args_[nargs_++] = a;
    }
  }
  ~Span() {
    if (armed_) detail::span_end(name_, t0_, args_, nargs_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t t0_ = 0;
  Arg args_[kMaxArgs];
  std::uint8_t nargs_ = 0;
  bool armed_ = false;
};

/// Thread-local engine tag stamped onto every event the thread emits.
/// Engines install it at the top of run(); portfolio workers inherit it
/// through the member's own run().  Cheap enough to set unconditionally.
const char* engine_tag();
class ScopedEngine {
 public:
  explicit ScopedEngine(const char* name);
  ~ScopedEngine();
  ScopedEngine(const ScopedEngine&) = delete;
  ScopedEngine& operator=(const ScopedEngine&) = delete;

 private:
  const char* prev_;
};

/// Process-wide telemetry counters, updated (relaxed) by instrumentation
/// hooks *only while tracing is enabled*; the sampler thread snapshots the
/// deltas on an interval so long-running queries are visible mid-flight.
struct Counters {
  std::atomic<std::uint64_t> conflicts{0};
  std::atomic<std::uint64_t> propagations{0};
  std::atomic<std::uint64_t> decisions{0};
  std::atomic<std::uint64_t> restarts{0};
  std::atomic<std::uint64_t> reduce_dbs{0};
  std::atomic<std::uint64_t> gc_runs{0};
  std::atomic<std::uint64_t> inprocess_rounds{0};
  std::atomic<std::uint64_t> obligations{0};
  std::atomic<std::uint64_t> bounds{0};
};
Counters& counters();

struct TraceConfig {
  /// Event-stream output path; empty = no event file (the sink still runs,
  /// aggregates the summary and drives the sampler — the --stats-json /
  /// --progress-only configurations).
  std::string path;
  enum class Format : std::uint8_t { kJsonl, kChrome };
  Format format = Format::kJsonl;
  /// Sampler interval; <= 0 disables the sampler thread (events are then
  /// drained only at finish()).
  double sample_interval_sec = 0.25;
  /// Throttled one-line search-rate reports on stderr.
  bool progress = false;
  double progress_interval_sec = 1.0;
  /// Per-thread buffered-event cap between drains; events beyond it are
  /// dropped (and counted) rather than exhausting memory on runaway loads.
  std::size_t max_buffered_events = 1u << 20;
};

/// The central sink: owns the per-thread buffers, the output file and the
/// sampler thread.  Exactly one sink is active at a time (the ctor installs
/// itself as the global emit target, finish()/dtor uninstalls).
class TraceSink {
 public:
  explicit TraceSink(TraceConfig cfg);
  ~TraceSink();
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Uninstall, stop the sampler, drain every buffer, close the file.
  /// Idempotent; called by the destructor.  Must run after all instrumented
  /// worker threads are joined.
  void finish();

  /// Drain all thread buffers into the output/summary now (the sampler
  /// does this periodically anyway).  Thread-safe.
  void flush();

  /// Running aggregation over every drained event, for the end-of-run
  /// report: span totals per (engine, name) and instant counts per
  /// (engine, kind).
  struct SpanAgg {
    std::uint64_t count = 0;
    std::uint64_t total_us = 0;
  };
  struct Summary {
    std::map<std::pair<std::string, std::string>, SpanAgg> spans;
    std::map<std::pair<std::string, std::string>, std::uint64_t> kinds;
    std::uint64_t events = 0;   // drained (== written when a file is set)
    std::uint64_t dropped = 0;  // lost to the per-thread buffer cap
  };
  Summary summary() const;

  /// Build a sink from ITPSEQ_TRACE / ITPSEQ_TRACE_FORMAT /
  /// ITPSEQ_PROGRESS, or null when unset — how the bench drivers and
  /// examples opt in without flag plumbing.
  static std::unique_ptr<TraceSink> from_env();

 private:
  friend void detail::emit_slow(const char*, const Arg*, std::size_t);
  friend void detail::span_end(const char*, std::uint64_t, const Arg*,
                               std::size_t);
  struct Impl;
  std::unique_ptr<Impl> impl_;
  void add(const Event& e);
};

}  // namespace itpseq::obs
