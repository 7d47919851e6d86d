#include "mc/run_report.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "util/atomic_write.hpp"

namespace itpseq::mc {

namespace {

void append_escaped(std::string& out, const std::string& s) {
  for (char ch : s) {
    unsigned char c = static_cast<unsigned char>(ch);
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
          out += ch;
        }
    }
  }
}

void kv_str(std::string& out, const char* key, const std::string& v,
            bool comma = true) {
  out += '"';
  out += key;
  out += "\":\"";
  append_escaped(out, v);
  out += '"';
  if (comma) out += ',';
}

void kv_u64(std::string& out, const char* key, std::uint64_t v,
            bool comma = true) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "\"%s\":%" PRIu64, key, v);
  out += buf;
  if (comma) out += ',';
}

void kv_f64(std::string& out, const char* key, double v, bool comma = true) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\":%.6g", key,
                std::isfinite(v) ? v : 0.0);
  out += buf;
  if (comma) out += ',';
}

}  // namespace

std::string stats_json(const EngineResult& r, const obs::TraceSink* sink,
                       const std::string& tool, const std::string& circuit) {
  std::string out;
  out.reserve(2048);
  out += '{';
  kv_str(out, "tool", tool);
  kv_str(out, "circuit", circuit);
  kv_str(out, "engine", r.engine);
  kv_str(out, "verdict", to_string(r.verdict));
  kv_f64(out, "seconds", r.seconds);
  kv_u64(out, "k_fp", r.k_fp);
  kv_u64(out, "j_fp", r.j_fp);

  // Failure semantics: present whenever the run carries an error (kError,
  // or a watchdog-annotated kUnknown), so postmortems never need the log.
  if (r.error.kind != ErrorKind::kNone) {
    out += "\"error\":{";
    kv_str(out, "kind", to_string(r.error.kind));
    kv_str(out, "message", r.error.message, /*comma=*/false);
    out += "},";
  }
  // Portfolio runs: every member's fate, crashed members included.
  if (!r.members.empty()) {
    out += "\"members\":[";
    bool first_m = true;
    for (const MemberOutcome& m : r.members) {
      if (!first_m) out += ',';
      first_m = false;
      out += '{';
      kv_str(out, "member", m.member);
      kv_str(out, "verdict", to_string(m.verdict));
      kv_u64(out, "restarts", m.restarts);
      const bool has_err = m.error.kind != ErrorKind::kNone;
      const bool has_last = m.last_error.kind != ErrorKind::kNone;
      kv_f64(out, "seconds", m.seconds, /*comma=*/has_err || has_last);
      if (has_err) {
        out += "\"error\":{";
        kv_str(out, "kind", to_string(m.error.kind));
        kv_str(out, "message", m.error.message, /*comma=*/false);
        out += '}';
        if (has_last) out += ',';
      }
      // The error behind the most recent relaunch — present even when the
      // relaunched attempt finished healthy, so recoveries stay visible.
      if (has_last) {
        out += "\"last_error\":{";
        kv_str(out, "kind", to_string(m.last_error.kind));
        kv_str(out, "message", m.last_error.message, /*comma=*/false);
        out += '}';
      }
      out += '}';
    }
    out += "],";
  }

  const EngineStats& s = r.stats;
  out += "\"stats\":{";
  kv_u64(out, "sat_calls", s.sat_calls);
  kv_u64(out, "sat_conflicts", s.sat_conflicts);
  kv_u64(out, "sat_propagations", s.sat_propagations);
  kv_u64(out, "sat_bin_propagations", s.sat_bin_propagations);
  kv_u64(out, "sat_assumption_propagations", s.sat_assumption_propagations);
  kv_u64(out, "sat_assumption_levels", s.sat_assumption_levels);
  kv_u64(out, "sat_gc_runs", s.sat_gc_runs);
  kv_u64(out, "sat_arena_reclaimed", s.sat_arena_reclaimed);
  kv_u64(out, "sat_arena_peak", s.sat_arena_peak);
  out += "\"sat_glue_hist\":[";
  for (std::size_t i = 0; i < s.sat_glue_hist.size(); ++i) {
    if (i != 0) out += ',';
    char buf[24];
    std::snprintf(buf, sizeof buf, "%" PRIu64, s.sat_glue_hist[i]);
    out += buf;
  }
  out += "],";
  kv_u64(out, "sat_inprocess_rounds", s.sat_inprocess_rounds);
  kv_u64(out, "sat_subsumed", s.sat_subsumed);
  kv_u64(out, "sat_vars_eliminated", s.sat_vars_eliminated);
  kv_u64(out, "sat_vivified", s.sat_vivified);
  kv_u64(out, "sat_failed_literals", s.sat_failed_literals);
  kv_u64(out, "sat_hyper_binaries", s.sat_hyper_binaries);
  kv_u64(out, "sat_model_extensions", s.sat_model_extensions);
  kv_u64(out, "proof_clauses", s.proof_clauses);
  kv_u64(out, "max_itp_nodes", s.max_itp_nodes);
  kv_u64(out, "state_aig_nodes", s.state_aig_nodes);
  kv_u64(out, "fixpoint_checks", s.fixpoint_checks);
  kv_u64(out, "fixpoint_sat_calls", s.fixpoint_sat_calls);
  kv_u64(out, "cba_visible_latches", s.cba_visible_latches);
  kv_u64(out, "cba_refinements", s.cba_refinements, /*comma=*/false);
  out += '}';

  if (sink != nullptr) {
    obs::TraceSink::Summary sum = sink->summary();
    out += ",\"trace\":{";
    kv_u64(out, "events", sum.events);
    kv_u64(out, "dropped", sum.dropped);
    out += "\"spans\":[";
    bool first = true;
    for (const auto& [key, agg] : sum.spans) {
      if (!first) out += ',';
      first = false;
      out += '{';
      kv_str(out, "engine", key.first);
      kv_str(out, "name", key.second);
      kv_u64(out, "count", agg.count);
      kv_f64(out, "total_sec", static_cast<double>(agg.total_us) / 1e6,
             /*comma=*/false);
      out += '}';
    }
    out += "],\"kinds\":[";
    first = true;
    for (const auto& [key, count] : sum.kinds) {
      if (!first) out += ',';
      first = false;
      out += '{';
      kv_str(out, "engine", key.first);
      kv_str(out, "kind", key.second);
      kv_u64(out, "count", count, /*comma=*/false);
      out += '}';
    }
    out += "]}";
  }
  out += "}\n";
  return out;
}

bool write_stats_json(const std::string& path, const EngineResult& r,
                      const obs::TraceSink* sink, const std::string& tool,
                      const std::string& circuit) {
  // Atomic publication (L7): a consumer tailing the report path must never
  // observe a truncated JSON document.
  return util::atomic_write_file(path, stats_json(r, sink, tool, circuit));
}

}  // namespace itpseq::mc
