// json_writer.hpp — minimal JSON emitter for the bench trajectory file
// (BENCH_sat.json).  bench_sat appends flat objects and arrays; no quoting
// beyond strings, no dependencies, deterministic field order.  Machine
// consumers (trend dashboards, CI deltas) diff the file across commits, so
// keys are stable and values are plain numbers.
#pragma once

#include <cstdio>
#include <string>

namespace itpseq::bench {

class JsonWriter {
 public:
  explicit JsonWriter(std::string path) : path_(std::move(path)) {}

  JsonWriter& begin_object() { return token("{"); }
  JsonWriter& end_object() { return close("}"); }
  JsonWriter& begin_array(const std::string& key) {
    return keyed(key).token("[");
  }
  JsonWriter& end_array() { return close("]"); }
  JsonWriter& begin_object(const std::string& key) {
    return keyed(key).token("{");
  }

  JsonWriter& field(const std::string& key, const std::string& v) {
    return keyed(key).token(quoted(v));
  }
  JsonWriter& field(const std::string& key, const char* v) {
    return field(key, std::string(v));
  }
  JsonWriter& field(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return keyed(key).token(buf);
  }
  JsonWriter& field(const std::string& key, std::uint64_t v) {
    return keyed(key).token(std::to_string(v));
  }
  JsonWriter& field(const std::string& key, std::int64_t v) {
    return keyed(key).token(std::to_string(v));
  }
  JsonWriter& field(const std::string& key, unsigned v) {
    return field(key, static_cast<std::uint64_t>(v));
  }
  JsonWriter& field(const std::string& key, int v) {
    return field(key, static_cast<std::int64_t>(v));
  }
  JsonWriter& field(const std::string& key, bool v) {
    return keyed(key).token(v ? "true" : "false");
  }

  /// Bare array element (inside begin_array/end_array).
  JsonWriter& value(std::uint64_t v) { return token(std::to_string(v)); }
  JsonWriter& value(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return token(buf);
  }

  /// Write the accumulated document to `path`; returns false on I/O error.
  bool write() const {
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs(out_.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
    return true;
  }

  const std::string& path() const { return path_; }

 private:
  JsonWriter& token(const std::string& t) {
    if (need_comma_) out_ += ",";
    out_ += t;
    // After a value we need a comma; after an opener we do not.
    need_comma_ = t != "{" && t != "[";
    return *this;
  }
  JsonWriter& close(const char* t) {
    out_ += t;
    need_comma_ = true;
    return *this;
  }
  JsonWriter& keyed(const std::string& key) {
    if (need_comma_) out_ += ",";
    out_ += quoted(key);
    out_ += ':';
    need_comma_ = false;
    return *this;
  }
  /// `s` as a JSON string literal.  Built by appending: GCC 12 at -O3
  /// reports a spurious -Wrestrict on `"\"" + escape(s) + ...`.
  static std::string quoted(const std::string& s) {
    std::string r = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') r += '\\';
      r += c;
    }
    r += '"';
    return r;
  }

  std::string path_;
  std::string out_;
  bool need_comma_ = false;
};

}  // namespace itpseq::bench
