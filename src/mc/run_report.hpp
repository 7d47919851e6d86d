// run_report.hpp — machine-readable end-of-run report (--stats-json).
//
// One JSON object per run: the verdict and depth measures, the full
// EngineStats block, and — when a TraceSink was active — the aggregated
// span totals and event counts its drainer accumulated.  Scripts consume
// this instead of scraping "c ..." lines.
#pragma once

#include <string>

#include "mc/result.hpp"
#include "obs/trace.hpp"

namespace itpseq::mc {

/// Write the run report for `r` to `path`.  `sink` may be null (no tracing:
/// the report then carries only verdict + stats).  `tool` and `circuit`
/// identify the producing invocation.  Returns false if the file cannot be
/// written.
bool write_stats_json(const std::string& path, const EngineResult& r,
                      const obs::TraceSink* sink, const std::string& tool,
                      const std::string& circuit);

/// The same report as a string (testing / embedding).
std::string stats_json(const EngineResult& r, const obs::TraceSink* sink,
                       const std::string& tool, const std::string& circuit);

}  // namespace itpseq::mc
