// verdict_check.hpp — the check every suite driver runs after each engine
// run, so that no table or figure is built from an unchecked verdict:
//
//   * a PASS must carry a certificate that mc::check_certificate accepts;
//   * a FAIL must carry a trace that replays in mc::Simulator;
//   * no verdict may contradict Instance::expected, and kError is an error.
//
// UNKNOWN (budget exhausted) is not an error.  On an error the driver stops:
// the instance, the engine and the reason go to stderr and the process
// exits 1.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_circuits/suite.hpp"
#include "mc/certify.hpp"
#include "mc/sim.hpp"

namespace itpseq::bench {

/// Empty when `r` is a checked verdict (or UNKNOWN), else why it is not.
inline std::string verdict_error(const Instance& inst,
                                 const mc::EngineResult& r) {
  using mc::Verdict;
  if (r.verdict == Verdict::kError)
    return std::string("engine error ") + mc::to_string(r.error.kind) + ": " +
           r.error.message;
  if (r.verdict == Verdict::kUnknown) return "";
  if ((inst.expected == Expected::kPass && r.verdict != Verdict::kPass) ||
      (inst.expected == Expected::kFail && r.verdict != Verdict::kFail))
    return std::string("verdict ") + mc::to_string(r.verdict) +
           " contradicts the expected one";
  if (r.verdict == Verdict::kPass) {
    if (!r.certificate) return "PASS without certificate";
    mc::CertifyResult c = mc::check_certificate(inst.model, 0, *r.certificate);
    return c.ok ? "" : "certificate rejected: " + c.error;
  }
  if (!mc::Simulator(inst.model, 0).run(r.cex).is_cex())
    return "FAIL trace does not replay";
  return "";
}

/// Exit 1 with a diagnostic on stderr unless `r` is a checked verdict.
inline void check_verdict(const Instance& inst, const mc::EngineResult& r) {
  const std::string why = verdict_error(inst, r);
  if (why.empty()) return;
  std::fprintf(stderr, "verdict check failed: %s on %s: %s\n",
               r.engine.c_str(), inst.name.c_str(), why.c_str());
  std::exit(1);
}

}  // namespace itpseq::bench
