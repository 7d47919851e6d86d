// bench_table1.cpp — regenerates Table I of the paper.
//
// For each benchmark instance: design name, #PI, #FF; exact forward and
// backward diameters with BDD verification times (or "ovf"); then, for each
// of the four engines (ITP, ITPSEQ, SITPSEQ, ITPSEQCBA): CPU time, k_fp and
// j_fp.  "ovf" marks budget exhaustion, with the bound reached in
// parentheses, exactly like the paper's table; j_fp = 0 marks failures.
// Every verdict is checked (verdict_check.hpp); a bad one exits 1.
//
// Usage: bench_table1 [per_engine_seconds] [bdd_seconds] [family_filter]
#include <cstdio>
#include <string>

#include "args.hpp"
#include "bdd/reach.hpp"
#include "bench_circuits/suite.hpp"
#include "mc/engine.hpp"
#include "verdict_check.hpp"

using namespace itpseq;

namespace {

std::string bdd_cell(const bdd::ReachResult& r) {
  char buf[48];
  switch (r.verdict) {
    case bdd::ReachVerdict::kPass:
      std::snprintf(buf, sizeof buf, "%4u %7.2f", r.diameter ? *r.diameter : 0,
                    r.seconds);
      break;
    case bdd::ReachVerdict::kFail:
      std::snprintf(buf, sizeof buf, "   - %7.2f", r.seconds);
      break;
    case bdd::ReachVerdict::kOverflow:
      std::snprintf(buf, sizeof buf, "   -     ovf");
      break;
  }
  return buf;
}

std::string engine_cell(const mc::EngineResult& r) {
  char buf[48];
  switch (r.verdict) {
    case mc::Verdict::kPass:
      std::snprintf(buf, sizeof buf, "%7.2f %3u %3u", r.seconds, r.k_fp, r.j_fp);
      break;
    case mc::Verdict::kFail:
      std::snprintf(buf, sizeof buf, "%7.2f %3u   0", r.seconds, r.k_fp);
      break;
    case mc::Verdict::kUnknown:
      std::snprintf(buf, sizeof buf, "    ovf (%2u)   -", r.k_fp);
      break;
    case mc::Verdict::kError:
      std::snprintf(buf, sizeof buf, "    err        -");
      break;
  }
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kUsage =
      "[per_engine_seconds] [bdd_seconds] [family_filter]";
  const double engine_limit = bench::positive_arg(argc, argv, 1, 5.0, kUsage);
  const double bdd_limit = bench::positive_arg(argc, argv, 2, 5.0, kUsage);
  std::string filter = argc > 3 ? argv[3] : "";

  std::printf("Table I reproduction — per-instance comparison\n");
  std::printf("(engine budget %.1fs, BDD budget %.1fs per direction)\n\n",
              engine_limit, bdd_limit);
  std::printf("%-18s %4s %4s | %12s | %12s | %15s | %15s | %15s | %15s\n",
              "Model", "#PI", "#FF", "dF  TimeF", "dB  TimeB",
              "ITP  t k j", "ITPSEQ  t k j", "SITPSEQ  t k j",
              "ITPSEQCBA t k j");

  mc::EngineOptions opts;
  opts.time_limit_sec = engine_limit;

  for (auto& inst : bench::make_suite()) {
    if (!filter.empty() && inst.family.find(filter) == std::string::npos &&
        inst.name.find(filter) == std::string::npos)
      continue;

    std::string fwd_cell = "   -     ovf", bwd_cell = "   -     ovf";
    if (!inst.industrial) {
      bdd::ReachBudget rb;
      rb.seconds = bdd_limit;
      rb.node_limit = 2'000'000;
      try {
        bdd::SymbolicModel fm(inst.model, rb.node_limit);
        fwd_cell = bdd_cell(bdd::forward_reach(fm, rb));
        bdd::SymbolicModel bm(inst.model, rb.node_limit);
        bwd_cell = bdd_cell(bdd::backward_reach(bm, rb));
      } catch (const bdd::BddOverflow&) {
        // leave "ovf"
      }
    }

    mc::EngineResult a = mc::check_itp(inst.model, 0, opts);
    mc::EngineResult b = mc::check_itpseq(inst.model, 0, opts);
    mc::EngineResult c = mc::check_sitpseq(inst.model, 0, opts);
    mc::EngineResult d = mc::check_itpseq_cba(inst.model, 0, opts);
    for (const mc::EngineResult* r : {&a, &b, &c, &d})
      bench::check_verdict(inst, *r);

    std::printf("%-18s %4zu %4zu | %12s | %12s | %15s | %15s | %15s | %15s\n",
                inst.name.c_str(), inst.model.num_inputs(),
                inst.model.num_latches(), fwd_cell.c_str(), bwd_cell.c_str(),
                engine_cell(a).c_str(), engine_cell(b).c_str(),
                engine_cell(c).c_str(), engine_cell(d).c_str());
  }
  return 0;
}
