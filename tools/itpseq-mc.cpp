// itpseq-mc — command-line model checker.
//
// The deployable front door to the library: reads a sequential circuit in
// AIGER (.aig/.aag) or BLIF (.blif) format, runs one engine, and reports
// PASS / FAIL / UNKNOWN together with the depth measures of Table I.  The
// engines are the paper's four (itp, itpseq, sitpseq, itpseq-cba), proof-
// based abstraction (itpseq-pba), the reference engines (pdr, bmc, kind,
// bdd) and the portfolio.  Counterexamples can be minimized, validated by
// replay, and written as AIGER witnesses.
//
// Exit-code contract (stable; scripts may rely on it):
//    0  verdict reached: property holds (PASS)
//    1  verdict reached: property violated (FAIL; witness available)
//    2  usage error: bad flags, unreadable/corrupt input, property out of
//       range, certification requested from an engine that cannot certify
//    3  resource-exhausted: no verdict within the wall-clock/memory budget
//       (UNKNOWN; partial stats are still reported)
//    4  internal error: an engine failed (ERROR verdict), a witness or
//       certificate failed validation, or a report could not be written
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "aig/aiger_io.hpp"
#include "io/blif.hpp"
#include "mc/certify.hpp"
#include "mc/engine.hpp"
#include "mc/itpseq_verif.hpp"
#include "mc/kinduction.hpp"
#include "mc/portfolio.hpp"
#include "mc/run_report.hpp"
#include "mc/sim.hpp"
#include "mc/trace_min.hpp"
#include "mc/witness.hpp"
#include "bdd/reach.hpp"
#include "obs/trace.hpp"
#include "util/fault.hpp"
#include "util/mem_budget.hpp"

using namespace itpseq;

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options] FILE\n"
               "\n"
               "FILE                circuit in AIGER (.aig/.aag) or BLIF format\n"
               "\n"
               "options:\n"
               "  -e, --engine E    itp | itpseq | sitpseq | itpseq-cba |\n"
               "                    itpseq-pba | pdr | bmc | kind | bdd |\n"
               "                    portfolio\n"
               "                    (default sitpseq)\n"
               "  -p, --property N  bad-output index to check (default 0)\n"
               "  -t, --timeout S   wall-clock budget in seconds (default 60)\n"
               "      --mem-limit MB\n"
               "                    resident-set budget in megabytes (default\n"
               "                    unlimited).  Crossing 80%% sheds solver\n"
               "                    ballast (inprocessing off, aggressive\n"
               "                    clause-DB reduction); at the limit the\n"
               "                    run ends cleanly with UNKNOWN and partial\n"
               "                    stats instead of an allocator abort\n"
               "      --inject-fault SPEC\n"
               "                    deterministic fault injection for testing\n"
               "                    containment: SPEC is a comma-separated\n"
               "                    list of site:nth[:count[:kind]] with kind\n"
               "                    oom (default) | error | stall[MS]; also\n"
               "                    settable via ITPSEQ_FAULTS (see\n"
               "                    src/util/fault.hpp for the site list)\n"
               "  -k, --max-bound K BMC bound limit (default 500)\n"
               "      --scheme S    exact | assume   target of the sequence\n"
               "                    engines' BMC checks (default assume)\n"
               "      --itp-system S mcmillan | pudlak | inverse  (default mcmillan)\n"
               "      --alpha A     serial fraction for sitpseq, in (0, 1] (default 0.5)\n"
               "      --sat-inprocess[=on|off]\n"
               "                    in-solver inprocessing (subsumption, var\n"
               "                    elimination, vivification, probing) for\n"
               "                    every engine's SAT solvers (default on;\n"
               "                    proof-logging safe).  A round runs once a\n"
               "                    solver is re-solved or has searched 4000\n"
               "                    conflicts\n"
               "      --pdr-lift[=on|off]\n"
               "                    ternary-simulation cube lifting in PDR\n"
               "                    (default on)\n"
               "      --pdr-ctg[=on|off]\n"
               "                    CTG-aware generalization in PDR (default on)\n"
               "  -j, --jobs N      portfolio worker threads (0 = auto,\n"
               "                    1 = members one at a time, in order)\n"
               "  -w, --witness F   write a FAIL witness to file F ('-' = stdout)\n"
               "      --no-minimize do not minimize counterexample traces\n"
               "      --validate    replay the counterexample before reporting\n"
               "      --certify     on PASS, verify the engine's inductive-\n"
               "                    invariant certificate independently\n"
               "      --invariant F on PASS, write the certificate invariant\n"
               "                    as a circuit (input i = latch i) to F\n"
               "      --trace-out F write a structured event trace to F\n"
               "      --trace-format jsonl | chrome\n"
               "                    jsonl (default): one event object per\n"
               "                    line; chrome: Chrome trace-event JSON\n"
               "                    for Perfetto / chrome://tracing\n"
               "      --stats-json F\n"
               "                    write a machine-readable run report\n"
               "                    (verdict, per-engine spans, counters)\n"
               "                    to F\n"
               "      --progress    throttled one-line search-rate reports\n"
               "                    on stderr while engines run\n"
               "  -q, --quiet       suppress all 'c ...' comment lines;\n"
               "                    stdout carries only the 's VERDICT' line\n"
               "  -h, --help        this message\n"
               "\n"
               "exit codes:\n"
               "  0  PASS    property holds\n"
               "  1  FAIL    property violated (witness available)\n"
               "  2  usage/input error (bad flags, corrupt file, bad range)\n"
               "  3  UNKNOWN resource budget exhausted, partial stats emitted\n"
               "  4  ERROR   engine failure, validation failure, or write\n"
               "             failure\n"
               "\n"
               "Tracing a run:\n"
               "  %s -e portfolio -j 4 --trace-out run.trace \\\n"
               "      --trace-format chrome --stats-json run.json design.aig\n"
               "  Load run.trace in https://ui.perfetto.dev to see each\n"
               "  worker's engine spans (bounds, PDR frontiers, SAT restarts)\n"
               "  on its own thread track; run.json summarizes the same run\n"
               "  for scripts.  Add --progress to watch conflict/propagation\n"
               "  rates live.  JSONL traces (the default format) are one\n"
               "  self-describing object per line:\n"
               "    {\"ts_us\":..,\"tid\":..,\"engine\":\"PDR\",\n"
               "     \"kind\":\"span\",\"payload\":{...}}\n",
               argv0, argv0);
}

/// Strict unsigned decimal for numeric flags: digits only, no sign, no
/// trailing text, at most `max`.  Throws std::invalid_argument, which main()
/// reports as a usage error (exit 2).
template <class T>
T parse_uint(const char* flag, const char* s,
             T max = std::numeric_limits<T>::max()) {
  T v{};
  const char* end = s + std::strlen(s);
  auto [ptr, ec] = std::from_chars(s, end, v);
  if (ec != std::errc{} || ptr != end || v > max)
    throw std::invalid_argument(std::string(flag) +
                                " expects an unsigned integer up to " +
                                std::to_string(max) + ", got '" + s + "'");
  return v;
}

/// Strict finite decimal for real-valued flags: no trailing text, no nan or
/// inf, and `in_range(v)`.  Throws std::invalid_argument like parse_uint.
template <class InRange>
double parse_real(const char* flag, const char* s, const char* range,
                  InRange in_range) {
  double v = 0.0;
  const char* end = s + std::strlen(s);
  auto [ptr, ec] = std::from_chars(s, end, v);
  if (ec != std::errc{} || ptr != end || !std::isfinite(v) || !in_range(v))
    throw std::invalid_argument(std::string(flag) + " expects " + range +
                                ", got '" + s + "'");
  return v;
}

aig::Aig load(const std::string& path) {
  if (path.size() >= 5 && path.substr(path.size() - 5) == ".blif")
    return io::read_blif_file(path);
  return aig::read_aiger_file(path);
}

struct Args {
  std::string file;
  std::string engine = "sitpseq";
  std::size_t property = 0;
  double timeout = 60.0;
  unsigned max_bound = 500;
  std::string witness_file;
  bool minimize = true;
  bool validate = false;
  bool certify = false;
  std::string invariant_file;
  bool quiet = false;
  unsigned jobs = 0;        // portfolio workers: 0 = auto
  std::string trace_out;
  obs::TraceConfig::Format trace_format = obs::TraceConfig::Format::kJsonl;
  std::string stats_json_file;
  bool progress = false;
  std::size_t mem_limit_mb = 0;  // 0 = unlimited
  std::string inject_fault;      // fault plan (validated in main)
  mc::EngineOptions opts;
};

bool parse_args(int argc, char** argv, Args& a) {
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: missing argument for %s\n", argv[0], argv[i]);
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    std::string s = argv[i];
    const char* v;
    if (s == "-h" || s == "--help") return false;
    if (s == "-e" || s == "--engine") {
      if (!(v = need(i))) return false;
      // Keep in sync with dispatch(): an unknown engine is a usage error
      // (exit 2), not an engine failure discovered after the model loads.
      static const char* const kEngines[] = {
          "itp", "itpseq", "sitpseq", "itpseq-cba", "itpseq-pba",
          "pdr", "bmc",    "kind",    "portfolio",  "bdd"};
      bool known = false;
      for (const char* name : kEngines)
        if (!std::strcmp(v, name)) known = true;
      if (!known) {
        std::fprintf(stderr, "unknown engine '%s'\n", v);
        return false;
      }
      a.engine = v;
    } else if (s == "-p" || s == "--property") {
      if (!(v = need(i))) return false;
      a.property = parse_uint<std::size_t>(argv[i - 1], v);
    } else if (s == "-t" || s == "--timeout") {
      if (!(v = need(i))) return false;
      a.timeout = parse_real(argv[i - 1], v, "a finite number >= 0",
                             [](double t) { return t >= 0.0; });
    } else if (s == "--mem-limit") {
      if (!(v = need(i))) return false;
      // Capped so the byte count (MB << 20) cannot overflow.
      a.mem_limit_mb = parse_uint<std::size_t>(
          argv[i - 1], v, std::numeric_limits<std::size_t>::max() >> 20);
    } else if (s == "--inject-fault") {
      if (!(v = need(i))) return false;
      a.inject_fault = v;
    } else if (s == "-k" || s == "--max-bound") {
      if (!(v = need(i))) return false;
      a.max_bound = parse_uint<unsigned>(argv[i - 1], v);
    } else if (s == "--scheme") {
      if (!(v = need(i))) return false;
      if (!std::strcmp(v, "exact"))
        a.opts.scheme = cnf::TargetScheme::kExact;
      else if (!std::strcmp(v, "assume"))
        a.opts.scheme = cnf::TargetScheme::kExactAssume;
      else {
        std::fprintf(stderr, "unknown scheme '%s'\n", v);
        return false;
      }
    } else if (s == "--itp-system") {
      if (!(v = need(i))) return false;
      if (!std::strcmp(v, "mcmillan"))
        a.opts.itp_system = itp::System::kMcMillan;
      else if (!std::strcmp(v, "pudlak"))
        a.opts.itp_system = itp::System::kPudlak;
      else if (!std::strcmp(v, "inverse"))
        a.opts.itp_system = itp::System::kInverseMcMillan;
      else {
        std::fprintf(stderr, "unknown interpolation system '%s'\n", v);
        return false;
      }
    } else if (s == "--alpha") {
      if (!(v = need(i))) return false;
      a.opts.serial_alpha =
          parse_real(argv[i - 1], v, "a finite number in (0, 1]",
                     [](double x) { return x > 0.0 && x <= 1.0; });
    } else if (s == "--pdr-lift" || s == "--pdr-lift=on") {
      a.opts.pdr_lift = true;
    } else if (s == "--pdr-lift=off" || s == "--no-pdr-lift") {
      a.opts.pdr_lift = false;
    } else if (s == "--pdr-ctg" || s == "--pdr-ctg=on") {
      a.opts.pdr_ctg = true;
    } else if (s == "--pdr-ctg=off" || s == "--no-pdr-ctg") {
      a.opts.pdr_ctg = false;
    } else if (s == "--sat-inprocess" || s == "--sat-inprocess=on") {
      a.opts.sat_inprocess = true;
    } else if (s == "--sat-inprocess=off" || s == "--no-sat-inprocess") {
      a.opts.sat_inprocess = false;
    } else if (s == "-j" || s == "--jobs") {
      if (!(v = need(i))) return false;
      a.jobs = parse_uint<unsigned>(argv[i - 1], v);
    } else if (s == "-w" || s == "--witness") {
      if (!(v = need(i))) return false;
      a.witness_file = v;
    } else if (s == "--no-minimize") {
      a.minimize = false;
    } else if (s == "--validate") {
      a.validate = true;
    } else if (s == "--certify") {
      a.certify = true;
    } else if (s == "--invariant") {
      if (!(v = need(i))) return false;
      a.invariant_file = v;
    } else if (s == "--trace-out") {
      if (!(v = need(i))) return false;
      a.trace_out = v;
    } else if (s == "--trace-format") {
      if (!(v = need(i))) return false;
      if (!std::strcmp(v, "jsonl"))
        a.trace_format = obs::TraceConfig::Format::kJsonl;
      else if (!std::strcmp(v, "chrome"))
        a.trace_format = obs::TraceConfig::Format::kChrome;
      else {
        std::fprintf(stderr, "unknown trace format '%s'\n", v);
        return false;
      }
    } else if (s == "--stats-json") {
      if (!(v = need(i))) return false;
      a.stats_json_file = v;
    } else if (s == "--progress") {
      a.progress = true;
    } else if (s == "-q" || s == "--quiet") {
      a.quiet = true;
    } else if (!s.empty() && s[0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", s.c_str());
      return false;
    } else if (a.file.empty()) {
      a.file = s;
    } else {
      std::fprintf(stderr, "multiple input files\n");
      return false;
    }
  }
  if (a.file.empty()) {
    std::fprintf(stderr, "no input file\n");
    return false;
  }
  return true;
}

mc::EngineResult dispatch(const Args& a, const aig::Aig& g) {
  mc::EngineOptions o = a.opts;
  o.time_limit_sec = a.timeout;
  o.max_bound = a.max_bound;
  const std::string& e = a.engine;
  if (e == "itp") return mc::check_itp(g, a.property, o);
  if (e == "itpseq") return mc::check_itpseq(g, a.property, o);
  if (e == "sitpseq") return mc::check_sitpseq(g, a.property, o);
  if (e == "itpseq-cba") return mc::check_itpseq_cba(g, a.property, o);
  if (e == "itpseq-pba") return mc::check_itpseq_pba(g, a.property, o);
  if (e == "pdr") return mc::check_pdr(g, a.property, o);
  if (e == "bmc") return mc::check_bmc(g, a.property, o);
  if (e == "kind") return mc::check_kinduction(g, a.property, o);
  if (e == "portfolio") {
    mc::PortfolioOptions po;
    po.time_limit_sec = a.timeout;
    po.jobs = a.jobs;
    po.engine_defaults = o;
    return mc::check_portfolio(g, a.property, po);
  }
  if (e == "bdd") {
    bdd::ReachBudget rb;
    rb.seconds = a.timeout;
    bdd::ReachResult br = bdd::bdd_check(g, a.property, rb);
    mc::EngineResult r;
    r.engine = "BDD";
    switch (br.verdict) {
      case bdd::ReachVerdict::kPass: r.verdict = mc::Verdict::kPass; break;
      case bdd::ReachVerdict::kFail:
        r.verdict = mc::Verdict::kFail;
        r.k_fp = br.depth;
        break;
      default: r.verdict = mc::Verdict::kUnknown; break;
    }
    return r;
  }
  throw std::runtime_error("unknown engine '" + e + "'");
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  bool args_ok = false;
  try {
    args_ok = parse_args(argc, argv, a);
  } catch (const std::exception& ex) {
    // Malformed numerics (parse_uint, parse_real) are usage errors, not
    // uncaught-exception aborts.
    std::fprintf(stderr, "%s: bad argument: %s\n", argv[0], ex.what());
  }
  if (!args_ok) {
    usage(argv[0]);
    return 2;
  }
  try {
    util::fault::configure_from_env();
    if (!a.inject_fault.empty()) util::fault::configure(a.inject_fault);
  } catch (const std::invalid_argument& ex) {
    std::fprintf(stderr, "%s: %s\n", argv[0], ex.what());
    return 2;
  }
  if (a.mem_limit_mb != 0)
    util::MemoryBudget::instance().set_limit_mb(a.mem_limit_mb);
  aig::Aig g;
  try {
    g = load(a.file);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "%s: %s\n", argv[0], ex.what());
    return 2;
  }
  if (a.property >= g.num_outputs() && g.num_outputs() > 0) {
    std::fprintf(stderr, "%s: property %zu out of range (%zu outputs)\n",
                 argv[0], a.property, g.num_outputs());
    return 2;
  }
  if (!a.quiet)
    std::printf("c %s: %zu inputs, %zu latches, %zu ands, %zu outputs\n",
                a.file.c_str(), g.num_inputs(), g.num_latches(), g.num_ands(),
                g.num_outputs());

  // Tracing covers exactly the engine run: install before dispatch, finish
  // (drain + close) after every engine thread has joined — check_portfolio
  // joins its pool before returning, so dispatch() returning is the barrier.
  std::unique_ptr<obs::TraceSink> sink;
  if (!a.trace_out.empty() || !a.stats_json_file.empty() || a.progress) {
    obs::TraceConfig tc;
    tc.path = a.trace_out;
    tc.format = a.trace_format;
    tc.progress = a.progress;
    sink = std::make_unique<obs::TraceSink>(std::move(tc));
  }

  mc::EngineResult r;
  try {
    r = dispatch(a, g);
  } catch (const std::exception& ex) {
    // Engines contain their own failures (Verdict::kError); reaching this
    // boundary means the dispatch plumbing itself broke.
    std::fprintf(stderr, "%s: %s\n", argv[0], ex.what());
    return 4;
  }
  if (sink != nullptr) sink->finish();
  if (!a.stats_json_file.empty() &&
      !mc::write_stats_json(a.stats_json_file, r, sink.get(), "itpseq-mc",
                            a.file)) {
    std::fprintf(stderr, "cannot write %s\n", a.stats_json_file.c_str());
    return 4;
  }

  // The BDD engine reports FAIL without a concrete trace.
  bool have_trace =
      r.verdict == mc::Verdict::kFail && !r.cex.inputs.empty();
  if (have_trace && a.minimize)
    r.cex = mc::minimize_trace(g, r.cex, a.property);
  if (have_trace && a.validate && !mc::trace_is_cex(g, r.cex, a.property)) {
    std::fprintf(stderr, "%s: internal error: witness failed validation\n",
                 argv[0]);
    return 4;
  }
  if (r.verdict == mc::Verdict::kPass && a.certify) {
    if (!r.certificate.has_value()) {
      std::fprintf(stderr,
                   "%s: engine '%s' does not emit certificates; rerun with "
                   "an interpolation engine\n",
                   argv[0], r.engine.c_str());
      return 2;
    }
    mc::CertifyResult c = mc::check_certificate(g, a.property, *r.certificate);
    if (!c.ok) {
      std::fprintf(stderr, "%s: certificate check failed: %s\n", argv[0],
                   c.error.c_str());
      return 4;
    }
    if (!a.quiet)
      std::printf("c certificate: OK (invariant %zu AND nodes)\n",
                  r.certificate->graph.cone_size(r.certificate->root));
  }
  if (r.verdict == mc::Verdict::kPass && !a.invariant_file.empty()) {
    if (!r.certificate.has_value()) {
      std::fprintf(stderr, "%s: engine '%s' does not emit certificates\n",
                   argv[0], r.engine.c_str());
      return 2;
    }
    aig::Aig inv = r.certificate->graph;  // copy; add the root as output
    inv.add_output(r.certificate->root, "invariant");
    if (a.invariant_file.size() >= 5 &&
        a.invariant_file.substr(a.invariant_file.size() - 5) == ".blif")
      io::write_blif_file(inv, a.invariant_file, "invariant");
    else
      aig::write_aiger_file(inv, a.invariant_file);
  }

  if (!a.quiet) {
    std::printf("c engine=%s time=%.3fs k_fp=%u j_fp=%u\n", r.engine.c_str(),
                r.seconds, r.k_fp, r.j_fp);
    std::printf("c sat_calls=%" PRIu64 " conflicts=%" PRIu64
                " proof_clauses=%" PRIu64 " max_itp=%zu\n",
                r.stats.sat_calls, r.stats.sat_conflicts,
                r.stats.proof_clauses, r.stats.max_itp_nodes);
    if (r.stats.cba_visible_latches > 0)
      std::printf("c abstraction: visible=%u refinements=%u\n",
                  r.stats.cba_visible_latches, r.stats.cba_refinements);
    // Per-member fates (portfolio): lets a user see which member won, which
    // ran out of budget, which crashed with what error, and which had to be
    // relaunched by the self-healing policy on the way to its verdict.
    for (const mc::MemberOutcome& m : r.members) {
      std::string retry;
      if (m.restarts > 0)
        retry = " restarts=" + std::to_string(m.restarts) + " last_error=" +
                mc::to_string(m.last_error.kind);
      if (m.error.kind != mc::ErrorKind::kNone)
        std::printf("c member %s verdict=%s time=%.3fs%s error=%s: %s\n",
                    m.member.c_str(), mc::to_string(m.verdict), m.seconds,
                    retry.c_str(), mc::to_string(m.error.kind),
                    m.error.message.c_str());
      else
        std::printf("c member %s verdict=%s time=%.3fs%s\n", m.member.c_str(),
                    mc::to_string(m.verdict), m.seconds, retry.c_str());
    }
  }
  // Structured error summary on stderr for kError (and watchdog-annotated
  // kUnknown), mirroring the stats-json "error" object.
  if (r.error.kind != mc::ErrorKind::kNone)
    std::fprintf(stderr, "%s: engine error: kind=%s %s\n", argv[0],
                 mc::to_string(r.error.kind), r.error.message.c_str());
  std::printf("s %s\n", mc::to_string(r.verdict));

  if (r.verdict == mc::Verdict::kFail && !a.witness_file.empty()) {
    if (!have_trace) {
      std::fprintf(stderr,
                   "%s: engine '%s' does not produce witnesses; rerun with a "
                   "SAT-based engine\n",
                   argv[0], r.engine.c_str());
    } else if (a.witness_file == "-") {
      mc::write_witness(r.cex, a.property, std::cout);
    } else {
      std::ofstream out(a.witness_file);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", a.witness_file.c_str());
        return 4;
      }
      mc::write_witness(r.cex, a.property, out);
    }
  }
  switch (r.verdict) {
    case mc::Verdict::kPass: return 0;
    case mc::Verdict::kFail: return 1;
    case mc::Verdict::kUnknown: return 3;
    case mc::Verdict::kError: return 4;
  }
  return 4;
}
