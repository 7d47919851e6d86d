// cli_test.cpp — end-to-end tests of the command-line tools (itpseq-mc,
// aigtool), invoked as subprocesses on circuits written to a temp dir.
// The tool directory is injected by CMake as ITPSEQ_TOOL_DIR.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "aig/aiger_io.hpp"
#include "bench_circuits/generators.hpp"
#include "io/blif.hpp"
#include "mc/certify.hpp"

#ifndef ITPSEQ_TOOL_DIR
#define ITPSEQ_TOOL_DIR "."
#endif

namespace itpseq {
namespace {

std::string tool(const std::string& name) {
  return std::string(ITPSEQ_TOOL_DIR) + "/" + name;
}

std::string temp_path(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir ? dir : "/tmp") + "/itpseq_cli_" + name;
}

/// Run a command, returning its exit status (-1 on spawn failure).
/// `merge_stderr` folds stderr into the captured output — for tests that
/// assert on diagnostics, which the tools print to stderr.
int run(const std::string& cmd, std::string* output = nullptr,
        bool merge_stderr = false) {
  std::string full = cmd + (merge_stderr ? " 2>&1" : " 2>/dev/null");
  FILE* p = popen(full.c_str(), "r");
  if (!p) return -1;
  std::string text;
  char buf[512];
  while (std::size_t n = std::fread(buf, 1, sizeof buf, p)) text.append(buf, n);
  int status = pclose(p);
  if (output) *output = text;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

class CliTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pass_aag_ = temp_path("pass.aag");
    fail_aag_ = temp_path("fail.aag");
    aig::write_aiger_file(bench::token_ring(6, false), pass_aag_);
    aig::write_aiger_file(bench::counter(4, 12, 7), fail_aag_);
  }
  static std::string pass_aag_, fail_aag_;
};

std::string CliTest::pass_aag_;
std::string CliTest::fail_aag_;

TEST_F(CliTest, McPassExitCode0) {
  std::string out;
  int rc = run(tool("itpseq-mc") + " -q -t 30 " + pass_aag_, &out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("s PASS"), std::string::npos);
}

TEST_F(CliTest, McFailExitCode1WithValidWitness) {
  std::string out;
  int rc = run(tool("itpseq-mc") + " -q -t 30 --validate -w - " + fail_aag_,
               &out);
  EXPECT_EQ(rc, 1);
  EXPECT_NE(out.find("s FAIL"), std::string::npos);
  EXPECT_NE(out.find("1\nb0\n"), std::string::npos) << out;  // witness header
}

TEST_F(CliTest, McEveryEngineAgrees) {
  for (const char* e :
       {"itp", "itpseq", "sitpseq", "itpseq-cba", "itpseq-pba", "pdr", "bmc",
        "kind", "bdd", "portfolio"}) {
    std::string cmd =
        tool("itpseq-mc") + " -q -t 30 -e " + e + " " + fail_aag_;
    EXPECT_EQ(run(cmd), 1) << e;
  }
  for (const char* e : {"itp", "itpseq", "sitpseq", "pdr", "kind", "bdd"}) {
    std::string cmd =
        tool("itpseq-mc") + " -q -t 30 -e " + e + " " + pass_aag_;
    EXPECT_EQ(run(cmd), 0) << e;
  }
}

TEST_F(CliTest, McCertifyPassVerdicts) {
  for (const char* e :
       {"itp", "itpseq", "sitpseq", "itpseq-cba", "itpseq-pba", "pdr"}) {
    std::string out;
    int rc = run(tool("itpseq-mc") + " -t 30 --certify -e " + e + " " +
                     pass_aag_,
                 &out);
    EXPECT_EQ(rc, 0) << e;
    EXPECT_NE(out.find("certificate: OK"), std::string::npos) << e;
  }
  // Engines without certificates must report an error under --certify.
  EXPECT_EQ(run(tool("itpseq-mc") + " -t 30 --certify -e bdd " + pass_aag_),
            2);
}

TEST_F(CliTest, McPdrEndToEnd) {
  // FAIL side: validated witness written to stdout.
  std::string out;
  int rc = run(tool("itpseq-mc") + " -q -t 30 -e pdr --validate -w - " +
                   fail_aag_,
               &out);
  EXPECT_EQ(rc, 1);
  EXPECT_NE(out.find("1\nb0\n"), std::string::npos) << out;
  // PASS side: the engine's inductive invariant re-checked independently.
  rc = run(tool("itpseq-mc") + " -t 30 -e pdr --certify " + pass_aag_, &out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("certificate: OK"), std::string::npos) << out;
}

TEST_F(CliTest, McExportedInvariantIsACertificate) {
  std::string inv = temp_path("inv.blif");
  ASSERT_EQ(run(tool("itpseq-mc") + " -q -t 30 --invariant " + inv + " " +
                pass_aag_),
            0);
  // Reload the exported invariant and re-check it as a certificate for
  // the original model — full independence from the engine run.
  aig::Aig model = bench::token_ring(6, false);
  aig::Aig inv_g = io::read_blif_file(inv);
  mc::Certificate cert;
  cert.graph = inv_g;
  cert.root = inv_g.output(0);
  mc::CertifyResult c = mc::check_certificate(model, 0, cert);
  EXPECT_TRUE(c.ok) << c.error;
}

TEST_F(CliTest, McQuietEmitsOnlyTheVerdictLine) {
  // --quiet must suppress every "c ..." comment line: stdout is exactly the
  // solution line, so scripts can `read verdict < <(itpseq-mc -q ...)`.
  std::string out;
  EXPECT_EQ(run(tool("itpseq-mc") + " -q -t 30 " + pass_aag_, &out), 0);
  EXPECT_EQ(out, "s PASS\n");
  EXPECT_EQ(run(tool("itpseq-mc") + " -q -t 30 -e bmc " + fail_aag_, &out),
            1);
  EXPECT_EQ(out, "s FAIL\n");
  // Without --quiet the comment lines are present.
  EXPECT_EQ(run(tool("itpseq-mc") + " -t 30 " + pass_aag_, &out), 0);
  EXPECT_NE(out.find("c engine="), std::string::npos) << out;
}

TEST_F(CliTest, McTraceAndStatsJsonFilesAreWritten) {
  std::string trace = temp_path("run.jsonl");
  std::string chrome = temp_path("run.chrome.json");
  std::string stats = temp_path("run_stats.json");
  ASSERT_EQ(run(tool("itpseq-mc") + " -q -t 30 -e pdr --trace-out " + trace +
                " --stats-json " + stats + " " + pass_aag_),
            0);
  // JSONL: non-empty, every line carries the schema keys.
  std::ifstream in(trace);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    for (const char* key :
         {"\"ts_us\":", "\"tid\":", "\"engine\":", "\"kind\":", "\"payload\":"})
      EXPECT_NE(line.find(key), std::string::npos) << line;
  }
  EXPECT_GT(lines, 0u);
  // Stats report: verdict and engine recorded.
  std::string report;
  {
    std::ifstream sin(stats);
    std::stringstream ss;
    ss << sin.rdbuf();
    report = ss.str();
  }
  EXPECT_NE(report.find("\"verdict\":\"PASS\""), std::string::npos) << report;
  EXPECT_NE(report.find("\"engine\":\"PDR\""), std::string::npos) << report;
  EXPECT_NE(report.find("\"kinds\":"), std::string::npos) << report;
  // Chrome format: the file is one JSON array (framing check; obs_test
  // parses the content).
  ASSERT_EQ(run(tool("itpseq-mc") + " -q -t 30 -e portfolio -j 4 " +
                "--trace-out " + chrome + " --trace-format chrome " +
                pass_aag_),
            0);
  std::string body;
  {
    std::ifstream cin2(chrome);
    std::stringstream ss;
    ss << cin2.rdbuf();
    body = ss.str();
  }
  ASSERT_FALSE(body.empty());
  EXPECT_EQ(body.front(), '[');
  EXPECT_EQ(body[body.find_last_not_of("\n")], ']');
  EXPECT_NE(body.find("\"ph\":\"X\""), std::string::npos);
  // Unknown trace format is a usage error.
  EXPECT_EQ(run(tool("itpseq-mc") + " --trace-format yaml " + pass_aag_), 2);
}

TEST_F(CliTest, McUsageErrors) {
  EXPECT_EQ(run(tool("itpseq-mc")), 2);
  EXPECT_EQ(run(tool("itpseq-mc") + " -e nonsense " + pass_aag_), 2);
  EXPECT_EQ(run(tool("itpseq-mc") + " /nonexistent.aag"), 2);
  EXPECT_EQ(run(tool("itpseq-mc") + " -p 9 " + pass_aag_), 2);
  // Numeric flags take plain unsigned decimals: a sign, trailing text or
  // overflow is a usage error, never a silently wrapped or truncated value.
  const std::string mc = tool("itpseq-mc") + " -q -t 30 ";
  for (const char* flags :
       {"-e bmc -k -1", "-e bmc -k 5x", "-e bmc -k +5", "-e bmc -k 4294967296",
        "-p 0x", "-e portfolio -j -1", "-e portfolio -j 2x",
        "-e bmc --mem-limit -5", "-e bmc --mem-limit 99999999999999999"})
    EXPECT_EQ(run(mc + flags + " " + fail_aag_), 2) << flags;
  // Real-valued flags: finite, no trailing text, in range (--timeout >= 0,
  // --alpha in (0, 1]).
  for (const char* flags :
       {"-e bmc -t 5x", "-e bmc -t nan", "-e bmc -t inf", "-e bmc -t -1",
        "-e bmc -t 1e999", "-e bmc -t ''", "--alpha 0.5x", "--alpha -1",
        "--alpha nan", "--alpha 5", "--alpha 0", "--alpha inf"})
    EXPECT_EQ(run(mc + flags + " " + fail_aag_), 2) << flags;
  EXPECT_EQ(run(mc + "--alpha 1 " + fail_aag_), 1);
  // Engine variants and flags that the CLI no longer offers.
  for (const char* flags :
       {"-e itp-part", "-e itpseq-cba-pba", "-e sitpseq --dynamic",
        "-e itpseq --fraig", "-e portfolio --no-exchange",
        "-e portfolio --checkpoint ckpt.its",
        "-e portfolio --checkpoint-interval 1",
        "-e portfolio --resume ckpt.its", "-e bmc --incremental",
        "-e bmc --incremental=off", "-e bmc --no-incremental"})
    EXPECT_EQ(run(mc + flags + " " + fail_aag_), 2) << flags;
}

TEST_F(CliTest, McResourceExhaustionIsExitCode3) {
  // Both exhausted budgets — wall clock and memory — end in a clean
  // UNKNOWN (exit 3, retryable with more resources), never a crash.
  std::string out;
  EXPECT_EQ(run(tool("itpseq-mc") + " -q -t 0 -e bmc " + pass_aag_, &out), 3);
  EXPECT_NE(out.find("s UNKNOWN"), std::string::npos) << out;
  EXPECT_EQ(run(tool("itpseq-mc") + " -q -t 30 --mem-limit 1 -e bmc " +
                pass_aag_),
            3);
}

TEST_F(CliTest, McInjectedFaultIsExitCode4) {
  // Interpolant extraction throws on every call: the single-engine run has
  // nothing left to report but a contained internal error.
  std::string out;
  int rc = run(tool("itpseq-mc") + " -q -t 30 -e itp --inject-fault " +
                   "itp.extract:1:1000000 " + pass_aag_,
               &out);
  EXPECT_EQ(rc, 4);
  EXPECT_NE(out.find("s ERROR"), std::string::npos) << out;
}

TEST_F(CliTest, McPortfolioSurvivesAMemberFault) {
  // The same fault inside the portfolio only kills the interpolation
  // members; a survivor still falsifies and the run reports its outcome
  // roster.
  std::string out;
  int rc = run(tool("itpseq-mc") + " -t 30 -e portfolio --inject-fault " +
                   "itp.extract:1:1000000 " + fail_aag_,
               &out);
  EXPECT_EQ(rc, 1);
  EXPECT_NE(out.find("s FAIL"), std::string::npos) << out;
  EXPECT_NE(out.find("c member"), std::string::npos) << out;
}

TEST_F(CliTest, McFaultPlanFromEnvironment) {
  std::string out;
  int rc = run("ITPSEQ_FAULTS=itp.extract:1:1000000 " + tool("itpseq-mc") +
                   " -q -t 30 -e itp " + pass_aag_,
               &out);
  EXPECT_EQ(rc, 4);
  EXPECT_NE(out.find("s ERROR"), std::string::npos) << out;
}

TEST_F(CliTest, McBadFaultAndMemLimitFlagsAreUsageErrors) {
  EXPECT_EQ(run(tool("itpseq-mc") + " --inject-fault bogus " + pass_aag_), 2);
  EXPECT_EQ(run(tool("itpseq-mc") + " --inject-fault s:0 " + pass_aag_), 2);
  EXPECT_EQ(run(tool("itpseq-mc") + " --mem-limit lots " + pass_aag_), 2);
}

TEST_F(CliTest, McHostileHeaderIsRejectedNotAllocated) {
  // A header demanding a billion ANDs from a one-line file must be turned
  // away at load time (exit 2), not taken on faith by the allocator.
  std::string hostile = temp_path("hostile.aag");
  {
    std::ofstream f(hostile);
    f << "aag 1000000000 1000000000 0 0 0\n";
  }
  EXPECT_EQ(run(tool("itpseq-mc") + " -q " + hostile), 2);
}

TEST_F(CliTest, AigtoolStats) {
  std::string out;
  ASSERT_EQ(run(tool("aigtool") + " stats " + pass_aag_, &out), 0);
  EXPECT_NE(out.find("latches     6"), std::string::npos) << out;
  EXPECT_NE(out.find("depth       5\n"), std::string::npos) << out;
}

TEST_F(CliTest, AigtoolConvertRoundTripsAllFormats) {
  // Through .blif, .aig and back to .aag, each circuit keeps its verdict:
  // the PASS ring still passes, the FAIL counter still fails.
  for (const auto& [src, verdict] :
       {std::pair{pass_aag_, 0}, std::pair{fail_aag_, 1}}) {
    std::string blif = temp_path("conv.blif");
    std::string aag = temp_path("conv.aag");
    std::string aigb = temp_path("conv.aig");
    ASSERT_EQ(run(tool("aigtool") + " convert " + src + " " + blif), 0);
    ASSERT_EQ(run(tool("aigtool") + " convert " + blif + " " + aigb), 0);
    ASSERT_EQ(run(tool("aigtool") + " convert " + aigb + " " + aag), 0);
    EXPECT_EQ(run(tool("itpseq-mc") + " -q -t 30 " + aag), verdict) << src;
  }
}

TEST_F(CliTest, AigtoolUsageErrors) {
  const std::string at = tool("aigtool");
  EXPECT_EQ(run(at), 1);
  EXPECT_EQ(run(at + " bogus " + pass_aag_), 1);
  // Every subcommand takes exactly its arguments: one more is an error.
  EXPECT_EQ(run(at + " stats " + pass_aag_ + " extra"), 1);
  EXPECT_EQ(run(at + " convert " + pass_aag_ + " " + temp_path("x.aag") +
                " extra"),
            1);
  EXPECT_EQ(run(at + " convert " + pass_aag_), 1);
  EXPECT_EQ(run(at + " sim " + fail_aag_ + " 10 1 extra"), 1);
  EXPECT_EQ(run(at + " diameter " + fail_aag_ + " 5 extra"), 1);
  // sim's STEPS and SEED are plain unsigned decimals.
  for (const char* args : {" -0", " +5", " 5x", " 10 -1", " 10 7x"})
    EXPECT_EQ(run(at + " sim " + fail_aag_ + args), 1) << args;
  // diameter's SECONDS is a positive finite decimal.
  for (const char* args : {" 5x", " nan", " inf", " -1", " 0", " +5", " 1e3",
                           " ''"})
    EXPECT_EQ(run(at + " diameter " + fail_aag_ + args), 1) << args;
}

TEST_F(CliTest, AigtoolSimFindsShallowFailure) {
  std::string out;
  ASSERT_EQ(run(tool("aigtool") + " sim " + fail_aag_ + " 30", &out), 0);
  EXPECT_NE(out.find("depth 7"), std::string::npos) << out;
}

TEST_F(CliTest, AigtoolDiameter) {
  std::string out;
  ASSERT_EQ(run(tool("aigtool") + " diameter " + fail_aag_ + " 30", &out), 0);
  EXPECT_NE(out.find("d_F = 11"), std::string::npos) << out;  // mod-12 counter
}

}  // namespace
}  // namespace itpseq
