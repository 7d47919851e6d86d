// aigtool — swiss-army utility for AIGER/BLIF circuits.
//
// Subcommands:
//   stats FILE                    print size, depth and property statistics
//   convert IN OUT                convert between .aag / .aig / .blif
//   sim FILE [STEPS] [SEED]       64-way random simulation; reports the
//                                 first depth at which a bad output fires;
//                                 STEPS and SEED are unsigned decimals
//   diameter FILE [SECONDS]       exact BDD forward/backward diameters;
//                                 SECONDS is a positive finite decimal
//
// Every subcommand takes exactly the arguments shown; anything else is a
// usage error.  Exit code 0 on success, 1 on usage or input errors.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "aig/aiger_io.hpp"
#include "bdd/reach.hpp"
#include "io/blif.hpp"
#include "mc/portfolio.hpp"

using namespace itpseq;

namespace {

bool has_suffix(const std::string& s, const char* suf) {
  std::size_t n = std::strlen(suf);
  return s.size() >= n && s.compare(s.size() - n, n, suf) == 0;
}

/// Strict unsigned decimal: digits only, no sign, no trailing text, no
/// overflow of T.  Throws std::invalid_argument, which main() reports as a
/// usage error.
template <class T>
T parse_uint(const char* what, const char* s) {
  T v{};
  const char* end = s + std::strlen(s);
  auto [ptr, ec] = std::from_chars(s, end, v);
  if (ec != std::errc{} || ptr != end)
    throw std::invalid_argument(std::string(what) +
                                " must be an unsigned integer, got '" + s +
                                "'");
  return v;
}

/// Strict time budget: a plain positive finite decimal ("30", "0.5"), no
/// sign, exponent, trailing text, inf or nan.
double parse_seconds(const char* s) {
  double v = 0.0;
  const char* end = s + std::strlen(s);
  auto [ptr, ec] = std::from_chars(s, end, v, std::chars_format::fixed);
  if (ec != std::errc{} || ptr != end || !std::isfinite(v) || v <= 0.0)
    throw std::invalid_argument(
        std::string("SECONDS must be a positive decimal, got '") + s + "'");
  return v;
}

aig::Aig load(const std::string& path) {
  if (has_suffix(path, ".blif")) return io::read_blif_file(path);
  return aig::read_aiger_file(path);
}

void save(const aig::Aig& g, const std::string& path) {
  if (has_suffix(path, ".blif"))
    io::write_blif_file(g, path);
  else
    aig::write_aiger_file(g, path);
}

/// Roots of the sequential logic: outputs, latch next-states, constraints.
std::vector<aig::Lit> sequential_roots(const aig::Aig& g) {
  std::vector<aig::Lit> roots;
  for (std::size_t i = 0; i < g.num_outputs(); ++i)
    roots.push_back(g.output(i));
  for (std::size_t i = 0; i < g.num_latches(); ++i)
    roots.push_back(g.latch_next(i));
  for (std::size_t i = 0; i < g.num_constraints(); ++i)
    roots.push_back(g.constraint(i));
  return roots;
}

int cmd_stats(const std::string& path) {
  aig::Aig g = load(path);
  std::printf("%s:\n", path.c_str());
  std::printf("  inputs      %zu\n", g.num_inputs());
  std::printf("  latches     %zu\n", g.num_latches());
  std::printf("  ands        %zu\n", g.num_ands());
  std::printf("  outputs     %zu\n", g.num_outputs());
  std::printf("  constraints %zu\n", g.num_constraints());
  // One topological walk over the whole cone yields the live AND count and
  // every node's depth (longest AND path down to a leaf).
  std::vector<aig::Lit> roots = sequential_roots(g);
  std::vector<std::size_t> level(g.num_vars(), 0);
  std::size_t depth = 0, live = 0;
  for (aig::Var v : g.cone(roots)) {
    const aig::Node& n = g.node(v);
    if (n.type != aig::NodeType::kAnd) continue;
    ++live;
    level[v] = 1 + std::max(level[aig::lit_var(n.fanin0)],
                            level[aig::lit_var(n.fanin1)]);
  }
  for (aig::Lit r : roots) depth = std::max(depth, level[aig::lit_var(r)]);
  std::printf("  depth       %zu\n", depth);
  std::printf("  live ands   %zu (%zu dead)\n", live, g.num_ands() - live);
  for (std::size_t i = 0; i < g.num_outputs(); ++i)
    std::printf("  output %zu: cone %zu ands, support %zu leaves\n", i,
                g.cone_size(g.output(i)), g.support(g.output(i)).size());
  return 0;
}

int cmd_convert(const std::string& in, const std::string& out) {
  save(load(in), out);
  return 0;
}

int cmd_sim(const std::string& path, unsigned steps, std::uint64_t seed) {
  aig::Aig g = load(path);
  mc::EngineResult r = mc::check_random_sim(g, 0, steps, /*rounds=*/64, seed);
  if (r.verdict == mc::Verdict::kFail)
    std::printf("%s: bad output fires at depth %u\n", path.c_str(),
                r.cex.depth());
  else
    std::printf("%s: no failure within %u random steps\n", path.c_str(),
                steps);
  return 0;
}

int cmd_diameter(const std::string& path, double seconds) {
  aig::Aig g = load(path);
  bdd::ReachBudget budget;
  budget.seconds = seconds;
  // Pure eccentricities (no early exit on property failure).
  bdd::SymbolicModel m(g);
  bdd::ReachResult fwd = bdd::forward_diameter(m, budget);
  if (fwd.diameter)
    std::printf("d_F = %u\n", *fwd.diameter);
  else
    std::printf("d_F = ovf\n");
  bdd::SymbolicModel m2(g);
  bdd::ReachResult bwd = bdd::backward_diameter(m2, budget);
  if (bwd.diameter)
    std::printf("d_B = %u\n", *bwd.diameter);
  else
    std::printf("d_B = ovf\n");
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: aigtool stats FILE\n"
               "       aigtool convert IN OUT\n"
               "       aigtool sim FILE [STEPS] [SEED]\n"
               "       aigtool diameter FILE [SECONDS]\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    usage();
    return 1;
  }
  std::string cmd = argv[1];
  const int nargs = argc - 2;  // arguments after the subcommand
  try {
    if (cmd == "stats" && nargs == 1) return cmd_stats(argv[2]);
    if (cmd == "convert" && nargs == 2) return cmd_convert(argv[2], argv[3]);
    if (cmd == "sim" && nargs <= 3)
      return cmd_sim(argv[2],
                     nargs > 1 ? parse_uint<unsigned>("STEPS", argv[3]) : 100,
                     nargs > 2 ? parse_uint<std::uint64_t>("SEED", argv[4])
                               : 1);
    if (cmd == "diameter" && nargs <= 2)
      return cmd_diameter(argv[2], nargs > 1 ? parse_seconds(argv[3]) : 60.0);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "aigtool: %s\n", ex.what());
    return 1;
  }
  usage();
  return 1;
}
