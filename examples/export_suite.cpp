// export_suite.cpp — write the benchmark suite out as AIGER files, so the
// circuits can be fed to external model checkers (ABC, nuXmv, IC3 tools)
// for cross-validation.
//
// Usage: export_suite <output_dir> [ascii|binary]
#include <cstdio>
#include <filesystem>
#include <string>

#include "aig/aiger_io.hpp"
#include "bench_circuits/suite.hpp"

using namespace itpseq;

int main(int argc, char** argv) {
  // A flag-like directory, an unknown format or an extra argument is a
  // usage error, reported before anything is written.
  const std::string format = argc > 2 ? argv[2] : "binary";
  if (argc < 2 || argc > 3 || argv[1][0] == '-' ||
      (format != "ascii" && format != "binary")) {
    std::fprintf(stderr, "usage: %s <output_dir> [ascii|binary]\n", argv[0]);
    return 2;
  }
  std::string dir = argv[1];
  bool ascii = format == "ascii";
  std::filesystem::create_directories(dir);

  unsigned n = 0;
  for (auto& inst : bench::make_suite()) {
    std::string path = dir + "/" + inst.name + (ascii ? ".aag" : ".aig");
    aig::write_aiger_file(inst.model, path);
    ++n;
  }
  std::printf("wrote %u AIGER files to %s\n", n, dir.c_str());
  return 0;
}
