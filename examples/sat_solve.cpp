// sat_solve.cpp — standalone DIMACS SAT solver with optional interpolation.
//
// Usage: sat_solve <file.cnf> [cut|--drat FILE]
//   cut         on UNSAT with "c part <n>" labels, extract + validate the
//               Craig interpolant at that cut;
//   --drat FILE on UNSAT, export a DRAT proof and re-verify it with the
//               independent forward RUP checker.
//
// Exit code follows the SAT-competition convention: 10 = SAT, 20 = UNSAT.
#include <cstdio>
#include <cstring>

#include "args.hpp"
#include "itp/interpolate.hpp"
#include "itp/validate.hpp"
#include <fstream>
#include <sstream>

#include "sat/dimacs.hpp"
#include "sat/drat.hpp"
#include "sat/proof_check.hpp"
#include "sat/solver.hpp"

using namespace itpseq;

int main(int argc, char** argv) {
  constexpr const char* kUsage = "<file.cnf> [cut|--drat FILE]";
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s %s\n", argv[0], kUsage);
    return 2;
  }
  const bool drat = argc > 3 && std::strcmp(argv[2], "--drat") == 0;
  // 0 when no cut is asked for.
  const std::uint32_t cut =
      drat ? 0 : bench::positive_arg(argc, argv, 2, std::uint32_t{0}, kUsage);
  sat::DimacsProblem p;
  try {
    p = sat::read_dimacs_file(argv[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  std::printf("c %u vars, %zu clauses\n", p.num_vars, p.clauses.size());

  sat::Solver solver;
  solver.enable_proof();
  sat::load_dimacs(p, solver);
  sat::Status st = solver.solve();
  const auto& stats = solver.stats();
  std::printf("c %llu conflicts, %llu decisions, %llu propagations\n",
              static_cast<unsigned long long>(stats.conflicts),
              static_cast<unsigned long long>(stats.decisions),
              static_cast<unsigned long long>(stats.propagations));

  if (st == sat::Status::kSat) {
    std::printf("s SATISFIABLE\nv ");
    for (unsigned v = 0; v < p.num_vars; ++v)
      std::printf("%s%u ", solver.model_value(sat::mk_lit(v)) ? "" : "-",
                  v + 1);
    std::printf("0\n");
    return 10;
  }
  std::printf("s UNSATISFIABLE\n");
  auto pc = sat::check_proof(solver.proof());
  std::printf("c proof check: %s (core %zu clauses)\n",
              pc.ok ? "OK" : pc.error.c_str(), solver.proof().core().size());

  if (drat) {
    std::ofstream out(argv[3]);
    sat::write_drat(solver.proof(), out);
    out.close();
    std::ifstream in(argv[3]);
    auto dr = sat::check_drat(p.num_vars, p.clauses, in);
    std::printf("c drat: %zu additions written to %s; independent check: %s\n",
                dr.additions, argv[3], dr.ok ? "OK" : dr.error.c_str());
    return 20;
  }

  if (cut > 0) {
    aig::Aig g;
    for (unsigned v = 0; v < p.num_vars; ++v) g.add_input();
    itp::InterpolantExtractor ex(solver.proof());
    aig::Lit I = ex.extract(g, cut, [&](sat::Var v) { return g.input(v); });
    std::printf("c interpolant at cut %u: %zu AND nodes, %zu support vars\n",
                cut, g.cone_size(I), g.support(I).size());
    itp::LabeledCnf f;
    f.num_vars = p.num_vars;
    for (std::size_t i = 0; i < p.clauses.size(); ++i)
      f.clauses.push_back({p.clauses[i], p.labels[i]});
    std::vector<sat::Var> ids(p.num_vars);
    for (unsigned v = 0; v < p.num_vars; ++v) ids[v] = v;
    auto vr = itp::validate_interpolant(f, cut, g, I, ids);
    std::printf("c interpolant validation: %s\n",
                vr.ok ? "OK" : vr.error.c_str());
  }
  return 20;
}
