// sat_solve.cpp — standalone DIMACS SAT solver with optional interpolation.
//
// Usage: sat_solve <file.cnf> [cut]
//   On UNSAT the refutation is replayed and its leaves checked against the
//   clauses read (sat::check_proof).  With a cut and "c part <n>" labels,
//   the Craig interpolant at that cut is extracted and validated too.
//
// Exit code follows the SAT-competition convention: 10 = SAT, 20 = UNSAT;
// 1 when a check fails, 2 on a usage or input error.
#include <cstdio>

#include "args.hpp"
#include "itp/interpolate.hpp"
#include "itp/validate.hpp"
#include "sat/dimacs.hpp"
#include "sat/proof_check.hpp"
#include "sat/solver.hpp"

using namespace itpseq;

int main(int argc, char** argv) {
  constexpr const char* kUsage = "<file.cnf> [cut]";
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s %s\n", argv[0], kUsage);
    return 2;
  }
  // 0 when no cut is asked for.
  const std::uint32_t cut =
      bench::positive_arg(argc, argv, 2, std::uint32_t{0}, kUsage);
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
  auto pc = sat::check_proof(solver.proof(), solver.proof().final_id(),
                             p.clauses);
  std::printf("c proof check: %s (core %zu clauses)\n",
              pc.ok ? "OK" : pc.error.c_str(), solver.proof().core().size());
  bool ok = pc.ok;

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
    ok = ok && vr.ok;
  }
  return ok ? 20 : 1;
}
