// interpolant_strength.cpp — the three labeled interpolation systems on
// one refutation proof.
//
// Unrolls a suite circuit into an (unsatisfiable) exact-k BMC instance,
// extracts the interpolation sequence with McMillan's, Pudlak's and the
// inverse McMillan system from the *same* proof, and reports per-cut sizes
// plus SAT-verified strength relations (ITP_M => ITP_P => ITP_M'),
// checked with the engines' own containment check (StateSpace::implies).
//
//   $ ./interpolant_strength [bound]
#include <cstdio>

#include "args.hpp"
#include "bench_circuits/generators.hpp"
#include "cnf/unroller.hpp"
#include "itp/interpolate.hpp"
#include "mc/state_space.hpp"
#include "sat/solver.hpp"

using namespace itpseq;

int main(int argc, char** argv) {
  const unsigned k = bench::positive_arg(argc, argv, 1, 6u, "[bound]");
  aig::Aig model = bench::queue(6, /*guarded=*/true);
  std::printf("model: guarded queue, %zu latches, bound k=%u\n",
              model.num_latches(), k);

  // Exact-k BMC instance with interpolation-sequence partition labels.
  sat::Solver solver;
  solver.enable_proof();
  cnf::Unroller unr(model, solver);
  unr.assert_init(1);
  for (unsigned t = 0; t < k; ++t) unr.add_transition(t, t + 1);
  solver.add_clause({unr.bad_lit(k, k + 1)}, k + 1);
  if (solver.solve() != sat::Status::kUnsat) {
    std::printf("instance satisfiable at k=%u — property fails\n", k);
    return 1;
  }
  std::printf("refutation core: %zu clauses\n", solver.proof().core().size());

  // State-set AIG: input i stands for latch i at the cut frame.
  mc::StateSpace space(model);
  aig::Aig& g = space.graph();
  itp::InterpolantExtractor ex(solver.proof());

  auto leaf = [&](std::uint32_t cut, sat::Var v) -> aig::Lit {
    for (std::size_t i = 0; i < model.num_latches(); ++i) {
      sat::Lit sl = unr.lookup(model.latch(i), cut);
      if (sl != sat::kNoLit && sat::var(sl) == v)
        return aig::lit_xor(g.input(i), sat::sign(sl));
    }
    return aig::kNullLit;
  };

  const itp::System systems[] = {itp::System::kMcMillan,
                                 itp::System::kPudlak,
                                 itp::System::kInverseMcMillan};
  std::vector<std::vector<aig::Lit>> seq;
  for (itp::System sys : systems)
    seq.push_back(ex.extract_sequence(g, 1, k, leaf, sys));

  std::printf("\n%-5s %-18s %-18s %-18s\n", "cut", "mcmillan",
              "pudlak", "inverse-mcmillan");
  for (unsigned c = 1; c <= k; ++c) {
    std::printf("%-5u", c);
    for (int s = 0; s < 3; ++s)
      std::printf(" %-18zu", g.cone_size(seq[s][c - 1]));
    std::printf("\n");
  }

  // Verify the strength lattice by SAT on every cut.
  std::printf("\nstrength checks (stronger => weaker):\n");
  for (unsigned c = 1; c <= k; ++c) {
    auto implies = [&](aig::Lit a, aig::Lit b) {
      // A negative time limit means none, so the answer is exact.
      return space.implies(a, b, -1.0) == mc::Implication::kHolds;
    };
    bool mp = implies(seq[0][c - 1], seq[1][c - 1]);
    bool pi = implies(seq[1][c - 1], seq[2][c - 1]);
    std::printf("  cut %u: ITP_M => ITP_P %s, ITP_P => ITP_M' %s\n", c,
                mp ? "OK" : "VIOLATED", pi ? "OK" : "VIOLATED");
    if (!mp || !pi) return 1;
  }
  std::printf("\nall strength relations hold.\n");
  return 0;
}
