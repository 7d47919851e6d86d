// reach.hpp — BDD-based symbolic reachability over an AIG model.
//
// Provides the exact analyses the paper reports in the "BDDs" section of
// Table I: forward verification with the forward diameter d_F (eccentricity
// of the initial states) and backward verification with the backward
// diameter d_B (eccentricity of the target states), with overflow reported
// when the node/time budget is exceeded — the paper's "ovf" entries.
//
// Also serves as the ground-truth model checker for the test suite.
//
// Variable order (interleaved current/next, inputs last):
//   current latch i -> BDD var 2i,  next latch i -> 2i+1,
//   input j         -> 2*num_latches + j.
#pragma once

#include <optional>

#include "aig/aig.hpp"
#include "bdd/bdd.hpp"

namespace itpseq::bdd {

/// Outcome of a symbolic traversal.
enum class ReachVerdict : std::uint8_t {
  kPass,      ///< property holds (fixpoint without hitting bad)
  kFail,      ///< bad state reachable
  kOverflow,  ///< node or time budget exceeded ("ovf")
};

struct ReachResult {
  ReachVerdict verdict = ReachVerdict::kOverflow;
  /// On kFail: distance (in steps) of the shallowest counterexample.
  /// On kPass: number of image steps to the reachability fixpoint.
  unsigned depth = 0;
  /// On kPass: circuit diameter (d_F for forward, d_B for backward).
  std::optional<unsigned> diameter;
  double seconds = 0.0;
  std::size_t peak_nodes = 0;
};

/// Resource budget for one traversal.
struct ReachBudget {
  std::size_t node_limit = 2'000'000;
  double seconds = 60.0;
  unsigned max_steps = 100000;
};

/// Symbolic transition-system view of an AIG with partitioned transition
/// relation and early-quantification image/preimage operators.
class SymbolicModel {
 public:
  /// Builds per-latch next-state BDDs.  Throws BddOverflow if the functions
  /// themselves exceed the node limit.  With `static_order` the latches are
  /// permuted by a structural DFS heuristic (latches that feed each other
  /// sit close together) instead of declaration order.
  SymbolicModel(const aig::Aig& model, std::size_t node_limit = 2'000'000,
                std::size_t prop = 0, bool static_order = false);

  BddManager& mgr() { return mgr_; }
  const aig::Aig& model() const { return model_; }

  unsigned cur_var(std::size_t latch) const { return 2 * perm_[latch]; }
  unsigned next_var(std::size_t latch) const { return 2 * perm_[latch] + 1; }
  unsigned input_var(std::size_t input) const {
    return 2 * static_cast<unsigned>(model_.num_latches()) + static_cast<unsigned>(input);
  }

  /// Initial states over current vars (uninitialized latches unconstrained).
  BddRef init() const { return init_; }
  /// States with some input making the bad output true (over current vars).
  BddRef bad_states() const { return bad_states_; }

  /// Image of `states` (over current vars) -> set over current vars.
  BddRef image(BddRef states);
  /// Preimage of `states` (over current vars) -> set over current vars.
  BddRef preimage(BddRef states);

  /// Build the BDD of an arbitrary AIG literal over current/input vars.
  BddRef build(aig::Lit l);

 private:
  const aig::Aig& model_;
  std::vector<unsigned> perm_;         // latch index -> order position
  BddManager mgr_;
  BddRef constraint_ = kBddTrue;       // conjunction of invariant constraints
  std::vector<BddRef> relation_;       // per latch: next_i <-> f_i(cur, in)
  std::vector<int> fwd_last_use_;      // var -> last relation index using it (fwd quant.)
  std::vector<int> bwd_last_use_;      // same for preimage quantification
  BddRef init_ = kBddFalse;
  BddRef bad_states_ = kBddFalse;
  std::vector<unsigned> next_to_cur_;
  std::vector<unsigned> cur_to_next_;
};

/// Structural static variable order: latch indices sorted by first
/// appearance in a DFS from the property through the next-state cones.
std::vector<unsigned> static_latch_order(const aig::Aig& model,
                                         std::size_t prop = 0);

/// Forward traversal: BFS layers from the initial states.
ReachResult forward_reach(SymbolicModel& m, const ReachBudget& budget = {});
/// Backward traversal: BFS layers from the bad states.
ReachResult backward_reach(SymbolicModel& m, const ReachBudget& budget = {});

/// Pure eccentricity computations: like the traversals above but with no
/// early exit on reaching the other set, so the diameter is reported even
/// for failing properties (kPass then simply means "fixpoint reached").
ReachResult forward_diameter(SymbolicModel& m, const ReachBudget& budget = {});
ReachResult backward_diameter(SymbolicModel& m, const ReachBudget& budget = {});

/// Convenience: exact verdict for output `prop` of `model` (kOverflow if the
/// budget is exhausted) using forward reachability.
ReachResult bdd_check(const aig::Aig& model, std::size_t prop = 0,
                      const ReachBudget& budget = {});

}  // namespace itpseq::bdd
