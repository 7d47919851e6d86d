// aig.hpp — And-Inverter Graph (AIG) representation of sequential circuits.
//
// The AIG is the central data structure of this library: circuits loaded
// from AIGER files, state sets, and Craig interpolants are all represented
// as AIG nodes.  The encoding follows the AIGER convention:
//
//   * a *literal* is an unsigned integer `2*var + sign`;
//   * variable 0 is the constant FALSE, so literal 0 is FALSE and literal 1
//     is TRUE;
//   * every other variable is either a primary input, a latch (state
//     element) or an AND node with two fanin literals.
//
// AND nodes are structurally hashed: building the same AND twice returns
// the same literal, and trivial simplifications (x&0=0, x&1=x, x&x=x,
// x&!x=0) are applied on construction.  This keeps interpolant circuits,
// which are built bottom-up from resolution proofs, compact.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

namespace itpseq::aig {

/// AIGER-style literal: 2*var + sign. Literal 0 is constant false.
using Lit = std::uint32_t;
/// Variable index (literal >> 1).
using Var = std::uint32_t;

inline constexpr Lit kFalse = 0;  ///< The constant-false literal.
inline constexpr Lit kTrue = 1;   ///< The constant-true literal.
/// Sentinel for "no literal".
inline constexpr Lit kNullLit = std::numeric_limits<Lit>::max();

/// Variable of a literal.
constexpr Var lit_var(Lit l) { return l >> 1; }
/// True iff the literal is complemented.
constexpr bool lit_sign(Lit l) { return (l & 1u) != 0; }
/// Complement of a literal.
constexpr Lit lit_not(Lit l) { return l ^ 1u; }
/// Literal with given sign applied on top of l's own sign.
constexpr Lit lit_xor(Lit l, bool invert) { return l ^ static_cast<Lit>(invert); }
/// Positive-phase literal of a variable.
constexpr Lit var_lit(Var v, bool sign = false) {
  return (v << 1) | static_cast<Lit>(sign);
}

/// Node kinds stored in an Aig.
enum class NodeType : std::uint8_t {
  kConst,  ///< variable 0 only
  kInput,  ///< primary input
  kLatch,  ///< state element (has next-state literal and init value)
  kAnd,    ///< two-input AND gate
};

/// Reset value of a latch.  AIGER 1.9 allows 0, 1 or X (uninitialized);
/// we model X as a free choice at time 0.
enum class LatchInit : std::uint8_t { kZero = 0, kOne = 1, kUndef = 2 };

/// One AIG node.  For AND nodes `fanin0`/`fanin1` are the two operand
/// literals (fanin0 >= fanin1 canonically).  For latches `fanin0` holds the
/// next-state literal once `set_latch_next` has been called.
struct Node {
  NodeType type = NodeType::kConst;
  Lit fanin0 = kNullLit;
  Lit fanin1 = kNullLit;
  LatchInit init = LatchInit::kZero;  // latches only
};

/// And-Inverter Graph.
///
/// Holds a vector of nodes indexed by variable.  Inputs and latches are
/// registered in creation order and can be enumerated; outputs are property
/// literals ("bad" outputs in AIGER terms).
class Aig {
 public:
  Aig();

  // --- construction -------------------------------------------------------

  /// Create a fresh primary input; returns its positive literal.
  Lit add_input(const std::string& name = {});
  /// Create a fresh latch with the given reset value; returns its positive
  /// literal.  The next-state function must be set later via
  /// set_latch_next().
  Lit add_latch(LatchInit init = LatchInit::kZero, const std::string& name = {});
  /// Define the next-state literal of a latch previously created with
  /// add_latch().  `latch_lit` must be the positive literal of a latch.
  void set_latch_next(Lit latch_lit, Lit next);
  /// Structurally hashed AND node (with constant folding).
  Lit make_and(Lit a, Lit b);
  /// Convenience derived operators built from AND/NOT.
  Lit make_or(Lit a, Lit b) { return lit_not(make_and(lit_not(a), lit_not(b))); }
  Lit make_xor(Lit a, Lit b);
  Lit make_ite(Lit c, Lit t, Lit e);
  Lit make_equiv(Lit a, Lit b) { return lit_not(make_xor(a, b)); }
  /// AND / OR over a vector (balanced reduction).
  Lit make_and_many(const std::vector<Lit>& lits);
  Lit make_or_many(const std::vector<Lit>& lits);

  /// Register an output (safety property is `output is never 1` when the
  /// output encodes "bad").
  std::size_t add_output(Lit l, const std::string& name = {});

  /// Register an invariant constraint (AIGER 1.9 "C" section): only traces
  /// on which every constraint literal is 1 in every frame are considered.
  std::size_t add_constraint(Lit l);
  std::size_t num_constraints() const { return constraints_.size(); }
  Lit constraint(std::size_t i) const { return constraints_[i]; }

  // --- inspection ----------------------------------------------------------

  std::size_t num_vars() const { return nodes_.size(); }
  std::size_t num_inputs() const { return inputs_.size(); }
  std::size_t num_latches() const { return latches_.size(); }
  std::size_t num_ands() const { return num_ands_; }
  std::size_t num_outputs() const { return outputs_.size(); }

  const Node& node(Var v) const { return nodes_[v]; }
  NodeType type(Var v) const { return nodes_[v].type; }
  bool is_and(Var v) const { return nodes_[v].type == NodeType::kAnd; }
  bool is_input(Var v) const { return nodes_[v].type == NodeType::kInput; }
  bool is_latch(Var v) const { return nodes_[v].type == NodeType::kLatch; }

  /// Positive literal of the i-th input / latch (creation order).
  Lit input(std::size_t i) const { return inputs_[i]; }
  Lit latch(std::size_t i) const { return latches_[i]; }
  Lit output(std::size_t i) const { return outputs_[i]; }
  /// Next-state literal of the i-th latch.
  Lit latch_next(std::size_t i) const { return nodes_[lit_var(latches_[i])].fanin0; }
  LatchInit latch_init(std::size_t i) const { return nodes_[lit_var(latches_[i])].init; }
  /// Index of a latch variable in latch enumeration order (latch_index of
  /// latch(i) is i); kNoIndex if not a latch.
  static constexpr std::size_t kNoIndex = std::numeric_limits<std::size_t>::max();
  std::size_t latch_index(Var v) const;
  std::size_t input_index(Var v) const;

  const std::string& name(Var v) const;
  void set_name(Var v, const std::string& n);
  const std::string& output_name(std::size_t i) const { return output_names_[i]; }

  // --- analysis ------------------------------------------------------------

  /// Variables (inputs+latches) in the combinational support of `root`.
  std::vector<Var> support(Lit root) const;
  /// All AND/input/latch variables in the transitive fanin of `roots`,
  /// in topological order (fanins before fanouts).
  std::vector<Var> cone(const std::vector<Lit>& roots) const;
  /// Number of AND nodes in the cone of `root`.
  std::size_t cone_size(Lit root) const;
  /// Per latch, whether it is in the sequential cone of influence of
  /// output `prop` and the constraints: in their combinational cone, or in
  /// that of an earlier such latch's next-state function.  No other latch
  /// can change whether a trace of any length fails `prop`.
  std::vector<bool> latch_coi(std::size_t prop) const;

  /// Evaluate `root` under a full assignment to inputs and latches.
  /// `values[v]` gives the value of variable v (only input/latch entries are
  /// read).  Complexity: O(cone).
  bool evaluate(Lit root, const std::vector<bool>& values) const;

  /// 64-way parallel evaluation: each variable carries a 64-bit pattern.
  std::uint64_t evaluate64(Lit root, const std::vector<std::uint64_t>& values) const;

  /// Copy the cone of `root` in `src` into this AIG, mapping leaf literals
  /// through `leaf_map` (indexed by src variable; entries for inputs and
  /// latches of src must be valid literals of *this*).  Returns the literal
  /// in *this* corresponding to `root`.  Used to import interpolants.
  Lit import_cone(const Aig& src, Lit root, const std::vector<Lit>& leaf_map);

 private:
  Lit new_var(NodeType t);

  std::vector<Node> nodes_;
  std::vector<Lit> inputs_;
  std::vector<Lit> latches_;
  std::vector<Lit> outputs_;
  std::vector<Lit> constraints_;
  std::vector<std::string> output_names_;
  std::unordered_map<std::uint64_t, Lit> strash_;  // (fanin0,fanin1) -> and lit
  std::unordered_map<Var, std::string> names_;
  std::unordered_map<Var, std::size_t> latch_index_;
  std::unordered_map<Var, std::size_t> input_index_;
  std::size_t num_ands_ = 0;
};

}  // namespace itpseq::aig
