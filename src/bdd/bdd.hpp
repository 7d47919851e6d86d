// bdd.hpp — a reduced ordered BDD (ROBDD) package.
//
// Classic unique-table / computed-table design (Brace-Rudell-Bryant) without
// complement edges: nodes are immutable triples (level, low, high), hashing
// guarantees canonicity, and all operators are implemented over ite().
// Supports existential quantification and the relational-product operator
// and_exists() used for symbolic image computation.
//
// The package is used by the reachability engine (bdd/reach.hpp) to compute
// the exact forward/backward circuit diameters the paper reports in the
// "BDDs" columns of Table I, and as an independent ground-truth model
// checker for the test suite.
//
// No garbage collection: all nodes live until the manager dies.  This is a
// deliberate simplification — managers are created per-query and the
// circuits we run BDD analysis on are small (the paper's large instances
// overflow BDD engines anyway, which Table I reports as "ovf").
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace itpseq::bdd {

/// Reference to a BDD node (index into the manager's node table).
using BddRef = std::uint32_t;

inline constexpr BddRef kBddFalse = 0;
inline constexpr BddRef kBddTrue = 1;

class BddManager {
 public:
  /// `num_vars` fixes the variable universe (order = index order).
  /// `node_limit` bounds the table; exceeding it throws BddOverflow.
  explicit BddManager(unsigned num_vars, std::size_t node_limit = 20'000'000);

  unsigned num_vars() const { return num_vars_; }
  std::size_t num_nodes() const { return nodes_.size(); }

  BddRef bdd_false() const { return kBddFalse; }
  BddRef bdd_true() const { return kBddTrue; }
  /// Projection function of variable v (and its complement).
  BddRef var(unsigned v);
  BddRef nvar(unsigned v);

  BddRef apply_not(BddRef f) { return ite(f, kBddFalse, kBddTrue); }
  BddRef apply_and(BddRef f, BddRef g) { return ite(f, g, kBddFalse); }
  BddRef apply_or(BddRef f, BddRef g) { return ite(f, kBddTrue, g); }
  BddRef apply_xor(BddRef f, BddRef g) { return ite(f, apply_not(g), g); }
  BddRef apply_equiv(BddRef f, BddRef g) { return ite(f, g, apply_not(g)); }
  BddRef ite(BddRef f, BddRef g, BddRef h);

  /// Existentially quantify the variables flagged in `mask` (size num_vars).
  BddRef exists(BddRef f, const std::vector<bool>& mask);
  /// exists mask . (f ∧ g), computed without building f∧g in full.
  BddRef and_exists(BddRef f, BddRef g, const std::vector<bool>& mask);
  /// Rename variables: var v becomes map[v].  The map must be monotone on
  /// the support of f (order-preserving), which holds for the interleaved
  /// current/next encodings used by the reachability engine.
  BddRef rename(BddRef f, const std::vector<unsigned>& map);

  bool is_const(BddRef f) const { return f <= 1; }

  /// Number of internal nodes reachable from f (DAG size).
  std::size_t size(BddRef f) const;
  /// Evaluate under a full variable assignment.
  bool eval(BddRef f, const std::vector<bool>& values) const;
  /// Number of satisfying assignments over all num_vars variables.
  double sat_count(BddRef f) const;
  /// Support of f as a mask.
  std::vector<bool> support(BddRef f) const;
  /// One satisfying assignment (any); f must not be false.
  std::vector<bool> any_sat(BddRef f) const;

 private:
  struct BddNode {
    unsigned level;  // kTermLevel for terminals
    BddRef low, high;
  };
  static constexpr unsigned kTermLevel = std::numeric_limits<unsigned>::max();

  BddRef mk(unsigned level, BddRef low, BddRef high);
  unsigned top_level(BddRef f, BddRef g, BddRef h) const;
  BddRef cofactor(BddRef f, unsigned level, bool positive) const;

  struct Key3 {
    std::uint32_t a, b, c;
    bool operator==(const Key3&) const = default;
  };
  struct Key3Hash {
    std::size_t operator()(const Key3& k) const {
      std::uint64_t x = (static_cast<std::uint64_t>(k.a) << 32) ^
                        (static_cast<std::uint64_t>(k.b) << 16) ^ k.c;
      x *= 0x9e3779b97f4a7c15ull;
      x ^= x >> 32;
      return static_cast<std::size_t>(x);
    }
  };

  unsigned num_vars_;
  std::size_t node_limit_;
  std::vector<BddNode> nodes_;
  std::unordered_map<Key3, BddRef, Key3Hash> unique_;
  // Computed tables.  The ite cache persists; the quantification/rename
  // caches are valid only for one mask/map and are cleared per public call.
  std::unordered_map<Key3, BddRef, Key3Hash> ite_cache_;
  std::unordered_map<std::uint32_t, BddRef> exists_cache_;
  std::unordered_map<std::uint64_t, BddRef> andex_cache_;
  std::unordered_map<std::uint32_t, BddRef> rename_cache_;
  const std::vector<bool>* cur_mask_ = nullptr;
  const std::vector<unsigned>* cur_map_ = nullptr;

  BddRef ite_rec(BddRef f, BddRef g, BddRef h);
  BddRef exists_rec(BddRef f);
  BddRef and_exists_rec(BddRef f, BddRef g);
  BddRef rename_rec(BddRef f);
};

/// Thrown when the node limit is exceeded ("ovf" in Table I terms).
class BddOverflow : public std::runtime_error {
 public:
  BddOverflow() : std::runtime_error("BDD node limit exceeded") {}
};

}  // namespace itpseq::bdd
