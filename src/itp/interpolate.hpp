// interpolate.hpp — Craig interpolant and interpolation-sequence extraction
// from resolution refutation proofs.
//
// The input proof partitions original clauses by *label*.  For a cut j the
// A-side is every original clause with label <= j and the B-side the rest.
// Three *labeled interpolation systems* (LIS, D'Silva et al., VMCAI 2010)
// are supported, applied by structural induction over the resolution DAG.
// With Ip/In the partial interpolants of the antecedent containing the
// positive/negative pivot literal:
//
//   McMillan (strongest):
//     * A-leaf clause c:  itp = OR of c's shared literals;
//     * B-leaf clause c:  itp = TRUE;
//     * pivot v A-local:  Ip OR In;  otherwise (shared/B-local): Ip AND In.
//   Pudlak (symmetric):
//     * A-leaf: FALSE;  B-leaf: TRUE;
//     * pivot A-local: Ip OR In;  B-local: Ip AND In;
//       shared: (v OR Ip) AND (NOT v OR In)  — a mux on the pivot.
//   Inverse McMillan (weakest; the dual NOT ITP_M(B, A)):
//     * A-leaf: FALSE;  B-leaf: AND of negated shared literals;
//     * pivot v B-local: Ip AND In;  otherwise (shared/A-local): Ip OR In.
//
// From one proof the three systems produce logically ordered results:
// ITP_McMillan => ITP_Pudlak => ITP_InverseMcMillan.  Every LIS satisfies
// the path-interpolation property (Gurfinkel/Rollini/Sharygina), so any of
// them can back the interpolation *sequences* of the paper (Definition 2).
//
// The resulting circuit is built inside a caller-supplied AIG; shared SAT
// variables are mapped to AIG literals via a leaf callback (typically: the
// SAT variable of model latch i at the cut frame maps to input i of a
// state-set AIG).
//
// extract_sequence() realizes Equation (2) of the paper: all elements
// I_1..I_n-1 of an interpolation sequence from a *single* proof, by varying
// the cut.  This is the "parallel" computation of Section IV-C.
#pragma once

#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "aig/aig.hpp"
#include "sat/proof.hpp"

namespace itpseq::itp {

/// Maps a shared SAT variable to an AIG literal for the current cut.
using LeafFn = std::function<aig::Lit(sat::Var)>;
/// Maps (cut, shared SAT variable) to an AIG literal.
using CutLeafFn = std::function<aig::Lit(std::uint32_t, sat::Var)>;

/// Interpolation system used for extraction (see file comment).  Strength
/// order: kMcMillan => kPudlak => kInverseMcMillan.
enum class System : std::uint8_t { kMcMillan, kPudlak, kInverseMcMillan };

const char* to_string(System s);

class InterpolantExtractor {
 public:
  /// Extract from the refutation that ends in `final` (one refuted query of
  /// a possibly long-lived proof log).  The extractor keeps a reference; the
  /// proof must outlive it.  Construction and every extraction cost
  /// O(core), never O(proof).
  InterpolantExtractor(const sat::Proof& proof, sat::ClauseId final);
  /// The latest refutation (`proof` must be complete).
  explicit InterpolantExtractor(const sat::Proof& proof);

  /// Smallest / largest partition label of an original core clause in which
  /// the variable occurs; occurrence outside the core is ignored (implicit
  /// proof trimming).  Returns false if the variable does not occur at all.
  bool var_range(sat::Var v, std::uint32_t& min_label,
                 std::uint32_t& max_label) const;

  /// True iff v occurs on both sides of cut j.
  bool shared_at(sat::Var v, std::uint32_t cut) const;

  /// Interpolant for cut j built into `out`.  `leaf` must map every
  /// variable shared at cut j; throws std::logic_error otherwise.
  aig::Lit extract(aig::Aig& out, std::uint32_t cut, const LeafFn& leaf,
                   System sys = System::kMcMillan) const;

  /// Interpolants for all cuts in [first, last], one pass per cut over the
  /// proof core.  Element i of the result is the interpolant for cut
  /// first + i.
  std::vector<aig::Lit> extract_sequence(aig::Aig& out, std::uint32_t first,
                                         std::uint32_t last,
                                         const CutLeafFn& leaf,
                                         System sys = System::kMcMillan) const;

 private:
  /// Labels of the core originals a variable occurs in; min == kUnset when
  /// it occurs in none.
  struct Range {
    std::uint32_t min = kUnset;
    std::uint32_t max = 0;
    bool shared_at(std::uint32_t cut) const {
      return min != kUnset && min <= cut && max > cut;
    }
  };
  /// A core original's literal, with its variable's range.
  struct Leaf {
    sat::Lit lit;
    Range range;
  };
  /// One antecedent of a learned core clause's chain: its core position and,
  /// after the first, the pivot it is resolved on.
  struct Step {
    std::uint32_t ante;
    sat::Var pivot;
    Range range;
  };
  static constexpr std::uint32_t kUnset = 0xffffffffu;

  const sat::Proof& proof_;
  std::vector<sat::ClauseId> core_;  // topo order; val/part index it by position
  // Per core position: its Leafs (original) or Steps (learned) are
  // [part_[i].first, part_[i].second) of leaves_ or steps_.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> part_;
  std::vector<Leaf> leaves_;
  std::vector<Step> steps_;
  std::unordered_map<sat::Var, Range> range_;  // every variable of a core original
};

}  // namespace itpseq::itp
