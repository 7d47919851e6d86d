#include "sat/proof.hpp"

#include <algorithm>
#include <vector>

namespace itpseq::sat {

const std::vector<ClauseId>& Proof::core(ClauseId final) const {
  if (final == core_final_ && final != kNoClauseId) return core_order_;
  std::vector<ClauseId>& order = core_order_;
  order.clear();
  core_final_ = kNoClauseId;  // set once the walk below completes
  if (final == kNoClauseId) return order;
  // Grown to the log, never cleared: a fresh epoch makes every old mark
  // stale, so a walk costs O(core) plus the log's amortised growth.
  if (stamp_.size() < size()) {
    stamp_.resize(size(), 0);
    position_.resize(size(), 0);
  }
  if (epoch_ >= 0xfffffffdu) {
    std::fill(stamp_.begin(), stamp_.end(), 0u);
    epoch_ = 0;
  }
  epoch_ += 2;
  const std::uint32_t entered = epoch_, emitted = epoch_ + 1;
  auto unseen = [&](ClauseId id) {
    return stamp_[id] != entered && stamp_[id] != emitted;
  };
  // Iterative post-order DFS from the final chain.
  std::vector<ClauseId> stack{final};
  while (!stack.empty()) {
    ClauseId id = stack.back();
    if (stamp_[id] == emitted) {
      stack.pop_back();
      continue;
    }
    if (stamp_[id] == entered) {
      stamp_[id] = emitted;
      position_[id] = static_cast<std::uint32_t>(order.size());
      order.push_back(id);
      stack.pop_back();
      continue;
    }
    stamp_[id] = entered;
    for (ClauseId c : chain(id).chain)
      if (unseen(c)) stack.push_back(c);
  }
  core_final_ = final;
  return order;
}

}  // namespace itpseq::sat
