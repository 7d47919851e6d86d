#include "bdd/reach.hpp"

#include <chrono>

namespace itpseq::bdd {

std::vector<unsigned> static_latch_order(const aig::Aig& model,
                                         std::size_t prop) {
  // BFS over latch dependencies starting from the property support: latches
  // read together end up adjacent in the order.
  std::size_t L = model.num_latches();
  std::vector<unsigned> position(L, ~0u);
  unsigned next_pos = 0;
  std::vector<std::size_t> queue;
  auto visit = [&](aig::Lit root) {
    for (aig::Var v : model.support(root)) {
      std::size_t idx = model.latch_index(v);
      if (idx != aig::Aig::kNoIndex && position[idx] == ~0u) {
        position[idx] = next_pos++;
        queue.push_back(idx);
      }
    }
  };
  if (prop < model.num_outputs()) visit(model.output(prop));
  for (std::size_t qi = 0; qi < queue.size(); ++qi)
    visit(model.latch_next(queue[qi]));
  // Latches outside the property cone keep relative order at the end.
  for (std::size_t i = 0; i < L; ++i)
    if (position[i] == ~0u) position[i] = next_pos++;
  return position;
}

SymbolicModel::SymbolicModel(const aig::Aig& model, std::size_t node_limit,
                             std::size_t prop, bool static_order)
    : model_(model),
      mgr_(static_cast<unsigned>(2 * model.num_latches() + model.num_inputs()),
           node_limit) {
  std::size_t L = model.num_latches();
  if (static_order) {
    perm_ = static_latch_order(model, prop);
  } else {
    perm_.resize(L);
    for (std::size_t i = 0; i < L; ++i) perm_[i] = static_cast<unsigned>(i);
  }

  // Rename maps.
  next_to_cur_.resize(mgr_.num_vars());
  cur_to_next_.resize(mgr_.num_vars());
  for (unsigned v = 0; v < mgr_.num_vars(); ++v)
    next_to_cur_[v] = cur_to_next_[v] = v;
  for (std::size_t i = 0; i < L; ++i) {
    next_to_cur_[next_var(i)] = cur_var(i);
    cur_to_next_[cur_var(i)] = next_var(i);
  }

  // Initial states.
  init_ = mgr_.bdd_true();
  for (std::size_t i = 0; i < L; ++i) {
    switch (model.latch_init(i)) {
      case aig::LatchInit::kZero:
        init_ = mgr_.apply_and(init_, mgr_.nvar(cur_var(i)));
        break;
      case aig::LatchInit::kOne:
        init_ = mgr_.apply_and(init_, mgr_.var(cur_var(i)));
        break;
      case aig::LatchInit::kUndef:
        break;  // unconstrained
    }
  }

  // Invariant constraints (AIGER 1.9 "C"): conjoined into every frame.
  for (std::size_t i = 0; i < model.num_constraints(); ++i)
    constraint_ = mgr_.apply_and(constraint_, build(model.constraint(i)));

  // Per-latch transition relation partitions.
  relation_.reserve(L);
  for (std::size_t i = 0; i < L; ++i) {
    BddRef f = build(model.latch_next(i));
    relation_.push_back(mgr_.apply_equiv(mgr_.var(next_var(i)), f));
  }

  // Bad states (quantify inputs out of the raw bad function, under the
  // frame constraint).
  if (model.num_outputs() > prop) {
    const BddRef bad_raw = mgr_.apply_and(build(model.output(prop)), constraint_);
    std::vector<bool> mask(mgr_.num_vars(), false);
    for (std::size_t j = 0; j < model.num_inputs(); ++j) mask[input_var(j)] = true;
    bad_states_ = mgr_.exists(bad_raw, mask);
  }

  // Initial states must admit the constraint for some input.
  if (constraint_ != kBddTrue) {
    std::vector<bool> mask(mgr_.num_vars(), false);
    for (std::size_t j = 0; j < model.num_inputs(); ++j) mask[input_var(j)] = true;
    init_ = mgr_.apply_and(init_, mgr_.exists(constraint_, mask));
  }

  // Early-quantification schedules: last relation partition using each var.
  fwd_last_use_.assign(mgr_.num_vars(), -1);
  bwd_last_use_.assign(mgr_.num_vars(), -1);
  for (std::size_t i = 0; i < L; ++i) {
    std::vector<bool> sup = mgr_.support(relation_[i]);
    for (unsigned v = 0; v < mgr_.num_vars(); ++v)
      if (sup[v]) {
        fwd_last_use_[v] = static_cast<int>(i);
        bwd_last_use_[v] = static_cast<int>(i);
      }
  }
}

BddRef SymbolicModel::build(aig::Lit l) {
  std::vector<aig::Var> order = model_.cone({l});
  std::vector<BddRef> val(model_.num_vars(), kBddFalse);
  for (aig::Var v : order) {
    const aig::Node& n = model_.node(v);
    switch (n.type) {
      case aig::NodeType::kConst:
        break;
      case aig::NodeType::kInput:
        val[v] = mgr_.var(input_var(model_.input_index(v)));
        break;
      case aig::NodeType::kLatch:
        val[v] = mgr_.var(cur_var(model_.latch_index(v)));
        break;
      case aig::NodeType::kAnd: {
        auto fanin = [&](aig::Lit f) {
          BddRef b = aig::lit_var(f) == 0 ? kBddFalse : val[aig::lit_var(f)];
          return aig::lit_sign(f) ? mgr_.apply_not(b) : b;
        };
        val[v] = mgr_.apply_and(fanin(n.fanin0), fanin(n.fanin1));
        break;
      }
    }
  }
  aig::Var rv = aig::lit_var(l);
  BddRef base = rv == 0 ? kBddFalse : val[rv];
  return aig::lit_sign(l) ? mgr_.apply_not(base) : base;
}

BddRef SymbolicModel::image(BddRef states) {
  // Conjoin relation partitions over (cur, in, next), quantifying cur and
  // input variables as soon as no later partition mentions them.  The
  // invariant constraint joins the frame formula up front.
  BddRef acc = mgr_.apply_and(states, constraint_);
  std::vector<bool> mask(mgr_.num_vars(), false);
  // Vars used by no relation at all can be quantified immediately.
  bool any = false;
  for (std::size_t i = 0; i < model_.num_latches(); ++i) {
    unsigned cv = cur_var(i);
    if (fwd_last_use_[cv] < 0) {
      mask[cv] = true;
      any = true;
    }
  }
  for (std::size_t j = 0; j < model_.num_inputs(); ++j) {
    unsigned iv = input_var(j);
    if (fwd_last_use_[iv] < 0) {
      mask[iv] = true;
      any = true;
    }
  }
  if (any) acc = mgr_.exists(acc, mask);

  for (std::size_t i = 0; i < relation_.size(); ++i) {
    std::fill(mask.begin(), mask.end(), false);
    bool quantify = false;
    for (std::size_t k = 0; k < model_.num_latches(); ++k) {
      unsigned cv = cur_var(k);
      if (fwd_last_use_[cv] == static_cast<int>(i)) {
        mask[cv] = true;
        quantify = true;
      }
    }
    for (std::size_t j = 0; j < model_.num_inputs(); ++j) {
      unsigned iv = input_var(j);
      if (fwd_last_use_[iv] == static_cast<int>(i)) {
        mask[iv] = true;
        quantify = true;
      }
    }
    acc = quantify ? mgr_.and_exists(acc, relation_[i], mask)
                   : mgr_.apply_and(acc, relation_[i]);
  }
  return mgr_.rename(acc, next_to_cur_);
}

BddRef SymbolicModel::preimage(BddRef states) {
  BddRef acc =
      mgr_.apply_and(mgr_.rename(states, cur_to_next_), constraint_);
  std::vector<bool> mask(mgr_.num_vars(), false);
  for (std::size_t i = 0; i < relation_.size(); ++i) {
    std::fill(mask.begin(), mask.end(), false);
    bool quantify = false;
    // Quantify next-state and input vars at their last use.
    for (std::size_t k = 0; k < model_.num_latches(); ++k) {
      unsigned nv = next_var(k);
      if (bwd_last_use_[nv] == static_cast<int>(i)) {
        mask[nv] = true;
        quantify = true;
      }
    }
    for (std::size_t j = 0; j < model_.num_inputs(); ++j) {
      unsigned iv = input_var(j);
      if (bwd_last_use_[iv] == static_cast<int>(i)) {
        mask[iv] = true;
        quantify = true;
      }
    }
    acc = quantify ? mgr_.and_exists(acc, relation_[i], mask)
                   : mgr_.apply_and(acc, relation_[i]);
  }
  // Next vars with no relation use (states whose latch is ignored) and
  // leftover input vars have already been handled; quantify any stragglers.
  std::fill(mask.begin(), mask.end(), false);
  bool any = false;
  std::vector<bool> sup = mgr_.support(acc);
  for (std::size_t k = 0; k < model_.num_latches(); ++k)
    if (sup[next_var(k)]) {
      mask[next_var(k)] = true;
      any = true;
    }
  for (std::size_t j = 0; j < model_.num_inputs(); ++j)
    if (sup[input_var(j)]) {
      mask[input_var(j)] = true;
      any = true;
    }
  if (any) acc = mgr_.exists(acc, mask);
  return acc;
}

namespace {

using Clock = std::chrono::steady_clock;

double elapsed(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

ReachResult traverse(SymbolicModel& m, BddRef start, BddRef target, bool forward,
                     const ReachBudget& budget) {
  ReachResult res;
  auto t0 = Clock::now();
  BddManager& mgr = m.mgr();
  try {
    BddRef reached = start;
    BddRef frontier = start;
    unsigned depth = 0;
    if (mgr.apply_and(start, target) != kBddFalse) {
      res.verdict = ReachVerdict::kFail;
      res.depth = 0;
      res.seconds = elapsed(t0);
      res.peak_nodes = mgr.num_nodes();
      return res;
    }
    while (true) {
      if (elapsed(t0) > budget.seconds || depth >= budget.max_steps) {
        res.verdict = ReachVerdict::kOverflow;
        res.seconds = elapsed(t0);
        res.peak_nodes = mgr.num_nodes();
        return res;
      }
      BddRef next = forward ? m.image(frontier) : m.preimage(frontier);
      ++depth;
      // New states only.
      BddRef fresh = mgr.apply_and(next, mgr.apply_not(reached));
      if (fresh == kBddFalse) {
        res.verdict = ReachVerdict::kPass;
        res.depth = depth;
        res.diameter = depth - 1;  // deepest layer that contained new states
        break;
      }
      if (mgr.apply_and(fresh, target) != kBddFalse) {
        res.verdict = ReachVerdict::kFail;
        res.depth = depth;
        break;
      }
      reached = mgr.apply_or(reached, fresh);
      frontier = fresh;
    }
  } catch (const BddOverflow&) {
    res.verdict = ReachVerdict::kOverflow;
  }
  res.seconds = elapsed(t0);
  res.peak_nodes = mgr.num_nodes();
  return res;
}

}  // namespace

ReachResult forward_reach(SymbolicModel& m, const ReachBudget& budget) {
  return traverse(m, m.init(), m.bad_states(), /*forward=*/true, budget);
}

ReachResult backward_reach(SymbolicModel& m, const ReachBudget& budget) {
  return traverse(m, m.bad_states(), m.init(), /*forward=*/false, budget);
}

ReachResult forward_diameter(SymbolicModel& m, const ReachBudget& budget) {
  return traverse(m, m.init(), kBddFalse, /*forward=*/true, budget);
}

ReachResult backward_diameter(SymbolicModel& m, const ReachBudget& budget) {
  return traverse(m, m.bad_states(), kBddFalse, /*forward=*/false, budget);
}

ReachResult bdd_check(const aig::Aig& model, std::size_t prop,
                      const ReachBudget& budget) {
  try {
    SymbolicModel m(model, budget.node_limit, prop);
    return forward_reach(m, budget);
  } catch (const BddOverflow&) {
    ReachResult res;
    res.verdict = ReachVerdict::kOverflow;
    return res;
  }
}

}  // namespace itpseq::bdd
