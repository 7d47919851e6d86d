#include "bench_circuits/generators.hpp"

#include <cassert>
#include <stdexcept>

#include "mc/sim.hpp"

namespace itpseq::bench {

using aig::Aig;
using aig::Lit;

Lit equals_const(Aig& g, const std::vector<Lit>& bits, std::uint64_t value) {
  std::vector<Lit> conj;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    bool bit = (value >> i) & 1;
    conj.push_back(bit ? bits[i] : aig::lit_not(bits[i]));
  }
  return g.make_and_many(conj);
}

std::vector<Lit> increment(Aig& g, const std::vector<Lit>& bits) {
  std::vector<Lit> out(bits.size());
  Lit carry = aig::kTrue;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    out[i] = g.make_xor(bits[i], carry);
    carry = g.make_and(bits[i], carry);
  }
  return out;
}

std::vector<Lit> mux(Aig& g, Lit sel, const std::vector<Lit>& then_v,
                     const std::vector<Lit>& else_v) {
  assert(then_v.size() == else_v.size());
  std::vector<Lit> out(then_v.size());
  for (std::size_t i = 0; i < then_v.size(); ++i)
    out[i] = g.make_ite(sel, then_v[i], else_v[i]);
  return out;
}

Lit at_least_two(Aig& g, const std::vector<Lit>& lits) {
  std::vector<Lit> pairs;
  for (std::size_t i = 0; i < lits.size(); ++i)
    for (std::size_t j = i + 1; j < lits.size(); ++j)
      pairs.push_back(g.make_and(lits[i], lits[j]));
  return g.make_or_many(pairs);
}

namespace {

/// Deterministic xorshift PRNG so generated circuits are reproducible.
struct Rng {
  std::uint32_t state;
  explicit Rng(std::uint32_t seed) : state(seed ? seed : 0xdeadbeefu) {}
  std::uint32_t next() {
    state ^= state << 13;
    state ^= state >> 17;
    state ^= state << 5;
    return state;
  }
  std::uint32_t below(std::uint32_t n) { return next() % n; }
};

/// `prefix` followed by the decimal `n`.  Built by appending: GCC 12 at -O3
/// reports a spurious -Wrestrict on `"p" + std::to_string(n)`.
std::string numbered(const char* prefix, std::uint64_t n) {
  std::string s(prefix);
  s += std::to_string(n);
  return s;
}

std::vector<Lit> make_latches(Aig& g, unsigned n, const char* prefix) {
  std::vector<Lit> ls;
  for (unsigned i = 0; i < n; ++i)
    ls.push_back(g.add_latch(aig::LatchInit::kZero, numbered(prefix, i)));
  return ls;
}

}  // namespace

Aig counter(unsigned width, std::uint64_t modulo, std::uint64_t bad_value,
            bool with_enable) {
  if (modulo == 0 || width == 0 || width > 63)
    throw std::invalid_argument("counter: bad parameters");
  Aig g;
  Lit enable = with_enable ? g.add_input("enable") : aig::kTrue;
  std::vector<Lit> bits = make_latches(g, width, "cnt");
  Lit at_wrap = equals_const(g, bits, modulo - 1);
  std::vector<Lit> inc = increment(g, bits);
  // next = enable ? (at_wrap ? 0 : bits+1) : bits
  std::vector<Lit> zero(width, aig::kFalse);
  std::vector<Lit> advanced = mux(g, at_wrap, zero, inc);
  std::vector<Lit> nxt = with_enable ? mux(g, enable, advanced, bits) : advanced;
  for (unsigned i = 0; i < width; ++i) g.set_latch_next(bits[i], nxt[i]);
  g.add_output(equals_const(g, bits, bad_value), "bad");
  return g;
}

Aig token_ring(unsigned n, bool fail_reach) {
  if (n < 2) throw std::invalid_argument("token_ring: n >= 2");
  Aig g;
  std::vector<Lit> s;
  s.push_back(g.add_latch(aig::LatchInit::kOne, "tok0"));
  for (unsigned i = 1; i < n; ++i)
    s.push_back(g.add_latch(aig::LatchInit::kZero, numbered("tok", i)));
  for (unsigned i = 0; i < n; ++i)
    g.set_latch_next(s[i], s[(i + n - 1) % n]);  // token rotates forward
  if (fail_reach)
    g.add_output(s[n - 1], "bad_reach_last");
  else
    g.add_output(at_least_two(g, s), "bad_two_tokens");
  return g;
}

Aig arbiter(unsigned n, bool broken) {
  if (n < 2) throw std::invalid_argument("arbiter: n >= 2");
  Aig g;
  std::vector<Lit> req;
  for (unsigned i = 0; i < n; ++i) req.push_back(g.add_input(numbered("req", i)));
  std::vector<Lit> ptr;
  ptr.push_back(g.add_latch(aig::LatchInit::kOne, "ptr0"));
  for (unsigned i = 1; i < n; ++i)
    ptr.push_back(g.add_latch(aig::LatchInit::kZero, numbered("ptr", i)));
  for (unsigned i = 0; i < n; ++i)
    g.set_latch_next(ptr[i], ptr[(i + n - 1) % n]);
  std::vector<Lit> grant(n);
  for (unsigned i = 0; i < n; ++i) grant[i] = g.make_and(ptr[i], req[i]);
  if (broken) grant[0] = req[0];  // station 0 bypasses the pointer
  g.add_output(at_least_two(g, grant), "bad_two_grants");
  return g;
}

Aig queue(unsigned capacity, bool guarded) {
  unsigned width = 1;
  while ((1ull << width) < static_cast<std::uint64_t>(capacity) + 2) ++width;
  Aig g;
  Lit push = g.add_input("push");
  Lit pop = g.add_input("pop");
  std::vector<Lit> cnt = make_latches(g, width, "occ");
  Lit full = equals_const(g, cnt, capacity);
  Lit empty = equals_const(g, cnt, 0);
  Lit max_val = equals_const(g, cnt, (1ull << width) - 1);
  Lit eff_push =
      guarded ? g.make_and(push, aig::lit_not(full)) : g.make_and(push, aig::lit_not(max_val));
  Lit eff_pop = g.make_and(pop, aig::lit_not(empty));
  // Only one of push/pop per cycle; pushes win ties.
  Lit do_push = eff_push;
  Lit do_pop = g.make_and(eff_pop, aig::lit_not(eff_push));
  std::vector<Lit> inc = increment(g, cnt);
  // decrement: cnt - 1 = invert(increment(invert(cnt))) — build directly:
  std::vector<Lit> dec(width);
  {
    Lit borrow = aig::kTrue;
    for (unsigned i = 0; i < width; ++i) {
      dec[i] = g.make_xor(cnt[i], borrow);
      borrow = g.make_and(aig::lit_not(cnt[i]), borrow);
    }
  }
  std::vector<Lit> nxt = mux(g, do_push, inc, mux(g, do_pop, dec, cnt));
  for (unsigned i = 0; i < width; ++i) g.set_latch_next(cnt[i], nxt[i]);
  g.add_output(equals_const(g, cnt, capacity + 1), "bad_overflow");
  return g;
}

Aig traffic_light(unsigned m) {
  if (m < 1) throw std::invalid_argument("traffic_light: m >= 1");
  unsigned width = 1;
  while ((1ull << width) < m) ++width;
  Aig g;
  // Phase: 0 = NS green, 1 = NS yellow, 2 = EW green, 3 = EW yellow.
  std::vector<Lit> phase = make_latches(g, 2, "phase");
  std::vector<Lit> timer = make_latches(g, width, "timer");
  Lit expired = equals_const(g, timer, m - 1);
  std::vector<Lit> t_inc = increment(g, timer);
  std::vector<Lit> t_zero(width, aig::kFalse);
  std::vector<Lit> t_nxt = mux(g, expired, t_zero, t_inc);
  for (unsigned i = 0; i < width; ++i) g.set_latch_next(timer[i], t_nxt[i]);
  std::vector<Lit> p_inc = increment(g, phase);
  std::vector<Lit> p_nxt = mux(g, expired, p_inc, phase);
  for (unsigned i = 0; i < 2; ++i) g.set_latch_next(phase[i], p_nxt[i]);
  // Registered green indicators.
  Lit is_ns_green = equals_const(g, p_nxt, 0);
  Lit is_ew_green = equals_const(g, p_nxt, 2);
  Lit g_ns = g.add_latch(aig::LatchInit::kOne, "green_ns");
  Lit g_ew = g.add_latch(aig::LatchInit::kZero, "green_ew");
  g.set_latch_next(g_ns, is_ns_green);
  g.set_latch_next(g_ew, is_ew_green);
  g.add_output(g.make_and(g_ns, g_ew), "bad_both_green");
  return g;
}

Aig gray_counter(unsigned width) {
  if (width < 2) throw std::invalid_argument("gray_counter: width >= 2");
  Aig g;
  std::vector<Lit> bits = make_latches(g, width, "bin");
  std::vector<Lit> nxt = increment(g, bits);
  for (unsigned i = 0; i < width; ++i) g.set_latch_next(bits[i], nxt[i]);
  // Registered Gray view of the binary counter.
  std::vector<Lit> gray = make_latches(g, width, "gray");
  auto to_gray = [&](const std::vector<Lit>& b) {
    std::vector<Lit> out(width);
    for (unsigned i = 0; i + 1 < width; ++i) out[i] = g.make_xor(b[i], b[i + 1]);
    out[width - 1] = b[width - 1];
    return out;
  };
  std::vector<Lit> gray_next = to_gray(nxt);
  for (unsigned i = 0; i < width; ++i) g.set_latch_next(gray[i], gray_next[i]);
  // bad = the registered Gray word will change in >= 2 bit positions.
  std::vector<Lit> diff(width);
  for (unsigned i = 0; i < width; ++i) diff[i] = g.make_xor(gray[i], gray_next[i]);
  g.add_output(at_least_two(g, diff), "bad_multi_bit_change");
  return g;
}

Aig lfsr(unsigned width, std::uint64_t fail_value) {
  if (width < 3 || width > 24) throw std::invalid_argument("lfsr: width 3..24");
  Aig g;
  std::vector<Lit> s;
  s.push_back(g.add_latch(aig::LatchInit::kOne, "lfsr0"));
  for (unsigned i = 1; i < width; ++i)
    s.push_back(g.add_latch(aig::LatchInit::kZero, numbered("lfsr", i)));
  Lit feedback = g.make_xor(s[width - 1], s[width - 2]);
  if (width >= 6) feedback = g.make_xor(feedback, s[0]);
  g.set_latch_next(s[0], feedback);
  for (unsigned i = 1; i < width; ++i) g.set_latch_next(s[i], s[i - 1]);
  g.add_output(equals_const(g, s, fail_value), "bad_value");
  return g;
}

Aig feistel_mixer(unsigned width, unsigned m, std::uint32_t seed) {
  if (width < 2) throw std::invalid_argument("feistel_mixer: width >= 2");
  Aig g;
  Rng rng(seed);
  Lit key = g.add_input("key");
  std::vector<Lit> left = make_latches(g, width, "L");
  std::vector<Lit> right = make_latches(g, width, "R");
  // F: a small random AND/XOR cloud of R and the key bit.
  std::vector<Lit> pool = right;
  pool.push_back(key);
  for (unsigned r = 0; r < 2 * width; ++r) {
    Lit a = pool[rng.below(static_cast<std::uint32_t>(pool.size()))];
    Lit b = pool[rng.below(static_cast<std::uint32_t>(pool.size()))];
    pool.push_back(rng.below(2) ? g.make_xor(a, b)
                                : g.make_and(aig::lit_xor(a, rng.below(2)), b));
  }
  std::vector<Lit> f(width);
  for (unsigned i = 0; i < width; ++i)
    f[i] = pool[pool.size() - 1 - (i % (2 * width))];
  for (unsigned i = 0; i < width; ++i) {
    g.set_latch_next(left[i], right[i]);
    g.set_latch_next(right[i], g.make_xor(left[i], f[i]));
  }
  // Guarded property: a modulo-m round counter; bad = count == m.
  unsigned cw = 1;
  while ((1ull << cw) < m + 1) ++cw;
  std::vector<Lit> cnt = make_latches(g, cw, "round");
  Lit wrap = equals_const(g, cnt, m - 1);
  std::vector<Lit> zero(cw, aig::kFalse);
  std::vector<Lit> nxt = mux(g, wrap, zero, increment(g, cnt));
  for (unsigned i = 0; i < cw; ++i) g.set_latch_next(cnt[i], nxt[i]);
  // The mixer feeds the bad cone so abstraction has something to prune:
  // bad = (count == m) AND (mixer parity or true) — keep it PASS by the
  // counter guard alone.
  Lit parity = aig::kTrue;
  for (unsigned i = 0; i < width; ++i) parity = g.make_xor(parity, right[i]);
  g.add_output(g.make_and(equals_const(g, cnt, m), g.make_or(parity, left[0])),
               "bad_round_overflow");
  return g;
}

Aig industrial(unsigned width, unsigned stages, unsigned variant,
               unsigned param, std::uint32_t seed) {
  if (width < 4 || stages < 1)
    throw std::invalid_argument("industrial: width >= 4, stages >= 1");
  Aig g;
  Rng rng(seed);
  std::vector<Lit> ins;
  for (unsigned i = 0; i < width / 2; ++i)
    ins.push_back(g.add_input(numbered("pi", i)));

  // Pipeline substrate: stages x width registers with random clouds.
  std::vector<Lit> prev = ins;
  std::vector<std::vector<Lit>> regs(stages);
  for (unsigned st = 0; st < stages; ++st) {
    regs[st] = make_latches(g, width, (numbered("p", st) + "_").c_str());
    // Random cloud from prev + this stage's registers.
    std::vector<Lit> pool = prev;
    for (Lit l : regs[st]) pool.push_back(l);
    for (unsigned r = 0; r < 2 * width; ++r) {
      Lit a = pool[rng.below(static_cast<std::uint32_t>(pool.size()))];
      Lit b = pool[rng.below(static_cast<std::uint32_t>(pool.size()))];
      switch (rng.below(3)) {
        case 0:
          pool.push_back(g.make_and(a, b));
          break;
        case 1:
          pool.push_back(g.make_xor(a, b));
          break;
        default:
          pool.push_back(g.make_or(aig::lit_xor(a, rng.below(2)), b));
          break;
      }
    }
    for (unsigned i = 0; i < width; ++i)
      g.set_latch_next(regs[st][i],
                       pool[pool.size() - 1 - rng.below(2 * width)]);
    prev = regs[st];
  }

  if (variant == 0) {
    // PASS overlay: guarded modulo counter, enable tapped from the cloud.
    unsigned m = param == 0 ? 8 : param;
    unsigned cw = 1;
    while ((1ull << cw) < static_cast<std::uint64_t>(m) + 1) ++cw;
    std::vector<Lit> cnt = make_latches(g, cw, "ov_cnt");
    Lit enable = g.make_or(prev[0], ins[0]);
    Lit wrap = equals_const(g, cnt, m - 1);
    std::vector<Lit> zero(cw, aig::kFalse);
    std::vector<Lit> advanced = mux(g, wrap, zero, increment(g, cnt));
    std::vector<Lit> nxt = mux(g, enable, advanced, cnt);
    for (unsigned i = 0; i < cw; ++i) g.set_latch_next(cnt[i], nxt[i]);
    g.add_output(g.make_and(equals_const(g, cnt, m), g.make_or(prev[1], ins[0])),
                 "bad_guarded_counter");
  } else {
    // FAIL overlay: a match chain of `param` registers advanced by an input
    // pattern; bad at exactly depth `param`.
    unsigned d = param == 0 ? 4 : param;
    Lit pattern = g.make_and(ins[0], ins.size() > 1 ? ins[1] : aig::kTrue);
    Lit prev_m = aig::kTrue;
    for (unsigned i = 0; i < d; ++i) {
      Lit mreg = g.add_latch(aig::LatchInit::kZero, numbered("match", i));
      g.set_latch_next(mreg, g.make_and(prev_m, pattern));
      prev_m = mreg;
    }
    g.add_output(prev_m, "bad_match_chain");
  }
  return g;
}

Aig combination_lock(unsigned length, unsigned bits, std::uint32_t seed,
                     bool unopenable) {
  if (length < 1 || bits < 1 || bits > 8)
    throw std::invalid_argument("combination_lock: length >= 1, bits 1..8");
  Aig g;
  Rng rng(seed);
  std::vector<Lit> in;
  for (unsigned b = 0; b < bits; ++b) in.push_back(g.add_input(numbered("key", b)));
  // One-hot stage registers s_0..s_length (s_length = open).
  std::vector<Lit> stage;
  stage.push_back(g.add_latch(aig::LatchInit::kOne, "s0"));
  for (unsigned i = 1; i <= length; ++i)
    stage.push_back(g.add_latch(aig::LatchInit::kZero, numbered("s", i)));
  // Per-stage key match.
  std::vector<Lit> match(length);
  for (unsigned i = 0; i < length; ++i) {
    std::uint32_t key = rng.next() & ((1u << bits) - 1);
    std::vector<Lit> conj;
    for (unsigned b = 0; b < bits; ++b)
      conj.push_back((key >> b) & 1 ? in[b] : aig::lit_not(in[b]));
    if (unopenable && i == length / 2) {
      conj.push_back(in[0]);
      conj.push_back(aig::lit_not(in[0]));  // contradictory stage
    }
    match[i] = g.make_and_many(conj);
  }
  // stage 0 next: restart when any active stage mismatches, or stay closed.
  std::vector<Lit> mismatches;
  for (unsigned i = 0; i < length; ++i)
    mismatches.push_back(g.make_and(stage[i], aig::lit_not(match[i])));
  Lit restart = g.make_or_many(mismatches);
  g.set_latch_next(stage[0], g.make_or(restart, g.make_and(stage[0], aig::lit_not(match[0]))));
  for (unsigned i = 1; i <= length; ++i) {
    Lit advance = g.make_and(stage[i - 1], match[i - 1]);
    Lit hold = i == length ? g.make_and(stage[i], aig::kTrue)  // open is sticky
                           : aig::kFalse;
    g.set_latch_next(stage[i], g.make_or(advance, hold));
  }
  g.add_output(stage[length], "bad_open");
  return g;
}

Aig vending(unsigned max_credit, unsigned price, bool guarded) {
  if (price == 0 || max_credit < price)
    throw std::invalid_argument("vending: price >= 1, max_credit >= price");
  unsigned width = 1;
  while ((1ull << width) < static_cast<std::uint64_t>(max_credit) + 2) ++width;
  Aig g;
  Lit coin = g.add_input("coin");
  Lit vend = g.add_input("vend");
  std::vector<Lit> credit = make_latches(g, width, "credit");
  Lit at_max = equals_const(g, credit, max_credit);
  Lit sat_max = equals_const(g, credit, (1ull << width) - 1);
  // can_vend: credit >= price, approximated exactly via comparator.
  Lit ge_price = aig::kFalse;
  {
    // credit >= price: ripple compare from MSB.
    Lit gt = aig::kFalse, eq = aig::kTrue;
    for (int i = static_cast<int>(width) - 1; i >= 0; --i) {
      bool pbit = (price >> i) & 1;
      Lit cbit = credit[i];
      gt = g.make_or(gt, g.make_and(eq, g.make_and(cbit, pbit ? aig::kFalse : aig::kTrue)));
      eq = g.make_and(eq, pbit ? cbit : aig::lit_not(cbit));
    }
    ge_price = g.make_or(gt, eq);
  }
  Lit do_coin = guarded ? g.make_and(coin, aig::lit_not(at_max))
                        : g.make_and(coin, aig::lit_not(sat_max));
  Lit do_vend = g.make_and(g.make_and(vend, ge_price), aig::lit_not(do_coin));
  std::vector<Lit> inc = increment(g, credit);
  // credit - price.
  std::vector<Lit> dec(width);
  {
    Lit borrow = aig::kFalse;
    for (unsigned i = 0; i < width; ++i) {
      bool pbit = (price >> i) & 1;
      Lit p = pbit ? aig::kTrue : aig::kFalse;
      Lit diff = g.make_xor(g.make_xor(credit[i], p), borrow);
      Lit b1 = g.make_and(aig::lit_not(credit[i]), g.make_or(p, borrow));
      Lit b2 = g.make_and(p, borrow);
      borrow = g.make_or(b1, b2);
      dec[i] = diff;
    }
  }
  std::vector<Lit> nxt = mux(g, do_coin, inc, mux(g, do_vend, dec, credit));
  for (unsigned i = 0; i < width; ++i) g.set_latch_next(credit[i], nxt[i]);
  g.add_output(equals_const(g, credit, max_credit + 1), "bad_over_credit");
  return g;
}

Aig sticky_detector(unsigned m, bool resettable) {
  if (m < 1) throw std::invalid_argument("sticky_detector: m >= 1");
  Aig g;
  Lit a = g.add_input("a");
  Lit b = g.add_input("b");
  Lit clr = resettable ? g.add_input("clr") : aig::kFalse;
  Lit pattern = g.make_and(a, b);
  Lit chain = aig::kTrue;
  for (unsigned i = 0; i < m; ++i) {
    Lit reg = g.add_latch(aig::LatchInit::kZero, numbered("st", i));
    Lit advance = g.make_and(chain, pattern);
    g.set_latch_next(reg, g.make_and(advance, aig::lit_not(clr)));
    chain = reg;
  }
  Lit bad = g.add_latch(aig::LatchInit::kZero, "sticky_bad");
  g.set_latch_next(bad, g.make_or(bad, chain));
  g.add_output(g.make_or(bad, chain), "bad_pattern_held");
  return g;
}

int first_bad_depth(const Aig& g, unsigned max_steps) {
  mc::Simulator sim(g, 0);
  std::vector<bool> state = sim.reset_state();
  std::vector<bool> no_inputs(g.num_inputs(), false);
  for (unsigned t = 0; t <= max_steps; ++t) {
    if (sim.bad(state, no_inputs)) return static_cast<int>(t);
    state = sim.step(state, no_inputs);
  }
  return -1;
}

}  // namespace itpseq::bench
