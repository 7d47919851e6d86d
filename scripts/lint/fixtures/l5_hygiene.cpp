// lint-fixture-path: src/sat/lint_fixture_l5.cpp
//
// L5 seeded violations: nondeterminism sources (rand/srand/time), iostream
// in the SAT hot path, a parent-relative include, and environment reads
// outside the documented entry points.  The negatives are member calls that
// merely *share* the banned names.

#include <iostream>          // lint-expect: L5
#include "../mc/engine.hpp"  // lint-expect: L5
#include <vector>

namespace itpseq::sat {

int entropy() {
  int a = rand();                 // lint-expect: L5
  srand(7u);                      // lint-expect: L5
  long t = time(nullptr);         // lint-expect: L5
  return a + static_cast<int>(t);
}

bool debug_switch() {
  if (std::getenv("ITPSEQ_DEBUG_KNOB")) return true;  // lint-expect: L5
  return getenv("OTHER_KNOB") != nullptr;             // lint-expect: L5
}

void print_state(int n) {
  std::cout << n;  // lint-expect: L5
  std::cerr << n;  // lint-expect: L5
}

// ---- negatives ------------------------------------------------------------

template <class Rng>
int member_rand_is_clean(Rng& gen) {
  return static_cast<int>(gen.rand());
}

template <class Clock>
long member_time_is_clean(Clock& clk) {
  return clk.time(nullptr);
}

template <class Env>
const char* member_getenv_is_clean(Env& env) {
  return env.getenv("ITPSEQ_DEBUG_KNOB");
}

}  // namespace itpseq::sat
