// lint-fixture-path: examples/lint_fixture_l5_parse.cpp
//
// L5 seeded violations: the C string-to-number calls that cannot report a
// parse failure, qualified or not.  The negatives are member calls that
// merely share their names and the std::from_chars replacement.

#include <charconv>
#include <cstdlib>
#include <cstring>

namespace itpseq {

double budget(char** argv) {
  double a = std::atof(argv[1]);            // lint-expect: L5
  int b = atoi(argv[2]);                    // lint-expect: L5
  long c = std::atol(argv[3]);              // lint-expect: L5
  long long d = atoll(argv[4]);             // lint-expect: L5
  return a + b + static_cast<double>(c + d);
}

// ---- negatives ------------------------------------------------------------

template <class Parser>
int member_atoi_is_clean(Parser& p, const char* s) {
  return p.atoi(s);
}

unsigned from_chars_is_clean(const char* s) {
  unsigned v = 0;
  std::from_chars(s, s + std::strlen(s), v);
  return v;
}

}  // namespace itpseq
