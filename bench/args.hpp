// args.hpp — strict numeric arguments for the bench drivers and examples.
//
// A budget, bound or cut on the command line is a positive finite number.
// Anything else — trailing text, a sign, zero, nan, inf, overflow — prints
// the usage line and exits 2 instead of running with a silent 0, which
// std::atof/std::atoi would make of it.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <type_traits>

namespace itpseq::bench {

/// `s` as a positive finite T (floating point or unsigned), or nullopt.
template <class T>
std::optional<T> parse_positive(const char* s) {
  static_assert(std::is_floating_point_v<T> || std::is_unsigned_v<T>);
  T v{};
  const char* end = s + std::strlen(s);
  const auto [ptr, ec] = std::from_chars(s, end, v);
  if (ec != std::errc{} || ptr != end || !(v > T{0})) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>)
    if (!std::isfinite(v)) return std::nullopt;
  return v;
}

/// argv[i] by parse_positive, or `fallback` when there are fewer arguments.
/// A bad value prints "usage: <argv[0]> <usage>" and exits 2.
template <class T>
T positive_arg(int argc, char** argv, int i, T fallback, const char* usage) {
  if (i >= argc) return fallback;
  if (const std::optional<T> v = parse_positive<T>(argv[i])) return *v;
  std::fprintf(stderr, "%s: bad number '%s'\nusage: %s %s\n", argv[0],
               argv[i], argv[0], usage);
  std::exit(2);
}

}  // namespace itpseq::bench
