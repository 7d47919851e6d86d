#include "util/retry.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

namespace itpseq::util {

namespace {

/// splitmix64 (Steele/Lea/Flood) — one multiply-xor round per draw; used
/// only for jitter, where quality requirements are minimal but determinism
/// is mandatory (L5 bans rand()/time-seeded generators).
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

double backoff_delay_sec(unsigned attempt, std::uint64_t seed) {
  double d = kBackoffBaseSec;
  for (unsigned a = 0; a < attempt; ++a) d *= 2.0;
  // 53 high bits -> uniform double in [0, 1), mapped to [-1, 1).
  std::uint64_t r = splitmix64(seed ^ (0x100000001ull * (attempt + 1)));
  double u = static_cast<double>(r >> 11) * (1.0 / 9007199254740992.0);
  return d * (1.0 + kBackoffJitter * (2.0 * u - 1.0));
}

bool interruptible_sleep(double seconds, const std::atomic<bool>* cancel) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(std::max(seconds, 0.0)));
  for (;;) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed))
      return false;
    auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return true;
    auto chunk = std::min<std::chrono::steady_clock::duration>(
        deadline - now, std::chrono::milliseconds(10));
    std::this_thread::sleep_for(chunk);
  }
}

}  // namespace itpseq::util
