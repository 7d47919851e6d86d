// retry.hpp — the fixed relaunch schedule for the portfolio's out-of-memory
// member restarts.
//
// A member that died of kOutOfMemory may be worth relaunching: the spike
// can have been a peer's allocation, and the relaunch runs under a degraded
// configuration (see mc::degrade_for_retry).  The schedule bounds how often
// and how eagerly that happens: at most kMaxRelaunches relaunches, each
// preceded by an exponentially growing backoff so a persistently failing
// member cannot busy-loop, with deterministic jitter so members that died
// together (e.g. all from one memory spike) do not relaunch in lockstep and
// spike again.
//
// Jitter is derived from a seed via splitmix64 — never from wall-clock or
// rand() (lint rule L5) — so a run's relaunch schedule is reproducible.
#pragma once

#include <atomic>
#include <cstdint>

namespace itpseq::util {

/// Relaunches allowed per member after an out-of-memory death.
inline constexpr unsigned kMaxRelaunches = 2;
/// Delay before the first relaunch; each further one doubles it.
inline constexpr double kBackoffBaseSec = 0.25;
/// +/- fraction of jitter on each delay: uniform in [0.75x, 1.25x].
inline constexpr double kBackoffJitter = 0.25;

/// Delay before relaunch number `attempt` (0-based): kBackoffBaseSec *
/// 2^attempt, jittered deterministically from (seed, attempt).
double backoff_delay_sec(unsigned attempt, std::uint64_t seed);

/// Sleep for `seconds`, polling `cancel` roughly every 10 ms so a portfolio
/// winner never has to wait out a loser's backoff.  Null cancel = plain
/// sleep.  Returns true if the sleep completed, false if cancelled early.
bool interruptible_sleep(double seconds, const std::atomic<bool>* cancel);

}  // namespace itpseq::util
