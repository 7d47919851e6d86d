// fault.hpp — deterministic fault injection for containment testing.
//
// Robust failure handling is only trustworthy if every containment path is
// exercised on purpose: this registry lets tests and CI raise a fault at a
// *named site* on a *chosen hit* — the same run, every run — instead of
// hoping an OOM strikes where the try/catch is.
//
// Seeded sites (grep ITPSEQ_FAULT_POINT for the ground truth):
//   sat.arena         clause-arena allocation (sat::Solver::alloc_clause)
//   sat.inprocess     entry of an inprocessing round
//   itp.extract       interpolant extraction from a resolution proof
//   aig.load          AIGER parsing (read_aiger)
//   blif.load         BLIF parsing (read_blif)
//   obs.drain         trace-sink drainer batch processing
//
// A plan is a comma/space-separated list of specs:
//
//     site:nth[:count[:kind]]
//
// meaning: evaluations nth .. nth+count-1 of `site` (1-based, count
// default 1) raise the fault.  `kind` is one of
//   oom      throw std::bad_alloc            (default)
//   error    throw std::runtime_error
//   stall    block for the stall duration (default 250 ms, `stallN` = N ms)
//            — models an engine stuck outside its cancellation poll loop,
//            which is what the portfolio watchdog exists to escalate.
//
// Plans come from the ITPSEQ_FAULTS environment variable
// (configure_from_env, called by the tools) or `itpseq-mc --inject-fault`.
//
// Gating follows the obs "off means free" rule: with no plan armed — the
// only state production binaries ever run in — every ITPSEQ_FAULT_POINT is
// one relaxed atomic load and a predicted-not-taken branch; no allocation,
// no lock, no syscalls.  The slow path (point()) takes a mutex; arming or
// clearing a plan while engines are running is not supported.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace itpseq::util::fault {

namespace detail {
extern std::atomic<bool> g_armed;
}  // namespace detail

/// True iff a fault plan is armed.  One relaxed load — the gate every
/// ITPSEQ_FAULT_POINT sits behind.
inline bool enabled() {
  return detail::g_armed.load(std::memory_order_relaxed);
}

/// Arm the sites described by `plan` (format above; appends to any sites
/// already armed).  Throws std::invalid_argument on a malformed spec.
void configure(const std::string& plan);

/// configure(getenv("ITPSEQ_FAULTS")); no-op when the variable is unset.
void configure_from_env();

/// Disarm and forget every site (tests; also resets hit counters).
void clear();

/// Evaluations of `site` so far (0 when the site is not armed).
std::uint64_t hits(const char* site);

/// Slow path: evaluate `site` against the armed plan and fire if its window
/// is reached.  Only call behind enabled() — use ITPSEQ_FAULT_POINT.
void point(const char* site);

}  // namespace itpseq::util::fault

/// A named fault site.  Free when no plan is armed; see fault.hpp header.
#define ITPSEQ_FAULT_POINT(site)                          \
  do {                                                    \
    if (::itpseq::util::fault::enabled())                 \
      ::itpseq::util::fault::point(site);                 \
  } while (0)
