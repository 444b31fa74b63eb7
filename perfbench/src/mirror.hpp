// The traced session: a mirror of core::TestSession's construction and
// run, built from the library's public classes, with every sim::Device
// wrapped in a timing device so a session's wall time splits into its
// layers (sampling, stack set-up, master, bridge, pCore, detector, the
// Soc::run loop itself, teardown).
//
// Timer cost: one tick in eight is timed (see TickChain in mirror.cpp),
// and the per-tick layers split Soc::run's total in the shares the timed
// ticks show.  The mirror calibrates what one stamp adds to an interval
// and what the timing devices add to a tick, and subtracts both, which
// keeps the layers and the session wall free of the timer's own time;
// trace_overhead_ratio still reports the raw cost.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"
#include "ptest/core/adaptive_test.hpp"
#include "ptest/pattern/coverage.hpp"

namespace perfbench {

struct MirroredSession {
  ptest::core::AdaptiveTestResult result;
  std::uint64_t trace_events = 0;
};

class Mirror {
 public:
  /// Calibrates the timer costs on an idle Soc.
  Mirror();

  /// One session of `plan` at `seed`, traced: the same work as
  /// core::execute (plus CoverageTracker::observe when `tracker` is
  /// set), with layer times and counts added to `totals`.
  MirroredSession run(const ptest::core::CompiledTestPlan& plan,
                      std::uint64_t seed,
                      const ptest::core::WorkloadSetup& setup,
                      ptest::pfa::WalkScratch& scratch,
                      ptest::pattern::CoverageTracker* tracker,
                      LayerTotals& totals) const;

 private:
  double stamp_ns_ = 0;          // one clock read, per interval it closes
  double tick_overhead_ns_ = 0;  // the timing devices, per tick
};

/// Empty when the mirrored session equals core::execute's result for
/// the same (plan, seed); otherwise what differs.
std::string compare(const ptest::core::AdaptiveTestResult& reference,
                    const MirroredSession& mirrored);

/// One sampled session run both ways: untraced through core::execute
/// (plus the campaign's coverage observe, timed into totals.untraced_ns)
/// and traced through the mirror.  Even `index`es run the untraced leg
/// first and odd ones the mirror first, so neither leg always runs on
/// the other's warm caches.  Returns the mirrored session and sets
/// `difference` to compare()'s verdict.
MirroredSession run_both(const Mirror& mirror,
                         const ptest::core::CompiledTestPlan& plan,
                         std::uint64_t seed,
                         const ptest::core::WorkloadSetup& setup,
                         ptest::pfa::WalkScratch& scratch,
                         ptest::pattern::CoverageTracker* untraced_tracker,
                         ptest::pattern::CoverageTracker* traced_tracker,
                         LayerTotals& totals, std::size_t index,
                         std::string& difference);

/// Replays a sample of the sessions of `plan` (run indices
/// first..first+count of a campaign seeded `plan_seed`) untraced and
/// traced, checks each pair, and accumulates the layer totals.
void trace_sessions(const Mirror& mirror,
                    const ptest::core::CompiledTestPlan& plan,
                    std::uint64_t plan_seed,
                    const ptest::core::WorkloadSetup& setup,
                    std::size_t first, std::size_t count,
                    LayerTotals& totals, Report& report);

}  // namespace perfbench
