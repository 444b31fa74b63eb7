// The four workloads.  Each drives its campaigns or hunts closed-loop:
// a caller starts the next one when the last returns.  Each fills a
// Report: end-to-end metrics when options.trace is off, the per-layer
// metrics of the traced pass when it is on.
#pragma once

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "common.hpp"

namespace perfbench {

Report run_short_sessions(const RunOptions& options);
Report run_long_sessions(const RunOptions& options);
Report run_guided_hunt(const RunOptions& options);
Report run_fleet_socket(const RunOptions& options);

/// Runs `body` at least `min_passes` times and until `seconds` have
/// passed since the first call; returns the number of passes.
///
/// Each pass times every unit (campaign or hunt) of a workload once, and
/// a unit's time is its fastest pass.  The host's other tenants only ever
/// slow a pass down, by up to ~60% for seconds at a time on a shared
/// 4-vCPU KVM guest, so the median pass moved with the host from run to
/// run while the fastest of ten or more passes spread over the run is the
/// unit's time on a quiet host.
template <typename Body>
std::size_t run_passes(double seconds, std::size_t min_passes, Body body) {
  const std::uint64_t start = now_ns();
  std::size_t passes = 0;
  while (passes < min_passes ||
         static_cast<double>(now_ns() - start) * 1e-9 < seconds) {
    body(passes);
    ++passes;
  }
  return passes;
}

/// Pins the calling thread to one of its allowed CPUs, the `turn`-th in
/// rotation, until destroyed.  The timed one-caller legs run under it, so
/// a run spreads its passes over every CPU instead of timing whichever
/// one the scheduler kept it on: on a shared 4-vCPU KVM guest the same
/// pass ran up to ~15% faster on some vCPUs than on others.
class CpuTurn {
 public:
  explicit CpuTurn(std::size_t turn);
  ~CpuTurn();
  CpuTurn(const CpuTurn&) = delete;
  CpuTurn& operator=(const CpuTurn&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// Runs unit(0..count-1) on two closed-loop callers, this thread and one
/// more, each taking the next unit when its last one returns; returns
/// the wall time in ns.  unit(i) may only write slot i of shared state.
template <typename Unit>
std::uint64_t run_two_callers(std::size_t count, Unit unit) {
  std::atomic<std::size_t> next{0};
  auto caller = [&] {
    for (std::size_t i = next++; i < count; i = next++) unit(i);
  };
  const std::uint64_t start = now_ns();
  std::thread helper(caller);
  caller();
  helper.join();
  return now_ns() - start;
}

/// setup_s samples: from-scratch set-ups timed in batches of at least
/// ~10 ms, so no sample is a single short interval.  Workloads take
/// batches between timed passes, which spreads them over the whole run;
/// setup_s is the fastest batch mean, as a unit's time is its fastest
/// pass (see run_passes).
template <typename OneSetup>
class SetupSampler {
 public:
  explicit SetupSampler(OneSetup one_setup) : one_setup_(one_setup) {
    const double first = one_setup_();
    per_batch_ = static_cast<std::size_t>(std::min(
        1000.0, std::max(1.0, std::ceil(0.01 / std::max(first, 1e-9)))));
  }

  /// Times one batch; returns its mean seconds per set-up.
  double sample() {
    double total = 0;
    for (std::size_t i = 0; i < per_batch_; ++i) total += one_setup_();
    return total / static_cast<double>(per_batch_);
  }

 private:
  OneSetup one_setup_;
  std::size_t per_batch_ = 1;
};

/// For each campaign seed, the 1-based index of the first session of a
/// campaign on `scenario`'s own plan whose report matches its oracle —
/// the campaign's sessions in run order, derive_seed(seed, i) — or
/// nullopt when none of the first `budget` sessions does.
std::vector<std::optional<std::size_t>> campaign_first_bugs(
    const ptest::scenario::Scenario& scenario,
    const std::vector<std::uint64_t>& campaign_seeds, std::size_t budget);

/// Kernel trace events per session over the first `count` sessions of
/// a campaign on `config` (the fingerprint's trace-event count).
double trace_events_per_session(const ptest::core::PtestConfig& config,
                                const ptest::core::WorkloadSetup& setup,
                                std::size_t count);

}  // namespace perfbench
