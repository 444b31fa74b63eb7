// Shared plumbing of the perfbench workloads: options, timing, order
// statistics, the per-run report and its JSON line.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ptest/core/campaign.hpp"
#include "ptest/scenario/scenario.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Median (mean of the middle pair for even counts); 0 for no values.
double median(std::vector<double> values);
/// Smallest value; 0 for no values.
double fastest(const std::vector<double>& values);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> values, double q);
/// The highest percentile of {99.9, 99.5, 99, 98, 95, 90, 80, 75, 50}
/// that leaves at least 10 of `count` samples above it.
double tail_percentile(std::size_t count);
/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Index (0-based) of the first session of a single-arm campaign whose
/// report matches `oracle`, recovered from the first-report-per-signature
/// map: report seeds are derive_seed(plan seed, run index).  nullopt
/// when no report matches.
std::optional<std::size_t> first_bug_index(
    const ptest::core::CampaignResult& result,
    const ptest::scenario::BugOracle& oracle, std::uint64_t plan_seed);

/// True when two campaign results agree on every deterministic field
/// the fleet and jobs invariants promise: runs, detections, distinct
/// signatures, work counters, the ticks histogram and coverage.
bool same_outcome(const ptest::core::CampaignResult& a,
                  const ptest::core::CampaignResult& b);

/// A pooled run's worker idle time as a share of its pool workers' wall
/// time (0 when the run had no pool).
double worker_idle_share(const ptest::support::MetricsSnapshot& metrics);

/// Simulated-behaviour fingerprint of a workload: two runs at one seed
/// must print it identically, whatever the host did.
struct Fingerprint {
  double ticks_per_session = 0;
  double sessions_to_bug_mean = 0;
  double bug_miss_ratio = 0;
  double trace_events_per_session = 0;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one invocation reports.  `failed` counts units (campaigns,
/// hunts, mirrored sessions) that errored or failed an output check.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  Fingerprint fingerprint;
  std::vector<std::string> notes;  // human-readable lines, printed first

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed check with its message (printed to stderr).
  void fail(const std::string& message);
};

/// Accumulated per-layer totals of the traced pass.
struct LayerTotals {
  std::uint64_t sessions = 0;
  std::uint64_t ticks = 0;
  std::uint64_t sampled_ticks = 0;  // ticks the per-tick layers timed
  std::uint64_t trace_events = 0;
  std::uint64_t commands = 0;
  std::uint64_t commands_failed = 0;
  std::uint64_t context_switches = 0;
  double compile_ns = 0;
  std::uint64_t compiles = 0;
  double generate_merge_ns = 0;
  double coverage_ns = 0;
  double session_setup_ns = 0;
  // Per-tick layers: time on the sampled ticks only.
  double master_ns = 0;
  double bridge_ns = 0;
  double pcore_ns = 0;
  double detector_ns = 0;
  double loop_ns = 0;
  double run_ns = 0;            // all of Soc::run, corrected for the timer
  double teardown_ns = 0;
  double session_wall_ns = 0;   // corrected for the timer's own cost
  double traced_raw_ns = 0;     // uncorrected traced session wall
  double untraced_ns = 0;       // the same sessions through core::execute
  double refine_ns = 0;         // PlanRefiner::refine + recompile
  std::uint64_t refines = 0;
  std::uint64_t hunts = 0;
  std::uint64_t hunt_epochs = 0;
};

/// Fleet-layer figures of the traced pass (zero when no fleet ran).
struct FleetLayer {
  double send_ns = 0;
  std::uint64_t sends = 0;
  double receive_ns = 0;          // time in receive() calls that got a frame
  std::uint64_t receives = 0;
  std::uint64_t polls = 0;
  std::uint64_t empty_polls = 0;
  double encode_ns = 0;
  double decode_ns = 0;
  std::uint64_t frames = 0;
  double frame_bytes = 0;
  double corpus_merge_ns = 0;
  double shard_imbalance = 0;
  std::uint64_t retries = 0;
  std::uint64_t campaigns = 0;
};

/// Emits the per-layer metrics (and the layer table as notes) from the
/// traced pass's totals.
void add_layer_metrics(Report& report, const LayerTotals& layers,
                       const FleetLayer& fleet, double idle_share);

/// Emits the end-to-end metrics shared by every workload.
struct EndToEnd {
  double sessions_per_s = 0;
  std::vector<double> pass_rates;        // sessions/s of each timed pass
  std::vector<double> pass_efficiencies;  // scaling efficiency per pass
  double scaling_efficiency = 0;
  std::vector<double> time_to_bug_ms;  // per hunt/campaign, or fleet pass
  double tail_q = 0.9;                 // fixed per workload
  double sessions_to_bug_mean = 0;
  double bug_found_ratio = 0;
  std::vector<double> setup_s;  // batch means; setup_s is the fastest
};
void add_end_to_end(Report& report, const EndToEnd& e2e);

}  // namespace perfbench
