#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "ptest/support/rng.hpp"

namespace perfbench {

double median(std::vector<double> values) { return quantile(values, 0.5); }

double fastest(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : *std::min_element(values.begin(), values.end());
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto below = static_cast<std::size_t>(std::floor(position));
  const std::size_t above = std::min(below + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(below);
  return values[below] + (values[above] - values[below]) * fraction;
}

double tail_percentile(std::size_t count) {
  for (const double q : {0.999, 0.995, 0.99, 0.98, 0.95, 0.9, 0.8, 0.75}) {
    if ((1.0 - q) * static_cast<double>(count) >= 10.0) return q;
  }
  return 0.5;
}

double peak_rss_mb() {
  // VmHWM covers this program image only; ru_maxrss would also carry
  // the peak of the process image before exec (the launching script).
  if (FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, status) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(status);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::optional<std::size_t> first_bug_index(
    const ptest::core::CampaignResult& result,
    const ptest::scenario::BugOracle& oracle, std::uint64_t plan_seed) {
  std::unordered_map<std::uint64_t, std::size_t> index_of_seed;
  index_of_seed.reserve(result.total_runs);
  for (std::size_t i = 0; i < result.total_runs; ++i) {
    index_of_seed.emplace(ptest::support::derive_seed(plan_seed, i), i);
  }
  std::optional<std::size_t> first;
  for (const auto& [signature, report] : result.distinct_failures) {
    if (!oracle.matches(report)) continue;
    const auto it = index_of_seed.find(report.seed);
    if (it == index_of_seed.end()) continue;
    if (!first || it->second < *first) first = it->second;
  }
  return first;
}

bool same_outcome(const ptest::core::CampaignResult& a,
                  const ptest::core::CampaignResult& b) {
  if (a.total_runs != b.total_runs ||
      a.total_detections != b.total_detections ||
      a.arm_stats.size() != b.arm_stats.size() ||
      a.metrics.sessions != b.metrics.sessions ||
      a.metrics.patterns_generated != b.metrics.patterns_generated ||
      a.metrics.ticks != b.metrics.ticks ||
      !(a.metrics.ticks_hist == b.metrics.ticks_hist) ||
      a.arm_coverage_state != b.arm_coverage_state ||
      a.distinct_failures.size() != b.distinct_failures.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.arm_stats.size(); ++i) {
    if (a.arm_stats[i].runs != b.arm_stats[i].runs ||
        a.arm_stats[i].detections != b.arm_stats[i].detections) {
      return false;
    }
  }
  auto it = b.distinct_failures.begin();
  for (const auto& entry : a.distinct_failures) {
    if (entry.first != it->first || entry.second.seed != it->second.seed) {
      return false;
    }
    ++it;
  }
  return true;
}

double worker_idle_share(const ptest::support::MetricsSnapshot& metrics) {
  if (metrics.worker_threads <= 1 || metrics.wall_ns == 0) return 0.0;
  return static_cast<double>(metrics.worker_idle_ns) /
         (static_cast<double>(metrics.worker_threads - 1) *
          static_cast<double>(metrics.wall_ns));
}

void Report::fail(const std::string& message) {
  ++failed;
  std::fprintf(stderr, "perfbench: check failed: %s\n", message.c_str());
}

namespace {

std::string format(const char* pattern, double a, double b = 0,
                   double c = 0) {
  char buffer[256];
  std::snprintf(buffer, sizeof buffer, pattern, a, b, c);
  return buffer;
}

double per(double total, double count) {
  return count == 0 ? 0.0 : total / count;
}

}  // namespace

void add_layer_metrics(Report& report, const LayerTotals& layers,
                       const FleetLayer& fleet, double idle_share) {
  const double sessions = static_cast<double>(layers.sessions);
  const double ticks = static_cast<double>(layers.ticks);
  const double wall = layers.session_wall_ns;
  // The per-tick layers were timed on a random sample of ticks, where
  // the stamps also cost the overlap between neighbouring devices; their
  // shares of the timed ticks split Soc::run's corrected total.
  // A layer cheaper than the timer's resolution can come out slightly
  // below zero after the stamp cost is subtracted; it counts as zero.
  const double timed_master = std::max(0.0, layers.master_ns);
  const double timed_bridge = std::max(0.0, layers.bridge_ns);
  const double timed_pcore = std::max(0.0, layers.pcore_ns);
  const double timed_detector = std::max(0.0, layers.detector_ns);
  const double timed_loop = std::max(0.0, layers.loop_ns);
  const double timed = timed_master + timed_bridge + timed_pcore +
                       timed_detector + timed_loop;
  const double scale = timed <= 0 ? 0.0 : layers.run_ns / timed;
  const double master = timed_master * scale;
  const double bridge = timed_bridge * scale;
  const double pcore = timed_pcore * scale;
  const double detector = timed_detector * scale;
  const double loop = timed_loop * scale;
  const double named = layers.generate_merge_ns + layers.coverage_ns +
                       layers.session_setup_ns + layers.run_ns +
                       layers.teardown_ns;
  const double unattributed = wall <= 0 ? 0.0 : (wall - named) / wall;

  report.add("pfa.compile_us",
             per(layers.compile_ns, static_cast<double>(layers.compiles)) /
                 1e3,
             "us");
  report.add("pattern.generate_merge_us",
             per(layers.generate_merge_ns, sessions) / 1e3, "us");
  report.add("pattern.coverage_us", per(layers.coverage_ns, sessions) / 1e3,
             "us");
  report.add("core.session_setup_us",
             per(layers.session_setup_ns, sessions) / 1e3, "us");
  report.add("core.session_teardown_us",
             per(layers.teardown_ns, sessions) / 1e3, "us");
  report.add("core.session_wall_us", per(wall, sessions) / 1e3, "us");
  report.add("core.detector_ns_per_tick", per(detector, ticks), "ns/tick");
  report.add("pcore.ns_per_tick", per(pcore, ticks), "ns/tick");
  report.add("master.ns_per_tick", per(master, ticks), "ns/tick");
  report.add("bridge.ns_per_tick", per(bridge, ticks), "ns/tick");
  report.add("sim.loop_ns_per_tick", per(loop, ticks), "ns/tick");
  report.add("core.unattributed_share", unattributed, "ratio");
  report.add("sim.ticks_per_session", per(ticks, sessions), "count");
  report.add("sim.trace_events_per_session",
             per(static_cast<double>(layers.trace_events), sessions),
             "count");
  report.add("bridge.commands_per_session",
             per(static_cast<double>(layers.commands), sessions), "count");
  report.add("bridge.commands_failed_ratio",
             per(static_cast<double>(layers.commands_failed),
                 static_cast<double>(layers.commands)),
             "ratio");
  report.add("pcore.context_switches_per_session",
             per(static_cast<double>(layers.context_switches), sessions),
             "count");
  report.add("guided.refine_us",
             per(layers.refine_ns, static_cast<double>(layers.refines)) / 1e3,
             "us");
  report.add("guided.epochs_per_hunt",
             per(static_cast<double>(layers.hunt_epochs),
                 static_cast<double>(layers.hunts)),
             "count");
  report.add("fleet.send_us",
             per(fleet.send_ns, static_cast<double>(fleet.sends)) / 1e3,
             "us");
  report.add("fleet.receive_us",
             per(fleet.receive_ns, static_cast<double>(fleet.receives)) / 1e3,
             "us");
  report.add("fleet.empty_poll_ratio",
             per(static_cast<double>(fleet.empty_polls),
                 static_cast<double>(fleet.polls)),
             "ratio");
  report.add("fleet.encode_us",
             per(fleet.encode_ns, static_cast<double>(fleet.frames)) / 1e3,
             "us");
  report.add("fleet.decode_us",
             per(fleet.decode_ns, static_cast<double>(fleet.frames)) / 1e3,
             "us");
  report.add("fleet.frame_bytes",
             per(fleet.frame_bytes, static_cast<double>(fleet.frames)), "B");
  report.add("fleet.corpus_merge_ms",
             per(fleet.corpus_merge_ns, static_cast<double>(fleet.campaigns)) /
                 1e6,
             "ms");
  report.add("fleet.shard_imbalance",
             per(fleet.shard_imbalance, static_cast<double>(fleet.campaigns)),
             "ratio");
  report.add("fleet.retries",
             per(static_cast<double>(fleet.retries),
                 static_cast<double>(fleet.campaigns)),
             "count");
  report.add("support.worker_idle_share", idle_share, "ratio");
  report.add("trace_overhead_ratio",
             layers.untraced_ns <= 0 ? 0.0
                                     : layers.traced_raw_ns /
                                           layers.untraced_ns,
             "ratio");

  // The layer table: self time per session, share of session wall, and
  // the per-session counts behind it.
  report.notes.push_back(format(
      "traced sessions: %.0f  ticks/session: %.1f  session wall: %.2f us",
      sessions, per(ticks, sessions), per(wall, sessions) / 1e3));
  report.notes.push_back("layer                         self us/session   "
                         "share   count");
  const struct {
    const char* name;
    double ns;
    double count;
  } rows[] = {
      {"pattern.generate_merge", layers.generate_merge_ns, sessions},
      {"pattern.coverage", layers.coverage_ns, sessions},
      {"core.session_setup", layers.session_setup_ns, sessions},
      {"master (committer)", master, ticks},
      {"bridge (committee)", bridge, ticks},
      {"pcore (kernel+program)", pcore, ticks},
      {"core.detector", detector, ticks},
      {"sim.loop (Soc::run self)", loop, ticks},
      {"core.session_teardown", layers.teardown_ns, sessions},
      {"unattributed", wall - named, sessions},
  };
  for (const auto& row : rows) {
    char line[160];
    std::snprintf(line, sizeof line, "%-28s %14.3f %8.4f %7.0f", row.name,
                  per(row.ns, sessions) / 1e3, wall <= 0 ? 0.0 : row.ns / wall,
                  row.count);
    report.notes.emplace_back(line);
  }
  report.notes.push_back(format(
      "trace_overhead_ratio %.3f (untraced %.2f us vs traced %.2f us per "
      "session)",
      layers.untraced_ns <= 0 ? 0.0 : layers.traced_raw_ns / layers.untraced_ns,
      per(layers.untraced_ns, sessions) / 1e3,
      per(layers.traced_raw_ns, sessions) / 1e3));
}

void add_end_to_end(Report& report, const EndToEnd& e2e) {
  const double tail = quantile(e2e.time_to_bug_ms, e2e.tail_q);
  report.add("sessions_per_s", e2e.sessions_per_s, "1/s");
  report.add("time_to_bug_ms_p50", quantile(e2e.time_to_bug_ms, 0.5), "ms");
  report.add("time_to_bug_ms_tail", tail, "ms");
  report.add("sessions_to_bug_mean", e2e.sessions_to_bug_mean, "sessions");
  report.add("bug_found_ratio", e2e.bug_found_ratio, "ratio");
  report.add("scaling_efficiency", e2e.scaling_efficiency, "ratio");
  report.add("setup_s", fastest(e2e.setup_s), "s");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.notes.push_back(format(
      "sessions/s per pass: q1 %.1f  median %.1f  q3 %.1f",
      quantile(e2e.pass_rates, 0.25), median(e2e.pass_rates),
      quantile(e2e.pass_rates, 0.75)));
  report.notes.push_back(format(
      "scaling efficiency per pass: q1 %.4f  median %.4f  q3 %.4f",
      quantile(e2e.pass_efficiencies, 0.25), median(e2e.pass_efficiencies),
      quantile(e2e.pass_efficiencies, 0.75)));
  report.notes.push_back(format(
      "setup_s per batch: fastest %.3g  median %.3g  of %.0f batches",
      fastest(e2e.setup_s), median(e2e.setup_s),
      static_cast<double>(e2e.setup_s.size())));
  const auto beyond = static_cast<double>(e2e.time_to_bug_ms.size()) *
                      (1.0 - e2e.tail_q);
  report.notes.push_back(format(
      "time_to_bug_ms_tail is p%.1f over %.0f samples (%.0f beyond it)",
      e2e.tail_q * 100.0, static_cast<double>(e2e.time_to_bug_ms.size()),
      beyond));
}

}  // namespace perfbench
