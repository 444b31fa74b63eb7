// perfbench — the repo benchmark's executable.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one workload closed-loop in this process against the ptest
// library, checks its outputs, and prints human-readable notes, a
// deterministic fingerprint line, and as the last line one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// metrics of the traced pass.  Exit status 0 once a result is printed,
// 64 on a usage error, 1 when the workload threw.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Report;
using perfbench::RunOptions;

struct Workload {
  const char* name;
  Report (*run)(const RunOptions&);
};

constexpr Workload kWorkloads[] = {
    {"short-sessions", perfbench::run_short_sessions},
    {"long-sessions", perfbench::run_long_sessions},
    {"guided-hunt", perfbench::run_guided_hunt},
    {"fleet-socket", perfbench::run_fleet_socket},
};

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1\nworkloads:",
               message);
  for (const Workload& workload : kWorkloads) {
    std::fprintf(stderr, " %s", workload.name);
  }
  std::fprintf(stderr, "\n");
  return 64;
}

bool parse_number(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(out);
}

void print_json(const Report& report) {
  const bool correct = report.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  const char* separator = "";
  for (const perfbench::Metric& metric : report.metrics) {
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", separator,
                metric.name.c_str(), value, metric.unit.c_str());
    separator = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* workload = nullptr;
  RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    double number = 0;
    if (flag == "--workload") {
      for (const Workload& candidate : kWorkloads) {
        if (value == std::string(candidate.name)) workload = &candidate;
      }
      if (workload == nullptr) return usage("unknown workload");
    } else if (flag == "--seed" && parse_number(value, number) &&
               number >= 0) {
      options.seed = static_cast<std::uint64_t>(number);
      have_seed = true;
    } else if (flag == "--seconds" && parse_number(value, number) &&
               number > 0) {
      options.seconds = number;
      have_seconds = true;
    } else if (flag == "--trace" && (value == std::string("0") ||
                                     value == std::string("1"))) {
      options.trace = value[0] == '1';
      have_trace = true;
    } else {
      return usage(("bad argument " + flag + " " + value).c_str());
    }
  }
  if (workload == nullptr || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }

  Report report;
  try {
    report = workload->run(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload->name,
                 error.what());
    return 1;
  }
  for (const std::string& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }
  const perfbench::Fingerprint& fp = report.fingerprint;
  std::printf("fingerprint %s seed=%llu sim.ticks_per_session=%.17g "
              "sessions_to_bug_mean=%.17g bug_miss_ratio=%.17g "
              "sim.trace_events_per_session=%.17g\n",
              workload->name, static_cast<unsigned long long>(options.seed),
              fp.ticks_per_session, fp.sessions_to_bug_mean,
              fp.bug_miss_ratio, fp.trace_events_per_session);
  std::printf("failed_ratio %.17g (%llu of %llu units)\n",
              report.attempted == 0
                  ? 0.0
                  : static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  print_json(report);
  return 0;
}
