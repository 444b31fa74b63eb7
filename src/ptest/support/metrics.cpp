#include "ptest/support/metrics.hpp"

#include <algorithm>
#include <cstdio>

namespace ptest::support {
namespace {

template <typename... Args>
void append_line(std::string& out, const char* format, Args... args) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), format, args...);
  out += buffer;
}

unsigned long long ull(std::uint64_t value) {
  return static_cast<unsigned long long>(value);
}

/// Sparse [bucket, count] pairs back into `hist`; false on any shape
/// violation or a bucket index outside the fixed layout.
bool read_histogram(const JsonValue* pairs, obs::Histogram& hist) {
  if (pairs == nullptr || !pairs->is_array()) return false;
  for (const JsonValue& entry : pairs->array) {
    if (!entry.is_array() || entry.array.size() != 2) return false;
    const auto index = json_count(&entry.array[0]);
    const auto count = json_count(&entry.array[1]);
    if (!index || *index >= obs::Histogram::kBuckets || !count) return false;
    hist.add_bucket(static_cast<std::size_t>(*index), *count);
  }
  return true;
}

}  // namespace

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  if (*this == MetricsSnapshot{}) {
    *this = other;
    return;
  }
  for (const MetricsCounter& counter : kMetricsCounters) {
    std::uint64_t& mine = this->*counter.field;
    const std::uint64_t theirs = other.*counter.field;
    switch (counter.merge) {
      case MetricsMerge::kSum:
        mine += theirs;
        break;
      case MetricsMerge::kMax:
        mine = std::max(mine, theirs);
        break;
      case MetricsMerge::kMin:
        mine = std::min(mine, theirs);
        break;
      case MetricsMerge::kFirst:
        break;
    }
  }
  for (const MetricsHistogram& histogram : kMetricsHistograms) {
    (this->*histogram.field).merge(other.*histogram.field);
  }
}

std::string MetricsSnapshot::render() const {
  std::string out = "metrics:\n";
  for (const MetricsCounter& counter : kMetricsCounters) {
    const std::uint64_t value = this->*counter.field;
    if (value == 0) continue;
    append_line(out, "  %-22s %llu\n", counter.key, ull(value));
  }
  for (const MetricsHistogram& histogram : kMetricsHistograms) {
    const obs::Histogram& hist = this->*histogram.field;
    if (hist.empty()) continue;
    append_line(out, "  %-22s n=%llu p50=%llu p95=%llu p99=%llu\n",
                histogram.key, ull(hist.count()), ull(hist.p50()),
                ull(hist.p95()), ull(hist.p99()));
  }
  // Derived values.
  if (pfa_states != 0 || pfa_transitions != 0) {
    append_line(out, "  %-22s %.1f%%\n", "pfa_state_coverage",
                100.0 * state_coverage());
    append_line(out, "  %-22s %.1f%%\n", "pfa_transition_coverage",
                100.0 * transition_coverage());
  }
  if (fleet_shards != 0) {
    append_line(out, "  %-22s %.3f\n", "fleet_corpus_merge_ms",
                static_cast<double>(fleet_corpus_merge_ns) * 1e-6);
    append_line(out, "  %-22s %.3f\n", "fleet_shard_wall_max_ms",
                static_cast<double>(fleet_shard_wall_max_ns) * 1e-6);
    append_line(out, "  %-22s %.3f\n", "fleet_shard_wall_min_ms",
                static_cast<double>(fleet_shard_wall_min_ns) * 1e-6);
    append_line(out, "  %-22s %.2f\n", "fleet_shard_imbalance",
                fleet_shard_imbalance());
  }
  append_line(out, "  %-22s %.3f\n", "wall_seconds", wall_seconds());
  append_line(out, "  %-22s %.1f\n", "sessions_per_second",
              sessions_per_second());
  append_line(out, "  %-22s %.1f\n", "interleavings_per_sec",
              interleavings_per_sec());
  append_line(out, "  %-22s %.3f\n", "worker_idle_seconds",
              worker_idle_seconds());
  return out;
}

void MetricsSnapshot::write_json(JsonWriter& out) const {
  // Sparse, like render(): zero counters and empty histograms are left
  // out, and read_json reads an absent key back as zero.
  out.begin_object();
  for (const MetricsCounter& counter : kMetricsCounters) {
    const std::uint64_t value = this->*counter.field;
    if (value != 0) out.key(counter.key).value(value);
  }
  // Histograms as sparse [bucket_index, count] pairs: the layout is fixed
  // (obs::Histogram::kBuckets), so the pairs rebuild the exact bucket
  // array and the merge algebra survives the round trip.
  for (const MetricsHistogram& histogram : kMetricsHistograms) {
    const obs::Histogram& hist = this->*histogram.field;
    if (hist.empty()) continue;
    out.key(histogram.key).begin_array();
    for (std::size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
      if (hist.bucket(i) == 0) continue;
      out.begin_array();
      out.value(static_cast<std::uint64_t>(i));
      out.value(hist.bucket(i));
      out.end_array();
    }
    out.end_array();
  }
  out.end_object();
}

Result<MetricsSnapshot, std::string> MetricsSnapshot::read_json(
    const JsonValue* node) {
  if (node == nullptr || !node->is_object()) {
    return std::string("metrics: not an object");
  }
  const auto malformed = [](const char* key) {
    return "metrics: malformed '" + std::string(key) + "'";
  };
  MetricsSnapshot metrics;
  for (const MetricsCounter& counter : kMetricsCounters) {
    const JsonValue* value = node->find(counter.key);
    if (value == nullptr) continue;
    const auto count = json_count(value);
    if (!count) return malformed(counter.key);
    metrics.*counter.field = *count;
  }
  for (const MetricsHistogram& histogram : kMetricsHistograms) {
    const JsonValue* pairs = node->find(histogram.key);
    if (pairs != nullptr &&
        !read_histogram(pairs, metrics.*histogram.field)) {
      return malformed(histogram.key);
    }
  }
  return metrics;
}

}  // namespace ptest::support
