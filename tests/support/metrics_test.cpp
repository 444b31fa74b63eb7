// support::MetricsSnapshot — the campaign perf counter record and its
// field table (merge, JSON, fleet wire, render).
#include "ptest/support/metrics.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "ptest/fleet/wire.hpp"

namespace ptest::support {
namespace {

TEST(Metrics, DerivedRatesFollowTheCounters) {
  MetricsSnapshot snap;
  snap.sessions = 3;
  snap.ticks = 3'000'000;
  snap.wall_ns = 2'000'000'000;  // 2 s
  snap.worker_idle_ns = 500'000'000;
  EXPECT_DOUBLE_EQ(snap.wall_seconds(), 2.0);
  EXPECT_DOUBLE_EQ(snap.sessions_per_second(), 1.5);
  EXPECT_DOUBLE_EQ(snap.interleavings_per_sec(), 1'500'000.0);
  EXPECT_DOUBLE_EQ(snap.worker_idle_seconds(), 0.5);
}

TEST(Metrics, ZeroWallTimeMeansZeroThroughput) {
  const MetricsSnapshot snap;
  EXPECT_DOUBLE_EQ(snap.sessions_per_second(), 0.0);
  EXPECT_DOUBLE_EQ(snap.interleavings_per_sec(), 0.0);
}

TEST(MetricsSnapshot, RenderListsEveryCounter) {
  MetricsSnapshot snap;
  snap.sessions = 42;
  snap.plan_cache_hits = 40;
  const std::string text = snap.render();
  EXPECT_NE(text.find("sessions"), std::string::npos);
  EXPECT_NE(text.find("42"), std::string::npos);
  EXPECT_NE(text.find("plan_cache_hits"), std::string::npos);
  EXPECT_NE(text.find("interleavings_per_sec"), std::string::npos);
  EXPECT_NE(text.find("worker_idle_seconds"), std::string::npos);
}

TEST(MetricsSnapshot, ScratchCountersRenderOnlyWhenNonzero) {
  MetricsSnapshot snap;
  EXPECT_EQ(snap.render().find("scratch_reuse_hits"), std::string::npos);
  snap.scratch_reuse_hits = 9;
  snap.sample_alloc_bytes_saved = 1024;
  const std::string text = snap.render();
  EXPECT_NE(text.find("scratch_reuse_hits"), std::string::npos);
  EXPECT_NE(text.find("sample_alloc_bytes_saved"), std::string::npos);
  // JSON always carries both fields so machine consumers need no probes.
  JsonWriter out(0);
  snap.write_json(out);
  EXPECT_NE(out.str().find("\"scratch_reuse_hits\":9"), std::string::npos);
  EXPECT_NE(out.str().find("\"sample_alloc_bytes_saved\":1024"),
            std::string::npos);
}

TEST(MetricsSnapshot, WriteJsonEmitsOneObject) {
  MetricsSnapshot snap;
  snap.sessions = 8;
  snap.ticks = 16;
  snap.wall_ns = 1'000'000'000;
  JsonWriter out(0);
  snap.write_json(out);
  EXPECT_EQ(out.depth(), 0u);
  EXPECT_NE(out.str().find("\"sessions\":8"), std::string::npos);
  EXPECT_NE(out.str().find("\"wall_ns\":1000000000"), std::string::npos);
}

TEST(MetricsSnapshot, HistogramsRenderOnlyWhenPopulated) {
  MetricsSnapshot snap;
  EXPECT_EQ(snap.render().find("ticks_hist"), std::string::npos);
  snap.ticks_hist.record(100);
  snap.ticks_hist.record(200);
  const std::string text = snap.render();
  EXPECT_NE(text.find("ticks_hist"), std::string::npos);
  EXPECT_NE(text.find("n=2"), std::string::npos);
  EXPECT_NE(text.find("p50="), std::string::npos);
  EXPECT_NE(text.find("p99="), std::string::npos);
  // JSON carries the populated histograms only, as sparse [bucket,
  // count] pairs, and leaves empty ones (and zero counters) out.
  JsonWriter out(0);
  snap.write_json(out);
  EXPECT_NE(out.str().find("\"ticks_hist\":[[7,1],[8,1]]"),
            std::string::npos);
  EXPECT_EQ(out.str().find("frame_rtt_hist"), std::string::npos);
  EXPECT_EQ(out.str().find("\"sessions\""), std::string::npos);
}

JsonValue json(std::string_view text) { return parse_json(text).value(); }

// Every field of the table with a distinct nonzero value, and every
// histogram non-empty (distinct buckets per histogram).
MetricsSnapshot fully_populated() {
  MetricsSnapshot snap;
  std::uint64_t next = 1;
  for (const MetricsCounter& counter : kMetricsCounters) {
    snap.*counter.field = next++;
  }
  for (const MetricsHistogram& histogram : kMetricsHistograms) {
    (snap.*histogram.field).record(next);
    (snap.*histogram.field).record(next * 1000);
    (snap.*histogram.field).record(0);
    ++next;
  }
  return snap;
}

// The audit over the field table: every field survives write_json ->
// read_json and a fleet result frame exactly, appears in render(), reads
// back as zero when its key is missing, and read_json rejects the
// object when any single present field is garbled.  A field added to the struct without a table row fails the
// static_assert in metrics.hpp; a row added here is covered by this loop.
TEST(MetricsSnapshot, WriteJsonAndRenderStayInSync) {
  const MetricsSnapshot snap = fully_populated();

  JsonWriter out(0);
  snap.write_json(out);
  auto parsed = parse_json(out.str());
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  const JsonValue& doc = parsed.value();
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.object.size(),
            std::size(kMetricsCounters) + std::size(kMetricsHistograms));
  auto decoded = MetricsSnapshot::read_json(&doc);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_TRUE(decoded.value() == snap);

  fleet::ResultFrame frame;
  frame.result.metrics = snap;
  auto wire = fleet::decode(fleet::encode(frame));
  ASSERT_TRUE(wire.ok()) << wire.error();
  EXPECT_TRUE(wire.value().result.result.metrics == snap);

  const std::string text = snap.render();
  // Garbage for counters, and for histograms: a bucket index past the
  // fixed layout, a negative count, a bare number instead of a pair.
  const std::vector<JsonValue> bad_counters = {json("\"7\""), json("1.5"),
                                               json("-1"), json("[]")};
  const std::vector<JsonValue> bad_histograms = {
      json("7"), json("[[64,1]]"), json("[[3,-1]]"), json("[7]"),
      json("[[1,2,3]]")};

  for (std::size_t i = 0; i < doc.object.size(); ++i) {
    const std::string& key = doc.object[i].first;
    const bool is_histogram = doc.object[i].second.is_array();
    EXPECT_NE(text.find("\n  " + key + " "), std::string::npos)
        << "render() has no line for '" << key << "'";

    JsonValue missing = doc;
    missing.object.erase(missing.object.begin() +
                         static_cast<std::ptrdiff_t>(i));
    const auto sparse = MetricsSnapshot::read_json(&missing);
    ASSERT_TRUE(sparse.ok()) << "rejected an object without '" << key
                             << "': " << sparse.error();
    JsonWriter rewritten(0);
    sparse.value().write_json(rewritten);
    EXPECT_EQ(rewritten.str().find("\"" + key + "\""), std::string::npos)
        << "'" << key << "' did not read back as zero";

    for (const JsonValue& bad :
         is_histogram ? bad_histograms : bad_counters) {
      JsonValue garbled = doc;
      garbled.object[i].second = bad;
      EXPECT_FALSE(MetricsSnapshot::read_json(&garbled).ok())
          << "accepted a garbled '" << key << "'";
    }
  }
  // The all-zero record writes as {} and reads back as itself.
  JsonWriter zero(0);
  MetricsSnapshot{}.write_json(zero);
  EXPECT_EQ(zero.str(), "{}");
  const JsonValue empty = json("{}");
  const auto from_empty = MetricsSnapshot::read_json(&empty);
  ASSERT_TRUE(from_empty.ok()) << from_empty.error();
  EXPECT_TRUE(from_empty.value() == MetricsSnapshot{});
  EXPECT_FALSE(MetricsSnapshot::read_json(nullptr).ok());
}

TEST(MetricsSnapshot, MergingTwoHalvesGivesTheWhole) {
  MetricsSnapshot first;
  MetricsSnapshot second;
  MetricsSnapshot whole;
  std::size_t non_sum_rows = 0;
  std::uint64_t next = 1;
  for (const MetricsCounter& counter : kMetricsCounters) {
    if (counter.merge != MetricsMerge::kSum) {
      ++non_sum_rows;
      continue;
    }
    first.*counter.field = next;
    second.*counter.field = 100 * next;
    whole.*counter.field = 101 * next;
    ++next;
  }
  // The rows that do not sum, by name.  A new one must be added here.
  EXPECT_EQ(non_sum_rows, 4u);
  first.plan_compiles = 1;  // kFirst: every shard compiled the same plan
  second.plan_compiles = 3;
  whole.plan_compiles = 1;
  first.worker_threads = 2;  // kMax
  second.worker_threads = 4;
  whole.worker_threads = 4;
  first.fleet_shard_wall_max_ns = 300;  // kMax
  second.fleet_shard_wall_max_ns = 500;
  whole.fleet_shard_wall_max_ns = 500;
  first.fleet_shard_wall_min_ns = 300;  // kMin
  second.fleet_shard_wall_min_ns = 100;
  whole.fleet_shard_wall_min_ns = 100;
  for (std::uint64_t value = 1; value <= 8; ++value) {
    for (const MetricsHistogram& histogram : kMetricsHistograms) {
      MetricsSnapshot& half = value <= 4 ? first : second;
      (half.*histogram.field).record(value * value);
      (whole.*histogram.field).record(value * value);
    }
  }

  // Merging into an empty record copies the first half, so kFirst and
  // kMin see it as their first value.
  MetricsSnapshot merged;
  merged.merge(first);
  EXPECT_TRUE(merged == first);
  merged.merge(second);
  EXPECT_TRUE(merged == whole);
}

}  // namespace
}  // namespace ptest::support
