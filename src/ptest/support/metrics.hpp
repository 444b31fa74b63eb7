// The campaign perf counter record.
//
// A Campaign runs thousands of sessions across a WorkerPool; until now
// the only observable output was the detection table, so claims like
// "the plan cache is ~2x" or "jobs=4 keeps the workers busy" could not
// be checked from a run's artifacts.  MetricsSnapshot is the one record
// that campaigns fill, results and reports carry, shards ship over the
// fleet wire, and the coordinator merges.  It is a plain value: each
// campaign adds into a local record on the one thread that merges its
// session outcomes, so no field needs to be atomic.
//
// kMetricsCounters / kMetricsHistograms below list every field once,
// with its JSON key and how merge() folds it; merge(), write_json(),
// read_json() and the raw lines of render() all walk that table.
//
// The counters are split in two classes with different determinism:
//   - work counters (sessions, plan_cache_hits, plan_compiles,
//     patterns_generated, dedup_*) are a pure function of the campaign
//     seed/config — bit-identical for every `jobs` value;
//   - timing counters (wall_ns, worker_idle_ns) measure the host and
//     vary run to run.  Consumers that diff runs (determinism tests,
//     `ptest_cli --jobs N` vs serial) must compare only the former.
#pragma once

#include <cstdint>
#include <iterator>
#include <string>

// Header-only and dependency-free by design (see obs/histogram.hpp), so
// embedding histograms here does not invert the support <- obs layering
// at link time.
#include "ptest/obs/histogram.hpp"
#include "ptest/support/json.hpp"
#include "ptest/support/result.hpp"

namespace ptest::support {

/// The campaign's perf counters and distributions.
struct MetricsSnapshot {
  // Work counters (deterministic given seed/config).
  std::uint64_t sessions = 0;            ///< sessions executed
  std::uint64_t plan_cache_hits = 0;     ///< sessions served by a precompiled plan
  /// Plans run off: one per arm, or per session when not precompiled.  A
  /// fleet worker's cached plan counts too, so warm daemons match serial.
  std::uint64_t plan_compiles = 0;
  std::uint64_t patterns_generated = 0;  ///< test patterns sampled (kept)
  std::uint64_t dedup_accepted = 0;      ///< patterns accepted as new by dedup
  std::uint64_t dedup_rejected = 0;      ///< patterns rejected as replicas
  std::uint64_t ticks = 0;               ///< kernel ticks simulated (interleaving steps)
  /// Sampling scratch-reuse counters (work class — WalkScratch accounts
  /// reuse against per-session high-water marks, so the totals are a
  /// pure function of seed/config, identical for every `jobs` value and
  /// shard split even though the physical buffer reuse is scheduled).
  std::uint64_t scratch_reuse_hits = 0;       ///< sample_into calls served from warm buffers
  std::uint64_t sample_alloc_bytes_saved = 0; ///< walk-buffer bytes those hits avoided

  // PFA model-coverage counters (work class: deterministic given
  // seed/config).  Filled by campaigns that track structural coverage of
  // the compiled test model (CampaignOptions::track_coverage); all zero
  // when tracking is off.  Totals sum over the campaign's arms, so a
  // single-arm campaign reads directly as its plan's coverage.
  std::uint64_t pfa_states = 0;              ///< automaton states (total)
  std::uint64_t pfa_states_covered = 0;      ///< states some pattern visited
  std::uint64_t pfa_transitions = 0;         ///< transitions (total)
  std::uint64_t pfa_transitions_covered = 0; ///< transitions exercised
  std::uint64_t pfa_ngrams = 0;              ///< distinct symbol n-grams seen

  // Guided-campaign counters (work class).  Zero outside guided mode.
  std::uint64_t epochs = 0;            ///< refinement epochs executed
  std::uint64_t plan_refinements = 0;  ///< re-weighted plans recompiled

  // Timing counters (host-dependent, vary run to run).
  std::uint64_t wall_ns = 0;             ///< wall time of the measured region
  std::uint64_t worker_idle_ns = 0;      ///< summed time workers parked idle
  std::uint64_t worker_threads = 0;      ///< effective parallelism (incl. caller)

  // Fleet counters, filled by fleet::Coordinator when a campaign ran as
  // coordinator + worker shards; all zero in single-process runs.
  // fleet_shards/fleet_retries are work-class given a healthy
  // transport; the *_ns counters time the host.
  std::uint64_t fleet_shards = 0;        ///< shard slices merged
  std::uint64_t fleet_retries = 0;       ///< assignments re-issued
  std::uint64_t fleet_corpus_merge_ns = 0;  ///< corpus merge latency (summed)
  std::uint64_t fleet_shard_wall_max_ns = 0;  ///< slowest shard's wall time
  std::uint64_t fleet_shard_wall_min_ns = 0;  ///< fastest shard's wall time

  // Latency/work distributions (obs::Histogram: 64 power-of-two log
  // buckets, bucket-wise merge).  ticks_hist is work class — per-session
  // kernel ticks are a pure function of seed/config, so its buckets are
  // bit-identical across jobs values and shard splits and it is safe for
  // determinism gates.  The *_hist latency distributions are timing
  // class: carried and merged everywhere, never bit-compared.
  obs::Histogram ticks_hist;           ///< per-session kernel ticks
  obs::Histogram session_wall_hist;    ///< per-session wall time (ns)
  obs::Histogram corpus_merge_hist;    ///< per-shard corpus merge (ns)
  obs::Histogram frame_rtt_hist;       ///< assign->result round trip (ns)
  obs::Histogram transport_send_hist;  ///< successful transport sends (ns)

  [[nodiscard]] double sessions_per_second() const noexcept {
    return wall_ns == 0 ? 0.0
                        : static_cast<double>(sessions) * 1e9 /
                              static_cast<double>(wall_ns);
  }
  /// Simulated kernel ticks per wall second — the throughput lever the
  /// coroutine pcore port targets (each tick is one interleaving step).
  [[nodiscard]] double interleavings_per_sec() const noexcept {
    return wall_ns == 0 ? 0.0
                        : static_cast<double>(ticks) * 1e9 /
                              static_cast<double>(wall_ns);
  }
  [[nodiscard]] double wall_seconds() const noexcept {
    return static_cast<double>(wall_ns) * 1e-9;
  }
  [[nodiscard]] double worker_idle_seconds() const noexcept {
    return static_cast<double>(worker_idle_ns) * 1e-9;
  }
  [[nodiscard]] double state_coverage() const noexcept {
    return pfa_states == 0 ? 0.0
                           : static_cast<double>(pfa_states_covered) /
                                 static_cast<double>(pfa_states);
  }
  [[nodiscard]] double transition_coverage() const noexcept {
    return pfa_transitions == 0
               ? 0.0
               : static_cast<double>(pfa_transitions_covered) /
                     static_cast<double>(pfa_transitions);
  }
  /// Slowest shard / fastest shard wall-time ratio (1.0 = perfectly
  /// balanced; 0 when the campaign did not run as a fleet).  "Ran as a
  /// fleet" is keyed on fleet_shards, not on a zero min: a shard whose
  /// wall time rounds to 0ns is a genuine fastest shard (floored at 1ns
  /// so the ratio stays finite), not an unset sentinel.
  [[nodiscard]] double fleet_shard_imbalance() const noexcept {
    if (fleet_shards == 0) return 0.0;
    const std::uint64_t floor_min =
        fleet_shard_wall_min_ns == 0 ? 1 : fleet_shard_wall_min_ns;
    return static_cast<double>(fleet_shard_wall_max_ns) /
           static_cast<double>(floor_min);
  }

  /// Folds `other` into this record, field by field, as the table
  /// below says.  An all-zero record is the identity: merging into one
  /// copies `other`, which is what gives kFirst and kMin their first
  /// value.
  void merge(const MetricsSnapshot& other);

  /// Human-readable block: one "  name value" line per nonzero counter
  /// and non-empty histogram, then the derived ratios and rates.
  [[nodiscard]] std::string render() const;

  /// Emits the nonzero table fields as one JSON object value (caller
  /// supplies the surrounding key()/array slot): counters as numbers,
  /// non-empty histograms as sparse [bucket, count] pairs.
  void write_json(JsonWriter& out) const;

  /// Inverse of write_json; an absent key reads as zero.  The object may
  /// come from another process (fleet frames), so a present key must be
  /// a non-negative integer and every bucket index in range.
  [[nodiscard]] static Result<MetricsSnapshot, std::string> read_json(
      const JsonValue* node);

  friend bool operator==(const MetricsSnapshot&,
                         const MetricsSnapshot&) = default;
};

/// How merge() folds one counter of two records.
enum class MetricsMerge : std::uint8_t {
  kSum,    ///< totals over the merged records
  kMax,    ///< largest value
  kMin,    ///< smallest value
  kFirst,  ///< the first record's value (every shard runs the one plan)
};

struct MetricsCounter {
  const char* key;
  std::uint64_t MetricsSnapshot::*field;
  MetricsMerge merge;
};

/// Histograms always merge bucket-wise.
struct MetricsHistogram {
  const char* key;
  obs::Histogram MetricsSnapshot::*field;
};

/// The field table.  Adding a metric is one row here plus the line that
/// records it; merge, JSON, the fleet wire and render() follow.
inline constexpr MetricsCounter kMetricsCounters[] = {
    {"sessions", &MetricsSnapshot::sessions, MetricsMerge::kSum},
    {"plan_cache_hits", &MetricsSnapshot::plan_cache_hits, MetricsMerge::kSum},
    {"plan_compiles", &MetricsSnapshot::plan_compiles, MetricsMerge::kFirst},
    {"patterns_generated", &MetricsSnapshot::patterns_generated,
     MetricsMerge::kSum},
    {"dedup_accepted", &MetricsSnapshot::dedup_accepted, MetricsMerge::kSum},
    {"dedup_rejected", &MetricsSnapshot::dedup_rejected, MetricsMerge::kSum},
    {"ticks", &MetricsSnapshot::ticks, MetricsMerge::kSum},
    {"scratch_reuse_hits", &MetricsSnapshot::scratch_reuse_hits,
     MetricsMerge::kSum},
    {"sample_alloc_bytes_saved", &MetricsSnapshot::sample_alloc_bytes_saved,
     MetricsMerge::kSum},
    {"pfa_states", &MetricsSnapshot::pfa_states, MetricsMerge::kSum},
    {"pfa_states_covered", &MetricsSnapshot::pfa_states_covered,
     MetricsMerge::kSum},
    {"pfa_transitions", &MetricsSnapshot::pfa_transitions, MetricsMerge::kSum},
    {"pfa_transitions_covered", &MetricsSnapshot::pfa_transitions_covered,
     MetricsMerge::kSum},
    {"pfa_ngrams", &MetricsSnapshot::pfa_ngrams, MetricsMerge::kSum},
    {"epochs", &MetricsSnapshot::epochs, MetricsMerge::kSum},
    {"plan_refinements", &MetricsSnapshot::plan_refinements,
     MetricsMerge::kSum},
    {"wall_ns", &MetricsSnapshot::wall_ns, MetricsMerge::kSum},
    {"worker_idle_ns", &MetricsSnapshot::worker_idle_ns, MetricsMerge::kSum},
    {"worker_threads", &MetricsSnapshot::worker_threads, MetricsMerge::kMax},
    {"fleet_shards", &MetricsSnapshot::fleet_shards, MetricsMerge::kSum},
    {"fleet_retries", &MetricsSnapshot::fleet_retries, MetricsMerge::kSum},
    {"fleet_corpus_merge_ns", &MetricsSnapshot::fleet_corpus_merge_ns,
     MetricsMerge::kSum},
    {"fleet_shard_wall_max_ns", &MetricsSnapshot::fleet_shard_wall_max_ns,
     MetricsMerge::kMax},
    {"fleet_shard_wall_min_ns", &MetricsSnapshot::fleet_shard_wall_min_ns,
     MetricsMerge::kMin},
};

inline constexpr MetricsHistogram kMetricsHistograms[] = {
    {"ticks_hist", &MetricsSnapshot::ticks_hist},
    {"session_wall_hist", &MetricsSnapshot::session_wall_hist},
    {"corpus_merge_hist", &MetricsSnapshot::corpus_merge_hist},
    {"frame_rtt_hist", &MetricsSnapshot::frame_rtt_hist},
    {"transport_send_hist", &MetricsSnapshot::transport_send_hist},
};

static_assert(sizeof(MetricsSnapshot) ==
                  std::size(kMetricsCounters) * sizeof(std::uint64_t) +
                      std::size(kMetricsHistograms) * sizeof(obs::Histogram),
              "every MetricsSnapshot field needs a row in the field table");

}  // namespace ptest::support
