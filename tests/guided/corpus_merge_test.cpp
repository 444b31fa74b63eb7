// CoverageCorpus::merge algebra: the fold that lets fleet shards (and
// resumed campaigns) combine their corpora in any order.  The contract
// under test: for corpora that agree on scenario, seed and history the
// merge is commutative, associative and idempotent; disagreement errors
// and leaves the target unchanged; and the shard corpora of a split run
// merge into byte-for-byte the corpus of the uninterrupted run.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "ptest/core/campaign.hpp"
#include "ptest/fleet/coordinator.hpp"
#include "ptest/guided/corpus.hpp"

namespace ptest::guided {
namespace {

CoverageCorpus span_corpus(std::uint64_t base, std::uint64_t sessions,
                           std::uint64_t detections) {
  CoverageCorpus corpus;
  corpus.set_scenario("merge-fixture");
  corpus.set_seed(7);
  EXPECT_FALSE(corpus.add_span(base, sessions, detections).has_value());
  return corpus;
}

/// merge() as a value operation, asserting success.
CoverageCorpus merged(CoverageCorpus left, const CoverageCorpus& right) {
  const auto error = left.merge(right);
  EXPECT_FALSE(error.has_value()) << *error;
  return left;
}

TEST(CorpusMerge, IsCommutative) {
  CoverageCorpus a = span_corpus(0, 10, 2);
  a.add_transition(0, 1);
  a.add_transition(1, 2);
  a.add_fingerprint(0xaaa);
  CoverageCorpus b = span_corpus(10, 6, 1);
  b.add_transition(1, 2);
  b.add_transition(2, 0);
  b.add_fingerprint(0xbbb);
  EXPECT_EQ(merged(a, b).to_json(), merged(b, a).to_json());
}

TEST(CorpusMerge, IsAssociative) {
  const CoverageCorpus a = span_corpus(0, 4, 1);
  const CoverageCorpus b = span_corpus(4, 4, 0);
  const CoverageCorpus c = span_corpus(8, 4, 2);
  EXPECT_EQ(merged(merged(a, b), c).to_json(),
            merged(a, merged(b, c)).to_json());
}

TEST(CorpusMerge, SelfMergeIsIdempotent) {
  CoverageCorpus a = span_corpus(3, 9, 1);
  a.add_transition(5, 5);
  const std::string before = a.to_json();
  EXPECT_EQ(merged(a, a).to_json(), before);
  EXPECT_EQ(a.sessions(), 9u);  // the span did not double-count
}

TEST(CorpusMerge, ContiguousSpansCoalesceIntoOne) {
  const CoverageCorpus joined = merged(span_corpus(0, 8, 1),
                                       span_corpus(8, 8, 2));
  ASSERT_EQ(joined.spans().size(), 1u);
  EXPECT_EQ(joined.spans()[0].base, 0u);
  EXPECT_EQ(joined.spans()[0].sessions, 16u);
  EXPECT_EQ(joined.spans()[0].detections, 3u);
  EXPECT_EQ(joined.sessions(), 16u);
  EXPECT_EQ(joined.detections(), 3u);
}

TEST(CorpusMerge, ContainedSpansAreAbsorbed) {
  // [0, 16) already covers [4, 8): the contained report is redundant.
  const CoverageCorpus whole = span_corpus(0, 16, 3);
  CoverageCorpus part;
  part.set_scenario("merge-fixture");
  part.set_seed(7);
  ASSERT_FALSE(part.add_span(4, 4, 1).has_value());
  const CoverageCorpus out = merged(whole, part);
  ASSERT_EQ(out.spans().size(), 1u);
  EXPECT_EQ(out.spans()[0].sessions, 16u);
  EXPECT_EQ(out.detections(), 3u);
  // Merging the other way supersedes the fragment with the whole.
  EXPECT_EQ(merged(part, whole).to_json(), out.to_json());
}

TEST(CorpusMerge, PartialSpanOverlapIsAnErrorAndLeavesTheTargetIntact) {
  CoverageCorpus a = span_corpus(0, 10, 1);
  const std::string before = a.to_json();
  const CoverageCorpus overlapping = span_corpus(5, 10, 1);
  EXPECT_TRUE(a.merge(overlapping).has_value());
  EXPECT_EQ(a.to_json(), before);
}

TEST(CorpusMerge, SameSpanWithDifferentDetectionsIsAnError) {
  CoverageCorpus a = span_corpus(0, 10, 1);
  const CoverageCorpus liar = span_corpus(0, 10, 2);
  EXPECT_TRUE(a.merge(liar).has_value());
}

TEST(CorpusMerge, ScenarioAndSeedConflictsAreErrors) {
  CoverageCorpus a = span_corpus(0, 4, 0);
  CoverageCorpus other_scenario;
  other_scenario.set_scenario("someone-else");
  EXPECT_TRUE(a.merge(other_scenario).has_value());
  CoverageCorpus other_seed;
  other_seed.set_scenario("merge-fixture");
  other_seed.set_seed(8);
  EXPECT_TRUE(a.merge(other_seed).has_value());
  // An unlabeled, unstamped corpus merges fine and a adopts nothing new.
  CoverageCorpus blank;
  blank.add_transition(9, 9);
  EXPECT_FALSE(a.merge(blank).has_value());
  EXPECT_TRUE(a.covers(9, 9));
}

TEST(CorpusMerge, MergingIntoABlankCorpusAdoptsLabelAndSeed) {
  CoverageCorpus blank;
  const CoverageCorpus labeled = span_corpus(0, 4, 1);
  ASSERT_FALSE(blank.merge(labeled).has_value());
  EXPECT_EQ(blank.scenario(), "merge-fixture");
  ASSERT_TRUE(blank.seed().has_value());
  EXPECT_EQ(*blank.seed(), 7u);
}

TEST(CorpusMerge, EpochHistoriesMergeByPrefixRule) {
  EpochRecord first;
  first.sessions = 8;
  first.detections = 1;
  first.transitions = {{0, 1}};
  EpochRecord second;
  second.sessions = 8;
  second.detections = 2;
  second.transitions = {{1, 2}};

  CoverageCorpus shorter;
  shorter.add_epoch(first);
  CoverageCorpus longer;
  longer.add_epoch(first);
  longer.add_epoch(second);
  // Prefix on either side: the longer history wins both ways.
  EXPECT_EQ(merged(shorter, longer).epochs().size(), 2u);
  EXPECT_EQ(merged(longer, shorter).epochs().size(), 2u);
  EXPECT_EQ(merged(shorter, longer).sessions(), 16u);

  // Divergent histories cannot merge.
  EpochRecord divergent = second;
  divergent.detections = 99;
  CoverageCorpus rival;
  rival.add_epoch(first);
  rival.add_epoch(divergent);
  EXPECT_TRUE(longer.merge(rival).has_value());
}

// ---------------------------------------------------------------------------
// The fleet contract, end to end: shard corpora of a split scenario run
// merge into exactly the uninterrupted run's corpus.

void expect_split_run_merges_to_whole(std::size_t jobs) {
  const std::string scenario = "philosophers-deadlock";
  const std::size_t budget = 16;
  core::CampaignOptions options;
  options.budget = budget;
  options.jobs = jobs;

  auto whole = core::Campaign::run_scenario(scenario, options);
  ASSERT_TRUE(whole.ok()) << whole.error();
  const core::ShardSlice whole_slice{.index = 0, .run_base = 0,
                                     .sessions = budget};
  auto reference = fleet::shard_corpus(scenario, whole_slice, whole.value());
  ASSERT_TRUE(reference.ok()) << reference.error();

  const auto slices = core::Campaign::plan_shards(budget, 2);
  ASSERT_EQ(slices.size(), 2u);
  CoverageCorpus combined;
  // Merge in reverse shard order, to also exercise order-independence.
  for (auto it = slices.rbegin(); it != slices.rend(); ++it) {
    auto part = core::Campaign::run_scenario_slice(scenario, *it, options);
    ASSERT_TRUE(part.ok()) << part.error();
    auto corpus = fleet::shard_corpus(scenario, *it, part.value());
    ASSERT_TRUE(corpus.ok()) << corpus.error();
    const auto error = combined.merge(corpus.value());
    ASSERT_FALSE(error.has_value()) << *error;
  }
  EXPECT_EQ(combined.to_json(), reference.value().to_json());
}

TEST(CorpusMerge, SplitRunEqualsUninterruptedRunSerially) {
  expect_split_run_merges_to_whole(1);
}

TEST(CorpusMerge, SplitRunEqualsUninterruptedRunWithWorkerThreads) {
  expect_split_run_merges_to_whole(4);
}

TEST(CorpusMerge, SpansSurviveTheJsonRoundTrip) {
  CoverageCorpus a = span_corpus(0, 8, 1);
  ASSERT_FALSE(a.add_span(12, 4, 0).has_value());  // disjoint: two spans
  const auto reloaded = CoverageCorpus::from_json(a.to_json());
  ASSERT_TRUE(reloaded.ok()) << reloaded.error();
  EXPECT_EQ(reloaded.value().spans(), a.spans());
  EXPECT_EQ(reloaded.value().to_json(), a.to_json());
}

TEST(CorpusMerge, FromJsonRejectsMalformedSpans) {
  const CoverageCorpus a = span_corpus(0, 8, 1);
  const std::string good = a.to_json();
  // Splice structurally valid JSON with bad span payloads in.
  const auto corrupt = [&](const std::string& spans) {
    std::string text = good;
    const auto at = text.find("\"spans\"");
    const auto open = text.find('[', at);
    const auto close = text.find(']', open);
    text.replace(open, close - open + 1, spans);
    return text;
  };
  // Zero-length span, detections > sessions, unsorted pair, overflow.
  EXPECT_FALSE(CoverageCorpus::from_json(corrupt("[[0, 0, 0]]")).ok());
  EXPECT_FALSE(CoverageCorpus::from_json(corrupt("[[0, 2, 3]]")).ok());
  EXPECT_FALSE(
      CoverageCorpus::from_json(corrupt("[[8, 4, 0], [0, 4, 0]]")).ok());
  EXPECT_FALSE(CoverageCorpus::from_json(corrupt("[[0, 2]]")).ok());
}

}  // namespace
}  // namespace ptest::guided
