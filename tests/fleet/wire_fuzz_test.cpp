// Fuzzing of the fleet wire decoder: frames arrive from other processes,
// so decode() must survive any byte string.  Real frames of every kind
// are mutated by seeded bit flips, truncations, byte inserts/deletes and
// duplicated object keys; each mutant must either be rejected, or decode
// to a frame whose encoding is a fixed point — encode(decode(x)) decodes
// again and re-encodes to the same bytes.  Crashes and sanitizer reports
// fail the suite.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ptest/core/campaign.hpp"
#include "ptest/fleet/wire.hpp"
#include "ptest/support/rng.hpp"

namespace ptest::fleet {
namespace {

/// Mutants per seed: a few seconds for the whole suite under ASan.
constexpr int kMutantsPerSeed = 4000;

std::string reencode(const DecodedFrame& frame) {
  switch (frame.kind) {
    case FrameKind::kAssign:
      return encode(frame.assign);
    case FrameKind::kResult:
      return encode(frame.result);
    case FrameKind::kCampaignEnd:
      return encode_campaign_end();
    case FrameKind::kShutdown:
      return encode_shutdown();
  }
  return {};
}

/// Real frames of every kind: an assign with every optional field, a
/// result carrying a genuine slice (failures, coverage, sparse metrics)
/// and a trace document, an error result, campaign-end and shutdown.
std::vector<std::string> seed_frames() {
  AssignFrame assign;
  assign.seq = 7;
  assign.slice = {.index = 1, .run_base = 12, .sessions = 12};
  assign.scenario = "philosophers-deadlock";
  assign.seed = 0xfeedULL;
  assign.jobs = 2;
  assign.trace = true;

  auto ran = core::Campaign::run_scenario_slice(
      "philosophers-deadlock", {.index = 0, .run_base = 0, .sessions = 8});
  EXPECT_TRUE(ran.ok());
  ResultFrame result;
  result.seq = 3;
  result.node = "fuzz-w0";
  result.wall_ns = 40'000;
  result.trace_json = R"({"events":[],"dropped":0})";
  if (ran.ok()) result.result = std::move(ran.value());
  EXPECT_FALSE(result.result.distinct_failures.empty());

  ResultFrame error;
  error.seq = 4;
  error.shard = 1;
  error.error = "slice failed";

  return {encode(assign), encode(result), encode(error), encode_campaign_end(),
          encode_shutdown()};
}

/// Offsets of every object key (its opening quote) in `text`, found by
/// a scan that skips string contents.
std::vector<std::size_t> key_offsets(const std::string& text) {
  std::vector<std::size_t> keys;
  char previous = 0;  // last structural character outside strings
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '"') {
      if (text[i] != ' ') previous = text[i];
      continue;
    }
    if (previous == '{' || previous == ',') keys.push_back(i);
    for (++i; i < text.size() && text[i] != '"'; ++i) {
      if (text[i] == '\\') ++i;
    }
    previous = '"';
  }
  return keys;
}

/// End of the member starting at `key`: the ',' or '}' that closes it at
/// its own nesting depth (string contents skipped), or npos.
std::size_t member_end(const std::string& text, std::size_t key) {
  int depth = 0;
  for (std::size_t i = key; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '"') {
      for (++i; i < text.size() && text[i] != '"'; ++i) {
        if (text[i] == '\\') ++i;
      }
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if ((c == '}' || c == ']') && depth > 0) {
      --depth;
    } else if ((c == ',' || c == '}') && depth == 0) {
      return i;
    }
  }
  return std::string::npos;
}

std::string mutate(std::string text, support::Rng& rng) {
  static constexpr char kStructural[] = "{}[]\":,-0123456789.eE\\ ";
  const auto position = [&](std::size_t extra) {
    return static_cast<std::size_t>(rng.below(text.size() + extra));
  };
  const std::uint64_t edits = 1 + rng.below(3);
  for (std::uint64_t edit = 0; edit < edits; ++edit) {
    switch (rng.below(5)) {
      case 0:  // bit flip
        if (!text.empty()) {
          text[position(0)] ^= static_cast<char>(1u << rng.below(8));
        }
        break;
      case 1:  // truncation
        text.resize(position(1));
        break;
      case 2: {  // byte insert: JSON punctuation half the time
        const char byte =
            rng.below(2) == 0
                ? kStructural[rng.below(sizeof(kStructural) - 1)]
                : static_cast<char>(rng.below(256));
        text.insert(position(1), 1, byte);
        break;
      }
      case 3:  // delete a run of up to 8 bytes
        if (!text.empty()) text.erase(position(0), 1 + rng.below(8));
        break;
      default: {  // duplicate one "key":value member in place
        const std::vector<std::size_t> keys = key_offsets(text);
        if (keys.empty()) break;
        const std::size_t key = keys[rng.below(keys.size())];
        const std::size_t end = member_end(text, key);
        if (end == std::string::npos) break;
        text.insert(key, text.substr(key, end - key) + ",");
        break;
      }
    }
  }
  return text;
}

TEST(WireFuzz, SeedFramesAreFixedPoints) {
  for (const std::string& frame : seed_frames()) {
    const auto decoded = decode(frame);
    ASSERT_TRUE(decoded.ok()) << decoded.error();
    EXPECT_EQ(reencode(decoded.value()), frame);
  }
}

class WireFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireFuzz, MutantsRejectOrReencodeToAFixedPoint) {
  const std::vector<std::string> seeds = seed_frames();
  support::Rng rng(GetParam());
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < kMutantsPerSeed; ++i) {
    const std::string input = mutate(seeds[rng.below(seeds.size())], rng);
    const auto decoded = decode(input);
    if (!decoded.ok()) {
      ++rejected;
      continue;
    }
    ++accepted;
    const std::string once = reencode(decoded.value());
    const auto again = decode(once);
    ASSERT_TRUE(again.ok()) << again.error() << "\nmutant: " << input;
    ASSERT_EQ(reencode(again.value()), once) << "mutant: " << input;
  }
  // Both outcomes must be exercised, or the mutator is too weak (all
  // accepted) or too destructive (all rejected) to test anything.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzz, ::testing::Values(3, 5, 8, 13));

}  // namespace
}  // namespace ptest::fleet
