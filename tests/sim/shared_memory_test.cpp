#include "ptest/sim/shared_memory.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace ptest::sim {
namespace {

TEST(SharedSramTest, ReadBackWrittenValues) {
  SharedSram sram(1024);
  sram.write<std::uint32_t>(0, 0xdeadbeef);
  sram.write<std::uint16_t>(8, 0x1234);
  EXPECT_EQ(sram.read<std::uint32_t>(0), 0xdeadbeefu);
  EXPECT_EQ(sram.read<std::uint16_t>(8), 0x1234u);
}

TEST(SharedSramTest, DefaultSizeMatchesOmap) {
  SharedSram sram;
  EXPECT_EQ(sram.size(), 250u * 1024u);
}

TEST(SharedSramTest, BoundsChecked) {
  SharedSram sram(16);
  EXPECT_THROW(sram.write<std::uint32_t>(13, 1), std::out_of_range);
  EXPECT_THROW((void)sram.read<std::uint64_t>(9), std::out_of_range);
  EXPECT_NO_THROW(sram.write<std::uint32_t>(12, 1));
  // offset + size wraps past SIZE_MAX; still out of range, not a read.
  const std::size_t huge = std::numeric_limits<std::size_t>::max() - 1;
  EXPECT_THROW((void)sram.read<std::uint32_t>(huge), std::out_of_range);
  EXPECT_THROW(sram.write<std::uint32_t>(huge, 1), std::out_of_range);
}

TEST(SharedSramTest, ReserveReturnsAlignedDisjointRegions) {
  SharedSram sram(256);
  const auto a = sram.reserve(10, 8);
  const auto b = sram.reserve(20, 8);
  EXPECT_EQ(a % 8, 0u);
  EXPECT_EQ(b % 8, 0u);
  EXPECT_GE(b, a + 10);
}

TEST(SharedSramTest, ReserveExhaustionThrows) {
  SharedSram sram(64);
  (void)sram.reserve(60);
  EXPECT_THROW((void)sram.reserve(8), std::length_error);
  // A size whose end wraps past SIZE_MAX must not hand out a region
  // overlapping the ones already reserved.
  EXPECT_THROW(
      (void)sram.reserve(std::numeric_limits<std::size_t>::max() - 4, 1),
      std::length_error);
  EXPECT_EQ(sram.available(), 4u);
}

TEST(SharedSramTest, ReserveRejectsBadAlignment) {
  SharedSram sram(64);
  EXPECT_THROW((void)sram.reserve(8, 3), std::invalid_argument);
  EXPECT_THROW((void)sram.reserve(8, 0), std::invalid_argument);
}

TEST(SharedSramTest, StructRoundTrip) {
  struct Pod {
    std::uint32_t a;
    std::uint16_t b;
    std::uint8_t c[2];
  };
  SharedSram sram(64);
  const Pod in{42, 7, {1, 2}};
  sram.write(16, in);
  const Pod out = sram.read<Pod>(16);
  EXPECT_EQ(out.a, 42u);
  EXPECT_EQ(out.b, 7u);
  EXPECT_EQ(out.c[1], 2u);
}

}  // namespace
}  // namespace ptest::sim
