// Arena: bump allocation, alignment, epoch reset and the
// allocation-free steady state the flat ingest plane relies on.
#include "common/arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

namespace mps {
namespace {

TEST(Arena, AllocateReturnsAlignedDistinctPointers) {
  Arena arena;
  void* p1 = arena.allocate(8, 8);
  void* p2 = arena.allocate(8, 8);
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);
  EXPECT_NE(p1, p2);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p1) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p2) % 8, 0u);
  EXPECT_EQ(arena.bytes_allocated(), 16u);
}

TEST(Arena, AlignmentPaddingAfterOddAllocation) {
  Arena arena;
  arena.allocate(1, 1);
  void* p = arena.allocate(sizeof(double), alignof(double));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % alignof(double), 0u);
}

TEST(Arena, AllocArrayDefaultConstructs) {
  Arena arena;
  std::uint32_t* xs = arena.alloc_array<std::uint32_t>(128);
  for (std::size_t i = 0; i < 128; ++i) EXPECT_EQ(xs[i], 0u);
  xs[0] = 7;
  xs[127] = 9;
  EXPECT_EQ(xs[0], 7u);
  EXPECT_EQ(xs[127], 9u);
}

TEST(Arena, CopyStringSurvivesAndMatches) {
  Arena arena;
  std::string original = "mobile-phone-sensing";
  std::string_view view = arena.copy_string(original);
  original.assign("clobbered");  // the copy must not alias the source
  EXPECT_EQ(view, "mobile-phone-sensing");
  EXPECT_EQ(arena.copy_string("").size(), 0u);
}

TEST(Arena, ResetRetainsBlocksAndBumpsEpoch) {
  Arena arena(1024);
  arena.allocate(900);
  arena.allocate(900);  // forces a second block
  std::size_t reserved = arena.bytes_reserved();
  std::size_t blocks = arena.block_count();
  EXPECT_GE(blocks, 2u);
  EXPECT_EQ(arena.epoch(), 0u);

  arena.reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), reserved);  // capacity retained
  EXPECT_EQ(arena.block_count(), blocks);
  EXPECT_EQ(arena.epoch(), 1u);
}

TEST(Arena, SteadyStateReusesBlocksAcrossEpochs) {
  Arena arena(4096);
  arena.allocate(3000);
  arena.reset();
  std::size_t blocks = arena.block_count();
  std::size_t reserved = arena.bytes_reserved();
  // Same-shaped epochs must never grow the arena again.
  for (int i = 0; i < 50; ++i) {
    arena.allocate(1000);
    arena.allocate(2000);
    arena.reset();
  }
  EXPECT_EQ(arena.block_count(), blocks);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
  EXPECT_EQ(arena.epoch(), 51u);
}

TEST(Arena, HighWaterTracksPeakEpochAcrossResets) {
  Arena arena(1024);
  arena.allocate(100);
  EXPECT_EQ(arena.high_water(), 100u);
  arena.reset();
  arena.allocate(700);
  EXPECT_EQ(arena.high_water(), 700u);
  arena.reset();
  arena.allocate(50);
  EXPECT_EQ(arena.high_water(), 700u);  // the peak survives smaller epochs
}

TEST(Arena, ByteCountsAcrossSeveralBlocksAndEpochs) {
  // bytes_allocated() is the sum of the per-block cursors up to the
  // current block: alignment padding inside a block counts, the unused
  // tail of a block that was skipped does not.
  Arena arena(1024);
  arena.allocate(1000);
  EXPECT_EQ(arena.bytes_allocated(), 1000u);
  arena.allocate(100, 8);  // does not fit: a second block
  EXPECT_EQ(arena.bytes_allocated(), 1100u);
  arena.allocate(3, 1);
  arena.allocate(8, 8);  // one byte of padding first
  EXPECT_EQ(arena.bytes_allocated(), 1112u);
  arena.allocate(2000);  // oversized: a snug third block
  EXPECT_EQ(arena.bytes_allocated(), 3112u);
  EXPECT_EQ(arena.high_water(), 3112u);
  EXPECT_EQ(arena.block_count(), 3u);

  arena.reset();
  arena.allocate(500);
  arena.allocate(600);  // skips to the retained second block
  EXPECT_EQ(arena.bytes_allocated(), 1100u);
  arena.allocate(1500);  // skips to the retained 2000-byte block
  EXPECT_EQ(arena.bytes_allocated(), 2600u);
  EXPECT_EQ(arena.high_water(), 3112u);
  arena.allocate(1000);  // no retained block left: a fourth
  EXPECT_EQ(arena.bytes_allocated(), 3600u);
  EXPECT_EQ(arena.high_water(), 3600u);
  EXPECT_EQ(arena.block_count(), 4u);
  EXPECT_EQ(arena.bytes_reserved(), 1024u + 1024u + 2000u + 1024u);
}

TEST(Arena, OversizedAllocationGetsSnugBlock) {
  Arena arena(256);
  std::size_t big = 10 * 1024;
  void* p = arena.allocate(big);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xAB, big);  // the whole range must be writable
  EXPECT_GE(arena.bytes_reserved(), big);
  EXPECT_EQ(arena.bytes_allocated(), big);
}

}  // namespace
}  // namespace mps
