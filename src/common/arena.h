// Bump allocator with epoch reset — the backing store of the flat
// ingest plane (DESIGN.md §13).
//
// An Arena hands out raw memory from a chain of fixed-size blocks with a
// single pointer bump per allocation; nothing is freed individually.
// reset() starts a new epoch: the cursor returns to the first block and
// every block is retained for reuse, so a batch pipeline that builds one
// ObsBatch per upload reaches a steady state where serialization
// allocates nothing from the system allocator at all. high_water()
// reports the largest epoch ever seen — the number a bench baseline pins
// so allocation-behaviour regressions fail the gate, not just latency.
//
// Single-threaded, like the simulation that drives it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

namespace mps {

class Arena {
 public:
  /// `block_bytes` sizes the normal blocks; allocations larger than a
  /// block get a dedicated block of exactly their size.
  explicit Arena(std::size_t block_bytes = 64 * 1024)
      : block_bytes_(block_bytes == 0 ? 1 : block_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of storage aligned to `align` (a power of two),
  /// valid until reset(). Zero-byte requests get a distinct valid pointer.
  void* allocate(std::size_t bytes, std::size_t align = alignof(std::max_align_t)) {
    while (current_ < blocks_.size()) {
      Block& b = blocks_[current_];
      std::size_t aligned = (b.used + (align - 1)) & ~(align - 1);
      if (aligned + bytes <= b.size) {
        bump_epoch_bytes(aligned + bytes - b.used);
        b.used = aligned + bytes;
        return b.data.get() + aligned;
      }
      ++current_;
      if (current_ < blocks_.size()) blocks_[current_].used = 0;
    }
    // No block fits: grow by one (oversized requests get a snug block).
    Block b;
    b.size = bytes > block_bytes_ ? bytes : block_bytes_;
    // Not value-initialized: a fresh block is written before it is read,
    // so zero-filling it would only fault in pages nobody uses yet.
    b.data = std::make_unique_for_overwrite<std::byte[]>(b.size);
    b.used = bytes;
    blocks_.push_back(std::move(b));
    current_ = blocks_.size() - 1;
    bump_epoch_bytes(bytes);
    return blocks_.back().data.get();
  }

  /// Typed array of `n` default-constructible trivially-destructible Ts.
  template <typename T>
  T* alloc_array(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is never destructed");
    T* out = static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
    for (std::size_t i = 0; i < n; ++i) new (out + i) T();
    return out;
  }

  /// Copies `s` into the arena; the view stays valid until reset().
  std::string_view copy_string(std::string_view s) {
    char* out = static_cast<char*>(allocate(s.size(), 1));
    std::memcpy(out, s.data(), s.size());
    return {out, s.size()};
  }

  /// Epoch reset: everything allocated so far is invalidated, every
  /// block is kept for reuse. O(1).
  void reset() {
    for (Block& b : blocks_) b.used = 0;
    current_ = 0;
    epoch_bytes_ = 0;
    ++epoch_;
  }

  /// Bytes handed out in the current epoch (excluding alignment waste
  /// across block boundaries — the bump-pointer view of usage).
  std::size_t bytes_allocated() const { return epoch_bytes_; }

  /// Total capacity held across all blocks (survives reset()).
  std::size_t bytes_reserved() const {
    std::size_t total = 0;
    for (const Block& b : blocks_) total += b.size;
    return total;
  }

  /// Largest bytes_allocated() any epoch ever reached.
  std::size_t high_water() const { return high_water_; }

  /// Number of reset() calls so far.
  std::uint64_t epoch() const { return epoch_; }

  std::size_t block_count() const { return blocks_.size(); }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  /// Keeps epoch_bytes_ equal to the sum of the per-block cursors up to
  /// the current block by adding each cursor's advance.
  void bump_epoch_bytes(std::size_t advance) {
    epoch_bytes_ += advance;
    if (epoch_bytes_ > high_water_) high_water_ = epoch_bytes_;
  }

  std::size_t block_bytes_;
  std::vector<Block> blocks_;
  std::size_t current_ = 0;
  std::size_t epoch_bytes_ = 0;
  std::size_t high_water_ = 0;
  std::uint64_t epoch_ = 0;
};

}  // namespace mps
