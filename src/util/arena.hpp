// Monotonic bump allocator for run-scoped and board-scoped storage.
//
// The campaign hot path provisions the same objects over and over — DRAM
// pages, CPU blocks, per-run scratch — and the per-run cost is dominated
// by general-purpose heap churn, not by the bytes themselves. An Arena
// trades free() for reset(): allocation is a pointer bump into large
// blocks, nothing is ever freed individually, and reset() rewinds the
// whole arena to empty while keeping every block for the next run. After
// the first run warms the arena up, steady-state reuse performs zero heap
// allocations (asserted via util::AllocationObserver).
//
// Ownership rule: memory handed out by an arena lives until the *owner's*
// reset()/destruction, not the borrower's. Holders must not outlive the
// scope the arena models (a board, a run). Trivially-destructible payloads
// only, unless the caller runs destructors itself (Board does, for its
// CPU storage).
//
// Not thread-safe: every arena has exactly one owner (a board, a testbed);
// executor workers never share one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace mcs::util {

class Arena {
 public:
  /// Default block granularity: big enough that a whole testbed boot fits
  /// in a handful of blocks, small enough not to dwarf a board model.
  static constexpr std::size_t kDefaultBlockSize = 256 * 1024;

  explicit Arena(std::size_t block_size = kDefaultBlockSize) noexcept
      : block_size_(block_size == 0 ? kDefaultBlockSize : block_size) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocate `size` bytes at `align`. Never returns nullptr for
  /// size > 0 (grows by appending blocks); size 0 yields a unique,
  /// well-aligned pointer like operator new.
  [[nodiscard]] void* allocate(std::size_t size,
                               std::size_t align = alignof(std::max_align_t));

  /// Typed helper: uninitialised storage for `count` objects of T.
  template <typename T>
  [[nodiscard]] T* allocate_array(std::size_t count) {
    return static_cast<T*>(allocate(sizeof(T) * count, alignof(T)));
  }

  /// Construct a T in arena storage. The arena never runs destructors;
  /// the caller does, or T is trivially destructible.
  template <typename T, typename... Args>
  [[nodiscard]] T* create(Args&&... args) {
    return new (allocate(sizeof(T), alignof(T))) T(static_cast<Args&&>(args)...);
  }

  /// Rewind to empty. Every block is kept, so the next fill of the same
  /// shape allocates nothing from the heap. Outstanding pointers are
  /// invalidated (the ownership rule above).
  void reset() noexcept;

  /// A position in the allocation stream. Everything allocated before the
  /// mark survives a rewind_to(); everything after it is discarded. Lets
  /// long-lived storage (a testbed snapshot buffer) and run-scoped scratch
  /// coexist in one arena: allocate the long-lived part, take a mark, and
  /// rewind to it between runs instead of reset()ting the whole arena.
  struct Mark {
    std::size_t active = 0;       ///< block cursor at mark time
    std::size_t active_used = 0;  ///< that block's fill level
    std::size_t in_use = 0;       ///< bytes_in_use() at mark time

    bool operator==(const Mark&) const = default;
  };

  [[nodiscard]] Mark mark() const noexcept {
    return {active_, active_ < blocks_.size() ? blocks_[active_].used : 0,
            in_use_};
  }

  /// Rewind to a previously taken mark: allocations made after it are
  /// discarded (their pointers invalidated), allocations made before it
  /// are untouched. Blocks are kept, nothing is freed. The mark must come
  /// from this arena with no intervening reset()/release().
  void rewind_to(const Mark& mark) noexcept;

  /// Peak bytes_in_use() ever observed — sizing feedback for callers that
  /// partition one arena between snapshot storage and run scratch.
  [[nodiscard]] std::size_t high_water() const noexcept { return high_water_; }

  /// Drop the blocks themselves (cold teardown; tests).
  void release() noexcept;

  /// Bytes handed out since construction/reset (excludes alignment waste).
  [[nodiscard]] std::size_t bytes_in_use() const noexcept { return in_use_; }
  /// Total bytes owned across all blocks.
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t block_count() const noexcept { return blocks_.size(); }

 private:
  struct Block {
    std::unique_ptr<std::uint8_t[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  /// Make `blocks_[active_]` able to hold `size` more bytes at `align`,
  /// appending a block when every existing one is exhausted.
  Block& block_for(std::size_t size, std::size_t align);

  std::size_t block_size_;
  std::vector<Block> blocks_;
  std::size_t active_ = 0;  ///< cursor: blocks before it are full
  std::size_t in_use_ = 0;
  std::size_t capacity_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace mcs::util
