// Fixed-capacity message queue with blocking semantics (xQueue-like).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/ring_buffer.hpp"

namespace mcs::guest::rtos {

using QueueId = std::size_t;

/// 32-bit item queue; capacity fixed at creation.
class MessageQueue {
 public:
  explicit MessageQueue(std::size_t capacity) : capacity_(capacity) {}

  [[nodiscard]] bool full() const noexcept { return items_.size() >= capacity_; }
  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Non-blocking primitive ops; the kernel layers blocking on top.
  bool try_send(std::uint32_t item);
  std::optional<std::uint32_t> try_receive();

  // -- statistics ---------------------------------------------------------
  std::uint64_t sends = 0;
  std::uint64_t receives = 0;
  std::uint64_t send_failures = 0;  ///< attempted sends while full

  /// A queue is plain state: the kernel keeps its queues by value in its
  /// state block, so a queue's snapshot is a copy of the queue. Item
  /// storage never exceeds `capacity_` entries and a vector's capacity
  /// never shrinks, so restoring a captured fill level reuses it.
  bool operator==(const MessageQueue&) const = default;

 private:
  std::size_t capacity_;
  std::vector<std::uint32_t> items_;
};

}  // namespace mcs::guest::rtos
