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

  // --- snapshot / restore (testbed warm-start) --------------------------
  struct Snapshot {
    std::vector<std::uint32_t> items;
    std::uint64_t sends = 0;
    std::uint64_t receives = 0;
    std::uint64_t send_failures = 0;

    bool operator==(const Snapshot&) const = default;
  };

  void snapshot_to(Snapshot& out) const {
    out.items = items_;
    out.sends = sends;
    out.receives = receives;
    out.send_failures = send_failures;
  }

  /// Item storage never exceeds `capacity_` entries, so after a warm run
  /// the vector's capacity covers any captured fill level and the copy
  /// assignment below reuses it without allocating.
  void restore_from(const Snapshot& snapshot) {
    if (items_ != snapshot.items) items_ = snapshot.items;
    sends = snapshot.sends;
    receives = snapshot.receives;
    send_failures = snapshot.send_failures;
  }

 private:
  std::size_t capacity_;
  std::vector<std::uint32_t> items_;
};

}  // namespace mcs::guest::rtos
