// Per-cell memory map: the stage-2 view Jailhouse programs for each cell.
//
// A cell config lists memory regions with Jailhouse-style access flags;
// the hypervisor turns them into stage-2 mappings. Any guest access outside
// its regions (or violating permissions) raises a stage-2 data abort with
// EC 0x24 — the very trap class the paper's experiments exercise.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace mcs::mem {

using PhysAddr = std::uint64_t;
using GuestAddr = std::uint64_t;

/// Jailhouse memory-region flags (names follow the cell-config macros).
enum MemFlags : std::uint32_t {
  kMemRead = 1u << 0,      // JAILHOUSE_MEM_READ
  kMemWrite = 1u << 1,     // JAILHOUSE_MEM_WRITE
  kMemExecute = 1u << 2,   // JAILHOUSE_MEM_EXECUTE
  kMemDma = 1u << 3,       // JAILHOUSE_MEM_DMA
  kMemIo = 1u << 4,        // JAILHOUSE_MEM_IO (device window)
  kMemCommRegion = 1u << 5,// JAILHOUSE_MEM_COMM_REGION
  kMemRootShared = 1u << 6,// JAILHOUSE_MEM_ROOTSHARED (ivshmem backing)
  kMemLoadable = 1u << 7,  // JAILHOUSE_MEM_LOADABLE
};

/// Type of access being checked.
enum class Access : std::uint8_t { Read, Write, Execute };

/// One contiguous mapping: guest window [virt_start, virt_start+size) →
/// physical [phys_start, phys_start+size), with access flags.
struct MemRegion {
  PhysAddr phys_start = 0;
  GuestAddr virt_start = 0;
  std::uint64_t size = 0;
  std::uint32_t flags = 0;
  std::string name;  ///< for logs/reports ("ram", "uart", "ivshmem", ...)

  [[nodiscard]] bool operator==(const MemRegion&) const = default;

  [[nodiscard]] bool contains(GuestAddr addr, std::uint64_t len = 1) const noexcept {
    return addr >= virt_start && len <= size && addr - virt_start <= size - len;
  }
  [[nodiscard]] bool overlaps_guest(const MemRegion& other) const noexcept {
    return virt_start < other.virt_start + other.size &&
           other.virt_start < virt_start + size;
  }
  [[nodiscard]] bool overlaps_phys(const MemRegion& other) const noexcept {
    return phys_start < other.phys_start + other.size &&
           other.phys_start < phys_start + size;
  }
  [[nodiscard]] bool allows(Access access) const noexcept {
    switch (access) {
      case Access::Read: return (flags & kMemRead) != 0;
      case Access::Write: return (flags & kMemWrite) != 0;
      case Access::Execute: return (flags & kMemExecute) != 0;
    }
    return false;
  }
};

/// Result of a successful stage-2 walk.
struct Translation {
  PhysAddr phys = 0;
  const MemRegion* region = nullptr;
};

/// Reason a stage-2 walk failed; becomes the ISS of the data abort.
enum class FaultKind : std::uint8_t { NoMapping, Permission };

struct Stage2Fault {
  GuestAddr addr = 0;
  Access access = Access::Read;
  FaultKind kind = FaultKind::NoMapping;

  [[nodiscard]] bool operator==(const Stage2Fault&) const = default;
};

/// Ordered collection of regions forming one cell's guest-physical view.
///
/// Alongside the insertion-ordered `regions_` (the observable order cell
/// configs and reports rely on), the map keeps a virt-sorted index:
/// regions are pairwise non-overlapping in guest space, so the region
/// with the greatest virt_start ≤ addr is the *only* possible match —
/// translate() and add_region()'s overlap check are both O(log n).
///
/// Every mutation bumps `generation_`; AddressSpace TLBs cache region
/// pointers keyed by that counter, so cell create/destroy and root-cell
/// carve-outs invalidate every cached translation at once.
class MemoryMap {
 public:
  /// Add a region; rejects zero-sized or guest-overlapping regions.
  util::Status add_region(MemRegion region);

  /// Remove all regions whose name matches (used by cell destroy).
  std::size_t remove_regions_named(const std::string& name);

  /// Carve the physical range [start, start+size) out of this map — the
  /// Jailhouse "root cell shrink" at cell create: the root loses access to
  /// memory loaned to a new cell. Overlapping regions are split; the
  /// removed intersections are returned (with their original flags and
  /// names) so cell destroy can hand them back verbatim.
  std::vector<MemRegion> carve_out_phys(PhysAddr start, std::uint64_t size);

  /// True iff every byte of the physical range is covered by some region
  /// of this map (Jailhouse requires cell memory to be backed by root
  /// memory).
  [[nodiscard]] bool covers_phys(PhysAddr start, std::uint64_t size) const noexcept;

  [[nodiscard]] const std::vector<MemRegion>& regions() const noexcept {
    return regions_;
  }

  /// Walk: guest address + access type → physical address or fault.
  [[nodiscard]] util::Expected<Translation> translate(GuestAddr addr, Access access,
                                                      std::uint64_t len = 1) const;

  /// Last failed walk, for syndrome construction. Cleared by translate()
  /// on success.
  [[nodiscard]] const std::optional<Stage2Fault>& last_fault() const noexcept {
    return last_fault_;
  }

  /// True iff any region maps (any part of) the given physical range.
  [[nodiscard]] bool maps_phys(PhysAddr phys, std::uint64_t len = 1) const noexcept;

  /// Mutation counter: bumped by every add_region / remove_regions_named /
  /// carve_out_phys / clear / restore_from, *unconditionally* — a cached
  /// region pointer is valid iff its recorded generation still matches.
  /// Never zero (so a TLB entry with gen 0 can never validate).
  [[nodiscard]] std::uint64_t generation() const noexcept { return generation_; }

  void clear() noexcept {
    regions_.clear();
    sorted_.clear();
    last_fault_.reset();
    ++generation_;
  }

  // --- snapshot / restore (testbed warm-start) --------------------------
  struct Snapshot {
    std::vector<MemRegion> regions;
    std::optional<Stage2Fault> last_fault;

    bool operator==(const Snapshot&) const = default;
  };

  void snapshot_to(Snapshot& out) const {
    out.regions = regions_;
    out.last_fault = last_fault_;
  }

  /// Plain assignment (the region vector and its names reuse their
  /// capacity, so the steady restore path allocates nothing), then the
  /// derived sorted index is rebuilt. The generation is bumped even when
  /// nothing changed — restore moves the map to a (possibly) different
  /// point in time, so every cached translation must revalidate (the
  /// stale-TLB-after-restore tests pin this).
  void restore_from(const Snapshot& snapshot) {
    regions_ = snapshot.regions;
    rebuild_sorted();
    last_fault_ = snapshot.last_fault;
    ++generation_;
  }

 private:
  /// Index of the region with the greatest virt_start ≤ addr, or npos.
  [[nodiscard]] std::size_t candidate_for(GuestAddr addr) const noexcept;
  void rebuild_sorted();

  std::vector<MemRegion> regions_;         ///< insertion order (observable)
  std::vector<std::uint32_t> sorted_;      ///< indexes into regions_, by virt_start
  std::uint64_t generation_ = 1;
  mutable std::optional<Stage2Fault> last_fault_;
};

}  // namespace mcs::mem
