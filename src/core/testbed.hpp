// Testbed: the paper's hardware/software setup in one object.
//
// "The tested hardware comprises a Banana PI [...]. We evaluated Jailhouse
// v0.12 with Linux Kernel v5.10 [...]. The test plan was executed by
// exercising a workload consisting of a root cell where the general-
// purpose Linux was running and a non-root cell in which we run FreeRTOS
// [...]. We statically assigned the board CPU core 0 to the root cell and
// the CPU core 1 to the non-root cell."
//
// The board itself is pluggable: by default the paper's Banana Pi, but any
// platform::Board (e.g. the 4-CPU quad-a7 variant) can be injected, in
// which case a *secondary* non-root cell can run concurrently on its own
// core and the two cells can exchange ivshmem traffic.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "guests/freertos_image.hpp"
#include "guests/linux_root.hpp"
#include "guests/osek_image.hpp"
#include "hypervisor/config_text.hpp"
#include "hypervisor/hypervisor.hpp"
#include "hypervisor/machine.hpp"
#include "platform/board.hpp"
#include "util/status.hpp"

namespace mcs::fi {

/// Where the root driver "copies" the non-root cell configs (addresses in
/// root RAM passed to the create hypercall).
inline constexpr std::uint64_t kFreeRtosConfigAddr = 0x4800'0000;
inline constexpr std::uint64_t kOsekConfigAddr = 0x4810'0000;

/// Harness-side counters for the ivshmem cross-cell-traffic protocol
/// (filled by the ivshmem-traffic scenario, classified by the monitor).
struct IvshmemTrafficStats {
  std::uint64_t sent = 0;             ///< messages queued on either ring
  std::uint64_t received = 0;         ///< messages popped and validated OK
  std::uint64_t corrupted = 0;        ///< payload mismatch on receive
  std::uint64_t protocol_errors = 0;  ///< ring faults (corrupt length, EBUSY…)
  std::uint64_t lost_doorbells = 0;   ///< doorbell rung but never delivered
  std::uint64_t send_failures = 0;    ///< ring full / unmapped on send

  [[nodiscard]] bool traffic_disrupted() const noexcept {
    return corrupted + protocol_errors + lost_doorbells + send_failures > 0;
  }

  bool operator==(const IvshmemTrafficStats&) const = default;
};

/// The testbed's own bookkeeping, declared once.
struct TestbedState {
  jh::CellId cell_id = 0;
  jh::CellId secondary_cell_id = 0;
  bool enabled = false;
  bool ivshmem = false;
  jh::CellTuning tuning;
  IvshmemTrafficStats ivshmem_stats;

  bool operator==(const TestbedState&) const = default;
};

/// Everything a run can mutate — the single statement of testbed state:
/// each model's state block (its snapshot) plus the testbed's own.
/// A testbed holds two images of it: the power-on image, captured once at
/// construction and restored by Testbed::reset(), and an optional
/// post-boot image, captured after a slot's first boot for a given
/// (board, tuning, scenario) identity key and restored by
/// Testbed::restore_snapshot() instead of reset() + re-boot. A plain
/// value with no pointers (it owns its DRAM pages; guest bindings and
/// task identity are numbers), so a copy stays valid across any number
/// of runs, resets and recaptures, and any testbed on the same board
/// variant restores it. The power-on image holds no pages; restoring it
/// zeroes the dirty DRAM set.
struct TestbedSnapshot {
  platform::Board::Snapshot board;
  jh::Hypervisor::Snapshot hv;
  jh::Machine::Snapshot machine;
  guest::LinuxRootImage::Snapshot linux_root;
  guest::FreeRtosImage::Snapshot freertos;
  guest::OsekImage::Snapshot osek;
  TestbedState state;

  std::string key;  ///< identity: board\x1ftuning\x1fscenario

  bool operator==(const TestbedSnapshot&) const = default;
};

class Testbed {
 public:
  /// The paper's default testbed (Banana Pi board).
  Testbed();

  /// Testbed on an injected board variant (from the BoardRegistry). A
  /// null board falls back to the default Banana Pi.
  explicit Testbed(std::unique_ptr<platform::Board> board);

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  /// Power-on restore without tearing the testbed down: restore the
  /// power-on image captured at construction, then drop any held
  /// post-boot snapshot. After reset() the testbed behaves bit-identically
  /// to a freshly constructed one on the same board variant — the
  /// contract that lets fi::TestbedPool reuse a (board, testbed) slot
  /// across campaigns. Nothing is heap-allocated on this path in steady
  /// state (asserted by the pool's zero-allocation test).
  void reset();

  // --- post-boot snapshot --------------------------------------------------
  /// Capture the whole post-boot testbed state under `key`, at a run
  /// boundary — right after a scenario's setup + boot. Replaces any
  /// previous snapshot, reusing its storage.
  void capture_snapshot(const std::string& key);

  /// True iff a snapshot captured under exactly `key` is held.
  [[nodiscard]] bool has_snapshot(const std::string& key) const noexcept {
    return snapshot_valid_ && snapshot_.key == key;
  }

  /// Rewind the testbed to the held snapshot by bulk copy: board,
  /// hypervisor, machine and guest state restored in place. Returns false
  /// (and does nothing) when no snapshot is held. Heap-allocation-free on
  /// the steady executor path (pinned by the pool's zero-allocation test).
  bool restore_snapshot();

  /// Direct restore from a caller-held snapshot captured on any testbed
  /// of the same board variant, with no setup or boot needed. Slots of
  /// images a caller bound (e.g. a decorator) resolve only on the testbed
  /// that bound them. Debug builds assert that the CPU count matches and
  /// that every bound slot resolves.
  void restore(const TestbedSnapshot& snapshot);

  [[nodiscard]] const TestbedSnapshot& snapshot() const noexcept { return snapshot_; }
  [[nodiscard]] std::size_t snapshot_bytes() const noexcept {
    return snapshot_valid_ ? snapshot_.board.dram.bytes() : 0;
  }

  /// Enable the hypervisor with the root cell and bind the Linux image.
  /// Idempotent per instance; returns an error status on config problems.
  util::Status enable_hypervisor();

  /// Workload-cell tuning (RAM size, console kind) applied to the staged
  /// non-root cell configs. Must be set before enable_hypervisor().
  void set_cell_tuning(const jh::CellTuning& tuning) { state_.tuning = tuning; }

  /// Stage the ivshmem shared window in both non-root cell configs so two
  /// concurrent cells can exchange doorbell + shared-memory traffic. Must
  /// be set before enable_hypervisor().
  void set_ivshmem(bool enabled) noexcept { state_.ivshmem = enabled; }
  [[nodiscard]] bool ivshmem_enabled() const noexcept { return state_.ivshmem; }

  /// Time-advance policy for the underlying machine. The power-on image
  /// is EventDriven, so reset() restores it; TickPolicy::PerTick forces
  /// the legacy polling loop for reference runs (the tick-equivalence
  /// suite, bench_overhead --ticks-json).
  void set_tick_policy(jh::TickPolicy policy) noexcept {
    machine_.set_tick_policy(policy);
  }

  /// Drive the root driver through `jailhouse cell create && cell start`
  /// for the cell whose config was registered at `config_addr`, bind
  /// `image` to it, and wait for the bring-up to settle (or fail — under
  /// injection every failure mode of §III can surface here, which is the
  /// point; the caller classifies afterwards). The booted cell becomes the
  /// monitored workload cell.
  void boot_cell(std::uint64_t config_addr, jh::GuestImage& image);

  /// The paper's two non-root payloads (one at a time on the Banana Pi;
  /// concurrently on boards with spare cores).
  void boot_freertos_cell() { boot_cell(kFreeRtosConfigAddr, freertos_); }
  void boot_osek_cell() { boot_cell(kOsekConfigAddr, osek_); }

  /// Boot the OSEK cell as a *secondary* cell alongside the monitored
  /// workload cell — its own core, the monitored cell untouched. Only
  /// meaningful on boards with ≥ 2 spare CPUs (osek_cpu() != the
  /// FreeRTOS CPU); the dual-cell and ivshmem-traffic scenarios use it
  /// for true concurrency instead of the time-shared swap.
  void boot_secondary_osek_cell();

  /// Management operations from the root shell, post-boot, against the
  /// current workload cell.
  void shutdown_workload_cell();
  void destroy_workload_cell();

  // Legacy names from the single-scenario harness; same cell.
  void shutdown_freertos_cell() { shutdown_workload_cell(); }
  void destroy_freertos_cell() { destroy_workload_cell(); }

  /// Run the whole machine for `ticks` board ticks.
  void run(std::uint64_t ticks);

  /// Run the whole machine up to the absolute board tick `target` — the
  /// deadline-driven window primitive (no-op when already past it).
  void run_until(util::Ticks target);

  /// Golden-run profiling (§III): run fault-free and report how often
  /// each candidate hypervisor function was entered.
  struct GoldenProfile {
    std::uint64_t irqchip_entries = 0;
    std::uint64_t trap_entries = 0;
    std::uint64_t hvc_entries = 0;
    std::vector<std::uint64_t> per_cpu_traps;  ///< sized board.num_cpus()
  };
  GoldenProfile profile_golden(std::uint64_t ticks);

  /// Guest-access fast-path instrumentation rolled up across the whole
  /// testbed. Every field is monotonic for the testbed's lifetime —
  /// surviving reset(), snapshot restore and cell destruction (the
  /// hypervisor retires dying cells' TLB counters into its tally) — so
  /// consumers window a run by differencing two samples. Allocation-free.
  struct AccessCounters {
    std::uint64_t tlb_hits = 0;       ///< stage-2 translations served from TLB
    std::uint64_t tlb_misses = 0;     ///< translations that walked the map
    std::uint64_t dram_fast_ops = 0;  ///< direct-map aligned word accesses
    std::uint64_t dram_slow_ops = 0;  ///< bounds-checked byte/block accesses
    std::uint64_t deadline_refreshes = 0;  ///< board deadline-cache re-polls
  };
  [[nodiscard]] AccessCounters access_counters() noexcept;

  // --- accessors ----------------------------------------------------------
  [[nodiscard]] platform::Board& board() noexcept { return *board_; }
  [[nodiscard]] jh::Hypervisor& hypervisor() noexcept { return hv_; }
  [[nodiscard]] jh::Machine& machine() noexcept { return machine_; }
  [[nodiscard]] guest::LinuxRootImage& linux_root() noexcept { return linux_; }
  [[nodiscard]] guest::FreeRtosImage& freertos() noexcept { return freertos_; }
  [[nodiscard]] guest::OsekImage& osek() noexcept { return osek_; }

  /// Cell id of the current workload (non-root) cell — 0 while none has
  /// been created. Scenarios that swap payloads retarget this on re-boot.
  [[nodiscard]] jh::CellId workload_cell_id() const noexcept { return state_.cell_id; }
  [[nodiscard]] jh::Cell* workload_cell() noexcept {
    return state_.cell_id == 0 ? nullptr : hv_.find_cell(state_.cell_id);
  }

  /// The secondary (concurrent) non-root cell — 0/nullptr while none.
  [[nodiscard]] jh::CellId secondary_cell_id() const noexcept {
    return state_.secondary_cell_id;
  }
  [[nodiscard]] jh::Cell* secondary_cell() noexcept {
    return state_.secondary_cell_id == 0 ? nullptr
                                         : hv_.find_cell(state_.secondary_cell_id);
  }

  /// Cross-cell traffic bookkeeping (mutated by the ivshmem-traffic
  /// scenario, read by the monitor's classification).
  [[nodiscard]] IvshmemTrafficStats& ivshmem_stats() noexcept {
    return state_.ivshmem_stats;
  }
  [[nodiscard]] const IvshmemTrafficStats& ivshmem_stats() const noexcept {
    return state_.ivshmem_stats;
  }

  // Legacy names; the FreeRTOS cell is the default workload.
  [[nodiscard]] jh::CellId freertos_cell_id() const noexcept { return state_.cell_id; }
  [[nodiscard]] jh::Cell* freertos_cell() noexcept { return workload_cell(); }

  /// The CPU statically assigned to the primary non-root cell.
  static constexpr int kFreeRtosCpu = 1;
  static constexpr int kRootCpu = 0;

  /// CPU the OSEK cell is pinned to on this board: the first core beyond
  /// the FreeRTOS cell's when the board has one (true concurrency),
  /// otherwise the shared non-root core 1 (the paper's time-shared swap).
  [[nodiscard]] int osek_cpu() const noexcept {
    return board_->num_cpus() >= 3 ? 2 : kFreeRtosCpu;
  }

  /// Whether this board can host both non-root payloads concurrently.
  [[nodiscard]] bool supports_concurrent_cells() const noexcept {
    return osek_cpu() != kFreeRtosCpu;
  }

 private:
  std::unique_ptr<platform::Board> board_;
  jh::Hypervisor hv_;
  jh::Machine machine_;
  guest::LinuxRootImage linux_;
  guest::FreeRtosImage freertos_;
  guest::OsekImage osek_;
  TestbedState state_;
  /// Captured at construction (after every member above), restored by
  /// reset().
  TestbedSnapshot power_on_;
  TestbedSnapshot snapshot_;
  bool snapshot_valid_ = false;

  /// Fill `out` with the current state; the caller owns the key.
  void capture_to(TestbedSnapshot& out);
};

}  // namespace mcs::fi
