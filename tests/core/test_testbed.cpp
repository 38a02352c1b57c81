#include "core/testbed.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "core/injector.hpp"
#include "core/scenario.hpp"
#include "hypervisor/ivshmem.hpp"
#include "platform/board_registry.hpp"

namespace mcs::fi {
namespace {

TEST(Testbed, EnableIsIdempotent) {
  Testbed testbed;
  EXPECT_TRUE(testbed.enable_hypervisor().is_ok());
  EXPECT_TRUE(testbed.enable_hypervisor().is_ok());
  EXPECT_TRUE(testbed.hypervisor().is_enabled());
}

TEST(Testbed, BootBringsUpThePaperDeployment) {
  Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.boot_freertos_cell();
  ASSERT_NE(testbed.freertos_cell(), nullptr);
  EXPECT_EQ(testbed.freertos_cell()->state(), jh::CellState::Running);
  EXPECT_TRUE(testbed.board().cpu(Testbed::kFreeRtosCpu).is_online());
  EXPECT_EQ(testbed.hypervisor().cpu_owner(Testbed::kRootCpu), jh::kRootCellId);
  EXPECT_EQ(testbed.hypervisor().cpu_owner(Testbed::kFreeRtosCpu),
            testbed.freertos_cell_id());
}

TEST(Testbed, GoldenProfileFindsTheThreeCandidates) {
  // The paper's profiling step: golden runs show which hypervisor
  // functions are exercised — all three candidates must be hot.
  Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.boot_freertos_cell();
  const auto profile = testbed.profile_golden(10'000);
  EXPECT_GT(profile.irqchip_entries, 1'000u);  // tick interrupts
  EXPECT_GT(profile.trap_entries, 50u);
  EXPECT_GT(profile.hvc_entries, 50u);
  EXPECT_GT(profile.per_cpu_traps[0], 0u);
  EXPECT_GT(profile.per_cpu_traps[1], 0u);
}

TEST(Testbed, ShutdownAndDestroyRoundTrip) {
  Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.boot_freertos_cell();
  const jh::CellId id = testbed.freertos_cell_id();
  testbed.shutdown_freertos_cell();
  EXPECT_EQ(testbed.hypervisor().find_cell(id)->state(),
            jh::CellState::ShutDown);
  testbed.destroy_freertos_cell();
  EXPECT_EQ(testbed.hypervisor().find_cell(id), nullptr);
}

TEST(Testbed, RunAdvancesBoardTime) {
  Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.run(123);
  EXPECT_EQ(testbed.board().now().value, 123u);
}

TEST(Testbed, TwoTestbedsAreIndependent) {
  Testbed a;
  Testbed b;
  ASSERT_TRUE(a.enable_hypervisor().is_ok());
  ASSERT_TRUE(b.enable_hypervisor().is_ok());
  a.boot_freertos_cell();
  EXPECT_NE(a.freertos_cell(), nullptr);
  EXPECT_EQ(b.freertos_cell(), nullptr);
  EXPECT_EQ(b.board().now().value, 0u);
}

// --- power-on restore (the testbed pool's reuse contract) -------------------

TEST(Testbed, RootTlbRevalidatesAcrossCellLifecycle) {
  // The stale-TLB hazard at system level: the root cell's address space
  // caches a translation for the loanable RAM pool, then cell create
  // carves that pool out of the root map. A stale hit would let the root
  // keep reaching memory it loaned away — the exact isolation break the
  // generation protocol exists to prevent.
  Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  mem::AddressSpace& root = testbed.hypervisor().root_cell().address_space();

  const mem::GuestAddr pool = jh::kFreeRtosRamBase;  // root maps it identity
  const auto before = root.translate_cached(pool, mem::Access::Write, 4);
  ASSERT_TRUE(before.is_ok());
  EXPECT_EQ(before.value().phys, pool);

  testbed.boot_freertos_cell();  // carve-out: the pool leaves the root map
  EXPECT_EQ(root.translate_cached(pool, mem::Access::Write, 4).status().code(),
            util::Code::EFault);

  testbed.destroy_workload_cell();  // hand-back: translations return
  const auto after = root.translate_cached(pool, mem::Access::Write, 4);
  ASSERT_TRUE(after.is_ok());
  EXPECT_EQ(after.value().phys, pool);
}

TEST(Testbed, TlbRevalidatesAfterSnapshotRestore) {
  // Snapshot restore reassigns the region vectors it captured, so every
  // region pointer cached before the restore dangles. The map generation
  // bump is what keeps those pointers from ever being dereferenced; under
  // the sanitize CI job a stale hit here is a hard use-after-free.
  Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.boot_freertos_cell();
  testbed.capture_snapshot("tlb");

  mem::AddressSpace& root = testbed.hypervisor().root_cell().address_space();
  const mem::GuestAddr pool = jh::kFreeRtosRamBase;
  // Captured state: the pool is carved out of the root.
  ASSERT_FALSE(root.translate_cached(pool, mem::Access::Read, 4).is_ok());

  // Destroy hands the pool back and fills the root TLB with a pointer
  // into the *current* region vector.
  testbed.destroy_workload_cell();
  ASSERT_TRUE(root.translate_cached(pool, mem::Access::Read, 4).is_ok());

  // Restore rewinds to the carved state: the cached pointer is stale and
  // the walk must fault again instead of hitting it.
  ASSERT_TRUE(testbed.restore_snapshot());
  EXPECT_EQ(root.translate_cached(pool, mem::Access::Read, 4).status().code(),
            util::Code::EFault);
  ASSERT_NE(testbed.freertos_cell(), nullptr);
  EXPECT_EQ(testbed.freertos_cell()->state(), jh::CellState::Running);
}

TEST(TestbedReset, RestoresHypervisorMachineAndCellBookkeeping) {
  Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.boot_freertos_cell();
  ASSERT_NE(testbed.workload_cell(), nullptr);
  testbed.run(100);
  testbed.reset();
  EXPECT_FALSE(testbed.hypervisor().is_enabled());
  EXPECT_EQ(testbed.workload_cell_id(), 0u);
  EXPECT_EQ(testbed.secondary_cell_id(), 0u);
  EXPECT_EQ(testbed.board().now().value, 0u);
  EXPECT_EQ(testbed.hypervisor().counters().traps, 0u);
  EXPECT_EQ(testbed.hypervisor().cpu_owner(Testbed::kFreeRtosCpu),
            jh::kRootCellId);
  // The whole lifecycle works again from scratch on the same object.
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.boot_freertos_cell();
  ASSERT_NE(testbed.workload_cell(), nullptr);
  EXPECT_EQ(testbed.workload_cell()->state(), jh::CellState::Running);
}

TEST(TestbedReset, ReusedLifecycleMatchesFreshObservables) {
  // The same boot + window on a reused testbed must reproduce a fresh
  // testbed's observables exactly (the bit-identity the equivalence
  // suite pins campaign-wide, here at the testbed level).
  const auto drive = [](Testbed& testbed) {
    EXPECT_TRUE(testbed.enable_hypervisor().is_ok());
    testbed.boot_freertos_cell();
    testbed.run(500);
  };
  Testbed fresh;
  drive(fresh);

  Testbed reused;
  drive(reused);       // dirty it with a full first run
  reused.reset();
  drive(reused);       // second run on the reused object

  EXPECT_EQ(fresh.board().uart1().captured(), reused.board().uart1().captured());
  EXPECT_EQ(fresh.board().gpio().led_toggles(), reused.board().gpio().led_toggles());
  EXPECT_EQ(fresh.hypervisor().counters().traps,
            reused.hypervisor().counters().traps);
  EXPECT_EQ(fresh.hypervisor().counters().irqs,
            reused.hypervisor().counters().irqs);
  EXPECT_EQ(fresh.board().log().to_text(), reused.board().log().to_text());
  EXPECT_EQ(fresh.freertos().messages_validated(),
            reused.freertos().messages_validated());
}

TEST(TestbedReset, RestoresRootSharedCarvingForConcurrentCells) {
  // On the quad board the dual-cell deployment leaves the shared IO
  // windows ROOTSHARED (un-carved). After a reset, the same two-cell
  // bring-up must succeed again — stale carving state from the previous
  // run would make the second create fail root-coverage validation.
  Testbed testbed(platform::make_board("quad-a7"));
  ASSERT_TRUE(testbed.supports_concurrent_cells());
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(testbed.enable_hypervisor().is_ok()) << "round " << round;
    testbed.boot_freertos_cell();
    testbed.boot_secondary_osek_cell();
    ASSERT_NE(testbed.workload_cell(), nullptr) << "round " << round;
    ASSERT_NE(testbed.secondary_cell(), nullptr) << "round " << round;
    EXPECT_EQ(testbed.secondary_cell()->state(), jh::CellState::Running)
        << "round " << round;
    testbed.run(200);
    testbed.reset();
  }
}

TEST(TestbedReset, RestoresIvshmemRingContentsToPowerOn) {
  Testbed testbed(platform::make_board("quad-a7"));
  testbed.set_ivshmem(true);
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.boot_freertos_cell();
  testbed.boot_secondary_osek_cell();
  // Dirty the shared window the way the traffic scenario would: ring
  // header plus payload bytes.
  ASSERT_TRUE(
      testbed.board().dram().write_u32(jh::kIvshmemRingAToB + 8, 0x1000).is_ok());
  ASSERT_TRUE(
      testbed.board().dram().write_u32(jh::kIvshmemRingAToB + 16, 0xFEED).is_ok());
  testbed.ivshmem_stats().sent = 5;
  testbed.reset();
  EXPECT_EQ(testbed.board().dram().read_u32(jh::kIvshmemRingAToB + 8).value(), 0u);
  EXPECT_EQ(testbed.board().dram().read_u32(jh::kIvshmemRingAToB + 16).value(), 0u);
  EXPECT_EQ(testbed.ivshmem_stats().sent, 0u);
  EXPECT_FALSE(testbed.ivshmem_enabled());
}

TEST(TestbedReset, ResetImageMatchesFreshImageForEveryScenario) {
  // reset() restores the power-on image captured at construction, so
  // after any run — injected failures included — the testbed's image must
  // equal a freshly built testbed's on the same board, compared through
  // each model's state block and its defaulted operator==.
  for (const std::string board : {"bananapi", "quad-a7"}) {
    for (const std::string& name : ScenarioRegistry::instance().names()) {
      const Scenario* scenario = find_scenario(name);
      TestPlan plan = scenario->make_plan();
      plan.duration_ticks = 2'000;
      plan.phase = 2;  // inject early so failure residue is reached
      const std::string label = name + " on " + board;

      Testbed used(platform::make_board(board));
      if (scenario->setup(used).is_ok()) {
        Injector injector(plan, 0xC0FFEE, used.board().clock());
        injector.attach(used.hypervisor());
        scenario->boot(used);
        used.capture_snapshot("post-boot");
        scenario->observe(used, plan);
        scenario->epilogue(used);
        injector.detach(used.hypervisor());
      }
      used.reset();
      EXPECT_FALSE(used.has_snapshot("post-boot")) << label;
      used.capture_snapshot("image");

      Testbed fresh(platform::make_board(board));
      fresh.capture_snapshot("image");

      const TestbedSnapshot& got = used.snapshot();
      const TestbedSnapshot& want = fresh.snapshot();
      EXPECT_TRUE(got.board == want.board) << label << ": board";
      EXPECT_TRUE(got.hv == want.hv) << label << ": hypervisor";
      EXPECT_TRUE(got.machine == want.machine) << label << ": machine";
      EXPECT_TRUE(got.linux_root == want.linux_root) << label << ": linux";
      EXPECT_TRUE(got.freertos == want.freertos) << label << ": freertos";
      EXPECT_TRUE(got.osek == want.osek) << label << ": osek";
      EXPECT_TRUE(got.state == want.state) << label << ": testbed bookkeeping";
      EXPECT_TRUE(got == want) << label << ": whole image";
    }
  }
}

/// FNV-1a over the live DRAM words of every page `snapshot` holds, read
/// through the board's memory rather than the snapshot's own bytes.
std::uint64_t dram_hash(Testbed& testbed, const TestbedSnapshot& snapshot) {
  mem::PhysicalMemory& dram = testbed.board().dram();
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const std::uint64_t page : snapshot.board.dram.pages) {
    const mem::PhysAddr base = dram.base() + page * mem::kPageSize;
    for (std::uint64_t offset = 0; offset < mem::kPageSize; offset += 8) {
      hash = (hash ^ dram.read_u64(base + offset).value()) * 0x100000001b3ull;
    }
  }
  return hash;
}

TEST(TestbedSnapshot, HeldCopySurvivesResetAndRecapture) {
  // A snapshot is a plain value: a caller-held copy must restore exactly
  // the memory it captured, even after the testbed has been reset,
  // re-booted and has captured a newer snapshot of its own.
  const Scenario* scenario = find_scenario("freertos-steady");
  ASSERT_NE(scenario, nullptr);
  Testbed testbed(platform::make_board("bananapi"));
  ASSERT_TRUE(scenario->setup(testbed).is_ok());
  scenario->boot(testbed);
  testbed.run(3'000);
  testbed.capture_snapshot("early");
  const TestbedSnapshot held = testbed.snapshot();
  ASSERT_GT(held.board.dram.bytes(), 0u);
  const std::uint64_t captured = dram_hash(testbed, held);

  testbed.reset();
  ASSERT_TRUE(scenario->setup(testbed).is_ok());
  scenario->boot(testbed);
  testbed.run(9'000);
  testbed.capture_snapshot("late");
  ASSERT_NE(dram_hash(testbed, held), captured) << "the later run must diverge";

  testbed.restore(held);
  EXPECT_EQ(dram_hash(testbed, held), captured);
  EXPECT_EQ(testbed.board().now(), held.board.clock_now);

  // Straight after reset(), with no setup or boot, the copy restores and
  // runs: guest task identity is part of the snapshot.
  testbed.reset();
  testbed.restore(held);
  EXPECT_EQ(dram_hash(testbed, held), captured);
  testbed.capture_snapshot("early");
  EXPECT_TRUE(testbed.snapshot() == held);
  testbed.run(2'000);
  EXPECT_GT(testbed.freertos().kernel().dispatches(), held.freertos.kernel.dispatches);
  EXPECT_GT(testbed.freertos().blink_count(), held.freertos.state.blinks);
}

TEST(TestbedSnapshot, RestoresOnAFreshTestbed) {
  // A snapshot holds no pointers, so any testbed on the capturing board
  // variant restores it: capture on A, destroy A, restore on a freshly
  // built B with no setup or boot. B must then run exactly like a third
  // fresh testbed restored from the same copy, and like a reference
  // testbed that sets up, boots and runs straight through.
  constexpr std::uint64_t kTicks = 5'000;
  for (const std::string board : {"bananapi", "quad-a7"}) {
    for (const std::string& name : ScenarioRegistry::instance().names()) {
      const Scenario* scenario = find_scenario(name);
      const std::string label = name + " on " + board;
      auto a = std::make_unique<Testbed>(platform::make_board(board));
      if (!scenario->setup(*a).is_ok()) continue;
      scenario->boot(*a);
      a->capture_snapshot("post-boot");
      const TestbedSnapshot copy = a->snapshot();

      Testbed b(platform::make_board(board));
      a.reset();
      b.restore(copy);
      b.run(kTicks);
      b.capture_snapshot("after");

      Testbed c(platform::make_board(board));
      c.restore(copy);
      c.run(kTicks);
      c.capture_snapshot("after");

      EXPECT_TRUE(b.snapshot() == c.snapshot()) << label;
      EXPECT_EQ(b.board().uart1().captured(), c.board().uart1().captured()) << label;

      Testbed reference(platform::make_board(board));
      ASSERT_TRUE(scenario->setup(reference).is_ok()) << label;
      scenario->boot(reference);
      reference.run(kTicks);
      reference.capture_snapshot("after");
      EXPECT_TRUE(b.snapshot() == reference.snapshot()) << label;
      EXPECT_EQ(b.board().uart1().captured(), reference.board().uart1().captured())
          << label;
    }
  }
}

}  // namespace
}  // namespace mcs::fi
