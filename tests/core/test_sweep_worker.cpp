// The lease protocol under the distributed sweep runtime, in isolation:
// claims must be atomic (exactly one winner under contention), staleness
// must be measured by heartbeat age, steals of a dead worker's lease must
// resolve to one winner, and the spec/status plumbing must round-trip —
// these are the invariants that let N processes split a sweep over
// nothing but a shared directory.
#include "core/sweep_worker.hpp"
#include "scratch_path.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

namespace mcs::fi {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

class CellLeaseTest : public testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: parallel ctest runs tests in separate processes,
    // and a fixture-shared path would race their SetUp cleanups.
    dir_ = test::scratch_path("mcs_lease_test");
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Make an existing lease look `by` older than it is (a holder that
  /// stopped heartbeating `by` ago).
  void backdate(const std::string& cell, std::chrono::seconds by) {
    const std::string path = CellLease::lease_path(dir_.string(), cell);
    fs::last_write_time(path, fs::last_write_time(path) - by);
  }

  std::string dir() const { return dir_.string(); }

 private:
  fs::path dir_;
};

TEST_F(CellLeaseTest, ClaimHoldReleaseReclaim) {
  auto first = CellLease::try_claim(dir(), "cell_r100", "alpha", 60s);
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  EXPECT_TRUE(first.value().held());
  EXPECT_FALSE(first.value().stole());

  // Live lease → EBusy for everyone else, including the same worker id.
  auto second = CellLease::try_claim(dir(), "cell_r100", "beta", 60s);
  ASSERT_FALSE(second.is_ok());
  EXPECT_EQ(second.status().code(), util::Code::EBusy);
  auto same = CellLease::try_claim(dir(), "cell_r100", "alpha", 60s);
  EXPECT_EQ(same.status().code(), util::Code::EBusy);

  // The decoded table names the holder.
  const auto info = CellLease::read(dir(), "cell_r100");
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->cell_id, "cell_r100");
  EXPECT_EQ(info->worker_id, "alpha");
  EXPECT_EQ(info->pid, static_cast<long>(::getpid()));
  EXPECT_EQ(info->heartbeats, 0u);

  first.value().release();
  EXPECT_FALSE(first.value().held());
  EXPECT_FALSE(CellLease::read(dir(), "cell_r100").has_value());

  auto reclaim = CellLease::try_claim(dir(), "cell_r100", "beta", 60s);
  ASSERT_TRUE(reclaim.is_ok());
  EXPECT_EQ(CellLease::read(dir(), "cell_r100")->worker_id, "beta");
}

TEST_F(CellLeaseTest, DestructorReleasesAbandonDoesNot) {
  {
    auto lease = CellLease::try_claim(dir(), "raii", "alpha", 60s);
    ASSERT_TRUE(lease.is_ok());
  }
  EXPECT_FALSE(CellLease::read(dir(), "raii").has_value());

  {
    auto lease = CellLease::try_claim(dir(), "raii", "alpha", 60s);
    ASSERT_TRUE(lease.is_ok());
    lease.value().abandon();  // a worker that died holding the lease
  }
  EXPECT_TRUE(CellLease::read(dir(), "raii").has_value());
}

TEST_F(CellLeaseTest, ExactlyOneConcurrentClaimerWins) {
  // The atomic-claim property the whole runtime rests on: N threads
  // (standing in for N processes — the filesystem can't tell) race
  // try_claim on one cell; exactly one may win, every loser sees EBusy.
  constexpr int kClaimers = 16;
  std::atomic<int> winners{0};
  std::atomic<int> busy{0};
  std::vector<CellLease> held(kClaimers);
  std::vector<std::thread> threads;
  threads.reserve(kClaimers);
  for (int i = 0; i < kClaimers; ++i) {
    threads.emplace_back([&, i] {
      auto claim = CellLease::try_claim(dir(), "contended",
                                        "t" + std::to_string(i), 60s);
      if (claim.is_ok()) {
        held[i] = std::move(claim).value();
        held[i].abandon();  // keep the file: losers must stay losers
        ++winners;
      } else if (claim.status().code() == util::Code::EBusy) {
        ++busy;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(winners.load(), 1);
  EXPECT_EQ(busy.load(), kClaimers - 1);
  EXPECT_TRUE(CellLease::read(dir(), "contended").has_value());
}

TEST_F(CellLeaseTest, StaleLeaseIsStolenFreshLeaseIsNot) {
  auto dead = CellLease::try_claim(dir(), "cell", "dead-worker", 60s);
  ASSERT_TRUE(dead.is_ok());
  dead.value().abandon();  // holder "dies" without releasing

  // Younger than the TTL → still the dead worker's; nobody may steal.
  auto early = CellLease::try_claim(dir(), "cell", "rescuer", 60s);
  ASSERT_FALSE(early.is_ok());
  EXPECT_EQ(early.status().code(), util::Code::EBusy);

  // Older than the TTL → stolen, and the claim reports the steal.
  backdate("cell", 120s);
  auto steal = CellLease::try_claim(dir(), "cell", "rescuer", 60s);
  ASSERT_TRUE(steal.is_ok()) << steal.status().to_string();
  EXPECT_TRUE(steal.value().stole());
  EXPECT_EQ(CellLease::read(dir(), "cell")->worker_id, "rescuer");
}

TEST_F(CellLeaseTest, ZeroTtlMakesAnyLeaseStealable) {
  auto held = CellLease::try_claim(dir(), "cell", "slow", 0ms);
  ASSERT_TRUE(held.is_ok());
  held.value().abandon();
  auto steal = CellLease::try_claim(dir(), "cell", "fast", 0ms);
  ASSERT_TRUE(steal.is_ok());
  EXPECT_TRUE(steal.value().stole());
}

TEST_F(CellLeaseTest, ExactlyOneConcurrentStealerWins) {
  auto dead = CellLease::try_claim(dir(), "cell", "dead-worker", 1s);
  ASSERT_TRUE(dead.is_ok());
  dead.value().abandon();
  backdate("cell", 60s);

  constexpr int kStealers = 8;
  std::atomic<int> winners{0};
  std::vector<CellLease> held(kStealers);
  std::vector<std::thread> threads;
  for (int i = 0; i < kStealers; ++i) {
    threads.emplace_back([&, i] {
      auto claim = CellLease::try_claim(dir(), "cell",
                                        "s" + std::to_string(i), 1s);
      if (claim.is_ok()) {
        held[i] = std::move(claim).value();
        held[i].abandon();
        ++winners;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  // Exactly one stealer ends up holding; the rest found a *fresh* lease
  // (the winner's) and backed off as EBusy.
  EXPECT_EQ(winners.load(), 1);
}

TEST_F(CellLeaseTest, HeartbeatRefreshesAgeAndCounter) {
  auto lease = CellLease::try_claim(dir(), "cell", "alpha", 60s);
  ASSERT_TRUE(lease.is_ok());
  backdate("cell", 120s);
  ASSERT_GT(CellLease::read(dir(), "cell")->age_seconds, 60.0);

  EXPECT_TRUE(lease.value().heartbeat());
  const auto info = CellLease::read(dir(), "cell");
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->heartbeats, 1u);
  EXPECT_LT(info->age_seconds, 60.0);  // fresh again: not stealable

  auto claim = CellLease::try_claim(dir(), "cell", "beta", 60s);
  EXPECT_EQ(claim.status().code(), util::Code::EBusy);
}

TEST_F(CellLeaseTest, HeartbeatDetectsTheftAndYields) {
  auto lease = CellLease::try_claim(dir(), "cell", "slow", 1s);
  ASSERT_TRUE(lease.is_ok());
  // A peer judges "slow" dead and steals the lease...
  backdate("cell", 60s);
  auto thief = CellLease::try_claim(dir(), "cell", "thief", 1s);
  ASSERT_TRUE(thief.is_ok());
  // ...so the old holder's next heartbeat must fail and drop ownership
  // rather than clobber the thief's claim.
  EXPECT_FALSE(lease.value().heartbeat());
  EXPECT_FALSE(lease.value().held());
  EXPECT_EQ(CellLease::read(dir(), "cell")->worker_id, "thief");
}

TEST_F(CellLeaseTest, ListLeasesSortsByCellAndSkipsForeignFiles) {
  auto b = CellLease::try_claim(dir(), "b_cell", "beta", 60s);
  auto a = CellLease::try_claim(dir(), "a_cell", "alpha", 60s);
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  std::ofstream(fs::path(dir()) / "a_cell.runlog") << "run 0: CORRECT\n";
  std::ofstream(fs::path(dir()) / "sweep.spec") << "scenario x\nrate 1\n";

  const std::vector<LeaseInfo> leases = list_leases(dir());
  ASSERT_EQ(leases.size(), 2u);
  EXPECT_EQ(leases[0].cell_id, "a_cell");
  EXPECT_EQ(leases[0].worker_id, "alpha");
  EXPECT_EQ(leases[1].cell_id, "b_cell");
  EXPECT_EQ(leases[1].worker_id, "beta");
}

// --- atomic writes -----------------------------------------------------------

TEST_F(CellLeaseTest, WriteTextAtomicCommitsWholeFilesAndLeavesNoLitter) {
  const std::string path = (fs::path(dir()) / "artifact.txt").string();
  ASSERT_TRUE(write_text_atomic(path, "first\n").is_ok());
  ASSERT_TRUE(write_text_atomic(path, "second\n", "tagged").is_ok());

  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), "second\n");

  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir())) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);  // no .tmp left behind
}

// --- spec round trip ---------------------------------------------------------

TEST(SweepSpecRoundTrip, RenderedSpecParsesBackIdentically) {
  SweepSpec spec;
  spec.name = "dist-grid";
  spec.scenarios = {"freertos-steady", "dual-cell"};
  spec.rates = {100, 50};
  spec.boards = {"bananapi", "quad-a7"};
  spec.runs = 12;
  spec.seed = 0xDEADBEEF;
  spec.duration_ticks = 30'000;
  spec.cell_tuning = "ram 0x200000\nconsole trapped";
  spec.log_dir = "shared/sweep-logs";

  auto parsed = parse_sweep_spec(render_sweep_spec(spec));
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const SweepSpec& back = parsed.value();
  EXPECT_EQ(back.name, spec.name);
  EXPECT_EQ(back.scenarios, spec.scenarios);
  EXPECT_EQ(back.rates, spec.rates);
  EXPECT_EQ(back.boards, spec.boards);
  EXPECT_EQ(back.runs, spec.runs);
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(back.duration_ticks, spec.duration_ticks);
  EXPECT_EQ(back.cell_tuning, spec.cell_tuning);
  EXPECT_EQ(back.log_dir, spec.log_dir);

  // The property that makes --join trustworthy: identical expansion, so
  // identical per-cell plans, seeds and fingerprints on every worker.
  auto original = SweepDriver(spec).expand();
  auto roundtrip = SweepDriver(back).expand();
  ASSERT_TRUE(original.is_ok() && roundtrip.is_ok());
  ASSERT_EQ(original.value().size(), roundtrip.value().size());
  for (std::size_t i = 0; i < original.value().size(); ++i) {
    EXPECT_EQ(plan_fingerprint(original.value()[i]),
              plan_fingerprint(roundtrip.value()[i]));
  }
}

TEST(SweepSpecRoundTrip, SpecFileHonoursTheJoinersLogdir) {
  const fs::path dir = test::scratch_path("mcs_spec_file");
  fs::remove_all(dir);

  SweepSpec spec;
  spec.scenarios = {"freertos-steady"};
  spec.rates = {100};
  spec.log_dir = dir.string();
  ASSERT_TRUE(write_spec_file(spec).is_ok());

  // The joining host may mount the same share at a different path; the
  // recorded logdir line must lose to the path the joiner was given.
  auto read = read_spec_file(dir.string());
  ASSERT_TRUE(read.is_ok()) << read.status().to_string();
  EXPECT_EQ(read.value().log_dir, dir.string());
  EXPECT_EQ(read.value().scenarios, spec.scenarios);

  EXPECT_FALSE(write_spec_file(SweepSpec{}).is_ok());  // no logdir
  EXPECT_FALSE(read_spec_file((dir / "nope").string()).is_ok());
  fs::remove_all(dir);
}

// --- status rendering --------------------------------------------------------

TEST(SweepStatusRender, StableLineOrientedShape) {
  SweepStatus status;
  status.job = "paper-grid";
  status.cells_done = 3;
  status.cells_total = 8;
  status.runs_per_sec = 41.25;
  status.eta_seconds = 12.5;
  LeaseInfo lease;
  lease.cell_id = "freertos-steady_r100";
  lease.worker_id = "w1";
  lease.pid = 4242;
  lease.heartbeats = 7;
  lease.age_seconds = 1.25;
  status.leases.push_back(lease);

  EXPECT_EQ(render_sweep_status(status),
            "job paper-grid\n"
            "cells 3/8\n"
            "runs_per_sec 41.2\n"
            "eta_seconds 12.5\n"
            "lease freertos-steady_r100 worker w1 pid 4242 heartbeats 7 "
            "age 1.2s\n");

  status.eta_seconds = -1.0;  // nothing executed yet → unknown
  EXPECT_NE(render_sweep_status(status).find("eta_seconds unknown"),
            std::string::npos);
}

}  // namespace
}  // namespace mcs::fi
