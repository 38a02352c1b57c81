#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

namespace mcs::util {
namespace {

TEST(ThreadPool, RunsEverySubmittedJob) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, JobsCanRunConcurrently) {
  // Not a timing assertion — just that independent jobs all complete even
  // when each writes a distinct slot (the executor's usage pattern).
  ThreadPool pool(4);
  std::vector<std::uint64_t> slots(64, 0);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    pool.submit([&slots, i] { slots[i] = i + 1; });
  }
  pool.wait_idle();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(slots[i], i + 1) << i;
  }
}

TEST(ThreadPool, DestructorDrainsPendingJobs) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 20; ++i) {
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // ~ThreadPool joins after the queue drains
  EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPool, ReusableAcrossWaves) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 10; ++i) {
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait_idle();
    EXPECT_EQ(count.load(), (wave + 1) * 10);
  }
}

TEST(ThreadPool, DefaultThreadsIsAtLeastOne) {
  EXPECT_GE(ThreadPool::default_threads(), 1u);
}

TEST(ThreadPool, FanOutClaimsEveryItemOnceAndRunsInlineAtWidthOne) {
  // One claim loop serves every width; min(threads, items) workers run it,
  // and a width of 1 (one thread, or one item) never leaves the caller.
  for (const auto& [threads, items] :
       std::vector<std::pair<unsigned, std::size_t>>{
           {1, 5}, {4, 1}, {4, 0}, {4, 37}, {300, 3}}) {
    std::vector<std::atomic<int>> hits(items);
    std::atomic<std::size_t> next{0};
    std::atomic<int> workers{0};
    std::atomic<int> off_caller{0};
    const std::thread::id caller = std::this_thread::get_id();
    fan_out(threads, items, [&] {
      workers.fetch_add(1);
      if (std::this_thread::get_id() != caller) off_caller.fetch_add(1);
      for (std::size_t i = next.fetch_add(1); i < items; i = next.fetch_add(1)) {
        hits[i].fetch_add(1);
      }
    });
    const int width = static_cast<int>(std::min<std::size_t>(threads, items));
    EXPECT_EQ(workers.load(), width) << threads << " x " << items;
    EXPECT_EQ(off_caller.load(), width > 1 ? width : 0) << threads << " x " << items;
    for (const std::atomic<int>& hit : hits) EXPECT_EQ(hit.load(), 1);
  }
}

}  // namespace
}  // namespace mcs::util
