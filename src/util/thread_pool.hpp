// A small fixed-size worker pool for sharding embarrassingly parallel
// campaign work. Deliberately minimal: submit fire-and-forget jobs, wait
// for the queue to drain. Determinism is the caller's job (the campaign
// executor pre-computes per-run seeds and pre-sizes result slots, so the
// scheduling order the pool picks can never leak into results).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mcs::util {

class ThreadPool {
 public:
  /// Upper bound on pool width; requests beyond it (including garbage
  /// negative CLI values cast to unsigned) are clamped, never honoured.
  static constexpr unsigned kMaxThreads = 256;

  /// Spin up `threads` workers; 0 → default_threads(), clamped to
  /// kMaxThreads.
  explicit ThreadPool(unsigned threads = 0);

  /// Drains outstanding work, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a job. Jobs must not throw (the simulator reports failures
  /// through Status/RunResult, never exceptions).
  void submit(std::function<void()> job);

  /// Block until every submitted job has finished.
  void wait_idle();

  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Pool width when the caller does not choose: the MCS_CAMPAIGN_THREADS
  /// environment variable when set (clamped to [1, 256]), otherwise
  /// std::thread::hardware_concurrency() (at least 1).
  [[nodiscard]] static unsigned default_threads() noexcept;

 private:
  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::size_t active_ = 0;
  bool stopping_ = false;
};

/// Run `worker` `width` times and return when every copy has returned,
/// where width = min(threads, items) and threads 0 means
/// ThreadPool::default_threads(). Workers claim their own items (typically
/// from a shared atomic counter), so one loop body serves every width.
/// Width 1 runs the worker inline on the calling thread — no thread is
/// spawned; width 0 (no items) runs nothing; wider runs on a ThreadPool.
void fan_out(unsigned threads, std::size_t items,
             const std::function<void()>& worker);

}  // namespace mcs::util
