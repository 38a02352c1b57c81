#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>

namespace mcs::util {

unsigned ThreadPool::default_threads() noexcept {
  if (const char* env = std::getenv("MCS_CAMPAIGN_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed >= 1) {
      return parsed > kMaxThreads ? kMaxThreads : static_cast<unsigned>(parsed);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : hw;
}

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = default_threads();
  if (threads > kMaxThreads) threads = kMaxThreads;
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> job) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(job));
  }
  work_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    job();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_.notify_all();
    }
  }
}

void fan_out(unsigned threads, std::size_t items,
             const std::function<void()>& worker) {
  if (threads == 0) threads = ThreadPool::default_threads();
  const std::size_t width = std::min<std::size_t>(threads, items);
  if (width == 0) return;
  if (width == 1) {
    worker();
    return;
  }
  // The pool clamps oversized widths; submit one worker per real thread.
  ThreadPool pool(static_cast<unsigned>(width));
  for (unsigned w = 0; w < pool.size(); ++w) pool.submit(worker);
  pool.wait_idle();
}

}  // namespace mcs::util
