// The traced run: an outside-in copy of CampaignExecutor's per-run
// sequence (provision, setup, boot, capture, attach, observe, epilogue,
// finish, probe) built from public calls only, with a span around every
// call into a layer.
//
// Spans live in memory and are written out after the run. The two hot
// layers inside the observation window — guest-image calls and injector
// hook calls — fire tens of thousands of times per run, so they are not
// recorded one span per call: each phase span gets one *aggregate* child
// per hot layer carrying the call count and the busy time. Reading the
// clock twice per call would cost more than many of the calls themselves,
// so a pseudo-random 1 in kSampleEvery calls is timed and the busy time is
// scaled up from that sample. Injector hook time spent inside a guest call
// is an aggregate child of that guest aggregate, so every span's self time
// is its busy time minus its children's.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/outcome.hpp"
#include "core/plan.hpp"
#include "core/testbed.hpp"

namespace e2e {

enum class SpanName : std::uint8_t {
  Pass,
  Campaign,
  Lease,
  Run,
  Provision,
  Setup,
  Boot,
  Capture,
  Attach,
  Observe,
  Epilogue,
  Finish,
  Probe,
  Detach,
  Sink,
  Report,
  Guest,  ///< aggregate: GuestImage::run_quantum/on_timer/on_irq
  Hook,   ///< aggregate: Injector::on_entry behind the forwarding hook
};
inline constexpr std::size_t kNumSpanNames = 18;

[[nodiscard]] const char* span_name(SpanName name) noexcept;

struct Span {
  SpanName name = SpanName::Pass;
  std::int32_t parent = -1;  ///< index into the span list; -1 = root
  std::uint32_t run = 0;     ///< run id (0 outside runs)
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t busy_ns = 0;  ///< end − start, or an aggregate's estimated busy time
  std::uint64_t count = 1;   ///< calls behind an aggregate span
  std::uint64_t timed = 1;   ///< …of which were timed
};

class Tracer {
 public:
  /// Calibrates the clock-read cost subtracted from every timed call.
  Tracer();

  [[nodiscard]] static std::int64_t now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  void set_run(std::uint32_t run) noexcept { run_ = run; }

  /// Open a span as a child of the innermost open span.
  [[nodiscard]] std::int32_t open(SpanName name);
  /// Close the innermost open span (which must be `index`) and attach its
  /// hot-layer aggregates as children.
  void close(std::int32_t index);

  static constexpr std::uint64_t kSampleEvery = 16;

  // Hot path, called from the decorating guest image and the forwarding
  // entry hook. A start or duration of -1 marks an untimed call.
  [[nodiscard]] bool sample() noexcept {
    rng_ = rng_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return (rng_ >> 32) % kSampleEvery == 0;
  }
  [[nodiscard]] std::int64_t guest_enter() noexcept;
  enum class GuestCall : std::uint8_t { Quantum, Timer, Irq };
  void guest_exit(std::int64_t start, GuestCall call) noexcept;
  void hook(std::int64_t ns) noexcept;

  /// Monotonic call counts of the decorated guest entry points.
  [[nodiscard]] const std::array<std::uint64_t, 3>& guest_calls() const noexcept {
    return guest_calls_;
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  /// Calls of one hot layer under one open span.
  struct Hot {
    std::uint64_t calls = 0;
    std::uint64_t timed = 0;
    std::int64_t timed_ns = 0;
  };
  void add(Hot& hot, std::int64_t ns) const noexcept {
    ++hot.calls;
    if (ns >= 0) {
      ++hot.timed;
      hot.timed_ns += ns > clock_ns_ ? ns - clock_ns_ : 0;
    }
  }
  struct Frame {
    std::int32_t span = -1;
    Hot guest;
    Hot hook_in_guest;
    Hot hook;
  };

  std::vector<Span> spans_;
  std::vector<Frame> stack_;
  std::uint32_t run_ = 0;
  std::uint64_t rng_ = 0x853c49e6748fea9bULL;
  std::int64_t clock_ns_ = 0;  ///< cost of one clock read, inside every timed call
  bool in_guest_ = false;
  std::array<std::uint64_t, 3> guest_calls_{};
};

/// Simulated statistics of the runs of one pass, summed.
struct SimCounts {
  std::uint64_t runs = 0;
  std::uint64_t traps = 0;
  std::uint64_t hvcs = 0;
  std::uint64_t irqs = 0;
  std::uint64_t mmio_emulations = 0;
  std::uint64_t irq_delivered = 0;
  std::uint64_t sim_ticks = 0;
  std::uint64_t deadline_refreshes = 0;
  std::uint64_t tlb_hits = 0;
  std::uint64_t tlb_misses = 0;
  std::uint64_t dram_fast_ops = 0;
  std::uint64_t dram_slow_ops = 0;
  std::uint64_t guest_quanta = 0;
  std::uint64_t guest_timer_calls = 0;
  std::uint64_t guest_irq_calls = 0;
  std::uint64_t injector_calls = 0;
  std::uint64_t injections = 0;
  // TestbedPool::stats() deltas.
  std::uint64_t restores = 0;
  std::uint64_t resets = 0;
  std::uint64_t captures = 0;
  std::uint64_t slots_built = 0;

  [[nodiscard]] std::string describe() const;
};

/// What one traced pass over the plan set produced.
struct ReplicaPass {
  std::vector<std::string> logs;  ///< per campaign, LogSink body
  std::string report;
  SimCounts counts;
  std::uint64_t harness_errors = 0;
};

class Replica {
 public:
  explicit Replica(Tracer& tracer);
  ~Replica();
  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  [[nodiscard]] ReplicaPass run_pass(const std::vector<mcs::fi::TestPlan>& plans);

 private:
  class TimedGuest;
  struct Decorators;
  struct Campaign;

  [[nodiscard]] mcs::fi::RunResult run_one(const Campaign& campaign,
                                           std::uint64_t run_seed,
                                           mcs::fi::Testbed& testbed,
                                           SimCounts& counts);
  /// Rebind the booted cells' images to timing decorators.
  void decorate(mcs::fi::Testbed& testbed);

  Tracer* tracer_;
  std::uint32_t next_run_ = 1;
  std::unordered_map<mcs::fi::Testbed*, std::unique_ptr<Decorators>> decorators_;
};

}  // namespace e2e
