#include "replica.hpp"

#include <algorithm>
#include <cstdio>

#include "analysis/log_sink.hpp"
#include "analysis/report.hpp"
#include "core/injector.hpp"
#include "core/monitor.hpp"
#include "core/scenario.hpp"
#include "core/testbed_pool.hpp"
#include "hypervisor/config_text.hpp"
#include "hypervisor/guest.hpp"
#include "irq/gic.hpp"
#include "platform/board_registry.hpp"
#include "util/rng.hpp"

namespace e2e {

namespace {

using mcs::fi::RunResult;
using mcs::fi::Testbed;
using mcs::fi::TestPlan;

constexpr const char* kSpanNames[kNumSpanNames] = {
    "pass",  "campaign", "lease",   "run",    "provision", "setup",
    "boot",  "capture",  "attach",  "observe", "epilogue", "finish",
    "probe", "detach",   "sink",    "report", "guest",     "hook"};

/// Opens a span for the lifetime of the guard.
class SpanGuard {
 public:
  SpanGuard(Tracer& tracer, SpanName name)
      : tracer_(&tracer), index_(tracer.open(name)) {}
  ~SpanGuard() { tracer_->close(index_); }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t index_;
};

/// The simulated state a run's statistics are windowed over.
struct Sample {
  mcs::jh::Counters hv;
  std::uint64_t irq_delivered = 0;
  std::uint64_t tick = 0;
  Testbed::AccessCounters access;
  std::array<std::uint64_t, 3> guest_calls{};
};

Sample sample(Testbed& testbed, const Tracer& tracer) {
  Sample s;
  s.hv = testbed.hypervisor().counters();
  const mcs::irq::Gic& gic = testbed.board().gic();
  for (mcs::irq::IrqId irq = 0; irq < mcs::irq::kNumIrqs; ++irq) {
    s.irq_delivered += gic.delivered(irq);
  }
  s.tick = testbed.board().now().value;
  s.access = testbed.access_counters();
  s.guest_calls = tracer.guest_calls();
  return s;
}

void add_window(SimCounts& counts, const Sample& before, const Sample& after) {
  counts.traps += after.hv.traps - before.hv.traps;
  counts.hvcs += after.hv.hvcs - before.hv.hvcs;
  counts.irqs += after.hv.irqs - before.hv.irqs;
  counts.mmio_emulations += after.hv.mmio_emulations - before.hv.mmio_emulations;
  counts.irq_delivered += after.irq_delivered - before.irq_delivered;
  counts.sim_ticks += after.tick - before.tick;
  counts.deadline_refreshes +=
      after.access.deadline_refreshes - before.access.deadline_refreshes;
  counts.tlb_hits += after.access.tlb_hits - before.access.tlb_hits;
  counts.tlb_misses += after.access.tlb_misses - before.access.tlb_misses;
  counts.dram_fast_ops += after.access.dram_fast_ops - before.access.dram_fast_ops;
  counts.dram_slow_ops += after.access.dram_slow_ops - before.access.dram_slow_ops;
  counts.guest_quanta += after.guest_calls[0] - before.guest_calls[0];
  counts.guest_timer_calls += after.guest_calls[1] - before.guest_calls[1];
  counts.guest_irq_calls += after.guest_calls[2] - before.guest_calls[2];
}

RunResult harness_error(std::string detail) {
  RunResult result;
  result.outcome = mcs::fi::Outcome::HarnessError;
  result.detail = std::move(detail);
  return result;
}

}  // namespace

const char* span_name(SpanName name) noexcept {
  return kSpanNames[static_cast<std::size_t>(name)];
}

// --- Tracer -----------------------------------------------------------------

Tracer::Tracer() {
  // A timed call's duration includes one clock read; take the median of
  // back-to-back reads as that cost.
  std::vector<std::int64_t> deltas(2001);
  for (std::int64_t& delta : deltas) {
    const std::int64_t start = now_ns();
    delta = now_ns() - start;
  }
  std::nth_element(deltas.begin(), deltas.begin() + 1000, deltas.end());
  clock_ns_ = deltas[1000];
}

std::int32_t Tracer::open(SpanName name) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back().span;
  span.run = run_;
  span.start_ns = now_ns();
  spans_.push_back(span);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  Frame frame;
  frame.span = index;
  stack_.push_back(frame);
  return index;
}

void Tracer::close(std::int32_t index) {
  const std::int64_t end = now_ns();
  const Frame frame = stack_.back();
  stack_.pop_back();
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = end;
  span.busy_ns = end - span.start_ns;
  const Span parent = span;  // push_back below may reallocate

  const auto aggregate = [&](SpanName name, std::int32_t under, const Hot& hot) {
    Span child;
    child.name = name;
    child.parent = under;
    child.run = parent.run;
    child.start_ns = parent.start_ns;
    child.end_ns = parent.end_ns;
    child.count = hot.calls;
    child.timed = hot.timed;
    child.busy_ns =
        hot.timed == 0 ? 0
                       : static_cast<std::int64_t>(static_cast<double>(hot.timed_ns) *
                                                   static_cast<double>(hot.calls) /
                                                   static_cast<double>(hot.timed));
    spans_.push_back(child);
    return static_cast<std::int32_t>(spans_.size() - 1);
  };
  if (frame.guest.calls != 0) {
    const std::int32_t guest = aggregate(SpanName::Guest, index, frame.guest);
    if (frame.hook_in_guest.calls != 0) {
      aggregate(SpanName::Hook, guest, frame.hook_in_guest);
    }
  }
  if (frame.hook.calls != 0) aggregate(SpanName::Hook, index, frame.hook);
}

std::int64_t Tracer::guest_enter() noexcept {
  in_guest_ = true;
  return sample() ? now_ns() : -1;
}

void Tracer::guest_exit(std::int64_t start, GuestCall call) noexcept {
  const std::int64_t ns = start < 0 ? -1 : now_ns() - start;
  in_guest_ = false;
  ++guest_calls_[static_cast<std::size_t>(call)];
  if (!stack_.empty()) add(stack_.back().guest, ns);
}

void Tracer::hook(std::int64_t ns) noexcept {
  if (stack_.empty()) return;
  Frame& frame = stack_.back();
  add(in_guest_ ? frame.hook_in_guest : frame.hook, ns);
}

// --- decorating guest image ---------------------------------------------------

/// Forwards every call to the image the scenario bound, timing the three
/// per-tick entry points. Holds no guest state, so decorated runs stay
/// byte-identical to undecorated ones (the replica check asserts it).
class Replica::TimedGuest final : public mcs::jh::GuestImage {
 public:
  explicit TimedGuest(Tracer& tracer) : tracer_(&tracer) {}

  void wrap(mcs::jh::GuestImage& inner) noexcept { inner_ = &inner; }

  [[nodiscard]] std::string_view name() const override { return inner_->name(); }
  void on_start(mcs::jh::GuestContext& ctx) override { inner_->on_start(ctx); }
  void run_quantum(mcs::jh::GuestContext& ctx) override {
    const std::int64_t start = tracer_->guest_enter();
    inner_->run_quantum(ctx);
    tracer_->guest_exit(start, Tracer::GuestCall::Quantum);
  }
  void on_timer(mcs::jh::GuestContext& ctx) override {
    const std::int64_t start = tracer_->guest_enter();
    inner_->on_timer(ctx);
    tracer_->guest_exit(start, Tracer::GuestCall::Timer);
  }
  void on_irq(mcs::jh::GuestContext& ctx, std::uint32_t irq) override {
    const std::int64_t start = tracer_->guest_enter();
    inner_->on_irq(ctx, irq);
    tracer_->guest_exit(start, Tracer::GuestCall::Irq);
  }

 private:
  Tracer* tracer_;
  mcs::jh::GuestImage* inner_ = nullptr;
};

/// One decorator per cell role of a pooled testbed. Snapshots capture the
/// machine's bindings by address, so these live as long as the replica.
struct Replica::Decorators {
  explicit Decorators(Tracer& tracer) : workload(tracer), secondary(tracer) {}
  TimedGuest workload;
  TimedGuest secondary;
};

Replica::Replica(Tracer& tracer) : tracer_(&tracer) {}

Replica::~Replica() {
  // Parked slots hold bindings to the decorators destroyed with us.
  mcs::fi::TestbedPool::instance().clear();
}

void Replica::decorate(Testbed& testbed) {
  auto& slot = decorators_[&testbed];
  if (!slot) slot = std::make_unique<Decorators>(*tracer_);
  const std::pair<mcs::jh::CellId, TimedGuest*> roles[] = {
      {testbed.workload_cell_id(), &slot->workload},
      {testbed.secondary_cell_id(), &slot->secondary}};
  for (const auto& [cell, decorator] : roles) {
    if (cell == 0) continue;
    mcs::jh::GuestImage* bound = testbed.machine().guest_for(cell);
    if (bound == nullptr || bound == decorator) continue;
    decorator->wrap(*bound);
    testbed.machine().bind_guest(cell, *decorator);
  }
}

// --- the per-run sequence -------------------------------------------------------

/// What the executor resolves once per campaign, at construction.
struct Replica::Campaign {
  TestPlan plan;  ///< with the tuning's fault-domain override applied
  const mcs::fi::Scenario* scenario = nullptr;
  mcs::jh::CellTuning tuning;
  std::string board;
  std::string snapshot_key;
};

RunResult Replica::run_one(const Campaign& campaign, std::uint64_t run_seed,
                           Testbed& testbed, SimCounts& counts) {
  Tracer& tracer = *tracer_;
  const TestPlan& plan = campaign.plan;
  const mcs::fi::Scenario* scenario = campaign.scenario;
  const mcs::jh::CellTuning& tuning = campaign.tuning;
  const std::string& snapshot_key = campaign.snapshot_key;
  mcs::fi::TestbedPool& pool = mcs::fi::TestbedPool::instance();

  const bool arm_during_boot = scenario->arm_during_boot(plan);
  const bool snapshot_eligible = !arm_during_boot;
  bool restored = false;
  {
    SpanGuard span(tracer, SpanName::Provision);
    if (snapshot_eligible && testbed.has_snapshot(snapshot_key)) {
      restored = testbed.restore_snapshot();
    }
    if (!restored) testbed.reset();
  }
  const Sample before = sample(testbed, tracer);
  if (!restored) {
    SpanGuard span(tracer, SpanName::Setup);
    testbed.set_tick_policy(mcs::jh::TickPolicy::EventDriven);
    if (!tuning.empty()) testbed.set_cell_tuning(tuning);
    const mcs::util::Status ready = scenario->setup(testbed);
    if (!ready.is_ok()) {
      return harness_error("scenario setup failed: " + ready.to_string());
    }
  }

  const Testbed::AccessCounters access_before = testbed.access_counters();
  mcs::fi::Injector injector(plan, run_seed, testbed.board().clock());
  mcs::fi::RunMonitor monitor;
  const auto attach = [&] {
    injector.attach(testbed.hypervisor());
    // Re-install the hook as a forwarder that times Injector::on_entry.
    testbed.hypervisor().set_entry_hook(
        [&](mcs::jh::HookPoint point, mcs::arch::EntryFrame& frame) {
          if (!tracer.sample()) {
            injector.on_entry(point, frame);
            tracer.hook(-1);
            return;
          }
          const std::int64_t start = Tracer::now_ns();
          injector.on_entry(point, frame);
          tracer.hook(Tracer::now_ns() - start);
        });
  };

  if (arm_during_boot) {
    {
      SpanGuard span(tracer, SpanName::Attach);
      attach();
    }
    {
      SpanGuard span(tracer, SpanName::Boot);
      scenario->boot(testbed);
      decorate(testbed);
    }
    {
      SpanGuard span(tracer, SpanName::Attach);
      monitor.begin(testbed);
    }
  } else {
    if (!restored) {
      {
        SpanGuard span(tracer, SpanName::Boot);
        scenario->boot(testbed);
        decorate(testbed);
      }
      SpanGuard span(tracer, SpanName::Capture);
      testbed.capture_snapshot(snapshot_key);
      pool.record_capture(testbed.snapshot_bytes(),
                          testbed.board().dram().dirty_pages());
    }
    SpanGuard span(tracer, SpanName::Attach);
    monitor.begin(testbed);
    attach();
  }
  {
    SpanGuard span(tracer, SpanName::Observe);
    scenario->observe(testbed, plan);
  }
  restored ? pool.record_restore() : pool.record_reset();
  {
    SpanGuard span(tracer, SpanName::Epilogue);
    injector.set_armed(false);
    scenario->epilogue(testbed);
  }

  RunResult result;
  {
    SpanGuard span(tracer, SpanName::Finish);
    result = monitor.finish(testbed);
    result.fault_domain = plan.fault_domain;
    result.injections = injector.injections();
    result.first_injection_tick = injector.first_injection_tick();
    for (const mcs::fi::InjectionRecord& record : injector.records()) {
      result.flipped_bits += record.flips.size();
    }
  }
  if (result.outcome != mcs::fi::Outcome::Correct &&
      result.outcome != mcs::fi::Outcome::HarnessError) {
    SpanGuard span(tracer, SpanName::Probe);
    result.shutdown_reclaimed = mcs::fi::probe_shutdown_reclaims(testbed);
  }

  SpanGuard span(tracer, SpanName::Detach);
  add_window(counts, before, sample(testbed, tracer));
  counts.injector_calls += injector.filtered_calls();
  counts.injections += injector.injections();
  injector.detach(testbed.hypervisor());
  pool.record_access(testbed.access_counters(), access_before);
  return result;
}

ReplicaPass Replica::run_pass(const std::vector<TestPlan>& plans) {
  Tracer& tracer = *tracer_;
  mcs::fi::TestbedPool& pool = mcs::fi::TestbedPool::instance();
  const mcs::fi::TestbedPool::Stats pool_before = pool.stats();
  ReplicaPass out;
  tracer.set_run(0);
  SpanGuard pass_span(tracer, SpanName::Pass);
  std::vector<mcs::analysis::ComparisonColumn> columns;
  for (const TestPlan& base : plans) {
    tracer.set_run(0);
    SpanGuard campaign_span(tracer, SpanName::Campaign);
    // Plan resolution as the executor's constructor does it: the tuning's
    // board and fault-domain keys override the plan's. The workloads only
    // build plans the registry accepted, so parsing cannot fail here.
    Campaign campaign;
    campaign.plan = base;
    TestPlan& plan = campaign.plan;
    campaign.scenario = mcs::fi::find_scenario(plan.scenario);
    if (!plan.cell_tuning.empty()) {
      campaign.tuning = mcs::jh::parse_cell_tuning(plan.cell_tuning).value();
    }
    if (!campaign.tuning.fault_domain.empty()) {
      (void)mcs::fi::fault_domain_from_name(campaign.tuning.fault_domain,
                                            plan.fault_domain);
    }
    campaign.board = campaign.tuning.board.empty() ? plan.board : campaign.tuning.board;
    campaign.snapshot_key = campaign.board + '\x1f' + plan.cell_tuning + '\x1f' +
                            plan.scenario + "\x1f" "event\x1f" "e2ebench";
    const auto entry = mcs::platform::BoardRegistry::instance().entry(campaign.board);

    std::vector<std::uint64_t> seeds(plan.runs);
    mcs::util::SplitMix64 seeder(plan.seed);
    for (std::uint64_t& seed : seeds) seed = seeder.next();

    mcs::fi::TestbedLease lease;
    {
      SpanGuard span(tracer, SpanName::Lease);
      lease = pool.acquire(campaign.board, plan.cell_tuning, *entry,
                           plan.scenario + "\x1f" "event\x1f" "e2ebench");
    }
    mcs::analysis::LogSink sink;
    for (std::uint32_t i = 0; i < plan.runs; ++i) {
      tracer.set_run(next_run_++);
      SpanGuard run_span(tracer, SpanName::Run);
      const RunResult result = run_one(campaign, seeds[i], *lease.get(), out.counts);
      ++out.counts.runs;
      if (result.outcome == mcs::fi::Outcome::HarnessError) ++out.harness_errors;
      SpanGuard span(tracer, SpanName::Sink);
      sink.record(i, result);
    }
    tracer.set_run(0);
    out.logs.push_back(sink.text());
    columns.push_back({plan.name, sink.aggregate()});
  }
  {
    SpanGuard span(tracer, SpanName::Report);
    out.report = mcs::analysis::render_comparison_report(columns, "e2ebench replica");
  }
  const mcs::fi::TestbedPool::Stats pool_after = pool.stats();
  out.counts.restores = pool_after.run_restores - pool_before.run_restores;
  out.counts.resets = pool_after.run_resets - pool_before.run_resets;
  out.counts.captures = pool_after.captures - pool_before.captures;
  out.counts.slots_built = pool_after.creates - pool_before.creates;
  return out;
}

std::string SimCounts::describe() const {
  char buf[768];
  std::snprintf(
      buf, sizeof buf,
      "runs %llu traps %llu hvcs %llu irqs %llu mmio %llu irq-delivered %llu "
      "ticks %llu deadline-refreshes %llu tlb %llu/%llu dram %llu/%llu "
      "guest %llu/%llu/%llu injector %llu/%llu provisioning %llu/%llu/%llu/%llu\n",
      static_cast<unsigned long long>(runs), static_cast<unsigned long long>(traps),
      static_cast<unsigned long long>(hvcs), static_cast<unsigned long long>(irqs),
      static_cast<unsigned long long>(mmio_emulations),
      static_cast<unsigned long long>(irq_delivered),
      static_cast<unsigned long long>(sim_ticks),
      static_cast<unsigned long long>(deadline_refreshes),
      static_cast<unsigned long long>(tlb_hits),
      static_cast<unsigned long long>(tlb_misses),
      static_cast<unsigned long long>(dram_fast_ops),
      static_cast<unsigned long long>(dram_slow_ops),
      static_cast<unsigned long long>(guest_quanta),
      static_cast<unsigned long long>(guest_timer_calls),
      static_cast<unsigned long long>(guest_irq_calls),
      static_cast<unsigned long long>(injector_calls),
      static_cast<unsigned long long>(injections),
      static_cast<unsigned long long>(restores),
      static_cast<unsigned long long>(resets),
      static_cast<unsigned long long>(captures),
      static_cast<unsigned long long>(slots_built));
  return buf;
}

}  // namespace e2e
