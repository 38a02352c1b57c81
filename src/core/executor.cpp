#include "core/executor.hpp"

#include <atomic>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/injector.hpp"
#include "core/monitor.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mcs::fi {

namespace {

RunResult harness_error(std::string detail) {
  RunResult result;
  result.outcome = Outcome::HarnessError;
  result.detail = std::move(detail);
  return result;
}

}  // namespace

CampaignExecutor::CampaignExecutor(TestPlan plan, ExecutorConfig config)
    : plan_(std::move(plan)), config_(config) {
  if (!plan_.cell_tuning.empty()) {
    auto tuning = jh::parse_cell_tuning(plan_.cell_tuning);
    if (tuning.is_ok()) {
      tuning_ = tuning.value();
    } else {
      tuning_status_ = tuning.status();
    }
  }
  // The tuning's fault-domain key (if any) overrides the plan's, like the
  // board key below. Plans built via ScenarioRegistry::make arrive with
  // the override already applied; this re-resolution covers plans whose
  // tuning was attached directly (the sweep expand path). An unknown name
  // is a HarnessError on every run, like a malformed tuning.
  if (tuning_status_.is_ok() && !tuning_.fault_domain.empty() &&
      !fault_domain_from_name(tuning_.fault_domain, plan_.fault_domain)) {
    tuning_status_ = util::invalid_argument("unknown fault domain '" +
                                            tuning_.fault_domain + "'");
  }
  // Board resolution, once per campaign instead of once per run: the
  // tuning's `board` key (if any) overrides the plan's, and the registry
  // entry is cached so runs construct boards without re-locking the
  // registry. An unknown key is reported as a HarnessError on every run
  // (first included), exactly as the per-run lookup did.
  board_name_ = !tuning_.board.empty() ? tuning_.board : plan_.board;
  board_ = platform::BoardRegistry::instance().entry(board_name_);
  // Snapshot identity ('\x1f' separators match the pool's key encoding).
  pool_extra_key_ = plan_.scenario;
  snapshot_key_ =
      board_name_ + '\x1f' + plan_.cell_tuning + '\x1f' + pool_extra_key_;
}

std::optional<RunResult> CampaignExecutor::campaign_error(
    const Scenario* scenario) const {
  if (scenario == nullptr) {
    return harness_error("unknown scenario '" + plan_.scenario + "'");
  }
  if (!tuning_status_.is_ok()) {
    return harness_error("bad cell tuning: " + tuning_status_.to_string());
  }
  if (board_ == nullptr) {
    return harness_error("unknown board '" + board_name_ + "'");
  }
  if (plan_.rate == 0) {
    // The injector fires on every rate-th hook call; 0 has no cadence.
    return harness_error("bad injection rate 0 (need a call count ≥ 1)");
  }
  return std::nullopt;
}

TestbedLease CampaignExecutor::lease_slot() const {
  return TestbedPool::instance().acquire(board_name_, plan_.cell_tuning,
                                         *board_, pool_extra_key_);
}

RunResult CampaignExecutor::run_with(const Scenario& scenario,
                                     std::uint64_t run_seed,
                                     Testbed& testbed) const {
  // One provisioning path: restore the slot's post-boot snapshot when it
  // holds one for this campaign shape, else power-on reset + setup +
  // boot (+ capture). Bit-identical to execute_one()'s fresh testbed —
  // the reuse- and snapshot-equivalence suites pin it. Scenarios that
  // inject during boot can never restore (the injected boot is the
  // experiment).
  const bool arm_during_boot = scenario.arm_during_boot(plan_);
  const bool restored = !arm_during_boot &&
                        testbed.has_snapshot(snapshot_key_) &&
                        testbed.restore_snapshot();
  if (!restored) {
    // Restored state already carries tuning and the booted cells (the
    // snapshot key guarantees they match); only the reset path configures
    // and boots. reset() restores the power-on image, event-driven tick
    // policy included.
    testbed.reset();
    if (!tuning_.empty()) testbed.set_cell_tuning(tuning_);
    // An unbootable testbed is a harness bug, not an experiment outcome.
    const util::Status ready = scenario.setup(testbed);
    if (!ready.is_ok()) {
      return harness_error("scenario setup failed: " + ready.to_string());
    }
  }

  // Window this run's guest-access activity: counters are monotonic for
  // the testbed's lifetime, so the (after − before) delta is exact even
  // on reused slots.
  const Testbed::AccessCounters access_before = testbed.access_counters();

  Injector injector(plan_, run_seed, testbed.board().clock());
  RunMonitor monitor;

  if (arm_during_boot) {
    // §III high-intensity shape: the injector is live while the root
    // shell creates and starts the cell.
    injector.attach(testbed.hypervisor());
    scenario.boot(testbed);
    monitor.begin(testbed);
    scenario.observe(testbed, plan_);
  } else {
    // Figure 3 shape: boot clean, then inject into the steady state.
    if (!restored) {
      scenario.boot(testbed);
      // Boot once, inject many: every later run of this slot restores.
      testbed.capture_snapshot(snapshot_key_);
      TestbedPool::instance().record_capture(
          testbed.snapshot_bytes(), testbed.board().dram().dirty_pages());
    }
    monitor.begin(testbed);
    injector.attach(testbed.hypervisor());
    scenario.observe(testbed, plan_);
  }
  restored ? TestbedPool::instance().record_restore()
           : TestbedPool::instance().record_reset();

  // Observation epilogue: stop injecting, keep watching.
  injector.set_armed(false);
  scenario.epilogue(testbed);

  RunResult result = monitor.finish(testbed);
  result.fault_domain = plan_.fault_domain;
  result.injections = injector.injections();
  result.first_injection_tick = injector.first_injection_tick();
  for (const InjectionRecord& record : injector.records()) {
    result.flipped_bits += record.flips.size();
  }

  if (result.outcome != Outcome::Correct &&
      result.outcome != Outcome::HarnessError) {
    result.shutdown_reclaimed = probe_shutdown_reclaims(testbed);
  }

  injector.detach(testbed.hypervisor());
  TestbedPool::instance().record_access(testbed.access_counters(), access_before);
  return result;
}

RunResult CampaignExecutor::execute_one(std::uint64_t run_seed) const {
  const Scenario* scenario = find_scenario(plan_.scenario);
  if (std::optional<RunResult> error = campaign_error(scenario)) return *error;
  Testbed fresh(board_->factory());
  return run_with(*scenario, run_seed, fresh);
}

CampaignResult CampaignExecutor::execute() {
  CampaignResult result;
  result.plan = plan_;
  result.runs.resize(plan_.runs);  // pre-sized slots: one per run

  // Seed expansion is serial and thread-count-independent; runs only ever
  // see their own seed.
  std::vector<std::uint64_t> seeds(plan_.runs);
  util::SplitMix64 seeder(plan_.seed);
  for (std::uint64_t& seed : seeds) seed = seeder.next();

  const Scenario* scenario = find_scenario(plan_.scenario);
  if (const std::optional<RunResult> error = campaign_error(scenario)) {
    for (std::uint32_t i = 0; i < plan_.runs; ++i) {
      result.runs[i] = *error;
      if (progress_) progress_(i, result.runs[i]);
    }
    return result;
  }

  // One worker-loop body at every width: inline on this thread at width 1
  // (progress then arrives in run order), on a util::ThreadPool otherwise.
  std::atomic<std::uint32_t> next{0};
  std::mutex progress_mutex;
  util::fan_out(config_.threads, plan_.runs, [&] {
    // Each worker checks out one long-lived slot for its whole shard; the
    // steady-state per-run path is restore + run, no locks. The lease is
    // taken lazily on the first claimed run, so a campaign with fewer runs
    // than workers never provisions surplus testbeds.
    TestbedLease lease;
    for (;;) {
      const std::uint32_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= plan_.runs) return;
      if (!lease) lease = lease_slot();
      result.runs[i] = run_with(*scenario, seeds[i], *lease.get());
      if (progress_) {
        const std::lock_guard<std::mutex> lock(progress_mutex);
        progress_(i, result.runs[i]);
      }
    }
  });
  return result;
}

}  // namespace mcs::fi
