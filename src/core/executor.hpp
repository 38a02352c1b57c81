// Campaign execution engine — the one way to run the outer loop of
// Figure 2: shards a test plan's runs across worker threads (inline on
// the caller's thread at width 1), each run on a private Testbed, with
// results written into pre-assigned slots. ExecutorConfig holds only the
// thread count; reference behaviours (per-tick stepping, fresh testbeds)
// live in the tests and benches, not here.
//
// Determinism contract: a campaign's CampaignResult is bit-identical for
// any thread count. Every run's seed comes from one serial SplitMix64
// expansion of the plan seed, runs share no state (private Testbed, private
// Injector/RNG), and each result lands in its own pre-sized slot — worker
// scheduling can reorder *completion*, never *content*.
//
// Run lifecycle: each worker thread checks one long-lived (board,
// testbed) slot out of the fi::TestbedPool for its whole shard, and every
// run is provisioned one way. When the slot holds a post-boot snapshot
// for this campaign shape and the scenario allows it, the run restores
// that snapshot by bulk copy; otherwise it calls Testbed::reset() (restore
// the power-on image), runs setup + boot, and captures the post-boot
// snapshot if the scenario is eligible (boot once, inject many).
// Scenarios that inject *during* boot are ineligible and reset + boot
// every run. The board name and registry entry are resolved once at
// construction, never in the per-run loop. Every run is event-driven (the
// power-on image's tick policy), and every failed run gets the paper's
// post-mortem `jailhouse cell shutdown` probe. The reference ("oracle")
// for all of this is execute_one(): the same run on a freshly built
// testbed. The reuse- and snapshot-equivalence suites pin executor ≡
// oracle; the tick-equivalence suite pins it against a per-tick
// reference campaign built from public Testbed calls.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "core/campaign.hpp"
#include "core/scenario.hpp"
#include "core/testbed_pool.hpp"
#include "platform/board_registry.hpp"

namespace mcs::fi {

struct ExecutorConfig {
  /// Worker threads; 0 → util::ThreadPool::default_threads() (the
  /// MCS_CAMPAIGN_THREADS environment variable, else hw_concurrency).
  /// A campaign never runs wider than its run count, and at width 1 it
  /// runs on the caller's thread.
  unsigned threads = 0;
};

class CampaignExecutor {
 public:
  /// The scenario is resolved from plan.scenario via the ScenarioRegistry
  /// at execute() time; an unknown key yields HarnessError runs. The
  /// board is resolved here, once: tuning's `board` key overrides the
  /// plan's, and the registry entry is cached so the per-run path never
  /// re-locks the registry — an unknown board key yields HarnessError
  /// runs, exactly as the per-run lookup did.
  explicit CampaignExecutor(TestPlan plan, ExecutorConfig config = {});

  /// Per-run completion callback, fired as runs finish. At width 1 it runs
  /// on the caller's thread in run order; with more than one worker the
  /// completion order is nondeterministic — the index argument, not the
  /// call order, identifies the run. Called under an internal mutex:
  /// callbacks never race each other.
  using ProgressFn = std::function<void(std::uint32_t, const RunResult&)>;
  void set_progress(ProgressFn fn) { progress_ = std::move(fn); }

  /// Execute all runs of the plan. Deterministic in (plan.seed, plan),
  /// independent of config.threads and of how each run was provisioned.
  [[nodiscard]] CampaignResult execute();

  /// Execute a single run with an explicit seed on a freshly built
  /// testbed, bypassing the pool (replay, and the reference oracle the
  /// equivalence suites compare pooled campaigns against).
  [[nodiscard]] RunResult execute_one(std::uint64_t run_seed) const;

  [[nodiscard]] const TestPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] const ExecutorConfig& config() const noexcept { return config_; }

  /// The board registry key this executor's runs resolve to (tuning
  /// override already applied).
  [[nodiscard]] const std::string& board_name() const noexcept {
    return board_name_;
  }

 private:
  /// The HarnessError every run of this campaign reports (unknown
  /// scenario/board, malformed tuning, rate 0), or nullopt when runs can
  /// execute. Error campaigns never provision hardware.
  [[nodiscard]] std::optional<RunResult> campaign_error(
      const Scenario* scenario) const;

  /// One run on `testbed`: restore its post-boot snapshot when it holds
  /// one for this campaign shape and the scenario allows it, otherwise
  /// reset() + setup + boot (+ capture when eligible).
  [[nodiscard]] RunResult run_with(const Scenario& scenario,
                                   std::uint64_t run_seed,
                                   Testbed& testbed) const;

  /// A pool lease keyed by (board, tuning, scenario), so a parked slot's
  /// held snapshot matches the next campaign that checks it out.
  [[nodiscard]] TestbedLease lease_slot() const;

  TestPlan plan_;
  ExecutorConfig config_;
  ProgressFn progress_;
  /// plan_.cell_tuning parsed once at construction; runs reuse the value
  /// (or report the parse failure as a per-run HarnessError).
  jh::CellTuning tuning_;
  util::Status tuning_status_;
  /// Board resolution hoisted out of the per-run loop: the effective
  /// registry key and its cached entry (nullptr → per-run HarnessError).
  std::string board_name_;
  std::shared_ptr<const platform::BoardRegistry::Entry> board_;
  /// Snapshot identity, precomputed once: what of the boot-time state the
  /// plan can influence. setup()/boot() see only (board, tuning, scenario)
  /// — never the injection plan — so runs with equal keys boot to
  /// bit-identical state. `pool_extra_key_` is the suffix the
  /// pool adds to its slot key so parked snapshots match their campaigns.
  std::string snapshot_key_;
  std::string pool_extra_key_;
};

}  // namespace mcs::fi
