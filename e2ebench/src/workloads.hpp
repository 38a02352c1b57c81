// Benchmark workloads: the campaign plans each workload runs, generated
// from the benchmark seed, plus the hashing and clock helpers the worker
// modes share.
//
// Every workload is a fixed *shape* of plans — scenarios, boards, domains,
// rates, windows, run counts — whose plan seeds derive from the benchmark
// seed and a round number. A measurement runs rounds 0, 1, 2, … in whole
// passes until its time budget is spent, so every run it times is a
// distinct run, and the outcome mix (which decides how much of a window a
// run simulates) averages over all of them rather than over one round.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/log_sink.hpp"
#include "core/plan.hpp"
#include "core/sweep.hpp"

namespace e2e {

enum class Workload { Fig3Steady, IvshmemDomains, ShortWindowGrid };

[[nodiscard]] bool workload_from_name(std::string_view name, Workload& out);

struct WorkloadPlans {
  /// Campaign plans in execution order. For the grid these are the
  /// expanded sweep cells, in the sweeps' grid order.
  std::vector<mcs::fi::TestPlan> plans;
  /// The grid's sweep specs (empty for campaign workloads). Log dirs are
  /// filled in by the caller.
  std::vector<mcs::fi::SweepSpec> sweeps;
};

/// Worker threads of the grid's multi-threaded path: min(hardware
/// threads, 4). Timed passes run one thread (see README.md).
[[nodiscard]] unsigned grid_threads();

/// Build one round of a workload's plans from the benchmark seed. Aborts
/// with a message on stderr when the program rejects a plan: a workload
/// that cannot be built is a benchmark defect, not a measurement.
[[nodiscard]] WorkloadPlans make_workload(Workload workload, std::uint64_t seed,
                                          std::uint64_t round);

/// 64-bit FNV-1a of `bytes`, rendered as 16 hex digits.
[[nodiscard]] std::string fnv1a_hex(std::string_view bytes);

/// Canonical text of an aggregate: outcome counts, per-domain injections,
/// cell failures, reclaims and the detection-latency summary.
[[nodiscard]] std::string describe(const mcs::analysis::CampaignAggregate& aggregate);

// --- the program's own paths, untraced -------------------------------------

/// One campaign as the fault_campaign CLI runs it: CampaignExecutor feeding
/// a LogSink, plus the simulated statistics the run results carry.
struct CampaignRecord {
  std::string name;
  std::uint64_t seed = 0;
  std::string log;  ///< the LogSink's ordered log body
  mcs::analysis::CampaignAggregate aggregate;
  std::uint64_t runs = 0;
  std::uint64_t window_ticks = 0;
  std::uint64_t traps = 0;
  std::uint64_t hvcs = 0;
  std::uint64_t irqs = 0;
  std::uint64_t flipped_bits = 0;
  std::uint64_t harness_errors = 0;
};

/// Run every plan through CampaignExecutor at `threads` workers. `on_run`
/// fires after each run, on the thread that completed it, under the
/// executor's progress mutex.
[[nodiscard]] std::vector<CampaignRecord> run_campaigns(
    const std::vector<mcs::fi::TestPlan>& plans, unsigned threads,
    const std::function<void()>& on_run);

/// Canonical bytes of a campaign pass: per campaign its log body,
/// aggregate and summed traps/HVCs/IRQs, then the comparison report.
[[nodiscard]] std::string campaign_pass_text(
    const std::vector<CampaignRecord>& records);

/// One pass of the grid as the sweep CLI runs it: every spec through
/// SweepDriver into `log_dir` (which the caller empties first), then (when `resume`) a cold
/// SweepDriver over the same logdir that must resume every cell.
struct GridPass {
  std::string report;          ///< comparison reports of the fresh sweeps
  std::string resumed_report;  ///< …of the cold resume (empty without one)
  std::uint64_t runs = 0;
  std::uint64_t window_ticks = 0;
  std::uint64_t harness_errors = 0;
  double fresh_s = 0.0;
  double resume_s = 0.0;
  std::string error;  ///< non-empty when a sweep failed or mis-resumed
};

/// `on_cell` fires on the calling thread after each executed cell with
/// the cell's run count.
[[nodiscard]] GridPass run_grid(std::vector<mcs::fi::SweepSpec> sweeps,
                                const std::string& log_dir, unsigned threads,
                                bool resume,
                                const std::function<void(std::uint32_t)>& on_cell);

/// The persisted run log of every grid cell under `log_dir`, in grid order.
[[nodiscard]] std::vector<std::string> read_cell_logs(
    const std::vector<mcs::fi::TestPlan>& plans, const std::string& log_dir);

/// Canonical bytes of a grid pass: its report plus every cell's log.
[[nodiscard]] std::string grid_pass_text(const GridPass& pass,
                                         const std::vector<std::string>& cell_logs);

/// Monotonic host time in seconds.
[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Host time of a one-run campaign with a zero-tick window on `plan`:
/// board build, scenario setup, boot and snapshot capture. Sets `failed`
/// when the run ends in a harness error.
[[nodiscard]] double time_setup_campaign(const mcs::fi::TestPlan& plan,
                                         bool& failed);

/// Peak resident set size of this process in KiB.
[[nodiscard]] long peak_rss_kb();


}  // namespace e2e
