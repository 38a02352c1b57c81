// Campaign results: what the outer loop of Figure 2 produces.
//
// test plan → fault-injection test per run → log file → analytics. The
// loop itself is fi::CampaignExecutor (core/executor.hpp); this header
// holds its result and the run-log line rendering the log file and the
// analytics share. Each run gets an independent RNG stream derived from
// the plan seed, so any single run — and the whole figure — replays
// exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/injector.hpp"
#include "core/monitor.hpp"
#include "core/outcome.hpp"
#include "core/plan.hpp"

namespace mcs::fi {

struct CampaignResult {
  TestPlan plan;
  std::vector<RunResult> runs;

  [[nodiscard]] OutcomeDistribution distribution() const;

  /// Mean detection latency over runs that failed and were detected (ms).
  [[nodiscard]] double mean_detection_latency() const;

  /// Total injections across all runs.
  [[nodiscard]] std::uint64_t total_injections() const;
};

/// Render one run's key facts as a log line (the campaign log file body).
[[nodiscard]] std::string run_log_line(std::uint32_t index, const RunResult& run);

/// Append run_log_line(index, run) — same bytes, no trailing newline — to
/// `out` without allocating once `out`'s capacity is warm: all numerics
/// render via std::to_chars into stack scratch. The LogSink's release
/// path calls this into one reusable buffer per sink, so a campaign's
/// steady-state logging never touches the heap.
void append_run_log_line(std::string& out, std::uint32_t index,
                         const RunResult& run);

}  // namespace mcs::fi
