// Resume trust chain, end to end: the analytics a live sharded campaign
// keeps must be exactly — bit for bit — what can be rebuilt from its
// persisted run log, for every scenario and any executor thread count;
// and a sweep interrupted mid-grid must resume from those logs into a
// byte-identical comparison report. These are the properties that make
// `SweepDriver` resume trustworthy rather than merely plausible.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/log_parser.hpp"
#include "analysis/report.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"
#include "scratch_path.hpp"

namespace mcs {
namespace {

/// Exact equality, doubles included: the round trip claims bit identity,
/// not closeness.
void expect_same_aggregate(const analysis::CampaignAggregate& a,
                           const analysis::CampaignAggregate& b,
                           const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(a.distribution.total(), b.distribution.total());
  for (std::size_t i = 0; i < fi::kNumOutcomes; ++i) {
    EXPECT_EQ(a.distribution.count(static_cast<fi::Outcome>(i)),
              b.distribution.count(static_cast<fi::Outcome>(i)));
  }
  EXPECT_EQ(a.injections, b.injections);
  EXPECT_EQ(a.cell_failures, b.cell_failures);
  EXPECT_EQ(a.reclaimed, b.reclaimed);
  EXPECT_EQ(a.detection_latency.n(), b.detection_latency.n());
  EXPECT_EQ(a.detection_latency.mean(), b.detection_latency.mean());
  EXPECT_EQ(a.detection_latency.stddev(), b.detection_latency.stddev());
  EXPECT_EQ(a.detection_latency.min(), b.detection_latency.min());
  EXPECT_EQ(a.detection_latency.max(), b.detection_latency.max());
}

TEST(RoundTrip, LiveAggregateEqualsLogRebuildForEveryScenarioAndThreads) {
  for (const std::string& scenario :
       fi::ScenarioRegistry::instance().names()) {
    auto made = fi::ScenarioRegistry::instance().make(scenario);
    ASSERT_TRUE(made.is_ok()) << made.status().to_string();
    fi::TestPlan plan = made.value();
    plan.runs = 6;
    plan.seed = 0xABCDEF ^ std::hash<std::string>{}(scenario);

    for (const unsigned threads : {1u, 4u, 8u}) {
      fi::CampaignExecutor executor(plan, {threads});
      analysis::LogSink sink;  // retaining: text() is the log file body
      executor.set_progress(
          [&sink](std::uint32_t index, const fi::RunResult& run) {
            sink.record(index, run);
          });
      const fi::CampaignResult result = executor.execute();
      ASSERT_EQ(result.runs.size(), plan.runs);

      const analysis::ParsedRunLog parsed = analysis::parse_run_log(sink.text());
      EXPECT_EQ(parsed.malformed_lines, 0u);
      ASSERT_EQ(parsed.entries.size(), plan.runs);
      expect_same_aggregate(
          sink.aggregate(), analysis::aggregate_from_log(parsed),
          scenario + " @" + std::to_string(threads) + " threads");
    }
  }
}

TEST(RoundTrip, DuplicateProgressDeliveriesDoNotSkewTheAggregate) {
  fi::TestPlan plan = fi::paper_medium_trap_plan();
  plan.runs = 5;
  plan.duration_ticks = 2'000;

  fi::CampaignExecutor executor(plan, {2});
  analysis::LogSink clean;
  analysis::LogSink noisy;
  executor.set_progress(
      [&clean, &noisy](std::uint32_t index, const fi::RunResult& run) {
        clean.record(index, run);
        noisy.record(index, run);
        noisy.record(index, run);  // a resume replaying every run once more
      });
  (void)executor.execute();
  EXPECT_EQ(noisy.duplicates(), 5u);
  expect_same_aggregate(clean.aggregate(), noisy.aggregate(), "noisy replay");
  EXPECT_EQ(clean.text(), noisy.text());
}

// --- sweep resume -----------------------------------------------------------

fi::SweepSpec resume_spec(const std::string& log_dir) {
  fi::SweepSpec spec;
  spec.name = "resume-grid";
  spec.scenarios = {"freertos-steady", "inject-during-boot"};
  spec.rates = {100, 50};
  spec.runs = 3;
  spec.seed = 0x5EED;
  spec.duration_ticks = 20'000;
  spec.log_dir = log_dir;
  return spec;
}

std::string report_of(const fi::SweepResult& result) {
  std::vector<analysis::ComparisonColumn> columns;
  for (const fi::SweepCellResult& cell : result.cells) {
    columns.push_back({cell.id, cell.aggregate});
  }
  return analysis::render_comparison_report(columns, "resume-grid");
}

TEST(SweepResume, InterruptedSweepResumesToAByteIdenticalReport) {
  const std::filesystem::path dir =
      test::scratch_path("mcs_sweep_resume");
  std::filesystem::remove_all(dir);

  // The uninterrupted reference run.
  auto fresh = fi::SweepDriver(resume_spec(dir.string()), {4}).execute();
  ASSERT_TRUE(fresh.is_ok()) << fresh.status().to_string();
  ASSERT_EQ(fresh.value().executed, 4u);
  const std::string fresh_report = report_of(fresh.value());

  // Simulate an interrupt: one cell's log truncated mid-line (the shape a
  // killed process leaves), another deleted outright.
  const std::string truncated =
      fi::SweepDriver::cell_log_path(dir.string(), "freertos-steady_r50");
  std::ifstream in(truncated);
  std::stringstream buffer;
  buffer << in.rdbuf();
  in.close();
  const std::string body = buffer.str();
  ASSERT_GT(body.size(), 20u);
  std::ofstream(truncated, std::ios::trunc)
      << body.substr(0, body.size() / 2);
  ASSERT_EQ(std::remove(fi::SweepDriver::cell_log_path(
                            dir.string(), "inject-during-boot_r100")
                            .c_str()),
            0);

  // Resume with a different thread count: the two damaged cells re-run,
  // the completed ones rebuild from their logs — and the report is
  // byte-identical to the uninterrupted run's.
  auto resumed =
      fi::SweepDriver(resume_spec(dir.string()), {1}).execute();
  ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
  EXPECT_EQ(resumed.value().resumed, 2u);
  EXPECT_EQ(resumed.value().executed, 2u);
  EXPECT_EQ(report_of(resumed.value()), fresh_report);
  for (std::size_t i = 0; i < fresh.value().cells.size(); ++i) {
    expect_same_aggregate(fresh.value().cells[i].aggregate,
                          resumed.value().cells[i].aggregate,
                          "cell " + fresh.value().cells[i].id);
  }
  expect_same_aggregate(fresh.value().total, resumed.value().total, "total");

  // A second re-invocation finds every cell complete and runs nothing.
  auto again = fi::SweepDriver(resume_spec(dir.string()), {8}).execute();
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again.value().resumed, 4u);
  EXPECT_EQ(again.value().executed, 0u);
  EXPECT_EQ(report_of(again.value()), fresh_report);

  std::filesystem::remove_all(dir);
}

TEST(SweepResume, ChangedSpecReExecutesInsteadOfServingStaleLogs) {
  const std::filesystem::path dir =
      test::scratch_path("mcs_sweep_staleness");
  std::filesystem::remove_all(dir);

  auto first = fi::SweepDriver(resume_spec(dir.string()), {2}).execute();
  ASSERT_TRUE(first.is_ok());
  ASSERT_EQ(first.value().executed, 4u);

  // Same grid shape, different seed: every cell's log is structurally
  // complete, but the sidecar fingerprint no longer matches the plan, so
  // nothing may resume — a resumed cell here would be another
  // experiment's data wearing this one's id.
  fi::SweepSpec reseeded = resume_spec(dir.string());
  reseeded.seed = 0xBAD5EED;
  auto second = fi::SweepDriver(reseeded, {2}).execute();
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(second.value().resumed, 0u);
  EXPECT_EQ(second.value().executed, 4u);

  // And a changed duration re-executes too.
  fi::SweepSpec longer = resume_spec(dir.string());
  longer.duration_ticks = 25'000;
  auto third = fi::SweepDriver(longer, {2}).execute();
  ASSERT_TRUE(third.is_ok());
  EXPECT_EQ(third.value().resumed, 0u);

  std::filesystem::remove_all(dir);
}

TEST(SweepResume, TornMetaSidecarReExecutesInsteadOfBlockingResume) {
  // The failure the atomic sidecar write exists to prevent: a process
  // dying mid-meta-write used to be able to leave a truncated
  // fingerprint. Committing via temp + rename means the sidecar is
  // either absent or whole — and if damage does appear (disk surgery,
  // an older writer), the mismatch re-executes the cell rather than
  // wedging or resuming someone else's data.
  const std::filesystem::path dir =
      test::scratch_path("mcs_sweep_torn_meta");
  std::filesystem::remove_all(dir);

  auto fresh = fi::SweepDriver(resume_spec(dir.string()), {2}).execute();
  ASSERT_TRUE(fresh.is_ok());
  const std::string fresh_report = report_of(fresh.value());

  const std::string log =
      fi::SweepDriver::cell_log_path(dir.string(), "freertos-steady_r100");
  const std::string meta = fi::cell_meta_path(log);
  std::ifstream meta_in(meta);
  std::string fingerprint;
  std::getline(meta_in, fingerprint);
  meta_in.close();
  ASSERT_GT(fingerprint.size(), 4u);
  std::ofstream(meta, std::ios::trunc)
      << fingerprint.substr(0, fingerprint.size() / 2);

  auto resumed =
      fi::SweepDriver(resume_spec(dir.string()), {2}).execute();
  ASSERT_TRUE(resumed.is_ok());
  EXPECT_EQ(resumed.value().executed, 1u);  // only the torn-meta cell
  EXPECT_EQ(resumed.value().resumed, 3u);
  EXPECT_EQ(report_of(resumed.value()), fresh_report);

  std::filesystem::remove_all(dir);
}

TEST(SweepResume, ParallelResumeIsByteIdenticalToSerialResume) {
  // The resume pre-scan is a pure read; only its *scan* fans out (inline
  // at 1 thread, on a thread pool above), the fold stays serial in grid
  // order. So resuming the same populated logdir at any thread count must
  // render the fresh report byte for byte — the property the
  // examples-smoke CI step diffs end to end.
  const std::filesystem::path dir =
      test::scratch_path("mcs_sweep_par_resume");
  std::filesystem::remove_all(dir);

  auto fresh = fi::SweepDriver(resume_spec(dir.string()), {4}).execute();
  ASSERT_TRUE(fresh.is_ok()) << fresh.status().to_string();
  ASSERT_EQ(fresh.value().executed, 4u);
  const std::string fresh_report = report_of(fresh.value());

  for (const unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    auto resumed =
        fi::SweepDriver(resume_spec(dir.string()), {threads}).execute();
    ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
    EXPECT_EQ(resumed.value().resumed, 4u);
    EXPECT_EQ(resumed.value().executed, 0u);
    EXPECT_EQ(report_of(resumed.value()), fresh_report);
    for (std::size_t i = 0; i < fresh.value().cells.size(); ++i) {
      expect_same_aggregate(fresh.value().cells[i].aggregate,
                            resumed.value().cells[i].aggregate,
                            "cell " + fresh.value().cells[i].id);
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(SweepResume, InMemorySweepMatchesPersistedSweep) {
  const std::filesystem::path dir =
      test::scratch_path("mcs_sweep_inmem");
  std::filesystem::remove_all(dir);

  fi::SweepSpec in_memory = resume_spec("");
  auto transient = fi::SweepDriver(in_memory, {2}).execute();
  auto persisted =
      fi::SweepDriver(resume_spec(dir.string()), {2}).execute();
  ASSERT_TRUE(transient.is_ok() && persisted.is_ok());
  ASSERT_EQ(transient.value().cells.size(), persisted.value().cells.size());
  for (std::size_t i = 0; i < transient.value().cells.size(); ++i) {
    expect_same_aggregate(transient.value().cells[i].aggregate,
                          persisted.value().cells[i].aggregate,
                          "cell " + transient.value().cells[i].id);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mcs
