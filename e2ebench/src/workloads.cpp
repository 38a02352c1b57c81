#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>

#include "analysis/report.hpp"
#include "core/executor.hpp"
#include "core/scenario.hpp"
#include "util/rng.hpp"

namespace e2e {

namespace {

using mcs::fi::TestPlan;

// Salts keep the workloads' plan seeds apart for the same benchmark seed.
constexpr std::uint64_t kFig3Salt = 0xF163'0000'0000'0001ULL;
constexpr std::uint64_t kIvshmemSalt = 0x1F5E'0000'0000'0002ULL;
constexpr std::uint64_t kGridSalt = 0x96D0'0000'0000'0003ULL;

// Campaign workloads: 16 runs per campaign, so a pass is over a second of work.
constexpr std::uint32_t kFig3Campaigns = 4;
constexpr std::uint32_t kCampaignRuns = 16;

// short-window-grid: the window is short enough that per-run and per-cell
// fixed costs dominate; 8 runs per cell gives every worker two runs.
constexpr std::uint64_t kGridWindowTicks = 2'000;
constexpr std::uint32_t kGridRuns = 8;

constexpr const char* kDomains[] = {"register", "gic", "irq-delivery",
                                    "device-mmio", "dram"};

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "e2e_worker: %s\n", message.c_str());
  std::exit(2);
}

TestPlan make_plan(std::string_view scenario, const std::string& tuning) {
  mcs::fi::ScenarioRegistry::MakeOptions options;
  options.cell_tuning = tuning;
  auto plan = mcs::fi::ScenarioRegistry::instance().make(scenario, options);
  if (!plan.is_ok()) die("plan rejected: " + plan.status().to_string());
  return std::move(plan).value();
}

void add_campaign(WorkloadPlans& out, TestPlan plan, std::string name,
                  std::uint64_t seed) {
  plan.name = std::move(name);
  plan.rate = mcs::fi::kMediumRate;
  plan.duration_ticks = mcs::fi::kOneMinuteTicks;
  plan.runs = kCampaignRuns;
  plan.seed = seed;
  out.plans.push_back(std::move(plan));
}

mcs::fi::SweepSpec grid_spec(std::string name,
                             std::vector<std::string> scenarios,
                             std::vector<std::string> boards,
                             std::uint64_t seed) {
  mcs::fi::SweepSpec spec;
  spec.name = std::move(name);
  spec.scenarios = std::move(scenarios);
  spec.rates = {100, 50};
  spec.boards = std::move(boards);
  spec.domains = {"register", "gic", "dram"};
  spec.runs = kGridRuns;
  spec.seed = seed;
  spec.duration_ticks = kGridWindowTicks;
  return spec;
}

}  // namespace

unsigned grid_threads() {
  return std::clamp(std::thread::hardware_concurrency(), 1U, 4U);
}

bool workload_from_name(std::string_view name, Workload& out) {
  if (name == "fig3-steady") {
    out = Workload::Fig3Steady;
  } else if (name == "ivshmem-domains") {
    out = Workload::IvshmemDomains;
  } else if (name == "short-window-grid") {
    out = Workload::ShortWindowGrid;
  } else {
    return false;
  }
  return true;
}

WorkloadPlans make_workload(Workload workload, std::uint64_t seed,
                            std::uint64_t round) {
  // Round 0 draws its plan seeds from the benchmark seed itself.
  seed += round * 0x9E3779B97F4A7C15ULL;
  WorkloadPlans out;
  switch (workload) {
    case Workload::Fig3Steady: {
      // The paper's Figure 3 shape on the Banana Pi, register domain.
      mcs::util::SplitMix64 seeds(seed ^ kFig3Salt);
      for (std::uint32_t k = 0; k < kFig3Campaigns; ++k) {
        add_campaign(out, make_plan("freertos-steady", ""),
                     "fig3-" + std::to_string(k), seeds.next());
      }
      break;
    }
    case Workload::IvshmemDomains: {
      // One campaign per fault domain on the scenario's default quad-a7.
      mcs::util::SplitMix64 seeds(seed ^ kIvshmemSalt);
      for (const char* domain : kDomains) {
        add_campaign(out,
                     make_plan("ivshmem-traffic",
                               std::string("fault domain ") + domain),
                     std::string("ivshmem-") + domain, seeds.next());
      }
      break;
    }
    case Workload::ShortWindowGrid: {
      // ivshmem-traffic needs two spare cores, so on the Banana Pi every
      // run of it is a harness error by design; it gets its own sweep on
      // quad-a7 only instead of the full board axis.
      mcs::util::SplitMix64 seeds(seed ^ kGridSalt);
      out.sweeps.push_back(grid_spec(
          "grid-all-boards",
          {"freertos-steady", "inject-during-boot", "osek-cell", "dual-cell"},
          {"bananapi", "quad-a7"}, seeds.next()));
      out.sweeps.push_back(grid_spec("grid-ivshmem", {"ivshmem-traffic"},
                                     {"quad-a7"}, seeds.next()));
      for (const mcs::fi::SweepSpec& spec : out.sweeps) {
        auto plans = mcs::fi::SweepDriver(spec).expand();
        if (!plans.is_ok()) die("grid rejected: " + plans.status().to_string());
        for (TestPlan& plan : plans.value()) out.plans.push_back(std::move(plan));
      }
      break;
    }
  }
  return out;
}

std::string fnv1a_hex(std::string_view bytes) {
  std::uint64_t state = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    state ^= static_cast<unsigned char>(c);
    state *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, state);
  return buf;
}

std::string describe(const mcs::analysis::CampaignAggregate& aggregate) {
  std::string out = "outcomes";
  for (std::size_t i = 0; i < mcs::fi::kNumOutcomes; ++i) {
    out += ' ';
    out += std::to_string(
        aggregate.distribution.count(static_cast<mcs::fi::Outcome>(i)));
  }
  out += " injections " + std::to_string(aggregate.injections) + " by-domain";
  for (const std::uint64_t n : aggregate.injections_by_domain) {
    out += ' ' + std::to_string(n);
  }
  out += " cell-failures " + std::to_string(aggregate.cell_failures) +
         " reclaimed " + std::to_string(aggregate.reclaimed);
  const mcs::analysis::RunningStats& latency = aggregate.detection_latency;
  char buf[160];
  std::snprintf(buf, sizeof buf, " latency n=%" PRIu64 " mean=%.17g sd=%.17g max=%.17g\n",
                latency.n(), latency.mean(), latency.stddev(), latency.max());
  out += buf;
  return out;
}

std::vector<CampaignRecord> run_campaigns(const std::vector<TestPlan>& plans,
                                          unsigned threads,
                                          const std::function<void()>& on_run) {
  std::vector<CampaignRecord> records;
  records.reserve(plans.size());
  for (const TestPlan& plan : plans) {
    CampaignRecord record;
    record.name = plan.name;
    record.seed = plan.seed;
    record.runs = plan.runs;
    record.window_ticks = plan.duration_ticks * plan.runs;
    mcs::analysis::LogSink sink;
    mcs::fi::ExecutorConfig config;
    config.threads = threads;
    mcs::fi::CampaignExecutor executor(plan, config);
    executor.set_progress([&](std::uint32_t index, const mcs::fi::RunResult& run) {
      if (on_run) on_run();
      sink.record(index, run);
      record.traps += run.traps;
      record.hvcs += run.hvcs;
      record.irqs += run.irqs;
      record.flipped_bits += run.flipped_bits;
      if (run.outcome == mcs::fi::Outcome::HarnessError) ++record.harness_errors;
    });
    (void)executor.execute();
    record.log = sink.text();
    record.aggregate = sink.aggregate();
    records.push_back(std::move(record));
  }
  return records;
}

std::string campaign_pass_text(const std::vector<CampaignRecord>& records) {
  std::string text;
  std::vector<mcs::analysis::ComparisonColumn> columns;
  for (const CampaignRecord& record : records) {
    text += "campaign " + record.name + " seed " + std::to_string(record.seed) +
            " runs " + std::to_string(record.runs) + " window-ticks " +
            std::to_string(record.window_ticks) + "\n";
    text += record.log;
    text += describe(record.aggregate);
    text += "traps " + std::to_string(record.traps) + " hvcs " +
            std::to_string(record.hvcs) + " irqs " + std::to_string(record.irqs) +
            " flipped-bits " + std::to_string(record.flipped_bits) + "\n";
    columns.push_back({record.name, record.aggregate});
  }
  text += mcs::analysis::render_comparison_report(columns, "e2ebench campaigns");
  return text;
}

namespace {

std::string report_of(const mcs::fi::SweepResult& result) {
  std::vector<mcs::analysis::ComparisonColumn> columns;
  columns.reserve(result.cells.size());
  for (const mcs::fi::SweepCellResult& cell : result.cells) {
    columns.push_back({cell.id, cell.aggregate});
  }
  return mcs::analysis::render_comparison_report(
      columns, "Sweep comparison — " + result.spec.name);
}

}  // namespace

GridPass run_grid(std::vector<mcs::fi::SweepSpec> sweeps,
                  const std::string& log_dir, unsigned threads, bool resume,
                  const std::function<void(std::uint32_t)>& on_cell) {
  GridPass pass;
  mcs::fi::ExecutorConfig config;
  config.threads = threads;
  for (mcs::fi::SweepSpec& spec : sweeps) spec.log_dir = log_dir;

  const double fresh_start = now_s();
  for (const mcs::fi::SweepSpec& spec : sweeps) {
    mcs::fi::SweepDriver sweep(spec, config);
    sweep.set_cell_progress([&](const mcs::fi::SweepCellResult& cell) {
      if (cell.resumed) return;
      if (on_cell) on_cell(cell.plan.runs);
      pass.runs += cell.plan.runs;
      pass.window_ticks += cell.plan.duration_ticks * cell.plan.runs;
      pass.harness_errors +=
          cell.aggregate.distribution.count(mcs::fi::Outcome::HarnessError);
    });
    auto result = sweep.execute();
    if (!result.is_ok()) {
      pass.error = "sweep failed: " + result.status().to_string();
      return pass;
    }
    if (result.value().executed != spec.cell_count()) {
      pass.error = "fresh sweep resumed cells from an emptied logdir";
    }
    pass.report += report_of(result.value());
  }
  pass.fresh_s = now_s() - fresh_start;
  if (!resume) return pass;

  const double resume_start = now_s();
  for (const mcs::fi::SweepSpec& spec : sweeps) {
    auto result = mcs::fi::SweepDriver(spec, config).execute();
    if (!result.is_ok()) {
      pass.error = "resume failed: " + result.status().to_string();
      return pass;
    }
    if (result.value().resumed != spec.cell_count()) {
      pass.error = "cold resume re-executed cells";
    }
    pass.resumed_report += report_of(result.value());
  }
  pass.resume_s = now_s() - resume_start;
  return pass;
}

std::vector<std::string> read_cell_logs(const std::vector<TestPlan>& plans,
                                        const std::string& log_dir) {
  std::vector<std::string> logs;
  logs.reserve(plans.size());
  for (const TestPlan& plan : plans) {
    std::ifstream in(mcs::fi::SweepDriver::cell_log_path(log_dir, plan.name),
                     std::ios::binary);
    logs.emplace_back(std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>());
  }
  return logs;
}

std::string grid_pass_text(const GridPass& pass,
                           const std::vector<std::string>& cell_logs) {
  std::string text = pass.report;
  for (const std::string& log : cell_logs) text += log;
  text += "runs " + std::to_string(pass.runs) + " window-ticks " +
          std::to_string(pass.window_ticks) + "\n";
  return text;
}

double time_setup_campaign(const TestPlan& plan, bool& failed) {
  TestPlan setup = plan;
  setup.runs = 1;
  setup.duration_ticks = 0;
  mcs::fi::ExecutorConfig config;
  config.threads = 1;
  const double start = now_s();
  mcs::fi::CampaignExecutor executor(setup, config);
  const mcs::fi::CampaignResult result = executor.execute();
  const double elapsed = now_s() - start;
  failed = result.runs.empty() ||
           result.runs.front().outcome == mcs::fi::Outcome::HarnessError;
  return elapsed;
}

long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

}  // namespace e2e
