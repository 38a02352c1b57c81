// fault_campaign: configure and run a fault-injection campaign against the
// hypervisor — scenario picked from the registry, runs sharded across
// executor threads, analytics from the streaming log sink — the full
// Figure 2 pipeline in ~60 lines of user code.
//
//   $ ./fault_campaign [scenario] [runs] [rate] [seed] [threads] [tuning]
//   $ ./fault_campaign --list           # show registered scenarios
//
// [tuning] parameterises the workload cell in the config-text vocabulary,
// ';'-separated, e.g. "ram 0x200000; console trapped". Numbers are decimal
// or 0x...; a malformed number, rate 0 or a runs/rate/threads value above
// 2^32-1 exits 1 with a diagnostic.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>

#include "analysis/report.hpp"
#include "core/executor.hpp"
#include "hypervisor/config_text.hpp"

int main(int argc, char** argv) {
  using namespace mcs;

  fi::ScenarioRegistry& registry = fi::ScenarioRegistry::instance();
  if (argc > 1 && std::string(argv[1]) == "--list") {
    std::cout << "registered scenarios:\n";
    for (const std::string& name : registry.names()) {
      std::cout << "  " << name << " — " << registry.find(name)->description()
                << "\n";
    }
    return 0;
  }

  const std::string scenario_name =
      argc > 1 ? argv[1] : std::string(fi::kDefaultScenario);
  fi::ScenarioRegistry::MakeOptions options;
  if (argc > 6) {
    options.cell_tuning = argv[6];
    std::replace(options.cell_tuning.begin(), options.cell_tuning.end(), ';',
                 '\n');
  }
  auto made = registry.make(scenario_name, options);
  if (!made.is_ok()) {
    std::cerr << made.status().to_string() << " (try --list)\n";
    return 1;
  }

  // The config-text number parser `sweep` uses. runs, rate and threads are
  // 32-bit fields (never silently truncated); rate 0 has no cadence.
  const char* const kArgNames[] = {"runs", "rate", "seed", "threads"};
  std::uint64_t args[] = {40, fi::kMediumRate, 0xC0FFEE, 0};
  for (int k = 0; k < 4 && k + 2 < argc; ++k) {
    auto value = jh::parse_config_number(argv[k + 2]);
    const std::uint64_t max = k == 2 ? UINT64_MAX : UINT32_MAX;
    if (!value.is_ok() || value.value() > max || (k == 1 && value.value() == 0)) {
      std::cerr << "fault_campaign: bad " << kArgNames[k] << " '" << argv[k + 2]
                << "'\n";
      return 1;
    }
    args[k] = value.value();
  }

  fi::TestPlan plan = made.value();
  plan.runs = static_cast<std::uint32_t>(args[0]);
  plan.rate = static_cast<std::uint32_t>(args[1]);
  plan.seed = args[2];
  // Paper-faithful 1-minute tests (60'000 board ticks).

  fi::ExecutorConfig config;
  config.threads = static_cast<unsigned>(args[3]);

  std::cout << "campaign: " << plan.name << " — scenario " << plan.scenario
            << ", " << plan.runs << " runs, inject 1/" << plan.rate
            << " calls, seed 0x" << std::hex << plan.seed << std::dec;
  if (!plan.cell_tuning.empty()) std::cout << ", tuned cell";
  std::cout << "\n\n";

  // The sink streams run lines in order (whatever the shard completion
  // order was) and keeps the mergeable aggregates for the analytics.
  analysis::LogSink sink(std::cout);
  fi::CampaignExecutor executor(plan, config);
  executor.set_progress(
      [&sink](std::uint32_t index, const fi::RunResult& run) {
        sink.record(index, run);
      });
  const fi::CampaignResult result = executor.execute();

  const analysis::CampaignAggregate aggregate = sink.aggregate();
  std::cout << "\n"
            << analysis::render_distribution_table(aggregate.distribution)
            << "\n";
  std::cout << analysis::render_latency_summary(aggregate.detection_latency);
  std::cout << result.runs.size() << " runs, " << aggregate.injections
            << " injections total\n";
  return 0;
}
