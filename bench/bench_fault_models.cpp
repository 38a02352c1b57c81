// A4 (extension) — the wider fault-model set named in §V future work:
// "expanding the fault injection testing framework, by applying, e.g., a
// wider and customizable set of fault models".
//
// Runs the medium campaign under every implemented model and compares the
// failure-mode mix. Stuck-at faults are far more damaging than single
// flips (they rewrite all 32 bits), double-bit flips sit between.
//
//   $ ./bench_fault_models [runs_per_model]   (default 40)
//   $ ./bench_fault_models --json [runs]      per-domain throughput JSON
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <string>

#include "core/executor.hpp"

namespace {

/// --json: the same medium campaign once per fault domain, reported as a
/// machine-readable throughput artifact (injections/sec per domain) for
/// the release-perf CI job to archive alongside the register benches.
int run_json(std::uint32_t runs) {
  using namespace mcs;
  std::cout << "{\n  \"runs_per_domain\": " << runs << ",\n  \"domains\": [";
  bool first = true;
  for (std::size_t d = 0; d < fi::kNumFaultDomains; ++d) {
    const auto domain = static_cast<fi::FaultDomain>(d);
    fi::TestPlan plan = fi::paper_medium_trap_plan();
    plan.fault_domain = domain;
    plan.runs = runs;
    plan.seed = 0xA4'40 + d;
    fi::CampaignExecutor campaign(plan, {1});
    const auto start = std::chrono::steady_clock::now();
    const fi::CampaignResult result = campaign.execute();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const std::uint64_t injections = result.total_injections();
    std::cout << (first ? "" : ",") << "\n    {\"domain\": \""
              << fi::fault_domain_name(domain) << "\", \"injections\": "
              << injections << ", \"seconds\": " << std::fixed
              << std::setprecision(4) << seconds
              << ", \"injections_per_sec\": " << std::setprecision(1)
              << (seconds > 0 ? static_cast<double>(injections) / seconds : 0.0)
              << "}";
    first = false;
  }
  std::cout << "\n  ]\n}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mcs;
  bool json = false;
  std::uint32_t runs = 40;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      runs = static_cast<std::uint32_t>(std::atoi(argv[i]));
    }
  }
  if (json) return run_json(runs);

  std::cout << "A4 — failure-mode mix per fault model (medium plan "
               "otherwise)\n";
  std::cout << std::string(74, '=') << "\n";
  std::cout << std::left << std::setw(22) << "model" << std::right
            << std::setw(10) << "correct" << std::setw(12) << "panic-park"
            << std::setw(10) << "cpu-park" << std::setw(12) << "invalid"
            << "\n";
  std::cout << std::string(74, '-') << "\n";

  for (const auto kind :
       {fi::FaultModelKind::SingleBitFlip, fi::FaultModelKind::DoubleBitFlip,
        fi::FaultModelKind::StuckAtZero, fi::FaultModelKind::StuckAtOne,
        fi::FaultModelKind::MultiRegisterFlip}) {
    fi::TestPlan plan = fi::paper_medium_trap_plan();
    plan.fault = kind;
    plan.runs = runs;
    plan.seed = 0xA4'00 + static_cast<std::uint64_t>(kind);
    fi::CampaignExecutor campaign(plan, {1});
    const fi::CampaignResult result = campaign.execute();
    const fi::OutcomeDistribution dist = result.distribution();
    std::cout << std::left << std::setw(22) << fi::fault_model_kind_name(kind)
              << std::right << std::fixed << std::setprecision(1)
              << std::setw(9) << dist.fraction(fi::Outcome::Correct) * 100
              << "%" << std::setw(11)
              << dist.fraction(fi::Outcome::PanicPark) * 100 << "%"
              << std::setw(9) << dist.fraction(fi::Outcome::CpuPark) * 100
              << "%" << std::setw(11)
              << dist.fraction(fi::Outcome::InvalidArguments) * 100 << "%\n";
  }
  std::cout << std::string(74, '-') << "\n";
  std::cout << "note: stuck-at rewrites whole registers (always visible to "
               "the handler),\nsingle-bit flips often land in dead bits — "
               "the §V extension quantified\n";
  return 0;
}
