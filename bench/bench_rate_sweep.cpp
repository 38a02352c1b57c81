// A1 (ablation) — availability vs injection rate.
//
// The paper fixes 1/100 (medium) and 1/50 (high) calls; this sweep shows
// how the Figure 3 distribution degrades as faults become more frequent,
// i.e. how much of the "majority correct" verdict is owed to the fault
// rate rather than to the hypervisor.
//
//   $ ./bench_rate_sweep [runs_per_rate]   (default 40)
#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "core/executor.hpp"

int main(int argc, char** argv) {
  using namespace mcs;
  const auto runs =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 40;

  std::cout << "A1 — non-root availability vs injection rate (medium model, "
               "1-min runs)\n";
  std::cout << std::string(74, '=') << "\n";
  std::cout << std::left << std::setw(12) << "rate" << std::right
            << std::setw(10) << "correct" << std::setw(12) << "panic-park"
            << std::setw(10) << "cpu-park" << std::setw(12) << "avg inj"
            << "\n";
  std::cout << std::string(74, '-') << "\n";

  for (const std::uint32_t rate : {25u, 50u, 100u, 200u, 400u}) {
    fi::TestPlan plan = fi::paper_medium_trap_plan();
    plan.rate = rate;
    plan.runs = runs;
    plan.seed = 0xA1 + rate;
    fi::CampaignExecutor campaign(plan, {1});
    const fi::CampaignResult result = campaign.execute();
    const fi::OutcomeDistribution dist = result.distribution();
    std::cout << std::left << "1/" << std::setw(10) << rate << std::right
              << std::fixed << std::setprecision(1) << std::setw(9)
              << dist.fraction(fi::Outcome::Correct) * 100 << "%" << std::setw(11)
              << dist.fraction(fi::Outcome::PanicPark) * 100 << "%"
              << std::setw(9) << dist.fraction(fi::Outcome::CpuPark) * 100
              << "%" << std::setw(12)
              << static_cast<double>(result.total_injections()) /
                     static_cast<double>(dist.total())
              << "\n";
  }
  std::cout << std::string(74, '-') << "\n";
  std::cout << "expectation: availability falls monotonically as the rate "
               "rises; the paper's\n1/100 sits where one fault lands per "
               "1-minute run\n";
  return 0;
}
