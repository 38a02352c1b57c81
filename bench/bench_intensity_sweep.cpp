// A3 (ablation) — fault intensity sweep: registers flipped per injection.
//
// Generalises the paper's two intensity levels (1 register = medium,
// several = high) into a sweep: 1..8 distinct random registers per
// injection. The survival probability should fall roughly geometrically
// with k, since each extra register is one more chance to hit the hot
// working set.
//
//   $ ./bench_intensity_sweep [runs_per_k]   (default 30)
#include <cstdlib>
#include <algorithm>
#include <iomanip>
#include <iostream>

#include "core/executor.hpp"

int main(int argc, char** argv) {
  using namespace mcs;
  const auto runs =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 30;

  std::cout << "A3 — outcome vs fault intensity (k random registers per "
               "injection)\n";
  std::cout << std::string(70, '=') << "\n";
  std::cout << std::left << std::setw(6) << "k" << std::right << std::setw(10)
            << "correct" << std::setw(12) << "panic-park" << std::setw(10)
            << "cpu-park" << std::setw(14) << "other" << "\n";
  std::cout << std::string(70, '-') << "\n";

  for (unsigned k = 1; k <= 8; ++k) {
    fi::TestPlan plan = fi::paper_medium_trap_plan();
    plan.fault = fi::FaultModelKind::RandomMultiFlip;
    plan.fault_count = k;
    plan.runs = runs;
    plan.seed = 0xA3'00 + k;
    fi::CampaignExecutor campaign(plan, {1});
    const fi::CampaignResult result = campaign.execute();
    const fi::OutcomeDistribution dist = result.distribution();
    const double other =
        std::max(0.0, 1.0 - dist.fraction(fi::Outcome::Correct) -
                          dist.fraction(fi::Outcome::PanicPark) -
                          dist.fraction(fi::Outcome::CpuPark));
    std::cout << std::left << std::setw(6) << k << std::right << std::fixed
              << std::setprecision(1) << std::setw(9)
              << dist.fraction(fi::Outcome::Correct) * 100 << "%"
              << std::setw(11) << dist.fraction(fi::Outcome::PanicPark) * 100
              << "%" << std::setw(9)
              << dist.fraction(fi::Outcome::CpuPark) * 100 << "%"
              << std::setw(13) << other * 100 << "%\n";
  }
  std::cout << std::string(70, '-') << "\n";
  std::cout << "expectation: survival falls with k; k=1 reproduces Figure 3, "
               "k>=3 approaches\nthe paper's 'high' regime where almost no "
               "run survives an injection\n";
  return 0;
}
