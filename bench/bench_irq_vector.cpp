// E4 — the §III rationale for excluding irqchip_handle_irq() from
// injection: "the only parameter passed is the IRQ vector number, and
// manumitting it means calling a different IRQ function, defaulting to an
// IRQ error, which is completely predictable and correct behavior."
//
// Corrupts the vector argument and shows every outcome lands in a
// predictable error path: no panic, no park, no hang.
//
//   $ ./bench_irq_vector [runs]   (default 30)
#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "analysis/report.hpp"
#include "core/executor.hpp"

int main(int argc, char** argv) {
  using namespace mcs;
  const auto runs =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 30;

  std::cout << "E4 — IRQ-vector corruption (irqchip_handle_irq)\n";
  std::cout << std::string(64, '=') << "\n";

  fi::TestPlan plan = fi::irq_vector_plan();
  plan.runs = runs;
  plan.duration_ticks = 10'000;
  fi::CampaignExecutor campaign(plan, {1});
  const fi::CampaignResult result = campaign.execute();
  const fi::OutcomeDistribution dist = result.distribution();

  std::cout << analysis::render_distribution_table(result) << "\n";
  std::cout << "total vector corruptions      : " << result.total_injections()
            << "\n";
  std::cout << "fatal outcomes (panic/park)   : "
            << dist.count(fi::Outcome::PanicPark) +
                   dist.count(fi::Outcome::CpuPark)
            << "\n";
  std::cout << "\npaper reference: excluded from the test plan because every "
               "corruption defaults\nto a predictable IRQ error — this bench "
               "is the measured justification\n";
  return 0;
}
