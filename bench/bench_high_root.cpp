// E2 — high intensity against the root-cell context (§III):
//
//   "High level intensity faults always return an 'invalid arguments'
//    when we target both the arch_handle_hvc() and arch_handle_trap() in
//    the context of the root cell; thus, the [non-root] cell will be not
//    allocated at all, which is a correct (and expected) behavior."
//
// One row per target function: outcome shares + the fail-stop evidence.
//
//   $ ./bench_high_root [runs_per_target]   (default 30)
#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "core/executor.hpp"

int main(int argc, char** argv) {
  using namespace mcs;
  const auto runs =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 30;

  std::cout << "E2 — high intensity, root-cell context (multi-register "
               "flip, 1/50 calls)\n";
  std::cout << std::string(76, '=') << "\n";
  std::cout << std::left << std::setw(22) << "target" << std::right
            << std::setw(7) << "runs" << std::setw(14) << "invalid-args"
            << std::setw(12) << "allocated" << std::setw(10) << "panics"
            << std::setw(11) << "avg inj" << "\n";
  std::cout << std::string(76, '-') << "\n";

  for (fi::TestPlan plan :
       {fi::paper_high_root_hvc_plan(), fi::paper_high_root_trap_plan()}) {
    plan.runs = runs;
    plan.duration_ticks = 2'000;  // the management window is the experiment
    fi::CampaignExecutor campaign(plan, {1});
    const fi::CampaignResult result = campaign.execute();
    const fi::OutcomeDistribution dist = result.distribution();

    std::uint64_t allocated = 0;
    for (const fi::RunResult& run : result.runs) {
      if (run.cell_exists) ++allocated;
    }
    const std::string target =
        plan.target == jh::HookPoint::ArchHandleHvc ? "arch_handle_hvc"
                                                    : "arch_handle_trap";
    std::cout << std::left << std::setw(22) << target << std::right
              << std::setw(7) << dist.total() << std::setw(9)
              << dist.count(fi::Outcome::InvalidArguments) << " ("
              << std::fixed << std::setprecision(0)
              << dist.fraction(fi::Outcome::InvalidArguments) * 100 << "%)"
              << std::setw(12) << allocated << std::setw(10)
              << dist.count(fi::Outcome::PanicPark) << std::setw(11)
              << std::setprecision(1)
              << static_cast<double>(result.total_injections()) /
                     static_cast<double>(dist.total())
              << "\n";
  }
  std::cout << std::string(76, '-') << "\n";
  std::cout << "paper reference: always 'invalid arguments', cell never "
               "allocated, root alive\n";
  return 0;
}
