// E3 — high intensity filtered to CPU 1 (§III): the inconsistent cell.
//
//   "the cell is allocated but, whether the CPU fails to come online as
//    per the swap feature of the CPU hot plug or the cell is left in a
//    non-executable state, the non-root cell doesn't do anything, as
//    attested by the USART output left completely blank. Nonetheless, it
//    is considered running by Jailhouse, and the shutdown of the cell
//    gives the control of the CPU and the non-root cell peripherals back
//    to the root cell."
//
// Prints the campaign table plus one narrated run, and a phase sweep
// showing the injection-counter alignments that expose the bring-up
// window (the paper's counter state at cell start was arbitrary).
//
//   $ ./bench_high_nonroot [runs]   (default 25)
#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "core/executor.hpp"

namespace {

void narrate_one_run() {
  using namespace mcs;
  std::cout << "\n-- one run, narrated --------------------------------------\n";
  fi::TestPlan plan = fi::paper_high_nonroot_plan();
  fi::Testbed testbed;
  if (!testbed.enable_hypervisor().is_ok()) return;
  fi::Injector injector(plan, 7, testbed.board().clock());
  injector.attach(testbed.hypervisor());
  testbed.boot_freertos_cell();
  testbed.run(1'000);

  jh::Cell* cell = testbed.freertos_cell();
  const auto& cpu1 = testbed.board().cpu(1);
  std::cout << "jailhouse cell list : '" << (cell ? cell->name() : "-")
            << "' state=" << (cell ? jh::cell_state_name(cell->state()) : "-")
            << "   <- considered running by Jailhouse\n";
  std::cout << "physical CPU 1      : " << arch::power_state_name(cpu1.power_state())
            << " (" << cpu1.halt_reason() << ")\n";
  std::cout << "USART output        : " << testbed.board().uart1().total_bytes()
            << " bytes  <- completely blank\n";
  injector.detach(testbed.hypervisor());
  testbed.shutdown_freertos_cell();
  std::cout << "after cell shutdown : cpu1 owner = cell "
            << testbed.hypervisor().cpu_owner(1)
            << " (root), cell state = "
            << jh::cell_state_name(testbed.freertos_cell()->state()) << "\n";
  testbed.destroy_freertos_cell();
  testbed.boot_freertos_cell();
  testbed.run(200);
  std::cout << "destroy + recreate  : cpu1 "
            << arch::power_state_name(testbed.board().cpu(1).power_state())
            << ", USART bytes " << testbed.board().uart1().total_bytes()
            << "  <- only this fixes the problem\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mcs;
  const auto runs =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 25;

  std::cout << "E3 — high intensity, non-root cell (CPU 1 filter)\n";
  std::cout << std::string(72, '=') << "\n";

  // The boot-time arming policy comes from the registry scenario, the
  // sharding from the executor (results identical at any thread count).
  fi::TestPlan plan = fi::find_scenario("inject-during-boot")
                          ->make_plan(fi::paper_high_nonroot_plan());
  plan.runs = runs;
  plan.duration_ticks = 2'000;
  fi::CampaignExecutor executor(plan);
  const fi::CampaignResult result = executor.execute();
  const fi::OutcomeDistribution dist = result.distribution();

  std::uint64_t blank = 0, reclaimed = 0;
  for (const fi::RunResult& run : result.runs) {
    if (run.uart1_bytes < 8) ++blank;
    if (run.shutdown_reclaimed) ++reclaimed;
  }
  std::cout << "runs                          : " << dist.total() << "\n";
  std::cout << "inconsistent cell state       : "
            << dist.count(fi::Outcome::InconsistentCell) << "\n";
  std::cout << "USART blank                   : " << blank << "\n";
  std::cout << "shutdown reclaimed resources  : " << reclaimed << "\n";

  narrate_one_run();

  // Phase sweep: which counter alignments hit the bring-up window.
  std::cout << "\n-- injection-phase sweep (counter state at cell start) ----\n";
  std::cout << std::left << std::setw(8) << "phase" << "dominant outcome\n";
  for (const std::uint64_t phase : {1ull, 2ull, 3ull, 10ull, 50ull}) {
    fi::TestPlan sweep = fi::paper_high_nonroot_plan();
    sweep.phase = phase;
    sweep.runs = 5;
    sweep.duration_ticks = 2'000;
    const fi::CampaignResult r = fi::CampaignExecutor(sweep, {1}).execute();
    const fi::OutcomeDistribution d = r.distribution();
    fi::Outcome dominant = fi::Outcome::Correct;
    std::uint64_t best = 0;
    for (std::size_t i = 0; i < fi::kNumOutcomes; ++i) {
      const auto outcome = static_cast<fi::Outcome>(i);
      if (d.count(outcome) > best) {
        best = d.count(outcome);
        dominant = outcome;
      }
    }
    std::cout << std::left << std::setw(8) << phase
              << fi::outcome_name(dominant) << " (" << best << "/"
              << d.total() << ")\n";
  }
  std::cout << "\npaper reference: allocated-but-dead cell, blank USART, "
               "running per Jailhouse,\n                 shutdown reclaims; "
               "destroy+recreate required to recover\n";
  return 0;
}
