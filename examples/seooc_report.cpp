// seooc_report: run the paper's three campaigns (scaled down for a demo)
// and assemble the ISO 26262 SEooC evidence report — the artefact the
// whole methodology exists to produce.
//
//   $ ./seooc_report [runs_per_campaign]
#include <cstdlib>
#include <iostream>

#include "analysis/report.hpp"
#include "analysis/seooc.hpp"
#include "core/executor.hpp"

int main(int argc, char** argv) {
  using namespace mcs;
  const auto runs =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 25;

  const auto run_campaign = [&](fi::TestPlan plan,
                                std::uint64_t ticks) -> fi::CampaignResult {
    plan.runs = runs;
    plan.duration_ticks = ticks;
    std::cout << "running campaign '" << plan.name << "' (" << runs
              << " runs)...\n";
    fi::CampaignExecutor campaign(plan, {1});
    return campaign.execute();
  };

  const fi::CampaignResult medium =
      run_campaign(fi::paper_medium_trap_plan(), fi::kOneMinuteTicks);
  const fi::CampaignResult high_root =
      run_campaign(fi::paper_high_root_hvc_plan(), 2'000);
  const fi::CampaignResult high_nonroot =
      run_campaign(fi::paper_high_nonroot_plan(), 2'000);

  std::cout << "\n"
            << analysis::render_distribution_chart(
                   medium, "Non-root cell availability, medium intensity")
            << "\n";

  const analysis::SeoocReport report =
      analysis::build_seooc_report(medium, high_root, high_nonroot);
  std::cout << report.to_text();
  return 0;
}
