#include "analysis/trace.hpp"

#include <gtest/gtest.h>

#include "core/executor.hpp"
#include "util/strings.hpp"

namespace mcs::analysis {
namespace {

fi::CampaignResult small_campaign() {
  fi::TestPlan plan = fi::paper_medium_trap_plan();
  plan.runs = 6;
  plan.duration_ticks = 2'000;
  plan.phase = 2;
  fi::CampaignExecutor campaign(plan, {1});
  return campaign.execute();
}

TEST(Trace, RunsCsvHasHeaderAndOneRowPerRun) {
  const fi::CampaignResult result = small_campaign();
  const std::string csv = runs_to_csv(result);
  const auto lines = util::split(csv, '\n');
  // header + 6 rows + trailing empty from final newline
  ASSERT_GE(lines.size(), 8u);
  EXPECT_NE(lines[0].find("run,outcome"), std::string::npos);
  EXPECT_NE(lines[1].find("0,"), std::string::npos);
}

TEST(Trace, RunsCsvRoundTripsDistribution) {
  const fi::CampaignResult result = small_campaign();
  const fi::OutcomeDistribution original = result.distribution();
  const ParsedRunsCsv parsed = parse_runs_csv(runs_to_csv(result));
  EXPECT_EQ(parsed.malformed, 0u);
  EXPECT_EQ(parsed.rows, result.runs.size());
  for (std::size_t i = 0; i < fi::kNumOutcomes; ++i) {
    const auto outcome = static_cast<fi::Outcome>(i);
    EXPECT_EQ(parsed.distribution.count(outcome), original.count(outcome));
  }
}

TEST(Trace, CsvEscapesCommasInDetail) {
  fi::CampaignResult result;
  result.plan = fi::paper_medium_trap_plan();
  fi::RunResult run;
  run.outcome = fi::Outcome::PanicPark;
  run.detail = "a, very \"detailed\" reason";
  result.runs.push_back(run);
  const std::string csv = runs_to_csv(result);
  EXPECT_NE(csv.find("\"a, very \"\"detailed\"\" reason\""), std::string::npos);
  const ParsedRunsCsv parsed = parse_runs_csv(csv);
  EXPECT_EQ(parsed.distribution.count(fi::Outcome::PanicPark), 1u);
}

TEST(Trace, InjectionsCsvListsEveryFlip) {
  std::vector<fi::InjectionRecord> records;
  fi::InjectionRecord record;
  record.tick = 123;
  record.call_index = 100;
  record.point = jh::HookPoint::ArchHandleTrap;
  record.cpu = 1;
  fi::FaultRecord flip;
  flip.reg = arch::Reg::R12;
  flip.bit = 17;
  flip.before = 0x7c020000;
  flip.after = 0x7c000000;
  record.flips.push_back(flip);
  flip.reg = arch::Reg::R3;
  flip.bit = 4;
  flip.before = 0x10;
  flip.after = 0x0;
  record.flips.push_back(flip);
  records.push_back(record);
  const std::string csv = injections_to_csv(records);
  EXPECT_NE(csv.find("123,100,arch_handle_trap,1,r12,17"), std::string::npos);
  EXPECT_NE(csv.find("r3,4,0x10,0x0"), std::string::npos);
}

TEST(Trace, ManifestCapturesPlanAndOutcomes) {
  const fi::CampaignResult result = small_campaign();
  const std::string manifest = campaign_manifest(result);
  EXPECT_NE(manifest.find("plan.name=medium/non-root/arch_handle_trap"),
            std::string::npos);
  EXPECT_NE(manifest.find("plan.rate=100"), std::string::npos);
  EXPECT_NE(manifest.find("plan.target=arch_handle_trap"), std::string::npos);
  EXPECT_NE(manifest.find("result.total_runs=6"), std::string::npos);
  EXPECT_NE(manifest.find("result.outcome.correct="), std::string::npos);
}

TEST(Trace, ParseRejectsGarbageRows) {
  const ParsedRunsCsv parsed = parse_runs_csv(
      "run,outcome\n0,correct\n1,not-an-outcome\nbroken\n");
  EXPECT_EQ(parsed.rows, 1u);
  EXPECT_EQ(parsed.malformed, 2u);
}

}  // namespace
}  // namespace mcs::analysis
