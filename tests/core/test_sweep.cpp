#include "core/sweep.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "core/scenario.hpp"
#include "scratch_path.hpp"

namespace mcs::fi {
namespace {

// --- spec parsing -----------------------------------------------------------

TEST(SweepSpec, ParsesTheFullVocabulary) {
  auto parsed = parse_sweep_spec(
      "# the paper's grid\n"
      "sweep \"paper-grid\"\n"
      "scenario freertos-steady dual-cell\n"
      "scenario inject-during-boot\n"
      "rate 100 50\n"
      "board bananapi quad-a7\n"
      "runs 12\n"
      "seed 0xDEAD\n"
      "duration 30000\n"
      "tuning ram 0x200000; console trapped\n"
      "logdir sweep-logs\n");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const SweepSpec& spec = parsed.value();
  EXPECT_EQ(spec.name, "paper-grid");
  EXPECT_EQ(spec.scenarios,
            (std::vector<std::string>{"freertos-steady", "dual-cell",
                                      "inject-during-boot"}));
  EXPECT_EQ(spec.rates, (std::vector<std::uint32_t>{100, 50}));
  EXPECT_EQ(spec.boards, (std::vector<std::string>{"bananapi", "quad-a7"}));
  EXPECT_EQ(spec.runs, 12u);
  EXPECT_EQ(spec.seed, 0xDEADu);
  EXPECT_EQ(spec.duration_ticks, 30000u);
  EXPECT_EQ(spec.cell_tuning, "ram 0x200000\n console trapped");
  EXPECT_EQ(spec.log_dir, "sweep-logs");
  EXPECT_EQ(spec.cell_count(), 3u * 2u * 2u);
}

TEST(SweepSpec, DefaultsApplyWhenKeysAreOmitted) {
  auto parsed = parse_sweep_spec("scenario freertos-steady\nrate 100\n");
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value().name, "sweep");
  EXPECT_EQ(parsed.value().runs, 8u);
  EXPECT_TRUE(parsed.value().boards.empty());
  EXPECT_EQ(parsed.value().cell_count(), 1u);
}

TEST(SweepSpec, RejectsMalformedInput) {
  // Every rejection carries a line number or a grid-level explanation.
  EXPECT_FALSE(parse_sweep_spec("rate 100\n").is_ok());  // no scenario
  EXPECT_FALSE(parse_sweep_spec("scenario a\n").is_ok());  // no rate
  EXPECT_FALSE(parse_sweep_spec("scenario a\nrate 0\n").is_ok());
  EXPECT_FALSE(parse_sweep_spec("scenario a\nrate x\n").is_ok());
  EXPECT_FALSE(parse_sweep_spec("scenario a\nrate 100\nwibble 3\n").is_ok());
  EXPECT_FALSE(parse_sweep_spec("sweep unquoted\nscenario a\nrate 100\n").is_ok());
  EXPECT_FALSE(parse_sweep_spec("scenario a\nrate 100\nruns 0\n").is_ok());
  // Duplicated axis values would alias per-cell log files.
  EXPECT_FALSE(parse_sweep_spec("scenario a a\nrate 100\n").is_ok());
  EXPECT_FALSE(parse_sweep_spec("scenario a\nrate 100 100\n").is_ok());
  EXPECT_FALSE(
      parse_sweep_spec("scenario a\nrate 100\nboard b b\n").is_ok());
  // rate and runs are 32-bit: a larger value is refused, never truncated
  // (4294967396 would otherwise run as rate 100, 4294967297 as 1 run).
  EXPECT_FALSE(
      parse_sweep_spec("scenario freertos-steady\nrate 4294967396\n").is_ok());
  EXPECT_FALSE(parse_sweep_spec(
                   "scenario freertos-steady\nrate 100\nruns 4294967297\n")
                   .is_ok());
  EXPECT_TRUE(
      parse_sweep_spec("scenario freertos-steady\nrate 4294967295\n").is_ok());
  // duration shares that bound: the window closes at now + duration, so
  // 2^64-1 would wrap to an already-closed window and a value just below
  // it would never close.
  EXPECT_FALSE(parse_sweep_spec("scenario freertos-steady\nrate 100\n"
                                "duration 0xffffffffffffffff\n")
                   .is_ok());
  EXPECT_FALSE(parse_sweep_spec("scenario freertos-steady\nrate 100\n"
                                "duration 0xfffffffffffff000\n")
                   .is_ok());
  EXPECT_TRUE(parse_sweep_spec("scenario freertos-steady\nrate 100\n"
                               "duration 4294967295\n")
                  .is_ok());
  // The fault-domain and TestPlan-field axes: an unknown name, a
  // duplicate (also when spelled differently), a number out of range or
  // no value at all is refused on the line that carries it. No board has
  // a fifth CPU, so `cpu 4` is refused before any cell exists.
  for (const char* line :
       {"domain nope", "target nope", "target arch_handle_hvc arch_handle_hvc",
        "fault nope", "fault stuck-at-one stuck-at-one", "register r99",
        "register R0", "register r0 r0", "count 0", "count 17", "count x",
        "count 3 0x3", "phase 4294967296", "phase -1", "phase 1 1", "cpu 4",
        "cpu -1", "cpu anything", "cpu any any", "cpu 1 0x1", "target",
        "cpu"}) {
    const auto parsed = parse_sweep_spec(
        "scenario freertos-steady\nrate 100\n" + std::string(line) + "\n");
    ASSERT_FALSE(parsed.is_ok()) << line;
    EXPECT_EQ(parsed.status().code(), util::Code::EInval) << line;
    EXPECT_NE(parsed.status().message().find("line 3: "), std::string::npos)
        << line << " → " << parsed.status().message();
  }
  EXPECT_TRUE(parse_sweep_spec("scenario freertos-steady\nrate 100\n"
                               "count 1 16\nphase 0 4294967295\ncpu any 3\n")
                  .is_ok());
}

TEST(SweepSpec, ParsesThePlanFieldAxesAsCanonicalText) {
  auto parsed = parse_sweep_spec(
      "scenario freertos-steady\n"
      "rate 100\n"
      "target arch_handle_hvc arch_handle_trap\n"
      "fault random-multi-flip\n"
      "register r3\n"
      "register sp\n"
      "count 0x2\n"
      "phase 1\n"
      "cpu any\n");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const SweepSpec& spec = parsed.value();
  EXPECT_EQ(spec.targets, (std::vector<std::string>{"arch_handle_hvc",
                                                     "arch_handle_trap"}));
  EXPECT_EQ(spec.faults, std::vector<std::string>{"random-multi-flip"});
  EXPECT_EQ(spec.registers, (std::vector<std::string>{"r3", "sp"}));
  EXPECT_EQ(spec.counts, std::vector<std::string>{"2"});
  EXPECT_EQ(spec.phases, std::vector<std::string>{"1"});
  EXPECT_EQ(spec.cpus, std::vector<std::string>{"any"});
  EXPECT_EQ(spec.cell_count(), 4u);

  auto again = parse_sweep_spec(render_sweep_spec(spec));
  ASSERT_TRUE(again.is_ok()) << again.status().to_string();
  EXPECT_EQ(render_sweep_spec(again.value()), render_sweep_spec(spec));
}

// --- grid expansion ---------------------------------------------------------

SweepSpec small_spec() {
  SweepSpec spec;
  spec.scenarios = {"freertos-steady", "inject-during-boot"};
  spec.rates = {100, 50};
  spec.runs = 3;
  spec.seed = 0xFEED;
  spec.duration_ticks = 2'000;
  return spec;
}

TEST(SweepDriver, ExpandsTheGridInFixedOrderWithDistinctSeeds) {
  SweepDriver driver(small_spec());
  auto plans = driver.expand();
  ASSERT_TRUE(plans.is_ok()) << plans.status().to_string();
  ASSERT_EQ(plans.value().size(), 4u);
  // Scenario-major, then rate: the order the comparison report columns use.
  EXPECT_EQ(plans.value()[0].name, "freertos-steady_r100");
  EXPECT_EQ(plans.value()[1].name, "freertos-steady_r50");
  EXPECT_EQ(plans.value()[2].name, "inject-during-boot_r100");
  EXPECT_EQ(plans.value()[3].name, "inject-during-boot_r50");
  std::set<std::uint64_t> seeds;
  for (const TestPlan& plan : plans.value()) {
    EXPECT_EQ(plan.runs, 3u);
    EXPECT_EQ(plan.duration_ticks, 2'000u);
    seeds.insert(plan.seed);
  }
  EXPECT_EQ(seeds.size(), 4u);  // every cell gets its own seed stream

  // The same spec expands to the same plans — cell seeds depend only on
  // grid position, which is what makes resume deterministic.
  auto again = SweepDriver(small_spec()).expand();
  ASSERT_TRUE(again.is_ok());
  for (std::size_t i = 0; i < plans.value().size(); ++i) {
    EXPECT_EQ(plans.value()[i].seed, again.value()[i].seed);
    EXPECT_EQ(plans.value()[i].name, again.value()[i].name);
  }
}

TEST(SweepDriver, BoardAxisOverridesTheScenarioDefault) {
  SweepSpec spec = small_spec();
  spec.scenarios = {"freertos-steady"};
  spec.rates = {100};
  spec.boards = {"bananapi", "quad-a7"};
  auto plans = SweepDriver(spec).expand();
  ASSERT_TRUE(plans.is_ok()) << plans.status().to_string();
  ASSERT_EQ(plans.value().size(), 2u);
  EXPECT_EQ(plans.value()[0].name, "freertos-steady_r100_bananapi");
  EXPECT_EQ(plans.value()[1].name, "freertos-steady_r100_quad-a7");
  // The board rides the tuning vocabulary so it survives the executor's
  // tuning-overrides-plan precedence.
  EXPECT_NE(plans.value()[1].cell_tuning.find("board quad-a7"),
            std::string::npos);
}

TEST(SweepDriver, ExpandRejectsDuplicateAxisValues) {
  // Specs built from CLI flags or code never pass parse_sweep_spec, so
  // expand() must enforce the aliasing rule itself: duplicated axis
  // values collapse onto one cell id — and one log file.
  SweepSpec spec = small_spec();
  spec.scenarios = {"freertos-steady", "freertos-steady"};
  EXPECT_FALSE(SweepDriver(spec).expand().is_ok());

  spec = small_spec();
  spec.rates = {100, 100};
  EXPECT_FALSE(SweepDriver(spec).expand().is_ok());

  spec = small_spec();
  spec.boards = {"bananapi", "bananapi"};
  EXPECT_FALSE(SweepDriver(spec).expand().is_ok());
}

TEST(SweepDriver, PlanFieldAxesNestInsideDomainAndSetThePlan) {
  SweepSpec spec = small_spec();
  spec.scenarios = {"freertos-steady"};
  spec.rates = {100};
  spec.domains = {"register"};
  spec.targets = {"arch_handle_hvc", "arch_handle_trap"};
  spec.faults = {"random-multi-flip"};
  spec.registers = {"r3", "sp"};
  spec.counts = {"2"};
  spec.phases = {"1"};
  spec.cpus = {"any"};
  auto plans = SweepDriver(spec).expand();
  ASSERT_TRUE(plans.is_ok()) << plans.status().to_string();
  ASSERT_EQ(plans.value().size(), 4u);
  // A single value sets the field without naming the cell; an axis with
  // several values names each cell after its own.
  EXPECT_EQ(plans.value()[0].name,
            "freertos-steady_r100_register_arch_handle_hvc_reg-r3");
  EXPECT_EQ(plans.value()[1].name,
            "freertos-steady_r100_register_arch_handle_hvc_reg-sp");
  EXPECT_EQ(plans.value()[2].name,
            "freertos-steady_r100_register_arch_handle_trap_reg-r3");
  const TestPlan& plan = plans.value()[1];
  EXPECT_EQ(plan.target, jh::HookPoint::ArchHandleHvc);
  EXPECT_EQ(plan.fault, FaultModelKind::RandomMultiFlip);
  EXPECT_EQ(plan.fault_registers, std::vector<arch::Reg>{arch::Reg::SP});
  EXPECT_EQ(plan.fault_count, 2u);
  EXPECT_EQ(plan.phase, 1u);
  EXPECT_EQ(plan.cpu_filter, -1);
  std::set<std::uint64_t> seeds;
  for (const TestPlan& cell : plans.value()) seeds.insert(cell.seed);
  EXPECT_EQ(seeds.size(), 4u);
}

TEST(SweepDriver, ExpandNamesTheCellAPlanFieldValueDoesNotFit) {
  // Specs built in code skip the parser, so expand() checks every value
  // on the cell it lands on and names that cell.
  SweepSpec base = small_spec();
  base.scenarios = {"freertos-steady"};
  base.rates = {100};
  const auto rejects = [](const SweepSpec& spec, const std::string& cell) {
    const auto expanded = SweepDriver(spec).expand();
    ASSERT_FALSE(expanded.is_ok()) << cell;
    EXPECT_EQ(expanded.status().code(), util::Code::EInval);
    EXPECT_NE(expanded.status().message().find("cell " + cell + ": "),
              std::string::npos)
        << expanded.status().message();
  };
  SweepSpec spec = base;
  spec.targets = {"arch_handle_hvc", "nope"};
  rejects(spec, "freertos-steady_r100_nope");
  spec = base;
  spec.faults = {"nope"};
  rejects(spec, "freertos-steady_r100");
  spec = base;
  spec.registers = {"r99"};
  rejects(spec, "freertos-steady_r100");
  spec = base;
  spec.counts = {"0"};
  rejects(spec, "freertos-steady_r100");
  spec = base;
  spec.phases = {"4294967296"};
  rejects(spec, "freertos-steady_r100");
  // CPU 3 exists on quad-a7 but not on the two-CPU Banana Pi.
  spec = base;
  spec.boards = {"quad-a7", "bananapi"};
  spec.cpus = {"3"};
  rejects(spec, "freertos-steady_r100_bananapi");

  // Empty and duplicated values are grid errors, caught before any cell.
  spec = base;
  spec.counts = {"2", "2"};
  EXPECT_FALSE(SweepDriver(spec).expand().is_ok());
  spec = base;
  spec.targets = {""};
  EXPECT_FALSE(SweepDriver(spec).expand().is_ok());
}

TEST(SweepDriver, ExpandRejectsADurationBeyond32Bits) {
  // A spec built in code (or from --duration) gets the same bound as a
  // spec file, with a diagnostic that names the field.
  SweepSpec spec = small_spec();
  spec.duration_ticks = UINT64_MAX;
  const auto expanded = SweepDriver(spec).expand();
  ASSERT_FALSE(expanded.is_ok());
  EXPECT_NE(expanded.status().message().find("duration"), std::string::npos);

  spec.duration_ticks = std::uint64_t{UINT32_MAX} + 1;
  EXPECT_FALSE(SweepDriver(spec).expand().is_ok());
  spec.duration_ticks = UINT32_MAX;
  EXPECT_TRUE(SweepDriver(spec).expand().is_ok());
}

TEST(SweepDriver, RejectsUnknownScenarioAndBoardKeys) {
  SweepSpec spec = small_spec();
  spec.scenarios = {"no-such-scenario"};
  EXPECT_FALSE(SweepDriver(spec).expand().is_ok());

  spec = small_spec();
  spec.boards = {"no-such-board"};
  const auto expanded = SweepDriver(spec).expand();
  ASSERT_FALSE(expanded.is_ok());
  EXPECT_NE(expanded.status().message().find("no-such-board"),
            std::string::npos);
}

// --- execution --------------------------------------------------------------

TEST(SweepDriver, ExecutesEveryCellAndFoldsTheTotals) {
  SweepDriver driver(small_spec(), {/*threads=*/2});
  auto swept = driver.execute();
  ASSERT_TRUE(swept.is_ok()) << swept.status().to_string();
  const SweepResult& result = swept.value();
  ASSERT_EQ(result.cells.size(), 4u);
  EXPECT_EQ(result.executed, 4u);
  EXPECT_EQ(result.resumed, 0u);
  std::uint64_t runs = 0;
  for (const SweepCellResult& cell : result.cells) {
    EXPECT_FALSE(cell.resumed);
    EXPECT_TRUE(cell.log_path.empty());  // no logdir → nothing persisted
    EXPECT_EQ(cell.aggregate.distribution.total(), 3u);
    runs += cell.aggregate.distribution.total();
  }
  EXPECT_EQ(result.total.distribution.total(), runs);
}

TEST(SweepDriver, CellAggregatesAreBitIdenticalAcrossThreadCounts) {
  auto one = SweepDriver(small_spec(), {1}).execute();
  auto four = SweepDriver(small_spec(), {4}).execute();
  auto eight = SweepDriver(small_spec(), {8}).execute();
  ASSERT_TRUE(one.is_ok() && four.is_ok() && eight.is_ok());
  for (const auto* other : {&four.value(), &eight.value()}) {
    ASSERT_EQ(one.value().cells.size(), other->cells.size());
    for (std::size_t i = 0; i < one.value().cells.size(); ++i) {
      const analysis::CampaignAggregate& a = one.value().cells[i].aggregate;
      const analysis::CampaignAggregate& b = other->cells[i].aggregate;
      for (std::size_t o = 0; o < kNumOutcomes; ++o) {
        EXPECT_EQ(a.distribution.count(static_cast<Outcome>(o)),
                  b.distribution.count(static_cast<Outcome>(o)));
      }
      EXPECT_EQ(a.injections, b.injections);
      EXPECT_EQ(a.cell_failures, b.cell_failures);
      EXPECT_EQ(a.reclaimed, b.reclaimed);
      EXPECT_EQ(a.detection_latency.n(), b.detection_latency.n());
      // Exact — not approximate — equality: the sink folds in run order,
      // so the floating-point accumulation is schedule-independent.
      EXPECT_EQ(a.detection_latency.mean(), b.detection_latency.mean());
      EXPECT_EQ(a.detection_latency.stddev(), b.detection_latency.stddev());
    }
  }
}

TEST(SweepDriver, CellLogPathJoinsDirAndStem) {
  EXPECT_EQ(SweepDriver::cell_log_path("logs", "a_r100"),
            "logs/a_r100.runlog");
}

// --- cell persistence primitives --------------------------------------------
// The shared substrate both the single-process driver and the
// distributed workers commit cells through: whole-file atomic renames,
// meta written only after the log, per-run hook for lease heartbeats.

TEST(CellPersistence, ExecuteCellCommitsLogThenMetaWithNoTempLitter) {
  namespace fs = std::filesystem;
  const fs::path dir = test::scratch_path("mcs_execute_cell");
  fs::remove_all(dir);
  fs::create_directories(dir);

  auto plans = SweepDriver(small_spec()).expand();
  ASSERT_TRUE(plans.is_ok());
  const TestPlan& plan = plans.value().front();
  const std::string log_path =
      SweepDriver::cell_log_path(dir.string(), plan.name);

  // A stale sidecar from an earlier crash (meta present, log absent)
  // must be swept away, never trusted.
  { std::ofstream(cell_meta_path(log_path)) << "stale-fingerprint\n"; }

  std::uint32_t per_run_fires = 0;
  auto aggregate = execute_cell(plan, log_path, {1}, "tagged",
                                [&per_run_fires](std::uint32_t) {
                                  ++per_run_fires;
                                });
  ASSERT_TRUE(aggregate.is_ok()) << aggregate.status().to_string();
  EXPECT_EQ(aggregate.value().distribution.total(), plan.runs);
  EXPECT_EQ(per_run_fires, plan.runs);  // the lease-heartbeat hook

  // Committed: log + matching fingerprint sidecar, nothing else.
  analysis::CampaignAggregate rebuilt;
  EXPECT_TRUE(cell_log_complete(plan, log_path, rebuilt));
  EXPECT_EQ(rebuilt.distribution.total(), plan.runs);
  std::ifstream meta(cell_meta_path(log_path));
  std::stringstream fingerprint;
  fingerprint << meta.rdbuf();
  EXPECT_EQ(fingerprint.str(), plan_fingerprint(plan));
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().string().find(".tmp"), std::string::npos)
        << "temp litter: " << entry.path();
  }
  fs::remove_all(dir);
}

TEST(CellPersistence, FingerprintPinsEveryResumeRelevantPlanField) {
  auto plans = SweepDriver(small_spec()).expand();
  ASSERT_TRUE(plans.is_ok());
  TestPlan plan = plans.value().front();
  const std::string base = plan_fingerprint(plan);

  TestPlan reseeded = plan;
  reseeded.seed ^= 1;
  EXPECT_NE(plan_fingerprint(reseeded), base);

  TestPlan longer = plan;
  longer.duration_ticks += 1;
  EXPECT_NE(plan_fingerprint(longer), base);

  TestPlan more_runs = plan;
  more_runs.runs += 1;
  EXPECT_NE(plan_fingerprint(more_runs), base);

  EXPECT_EQ(plan_fingerprint(plan), base);  // and it is a pure function
}

TEST(CellPersistence, MetaPathIsTheLogPathPlusMeta) {
  EXPECT_EQ(cell_meta_path("logs/a_r100.runlog"), "logs/a_r100.runlog.meta");
}

// Byte-for-byte regression pin: a register-domain plan must hash to the
// exact pre-domain-refactor fingerprint, so logdirs written before the
// unified injection layer resume instead of silently re-executing. Any
// edit that changes these bytes invalidates every existing sweep logdir
// — treat a failure here as an on-disk-format break, not a test to
// update casually.
TEST(CellPersistence, RegisterPlanFingerprintIsThePreDomainFormat) {
  TestPlan plan;
  plan.scenario = "freertos-steady";
  plan.board = "bananapi";
  plan.target = jh::HookPoint::ArchHandleTrap;
  plan.fault = FaultModelKind::SingleBitFlip;
  plan.fault_registers.clear();
  plan.fault_count = 2;
  plan.rate = 100;
  plan.phase = 0;
  plan.cpu_filter = -1;
  plan.duration_ticks = 2'000;
  plan.runs = 4;
  plan.seed = 7;
  plan.inject_during_boot = false;
  plan.cell_tuning.clear();
  EXPECT_EQ(plan_fingerprint(plan),
            "scenario freertos-steady\n"
            "board bananapi\n"
            "target 1\n"
            "fault 0\n"
            "fault_registers\n"
            "fault_count 2\n"
            "rate 100\n"
            "phase 0\n"
            "cpu_filter -1\n"
            "duration 2000\n"
            "runs 4\n"
            "seed 7\n"
            "inject_during_boot 0\n"
            "tuning \n");

  // A non-register domain appends exactly one line at the end — nothing
  // in the legacy prefix moves.
  plan.fault_domain = FaultDomain::Gic;
  EXPECT_EQ(plan_fingerprint(plan),
            "scenario freertos-steady\n"
            "board bananapi\n"
            "target 1\n"
            "fault 0\n"
            "fault_registers\n"
            "fault_count 2\n"
            "rate 100\n"
            "phase 0\n"
            "cpu_filter -1\n"
            "duration 2000\n"
            "runs 4\n"
            "seed 7\n"
            "inject_during_boot 0\n"
            "tuning \n"
            "domain gic\n");
}

// --- fault-domain axis -------------------------------------------------------

TEST(SweepSpec, ParsesTheDomainAxis) {
  auto parsed = parse_sweep_spec(
      "scenario freertos-steady\n"
      "rate 100\n"
      "domain register gic dram\n");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().domains,
            (std::vector<std::string>{"register", "gic", "dram"}));
  EXPECT_EQ(parsed.value().cell_count(), 3u);
  // Duplicated domain values would alias per-cell log files.
  EXPECT_FALSE(
      parse_sweep_spec("scenario a\nrate 100\ndomain gic gic\n").is_ok());
}

TEST(SweepSpec, DomainAxisRoundTripsThroughRender) {
  SweepSpec spec = small_spec();
  spec.domains = {"gic", "irq-delivery"};
  auto parsed = parse_sweep_spec(render_sweep_spec(spec));
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().domains, spec.domains);
  EXPECT_EQ(parsed.value().cell_count(), spec.cell_count());
}

TEST(SweepDriver, DomainAxisOverridesThePlanDefault) {
  SweepSpec spec = small_spec();
  spec.scenarios = {"freertos-steady"};
  spec.rates = {100};
  spec.domains = {"register", "gic", "dram"};
  auto plans = SweepDriver(spec).expand();
  ASSERT_TRUE(plans.is_ok()) << plans.status().to_string();
  ASSERT_EQ(plans.value().size(), 3u);
  EXPECT_EQ(plans.value()[0].name, "freertos-steady_r100_register");
  EXPECT_EQ(plans.value()[0].fault_domain, FaultDomain::Register);
  EXPECT_EQ(plans.value()[1].name, "freertos-steady_r100_gic");
  EXPECT_EQ(plans.value()[1].fault_domain, FaultDomain::Gic);
  EXPECT_EQ(plans.value()[2].name, "freertos-steady_r100_dram");
  EXPECT_EQ(plans.value()[2].fault_domain, FaultDomain::Dram);
  // The domain rides the tuning vocabulary like the board axis, so it
  // survives the executor's tuning-overrides-plan precedence.
  EXPECT_NE(plans.value()[1].cell_tuning.find("fault domain gic"),
            std::string::npos);
}

TEST(SweepDriver, EmptyDomainAxisKeepsLegacyCellIdsAndSeeds) {
  // No domain axis → cell ids and per-cell seeds are exactly what the
  // pre-domain driver dealt: old logdirs keep resuming.
  auto legacy = SweepDriver(small_spec()).expand();
  ASSERT_TRUE(legacy.is_ok());
  EXPECT_EQ(legacy.value()[0].name, "freertos-steady_r100");
  for (const TestPlan& plan : legacy.value()) {
    EXPECT_EQ(plan.fault_domain, FaultDomain::Register);
    EXPECT_EQ(plan.cell_tuning.find("fault domain"), std::string::npos);
  }
}

TEST(SweepDriver, RejectsUnknownDomainNames) {
  SweepSpec spec = small_spec();
  spec.domains = {"no-such-domain"};
  const auto expanded = SweepDriver(spec).expand();
  ASSERT_FALSE(expanded.is_ok());
  EXPECT_NE(expanded.status().message().find("no-such-domain"),
            std::string::npos);
}

TEST(SweepDriver, DomainCellAggregatesAreBitIdenticalAcrossThreadCounts) {
  SweepSpec spec;
  spec.scenarios = {"freertos-steady"};
  spec.rates = {100};
  spec.domains = {"gic", "irq-delivery", "device-mmio", "dram"};
  spec.runs = 3;
  spec.seed = 0xD0;
  spec.duration_ticks = 2'000;
  auto one = SweepDriver(spec, {1}).execute();
  auto four = SweepDriver(spec, {4}).execute();
  auto eight = SweepDriver(spec, {8}).execute();
  ASSERT_TRUE(one.is_ok() && four.is_ok() && eight.is_ok());
  for (const auto* other : {&four.value(), &eight.value()}) {
    ASSERT_EQ(one.value().cells.size(), other->cells.size());
    for (std::size_t i = 0; i < one.value().cells.size(); ++i) {
      const analysis::CampaignAggregate& a = one.value().cells[i].aggregate;
      const analysis::CampaignAggregate& b = other->cells[i].aggregate;
      for (std::size_t o = 0; o < kNumOutcomes; ++o) {
        EXPECT_EQ(a.distribution.count(static_cast<Outcome>(o)),
                  b.distribution.count(static_cast<Outcome>(o)));
      }
      EXPECT_EQ(a.injections, b.injections);
      EXPECT_EQ(a.injections_by_domain, b.injections_by_domain);
      EXPECT_EQ(a.detection_latency.mean(), b.detection_latency.mean());
    }
  }
  // Every non-register cell attributed its injections to its own domain.
  for (std::size_t i = 0; i < spec.domains.size(); ++i) {
    const analysis::CampaignAggregate& agg = one.value().cells[i].aggregate;
    FaultDomain domain;
    ASSERT_TRUE(fault_domain_from_name(spec.domains[i], domain));
    EXPECT_EQ(agg.injections_by_domain[static_cast<std::size_t>(domain)],
              agg.injections);
  }
}

}  // namespace
}  // namespace mcs::fi
