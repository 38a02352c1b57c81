#include "hypervisor/config_text.hpp"

#include <gtest/gtest.h>

#include "platform/board.hpp"
#include "util/rng.hpp"

namespace mcs::jh {
namespace {

bool configs_equal(const CellConfig& a, const CellConfig& b) {
  if (a.name != b.name || a.cpus != b.cpus || a.irqs != b.irqs ||
      a.entry_point != b.entry_point ||
      a.console.kind != b.console.kind ||
      a.console.uart_base != b.console.uart_base ||
      a.mem_regions.size() != b.mem_regions.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.mem_regions.size(); ++i) {
    const auto& ra = a.mem_regions[i];
    const auto& rb = b.mem_regions[i];
    if (ra.name != rb.name || ra.phys_start != rb.phys_start ||
        ra.virt_start != rb.virt_start || ra.size != rb.size ||
        ra.flags != rb.flags) {
      return false;
    }
  }
  return true;
}

TEST(ConfigText, PaperConfigsRoundTrip) {
  for (const CellConfig& original :
       {make_root_cell_config(), make_freertos_cell_config()}) {
    const std::string text = to_text(original);
    auto parsed = parse_cell_config(text);
    ASSERT_TRUE(parsed.is_ok()) << parsed.status() << "\n" << text;
    EXPECT_TRUE(configs_equal(original, parsed.value())) << text;
    // The parsed config is still valid for the board.
    EXPECT_TRUE(parsed.value().validate(2).is_ok());
  }
}

TEST(ConfigText, HandWrittenConfigParses) {
  const char* text = R"(
# the FreeRTOS cell, hand-written
cell "my-cell"
cpus 1
entry 0x78000000
console trapped 0x1c28400
region ram phys=0x78000000 virt=0x78000000 size=0x1000000 flags=rwxl
irq 34
end
)";
  auto parsed = parse_cell_config(text);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status();
  EXPECT_EQ(parsed.value().name, "my-cell");
  EXPECT_EQ(parsed.value().cpus, std::vector<int>{1});
  EXPECT_EQ(parsed.value().entry_point, 0x7800'0000u);
  EXPECT_EQ(parsed.value().console.kind, ConsoleKind::Trapped);
  ASSERT_EQ(parsed.value().mem_regions.size(), 1u);
  EXPECT_EQ(parsed.value().mem_regions[0].flags,
            mem::kMemRead | mem::kMemWrite | mem::kMemExecute | mem::kMemLoadable);
}

TEST(ConfigText, FlagsLetterFormRoundTrips) {
  for (std::uint32_t flags = 0; flags < 256; ++flags) {
    auto parsed = letters_to_flags(flags_to_letters(flags));
    ASSERT_TRUE(parsed.is_ok());
    EXPECT_EQ(parsed.value(), flags);
  }
}

TEST(ConfigText, UnknownFlagLetterRejected) {
  EXPECT_FALSE(letters_to_flags("rwz").is_ok());
}

TEST(ConfigText, MalformedInputsRejectedWithLineNumbers) {
  const std::pair<const char*, const char*> cases[] = {
      {"", "missing 'cell'"},
      {"cell \"x\"\n", "missing 'end'"},
      {"cell x\nend\n", "quoted"},
      {"cell \"x\"\ncpus\nend\n", "cpus"},
      {"cell \"x\"\nentry zzz\nend\n", "entry"},
      {"cell \"x\"\nconsole weird 0x1\nend\n", "console"},
      {"cell \"x\"\nregion r phys=1 virt=2 size=3\nend\n", "region"},
      {"cell \"x\"\nregion r phys=1 virt=2 size=3 flags=qq\nend\n", "flag"},
      {"cell \"x\"\nirq\nend\n", "irq"},
      // Values wider than the field are rejected, not truncated.
      {"cell \"x\"\ncpus 0x100000001\nend\n", "line 2: bad cpu id"},
      {"cell \"x\"\nentry 0x178000000\nend\n", "line 2: bad entry"},
      {"cell \"x\"\nirq 0x100000022\nend\n", "line 2: bad irq"},
      {"cell \"x\"\nbogus 7\nend\n", "unknown keyword"},
      {"cell \"x\"\nend\ntrailing\n", "after 'end'"},
  };
  for (const auto& [text, needle] : cases) {
    auto parsed = parse_cell_config(text);
    ASSERT_FALSE(parsed.is_ok()) << text;
    EXPECT_NE(parsed.status().message().find(needle), std::string::npos)
        << parsed.status() << " for input:\n" << text;
  }
}

TEST(ConfigText, CommentsAndBlankLinesIgnored) {
  const char* text =
      "# header comment\n\ncell \"c\"\n# mid comment\ncpus 0\nend\n";
  auto parsed = parse_cell_config(text);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value().name, "c");
}

// Fuzz property: the parser never crashes and never returns success for
// byte soup (structured garbage derived from a real config).
class ConfigFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConfigFuzz, MutatedConfigsNeverCrashParser) {
  util::Xoshiro256 rng(GetParam());
  const std::string base = to_text(make_freertos_cell_config());
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = base;
    const std::size_t mutations = 1 + rng.below(6);
    for (std::size_t m = 0; m < mutations; ++m) {
      const std::size_t pos = rng.below(mutated.size());
      switch (rng.below(3)) {
        case 0: mutated[pos] = static_cast<char>(rng.below(256)); break;
        case 1: mutated.erase(pos, 1 + rng.below(4)); break;
        default: mutated.insert(pos, 1, static_cast<char>(rng.below(128)));
      }
      if (mutated.empty()) mutated.assign(1, 'x');
    }
    // Must not crash; when it *does* parse, the result must still pass
    // structural validation or be rejected there — never UB.
    auto parsed = parse_cell_config(mutated);
    if (parsed.is_ok()) {
      (void)parsed.value().validate(2);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigFuzz, ::testing::Values(1, 2, 3, 4, 5));

// --- workload-cell tuning ---------------------------------------------------

TEST(CellTuning, ParsesRamAndConsoleLines) {
  const auto tuning = parse_cell_tuning(
      "# tuned cell\n"
      "ram 0x00200000\n"
      "console trapped\n");
  ASSERT_TRUE(tuning.is_ok());
  EXPECT_EQ(tuning.value().ram_size, 0x20'0000u);
  ASSERT_TRUE(tuning.value().has_console_kind);
  EXPECT_EQ(tuning.value().console_kind, ConsoleKind::Trapped);
}

TEST(CellTuning, EmptyTextIsEmptyTuning) {
  const auto tuning = parse_cell_tuning("\n  \n# nothing\n");
  ASSERT_TRUE(tuning.is_ok());
  EXPECT_TRUE(tuning.value().empty());
}

TEST(CellTuning, ParsesBoardSelectionLine) {
  const auto tuning = parse_cell_tuning("board quad-a7\n");
  ASSERT_TRUE(tuning.is_ok());
  EXPECT_EQ(tuning.value().board, "quad-a7");
  EXPECT_FALSE(tuning.value().empty());  // board selection is a real knob

  // Plan-level knob: apply_cell_tuning must leave cell configs alone.
  CellConfig config = make_freertos_cell_config();
  const CellConfig reference = make_freertos_cell_config();
  apply_cell_tuning(config, tuning.value());
  EXPECT_EQ(config.mem_regions.size(), reference.mem_regions.size());
  EXPECT_EQ(config.console.kind, reference.console.kind);
}

TEST(CellTuning, RejectsMalformedLinesWithLineNumbers) {
  for (const char* bad : {"ram", "ram zero", "ram 0", "console",
                          "console serial", "cpus 3", "ram 0x100 extra",
                          "board", "board quad extra"}) {
    const auto tuning = parse_cell_tuning(bad);
    EXPECT_FALSE(tuning.is_ok()) << bad;
    EXPECT_NE(tuning.status().message().find("line 1"), std::string::npos) << bad;
  }
}

TEST(CellTuning, ApplyResizesRamRegion) {
  CellConfig config = make_freertos_cell_config();
  CellTuning tuning;
  tuning.ram_size = 0x0020'0000;  // 2 MiB instead of 16
  apply_cell_tuning(config, tuning);
  bool found = false;
  for (const mem::MemRegion& region : config.mem_regions) {
    if (region.name == "ram") {
      EXPECT_EQ(region.size, 0x0020'0000u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_TRUE(config.validate(2).is_ok());
}

TEST(CellTuning, ApplyTrappedConsoleUnmapsTheUartWindow) {
  CellConfig config = make_freertos_cell_config();
  CellTuning tuning;
  tuning.has_console_kind = true;
  tuning.console_kind = ConsoleKind::Trapped;
  apply_cell_tuning(config, tuning);
  EXPECT_EQ(config.console.kind, ConsoleKind::Trapped);
  EXPECT_EQ(config.console.uart_base, platform::kUart1Base);
  for (const mem::MemRegion& region : config.mem_regions) {
    EXPECT_FALSE(region.phys_start <= platform::kUart1Base &&
                 platform::kUart1Base < region.phys_start + region.size)
        << "uart window '" << region.name << "' still mapped";
  }
  EXPECT_TRUE(config.validate(2).is_ok());
}

TEST(CellTuning, ApplyEmptyTuningIsIdentity) {
  const CellConfig original = make_freertos_cell_config();
  CellConfig tuned = make_freertos_cell_config();
  apply_cell_tuning(tuned, CellTuning{});
  EXPECT_EQ(to_text(tuned), to_text(original));
}

}  // namespace
}  // namespace mcs::jh
