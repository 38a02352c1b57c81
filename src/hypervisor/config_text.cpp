#include "hypervisor/config_text.hpp"

#include <charconv>
#include <limits>
#include <sstream>

#include "util/strings.hpp"

namespace mcs::jh {
namespace {

constexpr std::pair<char, std::uint32_t> kFlagLetters[] = {
    {'r', mem::kMemRead},     {'w', mem::kMemWrite},
    {'x', mem::kMemExecute},  {'d', mem::kMemDma},
    {'i', mem::kMemIo},       {'c', mem::kMemCommRegion},
    {'s', mem::kMemRootShared}, {'l', mem::kMemLoadable},
};

/// "key=value" → value for an expected key.
util::Expected<std::uint64_t> parse_kv_number(std::string_view token,
                                              std::string_view key) {
  if (!util::starts_with(token, key) || token.size() <= key.size() ||
      token[key.size()] != '=') {
    return util::invalid_argument("expected " + std::string(key) + "=...");
  }
  return parse_config_number(token.substr(key.size() + 1));
}

/// A number bound for a field narrower than 64 bits: a value the field
/// cannot hold is rejected, never truncated.
template <typename T>
util::Expected<T> parse_narrow_number(std::string_view token) {
  auto value = parse_config_number(token);
  if (!value.is_ok()) return value.status();
  if (value.value() > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
    return util::invalid_argument("number out of range");
  }
  return static_cast<T>(value.value());
}

std::vector<std::string> tokens_of(std::string_view line) {
  std::vector<std::string> out;
  for (const std::string& part : util::split(line, ' ')) {
    if (!util::trim(part).empty()) out.emplace_back(util::trim(part));
  }
  return out;
}

}  // namespace

util::Expected<std::uint64_t> parse_config_number(std::string_view token) {
  int base = 10;
  if (util::starts_with(token, "0x") || util::starts_with(token, "0X")) {
    token.remove_prefix(2);
    base = 16;
  }
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value, base);
  if (ec != std::errc{} || ptr != token.data() + token.size() || token.empty()) {
    return util::invalid_argument("bad number");
  }
  return value;
}

std::string flags_to_letters(std::uint32_t flags) {
  std::string out;
  for (const auto& [letter, bit] : kFlagLetters) {
    if (flags & bit) out.push_back(letter);
  }
  return out.empty() ? "-" : out;
}

util::Expected<std::uint32_t> letters_to_flags(std::string_view letters) {
  if (letters == "-") return std::uint32_t{0};
  std::uint32_t flags = 0;
  for (const char c : letters) {
    bool known = false;
    for (const auto& [letter, bit] : kFlagLetters) {
      if (c == letter) {
        flags |= bit;
        known = true;
        break;
      }
    }
    if (!known) {
      return util::invalid_argument(std::string("unknown flag letter '") + c + "'");
    }
  }
  return flags;
}

std::string to_text(const CellConfig& config) {
  std::ostringstream out;
  out << "cell \"" << config.name << "\"\n";
  out << "cpus";
  for (const int cpu : config.cpus) out << ' ' << cpu;
  out << "\n";
  out << "entry " << util::hex(config.entry_point) << "\n";
  switch (config.console.kind) {
    case ConsoleKind::None:
      out << "console none\n";
      break;
    case ConsoleKind::Passthrough:
      out << "console passthrough " << util::hex(config.console.uart_base) << "\n";
      break;
    case ConsoleKind::Trapped:
      out << "console trapped " << util::hex(config.console.uart_base) << "\n";
      break;
  }
  for (const mem::MemRegion& region : config.mem_regions) {
    out << "region " << region.name << " phys=" << util::hex(region.phys_start)
        << " virt=" << util::hex(region.virt_start)
        << " size=" << util::hex(region.size)
        << " flags=" << flags_to_letters(region.flags) << "\n";
  }
  for (const irq::IrqId irq : config.irqs) out << "irq " << irq << "\n";
  out << "end\n";
  return out.str();
}

util::Expected<CellConfig> parse_cell_config(std::string_view text) {
  CellConfig config;
  bool saw_cell = false;
  bool saw_end = false;
  int line_number = 0;

  const auto fail = [&line_number](const std::string& what) {
    return util::invalid_argument("line " + std::to_string(line_number) + ": " +
                                  what);
  };

  for (const std::string& raw_line : util::split(text, '\n')) {
    ++line_number;
    const std::string_view line = util::trim(raw_line);
    if (line.empty() || line.front() == '#') continue;
    if (saw_end) return fail("content after 'end'");

    const std::vector<std::string> tokens = tokens_of(line);
    const std::string& keyword = tokens.front();

    if (keyword == "cell") {
      // cell "name" — re-join in case the name had spaces.
      const std::size_t open = line.find('"');
      const std::size_t close = line.rfind('"');
      if (open == std::string_view::npos || close <= open) {
        return fail("cell name must be quoted");
      }
      config.name = std::string(line.substr(open + 1, close - open - 1));
      saw_cell = true;
    } else if (keyword == "cpus") {
      if (tokens.size() < 2) return fail("cpus needs at least one id");
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        auto value = parse_narrow_number<int>(tokens[i]);
        if (!value.is_ok()) return fail("bad cpu id '" + tokens[i] + "'");
        config.cpus.push_back(value.value());
      }
    } else if (keyword == "entry") {
      if (tokens.size() != 2) return fail("entry needs one address");
      auto value = parse_narrow_number<arch::Word>(tokens[1]);
      if (!value.is_ok()) return fail("bad entry address");
      config.entry_point = value.value();
    } else if (keyword == "console") {
      if (tokens.size() < 2) return fail("console needs a kind");
      if (tokens[1] == "none") {
        config.console = {ConsoleKind::None, 0};
      } else if (tokens[1] == "passthrough" || tokens[1] == "trapped") {
        if (tokens.size() != 3) return fail("console needs a UART base");
        auto base = parse_config_number(tokens[2]);
        if (!base.is_ok()) return fail("bad console base");
        config.console = {tokens[1] == "passthrough" ? ConsoleKind::Passthrough
                                                     : ConsoleKind::Trapped,
                          base.value()};
      } else {
        return fail("unknown console kind '" + tokens[1] + "'");
      }
    } else if (keyword == "region") {
      if (tokens.size() != 6) {
        return fail("region needs: name phys= virt= size= flags=");
      }
      mem::MemRegion region;
      region.name = tokens[1];
      auto phys = parse_kv_number(tokens[2], "phys");
      auto virt = parse_kv_number(tokens[3], "virt");
      auto size = parse_kv_number(tokens[4], "size");
      if (!phys.is_ok() || !virt.is_ok() || !size.is_ok()) {
        return fail("bad region numbers");
      }
      if (!util::starts_with(tokens[5], "flags=")) return fail("missing flags=");
      auto flags = letters_to_flags(std::string_view(tokens[5]).substr(6));
      if (!flags.is_ok()) return fail(flags.status().message());
      region.phys_start = phys.value();
      region.virt_start = virt.value();
      region.size = size.value();
      region.flags = flags.value();
      config.mem_regions.push_back(std::move(region));
    } else if (keyword == "irq") {
      if (tokens.size() != 2) return fail("irq needs one id");
      auto value = parse_narrow_number<irq::IrqId>(tokens[1]);
      if (!value.is_ok()) return fail("bad irq id");
      config.irqs.push_back(value.value());
    } else if (keyword == "end") {
      saw_end = true;
    } else {
      return fail("unknown keyword '" + keyword + "'");
    }
  }
  if (!saw_cell) return util::invalid_argument("missing 'cell' header");
  if (!saw_end) return util::invalid_argument("missing 'end'");
  return config;
}

util::Expected<CellTuning> parse_cell_tuning(std::string_view text) {
  CellTuning tuning;
  int line_number = 0;
  const auto fail = [&line_number](const std::string& what) {
    return util::invalid_argument("line " + std::to_string(line_number) + ": " +
                                  what);
  };

  for (const std::string& raw_line : util::split(text, '\n')) {
    ++line_number;
    const std::string_view line = util::trim(raw_line);
    if (line.empty() || line.front() == '#') continue;

    const std::vector<std::string> tokens = tokens_of(line);
    const std::string& keyword = tokens.front();
    if (keyword == "ram") {
      if (tokens.size() != 2) return fail("ram needs one size");
      auto value = parse_config_number(tokens[1]);
      if (!value.is_ok() || value.value() == 0) return fail("bad ram size");
      tuning.ram_size = value.value();
    } else if (keyword == "console") {
      if (tokens.size() != 2) return fail("console tuning needs a kind");
      if (tokens[1] == "none") {
        tuning.console_kind = ConsoleKind::None;
      } else if (tokens[1] == "passthrough") {
        tuning.console_kind = ConsoleKind::Passthrough;
      } else if (tokens[1] == "trapped") {
        tuning.console_kind = ConsoleKind::Trapped;
      } else {
        return fail("unknown console kind '" + tokens[1] + "'");
      }
      tuning.has_console_kind = true;
    } else if (keyword == "board") {
      if (tokens.size() != 2) return fail("board needs one registry key");
      tuning.board = tokens[1];
    } else if (keyword == "fault") {
      if (tokens.size() != 3 || tokens[1] != "domain") {
        return fail("fault tuning needs: fault domain <name>");
      }
      tuning.fault_domain = tokens[2];
    } else {
      return fail("unknown tuning keyword '" + keyword + "'");
    }
  }
  return tuning;
}

void apply_cell_tuning(CellConfig& config, const CellTuning& tuning) {
  if (tuning.ram_size != 0) {
    for (mem::MemRegion& region : config.mem_regions) {
      if (region.name == "ram") region.size = tuning.ram_size;
    }
  }
  if (tuning.has_console_kind) {
    config.console.kind = tuning.console_kind;
    if (tuning.console_kind == ConsoleKind::None) {
      config.console.uart_base = 0;
    } else if (tuning.console_kind == ConsoleKind::Trapped) {
      // Unmap the console UART so every access raises a stage-2 fault the
      // hypervisor emulates (one arch_handle_trap entry per byte).
      std::erase_if(config.mem_regions, [&config](const mem::MemRegion& region) {
        return (region.flags & mem::kMemIo) != 0 &&
               config.console.uart_base >= region.phys_start &&
               config.console.uart_base - region.phys_start < region.size;
      });
    }
  }
}

}  // namespace mcs::jh
