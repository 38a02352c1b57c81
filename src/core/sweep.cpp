#include "core/sweep.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "analysis/log_parser.hpp"
#include "core/scenario.hpp"
#include "hypervisor/config_text.hpp"
#include "platform/board_registry.hpp"
#include "util/logpipe_counters.hpp"
#include "util/mapped_file.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace mcs::fi {

namespace {

// --- the grid axes -----------------------------------------------------------
// Every axis is one row of kAxes: the spec keyword, how it names a cell,
// where SweepSpec keeps its values, and how one value lands on a cell's
// plan. The parser, the renderer, validate_grid, the cell ids and
// expand() all walk this table, so an axis is declared exactly once.

/// Where SweepSpec keeps an axis's values, seen as spec text.
struct AxisField {
  std::size_t (*size)(const SweepSpec&);
  std::string (*value)(const SweepSpec&, std::size_t);
  void (*add)(SweepSpec&, std::string);  ///< takes canonical text
};

template <std::vector<std::string> SweepSpec::*Field>
constexpr AxisField kTextField{
    [](const SweepSpec& spec) { return (spec.*Field).size(); },
    [](const SweepSpec& spec, std::size_t i) { return (spec.*Field)[i]; },
    [](SweepSpec& spec, std::string value) {
      (spec.*Field).push_back(std::move(value));
    }};

constexpr AxisField kRateField{
    [](const SweepSpec& spec) { return spec.rates.size(); },
    [](const SweepSpec& spec, std::size_t i) {
      return std::to_string(spec.rates[i]);
    },
    [](SweepSpec& spec, std::string value) {
      spec.rates.push_back(static_cast<std::uint32_t>(std::stoul(value)));
    }};

struct Axis {
  std::string_view key;     ///< spec keyword, and its noun in diagnostics
  std::string_view id_tag;  ///< cell-id text before each value
  bool required;            ///< no value → no grid (scenario, rate)
  bool always_named;        ///< a single value still names the cell (the
                            ///< original four axes: their ids are stable)
  AxisField field;
  /// Put one value on a cell's plan; EINVAL for a value it cannot take.
  util::Status (*set)(TestPlan&, std::string_view);
  /// The canonical text of the value `set` put on the plan. nullptr for
  /// registry keys: stored verbatim, resolved by expand() once every
  /// scenario and board is registered.
  std::string (*text)(const TestPlan&);
};

util::Status bad_value(std::string_view key, std::string_view value,
                       std::string_view need) {
  return util::invalid_argument("bad " + std::string(key) + " '" +
                                std::string(value) + "' (need " +
                                std::string(need) + ")");
}

util::Status unknown(std::string_view what, std::string_view value) {
  return util::invalid_argument("unknown " + std::string(what) + " '" +
                                std::string(value) + "'");
}

/// `text` as a config number within [min, max].
bool number_in(std::string_view text, std::uint64_t min, std::uint64_t max,
               std::uint64_t& out) {
  const auto value = jh::parse_config_number(text);
  if (!value.is_ok() || value.value() < min || value.value() > max) {
    return false;
  }
  out = value.value();
  return true;
}

/// The enumerator of the first `count` whose name is `text`.
template <typename Enum>
bool enum_named(std::string_view text, std::size_t count,
                std::string_view (*name_of)(Enum) noexcept, Enum& out) {
  for (std::size_t i = 0; i < count; ++i) {
    if (name_of(static_cast<Enum>(i)) == text) {
      out = static_cast<Enum>(i);
      return true;
    }
  }
  return false;
}

/// The board axis and the fault-domain axis ride the tuning vocabulary,
/// appended last so they override the shared tuning's own lines.
void append_tuning(TestPlan& plan, const std::string& line) {
  if (!plan.cell_tuning.empty()) plan.cell_tuning += '\n';
  plan.cell_tuning += line;
}

/// The most CPUs any registered board has: the bound a `cpu` value must
/// meet before its cell, and so its board, is known.
int max_board_cpus() {
  int cpus = 0;
  for (const std::string& name : platform::BoardRegistry::instance().names()) {
    const platform::BoardSpec* board = platform::find_board_spec(name);
    if (board != nullptr) cpus = std::max(cpus, board->num_cpus);
  }
  return cpus;
}

util::Status set_scenario(TestPlan& plan, std::string_view value) {
  ScenarioRegistry::MakeOptions options;
  options.cell_tuning = plan.cell_tuning;
  auto made = ScenarioRegistry::instance().make(value, options);
  if (!made.is_ok()) return made.status();
  plan = std::move(made).value();
  return util::ok_status();
}

util::Status set_rate(TestPlan& plan, std::string_view value) {
  std::uint64_t rate = 0;
  if (!number_in(value, 1, UINT32_MAX, rate)) {
    return bad_value("rate", value, "a call count ≥ 1");
  }
  plan.rate = static_cast<std::uint32_t>(rate);
  return util::ok_status();
}

util::Status set_board(TestPlan& plan, std::string_view value) {
  if (platform::find_board_spec(value) == nullptr) {
    return unknown("board", value);
  }
  plan.board = std::string(value);
  append_tuning(plan, "board " + plan.board);
  return util::ok_status();
}

util::Status set_domain(TestPlan& plan, std::string_view value) {
  if (!fault_domain_from_name(value, plan.fault_domain)) {
    return unknown("fault domain", value);
  }
  append_tuning(plan, "fault domain " + std::string(value));
  return util::ok_status();
}

util::Status set_target(TestPlan& plan, std::string_view value) {
  if (!enum_named(value, jh::kNumHookPoints, jh::hook_point_name,
                  plan.target)) {
    return unknown("target", value);
  }
  return util::ok_status();
}

util::Status set_fault(TestPlan& plan, std::string_view value) {
  if (!enum_named(value, kNumFaultModelKinds, fault_model_kind_name,
                  plan.fault)) {
    return unknown("fault model", value);
  }
  return util::ok_status();
}

util::Status set_register(TestPlan& plan, std::string_view value) {
  arch::Reg reg{};
  if (!enum_named(value, arch::kNumGeneralRegs, arch::reg_name, reg)) {
    return unknown("register", value);
  }
  plan.fault_registers = {reg};
  return util::ok_status();
}

util::Status set_count(TestPlan& plan, std::string_view value) {
  std::uint64_t count = 0;
  if (!number_in(value, 1, arch::kNumGeneralRegs, count)) {
    return bad_value("count", value, "1.." +
                                         std::to_string(arch::kNumGeneralRegs) +
                                         " registers");
  }
  plan.fault_count = static_cast<unsigned>(count);
  return util::ok_status();
}

util::Status set_phase(TestPlan& plan, std::string_view value) {
  // 32-bit like rate: the injector counts calls in the same width.
  if (!number_in(value, 0, UINT32_MAX, plan.phase)) {
    return bad_value("phase", value, "a call index ≤ 4294967295");
  }
  return util::ok_status();
}

util::Status set_cpu(TestPlan& plan, std::string_view value) {
  if (value == "any") {
    plan.cpu_filter = -1;
    return util::ok_status();
  }
  const platform::BoardSpec* board = platform::find_board_spec(plan.board);
  const int cpus = board != nullptr ? board->num_cpus : max_board_cpus();
  std::uint64_t cpu = 0;
  if (cpus < 1 || !number_in(value, 0, static_cast<std::uint64_t>(cpus - 1),
                             cpu)) {
    return bad_value("cpu", value,
                     "any or 0.." + std::to_string(cpus - 1) +
                         (board != nullptr ? " on board " + plan.board : ""));
  }
  plan.cpu_filter = static_cast<int>(cpu);
  return util::ok_status();
}

// Grid order is table order: scenario-major, the last axis fastest. The
// plan-field axes nest inside domain, so a spec without them expands to
// the same cells, ids and seeds as before they existed. A cell's values
// are set in table order too: scenario builds the plan the others refine,
// and cpu is checked against the board already set.
constexpr std::array<Axis, 10> kAxes{{
    {"scenario", "", true, true, kTextField<&SweepSpec::scenarios>,
     set_scenario, nullptr},
    {"rate", "_r", true, true, kRateField, set_rate,
     [](const TestPlan& plan) { return std::to_string(plan.rate); }},
    {"board", "_", false, true, kTextField<&SweepSpec::boards>, set_board,
     nullptr},
    {"domain", "_", false, true, kTextField<&SweepSpec::domains>, set_domain,
     [](const TestPlan& plan) {
       return std::string(fault_domain_name(plan.fault_domain));
     }},
    {"target", "_", false, false, kTextField<&SweepSpec::targets>, set_target,
     [](const TestPlan& plan) {
       return std::string(jh::hook_point_name(plan.target));
     }},
    {"fault", "_", false, false, kTextField<&SweepSpec::faults>, set_fault,
     [](const TestPlan& plan) {
       return std::string(fault_model_kind_name(plan.fault));
     }},
    {"register", "_reg-", false, false, kTextField<&SweepSpec::registers>,
     set_register,
     [](const TestPlan& plan) {
       return std::string(arch::reg_name(plan.fault_registers.front()));
     }},
    {"count", "_k", false, false, kTextField<&SweepSpec::counts>, set_count,
     [](const TestPlan& plan) { return std::to_string(plan.fault_count); }},
    {"phase", "_p", false, false, kTextField<&SweepSpec::phases>, set_phase,
     [](const TestPlan& plan) { return std::to_string(plan.phase); }},
    {"cpu", "_cpu", false, false, kTextField<&SweepSpec::cpus>, set_cpu,
     [](const TestPlan& plan) {
       return plan.cpu_filter < 0 ? std::string("any")
                                  : std::to_string(plan.cpu_filter);
     }},
}};

/// A spec-file token as the canonical text its axis stores: checked on a
/// scratch plan that belongs to no cell yet, so `cpu` is bounded by the
/// largest board. Registry keys pass through for expand() to resolve.
util::Expected<std::string> canonical_text(const Axis& axis,
                                           std::string_view token) {
  if (axis.text == nullptr) return std::string(token);
  TestPlan scratch;
  scratch.board.clear();
  const util::Status set = axis.set(scratch, token);
  if (!set.is_ok()) return set;
  return axis.text(scratch);
}

/// Grid-level validation shared by the spec parser and expand(): a spec
/// assembled from CLI flags or code must obey the same rules as a parsed
/// one — in particular no empty or duplicated axis values, which would
/// drop an axis from a cell's id or alias two cells' ids (and therefore
/// log files), making resume report one cell's data as another's.
util::Status validate_grid(const SweepSpec& spec) {
  for (const Axis& axis : kAxes) {
    const std::size_t size = axis.field.size(spec);
    if (axis.required && size == 0) {
      return util::invalid_argument("sweep spec names no " +
                                    std::string(axis.key));
    }
    std::vector<std::string> values;
    for (std::size_t i = 0; i < size; ++i) {
      values.push_back(axis.field.value(spec, i));
      if (values.back().empty()) {
        return util::invalid_argument("empty " + std::string(axis.key) +
                                      " in sweep spec");
      }
    }
    std::sort(values.begin(), values.end());
    if (std::adjacent_find(values.begin(), values.end()) != values.end()) {
      return util::invalid_argument("duplicate " + std::string(axis.key) +
                                    " in sweep spec");
    }
  }
  if (spec.runs == 0) {
    return util::invalid_argument("sweep needs runs ≥ 1");
  }
  // The window closes at now + duration: the 32-bit bound runs and rates
  // share keeps that sum from wrapping (or never arriving).
  if (spec.duration_ticks > UINT32_MAX) {
    return util::invalid_argument("sweep duration must be ≤ 4294967295 ticks");
  }
  return util::ok_status();
}

}  // namespace

std::size_t SweepSpec::cell_count() const noexcept {
  std::size_t cells = 1;
  for (const Axis& axis : kAxes) {
    const std::size_t size = axis.field.size(*this);
    cells *= size == 0 && !axis.required ? 1 : size;
  }
  return cells;
}

std::string plan_fingerprint(const TestPlan& plan) {
  std::string tuning = plan.cell_tuning;
  std::replace(tuning.begin(), tuning.end(), '\n', ';');
  std::ostringstream out;
  out << "scenario " << plan.scenario << "\n"
      << "board " << plan.board << "\n"
      << "target " << static_cast<int>(plan.target) << "\n"
      << "fault " << static_cast<int>(plan.fault) << "\n"
      << "fault_registers";
  for (const arch::Reg reg : plan.fault_registers) {
    out << ' ' << static_cast<int>(reg);
  }
  out << "\n"
      << "fault_count " << plan.fault_count << "\n"
      << "rate " << plan.rate << "\n"
      << "phase " << plan.phase << "\n"
      << "cpu_filter " << plan.cpu_filter << "\n"
      << "duration " << plan.duration_ticks << "\n"
      << "runs " << plan.runs << "\n"
      << "seed " << plan.seed << "\n"
      << "inject_during_boot " << (plan.inject_during_boot ? 1 : 0) << "\n"
      << "tuning " << tuning << "\n";
  // Appended (not inline above) and only for non-register plans: a
  // register-domain plan's fingerprint is byte-identical to the
  // pre-refactor format, so existing logdirs resume instead of
  // re-executing.
  if (plan.fault_domain != FaultDomain::Register) {
    out << "domain " << fault_domain_name(plan.fault_domain) << "\n";
  }
  return out.str();
}

std::string cell_meta_path(const std::string& log_path) {
  return log_path + ".meta";
}

util::Status write_text_atomic(const std::string& path, std::string_view text,
                               const std::string& tag) {
  const std::string effective_tag =
      tag.empty() ? std::to_string(static_cast<long>(::getpid())) : tag;
  const std::string tmp = path + "." + effective_tag + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    out << text;
    out.flush();
    if (!out) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return util::Status(util::Code::EIo, "cannot write '" + tmp + "'");
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return util::Status(util::Code::EIo, "cannot rename '" + tmp + "' to '" +
                                             path + "': " + ec.message());
  }
  return util::ok_status();
}

bool cell_log_complete(const TestPlan& plan, const std::string& log_path,
                       analysis::CampaignAggregate& aggregate) {
  // The sidecar fingerprint ties the log to the exact plan that wrote
  // it. Absent (interrupted before completion) or mismatched (the
  // logdir was reused with a different spec) → the log is not this
  // cell's data, however complete it looks.
  {
    const auto meta = util::read_file(cell_meta_path(log_path));
    if (!meta.is_ok() || meta.value() != plan_fingerprint(plan)) return false;
  }

  // One zero-copy pass: the log is mapped, scanned in place and folded
  // straight into the aggregate. (The historical path slurped the file
  // into a stringstream and copied it out again before parsing — two
  // full copies per cell, per resume attempt.)
  const auto mapped = util::MappedFile::open(log_path);
  if (!mapped.is_ok()) return false;
  const analysis::RunLogScan scan = analysis::scan_run_log(mapped.value().view());

  // Complete ⇔ every run index 0..runs-1 exactly once, in order, and not
  // a single malformed line — anything else (truncated tail from an
  // interrupt, foreign content) re-executes the cell from scratch.
  if (scan.malformed_lines != 0) return false;
  if (scan.entries != plan.runs) return false;
  if (!scan.indices_sequential) return false;
  aggregate = scan.aggregate;
  return true;
}

util::Expected<analysis::CampaignAggregate> execute_cell(
    const TestPlan& plan, const std::string& log_path,
    const ExecutorConfig& config, const std::string& tag,
    const std::function<void(std::uint32_t)>& per_run) {
  const bool persist = !log_path.empty();
  const std::string effective_tag =
      tag.empty() ? std::to_string(static_cast<long>(::getpid())) : tag;
  const std::string tmp = log_path + "." + effective_tag + ".tmp";

  std::ofstream log_file;
  if (persist) {
    // A stale fingerprint must never outlive the log it described: drop
    // it first, and only commit the new one once the cell's log is
    // complete on disk. An interrupt anywhere in between leaves no
    // fingerprint (and no partially-written log — the stream goes to a
    // temp file renamed into place), so the next invocation re-executes.
    std::error_code ec;
    std::filesystem::remove(cell_meta_path(log_path), ec);
    log_file.open(tmp, std::ios::trunc);
    if (!log_file) {
      return util::Status(util::Code::EIo,
                          "cannot write cell log '" + tmp + "'");
    }
  }
  // Persisted cells stream straight to their temp log file; an in-memory
  // cell streams into a scratch buffer that dies here (the aggregate is
  // all the caller keeps).
  std::ostringstream devnull;
  analysis::LogSink sink(persist ? static_cast<std::ostream&>(log_file)
                                 : devnull);
  CampaignExecutor executor(plan, config);
  executor.set_progress(
      [&sink, &per_run](std::uint32_t index, const RunResult& run) {
        sink.record(index, run);
        if (per_run) per_run(index);
      });
  const CampaignResult campaign = executor.execute();
  (void)campaign;  // every run already reached the sink, in order

  if (persist) {
    sink.flush();
    if (!log_file) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return util::Status(util::Code::EIo,
                          "cannot write cell log '" + tmp + "'");
    }
    log_file.close();
    std::error_code ec;
    std::filesystem::rename(tmp, log_path, ec);
    if (ec) {
      std::filesystem::remove(tmp, ec);
      return util::Status(util::Code::EIo, "cannot rename cell log '" + tmp +
                                               "': " + ec.message());
    }
    const util::Status meta = write_text_atomic(
        cell_meta_path(log_path), plan_fingerprint(plan), effective_tag);
    if (!meta.is_ok()) return meta;
  }
  return sink.aggregate();
}

std::string render_sweep_spec(const SweepSpec& spec) {
  std::ostringstream out;
  out << "sweep \"" << spec.name << "\"\n";
  for (const Axis& axis : kAxes) {
    const std::size_t size = axis.field.size(spec);
    if (size == 0 && !axis.required) continue;
    out << axis.key;
    for (std::size_t i = 0; i < size; ++i) {
      out << ' ' << axis.field.value(spec, i);
    }
    out << "\n";
  }
  out << "runs " << spec.runs << "\n"
      << "seed " << spec.seed << "\n";
  if (spec.duration_ticks != 0) out << "duration " << spec.duration_ticks << "\n";
  if (!spec.cell_tuning.empty()) {
    std::string tuning = spec.cell_tuning;
    std::replace(tuning.begin(), tuning.end(), '\n', ';');
    out << "tuning " << tuning << "\n";
  }
  if (!spec.log_dir.empty()) out << "logdir " << spec.log_dir << "\n";
  return out.str();
}

util::Expected<SweepSpec> parse_sweep_spec(std::string_view text) {
  SweepSpec spec;
  int line_number = 0;
  const auto fail = [&line_number](const std::string& what) {
    return util::invalid_argument("line " + std::to_string(line_number) + ": " +
                                  what);
  };

  for (const std::string& raw_line : util::split(text, '\n')) {
    ++line_number;
    const std::string_view line = util::trim(raw_line);
    if (line.empty() || line.front() == '#') continue;

    const std::size_t space = line.find(' ');
    const std::string_view keyword = line.substr(0, space);
    const std::string_view rest =
        space == std::string_view::npos ? std::string_view{}
                                        : util::trim(line.substr(space + 1));

    if (keyword == "sweep") {
      // sweep "name" — quoted like the cell-config header.
      const std::size_t open = rest.find('"');
      const std::size_t close = rest.rfind('"');
      if (open == std::string_view::npos || close <= open) {
        return fail("sweep name must be quoted");
      }
      spec.name = std::string(rest.substr(open + 1, close - open - 1));
    } else if (const auto axis = std::find_if(
                   kAxes.begin(), kAxes.end(),
                   [keyword](const Axis& a) { return a.key == keyword; });
               axis != kAxes.end()) {
      if (rest.empty()) return fail(std::string(keyword) + " needs a value");
      for (const std::string& token : util::split(rest, ' ')) {
        if (util::trim(token).empty()) continue;
        auto text = canonical_text(*axis, util::trim(token));
        if (!text.is_ok()) return fail(text.status().message());
        for (std::size_t i = 0; i < axis->field.size(spec); ++i) {
          if (axis->field.value(spec, i) == text.value()) {
            return fail("duplicate " + std::string(keyword) + " '" +
                        text.value() + "'");
          }
        }
        axis->field.add(spec, std::move(text).value());
      }
    } else if (keyword == "runs") {
      auto value = jh::parse_config_number(rest);
      if (!value.is_ok() || value.value() == 0 || value.value() > UINT32_MAX) {
        return fail("bad runs count");
      }
      spec.runs = static_cast<std::uint32_t>(value.value());
    } else if (keyword == "seed") {
      auto value = jh::parse_config_number(rest);
      if (!value.is_ok()) return fail("bad seed");
      spec.seed = value.value();
    } else if (keyword == "duration") {
      auto value = jh::parse_config_number(rest);
      if (!value.is_ok() || value.value() == 0) return fail("bad duration");
      spec.duration_ticks = value.value();
    } else if (keyword == "tuning") {
      // The rest of the line is cell-tuning text, ';'-separated like the
      // fault_campaign CLI; multiple tuning lines accumulate.
      std::string tuning(rest);
      std::replace(tuning.begin(), tuning.end(), ';', '\n');
      if (!spec.cell_tuning.empty()) spec.cell_tuning += '\n';
      spec.cell_tuning += tuning;
    } else if (keyword == "logdir") {
      if (rest.empty()) return fail("logdir needs a path");
      spec.log_dir = std::string(rest);
    } else {
      return fail("unknown keyword '" + std::string(keyword) + "'");
    }
  }

  const util::Status valid = validate_grid(spec);
  if (!valid.is_ok()) return valid;
  return spec;
}

SweepDriver::SweepDriver(SweepSpec spec, ExecutorConfig config)
    : spec_(std::move(spec)), config_(config) {}

std::string SweepDriver::cell_log_path(const std::string& log_dir,
                                       const std::string& cell_id) {
  return (std::filesystem::path(log_dir) / (cell_id + ".runlog")).string();
}

util::Expected<std::vector<TestPlan>> SweepDriver::expand() const {
  // Specs can arrive without passing parse_sweep_spec (built from CLI
  // flags or code), so the grid rules are enforced here too.
  const util::Status valid = validate_grid(spec_);
  if (!valid.is_ok()) return valid;

  // An absent axis is one pass with no value: no id text, no setting.
  std::array<std::vector<std::string>, kAxes.size()> values;
  for (std::size_t a = 0; a < kAxes.size(); ++a) {
    for (std::size_t i = 0; i < kAxes[a].field.size(spec_); ++i) {
      values[a].push_back(kAxes[a].field.value(spec_, i));
    }
    if (values[a].empty()) values[a].emplace_back();
  }

  const std::size_t cells = spec_.cell_count();
  std::vector<TestPlan> plans;
  plans.reserve(cells);
  // One serial seed expansion over the full grid, in grid order: a cell's
  // seed depends only on its grid position, never on which cells execute.
  util::SplitMix64 seeder(spec_.seed);
  for (std::size_t cell = 0; cell < cells; ++cell) {
    // Mixed-radix digits of the cell index, the last axis fastest.
    std::array<const std::string*, kAxes.size()> at{};
    std::size_t rest = cell;
    for (std::size_t a = kAxes.size(); a-- > 0;) {
      at[a] = &values[a][rest % values[a].size()];
      rest /= values[a].size();
    }
    // "scenario_rN[_board][_domain]…": unique per grid cell, and
    // filesystem-safe since every value is a registry key or checked.
    std::string id;
    for (std::size_t a = 0; a < kAxes.size(); ++a) {
      if (!at[a]->empty() && (kAxes[a].always_named || values[a].size() > 1)) {
        id += std::string(kAxes[a].id_tag) + *at[a];
      }
    }
    TestPlan plan;
    plan.cell_tuning = spec_.cell_tuning;
    for (std::size_t a = 0; a < kAxes.size(); ++a) {
      if (at[a]->empty()) continue;
      const util::Status set = kAxes[a].set(plan, *at[a]);
      if (!set.is_ok()) {
        return util::invalid_argument("cell " + id + ": " + set.message());
      }
    }
    plan.name = std::move(id);
    plan.runs = spec_.runs;
    plan.seed = seeder.next();
    if (spec_.duration_ticks != 0) plan.duration_ticks = spec_.duration_ticks;
    plans.push_back(std::move(plan));
  }
  return plans;
}

util::Expected<SweepResult> SweepDriver::execute() {
  auto plans = expand();
  if (!plans.is_ok()) return plans.status();

  const bool persist = !spec_.log_dir.empty();
  if (persist) {
    std::error_code ec;
    std::filesystem::create_directories(spec_.log_dir, ec);
    if (ec) {
      return util::Status(util::Code::EIo, "cannot create sweep log dir '" +
                                               spec_.log_dir + "': " +
                                               ec.message());
    }
  }

  std::vector<TestPlan>& grid = plans.value();

  // Resume pre-scan. Rebuilding a completed cell from its persisted log
  // is a pure read — mmap + one zero-copy scan, no shared state — so a
  // cold start over a populated logdir validates cells on config.threads
  // workers (inline at width 1). Only the *scan* fans out: the fold below
  // stays serial and in grid order, so the report is byte-identical for
  // any thread count (the resume suite asserts it).
  std::vector<char> resumed(grid.size(), 0);
  std::vector<analysis::CampaignAggregate> recovered(grid.size());
  if (persist) {
    std::atomic<std::size_t> next{0};
    util::fan_out(config_.threads, grid.size(), [&] {
      for (std::size_t i = next.fetch_add(1); i < grid.size();
           i = next.fetch_add(1)) {
        const std::string path = cell_log_path(spec_.log_dir, grid[i].name);
        if (cell_log_complete(grid[i], path, recovered[i])) {
          resumed[i] = 1;
          util::LogPipeCounters::instance().record_resumed_cell();
        }
      }
    });
  }

  SweepResult result;
  result.spec = spec_;
  result.cells.reserve(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    SweepCellResult cell;
    cell.id = grid[i].name;
    cell.plan = std::move(grid[i]);

    if (persist) {
      cell.log_path = cell_log_path(spec_.log_dir, cell.id);
      if (resumed[i] != 0) {
        cell.aggregate = recovered[i];
        cell.resumed = true;
        ++result.resumed;
      }
    }

    if (!cell.resumed) {
      auto executed = execute_cell(cell.plan, cell.log_path, config_);
      if (!executed.is_ok()) return executed.status();
      cell.aggregate = std::move(executed).value();
      ++result.executed;
    }

    result.total.merge(cell.aggregate);
    if (cell_progress_) cell_progress_(cell);
    result.cells.push_back(std::move(cell));
  }
  return result;
}

}  // namespace mcs::fi
