// Structured event log. The paper collects every observation into "a log
// file, which is further analyzed"; EventLog is that file. Records carry
// the simulated timestamp, the originating component and CPU, and a
// severity, so the analysis stage can classify runs without re-running.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "util/clock.hpp"

namespace mcs::util {

enum class Severity : std::uint8_t { Debug, Info, Warning, Error, Fatal };

std::string_view severity_name(Severity severity) noexcept;

struct LogRecord {
  Ticks timestamp{};
  Severity severity = Severity::Info;
  std::string component;  ///< e.g. "hypervisor", "uart1", "rtos"
  int cpu = -1;           ///< originating CPU, -1 if not CPU-bound
  std::string message;

  bool operator==(const LogRecord&) const = default;
};

/// Append-only in-memory log with optional mirroring to a callback (used by
/// the campaign orchestrator to stream records into the run log file).
class EventLog {
 public:
  using Mirror = std::function<void(const LogRecord&)>;

  void append(LogRecord record);

  void log(Ticks now, Severity severity, std::string component, int cpu,
           std::string message) {
    append(LogRecord{now, severity, std::move(component), cpu, std::move(message)});
  }

  [[nodiscard]] const std::vector<LogRecord>& records() const noexcept { return records_; }
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  void clear() noexcept { records_.clear(); }

  /// Replace the records with captured ones (testbed snapshot restore).
  /// The log is append-only between restores, so a live log already
  /// holds equal records with enough capacity and this allocates nothing.
  void restore(const std::vector<LogRecord>& records) { records_ = records; }

  /// Count records at or above `severity`.
  [[nodiscard]] std::size_t count_at_least(Severity severity) const noexcept;

  /// True iff any record from `component` contains `needle`.
  [[nodiscard]] bool contains(std::string_view component, std::string_view needle) const;

  void set_mirror(Mirror mirror) { mirror_ = std::move(mirror); }

  /// Render the whole log as the text file the paper's framework writes.
  [[nodiscard]] std::string to_text() const;

 private:
  std::vector<LogRecord> records_;
  Mirror mirror_;
};

}  // namespace mcs::util
