#include "util/log.hpp"

#include <sstream>

namespace mcs::util {

std::string_view severity_name(Severity severity) noexcept {
  switch (severity) {
    case Severity::Debug: return "DEBUG";
    case Severity::Info: return "INFO";
    case Severity::Warning: return "WARN";
    case Severity::Error: return "ERROR";
    case Severity::Fatal: return "FATAL";
  }
  return "?";
}

void EventLog::append(LogRecord record) {
  records_.push_back(std::move(record));
}

std::size_t EventLog::count_at_least(Severity severity) const noexcept {
  std::size_t n = 0;
  for (const auto& r : records_) {
    if (r.severity >= severity) ++n;
  }
  return n;
}

bool EventLog::contains(std::string_view component, std::string_view needle) const {
  for (const auto& r : records_) {
    if (r.component == component && r.message.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

std::string EventLog::to_text() const {
  std::ostringstream out;
  for (const auto& r : records_) {
    out << '[' << r.timestamp.value << "ms] " << severity_name(r.severity) << ' '
        << r.component;
    if (r.cpu >= 0) out << "/cpu" << r.cpu;
    out << ": " << r.message << '\n';
  }
  return out.str();
}

}  // namespace mcs::util
