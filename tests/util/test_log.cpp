#include "util/log.hpp"

#include <gtest/gtest.h>

namespace mcs::util {
namespace {

TEST(EventLog, AppendAndRead) {
  EventLog log;
  log.log(Ticks{5}, Severity::Info, "uart0", 0, "hello");
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.records()[0].message, "hello");
  EXPECT_EQ(log.records()[0].timestamp.value, 5u);
  EXPECT_EQ(log.records()[0].cpu, 0);
}

TEST(EventLog, CountAtLeastFiltersBySeverity) {
  EventLog log;
  log.log(Ticks{1}, Severity::Debug, "a", -1, "d");
  log.log(Ticks{2}, Severity::Warning, "a", -1, "w");
  log.log(Ticks{3}, Severity::Error, "a", -1, "e");
  log.log(Ticks{4}, Severity::Fatal, "a", -1, "f");
  EXPECT_EQ(log.count_at_least(Severity::Debug), 4u);
  EXPECT_EQ(log.count_at_least(Severity::Warning), 3u);
  EXPECT_EQ(log.count_at_least(Severity::Error), 2u);
  EXPECT_EQ(log.count_at_least(Severity::Fatal), 1u);
}

TEST(EventLog, ContainsMatchesComponentAndNeedle) {
  EventLog log;
  log.log(Ticks{1}, Severity::Error, "hypervisor", 1, "unhandled trap exception");
  EXPECT_TRUE(log.contains("hypervisor", "unhandled trap"));
  EXPECT_FALSE(log.contains("hypervisor", "panic"));
  EXPECT_FALSE(log.contains("uart0", "unhandled trap"));
}

TEST(EventLog, ToTextFormat) {
  EventLog log;
  log.log(Ticks{42}, Severity::Error, "hypervisor", 1, "boom");
  log.log(Ticks{43}, Severity::Info, "board", -1, "tick");
  const std::string text = log.to_text();
  EXPECT_NE(text.find("[42ms] ERROR hypervisor/cpu1: boom"), std::string::npos);
  EXPECT_NE(text.find("[43ms] INFO board: tick"), std::string::npos);
}

TEST(EventLog, ClearEmpties) {
  EventLog log;
  log.log(Ticks{1}, Severity::Info, "a", -1, "x");
  log.clear();
  EXPECT_EQ(log.size(), 0u);
}

TEST(Severity, NamesAreStable) {
  EXPECT_EQ(severity_name(Severity::Debug), "DEBUG");
  EXPECT_EQ(severity_name(Severity::Warning), "WARN");
  EXPECT_EQ(severity_name(Severity::Fatal), "FATAL");
}

}  // namespace
}  // namespace mcs::util
