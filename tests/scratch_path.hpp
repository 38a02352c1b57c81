// Filesystem scratch paths for tests.
//
// A fixed name under testing::TempDir() is shared by every process on the
// host: two suite runs at once (or ctest beside a one-process run) would
// remove and rewrite each other's log directories mid-test. Every test
// that touches the filesystem takes its path from here instead.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

namespace mcs::test {

/// `TempDir()/<stem>_<pid>_<suite>.<test>`: unique per process and per
/// test, so no other test, here or in a concurrent process, uses it.
inline std::filesystem::path scratch_path(const std::string& stem) {
  std::string name = stem + "_" + std::to_string(::getpid());
  if (const ::testing::TestInfo* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    name += std::string("_") + info->test_suite_name() + "." + info->name();
  }
  // Parameterised names carry '/', which would nest directories.
  std::replace(name.begin(), name.end(), '/', '_');
  return std::filesystem::path(::testing::TempDir()) / name;
}

}  // namespace mcs::test
