#include "util/alloc_observer.hpp"

#include <gtest/gtest.h>

namespace mcs::util {
namespace {

TEST(AllocationObserver, CountsOperatorNew) {
  const AllocationObserver::Window window;
  auto* p = new int(42);
  EXPECT_GE(window.allocations(), 1u);
  delete p;
}

}  // namespace
}  // namespace mcs::util
