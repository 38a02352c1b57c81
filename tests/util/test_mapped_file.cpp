#include "util/mapped_file.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <utility>

#include "util/logpipe_counters.hpp"
#include "scratch_path.hpp"

namespace mcs::util {
namespace {

void write_file(const std::filesystem::path& path, std::string_view text) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << text;
  ASSERT_TRUE(out.good()) << path;
}

TEST(MappedFile, MmapAndReadFallbackServeIdenticalBytes) {
  const auto path = test::scratch_path("mcs_mapped_file_bytes");
  std::string body = "run 0: correct — ok (injections=1, usart_bytes=9)\n";
  for (int i = 0; i < 9; ++i) body += body;  // ~25 KB, spans pages
  write_file(path, body);

  auto mapped = MappedFile::open(path.string());
  ASSERT_TRUE(mapped.is_ok()) << mapped.status().to_string();
  auto fallback = MappedFile::open(path.string(), /*allow_mmap=*/false);
  ASSERT_TRUE(fallback.is_ok()) << fallback.status().to_string();

  // Callers must never be able to tell which path served them.
  EXPECT_FALSE(fallback.value().is_mapped());
  EXPECT_EQ(mapped.value().view(), body);
  EXPECT_EQ(fallback.value().view(), body);
  EXPECT_EQ(mapped.value().size(), body.size());
  std::filesystem::remove(path);
}

TEST(MappedFile, MissingFileIsNotFound) {
  const auto missing = test::scratch_path("mcs_mapped_file_missing");
  std::filesystem::remove(missing);
  auto opened = MappedFile::open(missing.string());
  ASSERT_FALSE(opened.is_ok());
  EXPECT_EQ(opened.status().code(), Code::ENoEnt);
}

TEST(MappedFile, DirectoryIsAnIoError) {
  const auto dir = test::scratch_path("mcs_mapped_file_dir");
  std::filesystem::create_directories(dir);
  auto opened = MappedFile::open(dir.string());
  std::filesystem::remove_all(dir);
  ASSERT_FALSE(opened.is_ok());
  EXPECT_EQ(opened.status().code(), Code::EIo);
  EXPECT_NE(opened.status().message().find("directory"), std::string::npos);
}

TEST(MappedFile, EmptyFileMapsToAnEmptyView) {
  const auto path = test::scratch_path("mcs_mapped_file_empty");
  write_file(path, "");
  auto opened = MappedFile::open(path.string());
  ASSERT_TRUE(opened.is_ok()) << opened.status().to_string();
  EXPECT_EQ(opened.value().size(), 0u);
  EXPECT_EQ(opened.value().view(), "");
  std::filesystem::remove(path);
}

TEST(MappedFile, MoveTransfersTheView) {
  const auto path = test::scratch_path("mcs_mapped_file_move");
  write_file(path, "payload");
  auto opened = MappedFile::open(path.string());
  ASSERT_TRUE(opened.is_ok());
  MappedFile moved = std::move(opened).value();
  MappedFile target;
  target = std::move(moved);
  EXPECT_EQ(target.view(), "payload");
  EXPECT_EQ(moved.view(), "");  // NOLINT(bugprone-use-after-move): pinned empty
  std::filesystem::remove(path);
}

TEST(MappedFile, RecordsMappedBytesInThePipelineCounters) {
  const auto path = test::scratch_path("mcs_mapped_file_counters");
  write_file(path, "0123456789");
  const LogPipeCounters::Stats before = LogPipeCounters::instance().stats();
  {
    auto mapped = MappedFile::open(path.string());
    ASSERT_TRUE(mapped.is_ok());
    auto fallback = MappedFile::open(path.string(), /*allow_mmap=*/false);
    ASSERT_TRUE(fallback.is_ok());
  }
  const LogPipeCounters::Stats after = LogPipeCounters::instance().stats();
  EXPECT_EQ(after.bytes_mapped - before.bytes_mapped, 20u);
  EXPECT_EQ(after.map_fallbacks - before.map_fallbacks, 1u);
  std::filesystem::remove(path);
}

TEST(ReadFile, RoundTripsContents) {
  const auto path = test::scratch_path("mcs_read_file");
  write_file(path, "line one\nline two\n");
  auto body = read_file(path.string());
  ASSERT_TRUE(body.is_ok()) << body.status().to_string();
  EXPECT_EQ(body.value(), "line one\nline two\n");

  auto missing = read_file(test::scratch_path("mcs_read_file_missing").string());
  EXPECT_FALSE(missing.is_ok());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace mcs::util
