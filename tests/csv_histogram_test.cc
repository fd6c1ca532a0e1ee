#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>

#include "util/csv.h"

namespace hcpath {
namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(CsvWriter, WritesRowsAndEscapes) {
  std::string path = ::testing::TempDir() + "/out.csv";
  CsvWriter csv(path);
  ASSERT_TRUE(csv.status().ok());
  csv.Row("dataset", "time_s", "note");
  csv.Row("EP", 1.5, "has,comma");
  csv.Row("SL", int64_t{42}, "quote\"inside");
  ASSERT_TRUE(csv.Close().ok());
  std::string content = ReadAll(path);
  EXPECT_EQ(content,
            "dataset,time_s,note\n"
            "EP,1.5,\"has,comma\"\n"
            "SL,42,\"quote\"\"inside\"\n");
  std::remove(path.c_str());
}

// A cell with no value (a failed bench run) is an empty field, not 0.
TEST(CsvWriter, EmptyOptionalWritesEmptyField) {
  std::string path = ::testing::TempDir() + "/optional.csv";
  CsvWriter csv(path);
  ASSERT_TRUE(csv.status().ok());
  csv.Row("WT", 6, std::optional<double>(), std::optional<double>(2.5));
  ASSERT_TRUE(csv.Close().ok());
  EXPECT_EQ(ReadAll(path), "WT,6,,2.5\n");
  std::remove(path.c_str());
}

TEST(CsvWriter, BadPathReportsIOError) {
  CsvWriter csv("/nonexistent-dir-xyz/file.csv");
  EXPECT_FALSE(csv.status().ok());
  EXPECT_EQ(csv.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace hcpath
