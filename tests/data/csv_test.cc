#include "data/csv.h"

#include <gtest/gtest.h>

#include <cstdio>

namespace fairbench {
namespace {

constexpr char kCsv[] =
    "age,job,sex,hired\n"
    "30,tech,M,yes\n"
    "25,service,F,no\n"
    "41,tech,F,yes\n";

CsvReadOptions Options() {
  return CsvReadOptions{"sex", "hired", "M", "yes"};
}

TEST(CsvTest, ParsesTypesAndAnnotations) {
  Result<Dataset> ds = ParseCsv(kCsv, Options());
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(ds->num_rows(), 3u);
  EXPECT_EQ(ds->num_features(), 2u);
  EXPECT_EQ(ds->schema().column(0).type, ColumnType::kNumeric);
  EXPECT_EQ(ds->schema().column(1).type, ColumnType::kCategorical);
  EXPECT_DOUBLE_EQ(ds->NumericAt(0, 2), 41.0);
  EXPECT_EQ(ds->schema().column(1).categories,
            (std::vector<std::string>{"tech", "service"}));
  EXPECT_EQ(ds->sensitive(), (std::vector<int>{1, 0, 0}));
  EXPECT_EQ(ds->labels(), (std::vector<int>{1, 0, 1}));
  EXPECT_TRUE(ds->Validate().ok());
}

TEST(CsvTest, RoundTripsThroughText) {
  Result<Dataset> ds = ParseCsv(kCsv, Options());
  ASSERT_TRUE(ds.ok());
  const std::string text = ToCsvString(ds.value());
  CsvReadOptions options;
  options.sensitive_column = "sex";
  options.label_column = "hired";
  options.privileged_value = "1";
  options.favorable_value = "1";
  Result<Dataset> again = ParseCsv(text, options);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->num_rows(), ds->num_rows());
  EXPECT_EQ(again->sensitive(), ds->sensitive());
  EXPECT_EQ(again->labels(), ds->labels());
  EXPECT_DOUBLE_EQ(again->NumericAt(0, 1), 25.0);
}

TEST(CsvTest, WeightColumnRoundTrips) {
  Result<Dataset> ds = ParseCsv(kCsv, Options());
  ASSERT_TRUE(ds.ok());
  ds->mutable_weights()[1] = 2.5;
  const std::string text = ToCsvString(ds.value());
  EXPECT_NE(text.find("__weight"), std::string::npos);
  CsvReadOptions options;
  options.sensitive_column = "sex";
  options.label_column = "hired";
  Result<Dataset> again = ParseCsv(text, options);
  ASSERT_TRUE(again.ok());
  EXPECT_DOUBLE_EQ(again->weights()[1], 2.5);
  EXPECT_DOUBLE_EQ(again->weights()[0], 1.0);
}

TEST(CsvTest, MissingColumnsAreErrors) {
  CsvReadOptions options;
  options.sensitive_column = "nope";
  options.label_column = "hired";
  EXPECT_EQ(ParseCsv(kCsv, options).status().code(), StatusCode::kNotFound);
  options.sensitive_column = "sex";
  options.label_column = "nope";
  EXPECT_EQ(ParseCsv(kCsv, options).status().code(), StatusCode::kNotFound);
}

TEST(CsvTest, RaggedRowsAreErrors) {
  // Ragged rows fail during raw parsing, before column lookup.
  EXPECT_EQ(ParseCsv("a,b,s,y\n1,2,0\n", Options()).status().code(),
            StatusCode::kIoError);
  const CsvReadOptions options{"s", "y"};
  EXPECT_EQ(ParseCsv("a,b,s,y\n1,2,0\n", options).status().code(),
            StatusCode::kIoError);
}

TEST(CsvTest, HandlesCrlfAndBlankLines) {
  const std::string crlf = "age,sex,hired\r\n30,M,yes\r\n\r\n25,F,no\r\n";
  Result<Dataset> ds = ParseCsv(crlf, Options());
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(ds->num_rows(), 2u);
}

TEST(CsvTest, FileRoundTrip) {
  Result<Dataset> ds = ParseCsv(kCsv, Options());
  ASSERT_TRUE(ds.ok());
  const std::string path = testing::TempDir() + "/fairbench_csv_test.csv";
  ASSERT_TRUE(WriteCsv(ds.value(), path).ok());
  CsvReadOptions options;
  options.sensitive_column = "sex";
  options.label_column = "hired";
  Result<Dataset> again = ReadCsv(path, options);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->num_rows(), 3u);
  std::remove(path.c_str());
}

TEST(CsvTest, ReadMissingFileIsIoError) {
  EXPECT_EQ(ReadCsv("/nonexistent/file.csv", Options()).status().code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace fairbench
