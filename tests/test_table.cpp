// Tests for table/CSV rendering (src/util/table.hpp).
#include "util/table.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace {

using firefly::util::Table;

TEST(Table, PrintsAlignedColumns) {
  Table t("demo");
  t.set_headers({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22222"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(3.0, 0), "3");
  EXPECT_EQ(Table::num(std::size_t{42}), "42");
}

TEST(Table, CsvRoundTrip) {
  Table t("csv");
  t.set_headers({"a", "b"});
  t.add_row({"plain", "with,comma"});
  t.add_row({"with\"quote", "x"});
  const std::string path = "/tmp/firefly_test_table.csv";
  t.write_csv(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "plain,\"with,comma\"");
  std::getline(in, line);
  EXPECT_EQ(line, "\"with\"\"quote\",x");
  std::remove(path.c_str());
}

TEST(Table, RowCount) {
  Table t("count");
  t.set_headers({"x"});
  EXPECT_EQ(t.row_data().size(), 0U);
  t.add_row({"1"}).add_row({"2"});
  EXPECT_EQ(t.row_data().size(), 2U);
}

}  // namespace
