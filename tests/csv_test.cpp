#include "common/csv.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "scratch_dir.hpp"

namespace rh::common {
namespace {

class CsvTest : public ::testing::Test {
protected:
  std::string read_back() const {
    std::ifstream in(path_);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  }

  test::ScratchDir dir_;
  std::string path_ = dir_.file("out.csv");
};

TEST_F(CsvTest, WritesRowsCommaSeparated) {
  {
    CsvWriter writer(path_);
    writer.write_row({"a", "b", "c"});
    writer.write_row({"1", "2", "3"});
    EXPECT_EQ(writer.rows_written(), 2u);
  }
  EXPECT_EQ(read_back(), "a,b,c\n1,2,3\n");
}

TEST_F(CsvTest, QuotesCellsWithCommasAndQuotes) {
  {
    CsvWriter writer(path_);
    writer.write_row({"plain", "with,comma", "with\"quote"});
  }
  EXPECT_EQ(read_back(), "plain,\"with,comma\",\"with\"\"quote\"\n");
}

TEST_F(CsvTest, QuotesEmbeddedNewlines) {
  {
    CsvWriter writer(path_);
    writer.write_row({"line1\nline2"});
  }
  EXPECT_EQ(read_back(), "\"line1\nline2\"\n");
}

TEST_F(CsvTest, EmptyRowProducesEmptyLine) {
  {
    CsvWriter writer(path_);
    writer.write_row({});
    writer.write_row({"x"});
  }
  EXPECT_EQ(read_back(), "\nx\n");
}

TEST(CsvWriterErrors, UnopenablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/out.csv"), ConfigError);
}

}  // namespace
}  // namespace rh::common
