#include "metrics/report.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace genealog::metrics {
namespace {

QueryVariantResult Row(const std::string& query, const std::string& variant,
                       double tput, double latency, double avg_mem,
                       double max_mem) {
  QueryVariantResult row;
  row.query = query;
  row.variant = variant;
  row.throughput_tps = {tput, 0, 1};
  row.latency_ms = {latency, 0, 1};
  row.avg_mem_mb = {avg_mem, 0, 1};
  row.max_mem_mb = {max_mem, 0, 1};
  return row;
}

TEST(FormatDeltaTest, PositiveAndNegative) {
  EXPECT_EQ(FormatDelta(90, 100, false), "-10.0%");
  EXPECT_EQ(FormatDelta(110, 100, true), "+10.0%");
  EXPECT_EQ(FormatDelta(100, 100, true), "+0.0%");
}

TEST(FormatDeltaTest, NoReferenceYieldsEmpty) {
  EXPECT_EQ(FormatDelta(90, std::nullopt, false), "");
  EXPECT_EQ(FormatDelta(90, 0.0, false), "");
}

TEST(RenderOverheadTableTest, ComputesDeltasAgainstNpRow) {
  std::vector<QueryVariantResult> rows{
      Row("Q1", "NP", 1000, 10, 1.0, 2.0),
      Row("Q1", "GL", 950, 11, 1.1, 2.1),
  };
  const std::string table = RenderOverheadTable(rows, "T");
  EXPECT_NE(table.find("-5.0%"), std::string::npos);   // throughput delta
  EXPECT_NE(table.find("+10.0%"), std::string::npos);  // latency delta
  EXPECT_NE(table.find("Q1"), std::string::npos);
  EXPECT_NE(table.find("GL"), std::string::npos);
}

TEST(RenderOverheadTableTest, NpRowHasNoDelta) {
  std::vector<QueryVariantResult> rows{Row("Q1", "NP", 1000, 10, 1, 2)};
  const std::string table = RenderOverheadTable(rows, "T");
  EXPECT_EQ(table.find('%', table.find("Q1")), std::string::npos);
}

TEST(RenderOverheadTableTest, SeparateQueriesUseSeparateReferences) {
  std::vector<QueryVariantResult> rows{
      Row("Q1", "NP", 1000, 10, 1, 2), Row("Q1", "GL", 500, 10, 1, 2),
      Row("Q2", "NP", 2000, 10, 1, 2), Row("Q2", "GL", 1000, 10, 1, 2),
  };
  const std::string table = RenderOverheadTable(rows, "T");
  // Both GL rows are -50% against their own query's NP.
  size_t first = table.find("-50.0%");
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(table.find("-50.0%", first + 1), std::string::npos);
}

TEST(RenderOverheadTableTest, ShowsConfidenceIntervalWithMultipleRuns) {
  QueryVariantResult row = Row("Q1", "NP", 1000, 10, 1, 2);
  row.throughput_tps = {1000, 25, 3};
  const std::string table = RenderOverheadTable({row}, "T");
  EXPECT_NE(table.find("±25"), std::string::npos);
}

// The '|'-separated columns of the table row starting with `prefix`:
// [0] query/variant, [1] throughput, [2] latency, [3] avg mem, [4] max mem.
std::vector<std::string> RowColumns(const std::string& table,
                                    const std::string& prefix) {
  const size_t start = table.find(prefix);
  EXPECT_NE(start, std::string::npos) << prefix;
  if (start == std::string::npos) return {};
  const std::string line = table.substr(start, table.find('\n', start) - start);
  std::vector<std::string> columns;
  size_t from = 0;
  for (size_t bar; (bar = line.find('|', from)) != std::string::npos;
       from = bar + 1) {
    columns.push_back(line.substr(from, bar - from));
  }
  columns.push_back(line.substr(from));
  return columns;
}

// A cell whose sink recorded no latency samples has no latency reading: the
// table says n/a instead of 0.00 and computes no delta from it, in either
// direction.
TEST(RenderOverheadTableTest, AbsentLatencyPrintsNaWithoutDelta) {
  QueryVariantResult np = Row("Q1", "NP", 1000, 10, 1, 2);
  QueryVariantResult gl = Row("Q1", "GL", 900, 0, 1, 2);
  gl.latency_ms = CellStats{};  // no run sampled latency
  std::vector<std::string> cols =
      RowColumns(RenderOverheadTable({np, gl}, "T"), "Q1   GL");
  ASSERT_EQ(cols.size(), 5u);
  EXPECT_NE(cols[2].find("n/a"), std::string::npos) << cols[2];
  EXPECT_EQ(cols[2].find("0.00"), std::string::npos) << cols[2];
  EXPECT_EQ(cols[2].find('%'), std::string::npos) << cols[2];
  EXPECT_NE(cols[1].find("-10.0%"), std::string::npos) << cols[1];

  np.latency_ms = CellStats{};
  gl.latency_ms = {12, 0, 1};
  const std::string table = RenderOverheadTable({np, gl}, "T");
  EXPECT_NE(RowColumns(table, "Q1   NP")[2].find("n/a"), std::string::npos);
  cols = RowColumns(table, "Q1   GL");
  ASSERT_EQ(cols.size(), 5u);
  EXPECT_NE(cols[2].find("12.00"), std::string::npos) << cols[2];
  EXPECT_EQ(cols[2].find('%'), std::string::npos) << cols[2];
}

TEST(RenderProvenanceVolumeTest, ComputesRatio) {
  QueryVariantResult row = Row("Q3", "GL", 1000, 10, 1, 2);
  row.provenance_bytes = {500, 0, 1};
  row.source_bytes = {1000000, 0, 1};
  const std::string table = RenderProvenanceVolumeTable({row});
  EXPECT_NE(table.find("0.0500%"), std::string::npos);
}

TEST(RenderProvenanceVolumeTest, SkipsRowsWithoutProvenance) {
  QueryVariantResult row = Row("Q1", "NP", 1000, 10, 1, 2);
  const std::string table = RenderProvenanceVolumeTable({row});
  EXPECT_EQ(table.find("Q1"), std::string::npos);
}

}  // namespace
}  // namespace genealog::metrics
