// Microbenchmarks: execution engines, row vs columnar.
//
// Runs the Figure 7 workload's query shapes (scan-heavy filters, the
// fact-dimension join, and group-by aggregation) on ~40x-scaled tables
// through BOTH execution engines — the vectorized columnar default and the
// row-at-a-time reference — on one thread each (the engines run operators
// serially; the metric keys keep their `_dop1` infix so the committed
// baseline still applies). Each cell reports input rows per second and
// estimated cycles per tuple (seconds * CLOUDVIEWS_CPU_GHZ, default 3.0);
// every timing is the MINIMUM over several runs so the committed BENCH
// baseline stays stable under scheduler noise. The headline `*_dop1_speedup`
// metrics are columnar throughput over row throughput for the same shape.
// Every shape but `string_group_by` keys on the int CustomerId; that one
// joins and groups on the string Name, and is reported but has no baseline.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "bench_util.h"
#include "exec/executor.h"
#include "plan/builder.h"
#include "tests/test_util.h"

namespace cloudviews {
namespace {

// Figure-4 schema at ~40x the unit-test row counts (scaled by --scale).
constexpr int kCustomers = 4000;
constexpr int kSales = 20000;
constexpr int kParts = 800;

struct QueryShape {
  const char* name;
  const char* sql;
};

const QueryShape kShapes[] = {
    {"scan_filter_project",
     "SELECT SaleId, Price * Quantity FROM Sales "
     "WHERE Discount < 0.05 AND Quantity > 2"},
    {"hash_join",
     "SELECT Name, Price FROM Sales JOIN Customer "
     "ON Sales.CustomerId = Customer.CustomerId "
     "WHERE MktSegment = 'Asia'"},
    {"aggregate",
     "SELECT CustomerId, SUM(Price * Quantity), COUNT(*) FROM Sales "
     "GROUP BY CustomerId"},
    {"join_aggregate",
     "SELECT Customer.CustomerId, AVG(Price * Quantity) FROM Sales "
     "JOIN Customer ON Sales.CustomerId = Customer.CustomerId "
     "WHERE MktSegment = 'Asia' GROUP BY Customer.CustomerId"},
    {"string_group_by",
     "SELECT Name, COUNT(*), SUM(Price) FROM Sales "
     "JOIN Customer ON Sales.CustomerId = Customer.CustomerId GROUP BY Name"},
};

double CpuGhz() {
  const char* env = std::getenv("CLOUDVIEWS_CPU_GHZ");
  if (env != nullptr && env[0] != '\0') return std::atof(env);
  return 3.0;
}

struct Measurement {
  double seconds = std::numeric_limits<double>::infinity();  // min over runs
  uint64_t input_rows = 0;
  uint64_t rows_out = 0;
};

Measurement Measure(const DatasetCatalog& catalog, const LogicalOpPtr& plan,
                    ExecEngine engine, int runs) {
  Measurement m;
  for (int i = 0; i <= runs; ++i) {  // one extra warm-up iteration
    ExecContext context;
    context.catalog = &catalog;
    context.engine = engine;
    Executor executor(context);
    auto r = executor.Execute(plan);
    if (!r.ok()) {
      std::printf("bench query failed: %s\n", r.status().ToString().c_str());
      std::abort();
    }
    if (i == 0) continue;  // discard the warm-up (first touch)
    m.seconds = std::min(m.seconds, r->stats.wall_seconds);
    m.input_rows = r->stats.input_rows;
    m.rows_out = r->output->num_rows();
  }
  return m;
}

int RunBench(int argc, char** argv) {
  const double scale = bench_util::ParseScale(argc, argv, 1.0);
  int runs = 5;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--runs=", 7) == 0) runs = std::atoi(argv[i] + 7);
  }
  const double ghz = CpuGhz();
  bench_util::PrintHeader("Execution micro: columnar vs row engine",
                          "ROADMAP item 1: vectorized execution");

  DatasetCatalog catalog;
  catalog
      .Register("Customer",
                testing_util::MakeCustomerTable(
                    static_cast<int>(kCustomers * scale)),
                "guid-customer-v1")
      .ok();
  catalog
      .Register("Sales",
                testing_util::MakeSalesTable(static_cast<int>(kSales * scale)),
                "guid-sales-v1")
      .ok();
  catalog
      .Register("Parts",
                testing_util::MakePartsTable(static_cast<int>(kParts * scale)),
                "guid-parts-v1")
      .ok();

  bench_util::JsonReport report("micro_parallel_exec");
  report.Metric("scale", scale)
      .Metric("runs", static_cast<int64_t>(runs))
      .Metric("cpu_ghz", ghz);

  std::printf("%-20s | %12s %12s | %9s %9s | %8s\n", "query", "row Mrows/s",
              "col Mrows/s", "row cyc/t", "col cyc/t", "speedup");

  for (const QueryShape& shape : kShapes) {
    PlanBuilder builder(&catalog);
    auto plan = builder.BuildFromSql(shape.sql);
    if (!plan.ok()) {
      std::printf("plan failed: %s\n", plan.status().ToString().c_str());
      return 1;
    }
    Measurement row = Measure(catalog, *plan, ExecEngine::kRow, runs);
    Measurement col = Measure(catalog, *plan, ExecEngine::kColumnar, runs);
    const double rows = static_cast<double>(row.input_rows);
    const double row_rps = rows / row.seconds;
    const double row_cyc = row.seconds * ghz * 1e9 / rows;
    const double col_rps = rows / col.seconds;
    const double col_cyc = col.seconds * ghz * 1e9 / rows;
    const double speedup = col_rps / row_rps;
    std::printf("%-20s | %12.2f %12.2f | %9.1f %9.1f | %7.2fx\n", shape.name,
                row_rps * 1e-6, col_rps * 1e-6, row_cyc, col_cyc, speedup);
    const std::string prefix = std::string(shape.name) + "_dop1";
    report.Metric((prefix + "_col_rows_per_sec").c_str(), col_rps)
        .Metric((prefix + "_col_cycles_per_tuple").c_str(), col_cyc)
        .Metric((prefix + "_row_rows_per_sec").c_str(), row_rps)
        .Metric((prefix + "_row_cycles_per_tuple").c_str(), row_cyc)
        .Metric((prefix + "_speedup").c_str(), speedup);
  }
  report.Print();
  return 0;
}

}  // namespace
}  // namespace cloudviews

int main(int argc, char** argv) { return cloudviews::RunBench(argc, argv); }
