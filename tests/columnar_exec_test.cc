// Engine-differential wall: the vectorized columnar engine must be
// byte-identical to the row-at-a-time reference engine — same values, same
// value types, same null-ness, same row order — for every operator kind, at
// every batch size, including degenerate ones (1-row batches, batches that
// do not divide the input) and under injected spool-write faults.
// Statistics must also agree: integer counters exactly, floating-point cost
// to accumulation-order rounding. Limit plans are the sanctioned exception:
// the two engines may pull different amounts of input before the limit
// trips (batch granularity), so only output is compared.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "exec/batch_kernels.h"
#include "exec/batch_op.h"
#include "exec/executor.h"
#include "fault/fault.h"
#include "fault/fault_sites.h"
#include "plan/builder.h"
#include "storage/view_store.h"
#include "tests/test_util.h"

namespace cloudviews {
namespace {

const size_t kBatchSizes[] = {1, 3, 1024, 4096};

class ColumnarExecTest : public ::testing::Test {
 protected:
  void SetUp() override { testing_util::RegisterFigure4Tables(&catalog_); }

  Result<ExecResult> Run(const LogicalOpPtr& plan, ExecEngine engine,
                         size_t batch_rows) {
    ExecContext context;
    context.catalog = &catalog_;
    context.view_store = view_store_;
    context.job_seed = 42;
    context.now = 100.0;
    context.engine = engine;
    context.batch_rows = batch_rows;
    Executor executor(context);
    return executor.Execute(plan);
  }

  LogicalOpPtr Plan(const std::string& sql,
                    JoinAlgorithm algorithm = JoinAlgorithm::kHash) {
    PlanBuilder builder(&catalog_);
    auto plan = builder.BuildFromSql(sql);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    if (!plan.ok()) return nullptr;
    SetJoinAlgorithm(plan->get(), algorithm);
    return std::move(*plan);
  }

  static void SetJoinAlgorithm(LogicalOp* node, JoinAlgorithm algorithm) {
    if (node->kind == LogicalOpKind::kJoin && !node->equi_keys.empty()) {
      node->join_algorithm = algorithm;
    }
    for (const LogicalOpPtr& child : node->children) {
      SetJoinAlgorithm(child.get(), algorithm);
    }
  }

  // One string per row; any difference in value, type (int64 vs double
  // render differently), null-ness, or order shows up in the comparison.
  static std::vector<std::string> Render(const TablePtr& table) {
    std::vector<std::string> out;
    out.reserve(table->num_rows());
    for (const Row& row : table->rows()) {
      std::string s;
      for (const Value& v : row) {
        s += v.is_null() ? "<null>" : v.ToString();
        s += "|";
      }
      out.push_back(std::move(s));
    }
    return out;
  }

  static void ExpectSameOutput(const TablePtr& got, const TablePtr& want,
                               const std::string& label) {
    std::vector<std::string> g = Render(got);
    std::vector<std::string> w = Render(want);
    ASSERT_EQ(g.size(), w.size()) << label;
    for (size_t i = 0; i < w.size(); ++i) {
      ASSERT_EQ(g[i], w[i]) << label << " row " << i;
    }
  }

  // Runs `plan` on the row engine as the reference, then asserts the
  // columnar engine matches at every batch size. `output_only` is for Limit
  // plans, where input-side counters legitimately differ between engines by
  // up to batch_rows - 1 rows of overrun.
  void ExpectEngineParity(const LogicalOpPtr& plan, bool output_only = false) {
    ASSERT_NE(plan, nullptr);
    auto reference = Run(plan, ExecEngine::kRow, /*batch_rows=*/1);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();

    for (size_t batch_rows : kBatchSizes) {
      const std::string label = "columnar batch_rows=" +
                                std::to_string(batch_rows);
      auto columnar = Run(plan, ExecEngine::kColumnar, batch_rows);
      ASSERT_TRUE(columnar.ok()) << label << ": "
                                 << columnar.status().ToString();
      ExpectSameOutput(columnar->output, reference->output, label);
      if (output_only) continue;

      EXPECT_EQ(columnar->stats.input_rows, reference->stats.input_rows)
          << label;
      EXPECT_EQ(columnar->stats.input_bytes, reference->stats.input_bytes)
          << label;
      EXPECT_EQ(columnar->stats.num_operators, reference->stats.num_operators)
          << label;
      EXPECT_NEAR(columnar->stats.total_cpu_cost,
                  reference->stats.total_cpu_cost,
                  1e-6 * (1.0 + reference->stats.total_cpu_cost))
          << label;
      // Per-logical-node accounting: integer counters exact, cost near.
      ASSERT_EQ(columnar->stats.per_node.size(),
                reference->stats.per_node.size())
          << label;
      for (const auto& [node, stats] : reference->stats.per_node) {
        auto it = columnar->stats.per_node.find(node);
        ASSERT_NE(it, columnar->stats.per_node.end()) << label;
        EXPECT_EQ(it->second.rows_out, stats.rows_out) << label;
        EXPECT_EQ(it->second.bytes_out, stats.bytes_out) << label;
        EXPECT_NEAR(it->second.cpu_cost, stats.cpu_cost,
                    1e-6 * (1.0 + stats.cpu_cost))
            << label;
      }
    }
  }

  // The spool's materialized side table — the bytes that become a
  // CloudView — must be identical across engines, not just the query
  // output. Checksummed with the view store's integrity hash.
  void ExpectSpoolParity(const LogicalOpPtr& root) {
    auto run = [&](ExecEngine engine, size_t batch_rows, TablePtr* captured) {
      ExecContext context;
      context.catalog = &catalog_;
      context.engine = engine;
      context.batch_rows = batch_rows;
      context.on_spool_complete = [captured](const LogicalOp&,
                                             TablePtr contents,
                                             const OperatorStats&) {
        *captured = std::move(contents);
      };
      Executor executor(context);
      return executor.Execute(root);
    };

    TablePtr row_side;
    auto reference = run(ExecEngine::kRow, 1, &row_side);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ASSERT_NE(row_side, nullptr);
    const Hash128 want = ComputeTableChecksum(*row_side);

    for (size_t batch_rows : kBatchSizes) {
      TablePtr col_side;
      auto columnar = run(ExecEngine::kColumnar, batch_rows, &col_side);
      ASSERT_TRUE(columnar.ok()) << columnar.status().ToString();
      ASSERT_NE(col_side, nullptr);
      ExpectSameOutput(columnar->output, reference->output, "spool output");
      ExpectSameOutput(col_side, row_side, "spool side table");
      EXPECT_EQ(ComputeTableChecksum(*col_side), want)
          << "batch_rows=" << batch_rows;
      EXPECT_EQ(columnar->stats.bytes_spooled, reference->stats.bytes_spooled);
      EXPECT_NEAR(columnar->stats.spool_cpu_cost,
                  reference->stats.spool_cpu_cost,
                  1e-6 * (1.0 + reference->stats.spool_cpu_cost));
    }
  }

  // Builds `root` at `batch_rows` and drains the operator of logical node
  // `node` (inside that plan) into *chunk.
  void DrainNode(const LogicalOpPtr& root, const LogicalOp* node,
                 size_t batch_rows, BatchChunk* chunk) {
    ExecContext context;
    context.catalog = &catalog_;
    std::vector<PhysicalOp*> registry;
    auto built = BuildBatchPlan(context, batch_rows, root, &registry);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    BatchOp* op = nullptr;
    for (PhysicalOp* candidate : registry) {
      if (candidate->logical() == node) op = static_cast<BatchOp*>(candidate);
    }
    ASSERT_NE(op, nullptr);
    ASSERT_TRUE(op->Open().ok());
    ASSERT_TRUE(op->DrainToChunk(chunk).ok());
    op->Close();
  }

  DatasetCatalog catalog_;
  const ViewStore* view_store_ = nullptr;
};

TEST_F(ColumnarExecTest, BareScan) {
  ExpectEngineParity(Plan("SELECT CustomerId, Name, MktSegment FROM Customer"));
}

TEST_F(ColumnarExecTest, FilterExpressions) {
  ExpectEngineParity(Plan(
      "SELECT SaleId FROM Sales WHERE (Discount < 0.05 AND "
      "PartId IN (1, 3, 5, 7)) OR SaleId BETWEEN 490 AND 495"));
}

TEST_F(ColumnarExecTest, LikeFilterOnStrings) {
  ExpectEngineParity(
      Plan("SELECT Name FROM Customer WHERE Name LIKE 'cust1%'"));
}

TEST_F(ColumnarExecTest, ProjectArithmetic) {
  ExpectEngineParity(Plan(
      "SELECT SaleId, Price * Quantity * (1.0 - Discount), "
      "Quantity + 1 FROM Sales"));
  // A computed projection over a filter: one fused scan-filter-project
  // chain.
  ExpectEngineParity(Plan(
      "SELECT SaleId, Price * Quantity FROM Sales "
      "WHERE Discount < 0.05 AND PartId IN (1, 3, 5, 7)"));
}

TEST_F(ColumnarExecTest, HashJoinDuplicateBuildKeys) {
  // Sales has 5 rows per CustomerId: duplicate-key match order inside the
  // pooled hash table must replicate the row engine's multimap iteration.
  ExpectEngineParity(Plan(
      "SELECT Name, Price FROM Customer JOIN Sales "
      "ON Customer.CustomerId = Sales.CustomerId"));
}

TEST_F(ColumnarExecTest, HashJoinWithResidualFilter) {
  ExpectEngineParity(Plan(
      "SELECT Name, Price, Quantity FROM Sales JOIN Customer "
      "ON Sales.CustomerId = Customer.CustomerId "
      "WHERE MktSegment = 'Asia' AND Price > 11"));
}

TEST_F(ColumnarExecTest, LeftOuterHashJoin) {
  ExpectEngineParity(Plan(
      "SELECT Customer.CustomerId, Price FROM Customer LEFT JOIN Sales "
      "ON Customer.CustomerId = Sales.CustomerId"));
}

TEST_F(ColumnarExecTest, MergeJoin) {
  ExpectEngineParity(Plan(
      "SELECT Name, Price FROM Customer JOIN Sales "
      "ON Customer.CustomerId = Sales.CustomerId",
      JoinAlgorithm::kMerge));
}

TEST_F(ColumnarExecTest, LeftOuterMergeJoin) {
  ExpectEngineParity(Plan(
      "SELECT Customer.CustomerId, Price FROM Customer LEFT JOIN Sales "
      "ON Customer.CustomerId = Sales.CustomerId",
      JoinAlgorithm::kMerge));
}

TEST_F(ColumnarExecTest, LoopJoin) {
  ExpectEngineParity(Plan(
      "SELECT Brand, Price FROM Parts JOIN Sales "
      "ON Parts.PartId = Sales.PartId WHERE Quantity > 3",
      JoinAlgorithm::kLoop));
}

TEST_F(ColumnarExecTest, LeftOuterLoopJoin) {
  ExpectEngineParity(Plan(
      "SELECT Customer.CustomerId, SaleId FROM Customer LEFT JOIN Sales "
      "ON Customer.CustomerId = Sales.CustomerId AND Price > 15",
      JoinAlgorithm::kLoop));
}

// Join residuals and aggregate inputs hold only the columns their
// expressions read; these plans fail if an operator reads a slot it did not
// gather.
TEST_F(ColumnarExecTest, PureThetaLoopJoin) {
  ExpectEngineParity(Plan(
      "SELECT Brand, SaleId, Price FROM Parts JOIN Sales "
      "ON Parts.PartId > Sales.Quantity * 3 AND Sales.Price > 14"));
}

TEST_F(ColumnarExecTest, LeftOuterPureThetaLoopJoin) {
  // PartIds 0..10 find no Sales row and are padded with nulls.
  ExpectEngineParity(Plan(
      "SELECT Parts.PartId, Brand, SaleId, Discount FROM Parts LEFT JOIN "
      "Sales ON Parts.PartId > Sales.Quantity + 9 AND Sales.SaleId < 40"));
}

TEST_F(ColumnarExecTest, HashJoinResidualReadsBuildSideString) {
  ExpectEngineParity(Plan(
      "SELECT SaleId, Name FROM Sales JOIN Customer "
      "ON Sales.CustomerId = Customer.CustomerId "
      "AND Customer.MktSegment = 'Europe' AND Sales.Price > 12"));
}

TEST_F(ColumnarExecTest, AggregateOverWideJoinReadsOneColumn) {
  ExpectEngineParity(Plan(
      "SELECT PartType, COUNT(*) FROM Sales JOIN Customer "
      "ON Sales.CustomerId = Customer.CustomerId JOIN Parts "
      "ON Sales.PartId = Parts.PartId GROUP BY PartType"));
}

// Joins, filters, UDOs and sorts gather only the columns their consumers
// read; every per-node bytes_out must still count the full logical row.
TEST_F(ColumnarExecTest, LeftJoinUnreadRightStringsUnderAggregate) {
  // Customers 40..99 fail the residual, so their Sales rows are padded; the
  // aggregate reads one left column, leaving Name and MktSegment unread.
  ExpectEngineParity(Plan(
      "SELECT Sales.PartId, COUNT(*) FROM Sales LEFT JOIN Customer "
      "ON Sales.CustomerId = Customer.CustomerId "
      "AND Customer.CustomerId < 40 GROUP BY Sales.PartId"));
}

TEST_F(ColumnarExecTest, JoinUnderNonDeterministicUdoUnderAggregate) {
  // The UDO's keep/drop hash reads every cell, so its input is full width;
  // its own output is pruned to the aggregate's key.
  LogicalOpPtr plan = Plan(
      "SELECT MktSegment, COUNT(*) FROM Sales JOIN Customer "
      "ON Sales.CustomerId = Customer.CustomerId GROUP BY MktSegment");
  ASSERT_NE(plan, nullptr);
  LogicalOp* agg = plan->children[0].get();
  ASSERT_EQ(agg->kind, LogicalOpKind::kAggregate);
  agg->children[0] = LogicalOp::Udo(agg->children[0], "Random.Next",
                                    /*deterministic=*/false, 2,
                                    /*selectivity=*/0.5);
  ExpectEngineParity(plan);
}

TEST_F(ColumnarExecTest, JoinUnderOrderByLimitReadsTwoColumns) {
  // The limit never trips (the join yields 356 rows), so every per-node
  // counter is comparable.
  ExpectEngineParity(Plan(
      "SELECT SaleId, Name FROM Sales JOIN Customer "
      "ON Sales.CustomerId = Customer.CustomerId WHERE Price > 11 "
      "ORDER BY Name DESC, SaleId LIMIT 1000"));
}

TEST_F(ColumnarExecTest, EmptyBuildSideDrainsToZeroColumns) {
  // Every Sales row is padded; the read right column comes from a build
  // side that drained to no columns at all.
  ASSERT_TRUE(catalog_
                  .Register("NoCustomer", testing_util::MakeCustomerTable(0),
                            "guid-nocustomer-v1")
                  .ok());
  ExpectEngineParity(Plan(
      "SELECT Sales.PartId, COUNT(*) FROM Sales LEFT JOIN NoCustomer "
      "ON Sales.CustomerId = NoCustomer.CustomerId GROUP BY Sales.PartId"));
  ExpectEngineParity(Plan(
      "SELECT SaleId, Name FROM Sales LEFT JOIN NoCustomer "
      "ON Sales.CustomerId = NoCustomer.CustomerId"));
}

TEST_F(ColumnarExecTest, UnionAllBuildSideChildrenCarryDifferentColumns) {
  // The build side is a UNION ALL of a bare scan (a whole-table range keeps
  // every column) and a filtered scan (which gathers only the two columns
  // the join reads): the drained chunk must count MktSegment's bytes from
  // the first child's column and the second child's unread bytes alike.
  LogicalOpPtr plan = Plan(
      "SELECT SaleId, Name FROM Sales JOIN Customer "
      "ON Sales.CustomerId = Customer.CustomerId");
  LogicalOpPtr filtered = Plan(
      "SELECT CustomerId, Name, MktSegment FROM Customer "
      "WHERE CustomerId < 50");
  ASSERT_NE(plan, nullptr);
  ASSERT_NE(filtered, nullptr);
  LogicalOp* join = plan->children[0].get();
  ASSERT_EQ(join->kind, LogicalOpKind::kJoin);
  while (filtered->kind != LogicalOpKind::kFilter) {
    ASSERT_FALSE(filtered->children.empty());
    filtered = filtered->children[0];
  }
  join->children[1] = LogicalOp::UnionAll({join->children[1], filtered});
  ExpectEngineParity(plan);
}

TEST_F(ColumnarExecTest, JoinDrainCarriesOnlyColumnsTheAggregateReads) {
  // Under the aggregate, the join's drained chunk holds only the columns
  // the aggregate reads; the others stay null, yet its byte size is that
  // of the same join drained at full width (as a root). The unread
  // null-free int64 and double columns travel as one count per batch, so
  // per-row bytes are left for string columns alone: Parts.Brand in the
  // first join, none in the self-join of the all-numeric Sales.
  for (const char* sql :
       {"SELECT PartType, COUNT(*) FROM Sales JOIN Parts "
        "ON Sales.PartId = Parts.PartId GROUP BY PartType",
        "SELECT s.PartId, COUNT(*) FROM Sales s JOIN Sales t "
        "ON s.SaleId = t.SaleId GROUP BY s.PartId"}) {
    LogicalOpPtr plan = Plan(sql);
    ASSERT_NE(plan, nullptr);
    const LogicalOp& agg = *plan->children[0];
    ASSERT_EQ(agg.kind, LogicalOpKind::kAggregate);
    const LogicalOpPtr& join = agg.children[0];
    ASSERT_EQ(join->kind, LogicalOpKind::kJoin);
    std::vector<int> read;
    for (const ExprPtr& key : agg.group_by) key->CollectColumns(&read);
    ASSERT_EQ(read.size(), 1u);

    BatchChunk pruned;
    BatchChunk full;
    DrainNode(plan, join.get(), /*batch_rows=*/64, &pruned);
    DrainNode(join, join.get(), /*batch_rows=*/64, &full);
    ASSERT_GT(full.num_rows, 0u);
    ASSERT_EQ(pruned.num_rows, full.num_rows);
    ASSERT_EQ(pruned.columns.size(), join->output_schema.num_columns());
    ASSERT_EQ(full.columns.size(), pruned.columns.size());
    size_t uniform = 0;
    std::vector<uint32_t> per_row(full.num_rows, 0);
    for (size_t c = 0; c < pruned.columns.size(); ++c) {
      EXPECT_EQ(pruned.columns[c] != nullptr, static_cast<int>(c) == read[0])
          << sql << " column " << c;
      ASSERT_NE(full.columns[c], nullptr) << sql << " column " << c;
      if (pruned.columns[c] != nullptr) continue;
      const ColumnVector& col = *full.columns[c];
      uniform += col.UniformCellByteSize();
      if (col.UniformCellByteSize() != 0) continue;
      ASSERT_EQ(col.type(), DataType::kString) << sql << " column " << c;
      col.AddCellByteSizes(0, full.num_rows, per_row.data());
    }
    EXPECT_TRUE(full.unread_bytes.empty()) << sql;
    EXPECT_EQ(full.uniform_unread_bytes, 0u) << sql;
    EXPECT_GT(pruned.uniform_unread_bytes, 0u) << sql;
    EXPECT_EQ(pruned.uniform_unread_bytes, uniform) << sql;
    if (std::all_of(per_row.begin(), per_row.end(),
                    [](uint32_t bytes) { return bytes == 0; })) {
      EXPECT_TRUE(pruned.unread_bytes.empty()) << sql;
    } else {
      EXPECT_EQ(pruned.unread_bytes, per_row) << sql;
    }
    EXPECT_EQ(BatchByteSize(pruned), BatchByteSize(full)) << sql;
  }
}

// Twelve rows whose int64 `v` and double `d` hold a null only at rows 7
// and 10, so at batch_rows 3 the first two batches hold none, beside a
// bool `f` and a string `s` without nulls. v runs over Sales.CustomerId.
void RegisterLateNulls(DatasetCatalog* catalog) {
  Schema schema({{"k", DataType::kInt64},
                 {"v", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"f", DataType::kBool},
                 {"s", DataType::kString}});
  auto table = std::make_shared<Table>("LateNulls", schema);
  for (int64_t i = 0; i < 12; ++i) {
    table
        ->Append({Value(i), i == 7 ? Value::Null() : Value(i * 7 % 100),
                  i == 10 ? Value::Null() : Value(0.5 * static_cast<double>(i)),
                  Value(i % 3 == 0), Value("s" + std::to_string(i % 4))})
        .ok();
  }
  ASSERT_TRUE(catalog->Register("LateNulls", table, "guid-latenulls-v1").ok());
}

// Unread columns whose cells differ in byte size keep per-row bytes: an
// int64 or double column holding a null, on either side of a join, and
// under a filter that gathers straight from the table.
TEST_F(ColumnarExecTest, NullableNumbersUnreadUnderJoinAndAggregate) {
  RegisterLateNulls(&catalog_);
  for (JoinAlgorithm algorithm :
       {JoinAlgorithm::kHash, JoinAlgorithm::kMerge, JoinAlgorithm::kLoop}) {
    ExpectEngineParity(Plan(
        "SELECT Sales.PartId, COUNT(*) FROM Sales JOIN LateNulls "
        "ON Sales.CustomerId = LateNulls.k GROUP BY Sales.PartId",
        algorithm));
    ExpectEngineParity(Plan(
        "SELECT LateNulls.k, SUM(Sales.Price) FROM LateNulls JOIN Sales "
        "ON LateNulls.k = Sales.CustomerId GROUP BY LateNulls.k",
        algorithm));
  }
  ExpectEngineParity(
      Plan("SELECT f, COUNT(*) FROM LateNulls WHERE k > 2 GROUP BY f"));
}

// A left join's right side pads, and a pad is 1 byte in every column, so
// its unread int64 and double columns keep per-row bytes whether the build
// side carries them (a bare scan) or they were pruned below the join (a
// filtered scan counts them once per batch); an unread bool column is 1
// byte a cell, pads included.
TEST_F(ColumnarExecTest, PaddedRightSideKeepsPerRowBytes) {
  RegisterLateNulls(&catalog_);
  LogicalOpPtr pruned_right = Plan(
      "SELECT Customer.CustomerId, COUNT(*) FROM Customer LEFT JOIN Sales "
      "ON Customer.CustomerId = Sales.CustomerId "
      "GROUP BY Customer.CustomerId");
  LogicalOpPtr filtered = Plan("SELECT * FROM Sales WHERE Quantity > 3");
  ASSERT_NE(pruned_right, nullptr);
  ASSERT_NE(filtered, nullptr);
  LogicalOp* join = pruned_right->children[0]->children[0].get();
  ASSERT_EQ(join->kind, LogicalOpKind::kJoin);
  while (filtered->kind != LogicalOpKind::kFilter) {
    ASSERT_FALSE(filtered->children.empty());
    filtered = filtered->children[0];
  }
  // Customers whose CustomerId % 5 is 3 or 4 find a sale; the rest pad.
  join->children[1] = filtered;
  for (JoinAlgorithm algorithm :
       {JoinAlgorithm::kHash, JoinAlgorithm::kMerge, JoinAlgorithm::kLoop}) {
    ExpectEngineParity(Plan(
        "SELECT Customer.CustomerId, COUNT(*) FROM Customer LEFT JOIN Sales "
        "ON Customer.CustomerId = Sales.CustomerId AND Sales.Price > 15 "
        "GROUP BY Customer.CustomerId",
        algorithm));
    ExpectEngineParity(Plan(
        "SELECT Sales.PartId, COUNT(*) FROM Sales LEFT JOIN LateNulls "
        "ON Sales.CustomerId = LateNulls.k GROUP BY Sales.PartId",
        algorithm));
    SetJoinAlgorithm(pruned_right.get(), algorithm);
    ExpectEngineParity(pruned_right);
  }
}

// At batch_rows 3 the probe side's v (a join key nothing above reads) is
// null-free in the first two batches, whose bytes for it travel once per
// batch, but not in the third, which carries them per row: a drain above
// the join meets batches whose counts differ and folds them into rows.
TEST_F(ColumnarExecTest, NullsInALaterBatchFoldIntoPerRowBytes) {
  RegisterLateNulls(&catalog_);
  LogicalOpPtr plan = Plan(
      "SELECT LateNulls.k, COUNT(*) FROM LateNulls JOIN Sales "
      "ON LateNulls.v = Sales.CustomerId GROUP BY LateNulls.k");
  ExpectEngineParity(plan);
  // A sort's drain is gathered again, so its bytes reach its bytes_out.
  ExpectEngineParity(Plan(
      "SELECT LateNulls.k, SaleId FROM LateNulls JOIN Sales "
      "ON LateNulls.v = Sales.CustomerId ORDER BY k, SaleId"));
  ExpectEngineParity(Plan(
      "SELECT LateNulls.s, COUNT(*) FROM LateNulls JOIN Sales "
      "ON LateNulls.k = Sales.CustomerId AND LateNulls.d < 4.5 "
      "GROUP BY LateNulls.s"));

  ASSERT_NE(plan, nullptr);
  const LogicalOpPtr& join = plan->children[0]->children[0];
  ASSERT_EQ(join->kind, LogicalOpKind::kJoin);
  BatchChunk pruned;
  BatchChunk full;
  DrainNode(plan, join.get(), /*batch_rows=*/3, &pruned);
  DrainNode(join, join.get(), /*batch_rows=*/3, &full);
  ASSERT_GT(pruned.num_rows, 0u);
  EXPECT_FALSE(pruned.unread_bytes.empty());
  EXPECT_EQ(pruned.uniform_unread_bytes, 0u);
  EXPECT_EQ(BatchByteSize(pruned), BatchByteSize(full));
}

TEST_F(ColumnarExecTest, LiteralComparisonsMatchRowEngine) {
  // Typed columns against literals compare as scalars, the literal on
  // either side; a null literal and a mixed column take the broadcast path.
  Schema schema({{"Id", DataType::kInt64}, {"Val", DataType::kInt64}});
  auto mixed = std::make_shared<Table>("Mixed", schema);
  for (int i = 0; i < 150; ++i) {
    Value val = i % 4 == 0   ? Value(static_cast<int64_t>(i % 9))
                : i % 4 == 1 ? Value(0.5 * (i % 13))
                : i % 4 == 2 ? Value::Null()
                             : Value("s" + std::to_string(i));
    ASSERT_TRUE(mixed->Append({Value(static_cast<int64_t>(i)), val}).ok());
  }
  ASSERT_TRUE(catalog_.Register("Mixed", mixed, "guid-mixed-v1").ok());
  for (const char* where :
       {"3 < Quantity", "Quantity > 2.5", "12.5 >= Price", "Price <> 13",
        "'Europe' <= MktSegment", "MktSegment = 'Asia'", "Quantity = NULL"}) {
    ExpectEngineParity(Plan(
        std::string("SELECT SaleId, MktSegment FROM Sales JOIN Customer "
                    "ON Sales.CustomerId = Customer.CustomerId WHERE ") +
        where));
  }
  ExpectEngineParity(Plan("SELECT Id, Val FROM Mixed WHERE Val > 3"));
  ExpectEngineParity(Plan("SELECT Id FROM Mixed WHERE 4.5 <= Val"));
  // Typed columns with nulls: under NOT a null comparison drops the row
  // while a false one keeps it, so the result must carry the column's
  // bitmap.
  Schema typed_schema({{"Id", DataType::kInt64},
                       {"Qty", DataType::kInt64},
                       {"Tag", DataType::kString}});
  auto nullable = std::make_shared<Table>("Nullable", typed_schema);
  for (int i = 0; i < 150; ++i) {
    Value qty =
        i % 5 == 0 ? Value::Null() : Value(static_cast<int64_t>(i % 7));
    Value tag =
        i % 3 == 0 ? Value::Null() : Value("t" + std::to_string(i % 11));
    ASSERT_TRUE(
        nullable->Append({Value(static_cast<int64_t>(i)), qty, tag}).ok());
  }
  ASSERT_TRUE(catalog_.Register("Nullable", nullable, "guid-nullable-v1").ok());
  for (const char* where :
       {"NOT (Qty > 3)", "NOT (2.5 >= Qty)", "NOT (Tag < 't5')",
        "NOT ('t3' = Tag)"}) {
    ExpectEngineParity(
        Plan(std::string("SELECT Id FROM Nullable WHERE ") + where));
  }
}

TEST(BatchKernelTest, BooleanResultsReserveTypedStorage) {
  // A kernel whose result is boolean reserves the typed bool storage up
  // front, not only the null bitmap, so the result never regrows.
  constexpr size_t kRows = 1000;
  auto values = std::make_shared<ColumnVector>();
  for (size_t i = 0; i < kRows; ++i) {
    values->AppendInt64(static_cast<int64_t>(i));
  }
  const std::vector<ColumnPtr> columns = {values};
  const EvalInput in{&columns, kRows};
  const ExprPtr v = Expr::MakeColumn(0, "v");
  const ExprPtr lo = Expr::MakeLiteral(Value(int64_t{100}));
  const ExprPtr hi = Expr::MakeLiteral(Value(int64_t{900}));
  const ExprPtr between = Expr::MakeBetween(v, lo, hi, false);
  const ExprPtr is_null = Expr::MakeIsNull(v, false);
  for (const ExprPtr& expr : {between, is_null}) {
    ColumnPtr result;
    ASSERT_TRUE(EvalExprBatch(*expr, in, &result).ok());
    ASSERT_EQ(result->size(), kRows);
    ASSERT_EQ(result->type(), DataType::kBool);
    EXPECT_EQ(result->bools().capacity(), kRows) << expr->ToString();
  }
}

TEST_F(ColumnarExecTest, BareSerialScanDrainSharesTableColumns) {
  // Draining a bare scan hands out the table's own columns, and
  // charges exactly the stats a batch-by-batch drain would.
  auto dataset = catalog_.Lookup("Sales");
  ASSERT_TRUE(dataset.ok());
  const TablePtr& table = dataset->table;
  LogicalOpPtr scan =
      LogicalOp::Scan("Sales", dataset->guid, table->schema());
  for (size_t batch_rows : {size_t{1}, size_t{3}, size_t{1024}}) {
    const std::string label = "batch_rows=" + std::to_string(batch_rows);
    const ColumnMask all(table->num_columns(), true);
    BatchScanPipelineOp drained(scan.get(), {scan.get()}, table,
                                /*is_view_scan=*/false, batch_rows, all);
    ASSERT_TRUE(drained.Open().ok()) << label;
    BatchChunk chunk;
    ASSERT_TRUE(drained.DrainToChunk(&chunk).ok()) << label;
    ASSERT_EQ(chunk.num_rows, table->num_rows()) << label;
    ASSERT_EQ(chunk.columns.size(), table->num_columns()) << label;
    for (size_t c = 0; c < table->num_columns(); ++c) {
      EXPECT_EQ(chunk.columns[c].get(), table->column(c).get()) << label;
    }

    BatchScanPipelineOp streamed(scan.get(), {scan.get()}, table,
                                 /*is_view_scan=*/false, batch_rows, all);
    ASSERT_TRUE(streamed.Open().ok()) << label;
    size_t rows = 0;
    while (true) {
      ColumnBatch batch;
      bool done = false;
      ASSERT_TRUE(streamed.NextBatch(&batch, &done).ok()) << label;
      if (done) break;
      EXPECT_LE(batch.num_rows, batch_rows) << label;
      rows += batch.num_rows;
    }
    EXPECT_EQ(rows, table->num_rows()) << label;
    EXPECT_EQ(drained.stats().rows_out, streamed.stats().rows_out) << label;
    EXPECT_EQ(drained.stats().bytes_out, streamed.stats().bytes_out) << label;
    EXPECT_EQ(std::bit_cast<uint64_t>(drained.stats().cpu_cost),
              std::bit_cast<uint64_t>(streamed.stats().cpu_cost))
        << label;
  }
}

TEST_F(ColumnarExecTest, GroupByAggregates) {
  ExpectEngineParity(Plan(
      "SELECT MktSegment, COUNT(*), SUM(CustomerId), MIN(Name), "
      "MAX(CustomerId) FROM Customer GROUP BY MktSegment "
      "ORDER BY MktSegment"));
  // 100 groups over 500 rows: one group's rows span every batch.
  ExpectEngineParity(Plan(
      "SELECT CustomerId, SUM(Price), COUNT(*) FROM Sales "
      "GROUP BY CustomerId ORDER BY CustomerId"));
}

TEST_F(ColumnarExecTest, FloatingPointAvgBitExact) {
  // AVG over doubles: the columnar aggregation must accumulate each group's
  // values in global input order or the last ulp drifts and rendering
  // differs.
  ExpectEngineParity(Plan(
      "SELECT PartId, AVG(Price * Quantity * (1.0 - Discount)), "
      "SUM(Discount) FROM Sales GROUP BY PartId ORDER BY PartId"));
}

TEST_F(ColumnarExecTest, ScalarAggregateAndCountDistinct) {
  ExpectEngineParity(Plan(
      "SELECT COUNT(*), AVG(Price), COUNT(DISTINCT PartId) FROM Sales"));
}

// Join and group keys where equality is subtle: int64 5 against double 5.0,
// -0.0 against 0.0, NULLs, strings around the 8-byte word (empty, 7, 8, 9,
// 16 and 17 bytes, and strings sharing their first 8 bytes), and a mixed
// column built with Table::Append. The row engine buckets keys by the
// 128-bit Value::HashInto, the columnar engine by its 64-bit key hash, so
// byte parity shows that no output depends on the key hash.
void RegisterKeyTables(DatasetCatalog* catalog) {
  std::vector<Value> ints;
  for (int64_t v : {5, 0, -3, 7}) ints.push_back(Value(v));
  ints.push_back(Value::Null());
  std::vector<Value> dbls;
  for (double v : {5.0, -0.0, 0.0, 2.5, 7.0}) dbls.push_back(Value(v));
  dbls.push_back(Value::Null());
  // Prefixes of 0, 7, 8, 9, 16 and 17 bytes, strings sharing their first 8
  // bytes with them, and a NULL.
  const std::string alphabet = "abcdefghijklmnopq";
  std::vector<Value> strs;
  for (size_t len : {0, 7, 8, 9, 16, 17}) {
    strs.push_back(Value(alphabet.substr(0, len)));
  }
  for (const char* v : {"abcdefghX", "abcdefghY", "abcdefgh12345678"}) {
    strs.push_back(Value(v));
  }
  strs.push_back(Value::Null());
  // int 5 and double 5.0, int 0 and double -0.0, strings, a bool, a NULL.
  std::vector<Value> mixed;
  for (int64_t v : {5, 0}) mixed.push_back(Value(v));
  for (double v : {5.0, -0.0}) mixed.push_back(Value(v));
  for (const char* v : {"abcdefgh", "x"}) mixed.push_back(Value(v));
  mixed.push_back(Value(true));
  mixed.push_back(Value::Null());
  Schema schema({{"Id", DataType::kInt64},
                 {"IntKey", DataType::kInt64},
                 {"DblKey", DataType::kDouble},
                 {"StrKey", DataType::kString},
                 {"MixKey", DataType::kInt64}});
  // Row r takes each list's entry at r * stride + offset; both strides
  // below reach every entry of every list.
  auto make = [&](const std::string& name, size_t rows, size_t stride,
                  size_t offset) {
    auto table = std::make_shared<Table>(name, schema);
    for (size_t r = 0; r < rows; ++r) {
      const size_t k = r * stride + offset;
      Row row = {Value(static_cast<int64_t>(offset * 100 + r))};
      for (const std::vector<Value>* keys : {&ints, &dbls, &strs, &mixed}) {
        row.push_back((*keys)[k % keys->size()]);
      }
      EXPECT_TRUE(table->Append(row).ok());
    }
    return table;
  };
  TablePtr left = make("KeyL", 60, 1, 0);
  TablePtr right = make("KeyR", 40, 7, 1);
  ASSERT_TRUE(left->column(4)->mixed());
  ASSERT_TRUE(catalog->Register("KeyL", left, "guid-keyl-v1").ok());
  ASSERT_TRUE(catalog->Register("KeyR", right, "guid-keyr-v1").ok());
}

TEST_F(ColumnarExecTest, JoinKeysNeverDependOnTheKeyHash) {
  RegisterKeyTables(&catalog_);
  for (const char* sql :
       {"SELECT KeyL.Id, KeyR.Id, KeyL.StrKey FROM KeyL JOIN KeyR "
        "ON KeyL.StrKey = KeyR.StrKey",
        "SELECT KeyL.Id, KeyR.Id FROM KeyL LEFT JOIN KeyR "
        "ON KeyL.StrKey = KeyR.StrKey",
        "SELECT KeyL.Id, KeyR.Id, KeyR.DblKey FROM KeyL LEFT JOIN KeyR "
        "ON KeyL.IntKey = KeyR.DblKey",
        "SELECT KeyL.Id, KeyR.Id, KeyL.DblKey FROM KeyL JOIN KeyR "
        "ON KeyL.DblKey = KeyR.DblKey",
        "SELECT KeyL.Id, KeyR.Id, KeyR.MixKey FROM KeyL LEFT JOIN KeyR "
        "ON KeyL.MixKey = KeyR.MixKey",
        "SELECT KeyL.Id, KeyR.Id FROM KeyL JOIN KeyR "
        "ON KeyL.StrKey = KeyR.StrKey AND KeyL.IntKey = KeyR.IntKey"}) {
    for (JoinAlgorithm algorithm :
         {JoinAlgorithm::kHash, JoinAlgorithm::kLoop}) {
      SCOPED_TRACE(std::string(sql) + " " + JoinAlgorithmName(algorithm));
      ExpectEngineParity(Plan(sql, algorithm));
    }
  }
}

TEST_F(ColumnarExecTest, GroupKeysNeverDependOnTheKeyHash) {
  RegisterKeyTables(&catalog_);
  for (const char* sql :
       {"SELECT StrKey, COUNT(*), COUNT(DISTINCT MixKey), MIN(StrKey), "
        "MAX(StrKey) FROM KeyL GROUP BY StrKey",
        "SELECT DblKey, COUNT(*), SUM(IntKey), COUNT(DISTINCT StrKey) "
        "FROM KeyL GROUP BY DblKey",
        "SELECT MixKey, COUNT(*), COUNT(DISTINCT StrKey), MIN(StrKey), "
        "MAX(MixKey) FROM KeyL GROUP BY MixKey",
        "SELECT IntKey, StrKey, COUNT(*), COUNT(DISTINCT DblKey) FROM KeyL "
        "GROUP BY IntKey, StrKey",
        "SELECT COUNT(DISTINCT StrKey), MIN(StrKey), MAX(StrKey), "
        "COUNT(DISTINCT DblKey), COUNT(DISTINCT MixKey) FROM KeyL",
        "SELECT StrKey, COUNT(DISTINCT *), COUNT(DISTINCT IntKey) FROM KeyL "
        "GROUP BY StrKey",
        "SELECT COUNT(DISTINCT *) FROM KeyL",
        "SELECT KeyR.StrKey, COUNT(*), MAX(KeyL.StrKey) FROM KeyL "
        "JOIN KeyR ON KeyL.MixKey = KeyR.MixKey GROUP BY KeyR.StrKey"}) {
    SCOPED_TRACE(sql);
    ExpectEngineParity(Plan(sql));
  }
}

TEST_F(ColumnarExecTest, SortMultiKey) {
  ExpectEngineParity(Plan(
      "SELECT SaleId, Price FROM Sales WHERE Quantity > 2 "
      "ORDER BY Price DESC, SaleId"));
}

TEST_F(ColumnarExecTest, SortWithLimit) {
  ExpectEngineParity(
      Plan("SELECT SaleId, Price FROM Sales ORDER BY Price DESC, SaleId "
           "LIMIT 25"),
      /*output_only=*/true);
  ExpectEngineParity(
      Plan("SELECT SaleId, Price FROM Sales WHERE Quantity > 2 "
           "ORDER BY Price DESC, SaleId LIMIT 25"),
      /*output_only=*/true);
}

TEST_F(ColumnarExecTest, LimitOverStreamingScan) {
  // No materializing operator between the Limit and the scan: the columnar
  // engine overruns by at most batch_rows - 1 input rows, so only output is
  // compared.
  ExpectEngineParity(Plan("SELECT SaleId FROM Sales WHERE Price > 11 LIMIT 7"),
                     /*output_only=*/true);
}

TEST_F(ColumnarExecTest, UnionAll) {
  ExpectEngineParity(Plan(
      "SELECT CustomerId FROM Customer UNION ALL SELECT PartId FROM Parts"));
}

TEST_F(ColumnarExecTest, DeterministicUdo) {
  PlanBuilder builder(&catalog_);
  auto base = builder.BuildFromSql("SELECT Name FROM Customer");
  ASSERT_TRUE(base.ok());
  ExpectEngineParity(LogicalOp::Udo((*base)->children[0], "MyExtractor",
                                    /*deterministic=*/true, 2,
                                    /*selectivity=*/0.5));
}

TEST_F(ColumnarExecTest, NonDeterministicUdoSameJobSeed) {
  // Non-deterministic UDOs mix an arrival counter into the keep/drop hash:
  // both engines see rows in the same global order, so with the same job
  // seed the surviving set is identical.
  PlanBuilder builder(&catalog_);
  auto base = builder.BuildFromSql("SELECT Name FROM Customer");
  ASSERT_TRUE(base.ok());
  ExpectEngineParity(LogicalOp::Udo((*base)->children[0], "Random.Next",
                                    /*deterministic=*/false, 2,
                                    /*selectivity=*/0.5));
}

TEST_F(ColumnarExecTest, JoinAggregateSortEndToEnd) {
  ExpectEngineParity(Plan(
      "SELECT Customer.CustomerId, AVG(Price * Quantity) FROM Sales "
      "JOIN Customer ON Sales.CustomerId = Customer.CustomerId "
      "WHERE MktSegment = 'Asia' GROUP BY Customer.CustomerId"));
}

TEST_F(ColumnarExecTest, SpoolSideTableIdentical) {
  PlanBuilder builder(&catalog_);
  auto base = builder.BuildFromSql(
      "SELECT Name FROM Customer WHERE MktSegment = 'Asia'");
  ASSERT_TRUE(base.ok());
  LogicalOpPtr root = (*base)->Clone();
  root->children[0] = LogicalOp::Spool((*base)->children[0]);
  ExpectSpoolParity(root);
}

TEST_F(ColumnarExecTest, SpoolAboveJoinStaysFullWidth) {
  // The Project above reads one column, but the spool materializes the
  // join's every column: side table and bytes_spooled match the row engine.
  LogicalOpPtr root = Plan(
      "SELECT Name FROM Sales JOIN Customer "
      "ON Sales.CustomerId = Customer.CustomerId WHERE Price > 12");
  ASSERT_NE(root, nullptr);
  root->children[0] = LogicalOp::Spool(root->children[0]);
  ExpectSpoolParity(root);
  ExpectEngineParity(root);
}

TEST_F(ColumnarExecTest, ViewScanParity) {
  // Seal a view, then read it back through a fused ViewScan+Udo chain on
  // both engines.
  ViewStore store;
  Hash128 sig = HashString("columnar-viewscan-parity");
  ASSERT_TRUE(store.BeginMaterialize(sig, sig, "vc0", 1, 50.0).ok());
  TablePtr contents = testing_util::MakeCustomerTable(37);
  ASSERT_TRUE(
      store.Seal(sig, contents, contents->num_rows(), contents->byte_size(),
                 60.0)
          .ok());
  view_store_ = &store;

  LogicalOpPtr scan =
      LogicalOp::ViewScan(sig, "views/parity", contents->schema());
  ExpectEngineParity(LogicalOp::Udo(scan, "MyExtractor",
                                    /*deterministic=*/true, 2,
                                    /*selectivity=*/0.7));
  view_store_ = nullptr;
}

TEST_F(ColumnarExecTest, StaleGuidAbortsIdentically) {
  PlanBuilder builder(&catalog_);
  auto plan = builder.BuildFromSql("SELECT Name FROM Customer");
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(catalog_
                  .BulkUpdate("Customer", testing_util::MakeCustomerTable(),
                              "guid-customer-v2")
                  .ok());
  auto row_run = Run(*plan, ExecEngine::kRow, 1);
  auto col_run = Run(*plan, ExecEngine::kColumnar, 1024);
  ASSERT_FALSE(row_run.ok());
  ASSERT_FALSE(col_run.ok());
  EXPECT_EQ(col_run.status().code(), StatusCode::kAborted);
  // Identical failure identity, message included: both engines bind scans
  // through the same code path.
  EXPECT_EQ(col_run.status().ToString(), row_run.status().ToString());
}

class ColumnarFaultMatrixTest : public ColumnarExecTest,
                                public ::testing::WithParamInterface<int> {};

TEST_P(ColumnarFaultMatrixTest, SpoolAbortByteIdenticalAcrossEngines) {
  // Deterministic spool-write fault on the nth write: both engines hit the
  // site once per spooled row in the same order, so they abort at the same
  // row and both degrade to pass-through with byte-identical query output.
  const int nth = GetParam();
  PlanBuilder builder(&catalog_);
  auto base = builder.BuildFromSql(
      "SELECT Name, CustomerId FROM Customer WHERE CustomerId < 80");
  ASSERT_TRUE(base.ok());
  LogicalOpPtr spooled = LogicalOp::Spool((*base)->children[0]);
  LogicalOpPtr root = (*base)->Clone();
  root->children[0] = spooled;

  auto run = [&](ExecEngine engine, size_t batch_rows, bool faults,
                 int* aborts) {
    if (faults) {
      auto plan = fault::FaultPlan::Parse(std::string(fault::sites::kSpoolWrite) +
                                          "=nth:" + std::to_string(nth));
      EXPECT_TRUE(plan.ok()) << plan.status().ToString();
      fault::FaultInjector::Global().Arm(*plan);
    } else {
      fault::FaultInjector::Global().Disarm();
    }
    ExecContext context;
    context.catalog = &catalog_;
    context.engine = engine;
    context.batch_rows = batch_rows;
    context.on_spool_abort = [aborts](const LogicalOp&, const Status&) {
      *aborts += 1;
    };
    Executor executor(context);
    auto r = executor.Execute(root);
    fault::FaultInjector::Global().Disarm();
    return r;
  };

  int unused = 0;
  auto clean = run(ExecEngine::kRow, 1, /*faults=*/false, &unused);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  int row_aborts = 0;
  auto row_run = run(ExecEngine::kRow, 1, /*faults=*/true, &row_aborts);
  ASSERT_TRUE(row_run.ok()) << row_run.status().ToString();
  EXPECT_EQ(row_aborts, 1);
  ExpectSameOutput(row_run->output, clean->output, "row engine under fault");

  for (size_t batch_rows : kBatchSizes) {
    int col_aborts = 0;
    auto col_run = run(ExecEngine::kColumnar, batch_rows, /*faults=*/true,
                       &col_aborts);
    const std::string label = "nth=" + std::to_string(nth) +
                              " batch_rows=" + std::to_string(batch_rows);
    ASSERT_TRUE(col_run.ok()) << label << ": " << col_run.status().ToString();
    EXPECT_EQ(col_aborts, 1) << label;
    ExpectSameOutput(col_run->output, clean->output, label);
    EXPECT_EQ(col_run->stats.bytes_spooled, row_run->stats.bytes_spooled)
        << label;
  }
}

INSTANTIATE_TEST_SUITE_P(FaultSeeds, ColumnarFaultMatrixTest,
                         ::testing::Values(1, 17, 79));

}  // namespace
}  // namespace cloudviews
