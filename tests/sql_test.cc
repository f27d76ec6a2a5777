#include <gtest/gtest.h>

#include "sql/lexer.h"
#include "sql/parser.h"

namespace cloudviews {
namespace {

using sql::AstExprKind;
using sql::BinaryOp;
using sql::Parser;
using sql::SelectStatement;

// --- Lexer --------------------------------------------------------------------

TEST(LexerTest, KeywordsCaseInsensitive) {
  Lexer lexer("select FROM Where");
  auto tokens = lexer.Tokenize();
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 4u);  // 3 + end
  EXPECT_EQ((*tokens)[0].type, TokenType::kSelect);
  EXPECT_EQ((*tokens)[1].type, TokenType::kFrom);
  EXPECT_EQ((*tokens)[2].type, TokenType::kWhere);
}

TEST(LexerTest, NumbersIntAndDouble) {
  Lexer lexer("42 3.14 1e3 2.5e-2");
  auto tokens = lexer.Tokenize();
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kIntLiteral);
  EXPECT_EQ((*tokens)[0].int_value, 42);
  EXPECT_EQ((*tokens)[1].type, TokenType::kDoubleLiteral);
  EXPECT_DOUBLE_EQ((*tokens)[1].double_value, 3.14);
  EXPECT_EQ((*tokens)[2].type, TokenType::kDoubleLiteral);
  EXPECT_DOUBLE_EQ((*tokens)[2].double_value, 1000.0);
  EXPECT_DOUBLE_EQ((*tokens)[3].double_value, 0.025);
}

TEST(LexerTest, StringLiteralWithEscapes) {
  Lexer lexer("'it''s here'");
  auto tokens = lexer.Tokenize();
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kStringLiteral);
  EXPECT_EQ((*tokens)[0].text, "it's here");
}

TEST(LexerTest, UnterminatedStringFails) {
  Lexer lexer("'oops");
  EXPECT_FALSE(lexer.Tokenize().ok());
}

TEST(LexerTest, OperatorsMultiChar) {
  Lexer lexer("<= >= <> != = < >");
  auto tokens = lexer.Tokenize();
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kLe);
  EXPECT_EQ((*tokens)[1].type, TokenType::kGe);
  EXPECT_EQ((*tokens)[2].type, TokenType::kNe);
  EXPECT_EQ((*tokens)[3].type, TokenType::kNe);
  EXPECT_EQ((*tokens)[4].type, TokenType::kEq);
  EXPECT_EQ((*tokens)[5].type, TokenType::kLt);
  EXPECT_EQ((*tokens)[6].type, TokenType::kGt);
}

TEST(LexerTest, CommentsSkipped) {
  Lexer lexer("SELECT -- the select list\n x");
  auto tokens = lexer.Tokenize();
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 3u);
  EXPECT_EQ((*tokens)[1].text, "x");
}

TEST(LexerTest, UnexpectedCharacterFails) {
  Lexer lexer("SELECT #");
  EXPECT_FALSE(lexer.Tokenize().ok());
}

// --- Parser --------------------------------------------------------------------

TEST(ParserTest, SimpleSelect) {
  auto stmt = Parser::Parse("SELECT a, b FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->select_list.size(), 2u);
  EXPECT_EQ((*stmt)->from.table_name, "t");
  EXPECT_EQ((*stmt)->joins.size(), 0u);
  EXPECT_EQ((*stmt)->where, nullptr);
}

TEST(ParserTest, Figure4Query) {
  // First query from the paper's Figure 4.
  auto stmt = Parser::Parse(
      "SELECT CustomerId, AVG(Price*Quantity) "
      "FROM Sales JOIN Customer ON Sales.CustomerId = Customer.CustomerId "
      "WHERE MktSegment = 'Asia' GROUP BY CustomerId");
  ASSERT_TRUE(stmt.ok());
  const SelectStatement& s = **stmt;
  EXPECT_EQ(s.joins.size(), 1u);
  EXPECT_EQ(s.joins[0].table.table_name, "Customer");
  ASSERT_NE(s.where, nullptr);
  EXPECT_EQ(s.group_by.size(), 1u);
  // AVG(Price*Quantity) is a function call over a binary expression.
  const sql::AstExpr& avg = *s.select_list[1].expr;
  EXPECT_EQ(avg.kind, AstExprKind::kFunctionCall);
  EXPECT_EQ(avg.function_name, "AVG");
  EXPECT_EQ(avg.children[0]->kind, AstExprKind::kBinary);
}

TEST(ParserTest, PrecedenceMulOverAdd) {
  auto stmt = Parser::Parse("SELECT a + b * c FROM t");
  ASSERT_TRUE(stmt.ok());
  const sql::AstExpr& e = *(*stmt)->select_list[0].expr;
  ASSERT_EQ(e.kind, AstExprKind::kBinary);
  EXPECT_EQ(e.binary_op, BinaryOp::kAdd);
  EXPECT_EQ(e.children[1]->binary_op, BinaryOp::kMultiply);
}

TEST(ParserTest, PrecedenceAndOverOr) {
  auto stmt = Parser::Parse("SELECT x FROM t WHERE a = 1 OR b = 2 AND c = 3");
  ASSERT_TRUE(stmt.ok());
  const sql::AstExpr& w = *(*stmt)->where;
  EXPECT_EQ(w.binary_op, BinaryOp::kOr);
  EXPECT_EQ(w.children[1]->binary_op, BinaryOp::kAnd);
}

TEST(ParserTest, NotBindsTighterThanAnd) {
  auto stmt = Parser::Parse("SELECT x FROM t WHERE NOT a = 1 AND b = 2");
  ASSERT_TRUE(stmt.ok());
  const sql::AstExpr& w = *(*stmt)->where;
  EXPECT_EQ(w.binary_op, BinaryOp::kAnd);
  EXPECT_EQ(w.children[0]->kind, AstExprKind::kUnary);
}

TEST(ParserTest, BetweenInLikeIsNull) {
  auto stmt = Parser::Parse(
      "SELECT x FROM t WHERE a BETWEEN 1 AND 5 AND b IN (1, 2, 3) "
      "AND c LIKE 'a%' AND d IS NOT NULL");
  ASSERT_TRUE(stmt.ok());
}

TEST(ParserTest, NegatedPredicates) {
  auto stmt = Parser::Parse(
      "SELECT x FROM t WHERE a NOT BETWEEN 1 AND 5 AND b NOT IN (1) "
      "AND c NOT LIKE 'z%' AND d IS NULL");
  ASSERT_TRUE(stmt.ok());
}

TEST(ParserTest, GroupByHavingOrderByLimit) {
  auto stmt = Parser::Parse(
      "SELECT a, COUNT(*) AS n FROM t GROUP BY a HAVING COUNT(*) > 2 "
      "ORDER BY n DESC, a ASC LIMIT 10");
  ASSERT_TRUE(stmt.ok());
  const SelectStatement& s = **stmt;
  EXPECT_EQ(s.group_by.size(), 1u);
  ASSERT_NE(s.having, nullptr);
  ASSERT_EQ(s.order_by.size(), 2u);
  EXPECT_FALSE(s.order_by[0].ascending);
  EXPECT_TRUE(s.order_by[1].ascending);
  EXPECT_EQ(s.limit, 10);
}

TEST(ParserTest, MultiJoinWithAliases) {
  auto stmt = Parser::Parse(
      "SELECT s.PartId FROM Sales s JOIN Parts p ON s.PartId = p.PartId "
      "LEFT JOIN Customer c ON s.CustomerId = c.CustomerId");
  ASSERT_TRUE(stmt.ok());
  const SelectStatement& s = **stmt;
  ASSERT_EQ(s.joins.size(), 2u);
  EXPECT_EQ(s.joins[0].kind, sql::JoinKind::kInner);
  EXPECT_EQ(s.joins[1].kind, sql::JoinKind::kLeft);
  EXPECT_EQ(s.from.alias, "s");
}

TEST(ParserTest, UnionAllChain) {
  auto stmt = Parser::Parse("SELECT a FROM t UNION ALL SELECT a FROM u "
                            "UNION ALL SELECT a FROM v");
  ASSERT_TRUE(stmt.ok());
  ASSERT_NE((*stmt)->union_all_next, nullptr);
  ASSERT_NE((*stmt)->union_all_next->union_all_next, nullptr);
}

TEST(ParserTest, SelectStarAndCountStar) {
  auto stmt = Parser::Parse("SELECT * FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->select_list[0].expr->kind, AstExprKind::kStar);

  auto stmt2 = Parser::Parse("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(stmt2.ok());
  const sql::AstExpr& call = *(*stmt2)->select_list[0].expr;
  EXPECT_EQ(call.kind, AstExprKind::kFunctionCall);
  EXPECT_EQ(call.children[0]->kind, AstExprKind::kStar);
}

TEST(ParserTest, DistinctForms) {
  auto stmt = Parser::Parse("SELECT DISTINCT a FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE((*stmt)->distinct);

  auto stmt2 = Parser::Parse("SELECT COUNT(DISTINCT a) FROM t");
  ASSERT_TRUE(stmt2.ok());
  EXPECT_TRUE((*stmt2)->select_list[0].expr->distinct);
}

TEST(ParserTest, ErrorsAreDescriptive) {
  auto r1 = Parser::Parse("SELECT FROM t");
  EXPECT_FALSE(r1.ok());
  auto r2 = Parser::Parse("SELECT a FROM");
  EXPECT_FALSE(r2.ok());
  auto r3 = Parser::Parse("SELECT a FROM t WHERE");
  EXPECT_FALSE(r3.ok());
  auto r4 = Parser::Parse("SELECT a FROM t extra garbage ,");
  EXPECT_FALSE(r4.ok());
  auto r5 = Parser::Parse("SELECT a FROM t LIMIT x");
  EXPECT_FALSE(r5.ok());
}

TEST(ParserTest, ParenthesizedExpressions) {
  auto stmt = Parser::Parse("SELECT (a + b) * c FROM t");
  ASSERT_TRUE(stmt.ok());
  const sql::AstExpr& e = *(*stmt)->select_list[0].expr;
  EXPECT_EQ(e.binary_op, BinaryOp::kMultiply);
  EXPECT_EQ(e.children[0]->binary_op, BinaryOp::kAdd);
}

TEST(ParserTest, UnaryMinusAndPlus) {
  auto stmt = Parser::Parse("SELECT -a, +b FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->select_list[0].expr->kind, AstExprKind::kUnary);
  // Unary plus is a no-op.
  EXPECT_EQ((*stmt)->select_list[1].expr->kind, AstExprKind::kColumnRef);
}

// --- Recursion bound ------------------------------------------------------------

std::string Repeat(const std::string& piece, int n) {
  std::string out;
  out.reserve(piece.size() * static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) out += piece;
  return out;
}

// The statement and the expression holding the nesting take two of the
// parser's kMaxDepth levels; each paren, NOT or sign takes one more.
constexpr int kMaxExprNesting = Parser::kMaxDepth - 2;

std::string NestedParens(int n) {
  return "SELECT " + Repeat("(", n) + "1" + Repeat(")", n) + " FROM t";
}
std::string NotChain(int n) {
  return "SELECT a FROM t WHERE " + Repeat("NOT ", n) + "TRUE";
}
std::string MinusChain(int n) { return "SELECT " + Repeat("- ", n) + "1 FROM t"; }
// n statements: the i-th nests i levels deep and its select list one more.
std::string UnionChain(int n) {
  return Repeat("SELECT a FROM t UNION ALL ", n - 1) + "SELECT a FROM t";
}

void ExpectTooDeep(const std::string& sql) {
  auto stmt = Parser::Parse(sql);
  ASSERT_FALSE(stmt.ok());
  EXPECT_EQ(stmt.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(stmt.status().message().find("nesting deeper than 256 levels"),
            std::string::npos)
      << stmt.status().ToString();
  EXPECT_NE(stmt.status().message().find("at offset "), std::string::npos);
}

TEST(ParserTest, HostileNestingFailsInsteadOfOverflowingTheStack) {
  ExpectTooDeep(NestedParens(200000));
  ExpectTooDeep(NotChain(200000));
  ExpectTooDeep(MinusChain(200000));
  ExpectTooDeep(UnionChain(200000));
  // The error names the token where the bound was crossed: the paren after
  // "SELECT " and the 255 parens that opened levels 3 to 257.
  auto stmt = Parser::Parse(NestedParens(200000));
  ASSERT_FALSE(stmt.ok());
  EXPECT_NE(stmt.status().message().find("( at offset 262"),
            std::string::npos)
      << stmt.status().ToString();
}

TEST(ParserTest, NestingExactlyAtTheBoundParses) {
  EXPECT_TRUE(Parser::Parse(NestedParens(kMaxExprNesting)).ok());
  EXPECT_TRUE(Parser::Parse(NotChain(kMaxExprNesting)).ok());
  EXPECT_TRUE(Parser::Parse(MinusChain(kMaxExprNesting)).ok());
  EXPECT_TRUE(Parser::Parse(UnionChain(Parser::kMaxDepth - 1)).ok());
  ExpectTooDeep(NestedParens(kMaxExprNesting + 1));
  ExpectTooDeep(NotChain(kMaxExprNesting + 1));
  ExpectTooDeep(MinusChain(kMaxExprNesting + 1));
  ExpectTooDeep(UnionChain(Parser::kMaxDepth));
}

}  // namespace
}  // namespace cloudviews
