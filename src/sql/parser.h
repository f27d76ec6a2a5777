#ifndef CLOUDVIEWS_SQL_PARSER_H_
#define CLOUDVIEWS_SQL_PARSER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "sql/token.h"

namespace cloudviews {
namespace sql {

// Recursive-descent parser for the SCOPE-flavoured SQL subset:
//
//   SELECT [DISTINCT] expr [AS alias], ...
//   FROM table [alias]
//   [ [INNER|LEFT] JOIN table [alias] [ON expr] ]...
//   [WHERE expr] [GROUP BY expr, ...] [HAVING expr]
//   [ORDER BY expr [ASC|DESC], ...] [LIMIT n]
//   [UNION ALL <select>]
//
// Expression grammar (precedence low to high):
//   or, and, not, comparison (=, <>, <, <=, >, >=, BETWEEN, IN, IS NULL,
//   LIKE), additive, multiplicative, unary, primary.
//
// Recursion is bounded like obs/json_reader's: every statement (each UNION
// ALL branch nests one deeper), every expression (parenthesized, argument
// or clause), and every NOT and unary sign takes one nesting level, and
// input deeper than kMaxDepth levels fails with InvalidArgument at the
// offending token's offset instead of overflowing the stack.
class Parser {
 public:
  static constexpr int kMaxDepth = 256;

  // Parses one statement; trailing tokens after the statement are an error.
  static Result<std::unique_ptr<SelectStatement>> Parse(
      const std::string& sql);

 private:
  // One nesting level, held for the scope of a recursive parse step.
  class Nesting {
   public:
    explicit Nesting(int* depth) : depth_(depth) { *depth_ += 1; }
    ~Nesting() { *depth_ -= 1; }
    Nesting(const Nesting&) = delete;
    Nesting& operator=(const Nesting&) = delete;

   private:
    int* depth_;
  };

  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  // The error for input nested deeper than kMaxDepth.
  Status TooDeep() const;

  Result<std::unique_ptr<SelectStatement>> ParseSelect();
  Result<AstExprPtr> ParseExpr();
  Result<AstExprPtr> ParseOr();
  Result<AstExprPtr> ParseAnd();
  Result<AstExprPtr> ParseNot();
  Result<AstExprPtr> ParseComparison();
  Result<AstExprPtr> ParseAdditive();
  Result<AstExprPtr> ParseMultiplicative();
  Result<AstExprPtr> ParseUnary();
  Result<AstExprPtr> ParsePrimary();
  Result<TableRef> ParseTableRef();

  const Token& Peek(size_t ahead = 0) const;
  Token Advance();
  bool Match(TokenType type);
  Status Expect(TokenType type, const char* context);
  Status ErrorAt(const Token& tok, const std::string& message) const;

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace sql
}  // namespace cloudviews

#endif  // CLOUDVIEWS_SQL_PARSER_H_
